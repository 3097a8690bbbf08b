//! Scheduler stress tests: dependency topologies, prefetch behaviour and
//! allocation under contention.

use quape_core::{CompiledJob, QuapeConfig, RunReport, StopReason};
use quape_isa::{
    BlockStatus, ClassicalOp, Dependency, Gate1, Program, ProgramBuilder, QuantumOp, Qubit,
};
use quape_qpu::{BehavioralQpu, MeasurementModel};

fn run(cfg: QuapeConfig, program: Program) -> RunReport {
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, cfg.seed);
    let seed = cfg.seed;
    CompiledJob::compile(cfg, program)
        .expect("machine builds")
        .shot(Box::new(qpu), seed)
        .run_with_limit(500_000)
}

/// Builds a program whose blocks follow an arbitrary direct-dependency
/// DAG given as (name, deps, gates) triples (deps by name, topological
/// order).
fn dag_program(spec: &[(&str, &[&str], usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    for (i, (name, deps, gates)) in spec.iter().enumerate() {
        if deps.is_empty() {
            b.begin_block(*name, Dependency::none());
        } else {
            b.begin_block_named_deps(*name, deps);
        }
        for g in 0..*gates {
            b.quantum(
                2,
                QuantumOp::Gate1(Gate1::X, Qubit::new(((i + g) % 16) as u16)),
            );
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish().expect("valid DAG program")
}

fn done_cycle(report: &RunReport, program: &Program, name: &str) -> u64 {
    let id = program.blocks().find(name).expect("block exists");
    report
        .block_events
        .iter()
        .find(|e| e.block == id && e.status == BlockStatus::Done)
        .map(|e| e.cycle)
        .unwrap_or_else(|| panic!("block {name} never finished"))
}

fn exec_cycle(report: &RunReport, program: &Program, name: &str) -> u64 {
    let id = program.blocks().find(name).expect("block exists");
    report
        .block_events
        .iter()
        .find(|e| e.block == id && e.status == BlockStatus::InExecution)
        .map(|e| e.cycle)
        .unwrap_or_else(|| panic!("block {name} never executed"))
}

#[test]
fn diamond_dependency_respected() {
    // a → (b ∥ c) → d on 2 processors.
    let spec: &[(&str, &[&str], usize)] = &[
        ("a", &[], 6),
        ("b", &["a"], 6),
        ("c", &["a"], 6),
        ("d", &["b", "c"], 6),
    ];
    let program = dag_program(spec);
    let report = run(QuapeConfig::multiprocessor(2), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    assert!(done_cycle(&report, &program, "a") <= exec_cycle(&report, &program, "b"));
    assert!(done_cycle(&report, &program, "a") <= exec_cycle(&report, &program, "c"));
    assert!(done_cycle(&report, &program, "b") <= exec_cycle(&report, &program, "d"));
    assert!(done_cycle(&report, &program, "c") <= exec_cycle(&report, &program, "d"));
}

#[test]
fn wide_fanout_saturates_processors() {
    // One root, 8 independent children, on 4 processors: the children
    // must overlap in execution (at least two running concurrently).
    let mut spec: Vec<(String, Vec<String>, usize)> = vec![("root".into(), vec![], 4)];
    for i in 0..8 {
        spec.push((format!("child{i}"), vec!["root".into()], 12));
    }
    let spec_refs: Vec<(&str, Vec<&str>, usize)> = spec
        .iter()
        .map(|(n, d, g)| (n.as_str(), d.iter().map(String::as_str).collect(), *g))
        .collect();
    let mut b = ProgramBuilder::new();
    for (i, (name, deps, gates)) in spec_refs.iter().enumerate() {
        if deps.is_empty() {
            b.begin_block(*name, Dependency::none());
        } else {
            b.begin_block_named_deps(*name, deps);
        }
        for g in 0..*gates {
            b.quantum(
                2,
                QuantumOp::Gate1(Gate1::X, Qubit::new(((i * 3 + g) % 24) as u16)),
            );
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::multiprocessor(4), program.clone());
    assert_eq!(report.stop, StopReason::Completed);

    // Concurrency check: some child must start before another finishes.
    let execs: Vec<u64> = (0..8)
        .map(|i| exec_cycle(&report, &program, &format!("child{i}")))
        .collect();
    let dones: Vec<u64> = (0..8)
        .map(|i| done_cycle(&report, &program, &format!("child{i}")))
        .collect();
    let overlap = execs.iter().enumerate().any(|(i, &e)| {
        dones
            .iter()
            .enumerate()
            .any(|(j, &d)| i != j && e < d && execs[j] < d)
    });
    assert!(
        overlap,
        "children never overlapped: exec {execs:?} done {dones:?}"
    );
}

#[test]
fn long_chain_serializes_completely() {
    let spec: Vec<(String, Vec<String>, usize)> = (0..10)
        .map(|i| {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![format!("n{}", i - 1)]
            };
            (format!("n{i}"), deps, 3)
        })
        .collect();
    let mut b = ProgramBuilder::new();
    for (name, deps, gates) in &spec {
        if deps.is_empty() {
            b.begin_block(name.clone(), Dependency::none());
        } else {
            let refs: Vec<&str> = deps.iter().map(String::as_str).collect();
            b.begin_block_named_deps(name.clone(), &refs);
        }
        for g in 0..*gates {
            b.quantum(2, QuantumOp::Gate1(Gate1::Y, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    // Even with 6 processors, a chain runs one block at a time.
    let report = run(QuapeConfig::multiprocessor(6), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    for i in 1..10 {
        assert!(
            done_cycle(&report, &program, &format!("n{}", i - 1))
                <= exec_cycle(&report, &program, &format!("n{i}")),
            "chain order violated at n{i}"
        );
    }
}

#[test]
fn prefetch_hits_dominate_on_priority_chains() {
    // Priority levels executed in order with prefetching: after the
    // initial load, later blocks should mostly start from prefetched
    // banks.
    let mut b = ProgramBuilder::new();
    for level in 0..8u16 {
        b.begin_block(format!("p{level}"), Dependency::Priority(level));
        for g in 0..10 {
            b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::uniprocessor(), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert!(
        report.stats.prefetch_hits >= 5,
        "expected most switches to hit prefetched banks: {} hits / {} misses",
        report.stats.prefetch_hits,
        report.stats.prefetch_misses
    );
}

#[test]
fn disabling_prefetch_forces_allocation_fills() {
    let mut b = ProgramBuilder::new();
    for level in 0..8u16 {
        b.begin_block(format!("p{level}"), Dependency::Priority(level));
        for g in 0..10 {
            b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let mut cfg = QuapeConfig::uniprocessor();
    cfg.prefetch = false;
    let no_prefetch = run(cfg, program.clone());
    let with_prefetch = run(QuapeConfig::uniprocessor(), program);
    assert!(no_prefetch.stats.prefetch_hits <= 1);
    assert!(
        no_prefetch.execution_time_ns() > with_prefetch.execution_time_ns(),
        "prefetching must shorten the run: {} vs {}",
        with_prefetch.execution_time_ns(),
        no_prefetch.execution_time_ns()
    );
}

#[test]
fn more_processors_than_blocks_is_harmless() {
    let spec: &[(&str, &[&str], usize)] = &[("only", &[], 5)];
    let program = dag_program(spec);
    let report = run(QuapeConfig::multiprocessor(6), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.issued.len(), 5);
}

#[test]
fn empty_blocks_complete_immediately() {
    let mut b = ProgramBuilder::new();
    b.begin_block("empty", Dependency::none());
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block_named_deps("after", &["empty"]);
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
    b.push(ClassicalOp::Stop);
    b.end_block();
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::multiprocessor(2), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.issued.len(), 1);
}

#[test]
fn priority_mode_respects_level_order_on_multiprocessor() {
    // Regression test for the priority dependency mode: with several
    // blocks per priority level on 2 processors, no block of level p+1
    // may enter execution before *every* level-p block is done, while
    // blocks of one level are free to overlap.
    let mut b = ProgramBuilder::new();
    for level in 0..3u16 {
        for k in 0..2u16 {
            b.begin_block(format!("l{level}_{k}"), Dependency::Priority(level));
            for g in 0..8u16 {
                b.quantum(
                    2,
                    QuantumOp::Gate1(Gate1::X, Qubit::new((level * 2 + k + g) % 8)),
                );
            }
            b.push(ClassicalOp::Stop);
            b.end_block();
        }
    }
    let program = b.finish().expect("valid priority program");
    let report = run(QuapeConfig::multiprocessor(2), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    for level in 1..3u16 {
        let prev_done = (0..2u16)
            .map(|k| done_cycle(&report, &program, &format!("l{}_{k}", level - 1)))
            .max()
            .expect("two blocks per level");
        for k in 0..2u16 {
            let exec = exec_cycle(&report, &program, &format!("l{level}_{k}"));
            assert!(
                exec >= prev_done,
                "l{level}_{k} started at {exec} before level {} finished at {prev_done}",
                level - 1
            );
        }
    }
    // The two blocks of level 0 should overlap on 2 processors.
    let e0 = exec_cycle(&report, &program, "l0_0");
    let e1 = exec_cycle(&report, &program, "l0_1");
    let d0 = done_cycle(&report, &program, "l0_0");
    let d1 = done_cycle(&report, &program, "l0_1");
    assert!(
        e0 < d1 && e1 < d0,
        "level-0 blocks never overlapped: {e0}/{d0} vs {e1}/{d1}"
    );
}
