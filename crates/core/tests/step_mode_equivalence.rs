//! Deterministic two-way executor equivalence suite.
//!
//! The machine has two executors over one microarchitecture model: the
//! cycle-stepped reference oracle (`StepMode::Cycle`) and the
//! event-driven lowered core (`StepMode::EventDriven`). On every
//! workload here — FMR feedback chains, MRCE context switching, branch
//! loops with live ALU state, multi-block scheduling — both must produce
//! bit-identical [`RunReport`]s, and the shot engine must produce
//! bit-identical [`BatchAggregate`]s.

use quape_core::{
    BatchAggregate, CompiledJob, QuapeConfig, RunReport, Shot, ShotEngine, StepMode, WorkerScratch,
};
use quape_isa::{
    ClassicalOp, Cond, CondOp, Dependency, Gate1, Program, ProgramBuilder, QuantumOp, Qubit, Reg,
};
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};

/// Measure → FMR → conditional X, `rounds` times: the Stage I/II
/// synchronization-stall workload the lowered fast path targets.
fn fmr_chain(rounds: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..rounds {
        let q = (r % 2) as u16;
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.fmr(0, q);
        b.cmpi(0, 1);
        let skip = format!("skip{r}");
        b.br_to(Cond::Ne, &skip);
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
        b.label(&skip);
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid fmr chain")
}

/// Measure → MRCE, `rounds` times: exercises the context store and the
/// 3-cycle fast context switch.
fn mrce_chain(rounds: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..rounds {
        let q = (r % 2) as u16;
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(q),
            target: Qubit::new(q),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        });
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid mrce chain")
}

/// A backward-branching measurement loop with live counter state: taken
/// and untaken branches, ALU flags, and timeline re-anchoring all in one.
fn counted_loop(iterations: i16) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(ClassicalOp::Ldi {
        rd: Reg::new(1),
        imm: iterations,
    });
    b.label("loop");
    b.quantum(2, QuantumOp::Measure(Qubit::new(0)));
    b.fmr(0, 0);
    b.cmpi(0, 1);
    b.br_to(Cond::Ne, "skip");
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
    b.label("skip");
    b.push(ClassicalOp::Addi {
        rd: Reg::new(1),
        rs: Reg::new(1),
        imm: -1,
    });
    b.cmpi(1, 0);
    b.br_to(Cond::Ne, "loop");
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid loop program")
}

/// Two priority blocks the scheduler distributes across processors, each
/// running its own feedback round.
fn two_blocks() -> Program {
    let mut b = ProgramBuilder::new();
    for (name, q) in [("left", 0u16), ("right", 1u16)] {
        b.begin_block(name, Dependency::Priority(0));
        b.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q)));
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(q),
            target: Qubit::new(q),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        });
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish().expect("valid two-block program")
}

fn shot(job: &CompiledJob, seed: u64) -> Shot {
    let qpu = BehavioralQpu::new(
        job.cfg().timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    job.shot(Box::new(qpu), seed)
}

fn run(job: &CompiledJob, mode: StepMode, seed: u64) -> RunReport {
    shot(job, seed).run_with_mode(mode, 2_000_000)
}

fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("fmr_chain", fmr_chain(24)),
        ("mrce_chain", mrce_chain(24)),
        ("counted_loop", counted_loop(8)),
        ("two_blocks", two_blocks()),
    ]
}

#[test]
fn both_step_modes_are_bit_identical() {
    for (label, program) in workloads() {
        for cfg in [QuapeConfig::uniprocessor(), QuapeConfig::superscalar(4)] {
            let job = CompiledJob::compile(cfg, program.clone()).expect("job compiles");
            for seed in [3, 17, 40] {
                let cycle = run(&job, StepMode::Cycle, seed);
                let event = run(&job, StepMode::EventDriven, seed);
                assert!(cycle.issued_ops > 0, "{label}: trivial run");
                assert_eq!(cycle, event, "{label}/{seed}: event-driven diverged");
            }
        }
    }
}

/// A shot advanced with [`Shot::step`] finishes on the lowered core it
/// was stepped on: `EventDriven` resumes the time-skipping loop
/// mid-shot, `Cycle` keeps stepping it cycle by cycle. Either way the
/// report is the un-stepped run's.
#[test]
fn manually_stepped_shots_finish_with_identical_reports() {
    for (label, program) in workloads() {
        let job = CompiledJob::compile(QuapeConfig::superscalar(4), program).expect("job compiles");
        let unstepped = run(&job, StepMode::EventDriven, 17);
        for steps in [1, 7, 40] {
            for mode in [StepMode::EventDriven, StepMode::Cycle] {
                let mut stepped = shot(&job, 17);
                for _ in 0..steps {
                    stepped.step();
                }
                assert_eq!(stepped.cycle(), steps);
                assert_eq!(
                    stepped.run_with_mode(mode, 2_000_000),
                    unstepped,
                    "{label}: {mode:?} diverged after {steps} manual steps"
                );
            }
        }
    }
}

#[test]
fn engine_batches_are_identical_across_step_modes() {
    for (label, program) in workloads() {
        let cfg = QuapeConfig::superscalar(4);
        let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let batch = |mode: StepMode| -> BatchAggregate {
            ShotEngine::new(job.clone(), factory.clone())
                .base_seed(7)
                .threads(2)
                .step_mode(mode)
                .run(32)
                .aggregate
        };
        let cycle = batch(StepMode::Cycle);
        let event = batch(StepMode::EventDriven);
        assert_eq!(cycle, event, "{label}: event-driven batch diverged");
    }
}

/// The arena reset must be indistinguishable from fresh construction:
/// pumping shots through one reused [`WorkerScratch`] yields the same
/// summary, shot for shot, as a fresh `run_shot` and as the
/// [`StepMode::Cycle`] engine — across every workload and both configs,
/// including multi-block scheduling where the reset has to rewind the
/// scheduler table and the icache banks. The one scratch also moves
/// between jobs, so it rebuilds its core on every job change. (The exact
/// measurement records of a reused core are compared in core's unit
/// tests.)
#[test]
fn reused_runner_matches_fresh_shots() {
    let mut scratch = WorkerScratch::new();
    for (label, program) in workloads() {
        for cfg in [QuapeConfig::uniprocessor(), QuapeConfig::superscalar(4)] {
            let job = CompiledJob::compile(cfg.clone(), program.clone()).expect("job compiles");
            let factory =
                BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
            let engine = ShotEngine::new(job.clone(), factory.clone())
                .base_seed(5)
                .cycle_limit(2_000_000);
            let oracle = ShotEngine::new(job, factory)
                .base_seed(5)
                .cycle_limit(2_000_000)
                .step_mode(StepMode::Cycle);
            for shot in 0..12u64 {
                let reused = engine.run_shot_reusing(shot, &mut scratch);
                assert!(reused.issued > 0, "{label}/{shot}: trivial shot");
                assert_eq!(reused, engine.run_shot(shot), "{label}/{shot}: fresh");
                assert_eq!(
                    reused,
                    oracle.run_shot(shot),
                    "{label}/{shot}: cycle oracle"
                );
            }
        }
    }
}

#[test]
fn compiled_jobs_share_a_stable_lowering() {
    let cfg = QuapeConfig::superscalar(4);
    let a = CompiledJob::compile(cfg.clone(), fmr_chain(8)).expect("compiles");
    let b = CompiledJob::compile(cfg, fmr_chain(8)).expect("compiles");
    assert_eq!(a.lowered().len(), a.program().len());
    assert_eq!(a.lowered(), b.lowered());
    // Cloning the job shares the lowering artifact, not a re-lowering.
    let c = a.clone();
    assert!(std::ptr::eq(a.lowered(), c.lowered()));
}
