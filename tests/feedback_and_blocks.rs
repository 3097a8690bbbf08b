//! Integration tests for feedback control and block scheduling across the
//! stack: RUS termination, Shor syndrome invariants, block status flows.

use quape::prelude::*;
use quape::workloads::feedback::{conditional_x, conditional_x_mrce, parallel_rus, rus_block};

#[test]
fn rus_terminates_for_every_seed() {
    let program = rus_block(0).expect("valid workload");
    for seed in 0..50 {
        let cfg = QuapeConfig::uniprocessor().with_seed(seed);
        let qpu = BehavioralQpu::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.6 },
            seed,
        );
        let report = CompiledJob::compile(cfg, program.clone())
            .expect("machine builds")
            .shot(Box::new(qpu), seed)
            .run_with_limit(1_000_000);
        assert_eq!(report.stop, StopReason::Completed, "seed {seed}");
        // The loop exits exactly when a 0 is measured.
        assert!(!report.measurements.last().expect("measured").value);
        for m in &report.measurements[..report.measurements.len() - 1] {
            assert!(m.value, "non-final round must have failed");
        }
    }
}

#[test]
fn fmr_and_mrce_feedback_agree_on_outcome() {
    // Both encodings of "X if measured 1" issue the same operations.
    for p_one in [0.0, 1.0] {
        let run = |program: Program| {
            let cfg = QuapeConfig::uniprocessor().with_seed(3);
            let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one }, 3);
            let report = CompiledJob::compile(cfg, program)
                .expect("machine builds")
                .shot(Box::new(qpu), 3)
                .run();
            report
                .issued
                .iter()
                .map(|o| o.op.to_string())
                .collect::<Vec<_>>()
        };
        let classic = run(conditional_x(0).expect("valid"));
        let fast = run(conditional_x_mrce(0).expect("valid"));
        assert_eq!(classic, fast, "p_one = {p_one}");
    }
}

#[test]
fn mrce_is_never_slower_than_fmr_feedback() {
    let run = |program: Program| {
        let cfg = QuapeConfig::uniprocessor().with_seed(4);
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, 4);
        CompiledJob::compile(cfg, program)
            .expect("machine builds")
            .shot(Box::new(qpu), 4)
            .run()
            .cycles
    };
    let classic = run(conditional_x(0).expect("valid"));
    let fast = run(conditional_x_mrce(0).expect("valid"));
    assert!(fast <= classic, "MRCE ({fast}) slower than FMR ({classic})");
}

#[test]
fn parallel_rus_is_faster_on_two_processors() {
    // Averaged over seeds (individual seeds can invert when W1's loop is
    // unusually short).
    let mean = |processors: usize| -> f64 {
        let program = parallel_rus(0, 1).expect("valid workload");
        let mut total = 0u64;
        for seed in 0..40 {
            let cfg = QuapeConfig::multiprocessor(processors).with_seed(seed);
            let qpu = BehavioralQpu::new(
                cfg.timings,
                MeasurementModel::Bernoulli { p_one: 0.5 },
                seed,
            );
            total += CompiledJob::compile(cfg, program.clone())
                .expect("machine builds")
                .shot(Box::new(qpu), seed)
                .run_with_limit(1_000_000)
                .execution_time_ns();
        }
        total as f64 / 40.0
    };
    let uni = mean(1);
    let dual = mean(2);
    assert!(
        dual < uni * 0.8,
        "two processors should hide one RUS latency: {dual:.0} vs {uni:.0} ns"
    );
}

#[test]
fn shor_blocks_all_complete_exactly_once() {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("generates");
    let cfg = QuapeConfig::multiprocessor(4).with_seed(2);
    let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.25), 2);
    let report = CompiledJob::compile(cfg, w.program.clone())
        .expect("machine builds")
        .shot(Box::new(qpu), 2)
        .run_with_limit(2_000_000);
    assert_eq!(report.stop, StopReason::Completed);
    for (id, info) in w.program.blocks().iter() {
        let done = report
            .block_events
            .iter()
            .filter(|e| e.block == id && e.status == quape::isa::BlockStatus::Done)
            .count();
        assert_eq!(
            done, 1,
            "block {} ({}) finished {done} times",
            id, info.name
        );
    }
}

#[test]
fn shor_priorities_never_invert() {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("generates");
    let cfg = QuapeConfig::multiprocessor(6).with_seed(8);
    let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.1), 8);
    let report = CompiledJob::compile(cfg, w.program.clone())
        .expect("machine builds")
        .shot(Box::new(qpu), 8)
        .run_with_limit(2_000_000);
    assert_eq!(report.stop, StopReason::Completed);

    // A block of priority p must never start before every block of
    // priority p-1 has finished.
    let prio = |id: quape::isa::BlockId| match w.program.blocks().get(id).expect("block").dependency
    {
        quape::isa::Dependency::Priority(p) => p,
        _ => unreachable!("Shor uses priorities"),
    };
    let mut last_done_per_prio: std::collections::BTreeMap<u16, u64> = Default::default();
    for e in &report.block_events {
        if e.status == quape::isa::BlockStatus::Done {
            let p = prio(e.block);
            let slot = last_done_per_prio.entry(p).or_insert(0);
            *slot = (*slot).max(e.cycle);
        }
    }
    for e in &report.block_events {
        if e.status == quape::isa::BlockStatus::InExecution {
            let p = prio(e.block);
            if p > 0 {
                let prev_done = last_done_per_prio[&(p - 1)];
                // "InExecution" is recorded when allocation *starts*; the
                // actual run begins after the fill, so allow the
                // allocation itself to overlap the predecessor's last
                // cycles only if the scheduler marked it after they were
                // done. The invariant checked: execution start cannot
                // precede the predecessor priority's completion.
                assert!(
                    e.cycle >= prev_done.saturating_sub(0) || e.cycle >= prev_done,
                    "priority {p} started at {} before priority {} finished at {prev_done}",
                    e.cycle,
                    p - 1
                );
            }
        }
    }
}

#[test]
fn six_processors_beat_one_on_shor() {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("generates");
    let mean = |n: usize| -> f64 {
        let mut total = 0u64;
        for seed in 0..25 {
            let cfg = QuapeConfig::multiprocessor(n).with_seed(seed);
            let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.25), seed);
            total += CompiledJob::compile(cfg, w.program.clone())
                .expect("machine builds")
                .shot(Box::new(qpu), seed)
                .run_with_limit(2_000_000)
                .execution_time_ns();
        }
        total as f64 / 25.0
    };
    let uni = mean(1);
    let six = mean(6);
    let speedup = uni / six;
    assert!(
        (1.8..=3.5).contains(&speedup),
        "six-core speedup {speedup:.2} outside the paper's regime (2.59x reported)"
    );
}
