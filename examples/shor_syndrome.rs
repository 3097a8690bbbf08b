//! The paper's headline CLP experiment: fault-tolerant Shor syndrome
//! measurement of the Steane code on 1 vs 6 processors.
//!
//! ```sh
//! cargo run --release --example shor_syndrome
//! ```

use quape::prelude::*;

fn mean_time_us(processors: usize, failure_rate: f64, runs: usize) -> f64 {
    let workload = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    let job = CompiledJob::compile(QuapeConfig::multiprocessor(processors), workload.program)
        .expect("valid machine");
    let mut total_ns = 0u64;
    for seed in 0..runs as u64 {
        let qpu = BehavioralQpu::new(
            job.cfg().timings,
            ShorSyndrome::measurement_model(failure_rate),
            seed,
        );
        let report = job.shot(Box::new(qpu), seed).run_with_limit(2_000_000);
        assert_eq!(report.stop, StopReason::Completed);
        total_ns += report.execution_time_ns();
    }
    total_ns as f64 / runs as f64 / 1000.0
}

fn main() {
    let workload = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    println!(
        "Shor syndrome measurement: {} blocks, {} priorities, {} quantum + {} classical instructions\n",
        workload.blocks,
        workload.priorities,
        workload.program.quantum_count(),
        workload.program.classical_count(),
    );

    let runs = 60;
    for failure_rate in [0.1, 0.25, 0.5] {
        let uni = mean_time_us(1, failure_rate, runs);
        let six = mean_time_us(6, failure_rate, runs);
        println!(
            "failure rate {failure_rate:4.2}: uniprocessor {uni:7.2} µs, six-core {six:7.2} µs, speedup {:.2}x",
            uni / six
        );
    }
    println!("\n(paper: up to 2.59x speedup at six cores)");

    // One six-core run in detail: per-processor utilization.
    let cfg = QuapeConfig::multiprocessor(6);
    let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.25), 1);
    let report = CompiledJob::compile(cfg, workload.program.clone())
        .expect("valid machine")
        .shot(Box::new(qpu), 1)
        .run_with_limit(2_000_000);
    println!(
        "\nsix-core utilization for one run ({} cycles):",
        report.cycles
    );
    for (i, p) in report.stats.processors.iter().enumerate() {
        println!(
            "  processor {i}: {:5.1}% busy, {} blocks, {} quantum + {} classical instructions",
            p.busy_fraction(report.cycles) * 100.0,
            p.blocks_completed,
            p.dispatched_quantum,
            p.dispatched_classical,
        );
    }
}
