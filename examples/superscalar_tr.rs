//! The QOLP experiment: compile a suite benchmark, run it on the scalar
//! baseline and the 8-way superscalar, and compare CES/TR per step.
//!
//! ```sh
//! cargo run --release --example superscalar_tr [benchmark]
//! ```

use quape::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "hs16".to_string());
    let suite = benchmark_suite();
    let bench = suite.iter().find(|b| b.name == name).unwrap_or_else(|| {
        let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
        panic!("unknown benchmark `{name}`; available: {names:?}")
    });

    let sched = bench.circuit.schedule();
    println!(
        "benchmark {}: {} ops over {} steps ({})",
        bench.name,
        sched.op_count(),
        sched.depth(),
        sched.profile()
    );

    let program = Compiler::new().compile(&bench.circuit)?;
    let mut results = Vec::new();
    for (label, cfg) in [
        ("scalar baseline", QuapeConfig::scalar_baseline()),
        ("8-way superscalar", QuapeConfig::superscalar(8)),
    ] {
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 7);
        let report = CompiledJob::compile(cfg, program.clone())?
            .shot(Box::new(qpu), 0)
            .run();
        let ces = ces_report_paper(&report);
        println!(
            "\n{label}: average TR {:.2}, max TR {:.2}, late issues {}",
            ces.average_tr(),
            ces.max_tr(),
            report.stats.late_issues
        );
        results.push(ces.average_tr());
    }
    println!(
        "\nimprovement: {:.2}x (the paper reports 8.00x for hs16, 4.04x on average)",
        results[0] / results[1]
    );
    Ok(())
}
