//! Regenerates Fig. 13: average Time Ratio of the 8-way superscalar vs the
//! scalar baseline (clock 10 ns, gate 20 ns; the dotted line is TR = 1).
//!
//! Usage: `fig13_superscalar [--json] [--shots N]`.
//!
//! `--shots N` additionally measures host throughput: N shots of the
//! hs16 benchmark per configuration through the batched `ShotEngine`
//! (compile once, per-shot RNG streams), printed as shots/sec.

use quape_bench::fig13;
use quape_bench::table::{to_json, TextTable};
use quape_compiler::Compiler;
use quape_core::{CompiledJob, QuapeConfig, ShotEngine};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_workloads::benchmarks::hs16;

fn batch_throughput(shots: u64) {
    println!("\nbatch throughput (hs16, {shots} engine shots per configuration):");
    let program = Compiler::new()
        .compile(&hs16())
        .expect("benchmark compiles");
    let mut t = TextTable::new(["configuration", "shots/sec", "p50 cycles", "p95 cycles"]);
    for (name, cfg) in [
        ("scalar", QuapeConfig::scalar_baseline()),
        ("superscalar 8-way", QuapeConfig::superscalar(8)),
    ] {
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let job = CompiledJob::compile(cfg, program.clone()).expect("valid job");
        let report = ShotEngine::new(job, factory).base_seed(7).run(shots);
        t.row([
            name.to_string(),
            format!("{:.0}", report.shots_per_sec()),
            report.aggregate.cycles.p50.to_string(),
            report.aggregate.cycles.p95.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let shots: Option<u64> = std::env::args().position(|a| a == "--shots").map(|pos| {
        let v = std::env::args()
            .nth(pos + 1)
            .expect("--shots needs a number");
        v.parse().expect("--shots needs a number")
    });
    let rows = fig13::run();
    if json {
        println!("{}", to_json(&rows));
        return;
    }
    println!("Fig. 13 — average TR, 8-way superscalar vs scalar baseline:");
    let mut t = TextTable::new([
        "benchmark",
        "source",
        "baseline avg TR",
        "baseline max TR",
        "8-way avg TR",
        "improvement",
        "TR<=1",
    ]);
    for r in &rows {
        t.row([
            r.benchmark.clone(),
            r.source.clone(),
            format!("{:.2}", r.baseline_avg_tr),
            format!("{:.1}", r.baseline_max_tr),
            format!("{:.2}", r.superscalar_avg_tr),
            format!("{:.2}x", r.improvement),
            if r.superscalar_meets_deadline {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "average improvement: {:.2}x   (paper: 4.04x; hs16 8.00x; rd84_143 1.60x)",
        fig13::average_improvement(&rows)
    );
    if let Some(shots) = shots {
        batch_throughput(shots);
    }
}
