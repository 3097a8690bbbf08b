//! Criterion bench: host throughput of the Fig. 13 runs — scalar vs 8-way
//! superscalar executing hs16, plus CES/TR metric extraction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quape_compiler::Compiler;
use quape_core::{ces_report_paper, CompiledJob, QuapeConfig};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::benchmarks::hs16;

fn bench(c: &mut Criterion) {
    let program = Compiler::new().compile(&hs16()).expect("compiles");
    let mut group = c.benchmark_group("fig13_superscalar");
    for (name, cfg) in [
        ("scalar_hs16", QuapeConfig::scalar_baseline()),
        ("superscalar8_hs16", QuapeConfig::superscalar(8)),
    ] {
        let job = CompiledJob::compile(cfg, program.clone()).expect("valid machine");
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let model = MeasurementModel::Bernoulli { p_one: 0.5 };
                    job.shot(Box::new(BehavioralQpu::new(job.cfg().timings, model, 5)), 0)
                },
                |m| {
                    let report = m.run();
                    ces_report_paper(&report).average_tr()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
