//! Criterion bench: host throughput of the Fig. 11 workload (one full
//! Shor-syndrome run) on 1 and 6 processors.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quape_core::{CompiledJob, QuapeConfig};
use quape_qpu::BehavioralQpu;
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};

fn bench(c: &mut Criterion) {
    let workload = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    let mut group = c.benchmark_group("fig11_shor_syndrome");
    for n in [1usize, 6] {
        let job = CompiledJob::compile(QuapeConfig::multiprocessor(n), workload.program.clone())
            .expect("valid machine");
        group.bench_function(format!("{n}_processors"), |b| {
            b.iter_batched(
                || {
                    let model = ShorSyndrome::measurement_model(0.25);
                    let qpu = BehavioralQpu::new(job.cfg().timings, model, 7);
                    job.shot(Box::new(qpu), 7)
                },
                |m| m.run_with_limit(2_000_000),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
