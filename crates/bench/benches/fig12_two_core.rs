//! Criterion bench: host throughput of the Fig. 12 two-core runs
//! (partition + execution of one suite benchmark).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quape_compiler::{partition_two_blocks, Compiler};
use quape_core::{CompiledJob, QuapeConfig};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::benchmarks::ising;

fn bench(c: &mut Criterion) {
    let compiler = Compiler::new();
    let circuit = ising(16, 3);
    let (program, _) = partition_two_blocks(&compiler, &circuit).expect("partitions");
    let mut group = c.benchmark_group("fig12_two_core");
    group.bench_function("partition_ising_16", |b| {
        b.iter(|| partition_two_blocks(&compiler, &circuit).expect("partitions"))
    });
    let job = CompiledJob::compile(QuapeConfig::multiprocessor(2), program).expect("valid machine");
    group.bench_function("run_ising_16_two_core", |b| {
        b.iter_batched(
            || {
                let model = MeasurementModel::Bernoulli { p_one: 0.5 };
                job.shot(Box::new(BehavioralQpu::new(job.cfg().timings, model, 3)), 3)
            },
            |m| m.run(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
