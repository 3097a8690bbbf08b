//! Criterion bench over the ablation configurations DESIGN.md calls out:
//! prefetch on/off, fast context switch on/off, and superscalar width.
//! (Simulated-metric ablations are printed by the `ablations` binary;
//! these benches track the host cost of each configuration.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quape_compiler::Compiler;
use quape_core::{CompiledJob, QuapeConfig};
use quape_qpu::{BehavioralQpu, CliffordGroup, MeasurementModel};
use quape_workloads::benchmarks::hs16;
use quape_workloads::rb::active_reset_with_rb;
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};

fn run(cfg: QuapeConfig, program: quape_isa::Program, model: MeasurementModel) -> u64 {
    let seed = cfg.seed;
    let qpu = BehavioralQpu::new(cfg.timings, model, seed);
    CompiledJob::compile(cfg, program)
        .expect("valid machine")
        .shot(Box::new(qpu), seed)
        .run_with_limit(2_000_000)
        .execution_time_ns()
}

fn bench(c: &mut Criterion) {
    let shor = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    let mut group = c.benchmark_group("ablations");

    for prefetch in [true, false] {
        group.bench_function(format!("shor_6core_prefetch_{prefetch}"), |b| {
            b.iter_batched(
                || {
                    let mut cfg = QuapeConfig::multiprocessor(6).with_seed(5);
                    cfg.prefetch = prefetch;
                    cfg
                },
                |cfg| {
                    run(
                        cfg,
                        shor.program.clone(),
                        ShorSyndrome::measurement_model(0.25),
                    )
                },
                BatchSize::SmallInput,
            )
        });
    }

    let clifford = CliffordGroup::new();
    let fcs_prog = active_reset_with_rb(&clifford, 0, 1, 16, 3)
        .expect("valid workload")
        .program;
    for fcs in [true, false] {
        group.bench_function(format!("active_reset_rb_fcs_{fcs}"), |b| {
            b.iter_batched(
                || {
                    let mut cfg = QuapeConfig::superscalar(8).with_seed(5);
                    cfg.fast_context_switch = fcs;
                    cfg
                },
                |cfg| run(cfg, fcs_prog.clone(), MeasurementModel::AlwaysOne),
                BatchSize::SmallInput,
            )
        });
    }

    let hs = Compiler::new().compile(&hs16()).expect("compiles");
    for width in [1usize, 2, 4, 8, 16] {
        group.bench_function(format!("hs16_width_{width}"), |b| {
            b.iter_batched(
                || QuapeConfig::superscalar(width).with_seed(5),
                |cfg| run(cfg, hs.clone(), MeasurementModel::Bernoulli { p_one: 0.5 }),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
