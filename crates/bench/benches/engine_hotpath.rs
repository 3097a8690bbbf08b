//! Criterion bench: the execution core's hot path — one shot of a
//! DAQ-wait-bound feedback workload, cycle-stepped reference vs the
//! event-driven lowered core.
//!
//! The `*_event` variants must come out far ahead of their `*_cycle`
//! twins (≥ 5x on the MRCE chain): the workload spends most of every
//! round stalled on the acquisition chain, and the event core jumps
//! those spans on the pre-resolved micro-op array instead of ticking
//! them. `*_event_arena` runs the engine's serving path instead — lean
//! shots on one reused `WorkerScratch` through
//! `ShotEngine::run_shot_reusing`, as the job server and the repo
//! benchmark run them (no per-shot machine construction) — and the
//! `lowering` rows price the one-time compile-side lowering cost those
//! savings amortise.

use criterion::{criterion_group, criterion_main, Criterion};
use quape_core::{CompiledJob, QuapeConfig, ShotEngine, StepMode, WorkerScratch};
use quape_isa::LoweredProgram;
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};
use quape_workloads::pulse::pulse_train;

fn shot_bench(c: &mut Criterion, name: &str, job: &CompiledJob, mode: StepMode) {
    let cfg = job.cfg().clone();
    c.bench_function(name, |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let qpu = BehavioralQpu::new(
                cfg.timings,
                MeasurementModel::Bernoulli { p_one: 0.5 },
                seed,
            );
            job.shot(Box::new(qpu), seed)
                .run_with_mode(mode, 10_000_000)
                .cycles
        })
    });
}

/// The engine's steady-state serving path: lean shots on one reused
/// [`WorkerScratch`], reset in place per shot.
fn arena_bench(c: &mut Criterion, name: &str, job: &CompiledJob) {
    let factory = BehavioralQpuFactory::new(
        job.cfg().timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
    );
    let engine = ShotEngine::new(job.clone(), factory);
    c.bench_function(name, |b| {
        let mut scratch = WorkerScratch::new();
        let mut shot = 0u64;
        b.iter(|| {
            shot = shot.wrapping_add(1);
            engine.run_shot_reusing(shot, &mut scratch).cycles
        })
    });
}

/// One-time compile-side lowering cost (amortised over every shot of a
/// batch by the `Arc`-shared artifact).
fn lowering_bench(c: &mut Criterion, name: &str, job: &CompiledJob) {
    let program = job.program().clone();
    let timings = job.cfg().timings;
    c.bench_function(name, |b| {
        b.iter(|| LoweredProgram::lower(&program, &timings).len())
    });
}

fn bench(c: &mut Criterion) {
    let cfg = QuapeConfig::uniprocessor().with_seed(7);

    let fig02 = CompiledJob::compile(cfg.clone(), conditional_x(0).expect("valid workload"))
        .expect("job compiles");
    shot_bench(c, "fig02_shot_cycle", &fig02, StepMode::Cycle);
    shot_bench(c, "fig02_shot_event", &fig02, StepMode::EventDriven);

    let fmr = CompiledJob::compile(
        cfg.clone(),
        feedback_chain(0, 1000).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "fmr_chain1k_cycle", &fmr, StepMode::Cycle);
    shot_bench(c, "fmr_chain1k_event", &fmr, StepMode::EventDriven);
    arena_bench(c, "fmr_chain1k_event_arena", &fmr);
    lowering_bench(c, "lowering_fmr_chain1k", &fmr);

    let mrce = CompiledJob::compile(
        cfg.clone(),
        mrce_feedback_chain(0, 1000).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "mrce_chain1k_cycle", &mrce, StepMode::Cycle);
    shot_bench(c, "mrce_chain1k_event", &mrce, StepMode::EventDriven);
    arena_bench(c, "mrce_chain1k_event_arena", &mrce);

    // AWG-playback-bound: dense parallel pulse trains on a multiplexed
    // readout keep the device timeline, occupancy checks and DAQ demod
    // servers hot — the emit/retire path dominates instead of idle skips.
    let awg = CompiledJob::compile(
        QuapeConfig::superscalar(8)
            .with_seed(7)
            .with_readout_lines(2),
        pulse_train(4, 256).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "awg_playback_cycle", &awg, StepMode::Cycle);
    shot_bench(c, "awg_playback_event", &awg, StepMode::EventDriven);
    arena_bench(c, "awg_playback_event_arena", &awg);
    lowering_bench(c, "lowering_pulse_train", &awg);
}

criterion_group!(benches, bench);
criterion_main!(benches);
