//! Integration tests for the shot-batched execution engine: determinism
//! across thread counts, equivalence with the single-shot wrapper, and
//! batched RB through the complete control stack.

use quape::prelude::*;
use quape::qpu::{DepolarizingNoise, ReadoutError};
use quape::workloads::rb::{simrb_program, RbBatch};

fn simrb_job(m: u32, seed: u64) -> CompiledJob {
    let group = CliffordGroup::new();
    let program = simrb_program(&group, 0, 1, m, seed).expect("valid program");
    CompiledJob::compile(QuapeConfig::superscalar(8), program).expect("job compiles")
}

fn noisy_factory(job: &CompiledJob) -> StateVectorQpuFactory {
    StateVectorQpuFactory {
        num_qubits: 2,
        timings: job.cfg().timings,
        noise: DepolarizingNoise::for_fidelity(0.98),
        readout: ReadoutError {
            p01: 0.02,
            p10: 0.02,
        },
    }
}

/// The acceptance property: the same base seed yields a bit-identical
/// aggregate whether the batch ran on 1 thread or many.
#[test]
fn batch_aggregate_is_identical_across_thread_counts() {
    let job = simrb_job(12, 5);
    let run = |threads: usize| {
        ShotEngine::new(job.clone(), noisy_factory(&job))
            .base_seed(21)
            .threads(threads)
            .run(64)
    };
    let sequential = run(1);
    let parallel = run(4);
    let wide = run(16);
    assert_eq!(sequential.aggregate, parallel.aggregate);
    assert_eq!(sequential.aggregate, wide.aggregate);
    assert_eq!(parallel.threads, 4);
    // And re-running the same configuration reproduces it exactly.
    assert_eq!(run(2).aggregate, sequential.aggregate);
}

/// Different base seeds must not collide, even for adjacent small bases
/// (a regression guard on the per-shot seed derivation).
#[test]
fn adjacent_base_seeds_give_different_aggregates() {
    let job = simrb_job(12, 5);
    let run = |base: u64| {
        ShotEngine::new(job.clone(), noisy_factory(&job))
            .base_seed(base)
            .threads(2)
            .run(48)
    };
    let a = run(1).aggregate;
    let b = run(2).aggregate;
    assert_ne!(a.qubits, b.qubits, "adjacent base seeds collided");
}

/// Every shot of a batch behaves exactly like the same seeds pushed
/// through single full-report shots.
#[test]
fn batch_shots_match_manual_machine_runs() {
    let job = simrb_job(8, 3);
    let factory = noisy_factory(&job);
    let base = 11u64;
    let shots = 16u64;
    let report = ShotEngine::new(job.clone(), factory.clone())
        .base_seed(base)
        .threads(4)
        .run(shots);

    // Reproduce the aggregate's survival numerator by hand with the
    // single-shot path, using the engine's per-shot QPU seed stream. The
    // machine PRNG only drives DAQ jitter, which cannot change outcomes,
    // so survival counts must agree exactly.
    let group = CliffordGroup::new();
    let program = simrb_program(&group, 0, 1, 8, 3).expect("valid program");
    let mut survived = 0u64;
    for i in 0..shots {
        let seed = quape::core::shot_seed(base, i);
        let qpu = StateVectorQpu::new(
            2,
            job.cfg().timings,
            DepolarizingNoise::for_fidelity(0.98),
            ReadoutError {
                p01: 0.02,
                p10: 0.02,
            },
            seed,
        );
        let run = CompiledJob::compile(QuapeConfig::superscalar(8), program.clone())
            .expect("machine builds")
            .shot(Box::new(qpu), 0)
            .run();
        let first = run
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 0)
            .expect("qubit 0 measured");
        if !first.value {
            survived += 1;
        }
    }
    assert_eq!(report.aggregate.qubits[0].first_zero_shots, survived);
}

/// Noiseless RB batched through the full stack survives on every shot of
/// every thread.
#[test]
fn noiseless_batched_rb_survives_everywhere() {
    let group = CliffordGroup::new();
    let batch = RbBatch::new(DepolarizingNoise {
        pauli_error_prob: 0.0,
    })
    .with_shots(32)
    .with_threads(4);
    let job = batch.simrb_job(&group, 0, 1, 16, 9).expect("valid job");
    let report = batch.run(&job, 9);
    let agg = &report.aggregate;
    assert_eq!(agg.stops.completed, 32);
    assert_eq!(agg.survival(0), Some(1.0));
    assert_eq!(agg.survival(1), Some(1.0));
    assert!(
        agg.timing_clean(),
        "late issues or violations in a clean batch"
    );
}

/// The num_qubits override sizes the channel map without affecting the
/// batch outcome digest width consistency.
#[test]
fn num_qubits_override_flows_through_the_batch() {
    let program = quape::isa::assemble("0 X q0\n2 MEAS q0\nSTOP\n").expect("valid program");
    let cfg = QuapeConfig::superscalar(4).with_num_qubits(6);
    let job = CompiledJob::compile(cfg, program).expect("job compiles");
    assert_eq!(job.num_qubits(), 6);
    let factory = BehavioralQpuFactory::new(job.cfg().timings, MeasurementModel::AlwaysOne);
    let report = ShotEngine::new(job, factory).threads(2).run(8);
    // Histograms are sized by the override; only qubit 0 was measured.
    assert_eq!(report.aggregate.qubits.len(), 6);
    assert_eq!(report.aggregate.qubits[0].ones, 8);
    assert!(report.aggregate.qubits[1..]
        .iter()
        .all(|h| h.shots_measured == 0));
}
