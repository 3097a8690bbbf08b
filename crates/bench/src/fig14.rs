//! Fig. 14: RB and simRB on the qubit pair (q0, q1).
//!
//! Two modes:
//!
//! * [`run_direct`] — the full experiment on the state-vector QPU with
//!   the calibrated noise/crosstalk model (fast; this regenerates the
//!   figure's four decay curves and fitted fidelities);
//! * [`run_through_stack`] — drives RB sequences *through the complete
//!   control stack* (assembler → machine → emitter → state-vector QPU),
//!   validating, as the paper's §8 does, that QuAPE issues simultaneous
//!   operations correctly. Survival comes from the measurement records
//!   the machine collected.

use quape_core::{shot_seed, CompiledJob, QuapeConfig, StateVectorQpu};
use quape_qpu::{
    fit_decay, run_simrb_experiment, CliffordGroup, DecayFit, DepolarizingNoise, RbConfig,
    ReadoutError, SimRbReport,
};
use quape_workloads::rb::{rb_program, RbBatch};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Runs the calibrated Fig. 14 experiment directly on the QPU substrate.
pub fn run_direct() -> SimRbReport {
    run_simrb_experiment(&RbConfig::paper()).expect("RB experiment fits")
}

/// Through-stack RB decay measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StackRbResult {
    /// Sequence lengths.
    pub lengths: Vec<u32>,
    /// Survival of qubit 0 (individual RB).
    pub survival_individual: Vec<f64>,
    /// Survival of qubit 0 (simRB).
    pub survival_simultaneous: Vec<f64>,
    /// Fit of the individual curve.
    pub fit_individual: DecayFit,
    /// Fit of the simultaneous curve.
    pub fit_simultaneous: DecayFit,
}

/// Drives RB programs through the full control stack.
///
/// `samples` random sequences are averaged per length, each executed as a
/// one-shot batch on a superscalar QuAPE machine in front of a noisy
/// two-qubit state-vector QPU.
pub fn run_through_stack(lengths: &[u32], samples: usize) -> StackRbResult {
    run_through_stack_batch(lengths, samples, 1, 0)
}

/// Batched through-stack RB: `samples` random sequences per length, each
/// compiled once and executed for `shots_per_sample` independent noise
/// realizations by the shot engine on `threads` workers (0 = automatic).
///
/// Survival estimates average over sequences *and* shots, which tightens
/// them at the same number of compiled programs — the multi-shot batching
/// the §8 experiment implies.
pub fn run_through_stack_batch(
    lengths: &[u32],
    samples: usize,
    shots_per_sample: u64,
    threads: usize,
) -> StackRbResult {
    let group = CliffordGroup::new();
    let batch = RbBatch::new(DepolarizingNoise::for_fidelity(0.995))
        .with_shots(shots_per_sample.max(1))
        .with_threads(threads);
    let survive = |simultaneous: bool, m: u32, seed: u64| -> f64 {
        let job = if simultaneous {
            batch
                .simrb_job(&group, 0, 1, m, seed)
                .expect("valid program")
        } else {
            batch.rb_job(&group, 0, m, seed).expect("valid program")
        };
        batch.survival(&job, seed, 0)
    };
    let mean = |simultaneous: bool, m: u32| -> f64 {
        (0..samples)
            .map(|i| survive(simultaneous, m, 1000 + i as u64))
            .sum::<f64>()
            / samples as f64
    };
    let survival_individual: Vec<f64> = lengths.iter().map(|&m| mean(false, m)).collect();
    let survival_simultaneous: Vec<f64> = lengths.iter().map(|&m| mean(true, m)).collect();
    let fit_individual = fit_decay(lengths, &survival_individual).expect("individual fit");
    let fit_simultaneous = fit_decay(lengths, &survival_simultaneous).expect("simRB fit");
    StackRbResult {
        lengths: lengths.to_vec(),
        survival_individual,
        survival_simultaneous,
        fit_individual,
        fit_simultaneous,
    }
}

/// Host-side comparison of one multi-shot RB job run two ways: a
/// sequential loop of full-report [`Shot`](quape_core::Shot)s from one
/// compiled job versus the shot engine (lean shots fanned across
/// threads).
#[derive(Debug, Clone, Serialize)]
pub struct BatchComparison {
    /// RB sequence length.
    pub m: u32,
    /// Shots run by each method.
    pub shots: u64,
    /// Wall time of the sequential per-shot loop, seconds.
    pub sequential_secs: f64,
    /// Wall time of the batch engine, seconds.
    pub batch_secs: f64,
    /// Worker threads the engine used.
    pub batch_threads: usize,
    /// Sequential throughput, shots/s.
    pub sequential_shots_per_sec: f64,
    /// Engine throughput, shots/s.
    pub batch_shots_per_sec: f64,
    /// `sequential_secs / batch_secs`.
    pub speedup: f64,
    /// Survival measured by the sequential loop.
    pub survival_sequential: f64,
    /// Survival measured by the batch.
    pub survival_batch: f64,
}

/// Runs the acceptance comparison: `shots` noise realizations of one
/// length-`m` RB sequence, sequentially (one `Shot` at a time) and
/// through the [`quape_core::ShotEngine`] on `threads` workers
/// (0 = automatic).
pub fn shot_engine_comparison(m: u32, shots: u64, threads: usize) -> BatchComparison {
    let group = CliffordGroup::new();
    let noise = DepolarizingNoise::for_fidelity(0.995);
    let base_seed = 77u64;

    // Sequential path: compile once, then one full-report shot after
    // another on this thread.
    let seq_start = Instant::now();
    let program = rb_program(&group, 0, m, base_seed)
        .expect("valid program")
        .program;
    let job = CompiledJob::compile(QuapeConfig::superscalar(8), program).expect("valid machine");
    let mut survived = 0u64;
    for i in 0..shots {
        let seed = shot_seed(base_seed, i);
        let qpu = StateVectorQpu::new(1, job.cfg().timings, noise, ReadoutError::default(), seed);
        let report = job.shot(Box::new(qpu), seed).run();
        let outcome = report
            .measurements
            .iter()
            .find(|r| r.qubit.index() == 0)
            .expect("qubit 0 measured");
        if !outcome.value {
            survived += 1;
        }
    }
    let sequential_secs = seq_start.elapsed().as_secs_f64();
    let survival_sequential = survived as f64 / shots as f64;

    // New path: compile once, batch the shots.
    let batch = RbBatch::new(noise).with_shots(shots).with_threads(threads);
    let job = batch.rb_job(&group, 0, m, base_seed).expect("valid job");
    let report = batch.run(&job, base_seed);
    let batch_secs = report.wall_time.as_secs_f64();
    let survival_batch = report.aggregate.survival(0).unwrap_or(0.0);

    BatchComparison {
        m,
        shots,
        sequential_secs,
        batch_secs,
        batch_threads: report.threads,
        sequential_shots_per_sec: shots as f64 / sequential_secs.max(f64::MIN_POSITIVE),
        batch_shots_per_sec: report.shots_per_sec(),
        speedup: sequential_secs / batch_secs.max(f64::MIN_POSITIVE),
        survival_sequential,
        survival_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_experiment_matches_paper_fidelities() {
        let r = run_direct();
        // Paper: individual 99.5% / 99.4%, simRB 98.7% / 99.1%. The
        // tolerances cover RB sampling noise at the default sample count.
        assert!(
            (r.individual_a.fidelity() - 0.995).abs() < 0.004,
            "{}",
            r.individual_a.fidelity()
        );
        assert!(
            (r.individual_b.fidelity() - 0.994).abs() < 0.004,
            "{}",
            r.individual_b.fidelity()
        );
        assert!(
            (r.simultaneous_a.fidelity() - 0.987).abs() < 0.005,
            "{}",
            r.simultaneous_a.fidelity()
        );
        assert!(
            (r.simultaneous_b.fidelity() - 0.991).abs() < 0.005,
            "{}",
            r.simultaneous_b.fidelity()
        );
        // The qualitative claim: simRB is strictly worse than individual.
        assert!(r.simultaneous_a.fidelity() < r.individual_a.fidelity());
        assert!(r.simultaneous_b.fidelity() < r.individual_b.fidelity());
    }

    #[test]
    fn stack_rb_decays_and_issues_cleanly() {
        let r = run_through_stack(&[1, 8, 24, 48], 12);
        // Short sequences survive more often than long ones.
        assert!(
            r.survival_individual[0] >= r.survival_individual[3],
            "{:?}",
            r.survival_individual
        );
        assert!(r.fit_individual.decay <= 1.0);
    }
}
