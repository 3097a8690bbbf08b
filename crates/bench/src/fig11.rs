//! Fig. 11: Shor syndrome measurement on 1/2/4/6 processors × 3 failure
//! rates — mean execution time over many runs, plus actual and ideal
//! speedup.

use quape_core::{CompiledJob, QuapeConfig};
use quape_qpu::BehavioralQpu;
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};
use serde::{Deserialize, Serialize};

/// Failure rates swept in the experiment (probability that a cat-state
/// verification fails and the preparation repeats).
pub const FAILURE_RATES: [f64; 3] = [0.1, 0.25, 0.5];

/// Processor counts swept in the experiment.
pub const PROCESSOR_COUNTS: [usize; 4] = [1, 2, 4, 6];

/// One (processors, failure rate) cell of Fig. 11.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Number of processing units.
    pub processors: usize,
    /// Verification failure rate.
    pub failure_rate: f64,
    /// Mean execution time in microseconds.
    pub mean_time_us: f64,
    /// Speedup vs the uniprocessor at the same failure rate.
    pub speedup: f64,
    /// Speedup of the zero-cost-scheduler variant (the paper's
    /// "theoretical speedup").
    pub ideal_speedup: f64,
}

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Options {
    /// Runs averaged per cell (paper: 1000).
    pub runs: usize,
    /// Base PRNG seed.
    pub seed: u64,
}

impl Default for Fig11Options {
    fn default() -> Self {
        Fig11Options { runs: 200, seed: 1 }
    }
}

fn mean_time_us(
    program: &quape_isa::Program,
    cfg_base: &QuapeConfig,
    failure_rate: f64,
    opts: Fig11Options,
) -> f64 {
    let job = CompiledJob::compile(cfg_base.clone(), program.clone()).expect("valid machine");
    let mut total_ns = 0u64;
    for i in 0..opts.runs {
        let seed = opts.seed + i as u64;
        let model = ShorSyndrome::measurement_model(failure_rate);
        let qpu = BehavioralQpu::new(cfg_base.timings, model, seed ^ 0x5a5a);
        let report = job.shot(Box::new(qpu), seed).run_with_limit(2_000_000);
        assert!(
            matches!(report.stop, quape_core::StopReason::Completed),
            "Shor run did not complete: {:?}",
            report.stop
        );
        total_ns += report.execution_time_ns();
    }
    total_ns as f64 / opts.runs as f64 / 1000.0
}

/// Runs the full Fig. 11 sweep.
pub fn run(opts: Fig11Options) -> Vec<Fig11Row> {
    let workload = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    let mut rows = Vec::new();
    for &f in &FAILURE_RATES {
        let mut base_real = None;
        let mut base_ideal = None;
        for &n in &PROCESSOR_COUNTS {
            let real = mean_time_us(&workload.program, &QuapeConfig::multiprocessor(n), f, opts);
            let ideal = mean_time_us(
                &workload.program,
                &QuapeConfig::multiprocessor(n).ideal(),
                f,
                opts,
            );
            let base_r = *base_real.get_or_insert(real);
            let base_i = *base_ideal.get_or_insert(ideal);
            rows.push(Fig11Row {
                processors: n,
                failure_rate: f,
                mean_time_us: real,
                speedup: base_r / real,
                ideal_speedup: base_i / ideal,
            });
        }
    }
    rows
}

/// The workload's structural statistics (printed alongside Fig. 11, the
/// paper reports 288 quantum / 252 classical instructions, 50 blocks, 15
/// priorities).
pub fn workload_stats() -> (usize, usize, usize, usize) {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    (
        w.program.quantum_count(),
        w.program.classical_count(),
        w.blocks,
        w.priorities,
    )
}

/// Best speedup at 6 processors across failure rates (paper: 2.59×).
pub fn peak_speedup(rows: &[Fig11Row]) -> f64 {
    rows.iter()
        .filter(|r| r.processors == 6)
        .map(|r| r.speedup)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_grows_with_processors() {
        let rows = run(Fig11Options { runs: 12, seed: 7 });
        assert_eq!(rows.len(), 12);
        for &f in &FAILURE_RATES {
            let series: Vec<&Fig11Row> = rows
                .iter()
                .filter(|r| (r.failure_rate - f).abs() < 1e-9)
                .collect();
            assert!(series[0].speedup == 1.0);
            assert!(
                series[3].speedup > 1.8,
                "6-core speedup {} too small at f={f}",
                series[3].speedup
            );
            // Ideal is at least as good as real.
            for r in &series {
                assert!(r.ideal_speedup >= r.speedup * 0.95, "{r:?}");
            }
        }
    }

    #[test]
    fn higher_failure_rate_means_longer_runs() {
        let rows = run(Fig11Options { runs: 12, seed: 3 });
        let t = |f: f64, n: usize| {
            rows.iter()
                .find(|r| (r.failure_rate - f).abs() < 1e-9 && r.processors == n)
                .expect("cell present")
                .mean_time_us
        };
        assert!(t(0.5, 1) > t(0.1, 1), "failures must prolong execution");
    }
}
