//! Fig. 13: average Time Ratio of the 8-way superscalar vs the scalar
//! baseline on the seven suite benchmarks.

use quape_compiler::Compiler;
use quape_core::{ces_report_paper, CompiledJob, QuapeConfig};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::benchmark_suite;
use serde::{Deserialize, Serialize};

/// One benchmark's TR results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Suite of origin.
    pub source: String,
    /// Average TR of the scalar baseline.
    pub baseline_avg_tr: f64,
    /// Maximum TR of the scalar baseline.
    pub baseline_max_tr: f64,
    /// Average TR of the 8-way superscalar.
    pub superscalar_avg_tr: f64,
    /// Maximum TR of the 8-way superscalar.
    pub superscalar_max_tr: f64,
    /// Improvement factor (baseline avg / superscalar avg).
    pub improvement: f64,
    /// True when the 8-way superscalar's *average* TR is ≤ 1 — the
    /// quantity Fig. 13 plots against its dotted TR = 1 line.
    pub superscalar_meets_deadline: bool,
}

/// Runs one benchmark through a configuration and returns its CES report.
fn tr_of(cfg: QuapeConfig, program: quape_isa::Program) -> quape_core::CesReport {
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 7);
    let job = CompiledJob::compile(cfg, program).expect("valid machine");
    let report = job.shot(Box::new(qpu), job.cfg().seed).run();
    assert!(
        matches!(report.stop, quape_core::StopReason::Completed),
        "benchmark did not complete: {:?}",
        report.stop
    );
    ces_report_paper(&report)
}

/// Runs the full Fig. 13 experiment.
pub fn run() -> Vec<Fig13Row> {
    let compiler = Compiler::new();
    benchmark_suite()
        .into_iter()
        .map(|b| {
            let program = compiler.compile(&b.circuit).expect("benchmark compiles");
            let baseline = tr_of(QuapeConfig::scalar_baseline(), program.clone());
            let wide = tr_of(QuapeConfig::superscalar(8), program);
            Fig13Row {
                benchmark: b.name.to_string(),
                source: b.source.to_string(),
                baseline_avg_tr: baseline.average_tr(),
                baseline_max_tr: baseline.max_tr(),
                superscalar_avg_tr: wide.average_tr(),
                superscalar_max_tr: wide.max_tr(),
                improvement: baseline.average_tr() / wide.average_tr(),
                superscalar_meets_deadline: wide.average_tr() <= 1.0 + 1e-9,
            }
        })
        .collect()
}

/// Geometric-free arithmetic mean improvement across the suite (the
/// paper's headline 4.04×).
pub fn average_improvement(rows: &[Fig13Row]) -> f64 {
    rows.iter().map(|r| r.improvement).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_meet_deadline_at_8_way() {
        let rows = run();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.superscalar_meets_deadline,
                "{} exceeds TR 1: {r:?}",
                r.benchmark
            );
            assert!(r.improvement >= 1.0, "{} got slower", r.benchmark);
        }
    }

    #[test]
    fn hs16_saturates_the_superscalar() {
        let rows = run();
        let hs = rows
            .iter()
            .find(|r| r.benchmark == "hs16")
            .expect("hs16 present");
        assert!(
            (hs.improvement - 8.0).abs() < 0.15,
            "hs16 improvement {} should be ≈ 8.00",
            hs.improvement
        );
    }

    #[test]
    fn rd84_has_limited_parallelism() {
        let rows = run();
        let rd = rows
            .iter()
            .find(|r| r.benchmark == "rd84_143")
            .expect("rd84 present");
        assert!(
            (rd.improvement - 1.6).abs() < 0.25,
            "rd84_143 improvement {} should be ≈ 1.6",
            rd.improvement
        );
        assert!(rd.baseline_avg_tr < 1.0);
        assert!(
            (rd.baseline_max_tr - 4.5).abs() < 0.75,
            "max TR {}",
            rd.baseline_max_tr
        );
    }

    #[test]
    fn last_two_baselines_under_one_with_high_peaks() {
        let rows = run();
        let sym = rows
            .iter()
            .find(|r| r.benchmark == "sym9_146")
            .expect("sym9 present");
        assert!(
            sym.baseline_avg_tr < 1.0,
            "sym9 avg {}",
            sym.baseline_avg_tr
        );
        assert!(
            (sym.baseline_max_tr - 9.0).abs() < 1.0,
            "sym9 max {}",
            sym.baseline_max_tr
        );
    }
}
