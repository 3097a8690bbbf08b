//! The paper's QOLP metrics: Cycles Each Step (CES) and Time Ratio (TR).
//!
//! CES (Eq. 1) is the number of QCP clock cycles needed to process the
//! instructions of one circuit step — quantum instruction execution,
//! classical instructions, control stalls, and the QCP-side part of
//! feedback control. The Stage I/II measurement wait is *excluded* (it is
//! unavoidable for both QCP and QPU, §3.2.1).
//!
//! TR (Eq. 2) divides the QCP time of a step by the QPU time of that step;
//! §7 evaluates with `clock = 10 ns` and `gate = 20 ns`. The QOLP goal is
//! TR ≤ 1 for the whole program.

use crate::report::RunReport;
use quape_isa::StepId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Gate time used for the TR calculation in §7.
pub const TR_GATE_NS: u64 = 20;

/// Per-step metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepMetrics {
    /// The circuit step.
    pub step: StepId,
    /// Cycles Each Step.
    pub ces: u64,
    /// Time Ratio.
    pub tr: f64,
    /// Quantum instructions dispatched in this step (QICES).
    pub qices: usize,
}

/// CES/TR summary of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CesReport {
    /// Per-step metrics in step order.
    pub steps: Vec<StepMetrics>,
    /// Clock period used.
    pub clock_ns: u64,
    /// Gate time used.
    pub gate_ns: u64,
}

impl CesReport {
    /// Mean TR across steps (the quantity plotted in Fig. 13).
    pub fn average_tr(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.tr).sum::<f64>() / self.steps.len() as f64
    }

    /// Maximum TR across steps.
    pub fn max_tr(&self) -> f64 {
        self.steps.iter().map(|s| s.tr).fold(0.0, f64::max)
    }

    /// True when every step meets the TR ≤ 1 requirement.
    pub fn meets_deadline(&self) -> bool {
        self.steps.iter().all(|s| s.tr <= 1.0 + 1e-9)
    }

    /// Mean CES across steps.
    pub fn average_ces(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.ces as f64).sum::<f64>() / self.steps.len() as f64
    }
}

impl fmt::Display for CesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>6} {:>6} {:>7} {:>6}", "step", "QICES", "CES", "TR")?;
        for s in &self.steps {
            writeln!(
                f,
                "{:>6} {:>6} {:>7} {:>6.2}",
                s.step.0, s.qices, s.ces, s.tr
            )?;
        }
        writeln!(
            f,
            "average TR {:.3}, max TR {:.3}",
            self.average_tr(),
            self.max_tr()
        )
    }
}

/// Computes CES/TR from a run's dispatch records.
///
/// CES of step *i* is the span between the dispatch completion of step
/// *i−1* and of step *i* (for the first step: from the first dispatch of
/// the program), minus any measurement-wait cycles inside that span.
///
/// Requires a full [`Shot`](crate::Shot) report:
/// the analysis reads the per-event `step_dispatches` and `wait_cycles`
/// vectors, which lean engine shots never record — a report without
/// them would silently yield an empty CES table here, so it is rejected
/// by a debug assertion instead.
pub fn ces_report(report: &RunReport, clock_ns: u64, gate_ns: u64) -> CesReport {
    debug_assert!(
        !report.step_dispatches.is_empty() || report.stats.total_quantum() == 0,
        "ces_report needs a report with step_dispatches (a Shot run)"
    );
    let mut last_dispatch: BTreeMap<StepId, u64> = BTreeMap::new();
    let mut counts: BTreeMap<StepId, usize> = BTreeMap::new();
    let mut first_overall = u64::MAX;
    for d in &report.step_dispatches {
        first_overall = first_overall.min(d.cycle);
        if let Some(step) = d.step {
            let e = last_dispatch.entry(step).or_insert(d.cycle);
            *e = (*e).max(d.cycle);
            *counts.entry(step).or_insert(0) += 1;
        }
    }
    let mut waits: Vec<u64> = report.wait_cycles.clone();
    waits.sort_unstable();
    let wait_in = |lo: u64, hi: u64| -> u64 {
        // Count wait cycles in (lo, hi].
        let a = waits.partition_point(|&c| c <= lo);
        let b = waits.partition_point(|&c| c <= hi);
        (b - a) as u64
    };
    let mut steps = Vec::with_capacity(last_dispatch.len());
    let mut prev = first_overall.saturating_sub(1);
    for (step, last) in &last_dispatch {
        let span = last.saturating_sub(prev);
        let ces = span.saturating_sub(wait_in(prev, *last));
        let tr = (ces * clock_ns) as f64 / gate_ns as f64;
        steps.push(StepMetrics {
            step: *step,
            ces,
            tr,
            qices: counts[step],
        });
        prev = *last;
    }
    CesReport {
        steps,
        clock_ns,
        gate_ns,
    }
}

/// Convenience wrapper using the paper's §7 parameters (10 ns clock,
/// 20 ns gate).
pub fn ces_report_paper(report: &RunReport) -> CesReport {
    ces_report(report, 10, TR_GATE_NS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MachineStats, StepDispatch, StopReason};

    fn fake_report(dispatches: Vec<(u64, u32)>, waits: Vec<u64>) -> RunReport {
        RunReport {
            cycles: 100,
            ns: 1000,
            stop: StopReason::Completed,
            issued: Vec::new(),
            issued_ops: 0,
            violations: Vec::new(),
            playback: Vec::new(),
            awg_violations: Vec::new(),
            stats: MachineStats::default(),
            step_dispatches: dispatches
                .into_iter()
                .map(|(cycle, step)| StepDispatch {
                    cycle,
                    step: Some(StepId(step)),
                    processor: 0,
                })
                .collect(),
            wait_cycles: waits,
            measurements: Vec::new(),
            block_events: Vec::new(),
            qpu_makespan_ns: 0,
        }
    }

    #[test]
    fn single_wide_step_ces() {
        // 4 instructions of step 0 dispatched over cycles 5..=8.
        let r = fake_report(vec![(5, 0), (6, 0), (7, 0), (8, 0)], vec![]);
        let c = ces_report(&r, 10, 20);
        assert_eq!(c.steps.len(), 1);
        assert_eq!(c.steps[0].ces, 4);
        assert_eq!(c.steps[0].qices, 4);
        assert!((c.steps[0].tr - 2.0).abs() < 1e-12);
    }

    #[test]
    fn consecutive_steps_measure_spans() {
        // Step 0 finishes at cycle 6, step 1 at cycle 10 → CES₁ = 4.
        let r = fake_report(vec![(5, 0), (6, 0), (9, 1), (10, 1)], vec![]);
        let c = ces_report(&r, 10, 20);
        assert_eq!(c.steps[0].ces, 2);
        assert_eq!(c.steps[1].ces, 4);
    }

    #[test]
    fn measurement_wait_is_excluded() {
        // Step 1 span is 10 cycles but 6 of them were Stage I/II waits.
        let r = fake_report(vec![(5, 0), (15, 1)], vec![7, 8, 9, 10, 11, 12]);
        let c = ces_report(&r, 10, 20);
        assert_eq!(c.steps[1].ces, 4);
    }

    #[test]
    fn deadline_check() {
        let fast = fake_report(vec![(5, 0), (6, 0), (8, 1)], vec![]);
        assert!(ces_report(&fast, 10, 20).meets_deadline());
        let slow = fake_report(vec![(5, 0), (20, 1)], vec![]);
        assert!(!ces_report(&slow, 10, 20).meets_deadline());
    }

    #[test]
    fn average_and_max() {
        let r = fake_report(vec![(2, 0), (4, 1), (12, 2)], vec![]);
        let c = ces_report(&r, 10, 20);
        // Spans from program start (cycle 1): CES = 1, 2, 8 → TR 0.5, 1, 4.
        assert_eq!(
            c.steps.iter().map(|s| s.ces).collect::<Vec<_>>(),
            vec![1, 2, 8]
        );
        assert!((c.average_tr() - 5.5 / 3.0).abs() < 1e-12);
        assert!((c.max_tr() - 4.0).abs() < 1e-12);
        assert!((c.average_ces() - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = fake_report(vec![], vec![]);
        let c = ces_report_paper(&r);
        assert!(c.steps.is_empty());
        assert_eq!(c.average_tr(), 0.0);
        assert!(c.meets_deadline());
    }
}
