//! Decoherence-cost estimation for control delays.
//!
//! The paper's motivation: "any delay in quantum operations issued from
//! the microarchitecture can result in additional accumulated quantum
//! errors" (§1), because qubits idle at a fixed error rate set by their
//! coherence times (T1/T2 ≈ 50–100 µs for superconducting qubits, §2.3).
//! This module converts a run's control-induced delays into an estimated
//! fidelity penalty, so configurations can be compared on the metric the
//! hardware actually cares about.

use crate::report::RunReport;
use serde::{Deserialize, Serialize};

/// Coherence parameters of the target qubits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoherenceParams {
    /// Energy-relaxation time T1 in nanoseconds.
    pub t1_ns: f64,
    /// Dephasing time T2 in nanoseconds (T2 ≤ 2·T1).
    pub t2_ns: f64,
}

impl CoherenceParams {
    /// §2.3's nominal superconducting-qubit numbers: T1 = 80 µs,
    /// T2 = 60 µs (within the quoted 50–100 µs range).
    pub const fn paper() -> Self {
        CoherenceParams {
            t1_ns: 80_000.0,
            t2_ns: 60_000.0,
        }
    }

    /// Per-nanosecond idle error rate: `1/T1 + 1/T2` (amplitude plus
    /// phase decay, first order).
    pub fn idle_error_rate(&self) -> f64 {
        1.0 / self.t1_ns + 1.0 / self.t2_ns
    }
}

impl Default for CoherenceParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Estimated decoherence cost of a run's control delays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecoherenceCost {
    /// Total control-induced delay accumulated by late issues, ns.
    pub late_ns: u64,
    /// Total stall time spent waiting for measurement results, ns
    /// (Stage I/II — unavoidable, reported separately).
    pub measure_wait_ns: u64,
    /// Estimated fidelity retained against *avoidable* delays:
    /// `exp(−late_ns · idle_error_rate)`.
    pub avoidable_fidelity: f64,
    /// Estimated fidelity retained including unavoidable waits.
    pub total_fidelity: f64,
}

/// Estimates the decoherence penalty of a run.
///
/// Late-issue cycles are control-architecture failures (the TR > 1
/// regime); measurement waits are physics. Both decay the state, but
/// only the former is chargeable to the microarchitecture.
pub fn decoherence_cost(
    report: &RunReport,
    clock_ns: u64,
    params: CoherenceParams,
) -> DecoherenceCost {
    let late_ns = report.stats.late_cycles * clock_ns;
    // From the stats counters, not `wait_cycles.len()`: the counters are
    // exact on every core, while lean cores leave the wait trace empty
    // (the two agree 1:1 on full reports — one trace entry is pushed per
    // counter increment).
    let measure_wait_cycles: u64 = report
        .stats
        .processors
        .iter()
        .map(|p| p.measure_wait_cycles)
        .sum();
    let measure_wait_ns = measure_wait_cycles * clock_ns;
    let rate = params.idle_error_rate();
    let avoidable_fidelity = (-(late_ns as f64) * rate).exp();
    let total_fidelity = (-((late_ns + measure_wait_ns) as f64) * rate).exp();
    DecoherenceCost {
        late_ns,
        measure_wait_ns,
        avoidable_fidelity,
        total_fidelity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MachineStats, StopReason};

    fn report(late_cycles: u64, waits: usize) -> RunReport {
        RunReport {
            cycles: 1000,
            ns: 10_000,
            stop: StopReason::Completed,
            issued: Vec::new(),
            issued_ops: 0,
            violations: Vec::new(),
            playback: Vec::new(),
            awg_violations: Vec::new(),
            stats: MachineStats {
                late_cycles,
                processors: vec![crate::report::ProcessorStats {
                    measure_wait_cycles: waits as u64,
                    ..Default::default()
                }],
                ..Default::default()
            },
            step_dispatches: Vec::new(),
            wait_cycles: vec![0; waits],
            measurements: Vec::new(),
            block_events: Vec::new(),
            qpu_makespan_ns: 0,
        }
    }

    #[test]
    fn clean_run_keeps_full_fidelity() {
        let c = decoherence_cost(&report(0, 0), 10, CoherenceParams::paper());
        assert_eq!(c.late_ns, 0);
        assert_eq!(c.avoidable_fidelity, 1.0);
        assert_eq!(c.total_fidelity, 1.0);
    }

    #[test]
    fn lateness_decays_fidelity_monotonically() {
        let p = CoherenceParams::paper();
        let a = decoherence_cost(&report(10, 0), 10, p);
        let b = decoherence_cost(&report(100, 0), 10, p);
        assert!(b.avoidable_fidelity < a.avoidable_fidelity);
        assert!(a.avoidable_fidelity < 1.0);
    }

    #[test]
    fn measurement_waits_charge_total_but_not_avoidable() {
        let p = CoherenceParams::paper();
        let c = decoherence_cost(&report(0, 50), 10, p);
        assert_eq!(c.avoidable_fidelity, 1.0);
        assert!(c.total_fidelity < 1.0);
        assert_eq!(c.measure_wait_ns, 500);
    }

    #[test]
    fn rate_matches_hand_computation() {
        let p = CoherenceParams {
            t1_ns: 100.0,
            t2_ns: 50.0,
        };
        assert!((p.idle_error_rate() - 0.03).abs() < 1e-12);
        let c = decoherence_cost(&report(1, 0), 10, p);
        assert!((c.avoidable_fidelity - (-0.3f64).exp()).abs() < 1e-12);
    }
}
