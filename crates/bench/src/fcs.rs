//! §7 fast-context-switch verification: an active qubit reset runs
//! concurrently with an RB sequence, and the context switch costs three
//! clock cycles.

use quape_core::{CompiledJob, QuapeConfig, RunReport};
use quape_qpu::{BehavioralQpu, CliffordGroup, MeasurementModel};
use quape_workloads::rb::active_reset_with_rb;
use serde::{Deserialize, Serialize};

/// Result of the verification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FcsResult {
    /// Execution time with the fast context switch, ns.
    pub with_fcs_ns: u64,
    /// Execution time with MRCE stalling like plain feedback, ns.
    pub without_fcs_ns: u64,
    /// RB pulses issued before the measurement result returned (with
    /// FCS; without it this is 0).
    pub pulses_during_wait: usize,
    /// Measured context-switch cost in cycles (configured: 3).
    pub context_switch_cycles: u64,
    /// Number of context switches performed.
    pub context_switches: u64,
}

fn run_once(fcs: bool, seed: u64) -> (RunReport, u64) {
    let group = CliffordGroup::new();
    let w = active_reset_with_rb(&group, 0, 1, 16, seed).expect("valid workload");
    let mut cfg = QuapeConfig::superscalar(8).with_seed(seed);
    cfg.fast_context_switch = fcs;
    cfg.daq_jitter_ns = 0;
    let result_arrival = cfg.timings.readout_pulse_ns + cfg.daq_base_ns;
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, seed);
    let report = CompiledJob::compile(cfg, w.program)
        .expect("valid machine")
        .shot(Box::new(qpu), seed)
        .run();
    (report, result_arrival)
}

/// Runs the verification experiment.
pub fn run() -> FcsResult {
    let (with, arrival) = run_once(true, 5);
    let (without, _) = run_once(false, 5);
    let meas_t = with.issued.first().expect("measurement issued").time_ns;
    let pulses_during_wait = with
        .issued
        .iter()
        .filter(|o| o.op.qubits().any(|q| q.index() == 1) && o.time_ns < meas_t + arrival)
        .count();
    // The conditional X on q0 issues one context switch after the result
    // arrives; its issue time minus the arrival time measures the switch.
    let conditional = with
        .issued
        .iter()
        .find(|o| {
            matches!(o.op, quape_isa::QuantumOp::Gate1(quape_isa::Gate1::X, q) if q.index() == 0)
        })
        .expect("conditional X issued");
    let clock = 10;
    let switch_cycles = (conditional.time_ns - (meas_t + arrival)) / clock;
    FcsResult {
        with_fcs_ns: with.execution_time_ns(),
        without_fcs_ns: without.execution_time_ns(),
        pulses_during_wait,
        // Subtract the 1-cycle dispatch-to-issue latency of the quantum
        // pipeline to isolate the switch itself.
        context_switch_cycles: switch_cycles.saturating_sub(1),
        context_switches: with.stats.processors[0].context_switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_context_switch_takes_three_cycles() {
        let r = run();
        assert_eq!(r.context_switch_cycles, 3, "{r:?}");
        assert_eq!(r.context_switches, 1);
    }

    #[test]
    fn rb_proceeds_during_reset_wait_only_with_fcs() {
        let r = run();
        assert!(r.pulses_during_wait > 10, "{r:?}");
        assert!(r.with_fcs_ns < r.without_fcs_ns, "{r:?}");
    }
}
