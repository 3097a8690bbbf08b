//! Simple feedback control with the MRCE fast context switch: an active
//! qubit reset runs while an RB sequence keeps executing on another qubit.
//!
//! ```sh
//! cargo run --example active_reset
//! ```

use quape::prelude::*;
use quape::workloads::rb::active_reset_with_rb;

fn run(fast_context_switch: bool) -> RunReport {
    let group = CliffordGroup::new();
    let workload = active_reset_with_rb(&group, 0, 1, 12, 9).expect("valid workload");
    let mut cfg = QuapeConfig::superscalar(8);
    cfg.fast_context_switch = fast_context_switch;
    cfg.daq_jitter_ns = 0;
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, 1);
    CompiledJob::compile(cfg, workload.program)
        .expect("valid machine")
        .shot(Box::new(qpu), 1)
        .run()
}

fn main() {
    println!("active qubit reset (q0) + randomized benchmarking (q1):\n");
    for fcs in [true, false] {
        let report = run(fcs);
        let meas_t = report.issued.first().expect("measure issued").time_ns;
        let first_rb = report
            .issued
            .iter()
            .find(|o| o.op.qubits().any(|q| q.index() == 1))
            .expect("RB pulse issued")
            .time_ns;
        println!(
            "fast context switch {:5}: total {:5} ns, first RB pulse {:4} ns after the measure, {} context switch(es)",
            fcs,
            report.execution_time_ns(),
            first_rb - meas_t,
            report.stats.processors[0].context_switches,
        );
    }
    println!("\nWith the fast context switch the RB stream starts immediately; without it the");
    println!("pipeline stalls for the whole measurement round-trip (~450 ns), as in §5.4/§7.");
}
