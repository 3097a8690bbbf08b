//! End-to-end QEC tests: the repetition code's feedback loop corrects
//! injected errors through the full control stack, and the correction
//! turnaround fits the paper's fault-tolerance budget (§2.3: within 1%
//! of the 50–100 µs coherence time).

use quape::prelude::*;
use quape::qpu::{DepolarizingNoise, ReadoutError};
use quape::workloads::qec::{repetition_code_program, QecConfig};

fn run_qec(cfg: QecConfig, seed: u64) -> RunReport {
    let program = repetition_code_program(cfg).expect("valid program");
    let mcfg = QuapeConfig::superscalar(8).with_seed(seed);
    let qpu = StateVectorQpu::new(
        5,
        mcfg.timings,
        DepolarizingNoise {
            pauli_error_prob: 0.0,
        },
        ReadoutError::default(),
        seed,
    );
    CompiledJob::compile(mcfg, program)
        .expect("builds")
        .shot(Box::new(qpu), seed)
        .run_with_limit(1_000_000)
}

fn data_readout(report: &RunReport) -> [bool; 3] {
    let mut out = [false; 3];
    // The data qubits are measured last; take the final outcome per qubit.
    for m in &report.measurements {
        if m.qubit.index() < 3 {
            out[m.qubit.index() as usize] = m.value;
        }
    }
    out
}

/// Every single-qubit X error is detected and corrected: the logical
/// state survives and the data readout is error-free.
#[test]
fn single_errors_are_corrected_on_both_logical_states() {
    for logical_one in [false, true] {
        for faulty in 0..3usize {
            let report = run_qec(
                QecConfig {
                    rounds: 1,
                    logical_one,
                    inject: Some((0, faulty)),
                    ..Default::default()
                },
                faulty as u64,
            );
            assert_eq!(report.stop, StopReason::Completed);
            let data = data_readout(&report);
            assert_eq!(
                data,
                [logical_one; 3],
                "error on d{faulty} (logical {}) not corrected: {data:?}",
                u8::from(logical_one)
            );
        }
    }
}

/// The syndrome correctly identifies *which* qubit failed: exactly one
/// correction X is issued, targeted at the faulty qubit.
#[test]
fn decoder_targets_the_faulty_qubit() {
    for faulty in 0..3usize {
        let report = run_qec(
            QecConfig {
                rounds: 1,
                inject: Some((0, faulty)),
                ..Default::default()
            },
            7,
        );
        // Gates on data qubits: the injected X plus exactly one
        // correction X on the same qubit.
        let xs: Vec<u16> = report
            .issued
            .iter()
            .filter_map(|o| match o.op {
                QuantumOp::Gate1(Gate1::X, q) if q.index() < 3 => Some(q.index()),
                _ => None,
            })
            .collect();
        assert_eq!(xs, vec![faulty as u16, faulty as u16], "fault on d{faulty}");
    }
}

/// A clean run issues no corrections at all across multiple rounds.
#[test]
fn no_false_positives_over_multiple_rounds() {
    let report = run_qec(
        QecConfig {
            rounds: 3,
            ..Default::default()
        },
        11,
    );
    assert_eq!(report.stop, StopReason::Completed);
    let corrections = report
        .issued
        .iter()
        .filter(|o| matches!(o.op, QuantumOp::Gate1(Gate1::X, q) if q.index() < 3))
        .count();
    assert_eq!(corrections, 0);
    assert_eq!(data_readout(&report), [false; 3]);
}

/// An error injected before a *later* round is still caught.
#[test]
fn late_round_errors_are_caught() {
    let report = run_qec(
        QecConfig {
            rounds: 3,
            inject: Some((2, 1)),
            logical_one: true,
            ..Default::default()
        },
        13,
    );
    assert_eq!(data_readout(&report), [true; 3]);
}

/// The fault-tolerance latency budget of §2.3: the time from the end of
/// the syndrome readout to the correction pulse must stay within 1% of
/// the coherence time (500 ns for T2 = 50 µs). Our stack's decode +
/// branch + issue takes a handful of cycles on top of the acquisition
/// chain.
#[test]
fn correction_turnaround_fits_the_fault_tolerance_budget() {
    let report = run_qec(
        QecConfig {
            rounds: 1,
            inject: Some((0, 0)),
            ..Default::default()
        },
        3,
    );
    let syndrome_meas = report
        .issued
        .iter()
        .find(|o| matches!(o.op, QuantumOp::Measure(q) if q.index() >= 3))
        .expect("syndrome measured")
        .time_ns;
    let correction = report
        .issued
        .iter()
        .find(|o| matches!(o.op, QuantumOp::Gate1(Gate1::X, q) if q.index() < 3 && o.time_ns > syndrome_meas))
        .expect("correction issued")
        .time_ns;
    let turnaround = correction - syndrome_meas;
    let budget_ns = 500; // 1% of a 50 µs T2
    assert!(
        turnaround <= budget_ns,
        "correction turnaround {turnaround} ns exceeds the {budget_ns} ns budget"
    );
}
