//! Integration tests driving randomized benchmarking through the complete
//! control stack (workload generator → machine → state-vector QPU).

use quape::prelude::*;
use quape::qpu::{DepolarizingNoise, ReadoutError};
use quape::workloads::rb::{composes_to_identity, rb_program, simrb_program};

fn noiseless_qpu(seed: u64, cfg: &QuapeConfig) -> Box<StateVectorQpu> {
    Box::new(StateVectorQpu::new(
        2,
        cfg.timings,
        DepolarizingNoise {
            pauli_error_prob: 0.0,
        },
        ReadoutError::default(),
        seed,
    ))
}

/// A noiseless RB sequence through the whole stack always returns to |0⟩.
#[test]
fn noiseless_rb_through_stack_survives() {
    let group = CliffordGroup::new();
    for seed in 0..10 {
        let w = rb_program(&group, 0, 24, seed).expect("valid program");
        assert!(composes_to_identity(&group, &w.program, 0));
        let cfg = QuapeConfig::superscalar(8).with_seed(seed);
        let report = CompiledJob::compile(cfg.clone(), w.program)
            .expect("machine builds")
            .shot(noiseless_qpu(seed, &cfg), cfg.seed)
            .run();
        assert_eq!(report.stop, StopReason::Completed, "seed {seed}");
        let outcome = report.measurements.first().expect("measured");
        assert!(!outcome.value, "seed {seed}: noiseless RB must read 0");
    }
}

/// SimRB through the stack: both qubits return to |0⟩ without noise, and
/// the two pulse streams interleave on the superscalar without timing
/// violations.
#[test]
fn noiseless_simrb_through_stack_survives_on_both_qubits() {
    let group = CliffordGroup::new();
    for seed in 0..6 {
        let program = simrb_program(&group, 0, 1, 16, seed).expect("valid program");
        let cfg = QuapeConfig::superscalar(8).with_seed(seed);
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("machine builds")
            .shot(noiseless_qpu(seed, &cfg), cfg.seed)
            .run();
        assert_eq!(report.stop, StopReason::Completed);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        for m in &report.measurements {
            assert!(
                !m.value,
                "seed {seed}: qubit {} did not return to 0",
                m.qubit
            );
        }
    }
}

/// With depolarizing noise injected at the QPU, long sequences fail more
/// often than short ones — the decay the §8 experiment fits.
#[test]
fn noisy_rb_through_stack_decays() {
    let group = CliffordGroup::new();
    let survival = |m: u32| -> f64 {
        let samples = 60;
        let mut survive = 0;
        for seed in 0..samples {
            let w = rb_program(&group, 0, m, seed).expect("valid program");
            let cfg = QuapeConfig::superscalar(8).with_seed(seed);
            let qpu = Box::new(StateVectorQpu::new(
                1,
                cfg.timings,
                DepolarizingNoise::for_fidelity(0.97),
                ReadoutError::default(),
                seed ^ 0xf00,
            ));
            let report = CompiledJob::compile(cfg, w.program)
                .expect("machine builds")
                .shot(qpu, seed)
                .run();
            if !report.measurements.first().expect("measured").value {
                survive += 1;
            }
        }
        survive as f64 / samples as f64
    };
    let short = survival(2);
    let long = survival(64);
    assert!(
        short > long + 0.1,
        "survival must decay with length: m=2 → {short:.2}, m=64 → {long:.2}"
    );
    assert!(
        long > 0.3,
        "long sequences should still beat a fair coin: {long:.2}"
    );
}

/// The simultaneous pulse layers really are simultaneous: each layer slot
/// of the simRB stream issues pulses on both qubits with equal
/// timestamps.
#[test]
fn simrb_layers_issue_simultaneously() {
    let group = CliffordGroup::new();
    let program = simrb_program(&group, 0, 1, 12, 5).expect("valid program");
    let cfg = QuapeConfig::superscalar(8).with_seed(5);
    let report = CompiledJob::compile(cfg.clone(), program)
        .expect("machine builds")
        .shot(noiseless_qpu(5, &cfg), cfg.seed)
        .run();
    // For every timestamp with a q1 pulse in the gate stream, q0 also has
    // one (layers are padded to the longer decomposition, so check
    // subset in the shorter direction per layer construction).
    use std::collections::HashMap;
    let mut by_time: HashMap<u64, (u32, u32)> = HashMap::new();
    for op in report.issued.iter().filter(|o| !o.op.is_measure()) {
        let entry = by_time.entry(op.time_ns).or_default();
        match op.op.qubits().next().expect("gate has a qubit").index() {
            0 => entry.0 += 1,
            _ => entry.1 += 1,
        }
    }
    let shared = by_time.values().filter(|(a, b)| *a > 0 && *b > 0).count();
    assert!(
        shared * 2 >= by_time.len(),
        "most pulse slots should drive both qubits: {shared}/{}",
        by_time.len()
    );
}
