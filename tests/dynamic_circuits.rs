//! End-to-end tests of the §2.4 dynamic circuits: quantum teleportation
//! and iterative phase estimation, executed through the complete control
//! stack against the state-vector QPU. These are the strongest
//! correctness checks in the repository: feedback control, MRCE, computed
//! branches, timing and the quantum simulation must all agree for the
//! physics to come out right.

use quape::prelude::*;
use quape::qpu::{DepolarizingNoise, ReadoutError};
use quape::workloads::dynamic::{iterative_phase_estimation, teleportation_with_input, IpeConfig};

fn noiseless(seed: u64, cfg: &QuapeConfig, qubits: u8) -> Box<StateVectorQpu> {
    Box::new(StateVectorQpu::new(
        qubits,
        cfg.timings,
        DepolarizingNoise {
            pauli_error_prob: 0.0,
        },
        ReadoutError::default(),
        seed,
    ))
}

/// The teleportation program with a final measurement of the target
/// qubit appended (replacing the trailing STOP).
fn measuring_teleportation(theta: f64) -> Program {
    let tail = teleportation_with_input(theta, 0, 1, 2).expect("valid program");
    let mut b = ProgramBuilder::new();
    for i in tail.instructions() {
        if matches!(i, Instruction::Classical(ClassicalOp::Stop)) {
            continue;
        }
        b.push(*i);
    }
    b.quantum(2, QuantumOp::Measure(Qubit::new(2)));
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid program")
}

/// Teleporting Ry(θ)|0⟩ gives P(target = 1) = sin²(θ/2). The edge cases
/// θ = 0 and θ = π are deterministic; θ = π/2 is statistical.
#[test]
fn teleportation_preserves_the_state() {
    for (theta, expect_p1, tol) in [
        (0.0, 0.0, 0.01),
        (std::f64::consts::PI, 1.0, 0.01),
        (std::f64::consts::FRAC_PI_2, 0.5, 0.12),
    ] {
        let mut hits = 0usize;
        let runs = 120usize;
        for seed in 0..runs as u64 {
            let program = measuring_teleportation(theta);
            let cfg = QuapeConfig::superscalar(8).with_seed(seed);
            let report = CompiledJob::compile(cfg.clone(), program)
                .expect("builds")
                .shot(noiseless(seed, &cfg, 3), cfg.seed)
                .run();
            assert_eq!(
                report.stop,
                StopReason::Completed,
                "θ = {theta}, seed {seed}"
            );
            let outcome = report
                .measurements
                .iter()
                .find(|m| m.qubit.index() == 2)
                .expect("target measured");
            if outcome.value {
                hits += 1;
            }
        }
        let p1 = hits as f64 / runs as f64;
        assert!(
            (p1 - expect_p1).abs() <= tol,
            "teleported P(1) = {p1} (expected {expect_p1}) at θ = {theta}"
        );
    }
}

/// The Bell-measurement outcomes are uniform over the four corrections,
/// so both MRCE paths (apply / skip) are exercised across seeds.
#[test]
fn teleportation_exercises_all_correction_paths() {
    let mut correction_counts = [0usize; 4];
    for seed in 0..80u64 {
        let program = measuring_teleportation(1.0);
        let cfg = QuapeConfig::superscalar(8).with_seed(seed);
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("builds")
            .shot(noiseless(seed, &cfg, 3), cfg.seed)
            .run();
        let m_source = report
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 0)
            .expect("m0");
        let m_anc = report
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 1)
            .expect("m1");
        correction_counts[usize::from(m_source.value) * 2 + usize::from(m_anc.value)] += 1;
        // Two MRCE context resolutions per run.
        assert_eq!(
            report.stats.processors[0].context_switches, 2,
            "seed {seed}"
        );
    }
    for (i, &count) in correction_counts.iter().enumerate() {
        assert!(count > 5, "correction path {i} hit only {count}/80 times");
    }
}

/// Noiseless IPE recovers every 3-bit phase exactly, through the full
/// stack (computed feedback branches included).
#[test]
fn ipe_recovers_every_3bit_phase() {
    for numerator in 0..8u8 {
        let cfg_ipe = IpeConfig {
            bits: 3,
            phase_numerator: numerator,
            ancilla: 0,
            target: 1,
        };
        let program = iterative_phase_estimation(cfg_ipe).expect("valid program");
        let cfg = QuapeConfig::superscalar(8).with_seed(u64::from(numerator));
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("builds")
            .shot(noiseless(u64::from(numerator), &cfg, 2), cfg.seed)
            .run_with_limit(1_000_000);
        assert_eq!(report.stop, StopReason::Completed, "φ = {numerator}/8");
        // Bits arrive LSB-first in the measurement record; reconstruct.
        let bits: Vec<bool> = report.measurements.iter().map(|m| m.value).collect();
        assert_eq!(bits.len(), 3);
        let estimate: u8 = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| u8::from(b) << i)
            .sum();
        assert_eq!(
            estimate, numerator,
            "φ = {numerator}/8 estimated as {estimate}/8"
        );
    }
}

/// IPE with 4 bits also resolves exactly (deeper feedback chains).
#[test]
fn ipe_recovers_4bit_phases() {
    for numerator in [1u8, 6, 11, 15] {
        let cfg_ipe = IpeConfig {
            bits: 4,
            phase_numerator: numerator,
            ancilla: 0,
            target: 1,
        };
        let program = iterative_phase_estimation(cfg_ipe).expect("valid program");
        let cfg = QuapeConfig::superscalar(8).with_seed(u64::from(numerator) + 100);
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("builds")
            .shot(noiseless(u64::from(numerator), &cfg, 2), cfg.seed)
            .run_with_limit(1_000_000);
        assert_eq!(report.stop, StopReason::Completed);
        let estimate: u8 = report
            .measurements
            .iter()
            .enumerate()
            .map(|(i, m)| u8::from(m.value) << i)
            .sum();
        assert_eq!(
            estimate, numerator,
            "φ = {numerator}/16 estimated as {estimate}/16"
        );
    }
}

/// Multiprogrammed independent tasks preserve each task's semantics: two
/// teleportations on disjoint qubits both succeed.
#[test]
fn multiprogrammed_teleportations_both_work() {
    use quape::workloads::multiprogramming::combine;
    let a = measuring_teleportation(std::f64::consts::PI); // P(1) = 1
    let b = measuring_teleportation(0.0); // P(1) = 0
    let combined = combine(&[a, b]).expect("combines");
    for seed in 0..20u64 {
        let cfg = QuapeConfig::multiprocessor(2).with_seed(seed);
        let report = CompiledJob::compile(cfg.clone(), combined.clone())
            .expect("builds")
            .shot(noiseless(seed, &cfg, 6), cfg.seed)
            .run();
        assert_eq!(report.stop, StopReason::Completed);
        // Task 0's target is q2 (must read 1), task 1's is q5 (must read 0).
        let t0 = report
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 2)
            .expect("q2");
        let t1 = report
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 5)
            .expect("q5");
        assert!(t0.value, "seed {seed}: task 0 teleported X|0⟩ but read 0");
        assert!(!t1.value, "seed {seed}: task 1 teleported |0⟩ but read 1");
    }
}
