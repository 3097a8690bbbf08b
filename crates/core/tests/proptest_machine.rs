//! Property tests for the machine: random straight-line programs always
//! terminate, issue exactly their quantum instructions, never lose
//! operations across configurations, and are deterministic under seeds.

use proptest::prelude::*;
use quape_core::{CompiledJob, QuapeConfig, StopReason};
use quape_isa::{ClassicalOp, Gate1, Gate2, Program, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpu, MeasurementModel};

#[derive(Debug, Clone)]
enum ProgOp {
    G1(u8, u16),
    G2(u16, u16),
    Meas(u16),
    Wait(u8),
}

fn arb_prog(num_qubits: u16) -> impl Strategy<Value = Vec<ProgOp>> {
    let op = prop_oneof![
        5 => (0u8..14, 0..num_qubits).prop_map(|(g, q)| ProgOp::G1(g, q)),
        3 => (0..num_qubits, 0..num_qubits).prop_map(|(a, b)| ProgOp::G2(a, b)),
        1 => (0..num_qubits).prop_map(ProgOp::Meas),
        1 => (1u8..30).prop_map(ProgOp::Wait),
    ];
    proptest::collection::vec(op, 1..80)
}

fn build(ops: &[ProgOp]) -> Program {
    let mut b = quape_isa::ProgramBuilder::new();
    for op in ops {
        match *op {
            ProgOp::G1(g, q) => {
                let gate = Gate1::FIXED[g as usize % Gate1::FIXED.len()];
                b.quantum(2, QuantumOp::Gate1(gate, Qubit::new(q)));
            }
            ProgOp::G2(a, bq) if a != bq => {
                b.quantum(
                    4,
                    QuantumOp::Gate2(Gate2::Cnot, Qubit::new(a), Qubit::new(bq)),
                );
            }
            ProgOp::G2(..) => {}
            ProgOp::Meas(q) => {
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
            }
            ProgOp::Wait(c) => {
                b.push(ClassicalOp::Qwait {
                    cycles: quape_isa::Cycles::new(u32::from(c)),
                });
            }
        }
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("straight-line program is valid")
}

fn run(cfg: QuapeConfig, program: Program, seed: u64) -> quape_core::RunReport {
    let qpu = BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    let cfg_seed = cfg.seed;
    CompiledJob::compile(cfg, program)
        .expect("machine builds")
        .shot(Box::new(qpu), cfg_seed)
        .run_with_limit(500_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Straight-line programs always complete and issue exactly their
    /// quantum instruction count, on every configuration.
    #[test]
    fn straight_line_programs_complete(ops in arb_prog(8)) {
        let program = build(&ops);
        let expected = program.quantum_count();
        for cfg in [
            QuapeConfig::scalar_baseline(),
            QuapeConfig::superscalar(4),
            QuapeConfig::superscalar(8),
        ] {
            let report = run(cfg, program.clone(), 3);
            prop_assert_eq!(report.stop, StopReason::Completed);
            prop_assert_eq!(report.issued_count(), expected);
        }
    }

    /// Issue times are non-decreasing per qubit and the QPU sees ops in
    /// global time order.
    #[test]
    fn issue_times_are_monotone(ops in arb_prog(6)) {
        let program = build(&ops);
        let report = run(QuapeConfig::superscalar(8), program, 9);
        let times: Vec<u64> = report.issued.iter().map(|o| o.time_ns).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    /// Equal seeds give identical runs; the superscalar never issues
    /// later than the scalar for the final operation.
    #[test]
    fn determinism_and_superscalar_no_slower(ops in arb_prog(6)) {
        let program = build(&ops);
        let a = run(QuapeConfig::superscalar(8), program.clone(), 42);
        let b = run(QuapeConfig::superscalar(8), program.clone(), 42);
        prop_assert_eq!(a.cycles, b.cycles);
        let a_times: Vec<u64> = a.issued.iter().map(|o| o.time_ns).collect();
        let b_times: Vec<u64> = b.issued.iter().map(|o| o.time_ns).collect();
        prop_assert_eq!(a_times, b_times);

        let scalar = run(QuapeConfig::scalar_baseline(), program, 42);
        let wide_end = a.issued.last().map_or(0, |o| o.time_ns);
        let scalar_end = scalar.issued.last().map_or(0, |o| o.time_ns);
        prop_assert!(
            wide_end <= scalar_end,
            "superscalar finished at {wide_end}, scalar at {scalar_end}"
        );
    }

    /// Encoding to binary and back never changes behaviour.
    #[test]
    fn binary_roundtrip_equivalence(ops in arb_prog(5)) {
        let program = build(&ops);
        let words = program.encode_all().expect("encodes");
        let decoded = Program::from_words(&words).expect("decodes");
        let a = run(QuapeConfig::superscalar(4), program, 7);
        let b = run(QuapeConfig::superscalar(4), decoded, 7);
        let at: Vec<(u64, String)> = a.issued.iter().map(|o| (o.time_ns, o.op.to_string())).collect();
        let bt: Vec<(u64, String)> = b.issued.iter().map(|o| (o.time_ns, o.op.to_string())).collect();
        prop_assert_eq!(at, bt);
    }
}

/// Random RUS-style loops terminate under a fair coin across seeds.
#[test]
fn random_feedback_loops_terminate() {
    for seed in 0..30u64 {
        let src = "top: 0 Y q0\n2 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n";
        let program = quape_isa::assemble(src).expect("valid");
        let report = run(QuapeConfig::uniprocessor().with_seed(seed), program, seed);
        assert_eq!(report.stop, StopReason::Completed, "seed {seed}");
    }
}
