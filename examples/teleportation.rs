//! Quantum teleportation through the full control stack, with MRCE-based
//! Pauli corrections and a visual operation timeline.
//!
//! ```sh
//! cargo run --release --example teleportation
//! ```

use quape::core::{render_timeline, TimelineOptions};
use quape::prelude::*;
use quape::qpu::{DepolarizingNoise, ReadoutError};
use quape::workloads::dynamic::teleportation_with_input;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let theta = std::f64::consts::FRAC_PI_2; // teleport Ry(π/2)|0⟩ = |+⟩-ish
    println!("teleporting Ry({theta:.3})|0⟩ from q0 to q2 (expected P(q2=1) = 0.5)\n");

    // One run, visualized.
    let program = teleportation_with_input(theta, 0, 1, 2)?;
    let cfg = QuapeConfig::superscalar(8);
    let qpu = StateVectorQpu::new(
        3,
        cfg.timings,
        DepolarizingNoise {
            pauli_error_prob: 0.0,
        },
        ReadoutError::default(),
        7,
    );
    let report = CompiledJob::compile(cfg, program)?
        .shot(Box::new(qpu), 7)
        .run();
    println!("{}", render_timeline(&report, &TimelineOptions::default()));
    println!(
        "Bell measurement outcomes: m(q0) = {}, m(q1) = {}; {} MRCE context switch(es)\n",
        u8::from(report.measurements[0].value),
        u8::from(report.measurements[1].value),
        report.stats.processors[0].context_switches,
    );

    // Statistics over many runs: append a measurement of the target.
    let mut ones = 0u32;
    let runs = 400u32;
    for seed in 0..runs {
        let base = teleportation_with_input(theta, 0, 1, 2)?;
        let mut b = ProgramBuilder::new();
        for i in base.instructions() {
            if matches!(i, Instruction::Classical(ClassicalOp::Stop)) {
                continue;
            }
            b.push(*i);
        }
        b.quantum(2, QuantumOp::Measure(Qubit::new(2)));
        b.push(ClassicalOp::Stop);
        let program = b.finish()?;
        let cfg = QuapeConfig::superscalar(8);
        let qpu = StateVectorQpu::new(
            3,
            cfg.timings,
            DepolarizingNoise {
                pauli_error_prob: 0.0,
            },
            ReadoutError::default(),
            u64::from(seed),
        );
        let report = CompiledJob::compile(cfg, program)?
            .shot(Box::new(qpu), u64::from(seed))
            .run();
        let outcome = report
            .measurements
            .iter()
            .find(|m| m.qubit.index() == 2)
            .expect("target measured");
        if outcome.value {
            ones += 1;
        }
    }
    println!(
        "teleported-state statistics over {runs} runs: P(q2 = 1) = {:.3}",
        f64::from(ones) / f64::from(runs)
    );
    Ok(())
}
