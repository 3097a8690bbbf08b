//! Quickstart: assemble a timed program, run it on QuAPE, inspect the
//! operation timeline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use quape::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Bell-pair preparation with explicit timing labels: both H gates
    // start together; the CNOT follows 2 cycles (20 ns) later, after the
    // H pulses finish; the measurements start together after the CNOT.
    let source = "\
.step 0
0 H q0
0 H q1
.step 1
2 CNOT q0, q1
.step 2
4 MEAS q0
0 MEAS q1
.step none
STOP
";
    let program = assemble(source)?;
    println!(
        "program: {} quantum + {} classical instructions",
        program.quantum_count(),
        program.classical_count()
    );

    // An 8-way superscalar QuAPE in front of a PRNG-measurement QPU.
    let cfg = QuapeConfig::superscalar(8);
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 42);
    let report = CompiledJob::compile(cfg, program)?
        .shot(Box::new(qpu), 0)
        .run();

    println!("\noperation timeline:");
    for op in &report.issued {
        println!("  t = {:>4} ns  {}", op.time_ns, op.op);
    }
    println!("\nmeasurements:");
    for m in &report.measurements {
        println!(
            "  t = {:>4} ns  {} -> {}",
            m.time_ns,
            m.qubit,
            u8::from(m.value)
        );
    }

    // Was the pre-scheduled timeline respected?
    println!("\ntiming clean: {}", report.timing_clean());

    println!("\nper-qubit timeline:");
    print!(
        "{}",
        quape::core::render_timeline(&report, &quape::core::TimelineOptions::default())
    );

    // The paper's QOLP metrics.
    let ces = ces_report_paper(&report);
    println!("\nCES / TR per circuit step:\n{ces}");
    Ok(())
}
