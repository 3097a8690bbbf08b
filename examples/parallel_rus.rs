//! The §3.1 motivating example: two parallel repeat-until-success
//! sub-circuits as two program blocks. A uniprocessor serializes them
//! (Fig. 3b); the multiprocessor runs them concurrently (Fig. 3a).
//!
//! ```sh
//! cargo run --example parallel_rus
//! ```

use quape::prelude::*;
use quape::workloads::feedback::parallel_rus;

fn run(processors: usize) -> RunReport {
    let program = parallel_rus(0, 1).expect("valid workload");
    let cfg = QuapeConfig::multiprocessor(processors);
    // Each RUS round fails with probability 0.5.
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 11);
    CompiledJob::compile(cfg, program)
        .expect("valid machine")
        .shot(Box::new(qpu), 11)
        .run()
}

fn main() {
    println!("two parallel repeat-until-success blocks (W1 on q0, W2 on q1):\n");
    for processors in [1, 2] {
        let report = run(processors);
        let rounds_q0 = report
            .measurements
            .iter()
            .filter(|m| m.qubit.index() == 0)
            .count();
        let rounds_q1 = report
            .measurements
            .iter()
            .filter(|m| m.qubit.index() == 1)
            .count();
        println!(
            "{processors} processor(s): {:6} ns total, W1 took {rounds_q0} round(s), W2 took {rounds_q1} round(s)",
            report.execution_time_ns(),
        );
    }
    println!("\nOn one processor W2 cannot start until W1's feedback loop terminates — the");
    println!("serial execution of Fig. 3(b). Two processors recover the parallel execution.");
}
