//! Reproduces Fig. 3: the execution of two parallel repeat-until-success
//! sub-circuits — parallel on the multiprocessor (Fig. 3a), forcibly
//! serialized on the uniprocessor (Fig. 3b) — rendered as per-qubit
//! operation timelines.

use quape_core::{render_timeline, CompiledJob, QuapeConfig, TimelineOptions};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::feedback::parallel_rus;

fn run(processors: usize, seed: u64) -> quape_core::RunReport {
    let program = parallel_rus(0, 1).expect("valid workload");
    let cfg = QuapeConfig::multiprocessor(processors);
    let qpu = BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    CompiledJob::compile(cfg, program)
        .expect("valid machine")
        .shot(Box::new(qpu), seed)
        .run()
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(11, |a| a.parse().expect("seed needs a number"));
    let opts = TimelineOptions {
        ns_per_column: 20,
        max_columns: 100,
        ..Default::default()
    };

    println!("Fig. 3(a) — parallel execution (two processors):\n");
    let parallel = run(2, seed);
    print!("{}", render_timeline(&parallel, &opts));
    println!("total: {} ns\n", parallel.execution_time_ns());

    println!("Fig. 3(b) — serial execution (uniprocessor):\n");
    let serial = run(1, seed);
    print!("{}", render_timeline(&serial, &opts));
    println!("total: {} ns", serial.execution_time_ns());
    println!(
        "\nThe uniprocessor adds W1's entire feedback latency to W2's qubit — the\n\
         situation §3.1.3 calls unacceptable; the multiprocessor removes it."
    );
}
