//! Multiprogramming packing in the serving path (§3.1.2): a batch of
//! small jobs too narrow to use the machine alone is merged by the
//! server's packer into combined shot streams — one claim per quantum
//! covers every co-resident member — and de-multiplexed back into
//! per-job aggregates that are bit-identical to solo runs.
//!
//! Run with `cargo run --release --example packed_serving`.

use quape::prelude::*;
use quape_workloads::feedback::{conditional_x, feedback_chain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = QuapeConfig::superscalar(4);
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });

    // A packer-enabled server: compatible queued jobs (same config,
    // cycle budget, priority, and — under the default exact policy —
    // shot count) merge into one packed entry when their
    // relocated qubit regions fit side by side.
    let server = JobServer::new(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: Some(PackerConfig::default()),
    });

    // Six narrow jobs (1–2 qubits each), all the same shape class.
    let programs = [
        ("cond_x_a", conditional_x(0)?),
        ("cond_x_b", conditional_x(0)?),
        ("chain_a", feedback_chain(0, 6)?),
        ("chain_b", feedback_chain(0, 6)?),
        ("chain2_a", feedback_chain(1, 8)?),
        ("chain2_b", feedback_chain(1, 8)?),
    ];
    let shots = 64;
    for (i, (name, program)) in programs.iter().enumerate() {
        let _ = server.submit(
            JobRequest::new(
                name.to_string(),
                JobSource::Text(program.to_string()),
                cfg.clone(),
                factory.clone(),
                shots,
            )
            .base_seed(100 + i as u64),
        )?;
    }

    let results = server.run();
    let stats = server.packer_stats();
    println!(
        "packs formed: {} ({} jobs packed, {} shots; {} declined)",
        stats.packs_formed, stats.jobs_packed, stats.packed_shots, stats.declined
    );

    // De-mux exactness: each packed job's aggregate is bit-identical to
    // the same program run solo on its own engine with the same seed.
    for (i, result) in results.iter().enumerate() {
        let (name, program) = &programs[i];
        let job = CompiledJob::compile(cfg.clone(), program.clone())?;
        let solo = ShotEngine::new(job, factory.clone())
            .base_seed(100 + i as u64)
            .threads(1)
            .run(shots);
        assert_eq!(
            result.aggregate, solo.aggregate,
            "{name}: packed aggregate diverged from its solo run"
        );
        println!(
            "{:>8}: {} shots, {} quantum ops issued — matches solo run",
            name, result.shots, result.aggregate.issued_total
        );
    }
    Ok(())
}
