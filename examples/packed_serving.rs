//! Claim batching in the serving path (§3.1.2 multiprogramming): small
//! queued jobs of equal priority and shot count are grouped by the
//! server so one claim per quantum covers every member, while each
//! member still runs its own engine — per-job aggregates stay
//! bit-identical to solo runs.
//!
//! Run with `cargo run --release --example packed_serving`.

use quape::prelude::*;
use quape_workloads::feedback::{conditional_x, feedback_chain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = QuapeConfig::superscalar(4);
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });

    // A batching server: queued jobs with the same priority and shot
    // count (up to eight) share one claim stream.
    let server = JobServer::new(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: true,
    });

    // Six small jobs, all with the same priority and shot count.
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
        "packs formed: {} ({} jobs packed, {} shots)",
        stats.packs_formed, stats.jobs_packed, stats.packed_shots
    );

    // Each batched job's aggregate is bit-identical to the same program
    // run solo on its own engine with the same seed.
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
