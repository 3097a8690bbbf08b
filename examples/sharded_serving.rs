//! Sharded streaming serving: a HiMA-style front router placing jobs
//! over multiple live `JobServer` shards, with the streaming job
//! lifecycle — submit-while-serving, progress polling, prefix-consistent
//! partial aggregates, and cooperative cancellation.
//!
//! Run with `cargo run --release --example sharded_serving`.

use quape::prelude::*;
use quape_workloads::feedback::feedback_chain;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fleet of 3 shards, each with its own compile cache and worker
    // pool. Sticky placement sends a program to the shard that already
    // holds its compiled job.
    let router = Router::new(RouterConfig {
        shards: 3,
        placement: Placement::StickyByDigest,
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 8,
            cache_capacity: 8,
            machine: None,
            obs: Default::default(),
            packer: false,
        },
        ..RouterConfig::default()
    });

    let cfg = QuapeConfig::superscalar(4);
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });

    // Submit a few tenants' jobs; they start executing immediately.
    let mut jobs = Vec::new();
    for tenant in 0..3u64 {
        let program = feedback_chain(0, 40 + 10 * tenant as usize)?;
        let job = router.submit(
            JobRequest::new(
                format!("tenant{tenant}_chain"),
                JobSource::Text(program.to_string()),
                cfg.clone(),
                factory.clone(),
                400,
            )
            .base_seed(tenant)
            .tenant(format!("tenant{tenant}")),
        )?;
        println!("submitted {} -> shard {}", job.handle.name(), job.shard);
        jobs.push(job);
    }

    // Stream progress off the first job's handle while it runs.
    let watched = &jobs[0].handle;
    loop {
        let p = watched.progress();
        println!(
            "  {}: {}/{} shots done",
            watched.name(),
            p.shots_done,
            p.shots_total
        );
        if p.finished || p.shots_done >= 200 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // A partial aggregate mid-flight is prefix-consistent: identical to
    // a solo engine run of exactly that many shots.
    let partial = watched.partial_aggregate();
    println!(
        "  partial aggregate over first {} shots: survival(q0) = {:?}",
        partial.shots,
        partial.survival(0)
    );

    // Cancel the second job; its result is the completed prefix.
    jobs[1].handle.cancel();
    let cancelled = jobs[1].handle.wait()?;
    println!(
        "cancelled {} after {}/{} shots",
        cancelled.name, cancelled.shots, cancelled.shots_requested
    );

    // Drain the fleet and report.
    let results = router.drain()?;
    println!("\nresults ({} jobs):", results.len());
    for r in &results {
        let job = r.result.as_ref().expect("no shard failed in this run");
        println!(
            "  shard {} · {} · {} shots{} · p(1|q0) = {:?}",
            r.shard,
            job.name,
            job.shots,
            if job.cancelled { " (cancelled)" } else { "" },
            job.aggregate.qubits.first().and_then(|h| h.p_one()),
        );
    }
    Ok(())
}
