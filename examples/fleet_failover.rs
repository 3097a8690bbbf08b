//! Fleet fault tolerance end to end: capability-aware placement over a
//! heterogeneous fleet, a shard killed mid-stream with every stranded
//! job re-routed bit-identically, and the admission front door keeping
//! an interactive tenant responsive under a hog's flood.
//!
//! Run with `cargo run --release --example fleet_failover`.

use quape::prelude::*;
use quape_router::ShardProfile;
use quape_workloads::feedback::{conditional_x, feedback_chain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. A heterogeneous fleet ────────────────────────────────────
    // Shard 0 is a small 2-qubit box; shards 1 and 2 are full-size.
    // The capability filter runs before placement, so wide programs
    // can only ever land on the big shards.
    let small = ShardProfile {
        max_qubits: 2,
        ..ShardProfile::unconstrained()
    };
    let router = Router::new(RouterConfig {
        shards: 3,
        placement: Placement::RoundRobin,
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 8,
            cache_capacity: 8,
            machine: None,
            obs: Default::default(),
            packer: false,
        },
        profiles: vec![small, ShardProfile::unconstrained()],
        ..RouterConfig::default()
    });

    let cfg = QuapeConfig::superscalar(4);
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });

    // ── 2. The zero-failure oracle ──────────────────────────────────
    // Serve a stream once on a healthy fleet and remember every
    // aggregate; determinism means any re-served copy must match.
    let request = |i: u64| {
        let program = feedback_chain(0, 40 + 10 * (i as usize % 3)).expect("valid workload");
        JobRequest::new(
            format!("job{i}"),
            JobSource::Text(program.to_string()),
            cfg.clone(),
            factory.clone(),
            200,
        )
        .base_seed(i)
        .tenant(format!("tenant{}", i % 2))
    };
    let oracle: Vec<_> = (0..9)
        .map(|i| router.submit(request(i)).expect("capable shard exists"))
        .map(|job| job.handle.wait().expect("healthy run completes").aggregate)
        .collect();
    println!("oracle: {} jobs served on the healthy fleet", oracle.len());

    // ── 3. Kill a shard mid-stream ──────────────────────────────────
    // A FaultPlan kills shard 1 after the third accepted submission.
    // Jobs stranded on it are re-submitted to a surviving capable
    // shard, recompiled there, and re-run from shot 0 — so their
    // aggregates are bit-identical to the oracle's.
    let plan = FaultPlan {
        victim: 1,
        after_submits: 3,
    };
    let mut jobs = Vec::new();
    for i in 0..9 {
        jobs.push(router.submit(request(i)).expect("survivors are capable"));
        if plan.fire_if_due(jobs.len(), &router) {
            println!(
                "killed shard {} after {} submissions",
                plan.victim,
                jobs.len()
            );
        }
    }
    for (i, job) in jobs.into_iter().enumerate() {
        let result = job.handle.wait().expect("re-routed jobs complete");
        assert_eq!(
            result.aggregate, oracle[i],
            "re-routed aggregate must be bit-identical"
        );
    }
    println!(
        "all 9 jobs completed after the kill ({} re-routed), aggregates bit-identical",
        router.recovered_jobs()
    );
    let results = router.drain()?;
    println!("fleet drained: {} results\n", results.len());

    // ── 4. Admission control under a hog ────────────────────────────
    // One tenant floods the front door with bulk jobs; a 1-shot probe
    // from an interactive tenant still dispatches within a bounded
    // number of hog shots (DRR fairness), instead of behind the whole
    // backlog.
    let door = FrontDoor::new(
        RouterConfig {
            shards: 2,
            shard: ServerConfig {
                threads: 1,
                shot_quantum: 4,
                cache_capacity: 4,
                machine: None,
                obs: Default::default(),
                packer: false,
            },
            ..RouterConfig::default()
        },
        AdmissionConfig {
            tenant_budget_shots: 1 << 20,
            quantum_shots: 32,
            fleet_window_shots: 64,
            weights: Vec::new(),
        },
    );
    let probe_program = conditional_x(0)?;
    let admit = |name: &str, tenant: &str, shots: u64, seed: u64| {
        door.submit(
            JobRequest::new(
                name.to_string(),
                JobSource::Text(probe_program.to_string()),
                cfg.clone(),
                factory.clone(),
                shots,
            )
            .base_seed(seed)
            .tenant(tenant.to_string()),
        )
        .expect("budget is ample")
    };
    let hogs: Vec<_> = (0..40)
        .map(|i| admit(&format!("hog{i}"), "hog", 16, i))
        .collect();
    let probe = admit("probe", "mouse", 1, 999);
    let _ = probe.wait().expect("probe completes");
    let waited = probe.dispatch_seq().expect("dispatched") - probe.arrival_seq();
    println!(
        "hog flood: 40×16-shot jobs; mouse probe dispatched after only {waited} \
         of the hog's shots (backlog was {} shots)",
        16 * hogs.len()
    );
    for hog in &hogs {
        let _ = hog.wait().expect("hog jobs complete");
    }
    let _ = door.drain()?;
    println!("front door drained cleanly");
    Ok(())
}
