//! The fleet snapshot's schema and a live snapshot under a shard kill.
//!
//! The committed `BENCH_fleet.json` is a value-free sample of
//! [`FleetSnapshot`] with every collection populated once; its sorted
//! key paths must match the sample rendered from the current types.
//! A traced fleet that loses a shard mid-stream must then audit clean,
//! and its live snapshot must stay within the sample's key paths.

use quape_bench::table::{check_schema, schema_fingerprint, to_json};
use quape_core::QuapeConfig;
use quape_obs::{
    audit_complete, flight_recorder, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
    Recorder,
};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::{
    AdmissionConfig, FaultPlan, FleetSnapshot, FrontDoor, Placement, RouterConfig, ShardSnapshot,
    TenantStatsRow,
};
use quape_server::{CacheStats, JobRequest, JobSource, PackerStats, ServerConfig};
use quape_workloads::traffic::sharded_traffic;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

/// A value-free snapshot with every collection populated once: per-shard
/// rows with cache, packer and metrics, tenant attribution and
/// fleet-level metrics.
fn sample_fleet_snapshot() -> FleetSnapshot {
    let metrics = MetricsSnapshot {
        counters: vec![CounterSample {
            name: String::new(),
            value: 0,
        }],
        gauges: vec![GaugeSample {
            name: String::new(),
            value: 0,
        }],
        histograms: vec![HistogramSample {
            name: String::new(),
            count: 0,
            p50: 0,
            p95: 0,
            max: 0,
        }],
    };
    FleetSnapshot {
        shards: vec![ShardSnapshot {
            shard: 0,
            status: String::new(),
            backlog_shots: 0,
            pending_jobs: 0,
            cache: CacheStats::default(),
            packer: PackerStats::default(),
            metrics: metrics.clone(),
        }],
        tenants: vec![TenantStatsRow {
            tenant: String::new(),
            cache: CacheStats::default(),
        }],
        recovered_jobs: 0,
        stolen_jobs: 0,
        fleet_metrics: metrics,
        trace_events_dropped: 0,
    }
}

/// The committed baseline fingerprints like the current sample. On
/// drift, the fresh sample is printed: it is the new `BENCH_fleet.json`.
#[test]
fn committed_fleet_sample_matches_the_snapshot_types() {
    let fresh = to_json(&sample_fleet_snapshot());
    if let Err(e) = check_schema(BASELINE, &fresh) {
        panic!("{e}\nfresh sample for BENCH_fleet.json:\n{fresh}");
    }
}

/// A traced fleet behind the front door loses shard 0 a third of the way
/// through submission: every lifecycle audits complete, the snapshot
/// shows the dead shard, the tenants and every placement, and its key
/// paths stay within the committed sample's.
#[test]
fn live_snapshot_under_a_kill_audits_clean_within_the_sample() {
    let mut traffic = sharded_traffic(7, 8, 4);
    // Bulked shots: the victim dies holding a backlog to re-route.
    for r in &mut traffic {
        r.shots = r.shots.max(32);
    }
    let cfg = QuapeConfig::uniprocessor().with_seed(7);
    let recorder = Recorder::new();
    let door = FrontDoor::new(
        RouterConfig {
            shards: 2,
            placement: Placement::RoundRobin,
            obs: recorder.clone(),
            shard: ServerConfig {
                threads: 1,
                shot_quantum: 8,
                cache_capacity: 2,
                machine: None,
                packer: false,
                obs: Default::default(),
            },
            ..RouterConfig::default()
        },
        AdmissionConfig {
            tenant_budget_shots: 1 << 30,
            quantum_shots: 32,
            fleet_window_shots: 64,
            weights: Vec::new(),
        },
    );
    let plan = FaultPlan {
        victim: 0,
        after_submits: traffic.len() / 3,
    };
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
    let mut admitted = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        let req = JobRequest::new(
            r.name.clone(),
            JobSource::Text(r.source.clone()),
            cfg.clone(),
            factory.clone(),
            r.shots,
        )
        .base_seed(i as u64)
        .tenant(r.tenant.clone());
        admitted.push(door.submit(req).expect("budget is ample"));
        plan.fire_if_due(i + 1, door.router());
    }
    for job in &admitted {
        job.wait().expect("every job survives a single shard loss");
    }
    let snapshot = door.router().fleet_snapshot();
    audit_complete(&recorder.events(), traffic.len())
        .unwrap_or_else(|e| panic!("lifecycle audit: {e}\n{}", flight_recorder(&recorder)));
    door.drain().expect("survivors drain cleanly");

    assert_eq!(snapshot.shards.len(), 2);
    assert!(snapshot.shards.iter().any(|s| s.status == "down"));
    assert!(!snapshot.tenants.is_empty());
    let placed = snapshot
        .fleet_metrics
        .counters
        .iter()
        .find(|c| c.name == "router.jobs_placed")
        .map_or(0, |c| c.value);
    assert!(placed >= traffic.len() as u64, "{placed} placed");

    let sample = schema_fingerprint(&to_json(&sample_fleet_snapshot())).unwrap();
    let live = schema_fingerprint(&to_json(&snapshot)).unwrap();
    let rogue: Vec<_> = live.iter().filter(|p| !sample.contains(p)).collect();
    assert!(rogue.is_empty(), "unbaselined key paths: {rogue:?}");
}
