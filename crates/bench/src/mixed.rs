//! Serving-path gates over one `JobServer` pair: claim batching versus
//! one claim per job ([`run_packed_traffic`]), and telemetry on versus
//! off ([`run_obs_overhead`]).
//!
//! Both comparisons serve one deterministic stream from
//! [`quape_workloads::traffic`] on two cache-warm servers in
//! alternating passes, assert every request's aggregate bit-identical
//! across the two sides, and gate on the median per-pair throughput
//! ratio. Request latency is measured from one common arrival epoch
//! (the queue is handed over at t=0 in every pass), so p50/p95 compare
//! the *tenant experience*. End-to-end serving throughput and latency
//! are measured by the repository benchmark (`perfbench/`), not here.

use quape_core::QuapeConfig;
use quape_obs::{ObsScope, Recorder};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobRequest, JobServer, JobSource, PackerStats, Priority, ServerConfig};
use quape_workloads::traffic::{mixed_traffic, small_job_traffic, TrafficRequest};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Host-side measurements of one serving scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// `interleaved`, `packed`, `obs_off` or `obs_on`.
    pub scenario: String,
    /// Requests served.
    pub requests: u64,
    /// Total shots executed across all requests.
    pub total_shots: u64,
    /// Wall time for the whole stream, milliseconds.
    pub wall_ms: f64,
    /// Requests per second.
    pub jobs_per_sec: f64,
    /// Median request latency (arrival → completion), microseconds.
    pub p50_latency_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_latency_us: u64,
    /// Compile-cache hits in this scenario.
    pub cache_hits: u64,
    /// Compile-cache misses in this scenario.
    pub cache_misses: u64,
    /// Compile-cache evictions in this scenario.
    pub cache_evictions: u64,
    /// Compilations actually performed.
    pub compiles: u64,
}

/// The serving gates' QPU backend: a fair coin per measurement, timed
/// by the configuration in force.
fn factory(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

/// Maps a [`quape_workloads::traffic::TrafficRequest`] priority class
/// to the server's type.
fn priority_of(class: u8) -> Priority {
    match class {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when
/// empty).
fn percentile(sorted_us: &[u64], p: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    sorted_us[(sorted_us.len() - 1) * p / 100]
}

fn scenario_row(
    scenario: &str,
    traffic: &[TrafficRequest],
    mut latencies_us: Vec<u64>,
    wall_ms: f64,
    cache: (u64, u64, u64, u64),
) -> ScenarioResult {
    latencies_us.sort_unstable();
    ScenarioResult {
        scenario: scenario.to_string(),
        requests: traffic.len() as u64,
        total_shots: traffic.iter().map(|r| r.shots).sum(),
        wall_ms,
        jobs_per_sec: traffic.len() as f64 / (wall_ms / 1000.0),
        p50_latency_us: percentile(&latencies_us, 50),
        p95_latency_us: percentile(&latencies_us, 95),
        cache_hits: cache.0,
        cache_misses: cache.1,
        cache_evictions: cache.2,
        compiles: cache.3,
    }
}

/// Cache-counter delta over one pass: (hits, misses, evictions,
/// compiles).
type CacheDelta = (u64, u64, u64, u64);

/// A server pass: latencies, aggregates, wall ms, cache delta.
type ServerPass = (Vec<u64>, Vec<quape_core::BatchAggregate>, f64, CacheDelta);

/// One server pass over the traffic. Returns (latencies µs, aggregates,
/// wall ms, cache-stat delta).
fn run_server_pass(
    server: &JobServer,
    cfg: &QuapeConfig,
    traffic: &[TrafficRequest],
    base_seed: u64,
) -> ServerPass {
    let before = server.cache_stats();
    let epoch = Instant::now();
    // Per-request offset of its submission from the common arrival
    // epoch: added to the server-measured submit→completion latency so
    // every pass reports arrival-epoch latencies (a request queued
    // behind earlier submissions pays that wait too).
    let mut submit_offsets = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        submit_offsets.push(epoch.elapsed());
        let req = JobRequest::new(
            r.name.clone(),
            JobSource::Text(r.source.clone()),
            cfg.clone(),
            factory(cfg),
            r.shots,
        )
        .base_seed(base_seed + i as u64)
        .priority(priority_of(r.priority_class))
        .tenant(r.tenant.clone());
        let _ = server.submit(req).expect("traffic request submits");
    }
    let results = server.run();
    let wall_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    let after = server.cache_stats();
    assert_eq!(results.len(), traffic.len());
    let latencies = results
        .iter()
        .zip(&submit_offsets)
        .map(|(r, off)| (*off + r.latency).as_micros() as u64)
        .collect();
    let aggregates = results.into_iter().map(|r| r.aggregate).collect();
    let delta = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
        after.compiles - before.compiles,
    );
    (latencies, aggregates, wall_ms, delta)
}

/// Outcome of the packed-vs-interleaved comparison
/// ([`run_packed_traffic`]).
#[derive(Debug, Clone)]
pub struct PackedOutcome {
    /// The `interleaved` and `packed` scenario rows.
    pub rows: Vec<ScenarioResult>,
    /// The packed server's claim-batching counters over all passes.
    pub packer: PackerStats,
    /// Packed jobs/sec over interleaved jobs/sec (the CI gate ratio).
    pub pack_ratio: f64,
}

/// The §3.1.2 multiprogramming comparison: one small-job-heavy stream
/// ([`small_job_traffic`] — uniform shots and priority, narrow
/// programs) served twice by the same `JobServer` machinery, once
/// claiming every job on its own and once with claim batching, where
/// one claim carries a quantum for every member of a batch.
///
/// Every request's aggregate is asserted **bit-identical** across the
/// two passes — the interleaved pass is the packed pass's oracle, so
/// the throughput ratio compares equal work. Each scenario keeps one
/// server across `repeats` measured passes (after one unmeasured
/// warm-up pass), so both run compile-cache-warm; the measured passes alternate
/// between the two servers (adjacent pairs see the same host-speed
/// drift) and each side reports its fastest pass.
///
/// # Panics
///
/// Panics when any packed aggregate diverges from its interleaved
/// oracle, when the packed passes never form a batch (the comparison
/// would be vacuous), or when batching changes the compile-cache
/// traffic (it must add no lookup and no compile).
pub fn run_packed_traffic(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> PackedOutcome {
    run_packed_traffic_observed(seed, requests, threads, repeats, &Recorder::off())
}

/// [`run_packed_traffic`] with lifecycle tracing: the interleaved
/// server records into scope 0 (`interleaved`) and the packed server
/// into scope 1 (`packed`), so an exported trace shows the same stream
/// served both ways side by side — claims covering whole batches
/// ([`Packed`](quape_obs::TraceKind::Packed) events tie members to
/// their batch) against one-member-per-claim interleaving.
pub fn run_packed_traffic_observed(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
    recorder: &Recorder,
) -> PackedOutcome {
    let repeats = repeats.max(1);
    let traffic = small_job_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let server_cfg = |packer: bool, obs: ObsScope| ServerConfig {
        threads,
        // A fine preemption quantum — the latency-fairness setting a
        // multi-tenant server actually runs — is where batching pays:
        // every claim covers all members of a batch at once, so the
        // packed side takes one scheduler round-trip where the
        // interleaved side takes one *per member*.
        shot_quantum: 1,
        cache_capacity: 16,
        machine: None,
        packer,
        obs,
    };

    let warm = |packer: bool, obs: ObsScope| {
        let server = JobServer::new(server_cfg(packer, obs));
        // Warm-up pass: populate the compile cache so the measured
        // passes compare steady-state serving, not first-contact
        // compiles.
        let _ = run_server_pass(&server, &cfg, &traffic, base_seed);
        server
    };
    let interleaved = warm(false, recorder.labeled_scope(0, "interleaved"));
    let packed = warm(true, recorder.labeled_scope(1, "packed"));

    // The measured passes alternate between the two servers. Host
    // throughput drifts on timescales comparable to a scenario's whole
    // repeat loop, so running one scenario's repeats back-to-back and
    // then the other's hands whichever ran during a slow window a
    // phantom loss; adjacent pairs expose both sides to the same drift
    // and best-of-K then compares like against like.
    let mut best_i: Option<ServerPass> = None;
    let mut best_p: Option<ServerPass> = None;
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let pass_i = run_server_pass(&interleaved, &cfg, &traffic, base_seed);
        let pass_p = run_server_pass(&packed, &cfg, &traffic, base_seed);
        // Jobs/sec ratio of this adjacent pair (equal job counts, so
        // the wall ratio is the throughput ratio).
        pair_ratios.push(pass_i.2 / pass_p.2);
        if best_i.as_ref().is_none_or(|b| pass_i.2 < b.2) {
            best_i = Some(pass_i);
        }
        if best_p.as_ref().is_none_or(|b| pass_p.2 < b.2) {
            best_p = Some(pass_p);
        }
    }
    // The gate ratio is the *median pair ratio*, not the ratio of the
    // per-side minima: a noise spike lengthens whichever pass it lands
    // on, so per-pair ratios scatter symmetrically around the true
    // value and the median sheds both tails — while two independent
    // minima can sample different drift windows and compare a lucky
    // pass against an unlucky one.
    pair_ratios.sort_by(f64::total_cmp);
    let pack_ratio = pair_ratios[pair_ratios.len() / 2];
    let packer = packed.packer_stats();
    let (lat, oracle, wall, cache) = best_i.expect("at least one pass");
    let interleaved_row = scenario_row("interleaved", &traffic, lat, wall, cache);
    let (lat, packed_aggs, wall, cache) = best_p.expect("at least one pass");
    let packed_row = scenario_row("packed", &traffic, lat, wall, cache);

    for (i, oracle_agg) in oracle.iter().enumerate() {
        assert_eq!(
            oracle_agg, &packed_aggs[i],
            "request {i}: packed run diverged from its interleaved oracle"
        );
    }
    assert!(
        packer.packs_formed > 0,
        "the packed passes never formed a batch — the comparison is vacuous"
    );
    assert_eq!(
        interleaved.cache_stats(),
        packed.cache_stats(),
        "claim batching changed the compile-cache traffic"
    );

    PackedOutcome {
        rows: vec![interleaved_row, packed_row],
        packer,
        pack_ratio,
    }
}

/// Outcome of the obs-overhead comparison ([`run_obs_overhead`]).
#[derive(Debug)]
pub struct ObsOverheadOutcome {
    /// The `obs_off` and `obs_on` scenario rows.
    pub rows: Vec<ScenarioResult>,
    /// Obs-on jobs/sec over obs-off jobs/sec (the CI gate ratio; 1.0
    /// means tracing is free, the gate requires ≥ the configured floor).
    pub obs_ratio: f64,
    /// Trace events the observed side recorded across all its passes.
    pub trace_events: usize,
    /// The observed side's recorder, for trace/metrics export.
    pub recorder: Recorder,
}

/// The zero-cost-when-on check: the same mixed stream served by two
/// cache-warm servers, one with telemetry off (the compile-time-inert
/// no-op recorder) and one recording full metrics + lifecycle traces.
/// Every request's aggregate is asserted **bit-identical** between the
/// two sides on every pass — telemetry observes, it never steers — and
/// the throughput ratio is the CI gate for its runtime cost.
///
/// Measured passes alternate between the two servers and the gate ratio
/// is the median per-pair ratio, the same noise discipline as
/// [`run_packed_traffic`]'s pack gate: adjacent pairs see the same
/// host-speed drift and the median sheds both noise tails.
///
/// # Panics
///
/// Panics when an observed aggregate diverges from its unobserved
/// oracle, or when the observed side recorded no events (the comparison
/// would be vacuous).
pub fn run_obs_overhead(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> ObsOverheadOutcome {
    let repeats = repeats.max(1);
    let traffic = mixed_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let recorder = Recorder::new();
    let warm = |obs: ObsScope| {
        let server = JobServer::new(ServerConfig {
            threads,
            shot_quantum: 8,
            cache_capacity: 16,
            machine: None,
            packer: false,
            obs,
        });
        // Warm-up pass: both sides measure steady-state cache-warm
        // serving, where per-quantum recording is the largest fraction
        // of the work — the most obs-hostile regime.
        let _ = run_server_pass(&server, &cfg, &traffic, base_seed);
        server
    };
    let off = warm(ObsScope::off());
    let on = warm(recorder.labeled_scope(0, "observed"));

    let mut best_off: Option<ServerPass> = None;
    let mut best_on: Option<ServerPass> = None;
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let pass_off = run_server_pass(&off, &cfg, &traffic, base_seed);
        let pass_on = run_server_pass(&on, &cfg, &traffic, base_seed);
        for (i, agg) in pass_off.1.iter().enumerate() {
            assert_eq!(
                agg, &pass_on.1[i],
                "request {i}: tracing steered the schedule — aggregates diverged"
            );
        }
        pair_ratios.push(pass_off.2 / pass_on.2);
        if best_off.as_ref().is_none_or(|b| pass_off.2 < b.2) {
            best_off = Some(pass_off);
        }
        if best_on.as_ref().is_none_or(|b| pass_on.2 < b.2) {
            best_on = Some(pass_on);
        }
    }
    pair_ratios.sort_by(f64::total_cmp);
    let obs_ratio = pair_ratios[pair_ratios.len() / 2];
    let trace_events = recorder.events().len() + recorder.dropped_events() as usize;
    assert!(
        trace_events > 0,
        "the observed side recorded nothing — the comparison is vacuous"
    );
    let (lat, _, wall, cache) = best_off.expect("at least one pass");
    let off_row = scenario_row("obs_off", &traffic, lat, wall, cache);
    let (lat, _, wall, cache) = best_on.expect("at least one pass");
    let on_row = scenario_row("obs_on", &traffic, lat, wall, cache);
    ObsOverheadOutcome {
        rows: vec![off_row, on_row],
        obs_ratio,
        trace_events,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_scenario_packs_and_matches_its_oracle() {
        // The bit-identity asserts inside run_packed_traffic are the
        // differential test; here we pin the comparison's shape.
        let outcome = run_packed_traffic(3, 12, 1, 1);
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[0].scenario, "interleaved");
        assert_eq!(outcome.rows[1].scenario, "packed");
        assert!(outcome.packer.packs_formed > 0);
        assert!(outcome.packer.jobs_packed >= 2);
        assert!(outcome.pack_ratio.is_finite() && outcome.pack_ratio > 0.0);
        // Same stream, equal work on both sides.
        assert_eq!(outcome.rows[0].total_shots, outcome.rows[1].total_shots);
    }

    #[test]
    fn packed_trace_covers_every_lifecycle() {
        let recorder = Recorder::new();
        let outcome = run_packed_traffic_observed(3, 12, 1, 1, &recorder);
        assert!(outcome.packer.packs_formed > 0);
        // Both servers ran a warm-up plus one measured pass: 12 jobs
        // each per pass, every one with a complete traced lifecycle.
        let audit = quape_obs::audit_complete(&recorder.events(), 48).unwrap_or_else(|e| {
            panic!(
                "packed trace failed its audit: {e}\n{}",
                quape_obs::flight_recorder(&recorder)
            )
        });
        assert!(audit.quanta > 0);
        // Scope 1 is the packed server; its trace must show packs.
        assert!(recorder
            .events()
            .iter()
            .any(|ev| ev.shard == 1 && ev.kind == quape_obs::TraceKind::Packed));
    }

    #[test]
    fn obs_overhead_is_bit_identical_and_measured() {
        // The off-vs-on bit-identity asserts run inside; pin the shape.
        let o = run_obs_overhead(5, 8, 1, 1);
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.rows[0].scenario, "obs_off");
        assert_eq!(o.rows[1].scenario, "obs_on");
        assert!(o.obs_ratio.is_finite() && o.obs_ratio > 0.0);
        assert!(o.trace_events > 0);
        // The observed server served 2 passes of 8 jobs, all complete.
        quape_obs::audit_complete(&o.recorder.events(), 16).unwrap();
    }
}
