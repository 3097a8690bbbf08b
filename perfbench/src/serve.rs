//! `serve_mixed` and `serve_catalog`: the serving path as a tenant sees
//! it, `FrontDoor` → `Router` → `JobServer`.
//!
//! Both run on the same fleet shape — two shards behind an admission
//! front door, sticky-by-digest placement, no more worker threads than
//! host CPUs — as a closed loop from one generator thread with a few
//! requests outstanding. `serve_mixed` sends the warm mixed-traffic
//! pool, one request in flight per tenant; `serve_catalog` sends a
//! catalog several times larger than the fleet's compile caches. A run
//! is served in segments, each by a freshly set-up fleet, so no single
//! fleet's thread placement decides the figures.
//!
//! Every served aggregate is compared, after the timed window, with a
//! solo `ShotEngine` run of the same program, shots and base seed.

use crate::clock::{HostClock, HostSpeed, REF_KERNEL_NS};
use crate::layers::{self, ProbeJob};
use crate::report::{Metrics, Outcome};
use crate::stats::{derive, mean, median, percentile, slo_attainment, sorted, BlockTail, BLOCK};
use crate::trace::{self, ClientJob, Stages, GAP_TOLERANCE};
use quape_core::{BatchAggregate, CompiledJob, QpuFactory, QuapeConfig, ShotEngine};
use quape_obs::Recorder;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::{AdmissionConfig, AdmittedJob, FrontDoor, Placement, RouterConfig};
use quape_server::{
    CacheStats, JobError, JobRequest, JobResult, JobSource, Priority, ServerConfig,
};
use quape_workloads::traffic::{self, TrafficRequest};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Shards in the fleet.
const SHARDS: usize = 2;
/// Compile-cache entries per shard.
const CACHE_CAPACITY: usize = 8;
/// Requests drawn per call of the stream generators; the stream is the
/// concatenation of such chunks, each from its own derived seed.
const CHUNK: usize = 64;
/// Segments of a run, each served by a freshly set-up fleet; the
/// median set-up time is reported.
const SEGMENTS: usize = 5;
/// Tenants in the traffic generators' streams.
const TENANTS: usize = 4;
/// Trace ring capacity per scope: room for every event of a traced
/// half-window.
const TRACE_RING: usize = 1 << 18;
/// Shots per distinct program in the fixed simulation sample.
const SAMPLE_SHOTS: u64 = 2;
/// Share of the sends at the start and at the end over which the
/// outstanding-request count is averaged.
const DEPTH_EDGE: f64 = 0.1;

/// One request of the stream, its program given by pool index.
struct Req {
    pool: usize,
    shots: u64,
    priority: Priority,
    tenant: String,
}

/// A serving workload: its programs, its request stream and its loop.
pub struct Spec {
    seed: u64,
    sources: Vec<String>,
    stream: Vec<Req>,
    /// Distinct base seeds the stream cycles through.
    seed_slots: u64,
    /// Pool indices served once, one at a time, during set-up.
    prime: Vec<usize>,
    /// Requests kept outstanding by the closed loop.
    outstanding: usize,
    /// Requests sent per second of the window at most. The fixed total
    /// keeps the fleet's per-request memory from growing with its speed.
    per_second: f64,
    slo_ms: f64,
}

/// `serve_mixed`: the mixed-traffic pool, caches primed in set-up, one
/// request outstanding per tenant.
pub fn mixed(seed: u64, per_second: f64, slo_ms: f64) -> Spec {
    let sources: Vec<String> = traffic::program_pool()
        .into_iter()
        .map(|(_, p)| p.to_string())
        .collect();
    Spec {
        seed,
        prime: (0..sources.len()).collect(),
        stream: stream(seed, 8192, traffic::mixed_traffic),
        sources,
        seed_slots: 64,
        outstanding: TENANTS,
        per_second,
        slo_ms,
    }
}

/// `serve_catalog`: a chain catalog of `distinct` programs; set-up
/// serves one fleet-cache's worth of it.
pub fn catalog(
    seed: u64,
    distinct: usize,
    outstanding: usize,
    per_second: f64,
    slo_ms: f64,
) -> Spec {
    let sources: Vec<String> = traffic::sized_program_pool(distinct)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    Spec {
        seed,
        stream: stream(seed, 2048, |s, n| traffic::sharded_traffic(s, n, distinct)),
        sources,
        seed_slots: 4,
        prime: (0..SHARDS * CACHE_CAPACITY).collect(),
        outstanding,
        per_second,
        slo_ms,
    }
}

/// `len` requests from `generate`, drawn in chunks so that no more than
/// one chunk of source texts is held at a time.
fn stream(seed: u64, len: usize, generate: impl Fn(u64, usize) -> Vec<TrafficRequest>) -> Vec<Req> {
    (0..len.div_ceil(CHUNK))
        .flat_map(|c| generate(derive(seed, 100 + c as u64), CHUNK))
        .take(len)
        .map(|r| Req {
            pool: r.pool_index,
            shots: r.shots,
            priority: match r.priority_class {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            tenant: r.tenant,
        })
        .collect()
}

/// The fleet's machine.
fn machine() -> QuapeConfig {
    QuapeConfig::uniprocessor()
}

fn factory(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

impl Spec {
    /// Stream entry, base seed and oracle key of request `i`.
    fn entry(&self, i: usize) -> (&Req, u64, (usize, u64, u64)) {
        let e = i % self.stream.len();
        let r = &self.stream[e];
        let slot = e as u64 % self.seed_slots;
        (r, derive(self.seed, 1000 + slot), (r.pool, r.shots, slot))
    }

    fn request(&self, i: usize) -> JobRequest {
        let (r, base_seed, _) = self.entry(i);
        let cfg = machine();
        JobRequest::new(
            format!("req{i}"),
            JobSource::Text(self.sources[r.pool].clone()),
            cfg.clone(),
            factory(&cfg),
            r.shots,
        )
        .base_seed(base_seed)
        .priority(r.priority)
        .tenant(r.tenant.clone())
    }

    fn prime_request(&self, pool: usize) -> JobRequest {
        let cfg = machine();
        JobRequest::new(
            format!("prime{pool}"),
            JobSource::Text(self.sources[pool].clone()),
            cfg.clone(),
            factory(&cfg),
            1,
        )
        .tenant("prime")
    }
}

/// A fleet and how many requests it admitted so far.
struct Fleet {
    door: FrontDoor,
    admitted: usize,
}

fn set_up(spec: &Spec, threads_per_shard: usize, recorder: Recorder) -> Fleet {
    let door = FrontDoor::new(
        RouterConfig {
            shards: SHARDS,
            placement: Placement::StickyByDigest,
            shard: ServerConfig {
                threads: threads_per_shard,
                cache_capacity: CACHE_CAPACITY,
                ..ServerConfig::default()
            },
            obs: recorder,
            ..RouterConfig::default()
        },
        AdmissionConfig::default(),
    );
    for &pool in &spec.prime {
        door.submit(spec.prime_request(pool))
            .and_then(|job| job.wait())
            .expect("priming request is served");
    }
    let admitted = spec.prime.len();
    Fleet { door, admitted }
}

/// A request handed to a waiter.
struct Sent {
    index: usize,
    due: Instant,
    send: Instant,
    returned: Instant,
    admitted_index: usize,
}

/// A request's outcome.
struct Done {
    sent: Sent,
    seen: Instant,
    fleet_id: Option<u64>,
    result: Result<JobResult, JobError>,
}

/// What one timed window produced.
struct Window {
    epoch: Instant,
    done: Vec<Done>,
    /// Submissions refused by the front door.
    refused: u64,
    /// Requests in flight at each send, in send order.
    depth: Vec<f64>,
}

impl Window {
    fn attempted(&self) -> u64 {
        self.done.len() as u64 + self.refused
    }

    fn completed(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| ok(&d.result))
    }

    /// (due time in seconds since the window began, due-to-result
    /// latency in ms) of the completed requests, at the reference host
    /// speed (`None`: unscaled).
    fn latencies_ms(&self, speed: Option<&HostSpeed>) -> Vec<(f64, f64)> {
        self.completed()
            .map(|d| {
                let latency = match speed {
                    Some(s) => s.scaled(d.sent.due, d.seen),
                    None => (d.seen - d.sent.due).as_secs_f64(),
                };
                ((d.sent.due - self.epoch).as_secs_f64(), latency * 1e3)
            })
            .collect()
    }

    /// The window's end: its last result.
    fn end(&self) -> Instant {
        self.done
            .iter()
            .map(|d| d.seen)
            .fold(self.epoch, Instant::max)
    }
}

/// Mean requests in flight when a request was sent, over the first and
/// over the last tenth of the sends.
fn depth_edges(depth: &[f64]) -> (f64, f64) {
    let edge = ((depth.len() as f64 * DEPTH_EDGE).ceil() as usize).clamp(1, depth.len().max(1));
    (
        mean(&depth[..edge.min(depth.len())]),
        mean(&depth[depth.len().saturating_sub(edge)..]),
    )
}

fn ok(result: &Result<JobResult, JobError>) -> bool {
    matches!(result, Ok(r) if !r.cancelled && r.shots == r.shots_requested)
}

/// Blocks on `job` like a tenant would and reports what it saw.
fn wait(sent: Sent, job: AdmittedJob) -> Done {
    let result = job.wait();
    let seen = Instant::now();
    Done {
        sent,
        seen,
        fleet_id: job.handle().ok().map(|h| h.id()),
        result,
    }
}

/// Runs the closed loop against `fleet` for at most `seconds`: one
/// waiter thread per outstanding request blocks on its job as a tenant
/// would, and each result seen lets the generator send the next request,
/// until `spec.per_second × seconds` requests were sent, starting with
/// stream request `first`.
fn window(spec: &Spec, fleet: &mut Fleet, seconds: f64, first: usize) -> Window {
    let last = first + (spec.per_second * seconds) as usize;
    let (job_tx, job_rx) = mpsc::channel::<(Sent, AdmittedJob)>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let mut done = Vec::new();
    let mut refused = 0;
    let mut depth = Vec::new();
    let epoch = Instant::now();
    let end = epoch + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..spec.outstanding {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            s.spawn(move || loop {
                let next = job_rx.lock().expect("job queue lock").recv();
                let Ok((sent, job)) = next else { break };
                done_tx
                    .send(wait(sent, job))
                    .expect("generator outlives the waiters");
            });
        }
        drop(done_tx);
        let mut in_flight = 0usize;
        let mut index = first;
        // A slot frees when its result is seen; the next request is due
        // then.
        let mut send = |due: Instant, in_flight: &mut usize, index: &mut usize| {
            let req = spec.request(*index);
            let send = Instant::now();
            depth.push(*in_flight as f64);
            match fleet.door.submit(req) {
                Ok(job) => {
                    let sent = Sent {
                        index: *index,
                        due,
                        send,
                        returned: Instant::now(),
                        admitted_index: fleet.admitted,
                    };
                    fleet.admitted += 1;
                    *in_flight += 1;
                    job_tx
                        .send((sent, job))
                        .expect("waiters outlive the generator");
                }
                Err(_) => refused += 1,
            }
            *index += 1;
        };
        for _ in 0..spec.outstanding {
            send(epoch, &mut in_flight, &mut index);
        }
        while in_flight > 0 {
            let d = done_rx.recv().expect("a request is in flight");
            in_flight -= 1;
            let seen = d.seen;
            done.push(d);
            if seen < end && index < last {
                send(seen, &mut in_flight, &mut index);
            }
        }
        // Hang up so the waiters' receive loops end.
        drop(job_tx);
    });
    Window {
        epoch,
        done,
        refused,
        depth,
    }
}

/// Solo `ShotEngine` results, computed once per (program, shots, base
/// seed) outside any timed window.
struct Oracle<'a> {
    spec: &'a Spec,
    jobs: Vec<CompiledJob>,
    memo: HashMap<(usize, u64, u64), BatchAggregate>,
}

impl<'a> Oracle<'a> {
    fn new(spec: &'a Spec) -> Self {
        let jobs = spec
            .sources
            .iter()
            .map(|text| {
                let program = quape_isa::assemble(text).expect("workload source assembles");
                CompiledJob::compile(machine(), program).expect("workload program compiles")
            })
            .collect();
        Oracle {
            spec,
            jobs,
            memo: HashMap::new(),
        }
    }

    /// Requests of `w` whose aggregate differs from the oracle's.
    fn mismatches(&mut self, w: &Window) -> u64 {
        let mut bad = 0;
        for d in &w.done {
            let Ok(result) = &d.result else { continue };
            if result.cancelled {
                continue;
            }
            let (_, base_seed, key) = self.spec.entry(d.sent.index);
            let job = &self.jobs[key.0];
            let expect = self.memo.entry(key).or_insert_with(|| {
                ShotEngine::new(job.clone(), factory(job.cfg()))
                    .base_seed(base_seed)
                    .threads(1)
                    .run(key.1)
                    .aggregate
            });
            if &result.aggregate != expect {
                bad += 1;
            }
        }
        bad
    }
}

/// Fleet-wide cache counters.
fn cache_totals(door: &FrontDoor) -> CacheStats {
    let mut total = CacheStats::default();
    for s in door.router().cache_stats() {
        total.merge(&s);
    }
    total
}

/// The fixed simulation sample: every distinct program, a few shots.
fn sample(spec: &Spec, cfg: &QuapeConfig) -> Vec<ProbeJob> {
    let factory: Arc<dyn QpuFactory> = Arc::new(factory(cfg));
    spec.sources
        .iter()
        .map(|text| ProbeJob {
            job: CompiledJob::compile(
                cfg.clone(),
                quape_isa::assemble(text).expect("workload source assembles"),
            )
            .expect("workload program compiles"),
            factory: Arc::clone(&factory),
            base_seed: derive(spec.seed, 77),
            shots: SAMPLE_SHOTS,
        })
        .collect()
}

/// Mean simulated ns per shot of `sample`.
fn sim_ns_per_shot(sample: &[ProbeJob]) -> f64 {
    let (mut ns, mut shots) = (0u64, 0u64);
    for p in sample {
        let agg = ShotEngine::new(p.job.clone(), Arc::clone(&p.factory))
            .base_seed(p.base_seed)
            .threads(1)
            .run(p.shots)
            .aggregate;
        ns += agg.simulated_ns_total;
        shots += agg.shots;
    }
    ns as f64 / shots.max(1) as f64
}

/// Runs a serving workload for `seconds` (split between an untraced and
/// a traced half when `trace` is set).
pub fn run(spec: &Spec, seconds: f64, trace: bool, threads_per_shard: usize) -> Outcome {
    let clock = HostClock::start();
    let mut out = Outcome::default();
    let mut oracle = Oracle::new(spec);
    let mut metrics = Metrics::default();

    let segments = if trace {
        let plain = segment(spec, threads_per_shard, seconds / 2.0, 0, Recorder::off());
        let origin = Instant::now();
        let recorder = Recorder::with_capacity(TRACE_RING);
        let traced = segment(
            spec,
            threads_per_shard,
            seconds / 2.0,
            plain.window.attempted() as usize,
            recorder.clone(),
        );
        let speed = clock.finish();
        out.correct = record_layers(
            &mut metrics,
            &mut out.notes,
            (&plain.window, &traced),
            (&recorder, origin, &speed),
        );
        out.correct &= layers::record(
            &mut metrics,
            &mut out.notes,
            &spec.sources,
            &machine(),
            &sample(spec, &machine()),
        );
        vec![plain, traced]
    } else {
        let length = seconds / SEGMENTS as f64;
        let mut segments: Vec<Segment> = Vec::with_capacity(SEGMENTS);
        for _ in 0..SEGMENTS {
            let first = segments
                .last()
                .map_or(0, |s| s.first + s.window.attempted() as usize);
            segments.push(segment(
                spec,
                threads_per_shard,
                length,
                first,
                Recorder::off(),
            ));
        }
        let speed = clock.finish();
        // One timeline: segment k's requests follow segment k - 1's.
        let samples: Vec<(f64, f64)> = segments
            .iter()
            .enumerate()
            .flat_map(|(k, s)| {
                let offset = k as f64 * length;
                s.window
                    .latencies_ms(Some(&speed))
                    .into_iter()
                    .map(move |(t, l)| (offset + t, l))
            })
            .collect();
        let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let completed = latencies.len() as u64;
        let attempted: u64 = segments.iter().map(|s| s.window.attempted()).sum();
        let tail = BlockTail::of(&samples, BLOCK);
        let span: f64 = segments
            .iter()
            .map(|s| speed.scaled(s.window.epoch, s.window.end()))
            .sum();
        let shots: u64 = segments
            .iter()
            .flat_map(|s| s.window.completed())
            .map(|d| d.result.as_ref().map_or(0, |r| r.shots))
            .sum();
        let one = sim_ns_per_shot(&sample(spec, &QuapeConfig::multiprocessor(1)));
        let six = sim_ns_per_shot(&sample(spec, &QuapeConfig::multiprocessor(6)));
        let setup: Vec<f64> = segments
            .iter()
            .map(|s| speed.scaled(s.setup.0, s.setup.1))
            .collect();
        metrics.set("setup_s", median(&setup));
        metrics.set("jobs_per_s", completed as f64 / span);
        metrics.set("latency_p50_ms", tail.p50);
        metrics.set("latency_p99_ms", tail.p99);
        metrics.set(
            "slo_attainment",
            slo_attainment(&latencies, attempted, spec.slo_ms),
        );
        metrics.set("sim_shots_per_s", shots as f64 / span);
        metrics.set(
            "sim_exec_us",
            sim_ns_per_shot(&sample(spec, &machine())) / 1e3,
        );
        metrics.set("clp_speedup", one / six);
        out.correct = true;
        out.notes.push(format!(
            "latency: {completed} completed of {attempted} sent over {SEGMENTS} fleets; \
             percentiles are medians over {} blocks of {BLOCK} requests (smallest: {} \
             requests, {} beyond p99); set-up median of {SEGMENTS}",
            tail.blocks, tail.min_count, tail.min_beyond_p99
        ));
        let raw: Vec<(f64, f64)> = segments
            .iter()
            .enumerate()
            .flat_map(|(k, s)| {
                let offset = k as f64 * length;
                s.window
                    .latencies_ms(None)
                    .into_iter()
                    .map(move |(t, l)| (offset + t, l))
            })
            .collect();
        let raw = BlockTail::of(&raw, BLOCK);
        let wall: f64 = segments
            .iter()
            .map(|s| (s.window.end() - s.window.epoch).as_secs_f64())
            .sum();
        out.notes.push(format!(
            "unscaled: latency p50 {:.3} ms, p99 {:.3} ms, {:.1} jobs/s; host kernel median {:.0} ns \
             over {} samples (reference {REF_KERNEL_NS:.0} ns), {:.1}% of CPU time stolen",
            raw.p50,
            raw.p99,
            completed as f64 / wall,
            speed.median_kernel_ns(),
            speed.samples(),
            speed.stolen_share() * 100.0
        ));
        out.notes.push(format!(
            "simulated sample: {} programs x {SAMPLE_SHOTS} shots; clp_speedup compares \
             multiprocessor(1) with multiprocessor(6) on it",
            spec.sources.len()
        ));
        out.params.push(("latency_samples", completed.to_string()));
        segments
    };

    let mut mismatches = 0;
    for s in &segments {
        mismatches += oracle.mismatches(&s.window);
        out.attempted += s.window.attempted();
        out.failed += s.window.attempted() - s.window.completed().count() as u64;
    }
    let depth: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.window.depth.iter().copied())
        .collect();
    let (depth_start, depth_end) = depth_edges(&depth);
    out.notes.push(format!(
        "generator: {} sent, {depth_start:.2} in flight at the first sends, {depth_end:.2} at the last",
        out.attempted,
    ));
    if mismatches > 0 {
        out.notes.push(format!(
            "MISMATCH: {mismatches} served aggregates differ from the solo oracle"
        ));
    }
    out.correct &= mismatches == 0;
    out.metrics = metrics;
    out.params.extend([
        (
            "loop",
            format!(
                "closed, {} outstanding, at most {} requests",
                spec.outstanding,
                (spec.per_second * seconds) as usize
            ),
        ),
        ("programs", spec.sources.len().to_string()),
        ("stream", format!("{} requests, {} base seeds", spec.stream.len(), spec.seed_slots)),
        (
            "fleet",
            format!(
                "{SHARDS} shards x {threads_per_shard} workers, sticky, cache {CACHE_CAPACITY} per shard, \
                 a fresh fleet per segment"
            ),
        ),
        ("slo_ms", spec.slo_ms.to_string()),
        ("oracle_runs", oracle.memo.len().to_string()),
    ]);
    out
}

/// One measured stretch on its own freshly set-up fleet.
struct Segment {
    /// When set-up began and ended.
    setup: (Instant, Instant),
    /// Index of the segment's first request in the stream.
    first: usize,
    window: Window,
    /// Requests shed by the front door during the window.
    shed: u64,
    /// Fleet cache counters over the window.
    cache: CacheStats,
}

/// Sets up a fleet recording into `recorder`, serves `seconds` of the
/// closed loop from request `first` on, and drains the fleet.
fn segment(
    spec: &Spec,
    threads_per_shard: usize,
    seconds: f64,
    first: usize,
    recorder: Recorder,
) -> Segment {
    let t = Instant::now();
    let mut fleet = set_up(spec, threads_per_shard, recorder);
    let setup = (t, Instant::now());
    let (shed, cache) = (fleet.door.shed_count(), cache_totals(&fleet.door));
    let window = window(spec, &mut fleet, seconds, first);
    let shed = fleet.door.shed_count() - shed;
    let cache = delta(cache_totals(&fleet.door), cache);
    fleet.door.drain().expect("fleet drains");
    Segment {
        setup,
        first,
        window,
        shed,
        cache,
    }
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        compiles: after.compiles - before.compiles,
    }
}

/// Records the generator, admission, router, server, cache and obs
/// per-layer metrics of the traced half. Returns false when the trace
/// could not account for every served job.
fn record_layers(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    (plain, traced_segment): (&Window, &Segment),
    (recorder, origin, speed): (&Recorder, Instant, &HostSpeed),
) -> bool {
    let (traced, shed, cache) = (
        &traced_segment.window,
        traced_segment.shed,
        &traced_segment.cache,
    );
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let completed: Vec<&Done> = traced.completed().collect();
    let jobs: Vec<ClientJob> = completed
        .iter()
        .map(|d| ClientJob {
            due_us: us(d.sent.due),
            send_us: us(d.sent.send),
            done_us: us(d.seen),
            fleet_id: d.fleet_id.expect("a completed job has a fleet handle"),
            admitted_index: d.sent.admitted_index,
            compile_us: d
                .result
                .as_ref()
                .map_or(0.0, |r| r.compile_wall.as_secs_f64() * 1e6),
        })
        .collect();
    let stages = match trace::stages(&recorder.events(), &jobs) {
        Ok(s) => s,
        Err(e) => {
            notes.push(format!("TRACE: {e}"));
            return false;
        }
    };
    let lat_ms = |w: &Window| BlockTail::of(&w.latencies_ms(Some(speed)), BLOCK).p50;
    let col = |f: fn(&Stages) -> f64| sorted(&stages.iter().map(f).collect::<Vec<_>>());
    let lag = sorted(
        &traced
            .done
            .iter()
            .map(|d| (d.sent.send - d.sent.due).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let (depth_start, depth_end) = depth_edges(&traced.depth);
    metrics.set("gen.lag_p99_ms", percentile(&lag, 99.0));
    metrics.set("gen.sent", traced.attempted() as f64);
    metrics.set("gen.depth_start", depth_start);
    metrics.set("gen.depth_end", depth_end);
    let submit_us = sorted(
        &completed
            .iter()
            .map(|d| (d.sent.returned - d.sent.send).as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    metrics.set("front.submit_us_p50", percentile(&submit_us, 50.0));
    metrics.set(
        "front.wait_ms_p99",
        percentile(&col(|s| s.front_wait), 99.0) / 1e3,
    );
    metrics.set("front.shed", shed as f64);
    metrics.set(
        "router.place_us_p50",
        percentile(&col(|s| s.placement), 50.0),
    );
    metrics.set(
        "router.warm_place_ratio",
        cache.hits as f64 / (cache.hits + cache.compiles).max(1) as f64,
    );
    let queue = col(|s| s.queue_wait);
    metrics.set("server.queue_wait_ms_p50", percentile(&queue, 50.0) / 1e3);
    metrics.set("server.queue_wait_ms_p99", percentile(&queue, 99.0) / 1e3);
    metrics.set(
        "server.quanta_per_job",
        mean(&stages.iter().map(|s| s.quanta as f64).collect::<Vec<_>>()),
    );
    let quanta = sorted(
        &stages
            .iter()
            .flat_map(|s| s.quantum_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    metrics.set("server.quantum_us_p50", percentile(&quanta, 50.0));
    metrics.set("server.quantum_us_p99", percentile(&quanta, 99.0));
    metrics.set(
        "server.finalize_us_p50",
        percentile(&col(|s| s.finalize), 50.0),
    );
    metrics.set(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    metrics.set("cache.evictions", cache.evictions as f64);
    let compiles = sorted(
        &stages
            .iter()
            .filter_map(|s| s.compiled_us)
            .collect::<Vec<_>>(),
    );
    metrics.set("cache.compile_ms_p50", percentile(&compiles, 50.0) / 1e3);
    metrics.set("cache.compile_ms_p99", percentile(&compiles, 99.0) / 1e3);
    metrics.set("trace.overhead", lat_ms(traced) / lat_ms(plain));
    metrics.set("trace.dropped_events", recorder.dropped_events() as f64);
    let gap = trace::gap_frac(&stages);
    metrics.set("breakdown.gap_frac", gap);

    let e2e: f64 = stages.iter().map(|s| s.e2e).sum();
    let share = |f: fn(&Stages) -> f64| {
        let v: Vec<f64> = stages.iter().map(f).collect();
        format!(
            "p50 {:>9.1} us  share {:>5.1}%",
            median(&v),
            100.0 * v.iter().sum::<f64>() / e2e.max(1.0)
        )
    };
    notes.push(format!("breakdown over {} traced jobs:", stages.len()));
    for (name, f) in [
        (
            "generator lag",
            (|s: &Stages| s.gen_lag) as fn(&Stages) -> f64,
        ),
        ("front wait", |s| s.front_wait),
        ("placement", |s| s.placement),
        ("compile or hit", |s| s.compile),
        ("server queue wait", |s| s.queue_wait),
        ("quanta", |s| s.execute),
        ("finalize", |s| s.finalize),
        ("unattributed", Stages::gap),
        ("end to end", |s| s.e2e),
    ] {
        notes.push(format!("  {name:<18} {}", share(f)));
    }
    notes.push(format!(
        "breakdown gap {:.2}% of latency (tolerance {:.0}%): {}",
        gap * 100.0,
        GAP_TOLERANCE * 100.0,
        if gap <= GAP_TOLERANCE {
            "reconciles"
        } else {
            "DOES NOT reconcile"
        }
    ));
    true
}
