//! Serving-path gates: claim batching versus one claim per job, and
//! the cost of lifecycle telemetry, each on one deterministic stream.
//!
//! Usage: `mixed_traffic [--requests N] [--seed S] [--threads T]
//! [--repeats K] [--json] [--json-out <path>] [--min-pack-ratio <x>]
//! [--check-schema <path>] [--trace-out <path>] [--metrics-out <path>]
//! [--min-obs-ratio <x>] [--check-trace-schema <path>]
//! [--trace-schema-out <path>]`.
//!
//! The default run is the §3.1.2 multiprogramming comparison: one
//! small-job-heavy stream served by two warm servers in alternating
//! passes — one claim per job versus claim batching — with every packed
//! aggregate asserted bit-identical to its interleaved oracle and both
//! servers' compile-cache counters asserted equal. `--min-pack-ratio`
//! exits nonzero when the median per-pair ratio of packed over
//! interleaved jobs/sec falls below the given floor. `--json-out
//! BENCH_pack.json` refreshes the committed rows.
//!
//! `--min-obs-ratio <x>` runs the obs-overhead comparison instead (the
//! mixed stream served obs-off and obs-on, aggregates asserted
//! bit-identical per pair) and exits nonzero when the median obs-on /
//! obs-off jobs/sec ratio falls below `x`.
//!
//! `--check-schema <path>` verifies a committed baseline's JSON schema
//! fingerprint against this binary's current row type and exits (0
//! match / 1 drift) without running anything.
//!
//! `--trace-out <path>` records every job's lifecycle, audits the trace
//! — first event accepted, exactly one terminal, no quantum outside the
//! span — and writes Chrome trace-event JSON loadable in Perfetto
//! (`ui.perfetto.dev`); `--metrics-out <path>` writes the recorder's
//! per-scope counter and latency-histogram snapshot as JSON.
//! `--check-trace-schema <path>` verifies the committed trace
//! baseline's fingerprint (refresh it with `--trace-schema-out`).
//!
//! Wall-time figures here back the two ratio gates only; end-to-end
//! serving throughput and latency are the repository benchmark's
//! (`perfbench/`) to measure.

use quape_bench::mixed::{run_obs_overhead, run_packed_traffic_observed, ScenarioResult};
use quape_bench::table::{check_schema, to_json, write_json, TextTable};
use quape_obs::{audit_complete, chrome_trace, Recorder, TraceKind};

struct Args {
    requests: usize,
    seed: u64,
    threads: usize,
    repeats: usize,
    json: bool,
    json_out: Option<String>,
    min_pack_ratio: Option<f64>,
    check_schema: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    min_obs_ratio: Option<f64>,
    check_trace_schema: Option<String>,
    trace_schema_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 48,
        seed: 7,
        threads: 0,
        repeats: 3,
        json: false,
        json_out: None,
        min_pack_ratio: None,
        check_schema: None,
        trace_out: None,
        metrics_out: None,
        min_obs_ratio: None,
        check_trace_schema: None,
        trace_schema_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--requests" => args.requests = num("--requests") as usize,
            "--seed" => args.seed = num("--seed") as u64,
            "--threads" => args.threads = num("--threads") as usize,
            "--repeats" => args.repeats = num("--repeats") as usize,
            "--min-pack-ratio" => args.min_pack_ratio = Some(num("--min-pack-ratio")),
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(it.next().expect("--json-out needs a path"));
            }
            "--check-schema" => {
                args.check_schema = Some(it.next().expect("--check-schema needs a path"));
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out needs a path"));
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            "--min-obs-ratio" => args.min_obs_ratio = Some(num("--min-obs-ratio")),
            "--check-trace-schema" => {
                args.check_trace_schema =
                    Some(it.next().expect("--check-trace-schema needs a path"));
            }
            "--trace-schema-out" => {
                args.trace_schema_out = Some(it.next().expect("--trace-schema-out needs a path"));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

/// A value-free sample row: its rendered JSON carries this binary's
/// current schema, the committed baseline must fingerprint identically.
fn sample_rows() -> Vec<ScenarioResult> {
    vec![ScenarioResult {
        scenario: String::new(),
        requests: 0,
        total_shots: 0,
        wall_ms: 0.0,
        jobs_per_sec: 0.0,
        p50_latency_us: 0,
        p95_latency_us: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        compiles: 0,
    }]
}

/// A synthetic trace covering every [`TraceKind`] once: its rendered
/// Chrome JSON carries every event shape and argument key this binary
/// can emit, so the committed `BENCH_trace.json` baseline must
/// fingerprint identically. Values are placeholders — the fingerprint
/// compares key paths only.
fn sample_trace_json() -> String {
    let rec = Recorder::new();
    let fleet = rec.fleet_scope();
    let shard = rec.scope(0);
    let kinds = [
        TraceKind::Accepted,
        TraceKind::Admitted,
        TraceKind::Shed,
        TraceKind::Dispatched,
        TraceKind::DrrRound,
        TraceKind::Placed,
        TraceKind::Compiled,
        TraceKind::CacheHit,
        TraceKind::Packed,
        TraceKind::Quantum,
        TraceKind::Finalized,
        TraceKind::Cancelled,
        TraceKind::ReRouted,
        TraceKind::Stolen,
        TraceKind::ShardDown,
        TraceKind::ShardRetiring,
    ];
    for kind in kinds {
        shard.event(kind, 0, 1, 0, 0);
        fleet.event_tenant(kind, 0, 1, 0, 0, "tenant");
    }
    shard.span(TraceKind::Quantum, 1, 1, 0, 8, std::time::Instant::now());
    chrome_trace(&rec)
}

/// Audits the recorded lifecycles and writes the requested trace /
/// metrics artifacts. Exits nonzero when the trace is malformed — the
/// export paths double as the trace-correctness gate at bench scale.
fn export_obs(recorder: &Recorder, args: &Args, min_jobs: usize) {
    let events = recorder.events();
    if events.is_empty() {
        return;
    }
    match audit_complete(&events, min_jobs) {
        Ok(a) => eprintln!(
            "trace audit OK: {} lifecycles, {} quanta, {} events ({} dropped)",
            a.jobs,
            a.quanta,
            events.len(),
            recorder.dropped_events()
        ),
        Err(e) => {
            eprintln!("FAIL: trace audit: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &args.trace_out {
        let json = chrome_trace(recorder);
        // Every real export must stay within the shapes the committed
        // baseline fingerprints (values differ, key paths must not).
        let want = quape_bench::table::schema_fingerprint(&sample_trace_json())
            .expect("sample trace renders valid JSON");
        let have = quape_bench::table::schema_fingerprint(&json)
            .unwrap_or_else(|e| panic!("exported trace is malformed JSON: {e}"));
        let rogue: Vec<_> = have.iter().filter(|p| !want.contains(p)).collect();
        if !rogue.is_empty() {
            eprintln!("FAIL: exported trace has unbaselined key paths: {rogue:?}");
            std::process::exit(1);
        }
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("chrome trace written: {path}");
    }
    if let Some(path) = &args.metrics_out {
        write_json(path, &recorder.metrics());
        eprintln!("metrics snapshot written: {path}");
    }
}

fn render_rows(rows: &[ScenarioResult]) -> String {
    let mut t = TextTable::new([
        "scenario",
        "jobs/s",
        "p50 latency",
        "p95 latency",
        "hits",
        "misses",
        "evict",
        "compiles",
    ]);
    for r in rows {
        t.row([
            r.scenario.clone(),
            format!("{:.1}", r.jobs_per_sec),
            format!("{:.1} ms", r.p50_latency_us as f64 / 1000.0),
            format!("{:.1} ms", r.p95_latency_us as f64 / 1000.0),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.cache_evictions.to_string(),
            r.compiles.to_string(),
        ]);
    }
    t.render()
}

fn run_packed(args: &Args, recorder: &Recorder) {
    let outcome = run_packed_traffic_observed(
        args.seed,
        args.requests,
        args.threads,
        args.repeats,
        recorder,
    );
    // Both servers trace a warm-up pass plus every measured pass.
    export_obs(recorder, args, 2 * args.requests);
    if let Some(path) = &args.json_out {
        write_json(path, &outcome.rows);
    }
    if args.json {
        println!("{}", to_json(&outcome.rows));
    } else {
        println!(
            "Claim batching: {} small jobs, seed {} (packed aggregates verified \
             bit-identical to interleaved):",
            args.requests, args.seed
        );
        println!("{}", render_rows(&outcome.rows));
        let p = &outcome.packer;
        println!(
            "packs formed: {} ({} jobs, {} shots packed)",
            p.packs_formed, p.jobs_packed, p.packed_shots
        );
    }
    eprintln!(
        "packed over interleaved: {:.2}x jobs/sec",
        outcome.pack_ratio
    );
    if let Some(min) = args.min_pack_ratio {
        if outcome.pack_ratio.is_nan() || outcome.pack_ratio < min {
            eprintln!(
                "FAIL: pack ratio {:.3} < required {min:.3}",
                outcome.pack_ratio
            );
            std::process::exit(1);
        }
    }
}

/// The obs-overhead gate: serve the stream obs-off and obs-on
/// (bit-identity asserted inside) and require the throughput ratio to
/// stay above the floor.
fn run_obs_gate(args: &Args, min_ratio: f64) {
    let o = run_obs_overhead(args.seed, args.requests, args.threads, args.repeats);
    export_obs(&o.recorder, args, args.requests);
    if args.json {
        println!("{}", to_json(&o.rows));
    } else {
        println!(
            "Observability overhead: {} requests, seed {} (obs-on aggregates verified \
             bit-identical to obs-off):",
            args.requests, args.seed
        );
        println!("{}", render_rows(&o.rows));
    }
    eprintln!(
        "obs-on over obs-off: {:.3}x jobs/sec ({} trace events recorded)",
        o.obs_ratio, o.trace_events
    );
    if o.obs_ratio.is_nan() || o.obs_ratio < min_ratio {
        eprintln!(
            "FAIL: obs-on throughput ratio {:.3} < required {min_ratio:.3}",
            o.obs_ratio
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check_schema {
        match check_schema(path, &to_json(&sample_rows())) {
            Ok(()) => {
                eprintln!("schema OK: {path}");
                return;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.trace_schema_out {
        std::fs::write(path, sample_trace_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("trace schema baseline written: {path}");
        return;
    }
    if let Some(path) = &args.check_trace_schema {
        match check_schema(path, &sample_trace_json()) {
            Ok(()) => {
                eprintln!("trace schema OK: {path}");
                return;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = args.min_obs_ratio {
        run_obs_gate(&args, min);
        return;
    }
    // Recording stays off unless an export asked for it — the default
    // run measures the exact pre-obs code path.
    let recorder = if args.trace_out.is_some() || args.metrics_out.is_some() {
        Recorder::new()
    } else {
        Recorder::off()
    };
    run_packed(&args, &recorder);
}
