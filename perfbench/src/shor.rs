//! `shor_sim`: the paper's circuit-level-parallelism workload.
//!
//! Fault-tolerant Shor syndrome measurement of the Steane code (37
//! qubits) at verification failure rate 0.1, the peak point of the
//! paper's Fig. 11, run through `ShotEngine` on one and on six
//! processors. A job is one batch of shots on each machine; the loop is
//! closed (the next job starts when the last one returns). Compiling
//! both machines' jobs is set-up.

use crate::clock::{HostClock, HostSpeed, REF_KERNEL_NS};
use crate::layers::{self, ProbeJob};
use crate::report::{Metrics, Outcome};
use crate::stats::{derive, mean, median, slo_attainment, BlockTail, BLOCK};
use crate::trace::{GAP_TOLERANCE, SERVING_LAYER_METRICS};
use quape_core::{
    BatchAggregate, CompiledJob, EngineObs, QpuFactory, QuapeConfig, ShotEngine, StepMode,
};
use quape_obs::Recorder;
use quape_qpu::BehavioralQpuFactory;
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Verification failure rate (Fig. 11's peak-speedup point).
pub const FAILURE_RATE: f64 = 0.1;
/// Shots per machine in one job.
pub const SHOTS_PER_RUN: u64 = 8;
/// Distinct jobs in the fixed shot set; the timed loop cycles over them.
pub const SET_JOBS: u64 = 128;
/// Jobs of the set re-run under `StepMode::Cycle` as an oracle.
pub const CYCLE_PREFIX_JOBS: u64 = 2;
/// Latency limit of a job, for `slo_attainment`.
pub const SLO_MS: f64 = 25.0;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 21;
/// Shots of the six-processor machine in the layer probes.
const PROBE_SHOTS: u64 = 64;
/// The paper's measured speed-up at six processors.
const PAPER_SPEEDUP: f64 = 2.59;

/// The two compiled machines and their QPU model.
struct Machines {
    one: CompiledJob,
    six: CompiledJob,
    factory: Arc<dyn QpuFactory>,
}

fn set_up() -> Machines {
    let workload =
        ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("Shor workload generates");
    let compile = |n: usize| {
        CompiledJob::compile(QuapeConfig::multiprocessor(n), workload.program.clone())
            .expect("Shor workload compiles")
    };
    let one = compile(1);
    let six = compile(6);
    let factory: Arc<dyn QpuFactory> = Arc::new(BehavioralQpuFactory::new(
        six.cfg().timings,
        ShorSyndrome::measurement_model(FAILURE_RATE),
    ));
    Machines { one, six, factory }
}

/// The fold of one job: its aggregate on each machine.
type JobResult = (BatchAggregate, BatchAggregate);

struct Runner<'a> {
    machines: &'a Machines,
    seed: u64,
    threads: usize,
    obs: EngineObs,
}

impl Runner<'_> {
    fn engine(&self, job: &CompiledJob, index: u64) -> ShotEngine {
        ShotEngine::new(job.clone(), Arc::clone(&self.machines.factory))
            .base_seed(derive(self.seed, index % SET_JOBS))
            .threads(self.threads)
            .obs(self.obs.clone())
    }

    /// Runs job `index`; returns its result and the wall time of each
    /// machine's batch.
    fn job(&self, index: u64) -> (JobResult, Duration, Duration) {
        let t = Instant::now();
        let one = self.engine(&self.machines.one, index).run(SHOTS_PER_RUN);
        let t_one = t.elapsed();
        let t = Instant::now();
        let six = self.engine(&self.machines.six, index).run(SHOTS_PER_RUN);
        ((one.aggregate, six.aggregate), t_one, t.elapsed())
    }
}

/// What one timed window measured.
struct Window {
    start: Instant,
    end: Instant,
    /// Per job: start, end, and the wall time of each machine's batch.
    jobs: Vec<(Instant, Instant, Duration, Duration)>,
    mismatches: u64,
}

impl Window {
    /// (start in seconds since the window began, latency in ms at the
    /// reference host speed) per job.
    fn latencies_ms(&self, speed: &HostSpeed) -> Vec<(f64, f64)> {
        self.jobs
            .iter()
            .map(|&(a, b, _, _)| ((a - self.start).as_secs_f64(), speed.scaled(a, b) * 1e3))
            .collect()
    }

    fn count(&self) -> u64 {
        self.jobs.len() as u64
    }
}

fn window(runner: &Runner, oracle: &[JobResult], seconds: f64) -> Window {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut mismatches = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let index = jobs.len() as u64;
        let t = Instant::now();
        let (result, t_one, t_six) = runner.job(index);
        jobs.push((t, Instant::now(), t_one, t_six));
        if result != oracle[(index % SET_JOBS) as usize] {
            mismatches += 1;
        }
    }
    Window {
        start,
        end: Instant::now(),
        jobs,
        mismatches,
    }
}

/// Runs `shor_sim` for `seconds` (split between an untraced and a
/// traced half when `trace` is set).
pub fn run(seed: u64, seconds: f64, trace: bool, threads: usize) -> Outcome {
    let clock = HostClock::start();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut machines = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        machines = Some(set_up());
        setups.push((t, Instant::now()));
    }
    let machines = machines.expect("at least one set-up");
    let runner = Runner {
        machines: &machines,
        seed,
        threads,
        obs: EngineObs::off(),
    };

    // The fixed shot set, outside any timed window: the oracle every
    // timed job is compared with, and the simulated metrics.
    let oracle: Vec<JobResult> = (0..SET_JOBS).map(|j| runner.job(j).0).collect();
    let shots_each = SET_JOBS * SHOTS_PER_RUN;
    let incomplete: u64 = oracle
        .iter()
        .map(|(one, six)| 2 * SHOTS_PER_RUN - one.stops.completed - six.stops.completed)
        .sum();
    let sim_ns = |pick: fn(&JobResult) -> &BatchAggregate| -> f64 {
        oracle
            .iter()
            .map(|r| pick(r).simulated_ns_total as f64)
            .sum()
    };
    let (ns_one, ns_six) = (sim_ns(|r| &r.0), sim_ns(|r| &r.1));
    let sim_exec_us = ns_six / shots_each as f64 / 1e3;
    let clp_speedup = ns_one / ns_six;

    // A prefix of the set again under the cycle-stepped oracle mode.
    let mut cycle_mismatches = 0;
    for j in 0..CYCLE_PREFIX_JOBS {
        let expected = &oracle[j as usize];
        for (job, expect) in [(&machines.one, &expected.0), (&machines.six, &expected.1)] {
            let cycle = runner
                .engine(job, j)
                .step_mode(StepMode::Cycle)
                .run(SHOTS_PER_RUN);
            if &cycle.aggregate != expect {
                cycle_mismatches += 1;
            }
        }
    }

    let mut mismatches = cycle_mismatches;
    out.notes.push(format!(
        "fixed shot set: {shots_each} shots per machine, {incomplete} not Completed; \
         cycle-mode prefix: {CYCLE_PREFIX_JOBS} jobs, {cycle_mismatches} mismatches"
    ));
    out.notes.push(format!(
        "clp_speedup = {clp_speedup:.3}x on 6 processors (paper: {PAPER_SPEEDUP}x); \
         mean simulated time {:.3} us on 1 processor, {sim_exec_us:.3} us on 6; \
         the model is not validated against hardware",
        ns_one / shots_each as f64 / 1e3
    ));

    let mut metrics = Metrics::default();
    if trace {
        let plain = window(&runner, &oracle, seconds / 2.0);
        let recorder = Recorder::new();
        let traced_runner = Runner {
            obs: EngineObs::in_scope(&recorder.scope(0)),
            ..runner
        };
        let traced = window(&traced_runner, &oracle, seconds / 2.0);
        mismatches += plain.mismatches + traced.mismatches;
        out.attempted = plain.count() + traced.count();
        out.correct = layers::record(
            &mut metrics,
            &mut out.notes,
            &[machines.six.program().to_string()],
            machines.six.cfg(),
            &[ProbeJob {
                job: machines.six.clone(),
                factory: Arc::clone(&machines.factory),
                base_seed: derive(seed, 0),
                shots: PROBE_SHOTS,
            }],
        );
        let speed = clock.finish();
        record_layers(
            &mut metrics,
            &mut out.notes,
            (&plain, &traced),
            &recorder,
            &speed,
        );
    } else {
        let w = window(&runner, &oracle, seconds);
        let speed = clock.finish();
        mismatches += w.mismatches;
        out.attempted = w.count();
        let samples = w.latencies_ms(&speed);
        let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let tail = BlockTail::of(&samples, BLOCK);
        let elapsed = speed.scaled(w.start, w.end);
        let setup: Vec<f64> = setups.iter().map(|&(a, b)| speed.scaled(a, b)).collect();
        metrics.set("setup_s", median(&setup));
        metrics.set("jobs_per_s", w.count() as f64 / elapsed);
        metrics.set("latency_p50_ms", tail.p50);
        metrics.set("latency_p99_ms", tail.p99);
        metrics.set(
            "slo_attainment",
            slo_attainment(&latencies, w.count(), SLO_MS),
        );
        metrics.set(
            "sim_shots_per_s",
            (w.count() * 2 * SHOTS_PER_RUN) as f64 / elapsed,
        );
        metrics.set("sim_exec_us", sim_exec_us);
        metrics.set("clp_speedup", clp_speedup);
        let raw: Vec<(f64, f64)> = w
            .jobs
            .iter()
            .map(|&(a, b, _, _)| ((a - w.start).as_secs_f64(), (b - a).as_secs_f64() * 1e3))
            .collect();
        let raw_tail = BlockTail::of(&raw, BLOCK);
        out.notes.push(format!(
            "latency: {} jobs; percentiles are medians over {} blocks of {BLOCK} jobs \
             (smallest: {} jobs, {} beyond p99); set-up median of {SETUPS}",
            latencies.len(),
            tail.blocks,
            tail.min_count,
            tail.min_beyond_p99
        ));
        out.notes.push(format!(
            "unscaled: latency p50 {:.3} ms, p99 {:.3} ms, {:.1} jobs/s; host kernel median {:.0} ns \
             over {} samples (reference {REF_KERNEL_NS:.0} ns), {:.1}% of CPU time stolen",
            raw_tail.p50,
            raw_tail.p99,
            w.count() as f64 / (w.end - w.start).as_secs_f64(),
            speed.median_kernel_ns(),
            speed.samples(),
            speed.stolen_share() * 100.0
        ));
        out.correct = true;
        out.params
            .push(("latency_samples", latencies.len().to_string()));
    }
    out.correct &= mismatches == 0 && incomplete == 0;
    out.metrics = metrics;
    out.params.extend([
        ("failure_rate", FAILURE_RATE.to_string()),
        (
            "machines",
            "multiprocessor(1), multiprocessor(6)".to_string(),
        ),
        ("shots_per_job", format!("{SHOTS_PER_RUN} per machine")),
        ("fixed_shot_set", format!("{SET_JOBS} jobs")),
        ("engine_threads", threads.to_string()),
        ("slo_ms", SLO_MS.to_string()),
    ]);
    if mismatches > 0 {
        out.notes.push(format!(
            "MISMATCH: {mismatches} jobs differ from the oracle"
        ));
    }
    out
}

/// The per-layer metrics of the traced run. Only the engine and the
/// simulated machine are on this workload's path; the serving layers
/// read 0.
fn record_layers(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    (plain, traced): (&Window, &Window),
    recorder: &Recorder,
    speed: &HostSpeed,
) {
    let p50 = |w: &Window| BlockTail::of(&w.latencies_ms(speed), BLOCK).p50;
    metrics.set("trace.overhead", p50(traced) / p50(plain));
    metrics.set("trace.dropped_events", recorder.dropped_events() as f64);
    // Breakdown: each job's latency against its two engine batches.
    let spans: Vec<(f64, f64, f64)> = traced
        .jobs
        .iter()
        .map(|&(a, b, one, six)| {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            (us(b - a), us(one), us(six))
        })
        .collect();
    let e2e: f64 = spans.iter().map(|s| s.0).sum();
    let gap: f64 = spans.iter().map(|s| (s.0 - s.1 - s.2).abs()).sum();
    let gap_frac = gap / e2e.max(1.0);
    metrics.set("breakdown.gap_frac", gap_frac);
    let avg = |f: fn(&(f64, f64, f64)) -> f64| mean(&spans.iter().map(f).collect::<Vec<_>>());
    notes.push(format!(
        "breakdown over {} traced jobs: 1-processor batch {:.1} us, 6-processor batch {:.1} us, \
         job {:.1} us; gap {:.2}% (tolerance {:.0}%)",
        traced.count(),
        avg(|s| s.1),
        avg(|s| s.2),
        avg(|s| s.0),
        gap_frac * 100.0,
        GAP_TOLERANCE * 100.0
    ));
    metrics.set("gen.lag_p99_ms", 0.0);
    metrics.set("gen.sent", (plain.count() + traced.count()) as f64);
    metrics.set("gen.depth_start", 1.0);
    metrics.set("gen.depth_end", 1.0);
    for name in SERVING_LAYER_METRICS {
        metrics.set(name, 0.0);
    }
}
