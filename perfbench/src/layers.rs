//! Direct calls into single layers — assembler, compiler, shot engine,
//! QPU model and simulated machine — on a fixed sample of a workload's
//! programs. They give the per-layer numbers a fleet trace cannot: the
//! cost of one `assemble`, one `CompiledJob::compile`, one shot, and the
//! simulated machine's own counters.

use crate::report::Metrics;
use crate::stats::{mean, median, percentile, sorted};
use quape_core::{
    shot_seed, CompiledJob, QpuBackend, QpuFactory, QuapeConfig, ShotEngine, StepMode,
    WorkerScratch,
};
use quape_isa::{QuantumOp, Qubit};
use quape_qpu::{IssuedOp, TimingViolation};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timings taken per program for the assemble and compile probes; the
/// median is kept.
const PROBE_REPEATS: usize = 3;

/// One program of the sample: what to run and how many shots.
pub struct ProbeJob {
    /// The compiled program.
    pub job: CompiledJob,
    /// Its QPU model.
    pub factory: Arc<dyn QpuFactory>,
    /// Base seed of its shot streams.
    pub base_seed: u64,
    /// Shots to run.
    pub shots: u64,
}

impl ProbeJob {
    fn engine(&self, factory: impl QpuFactory + 'static) -> ShotEngine {
        ShotEngine::new(self.job.clone(), factory)
            .base_seed(self.base_seed)
            .threads(1)
    }
}

/// Mean over `sources` of the median time to assemble one source text,
/// and of the median time to compile the assembled program for `cfg`,
/// both in microseconds.
pub fn assemble_compile_us(sources: &[String], cfg: &QuapeConfig) -> (f64, f64) {
    let mut assemble = Vec::new();
    let mut compile = Vec::new();
    for text in sources {
        let mut a = Vec::new();
        let mut c = Vec::new();
        for _ in 0..PROBE_REPEATS {
            let t = Instant::now();
            let program = quape_isa::assemble(black_box(text)).expect("workload source assembles");
            a.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let job =
                CompiledJob::compile(cfg.clone(), program).expect("workload program compiles");
            c.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(job);
        }
        assemble.push(median(&a));
        compile.push(median(&c));
    }
    (mean(&assemble), mean(&compile))
}

/// Counters the timing QPU wrapper feeds.
#[derive(Default)]
struct ApplyCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// A QPU factory that wraps another and times every `apply` call.
struct TimedFactory {
    inner: Arc<dyn QpuFactory>,
    counters: Arc<ApplyCounters>,
}

impl QpuFactory for TimedFactory {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        Box::new(TimedQpu {
            inner: self.inner.create(seed),
            counters: Arc::clone(&self.counters),
            calls: 0,
            nanos: 0,
        })
    }
}

/// A backend that delegates everything and times `apply`; its counts
/// are published when the shot drops it.
struct TimedQpu {
    inner: Box<dyn QpuBackend>,
    counters: Arc<ApplyCounters>,
    calls: u64,
    nanos: u64,
}

impl QpuBackend for TimedQpu {
    fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool> {
        let t = Instant::now();
        let outcome = self.inner.apply(time_ns, op);
        self.nanos += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        outcome
    }

    fn log(&self) -> &[IssuedOp] {
        self.inner.log()
    }

    fn violations(&self) -> &[TimingViolation] {
        self.inner.violations()
    }

    fn take_results(&mut self) -> (Vec<IssuedOp>, Vec<TimingViolation>) {
        self.inner.take_results()
    }

    fn set_lean(&mut self, lean: bool) {
        self.inner.set_lean(lean);
    }

    fn issued_count(&self) -> u64 {
        self.inner.issued_count()
    }

    fn busy_until(&self, qubit: Qubit) -> u64 {
        self.inner.busy_until(qubit)
    }

    fn makespan_ns(&self) -> u64 {
        self.inner.makespan_ns()
    }
}

impl Drop for TimedQpu {
    fn drop(&mut self) {
        self.counters.calls.fetch_add(self.calls, Ordering::Relaxed);
        self.counters.nanos.fetch_add(self.nanos, Ordering::Relaxed);
    }
}

/// Runs the sample through every probe and records the isa, core,
/// engine, qpu and sim per-layer metrics. Returns false when the timing
/// QPU wrapper changed an aggregate (it must only observe).
pub fn record(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    sources: &[String],
    cfg: &QuapeConfig,
    sample: &[ProbeJob],
) -> bool {
    let (assemble_us, compile_us) = assemble_compile_us(sources, cfg);
    metrics.set("isa.assemble_us", assemble_us);
    metrics.set("core.compile_us", compile_us);

    // Shot engine: every shot of the sample through the per-worker
    // arena entry point the job server uses.
    let mut shot_us = Vec::new();
    let (mut host_ns, mut sim_cycles) = (0.0, 0u64);
    for p in sample {
        let engine = p.engine(Arc::clone(&p.factory));
        let mut scratch = WorkerScratch::new();
        for shot in 0..p.shots {
            let t = Instant::now();
            let summary = engine.run_shot_reusing(shot, &mut scratch);
            let ns = t.elapsed().as_nanos() as f64;
            shot_us.push(ns / 1e3);
            host_ns += ns;
            sim_cycles += summary.cycles;
        }
    }
    let shot_us = sorted(&shot_us);
    metrics.set("engine.shot_us_p50", percentile(&shot_us, 50.0));
    metrics.set("engine.shot_us_p99", percentile(&shot_us, 99.0));
    metrics.set(
        "engine.host_ns_per_sim_cycle",
        host_ns / sim_cycles.max(1) as f64,
    );

    // QPU model: the same shots behind the timing wrapper. The share
    // includes the wrapper's two clock reads per call.
    let counters = Arc::new(ApplyCounters::default());
    let mut wall_ns = 0.0;
    let mut identical = true;
    for p in sample {
        let plain = p.engine(Arc::clone(&p.factory)).run(p.shots).aggregate;
        let timed = p.engine(TimedFactory {
            inner: Arc::clone(&p.factory),
            counters: Arc::clone(&counters),
        });
        let t = Instant::now();
        let report = timed.run(p.shots);
        wall_ns += t.elapsed().as_nanos() as f64;
        identical &= report.aggregate == plain;
    }
    let shots: u64 = sample.iter().map(|p| p.shots).sum();
    let calls = counters.calls.load(Ordering::Relaxed) as f64;
    metrics.set("qpu.apply_calls_per_shot", calls / shots.max(1) as f64);
    metrics.set(
        "qpu.share_of_shot",
        counters.nanos.load(Ordering::Relaxed) as f64 / wall_ns.max(1.0),
    );
    if !identical {
        notes.push("MISMATCH: the timing QPU wrapper changed an aggregate".into());
    }

    // Simulated machine: full run reports of the same shots.
    let mut cycles = 0u64;
    let mut measure_wait = 0u64;
    let mut sched_busy = 0u64;
    let mut ctx_stalls = 0u64;
    let (mut prefetch_hits, mut prefetch_misses) = (0u64, 0u64);
    let mut late = 0u64;
    let mut daq = 0u64;
    let mut utilization = Vec::new();
    for p in sample {
        for shot in 0..p.shots {
            let seed = shot_seed(p.base_seed, shot);
            let report = p
                .job
                .shot(p.factory.create(seed), seed)
                .run_with_mode(StepMode::EventDriven, 10_000_000);
            let s = &report.stats;
            cycles += report.cycles;
            measure_wait += s
                .processors
                .iter()
                .map(|q| q.measure_wait_cycles)
                .sum::<u64>();
            ctx_stalls += s
                .processors
                .iter()
                .map(|q| q.context_dependency_stalls)
                .sum::<u64>();
            sched_busy += s.scheduler_busy_cycles;
            prefetch_hits += s.prefetch_hits;
            prefetch_misses += s.prefetch_misses;
            late += s.late_issues;
            daq += s.daq_contended_results;
            utilization.push(s.mean_utilization(report.cycles));
        }
    }
    let per_shot = |v: u64| v as f64 / shots.max(1) as f64;
    metrics.set("sim.cycles_per_shot", per_shot(cycles));
    metrics.set("sim.measure_wait_cycles", per_shot(measure_wait));
    metrics.set("sim.sched_busy_cycles", per_shot(sched_busy));
    metrics.set("sim.ctx_dep_stalls", per_shot(ctx_stalls));
    metrics.set(
        "sim.prefetch_hit_ratio",
        prefetch_hits as f64 / (prefetch_hits + prefetch_misses).max(1) as f64,
    );
    metrics.set("sim.late_issues", per_shot(late));
    metrics.set("sim.daq_contended", per_shot(daq));
    metrics.set("sim.proc_utilization", mean(&utilization));
    notes.push(format!(
        "layer probes: {} programs, {shots} shots (assemble/compile: median of {PROBE_REPEATS} per program)",
        sources.len()
    ));
    identical
}
