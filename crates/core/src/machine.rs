//! The QuAPE machine, split into a compile-once job and per-shot state.
//!
//! [`CompiledJob`] owns the immutable, shareable artifacts of a run — the
//! validated [`QuapeConfig`], the block-wrapped [`Program`] (with its
//! block information table), and the [`ChannelMap`] — all behind `Arc` so
//! that cloning a job is O(1). A [`Shot`] is the mutable machine state of
//! one execution (processors, scheduler, MRR/DAQ/AWG devices, PRNG,
//! counters) built from a job in O(state) instead of
//! O(revalidate-everything); the multi-shot experiments of §7/§8 construct
//! one job and then run thousands of shots from it (see
//! [`crate::ShotEngine`]).
//!
//! A single run is the same two steps with one shot:
//! `CompiledJob::compile(cfg, program)?.shot(qpu, seed).run()`.

use crate::backend::QpuBackend;
use crate::config::QuapeConfig;
use crate::devices::{AwgBank, ChannelMap, Daq, MeasurementFile};
use crate::engine::{digest_measurements, ShotSummary};
use crate::fast::{FastProcessor, StallInfo};
use crate::processor::{Env, Processor, ProcessorCore};
use crate::report::{MachineStats, RunReport, StepDispatch, StopReason};
use crate::scheduler::Scheduler;
use quape_isa::{
    BlockInfo, BlockInfoTable, Dependency, Instruction, LoweredProgram, Program, ProgramError,
    SHARED_REG_COUNT,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// How a run loop advances the machine clock. Both modes produce
/// bit-identical [`RunReport`]s; the mode only picks the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// The reference processor, ticked on every clock cycle. Kept as
    /// the differential-testing oracle for [`StepMode::EventDriven`].
    Cycle,
    /// Cycle-accurate discrete-event execution on the lowered core: the
    /// shot executes the job's [`LoweredProgram`] — operands
    /// pre-resolved, durations baked in, dispatch predicates
    /// pre-classified into flag bits — and, when every component is
    /// provably idle, jumps the clock straight to the earliest event
    /// horizon (DAQ delivery, timing-queue head, scheduler fill
    /// completion, switch deadline) instead of stepping through the idle
    /// span.
    #[default]
    EventDriven,
}

/// A per-shot event trace: a plain `Vec` on a full core, a no-op sink on
/// a lean one. Backs the report's `wait_cycles` (pushed from the
/// processors' stall paths and bulk-filled by the event-driven skip)
/// and `step_dispatches` (pushed per quantum dispatch) vectors.
#[derive(Debug, Default)]
pub(crate) struct EventSink<T> {
    events: Vec<T>,
    record: bool,
}

impl<T> EventSink<T> {
    fn new(record: bool) -> Self {
        EventSink {
            events: Vec::new(),
            record,
        }
    }

    pub(crate) fn push(&mut self, event: T) {
        if self.record {
            self.events.push(event);
        }
    }

    fn into_vec(self) -> Vec<T> {
        self.events
    }

    /// Empties the sink in place, keeping the record flag and the
    /// allocation (arena reuse across shots).
    fn clear(&mut self) {
        self.events.clear();
    }
}

impl EventSink<u64> {
    /// Bulk-accounts a skipped span `start..end` during which `waiting`
    /// processors were measure-wait stalled — exactly the entries a
    /// cycle-stepped run would have pushed one by one.
    fn extend_span(&mut self, start: u64, end: u64, waiting: usize) {
        if !self.record || waiting == 0 {
            return;
        }
        if waiting == 1 {
            self.events.extend(start..end);
        } else {
            self.events.reserve(waiting * (end - start) as usize);
            for cyc in start..end {
                for _ in 0..waiting {
                    self.events.push(cyc);
                }
            }
        }
    }
}

/// One program block's instruction words, pre-cut at job compilation and
/// shared by every shot: cache fills clone the `Arc` instead of copying
/// the words, so per-shot fill cost is O(blocks), not O(instructions).
#[derive(Debug, Clone)]
pub(crate) struct BlockCode {
    /// Absolute address of the block's first instruction.
    pub base: u32,
    /// The block's instruction words.
    pub words: Arc<[Instruction]>,
}

/// Errors from machine construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration is inconsistent.
    Config(String),
    /// The program failed validation.
    Program(ProgramError),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MachineError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ProgramError> for MachineError {
    fn from(e: ProgramError) -> Self {
        MachineError::Program(e)
    }
}

/// A recorded measurement outcome (time, qubit, value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MeasurementRecord {
    /// Issue time of the measurement operation.
    pub time_ns: u64,
    /// Measured qubit.
    pub qubit: quape_isa::Qubit,
    /// Classical outcome.
    pub value: bool,
}

/// Wraps a block-less program into a single implicit block so the
/// scheduler always has a table to work from.
fn ensure_blocks(program: Program) -> Result<Program, ProgramError> {
    if !program.blocks().is_empty() {
        return Ok(program);
    }
    let len = program.len() as u32;
    let mut table = BlockInfoTable::new();
    table.push(BlockInfo::new("main", 0..len, Dependency::none()))?;
    Program::with_parts(
        program.instructions().to_vec(),
        table,
        program.step_map().to_vec(),
    )
}

/// The immutable, shareable half of a run: validated configuration,
/// block-wrapped program, and channel map, each behind an `Arc`.
///
/// Compile once, then build any number of [`Shot`]s (possibly from many
/// threads — a job is `Send + Sync` and clones in O(1)).
///
/// ```
/// use quape_core::{CompiledJob, QuapeConfig};
/// use quape_qpu::{BehavioralQpu, MeasurementModel};
/// use quape_isa::assemble;
///
/// let program = assemble("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n")?;
/// let job = CompiledJob::compile(QuapeConfig::superscalar(4), program)?;
/// for shot_index in 0..4u64 {
///     let qpu = BehavioralQpu::new(job.cfg().timings, MeasurementModel::AlwaysZero, shot_index);
///     let report = job.shot(Box::new(qpu), shot_index).run();
///     assert_eq!(report.issued_count(), 3);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledJob {
    cfg: Arc<QuapeConfig>,
    program: Arc<Program>,
    code: Arc<[BlockCode]>,
    /// Micro-op artifact for [`StepMode::EventDriven`], lowered once here
    /// and `Arc`-shared by every shot (and the server's compile cache).
    lowered: Arc<LoweredProgram>,
    chan: Arc<ChannelMap>,
    num_qubits: u16,
    /// Content digest, frozen at compile time. Computing it walks the
    /// whole program, so hot paths that key caches on job identity —
    /// e.g. the engine's per-worker scratch — must not recompute it per
    /// shot.
    digest: u64,
}

impl CompiledJob {
    /// Validates `cfg` and `program` once and freezes the shareable
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] for inconsistent configurations
    /// (including a `num_qubits` override smaller than what the program
    /// touches, and a program or override above the ISA's
    /// [`MAX_QUBITS`](quape_isa::MAX_QUBITS)) and [`MachineError::Program`]
    /// when wrapping a block-less program fails.
    pub fn compile(cfg: QuapeConfig, program: Program) -> Result<Self, MachineError> {
        cfg.validate().map_err(MachineError::Config)?;
        let program = ensure_blocks(program)?;
        let scanned = program.num_qubits().max(1);
        let num_qubits = match cfg.num_qubits {
            None => scanned,
            Some(n) if n >= scanned => n,
            Some(n) => {
                return Err(MachineError::Config(format!(
                "num_qubits override {n} is smaller than the {scanned} qubits the program touches"
            )))
            }
        };
        if usize::from(num_qubits) > quape_isa::MAX_QUBITS {
            return Err(MachineError::Config(format!(
                "{num_qubits} qubits exceed the ISA's {} addressable qubits",
                quape_isa::MAX_QUBITS
            )));
        }
        let chan = match cfg.readout_lines {
            None => ChannelMap::linear(num_qubits),
            Some(lines) => ChannelMap::multiplexed(num_qubits, lines),
        };
        let code: Arc<[BlockCode]> = program
            .blocks()
            .iter()
            .map(|(_, info)| BlockCode {
                base: info.range.start,
                words: program.instructions()[info.range.start as usize..info.range.end as usize]
                    .into(),
            })
            .collect();
        let lowered = Arc::new(LoweredProgram::lower(&program, &cfg.timings));
        let mut h = quape_isa::Fnv64::new();
        h.write_u64(program.digest().0)
            .write_u64(cfg.content_digest());
        let digest = h.finish();
        Ok(CompiledJob {
            cfg: Arc::new(cfg),
            program: Arc::new(program),
            code,
            lowered,
            chan: Arc::new(chan),
            num_qubits,
            digest,
        })
    }

    /// The validated configuration.
    pub fn cfg(&self) -> &QuapeConfig {
        &self.cfg
    }

    /// Stable content digest of the compiled job: the program's
    /// [`digest`](Program::digest) combined with the configuration's
    /// [`content_digest`](QuapeConfig::content_digest).
    ///
    /// Two jobs compiled from structurally equal programs under
    /// execution-equivalent configurations hash identically across
    /// processes, so the digest is a sound compile-cache key. The
    /// config's `seed` is deliberately excluded — it is a runtime
    /// parameter (batch runs override it per request), not part of the
    /// compiled artifact.
    ///
    /// Computed once at [`compile`](Self::compile) time; this accessor is
    /// a plain field read, cheap enough for per-shot identity checks.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The block-wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The block information table the scheduler works from.
    pub fn blocks(&self) -> &BlockInfoTable {
        self.program.blocks()
    }

    /// The qubit→channel map.
    pub fn channel_map(&self) -> &ChannelMap {
        &self.chan
    }

    /// Number of qubits the setup is sized for.
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The pre-decoded micro-op artifact backing [`StepMode::EventDriven`].
    pub fn lowered(&self) -> &LoweredProgram {
        &self.lowered
    }

    /// Builds a shot core generically: fresh processors, a scheduler with
    /// the pre-task initial load applied, fresh devices and counters. A
    /// `lean` core runs identically but records no per-event vectors
    /// (see [`ShotCore::set_lean`]).
    fn core<P: ProcessorCore>(
        &self,
        qpu: Box<dyn QpuBackend>,
        rng: SmallRng,
        lean: bool,
        code: Arc<P::Code>,
        new_proc: impl FnMut(usize) -> P,
    ) -> ShotCore<P> {
        let cfg = &self.cfg;
        let mut processors: Vec<P> = (0..cfg.num_processors).map(new_proc).collect();
        let mut scheduler = Scheduler::new(&self.program, cfg.dependency_mode);
        // Pre-task load of the first num_processors blocks (§7).
        scheduler.initial_load(&mut processors, &*code, cfg.num_processors);
        let stats = MachineStats {
            processors: vec![Default::default(); cfg.num_processors],
            ..Default::default()
        };
        let mut core = ShotCore {
            job: self.clone(),
            code,
            processors,
            scheduler,
            mrr: MeasurementFile::new(),
            daq: Daq::new(cfg.daq_demod_slots),
            awg: AwgBank::new(cfg.timings),
            qpu,
            rng,
            shared_regs: [0; SHARED_REG_COUNT],
            cycle: 0,
            halt: false,
            error: false,
            stats,
            step_dispatches: EventSink::new(true),
            wait_cycles: EventSink::new(true),
            late_issues: 0,
            late_cycles: 0,
            measurements: Vec::new(),
            skip_scratch: Vec::with_capacity(cfg.num_processors),
        };
        core.set_lean(lean);
        core
    }

    /// Builds the per-shot machine state for one execution on the lowered
    /// core, driving `qpu` and seeding the shot's PRNG (DAQ jitter) with
    /// `rng_seed`.
    pub fn shot(&self, qpu: Box<dyn QpuBackend>, rng_seed: u64) -> Shot {
        Shot {
            core: self.fast_core(qpu, SmallRng::seed_from_u64(rng_seed), false),
        }
    }

    /// Builds the per-shot state on the reference processor: the
    /// [`StepMode::Cycle`] oracle's core.
    pub(crate) fn reference_core(
        &self,
        qpu: Box<dyn QpuBackend>,
        rng: SmallRng,
        lean: bool,
    ) -> ShotCore<Processor> {
        self.core(qpu, rng, lean, self.code.clone(), |id| {
            Processor::new(id, self.cfg.icache_banks)
        })
    }

    /// Builds the per-shot state on the lowered core: the
    /// [`StepMode::EventDriven`] core.
    pub(crate) fn fast_core(
        &self,
        qpu: Box<dyn QpuBackend>,
        rng: SmallRng,
        lean: bool,
    ) -> ShotCore<FastProcessor> {
        let lowered = self.lowered.clone();
        let banks = self.cfg.icache_banks;
        self.core(qpu, rng, lean, lowered.clone(), move |id| {
            FastProcessor::new(id, lowered.clone(), banks)
        })
    }
}

/// The mutable state of one execution: processors, scheduler, devices,
/// QPU, PRNG, and statistics — generic over the processor implementation
/// ([`ProcessorCore`]). `ShotCore<FastProcessor>` runs the job's
/// [`LoweredProgram`]: [`Shot`] wraps one, and every engine shot runs on
/// one. `ShotCore<Processor>` is the [`StepMode::Cycle`] oracle, built
/// only by the `Cycle` arms of [`Shot::run_with_mode`] and
/// [`ShotEngine::run_shot_reusing`](crate::ShotEngine::run_shot_reusing).
pub(crate) struct ShotCore<P: ProcessorCore> {
    job: CompiledJob,
    /// The compiled artifact cache fills read, shared with the job
    /// (`[BlockCode]` for the reference core, the micro-op program for
    /// the fast one).
    code: Arc<P::Code>,
    processors: Vec<P>,
    scheduler: Scheduler,
    mrr: MeasurementFile,
    daq: Daq,
    awg: AwgBank,
    qpu: Box<dyn QpuBackend>,
    rng: SmallRng,
    shared_regs: [i32; SHARED_REG_COUNT],
    cycle: u64,
    halt: bool,
    error: bool,
    stats: MachineStats,
    step_dispatches: EventSink<StepDispatch>,
    wait_cycles: EventSink<u64>,
    late_issues: u64,
    late_cycles: u64,
    measurements: Vec<MeasurementRecord>,
    /// Scratch for the lowered loop's per-processor stall verdicts
    /// (allocated once per shot, reused across skip checks).
    skip_scratch: Vec<StallInfo>,
}

impl<P: ProcessorCore> ShotCore<P> {
    /// The job this core executes.
    pub(crate) fn job(&self) -> &CompiledJob {
        &self.job
    }

    /// Selects how much of the run the core records. A lean core — every
    /// engine shot, which is reduced to a [`ShotSummary`] of counters —
    /// leaves the `wait_cycles`, `step_dispatches`, `issued` and
    /// `playback` vectors empty; execution and every counter are
    /// unchanged. [`Shot`] runs are always full.
    fn set_lean(&mut self, lean: bool) {
        self.wait_cycles.record = !lean;
        self.step_dispatches.record = !lean;
        self.awg.set_record_timeline(!lean);
        self.qpu.set_lean(lean);
    }

    /// One clock cycle, returning a *progress hint*: `false` means no
    /// component observably acted (delivery, block event, issue, dispatch,
    /// fetch, state transition), so the stop conditions cannot have
    /// changed. A conservative `true` only costs a re-check.
    fn step_with_progress(&mut self) -> bool {
        let now = self.cycle;
        let cfg: &QuapeConfig = &self.job.cfg;
        let program: &Program = &self.job.program;
        let mut progress = self.daq.tick(now * cfg.clock_ns, &mut self.mrr) != 0;
        // AWG playback: retire waveforms that finished by this cycle.
        // Retirement is *not* observable progress — it has no
        // report-visible effect and no stop condition reads the playback
        // queue — so a tick that only retires keeps the loop in its
        // skip-eligible state instead of forcing a fully-checked cycle.
        self.awg.tick(now * cfg.clock_ns);
        // Every observable scheduler action records a block event.
        let events = self.scheduler.events.len();
        self.scheduler.tick(
            now,
            &mut self.processors,
            program,
            &self.code,
            cfg,
            &mut self.stats,
        );
        progress |= events != self.scheduler.events.len();
        let mut env = Env {
            cfg,
            program,
            mrr: &mut self.mrr,
            daq: &mut self.daq,
            awg: &mut self.awg,
            qpu: &mut *self.qpu,
            chan: &self.job.chan,
            rng: &mut self.rng,
            shared_regs: &mut self.shared_regs,
            step_dispatches: &mut self.step_dispatches,
            wait_cycles: &mut self.wait_cycles,
            late_issues: &mut self.late_issues,
            late_cycles: &mut self.late_cycles,
            measurements: &mut self.measurements,
            halt: &mut self.halt,
            error: &mut self.error,
        };
        for p in &mut self.processors {
            progress |= p.tick(now, &mut env);
        }
        self.cycle += 1;
        progress
    }

    fn quiescent(&self) -> bool {
        self.scheduler.all_done()
            && self
                .processors
                .iter()
                .all(|p| p.is_idle() && !p.has_pending_work())
            && self.daq.in_flight() == 0
    }

    fn drained_after_halt(&self) -> bool {
        self.halt
            && self.processors.iter().all(|p| !p.has_pending_work())
            && self.daq.in_flight() == 0
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// stepping every cycle: the [`StepMode::Cycle`] oracle. Like
    /// [`run_fast_loop`](ShotCore::run_fast_loop) it borrows the core and
    /// returns the stop reason; the caller folds the result with
    /// [`summary`](ShotCore::summary) or [`into_report`](ShotCore::into_report).
    pub(crate) fn run_loop(&mut self, max_cycles: u64) -> StopReason {
        // `maybe_stalled` tracks whether the previous cycle observably
        // did nothing. While it holds, the stop conditions cannot have
        // changed (their inputs are all observable state), so only the
        // cycle budget needs re-checking.
        let mut maybe_stalled = false;
        loop {
            if !maybe_stalled {
                if self.error {
                    break StopReason::Error;
                }
                if self.quiescent() {
                    break StopReason::Completed;
                }
                if self.drained_after_halt() {
                    break StopReason::Halted;
                }
            }
            if self.cycle >= max_cycles {
                break StopReason::CycleLimit;
            }
            maybe_stalled = !self.step_with_progress();
        }
    }

    /// Reduces the finished shot to its [`ShotSummary`] — the one place
    /// an engine digest is built, for either core. Reads the counters
    /// [`into_report`](ShotCore::into_report) would surface without
    /// consuming the core, so an arena core stays reusable.
    pub(crate) fn summary(&self, shot: u64, seed: u64, stop: StopReason) -> ShotSummary {
        let ns = self.cycle * self.job.cfg.clock_ns;
        ShotSummary {
            shot,
            seed,
            cycles: self.cycle,
            execution_time_ns: ns.max(self.qpu.makespan_ns()),
            stop,
            issued: self.qpu.issued_count(),
            late_issues: self.late_issues,
            late_cycles: self.late_cycles,
            violations: self.qpu.violations().len() as u64,
            awg_violations: self.awg.violations().len() as u64,
            daq_contended: self.daq.contended_results(),
            per_qubit: digest_measurements(self.job.num_qubits, &self.measurements),
        }
    }

    fn into_report(mut self, stop: StopReason) -> RunReport {
        for (i, p) in self.processors.iter().enumerate() {
            self.stats.processors[i] = *p.stats();
        }
        self.stats.late_issues = self.late_issues;
        self.stats.late_cycles = self.late_cycles;
        self.stats.awg_max_concurrent = self.awg.max_concurrent() as u64;
        self.stats.daq_contended_results = self.daq.contended_results();
        self.stats.daq_contention_delay_ns = self.daq.contention_delay_ns();
        // End-of-shot handover: the QPU, AWG and scheduler give up their
        // accumulated vectors by value instead of being copied. The
        // trigger/issue counters come from the devices, not the vector
        // lengths, so lean runs report the same numbers with the vectors
        // left empty.
        let qpu_makespan_ns = self.qpu.makespan_ns();
        let issued_ops = self.qpu.issued_count();
        let (issued, violations) = self.qpu.take_results();
        let (playback, awg_violations) = self.awg.take_results();
        self.stats.awg_triggers = self.awg.triggers();
        RunReport {
            cycles: self.cycle,
            ns: self.cycle * self.job.cfg.clock_ns,
            stop,
            issued,
            issued_ops,
            violations,
            playback,
            awg_violations,
            stats: self.stats,
            step_dispatches: self.step_dispatches.into_vec(),
            wait_cycles: self.wait_cycles.into_vec(),
            measurements: self.measurements,
            block_events: std::mem::take(&mut self.scheduler.events),
            qpu_makespan_ns,
        }
    }
}

impl ShotCore<FastProcessor> {
    /// Returns the core to the state `CompiledJob::fast_core(qpu, rng,
    /// lean)` would construct, but in place: every buffer, queue, table
    /// and sink is cleared rather than reallocated, and the lean switch
    /// is kept. The differential suites hold a reset core bit-identical
    /// to a fresh one (see [`WorkerScratch`](crate::WorkerScratch)).
    pub(crate) fn reset_for_shot(&mut self, qpu: Box<dyn QpuBackend>, rng: SmallRng) {
        let num_processors = self.job.cfg.num_processors;
        for p in &mut self.processors {
            p.reset();
        }
        self.scheduler.reset();
        self.scheduler
            .initial_load(&mut self.processors, &self.code, num_processors);
        self.mrr.reset();
        self.daq.reset();
        self.awg.reset();
        self.qpu = qpu;
        self.qpu.set_lean(!self.wait_cycles.record);
        self.rng = rng;
        self.shared_regs = [0; SHARED_REG_COUNT];
        self.cycle = 0;
        self.halt = false;
        self.error = false;
        let processors = std::mem::take(&mut self.stats.processors);
        self.stats = MachineStats {
            processors,
            ..Default::default()
        };
        self.stats.processors.fill(Default::default());
        self.step_dispatches.clear();
        self.wait_cycles.clear();
        self.late_issues = 0;
        self.late_cycles = 0;
        self.measurements.clear();
        self.skip_scratch.clear();
    }

    /// The event-driven run loop on the lowered core —
    /// [`StepMode::EventDriven`]'s whole-shot loop.
    ///
    /// Behaviourally this is [`run_loop`](ShotCore::run_loop), the
    /// cycle-stepped oracle, bit for bit: the same stop conditions and
    /// the same per-cycle statistics. What changes is the host-side cost
    /// of simulated time:
    ///
    /// - Provably idle spans are **skipped**: after a tick that made no
    ///   observable progress, the clock jumps to the earliest event
    ///   horizon and the skipped cycles' counters are bulk-accounted.
    /// - The [`Env`] is built **once per shot** instead of once per tick
    ///   (`step_with_progress` re-borrows all seventeen fields on every
    ///   stepped cycle).
    /// - A scheduler tick is **elided** when it is provably a no-op: the
    ///   scheduler settled on its last real tick and no processor has a
    ///   finished-block notification pending ([`Scheduler::is_settled`]),
    ///   cross-checked against [`Scheduler::would_act`] under
    ///   `debug_assertions`.
    ///
    /// The differential suites (`step_mode_equivalence`,
    /// `proptest_step_modes`) hold this loop bit-identical to the
    /// cycle-stepped oracle.
    ///
    /// Like [`run_loop`](ShotCore::run_loop) it borrows the core and
    /// returns the stop reason, so a worker's arena core
    /// ([`WorkerScratch`](crate::WorkerScratch)) runs many shots through
    /// one allocation.
    pub(crate) fn run_fast_loop(&mut self, max_cycles: u64) -> StopReason {
        fn merge(h: &mut Option<u64>, at: u64) {
            *h = Some(h.map_or(at, |x| x.min(at)));
        }
        {
            let clock_ns = self.job.cfg.clock_ns;
            let cfg: &QuapeConfig = &self.job.cfg;
            let program: &Program = &self.job.program;
            let code: &LoweredProgram = &self.code;
            let processors = &mut self.processors;
            let scheduler = &mut self.scheduler;
            let stats = &mut self.stats;
            let skip_scratch = &mut self.skip_scratch;
            let cycle = &mut self.cycle;
            let mut env = Env {
                cfg,
                program,
                mrr: &mut self.mrr,
                daq: &mut self.daq,
                awg: &mut self.awg,
                qpu: &mut *self.qpu,
                chan: &self.job.chan,
                rng: &mut self.rng,
                shared_regs: &mut self.shared_regs,
                step_dispatches: &mut self.step_dispatches,
                wait_cycles: &mut self.wait_cycles,
                late_issues: &mut self.late_issues,
                late_cycles: &mut self.late_cycles,
                measurements: &mut self.measurements,
                halt: &mut self.halt,
                error: &mut self.error,
            };
            // See `run_loop` for the `maybe_stalled` contract: while the
            // previous tick observably did nothing, the stop conditions
            // cannot have changed and a time skip is worth attempting.
            let mut maybe_stalled = false;
            // Block statuses only move inside `Scheduler::tick` (or the
            // pre-loop initial load), so the all-done verdict is cached
            // and refreshed after each non-elided scheduler tick instead
            // of re-scanning the status table on every progress cycle.
            let mut all_done = scheduler.all_done();
            // Cached device event horizons (`u64::MAX` = none pending).
            // The DAQ queue only changes by delivering (guarded below) or
            // by an issue inside a processor tick (which reports
            // progress); the AWG timeline only changes by retiring
            // (guarded below) or by an emission inside an issue. Both
            // caches are refreshed at exactly those points, so the
            // steady-state stall cycles and the skip checks read a local
            // instead of probing the device queues.
            let mut daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
            let mut awg_next = env.awg.next_event_ns().unwrap_or(u64::MAX);
            loop {
                if !maybe_stalled {
                    if *env.error {
                        break StopReason::Error;
                    }
                    if all_done
                        && processors
                            .iter()
                            .all(|p| p.is_idle() && !p.has_pending_work())
                        && env.daq.in_flight() == 0
                    {
                        break StopReason::Completed;
                    }
                    if *env.halt
                        && processors.iter().all(|p| !p.has_pending_work())
                        && env.daq.in_flight() == 0
                    {
                        break StopReason::Halted;
                    }
                }
                if *cycle >= max_cycles {
                    break StopReason::CycleLimit;
                }
                // Event-driven time skip: if the coming cycle is provably
                // a pure stall for every component, jump the clock to the
                // earliest event horizon (bounded by the cycle budget),
                // bulk-accounting the per-cycle statistics a
                // cycle-stepped run would have accumulated.
                //
                // Soundness: during a span in which no processor
                // dispatches, no timing queue issues, the DAQ delivers
                // nothing and the scheduler starts nothing, the machine
                // state is constant except for those statistics — so
                // every skipped cycle would have been identical, and the
                // first cycle at which anything *can* change is the
                // minimum of the component horizons gathered here. The
                // preceding tick made no observable progress, which
                // already proved the cycle-independent activity inactive
                // (dispatch, fetch, context resolution and, when the
                // scheduler ran free, its picker), so only the *clocked*
                // events are re-examined: device queues, timing-queue
                // heads, switch deadlines and scheduler busy spans. The
                // from-first-principles verifiers
                // (`FastProcessor::stall_info`, `Scheduler::would_act`)
                // cross-check every trusted verdict under
                // `debug_assertions`.
                if maybe_stalled {
                    let skipped = 'skip: {
                        let now = *cycle;
                        let now_ns = now * clock_ns;
                        let mut horizon: Option<u64> = None;
                        if daq_next != u64::MAX {
                            if daq_next <= now_ns {
                                break 'skip false;
                            }
                            merge(&mut horizon, daq_next.div_ceil(clock_ns));
                        }
                        if awg_next != u64::MAX {
                            if awg_next <= now_ns {
                                break 'skip false;
                            }
                            merge(&mut horizon, awg_next.div_ceil(clock_ns));
                        }
                        debug_assert_eq!(
                            daq_next,
                            env.daq.next_delivery_ns().unwrap_or(u64::MAX),
                            "stale DAQ horizon cache"
                        );
                        debug_assert_eq!(
                            awg_next,
                            env.awg.next_event_ns().unwrap_or(u64::MAX),
                            "stale AWG horizon cache"
                        );
                        debug_assert!(!processors.iter().any(|p| p.finished_pending()));
                        debug_assert!(!scheduler.counter_would_advance(program));
                        let cross_check =
                            |p: &FastProcessor,
                             verdict: &Option<StallInfo>,
                             mrr: &MeasurementFile| {
                                let full = p.stall_info(now, mrr, cfg);
                                match (verdict, full) {
                                    (None, None) => true,
                                    (Some(a), Some(b)) => {
                                        a.horizon == b.horizon
                                            && a.measure_wait == b.measure_wait
                                            && a.context_stall == b.context_stall
                                    }
                                    _ => false,
                                }
                            };
                        // Uniprocessor fast path: one verdict on the
                        // stack, no scratch traffic.
                        let mut solo = StallInfo::default();
                        let single = processors.len() == 1;
                        if single {
                            let verdict = processors[0].skip_check(now);
                            debug_assert!(
                                cross_check(&processors[0], &verdict, env.mrr),
                                "trusted skip check diverged from the full stall verifier"
                            );
                            match verdict {
                                None => break 'skip false,
                                Some(s) => {
                                    if let Some(h) = s.horizon {
                                        merge(&mut horizon, h);
                                    }
                                    solo = s;
                                }
                            }
                        } else {
                            skip_scratch.clear();
                            for p in processors.iter() {
                                let verdict = p.skip_check(now);
                                debug_assert!(
                                    cross_check(p, &verdict, env.mrr),
                                    "trusted skip check diverged from the full stall verifier"
                                );
                                match verdict {
                                    None => break 'skip false,
                                    Some(s) => {
                                        if let Some(h) = s.horizon {
                                            merge(&mut horizon, h);
                                        }
                                        skip_scratch.push(s);
                                    }
                                }
                            }
                        }
                        let mut scheduler_busy = true;
                        if let Some(finish) = scheduler.job_finish() {
                            if now >= finish {
                                break 'skip false;
                            }
                            merge(&mut horizon, finish);
                        } else if scheduler.is_busy(now) {
                            merge(&mut horizon, scheduler.busy_until());
                        } else {
                            scheduler_busy = false;
                            if !scheduler.is_settled()
                                && scheduler.would_act(now, processors, program, cfg)
                            {
                                break 'skip false;
                            }
                            debug_assert!(
                                !scheduler.would_act(now, processors, program, cfg),
                                "settled scheduler would still act"
                            );
                        }
                        // No event horizon at all means the machine can
                        // only spin to the cycle budget (e.g. an FMR
                        // waiting on a result that never comes).
                        let target = horizon.unwrap_or(max_cycles).min(max_cycles);
                        if target <= now {
                            break 'skip false;
                        }
                        let span = target - now;
                        if scheduler_busy {
                            stats.scheduler_busy_cycles += span;
                        }
                        let mut waiting = 0usize;
                        if single {
                            if solo.measure_wait {
                                waiting = 1;
                            }
                            processors[0].account_stall_span(&solo, span);
                        } else {
                            for (p, s) in processors.iter_mut().zip(skip_scratch.iter()) {
                                if s.measure_wait {
                                    waiting += 1;
                                }
                                p.account_stall_span(s, span);
                            }
                        }
                        env.wait_cycles.extend_span(now, target, waiting);
                        *cycle = target;
                        true
                    };
                    if skipped {
                        maybe_stalled = false;
                        continue;
                    }
                }
                // Inline `step_with_progress`, with the settled-scheduler
                // tick elision and the device ticks guarded by the cached
                // horizons (a tick with nothing due is a no-op by
                // construction: both device ticks only pop entries whose
                // time has been reached).
                let now = *cycle;
                let now_ns = now * clock_ns;
                let mut progress = false;
                if daq_next <= now_ns {
                    progress = env.daq.tick(now_ns, env.mrr) != 0;
                    daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
                }
                if awg_next <= now_ns {
                    env.awg.tick(now_ns);
                    awg_next = env.awg.next_event_ns().unwrap_or(u64::MAX);
                }
                if !scheduler.is_settled() || processors.iter().any(|p| p.finished_pending()) {
                    let events = scheduler.events.len();
                    scheduler.tick(now, processors, program, code, cfg, stats);
                    progress |= events != scheduler.events.len();
                    all_done = scheduler.all_done();
                } else {
                    // A settled scheduler with no pending done-notification
                    // cannot act: nothing that feeds its picker (block
                    // statuses, processor idle/bank state) has changed
                    // since it last proved itself inactive, and settling
                    // implies no fill job in flight and no busy span.
                    debug_assert!(
                        !scheduler.would_act(now, processors, program, cfg),
                        "settled scheduler would act on a stepped cycle"
                    );
                }
                for p in processors.iter_mut() {
                    progress |= p.tick(now, &mut env);
                }
                if progress {
                    // A processor tick can only touch the device queues
                    // through an issue (which reports progress), so the
                    // horizon caches need refreshing exactly here.
                    daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
                    awg_next = env.awg.next_event_ns().unwrap_or(u64::MAX);
                }
                *cycle = now + 1;
                maybe_stalled = !progress;
            }
        }
    }
}

/// The per-shot machine state of one execution. Built from a
/// [`CompiledJob`]; stepped at clock-cycle granularity.
///
/// A shot is built on the lowered core (`ShotCore<FastProcessor>` over
/// the job's [`LoweredProgram`]), the one core that serves.
/// [`step`](Shot::step) ticks it one cycle at a time, and
/// [`run_with_mode`](Shot::run_with_mode) with [`StepMode::EventDriven`]
/// finishes it with time skips from wherever it stands. Only
/// [`StepMode::Cycle`] touches the reference processor, and only for an
/// un-stepped shot (see [`run_with_mode`](Shot::run_with_mode)).
pub struct Shot {
    core: ShotCore<FastProcessor>,
}

impl Shot {
    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The job this shot executes.
    pub fn job(&self) -> &CompiledJob {
        &self.core.job
    }

    /// Advances the machine by one clock cycle.
    pub fn step(&mut self) {
        let _ = self.core.step_with_progress();
    }

    /// Runs until completion with a default budget of 10 million cycles.
    pub fn run(self) -> RunReport {
        self.run_with_limit(10_000_000)
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// using the default [`StepMode`] (event-driven).
    pub fn run_with_limit(self, max_cycles: u64) -> RunReport {
        self.run_with_mode(StepMode::default(), max_cycles)
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// advancing time as `mode` dictates. Both modes produce
    /// bit-identical reports.
    ///
    /// [`StepMode::Cycle`] on an un-stepped shot moves the QPU and the
    /// PRNG onto a fresh reference core (`Processor`, the differential
    /// oracle) and steps that every cycle; nothing else has run yet, so
    /// the report is the oracle's. A shot already advanced with
    /// [`step`](Shot::step) finishes on the lowered core it was stepped
    /// on, cycle by cycle.
    pub fn run_with_mode(self, mode: StepMode, max_cycles: u64) -> RunReport {
        let mut core = self.core;
        match mode {
            StepMode::EventDriven => {
                let stop = core.run_fast_loop(max_cycles);
                core.into_report(stop)
            }
            StepMode::Cycle if core.cycle == 0 => {
                let ShotCore { job, qpu, rng, .. } = core;
                let mut core = job.reference_core(qpu, rng, false);
                let stop = core.run_loop(max_cycles);
                core.into_report(stop)
            }
            StepMode::Cycle => {
                let stop = core.run_loop(max_cycles);
                core.into_report(stop)
            }
        }
    }

    /// Measurement outcomes observed so far (delivered results).
    pub fn measurements(&self) -> &[MeasurementRecord] {
        &self.core.measurements
    }

    /// The AWG bank's device state (diagnostic; tests cross-check its
    /// occupancy view against the QPU shadow model).
    pub fn awg(&self) -> &AwgBank {
        &self.core.awg
    }

    /// The QPU occupancy model's view of when `qubit` becomes free
    /// (diagnostic twin of [`AwgBank::qubit_busy_until`]).
    pub fn qpu_busy_until(&self, qubit: quape_isa::Qubit) -> u64 {
        self.core.qpu.busy_until(qubit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{ClassicalOp, Cond, CondOp, Gate1, ProgramBuilder, QuantumOp, Qubit};
    use quape_qpu::{BehavioralQpu, MeasurementModel};

    fn coin(cfg: &QuapeConfig, seed: u64) -> Box<dyn QpuBackend> {
        Box::new(BehavioralQpu::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            seed,
        ))
    }

    fn two_qubit_program() -> Program {
        quape_isa::assemble("0 H q0\n2 CNOT q0, q1\n2 MEAS q0\nSTOP\n").expect("valid program")
    }

    #[test]
    fn num_qubits_scanned_by_default() {
        let job = CompiledJob::compile(QuapeConfig::superscalar(4), two_qubit_program())
            .expect("compiles");
        assert_eq!(job.num_qubits(), 2);
        assert_eq!(job.channel_map().channel_count(), 6);
    }

    #[test]
    fn num_qubits_override_expands_channel_map() {
        let cfg = QuapeConfig::superscalar(4).with_num_qubits(10);
        let job = CompiledJob::compile(cfg, two_qubit_program()).expect("compiles");
        assert_eq!(job.num_qubits(), 10);
        assert_eq!(job.channel_map().channel_count(), 30);
    }

    #[test]
    fn readout_lines_config_builds_multiplexed_map() {
        let cfg = QuapeConfig::superscalar(4)
            .with_num_qubits(10)
            .with_readout_lines(8);
        let job = CompiledJob::compile(cfg, two_qubit_program()).expect("compiles");
        assert_eq!(job.channel_map().readout_lines(), 8);
        assert_eq!(job.channel_map().channel_count(), 28);
    }

    #[test]
    fn awg_occupancy_tracks_qpu_shadow_model() {
        // Step a shot manually: at every cycle the AWG bank's device-side
        // qubit occupancy must match the QPU shadow model exactly.
        let cfg = QuapeConfig::superscalar(4).with_seed(3);
        let job = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let mut shot = job.shot(coin(&cfg, 5), cfg.seed);
        for _ in 0..2_000 {
            shot.step();
            for q in 0..job.num_qubits() {
                let q = quape_isa::Qubit::new(q);
                assert_eq!(
                    shot.awg().qubit_busy_until(q),
                    shot.qpu_busy_until(q),
                    "device and QPU occupancy diverged on {q} at cycle {}",
                    shot.cycle()
                );
            }
        }
        assert!(shot.awg().playing() == 0, "all playbacks retired at rest");
        assert_eq!(shot.awg().retired(), shot.awg().timeline().len());
    }

    #[test]
    fn job_digest_is_stable_and_content_keyed() {
        let cfg = QuapeConfig::superscalar(4);
        let a = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let b = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        assert_eq!(a.digest(), b.digest());
        // Different seed, same compiled artifact.
        let reseeded =
            CompiledJob::compile(cfg.clone().with_seed(5), two_qubit_program()).expect("compiles");
        assert_eq!(a.digest(), reseeded.digest());
        // Different program or different config: different key.
        let other = CompiledJob::compile(
            cfg.clone(),
            quape_isa::assemble("0 H q0\nSTOP\n").expect("valid"),
        )
        .expect("compiles");
        assert_ne!(a.digest(), other.digest());
        let wider = CompiledJob::compile(QuapeConfig::superscalar(8), two_qubit_program())
            .expect("compiles");
        assert_ne!(a.digest(), wider.digest());
    }

    #[test]
    fn num_qubits_override_too_small_rejected() {
        let cfg = QuapeConfig::superscalar(4).with_num_qubits(1);
        let err = CompiledJob::compile(cfg, two_qubit_program()).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
    }

    #[test]
    fn qubit_count_capped_at_isa_limit() {
        let cfg = QuapeConfig::superscalar(4);
        let wide = |q: usize| quape_isa::assemble(&format!("0 H q{q}\nSTOP\n")).expect("valid");
        let job = CompiledJob::compile(cfg.clone(), wide(127)).expect("q127 is addressable");
        assert_eq!(usize::from(job.num_qubits()), quape_isa::MAX_QUBITS);
        let err = CompiledJob::compile(cfg.clone(), wide(128)).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
        let err = CompiledJob::compile(cfg.with_num_qubits(129), wide(0)).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
    }

    #[test]
    fn shots_from_one_job_are_independent() {
        let cfg = QuapeConfig::superscalar(4);
        let job = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let first = job.shot(coin(&cfg, 1), 1).run();
        let second = job.shot(coin(&cfg, 1), 1).run();
        // Same seeds ⇒ identical; fresh state ⇒ no leakage between shots.
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.measurements, second.measurements);
        assert_eq!(first.issued.len(), 3);
    }

    /// A DAQ-wait-bound feedback chain: measure, block on the result
    /// (FMR), then fire a conditional X — the workload whose wait-cycle
    /// trace is by far the largest report vector.
    fn feedback_program(rounds: usize) -> Program {
        let mut b = ProgramBuilder::new();
        for r in 0..rounds {
            let q = (r % 2) as u16;
            b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
            b.fmr(0, q);
            b.cmpi(0, 1);
            let skip = format!("skip{r}");
            b.br_to(Cond::Ne, &skip);
            b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
            b.label(&skip);
        }
        b.push(ClassicalOp::Stop);
        b.finish().expect("valid feedback program")
    }

    /// A dense pulse program: parallel single-qubit gates keep the AWG
    /// playback timeline busy.
    fn pulse_program() -> Program {
        let mut b = ProgramBuilder::new();
        for _ in 0..40 {
            for q in 0..4u16 {
                b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
            }
        }
        for q in 0..4u16 {
            b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        }
        b.push(ClassicalOp::Stop);
        b.finish().expect("valid pulse program")
    }

    /// Two priority blocks the scheduler spreads over the processors,
    /// each with its own MRCE feedback round.
    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new();
        for (name, q) in [("left", 0u16), ("right", 1u16)] {
            b.begin_block(name, Dependency::Priority(0));
            b.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q)));
            b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
            b.push(ClassicalOp::Mrce {
                qubit: Qubit::new(q),
                target: Qubit::new(q),
                op_if_one: CondOp::X,
                op_if_zero: CondOp::None,
            });
            b.push(ClassicalOp::Stop);
            b.end_block();
        }
        b.finish().expect("valid two-block program")
    }

    fn lean_cases() -> Vec<(&'static str, QuapeConfig, Program)> {
        vec![
            (
                "feedback",
                QuapeConfig::uniprocessor(),
                feedback_program(30),
            ),
            ("pulse", QuapeConfig::superscalar(4), pulse_program()),
            // Shared readout lines with one demod server each: AWG
            // channel overlaps and DAQ demod contention both fire.
            (
                "pulse_mux",
                QuapeConfig::superscalar(8)
                    .with_readout_lines(2)
                    .with_demod_slots(1),
                pulse_program(),
            ),
            (
                "two_blocks",
                QuapeConfig::superscalar(4),
                two_block_program(),
            ),
            // Eight same-time gates on a scalar pipeline issue late, and
            // the back-to-back pair on q0 violates the QPU timing model.
            (
                "late_and_violating",
                QuapeConfig::scalar_baseline(),
                quape_isa::assemble(
                    "0 H q0\n0 H q1\n0 H q2\n0 H q3\n0 H q4\n0 H q5\n0 H q6\n0 H q7\n\
                     0 X q0\n0 MEAS q0\nSTOP\n",
                )
                .expect("valid program"),
            ),
            // The program stops while its last gate is still playing, so
            // the QPU drain sets the execution time.
            (
                "qpu_drain",
                QuapeConfig::superscalar(4),
                quape_isa::assemble("0 MEAS q0\n100 CNOT q1, q2\nSTOP\n").expect("valid program"),
            ),
        ]
    }

    /// A lean core's summary and whole report, on the core `step`
    /// selects.
    fn lean_run(job: &CompiledJob, step: StepMode, seed: u64) -> (ShotSummary, RunReport) {
        let qpu = coin(job.cfg(), seed);
        let rng = SmallRng::seed_from_u64(seed);
        match step {
            StepMode::Cycle => {
                let mut core = job.reference_core(qpu, rng, true);
                let stop = core.run_loop(2_000_000);
                (core.summary(0, seed, stop), core.into_report(stop))
            }
            StepMode::EventDriven => {
                let mut core = job.fast_core(qpu, rng, true);
                let stop = core.run_fast_loop(2_000_000);
                (core.summary(0, seed, stop), core.into_report(stop))
            }
        }
    }

    /// Lean cores (every engine shot) must be bit-identical to full
    /// `Shot` runs in everything except the materialised event vectors:
    /// same cycles, stats, measurements, violations and block events,
    /// with `wait_cycles`/`issued`/`playback`/`step_dispatches` left
    /// empty and their counters standing in for them. The shared
    /// `summary` fold must read exactly what the full report says.
    #[test]
    fn lean_cores_match_full_reports_except_vectors() {
        // QPU violations, AWG violations, DAQ contention, late issues,
        // QPU drain past the program's end.
        let mut fired = [0u64; 5];
        for (label, cfg, program) in lean_cases() {
            let job = CompiledJob::compile(cfg, program).expect("job compiles");
            for step in [StepMode::Cycle, StepMode::EventDriven] {
                let full = job
                    .shot(coin(job.cfg(), 11), 11)
                    .run_with_mode(step, 2_000_000);
                let (summary, lean) = lean_run(&job, step, 11);
                assert!(full.issued_ops > 0, "{label}: trivial run");
                assert!(
                    !full.wait_cycles.is_empty() || label != "feedback",
                    "{label}: expected measure waits"
                );
                assert_eq!(full.cycles, lean.cycles, "{label}: cycles");
                assert_eq!(full.ns, lean.ns, "{label}: ns");
                assert_eq!(full.stop, lean.stop, "{label}: stop");
                assert_eq!(full.stats, lean.stats, "{label}: stats");
                assert_eq!(full.issued_ops, lean.issued_ops, "{label}: issued_ops");
                assert_eq!(full.measurements, lean.measurements, "{label}: outcomes");
                assert_eq!(full.violations, lean.violations, "{label}: violations");
                assert_eq!(
                    full.awg_violations, lean.awg_violations,
                    "{label}: awg_violations"
                );
                assert_eq!(full.block_events, lean.block_events, "{label}: blocks");
                assert_eq!(
                    full.qpu_makespan_ns, lean.qpu_makespan_ns,
                    "{label}: makespan"
                );
                assert!(lean.issued.is_empty(), "{label}: lean issued materialised");
                assert!(
                    lean.playback.is_empty(),
                    "{label}: lean playback materialised"
                );
                assert!(
                    lean.wait_cycles.is_empty(),
                    "{label}: lean wait_cycles materialised"
                );
                assert!(
                    lean.step_dispatches.is_empty(),
                    "{label}: lean step_dispatches materialised"
                );
                // The counters really do stand in for the vectors.
                assert_eq!(
                    full.step_dispatches.len() as u64,
                    lean.stats.total_quantum(),
                    "{label}: dispatch count"
                );
                assert_eq!(full.issued.len() as u64, lean.issued_ops, "{label}: count");
                assert_eq!(
                    full.playback.len() as u64,
                    lean.stats.awg_triggers,
                    "{label}: triggers"
                );
                // The one summary fold reads exactly what the full report
                // says.
                assert_eq!(summary.cycles, full.cycles, "{label}: summary cycles");
                assert_eq!(
                    summary.execution_time_ns,
                    full.execution_time_ns(),
                    "{label}: summary execution time"
                );
                assert_eq!(summary.stop, full.stop, "{label}: summary stop");
                assert_eq!(
                    summary.issued,
                    full.issued.len() as u64,
                    "{label}: summary issued"
                );
                assert_eq!(
                    (summary.late_issues, summary.late_cycles),
                    (full.stats.late_issues, full.stats.late_cycles),
                    "{label}: summary lateness"
                );
                assert_eq!(
                    (summary.violations, summary.awg_violations),
                    (
                        full.violations.len() as u64,
                        full.awg_violations.len() as u64
                    ),
                    "{label}: summary violations"
                );
                assert_eq!(
                    summary.daq_contended, full.stats.daq_contended_results,
                    "{label}: summary DAQ contention"
                );
                assert_eq!(
                    summary.per_qubit,
                    digest_measurements(job.num_qubits(), &full.measurements),
                    "{label}: summary outcomes"
                );
                fired[0] += summary.violations;
                fired[1] += summary.awg_violations;
                fired[2] += summary.daq_contended;
                fired[3] += summary.late_issues;
                fired[4] += u64::from(full.qpu_makespan_ns > full.ns);
            }
        }
        assert!(
            fired.iter().all(|&n| n > 0),
            "every summary counter must fire somewhere: {fired:?}"
        );
    }

    /// A reset arena core replays exactly the measurement records (time,
    /// qubit, value, in issue order) of a fresh full `Shot`, shot after
    /// shot — finer than the per-qubit digest a summary keeps.
    #[test]
    fn reset_arena_core_replays_fresh_measurement_records() {
        for (label, cfg, program) in lean_cases() {
            let job = CompiledJob::compile(cfg, program).expect("job compiles");
            let mut arena = job.fast_core(coin(job.cfg(), 0), SmallRng::seed_from_u64(0), true);
            for seed in 0..12u64 {
                arena.reset_for_shot(coin(job.cfg(), seed), SmallRng::seed_from_u64(seed));
                let stop = arena.run_fast_loop(2_000_000);
                let fresh = job
                    .shot(coin(job.cfg(), seed), seed)
                    .run_with_mode(StepMode::Cycle, 2_000_000);
                assert_eq!(stop, fresh.stop, "{label}/{seed}: stop");
                assert_eq!(arena.cycle, fresh.cycles, "{label}/{seed}: cycles");
                assert!(
                    !fresh.measurements.is_empty(),
                    "{label}/{seed}: no outcomes"
                );
                assert_eq!(
                    arena.measurements, fresh.measurements,
                    "{label}/{seed}: measurements"
                );
            }
        }
    }
}
