//! Stage reconciliation from a fleet's lifecycle trace.
//!
//! Each served job is followed through the events the stack records —
//! `Admitted`, the `DrrRound` that picked it, `Placed`, the shard's
//! `Accepted`, its `Quantum` spans and `Finalized` — and its latency is
//! split into stages. The benchmark's own timestamps (due, sent,
//! result seen) are mapped onto the trace clock, so the stage sum can be
//! compared with the latency the client measured.
//!
//! The admission layer emits `Dispatched` only after the router has
//! placed the job, so the front wait ends at the `DrrRound` that picked
//! the job, and placement runs from there to the start of the shard's
//! submit (`Accepted` minus the submit's compile-or-hit time).

use quape_obs::{TraceEvent, TraceKind, FLEET_SCOPE};
use std::collections::HashMap;

/// Largest share of the summed latency the stages may leave
/// unexplained before the breakdown is reported as not reconciling.
pub const GAP_TOLERANCE: f64 = 0.10;

/// The per-layer metrics that only the serving path produces; workloads
/// that bypass it report them as 0.
pub const SERVING_LAYER_METRICS: &[&str] = &[
    "front.submit_us_p50",
    "front.wait_ms_p99",
    "front.shed",
    "router.place_us_p50",
    "router.warm_place_ratio",
    "server.queue_wait_ms_p50",
    "server.queue_wait_ms_p99",
    "server.quanta_per_job",
    "server.quantum_us_p50",
    "server.quantum_us_p99",
    "server.finalize_us_p50",
    "cache.hit_ratio",
    "cache.evictions",
    "cache.compile_ms_p50",
    "cache.compile_ms_p99",
];

/// One served job as the client saw it, on the trace clock (µs since
/// the recorder's origin).
#[derive(Debug, Clone, Copy)]
pub struct ClientJob {
    /// When the request was due to be sent.
    pub due_us: f64,
    /// When the generator called `FrontDoor::submit`.
    pub send_us: f64,
    /// When the result was seen.
    pub done_us: f64,
    /// Fleet job id.
    pub fleet_id: u64,
    /// Position among all admissions to the fleet (priming included).
    pub admitted_index: usize,
    /// The shard submit's compile-or-hit time (`JobResult::compile_wall`).
    pub compile_us: f64,
}

/// One job's latency split into stages, in µs. The stages follow each
/// other on the job's critical path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stages {
    /// Due → sent (the generator's own lag).
    pub gen_lag: f64,
    /// Admitted → picked by a DRR round.
    pub front_wait: f64,
    /// Picked → shard submit began.
    pub placement: f64,
    /// Shard submit: compile or cache hit.
    pub compile: f64,
    /// Accepted → first quantum, plus waits between quanta.
    pub queue_wait: f64,
    /// Quantum execution.
    pub execute: f64,
    /// Last quantum's end → finalized.
    pub finalize: f64,
    /// Due → result seen, as the client measured it.
    pub e2e: f64,
    /// Quanta executed.
    pub quanta: usize,
    /// Each quantum's duration.
    pub quantum_us: Vec<f64>,
    /// The shard's compile time when the job missed the cache.
    pub compiled_us: Option<f64>,
}

impl Stages {
    /// Sum of the stages.
    pub fn attributed(&self) -> f64 {
        self.gen_lag
            + self.front_wait
            + self.placement
            + self.compile
            + self.queue_wait
            + self.execute
            + self.finalize
    }

    /// Latency the stages leave unexplained: the submit call before
    /// admission, result delivery after finalize, and clock rounding.
    pub fn gap(&self) -> f64 {
        self.e2e - self.attributed()
    }
}

/// The shard-side events of one job.
#[derive(Default)]
struct ShardJob {
    accepted: Option<f64>,
    compiled: Option<f64>,
    quanta: Vec<(f64, f64)>,
    finalized: Option<f64>,
}

/// Splits every job of `jobs` into stages.
///
/// # Errors
///
/// When an event a job needs is missing from the trace.
pub fn stages(events: &[TraceEvent], jobs: &[ClientJob]) -> Result<Vec<Stages>, String> {
    let mut fleet: Vec<&TraceEvent> = events.iter().filter(|e| e.shard == FLEET_SCOPE).collect();
    fleet.sort_by_key(|e| e.seq);
    let admitted: Vec<f64> = fleet
        .iter()
        .filter(|e| e.kind == TraceKind::Admitted)
        .map(|e| e.ts_us as f64)
        .collect();
    // Fleet ids are handed out in dispatch order, one DRR round at a time.
    let mut picked: Vec<f64> = Vec::new();
    for e in fleet.iter().filter(|e| e.kind == TraceKind::DrrRound) {
        picked.extend(std::iter::repeat_n(e.ts_us as f64, e.a as usize));
    }
    let placed: HashMap<u64, (u32, u64)> = fleet
        .iter()
        .filter(|e| e.kind == TraceKind::Placed)
        .map(|e| (e.job, (e.a as u32, e.b)))
        .collect();
    let mut shard_jobs: HashMap<(u32, u64), ShardJob> = HashMap::new();
    for e in events.iter().filter(|e| e.shard != FLEET_SCOPE) {
        let j = shard_jobs.entry((e.shard, e.job)).or_default();
        let ts = e.ts_us as f64;
        match e.kind {
            TraceKind::Accepted => j.accepted = Some(ts),
            TraceKind::Compiled => j.compiled = Some(e.a as f64),
            TraceKind::Quantum => j.quanta.push((ts, e.dur_us as f64)),
            TraceKind::Finalized => j.finalized = Some(ts),
            _ => {}
        }
    }
    jobs.iter()
        .map(|c| {
            let missing = |what: &str| format!("fleet job {}: no {what} event", c.fleet_id);
            let t_admitted = *admitted
                .get(c.admitted_index)
                .ok_or_else(|| missing("admitted"))?;
            let t_picked = *picked
                .get(c.fleet_id as usize)
                .ok_or_else(|| missing("drr_round"))?;
            let at = placed.get(&c.fleet_id).ok_or_else(|| missing("placed"))?;
            let j = shard_jobs.get_mut(at).ok_or_else(|| missing("shard"))?;
            let t_accepted = j.accepted.ok_or_else(|| missing("accepted"))?;
            let t_finalized = j.finalized.ok_or_else(|| missing("finalized"))?;
            j.quanta.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (first, last) = match (j.quanta.first(), j.quanta.last()) {
                (Some(&f), Some(&l)) => (f, l),
                _ => return Err(missing("quantum")),
            };
            let between: f64 = j
                .quanta
                .windows(2)
                .map(|w| w[1].0 - (w[0].0 + w[0].1))
                .sum();
            Ok(Stages {
                gen_lag: c.send_us - c.due_us,
                front_wait: t_picked - t_admitted,
                placement: t_accepted - c.compile_us - t_picked,
                compile: c.compile_us,
                queue_wait: first.0 - t_accepted + between,
                execute: j.quanta.iter().map(|q| q.1).sum(),
                finalize: t_finalized - (last.0 + last.1),
                e2e: c.done_us - c.due_us,
                quanta: j.quanta.len(),
                quantum_us: j.quanta.iter().map(|q| q.1).collect(),
                compiled_us: j.compiled,
            })
        })
        .collect()
}

/// Share of the summed latency the stages leave unexplained (absolute
/// per-job gaps, so errors of opposite sign do not cancel).
pub fn gap_frac(stages: &[Stages]) -> f64 {
    let e2e: f64 = stages.iter().map(|s| s.e2e).sum();
    let gap: f64 = stages.iter().map(|s| s.gap().abs()).sum();
    gap / e2e.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // one per field of the event
    fn ev(
        shard: u32,
        seq: u64,
        ts: u64,
        dur: u64,
        job: u64,
        kind: TraceKind,
        a: u64,
        b: u64,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_us: ts,
            dur_us: dur,
            shard,
            worker: 0,
            job,
            kind,
            a,
            b,
            tenant: None,
        }
    }

    #[test]
    fn one_job_reconciles_stage_by_stage() {
        use TraceKind::*;
        let f = FLEET_SCOPE;
        // Admitted at 100, picked at 110, shard 1 submit 120..150 (30 µs
        // compile), quanta 160+20 and 190+10, finalized 205.
        let events = vec![
            ev(f, 0, 100, 0, 0, Admitted, 0, 2),
            ev(f, 1, 110, 0, 0, DrrRound, 1, 2),
            ev(1, 0, 150, 0, 4, Accepted, 2, 2),
            ev(1, 1, 150, 0, 4, Compiled, 30, 0),
            ev(f, 2, 151, 0, 0, Placed, 1, 4),
            ev(1, 2, 160, 20, 4, Quantum, 0, 1),
            ev(1, 3, 190, 10, 4, Quantum, 1, 2),
            ev(1, 4, 205, 0, 4, Finalized, 2, 2),
        ];
        let job = ClientJob {
            due_us: 90.0,
            send_us: 99.0,
            done_us: 212.0,
            fleet_id: 0,
            admitted_index: 0,
            compile_us: 30.0,
        };
        let s = &stages(&events, &[job]).unwrap()[0];
        assert_eq!(s.gen_lag, 9.0);
        assert_eq!(s.front_wait, 10.0);
        assert_eq!(s.placement, 10.0);
        assert_eq!(s.compile, 30.0);
        assert_eq!(s.queue_wait, 10.0 + 10.0);
        assert_eq!(s.execute, 30.0);
        assert_eq!(s.finalize, 5.0);
        assert_eq!(s.quanta, 2);
        assert_eq!(s.compiled_us, Some(30.0));
        assert_eq!(s.e2e, 122.0);
        // Unexplained: submit before admission (1) and delivery (7).
        assert_eq!(s.gap(), 8.0);
        assert!((gap_frac(std::slice::from_ref(s)) - 8.0 / 122.0).abs() < 1e-12);
    }

    #[test]
    fn a_missing_event_is_an_error() {
        let job = ClientJob {
            due_us: 0.0,
            send_us: 0.0,
            done_us: 1.0,
            fleet_id: 3,
            admitted_index: 0,
            compile_us: 0.0,
        };
        let err = stages(&[], &[job]).unwrap_err();
        assert!(err.contains("fleet job 3"), "{err}");
    }
}
