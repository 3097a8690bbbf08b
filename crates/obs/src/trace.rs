//! Lifecycle trace recording: the shared [`Recorder`], per-shard
//! [`ObsScope`]s, and the bounded event ring.
//!
//! Every scope owns a [`Registry`] of metric instruments and a bounded
//! ring of [`TraceEvent`]s. The ring mutex is a *leaf* lock: it is taken
//! only to push or snapshot events and never while any scheduler or
//! fleet lock is wanted, so instrumented code can emit events from under
//! its own locks without ordering hazards.

use crate::metrics::{MetricsSnapshot, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scope id used for fleet-level events (placement, re-route, steal,
/// admission). Rendered as its own Chrome trace process.
pub const FLEET_SCOPE: u32 = u32::MAX;

/// What happened. Names match the lifecycle in the README:
/// accepted → admitted → placed → compiled/cache-hit → packed →
/// quantum×N → finalized/cancelled/re-routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A shard accepted a job into its queue (`a` = shots, `b` = weight).
    Accepted,
    /// The front door admitted a request (`a` = arrival_seq in shots,
    /// `b` = shots).
    Admitted,
    /// The front door shed a request (`a` = retry_after_shots,
    /// `b` = shots).
    Shed,
    /// A queued request was dispatched to the fleet (`a` = dispatch_seq
    /// in shots, `b` = shots; `job` = fleet job id).
    Dispatched,
    /// One deficit-round-robin planning round (`a` = jobs in the batch,
    /// `b` = shots in the batch).
    DrrRound,
    /// The router placed a fleet job (`a` = shard, `b` = server-local
    /// job id).
    Placed,
    /// A job compiled fresh (`a` = compile wall time in µs).
    Compiled,
    /// A job hit the compile cache.
    CacheHit,
    /// A job was grouped into a claim batch (`a` = batch entry id,
    /// `b` = member count).
    Packed,
    /// One executed shot quantum (`a`..`b` = shot range; `dur_us` set).
    Quantum,
    /// A job finalized normally (`a` = executed shots).
    Finalized,
    /// A job finalized cancelled (`a` = executed shots).
    Cancelled,
    /// The router re-routed a fleet job (`a` = from shard,
    /// `b` = to shard).
    ReRouted,
    /// An idle shard stole a fleet job (`a` = victim shard,
    /// `b` = thief shard).
    Stolen,
    /// A shard was killed (`a` = shard).
    ShardDown,
    /// A shard began retirement (`a` = shard).
    ShardRetiring,
}

impl TraceKind {
    /// Short lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Accepted => "accepted",
            TraceKind::Admitted => "admitted",
            TraceKind::Shed => "shed",
            TraceKind::Dispatched => "dispatched",
            TraceKind::DrrRound => "drr_round",
            TraceKind::Placed => "placed",
            TraceKind::Compiled => "compiled",
            TraceKind::CacheHit => "cache_hit",
            TraceKind::Packed => "packed",
            TraceKind::Quantum => "quantum",
            TraceKind::Finalized => "finalized",
            TraceKind::Cancelled => "cancelled",
            TraceKind::ReRouted => "re_routed",
            TraceKind::Stolen => "stolen",
            TraceKind::ShardDown => "shard_down",
            TraceKind::ShardRetiring => "shard_retiring",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Push order within the scope (gapless from 0, including events
    /// later evicted from the bounded ring).
    pub seq: u64,
    /// Microseconds since the recorder's monotonic origin.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Scope id — the Chrome trace `pid` ([`FLEET_SCOPE`] for fleet
    /// events).
    pub shard: u32,
    /// Worker index — the Chrome trace `tid` (0 = control plane).
    pub worker: u32,
    /// Job id, scope-local (server job id on shard scopes, fleet job id
    /// on the fleet scope; 0 when not yet assigned).
    pub job: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific argument (see [`TraceKind`]).
    pub b: u64,
    /// Tenant, on admission-path events.
    pub tenant: Option<String>,
}

impl TraceEvent {
    /// Everything except wall-clock fields (`ts_us`, `dur_us`, and
    /// [`Compiled`](TraceKind::Compiled)'s measured compile time in
    /// `a`) — two same-seed runs must agree on this projection
    /// event-for-event.
    pub fn normalized(&self) -> (u32, u32, u64, TraceKind, u64, u64, Option<&str>) {
        let a = match self.kind {
            TraceKind::Compiled => 0,
            _ => self.a,
        };
        (
            self.shard,
            self.worker,
            self.job,
            self.kind,
            a,
            self.b,
            self.tenant.as_deref(),
        )
    }
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

#[derive(Debug)]
pub(crate) struct ScopeCore {
    shard: u32,
    label: String,
    origin: Instant,
    registry: Registry,
    ring: Mutex<Ring>,
}

impl ScopeCore {
    fn push(&self, mut ev: TraceEvent) {
        let mut ring = self.ring.lock().unwrap();
        ev.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }
}

/// A cheap per-shard telemetry handle. The disabled default
/// ([`ObsScope::off`]) is a `None` whose every method is an inlined
/// no-op; cloning an enabled scope shares the same ring and registry.
#[derive(Clone, Default)]
pub struct ObsScope(Option<Arc<ScopeCore>>);

impl std::fmt::Debug for ObsScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "ObsScope(off)"),
            Some(c) => write!(f, "ObsScope({})", c.label),
        }
    }
}

impl ObsScope {
    /// The inert scope: records nothing, costs one branch per call.
    pub const fn off() -> Self {
        ObsScope(None)
    }

    /// Whether this scope records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// The scope id (Chrome trace pid); 0 when disabled.
    pub fn shard(&self) -> u32 {
        self.0.as_ref().map_or(0, |c| c.shard)
    }

    /// Registers (or finds) a counter in this scope's registry.
    pub fn counter(&self, name: &str) -> crate::Counter {
        self.0
            .as_ref()
            .map_or_else(crate::Counter::off, |c| c.registry.counter(name))
    }

    /// Registers (or finds) a gauge in this scope's registry.
    pub fn gauge(&self, name: &str) -> crate::Gauge {
        self.0
            .as_ref()
            .map_or_else(crate::Gauge::off, |c| c.registry.gauge(name))
    }

    /// Registers (or finds) a histogram in this scope's registry.
    pub fn histogram(&self, name: &str) -> crate::Histogram {
        self.0
            .as_ref()
            .map_or_else(crate::Histogram::off, |c| c.registry.histogram(name))
    }

    /// Records an instant event, timestamped now.
    #[inline]
    pub fn event(&self, kind: TraceKind, worker: u32, job: u64, a: u64, b: u64) {
        if let Some(c) = &self.0 {
            c.push(TraceEvent {
                seq: 0,
                ts_us: c.origin.elapsed().as_micros() as u64,
                dur_us: 0,
                shard: c.shard,
                worker,
                job,
                kind,
                a,
                b,
                tenant: None,
            });
        }
    }

    /// Records an instant event carrying a tenant label.
    #[inline]
    pub fn event_tenant(
        &self,
        kind: TraceKind,
        worker: u32,
        job: u64,
        a: u64,
        b: u64,
        tenant: &str,
    ) {
        if let Some(c) = &self.0 {
            c.push(TraceEvent {
                seq: 0,
                ts_us: c.origin.elapsed().as_micros() as u64,
                dur_us: 0,
                shard: c.shard,
                worker,
                job,
                kind,
                a,
                b,
                tenant: Some(tenant.to_string()),
            });
        }
    }

    /// Records a span that began at `start` and ends now.
    #[inline]
    pub fn span(&self, kind: TraceKind, worker: u32, job: u64, a: u64, b: u64, start: Instant) {
        if let Some(c) = &self.0 {
            let ts = start.saturating_duration_since(c.origin).as_micros() as u64;
            let dur = start.elapsed().as_micros() as u64;
            c.push(TraceEvent {
                seq: 0,
                ts_us: ts,
                dur_us: dur,
                shard: c.shard,
                worker,
                job,
                kind,
                a,
                b,
                tenant: None,
            });
        }
    }

    /// The scope's events in push order (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |c| {
            c.ring.lock().unwrap().buf.iter().cloned().collect()
        })
    }

    /// Snapshot of this scope's metric registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.0
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |c| c.registry.snapshot())
    }
}

#[derive(Debug)]
pub(crate) struct RecorderCore {
    pub(crate) origin: Instant,
    cap: usize,
    pub(crate) scopes: Mutex<Vec<Arc<ScopeCore>>>,
}

/// The shared trace recorder: a set of scopes (one per shard plus the
/// fleet scope) over one monotonic clock. [`Recorder::off`] is the
/// inert default; an enabled recorder is cheap to clone and hand to
/// every layer of the stack.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<RecorderCore>>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Recorder(off)"),
            Some(c) => write!(f, "Recorder({} scopes)", c.scopes.lock().unwrap().len()),
        }
    }
}

/// Default per-scope ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Recorder {
    /// An enabled recorder with the default ring capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder whose scopes keep at most `cap` events each
    /// (oldest evicted first; evictions counted).
    pub fn with_capacity(cap: usize) -> Self {
        Recorder(Some(Arc::new(RecorderCore {
            origin: Instant::now(),
            cap: cap.max(1),
            scopes: Mutex::new(Vec::new()),
        })))
    }

    /// The inert recorder: every derived scope is [`ObsScope::off`].
    pub const fn off() -> Self {
        Recorder(None)
    }

    /// Whether this recorder records anything.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Finds or creates the scope for `shard`, labelled `shard-N`.
    pub fn scope(&self, shard: u32) -> ObsScope {
        self.labeled_scope(shard, &format!("shard-{shard}"))
    }

    /// Finds or creates the fleet scope (placement / admission events).
    pub fn fleet_scope(&self) -> ObsScope {
        self.labeled_scope(FLEET_SCOPE, "fleet")
    }

    /// Finds or creates a scope with an explicit Chrome process label.
    /// The label of an existing scope is kept.
    pub fn labeled_scope(&self, shard: u32, label: &str) -> ObsScope {
        let Some(core) = &self.0 else {
            return ObsScope::off();
        };
        let mut scopes = core.scopes.lock().unwrap();
        if let Some(s) = scopes.iter().find(|s| s.shard == shard) {
            return ObsScope(Some(Arc::clone(s)));
        }
        let s = Arc::new(ScopeCore {
            shard,
            label: label.to_string(),
            origin: core.origin,
            registry: Registry::default(),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: core.cap,
                dropped: 0,
                next_seq: 0,
            }),
        });
        scopes.push(Arc::clone(&s));
        ObsScope(Some(s))
    }

    /// Every scope's events merged and sorted by `(ts_us, shard, seq)`.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(core) = &self.0 else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for s in core.scopes.lock().unwrap().iter() {
            out.extend(s.ring.lock().unwrap().buf.iter().cloned());
        }
        out.sort_by_key(|e| (e.ts_us, e.shard, e.seq));
        out
    }

    /// Scope ids and labels, in creation order.
    pub fn scope_labels(&self) -> Vec<(u32, String)> {
        self.0.as_ref().map_or_else(Vec::new, |core| {
            core.scopes
                .lock()
                .unwrap()
                .iter()
                .map(|s| (s.shard, s.label.clone()))
                .collect()
        })
    }

    /// Total events evicted from full rings across all scopes.
    pub fn dropped_events(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| {
            core.scopes
                .lock()
                .unwrap()
                .iter()
                .map(|s| s.ring.lock().unwrap().dropped)
                .sum()
        })
    }

    /// Per-scope metric snapshots, sorted by scope id.
    pub fn metrics(&self) -> RecorderMetrics {
        let mut scopes: Vec<ScopeMetrics> = self.0.as_ref().map_or_else(Vec::new, |core| {
            core.scopes
                .lock()
                .unwrap()
                .iter()
                .map(|s| ScopeMetrics {
                    scope: s.shard,
                    label: s.label.clone(),
                    metrics: s.registry.snapshot(),
                })
                .collect()
        });
        scopes.sort_by_key(|s| s.scope);
        RecorderMetrics {
            scopes,
            dropped_events: self.dropped_events(),
        }
    }
}

/// One scope's metrics, labelled.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ScopeMetrics {
    /// Scope id (Chrome trace pid).
    pub scope: u32,
    /// Scope label (`shard-N` or `fleet`).
    pub label: String,
    /// Instrument readings.
    pub metrics: MetricsSnapshot,
}

/// Metrics across every scope of a recorder — the `--metrics-out`
/// payload of `mixed_traffic`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct RecorderMetrics {
    /// Per-scope readings, sorted by scope id.
    pub scopes: Vec<ScopeMetrics>,
    /// Total ring evictions (0 means the trace is complete).
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_yields_inert_scopes() {
        let r = Recorder::off();
        let s = r.scope(0);
        assert!(!s.is_on());
        s.event(TraceKind::Accepted, 0, 1, 10, 1);
        assert!(s.events().is_empty());
        assert!(r.events().is_empty());
    }

    #[test]
    fn scopes_are_shared_by_id() {
        let r = Recorder::new();
        let a = r.scope(3);
        let b = r.scope(3);
        a.event(TraceKind::Accepted, 0, 1, 0, 0);
        b.event(TraceKind::Finalized, 0, 1, 0, 0);
        let evs = a.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[1].kind, TraceKind::Finalized);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = Recorder::with_capacity(4);
        let s = r.scope(0);
        for j in 0..10 {
            s.event(TraceKind::Quantum, 0, j, 0, 0);
        }
        let evs = s.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].job, 6);
        assert_eq!(r.dropped_events(), 6);
        // Seq numbers stay gapless even across evictions.
        assert_eq!(evs.last().unwrap().seq, 9);
    }

    #[test]
    fn merged_events_sorted_by_time_then_scope() {
        let r = Recorder::new();
        r.scope(1).event(TraceKind::Accepted, 0, 1, 0, 0);
        r.fleet_scope().event(TraceKind::Placed, 0, 1, 1, 0);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].ts_us, w[0].shard, w[0].seq) <= (w[1].ts_us, w[1].shard, w[1].seq)));
        let labels = r.scope_labels();
        assert_eq!(labels[0], (1, "shard-1".to_string()));
        assert_eq!(labels[1], (FLEET_SCOPE, "fleet".to_string()));
    }
}
