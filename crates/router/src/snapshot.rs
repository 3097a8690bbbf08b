//! The merged fleet snapshot: one serde-renderable value unifying every
//! shard's scheduler, compile-cache and packer counters with the
//! observability metric scopes and fleet-level recovery totals.
//!
//! Field order is declaration order (the serde shim serializes structs
//! in declaration order) and every collection is sorted — shards by
//! index, tenants by id, instruments by name — so two snapshots of the
//! same state render byte-identically and the JSON schema fingerprint
//! is stable across runs.

use quape_obs::MetricsSnapshot;
use quape_server::{CacheStats, PackerStats};

/// One shard's point-in-time state.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardSnapshot {
    /// Shard index (stable for the router's lifetime).
    pub shard: usize,
    /// Availability: `up`, `retiring`, or `down`.
    pub status: String,
    /// Shots accepted but not yet executed.
    pub backlog_shots: u64,
    /// Jobs queued or running, not yet finished.
    pub pending_jobs: u64,
    /// Compile-cache hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Claim-batching counters.
    pub packer: PackerStats,
    /// The shard scope's metric instruments (empty when observability
    /// is off).
    pub metrics: MetricsSnapshot,
}

/// One tenant's compile-cache counters, folded across every shard.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TenantStatsRow {
    /// Tenant id.
    pub tenant: String,
    /// Folded cache counters.
    pub cache: CacheStats,
}

/// A point-in-time snapshot of the whole fleet
/// ([`Router::fleet_snapshot`](crate::Router::fleet_snapshot)). Its
/// JSON shape is pinned by the committed `BENCH_fleet.json` sample
/// (`crates/bench/tests/fleet_snapshot.rs`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct FleetSnapshot {
    /// Per-shard state, by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// Per-tenant cache counters, sorted by tenant id.
    pub tenants: Vec<TenantStatsRow>,
    /// Jobs re-routed off dead or retiring shards.
    pub recovered_jobs: u64,
    /// Jobs moved by work stealing.
    pub stolen_jobs: u64,
    /// The fleet scope's metric instruments (placement/recovery/
    /// admission counters; empty when observability is off).
    pub fleet_metrics: MetricsSnapshot,
    /// Trace-ring evictions across every scope (0 means the recorded
    /// trace is complete).
    pub trace_events_dropped: u64,
}
