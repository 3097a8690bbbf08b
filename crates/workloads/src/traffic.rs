//! Mixed-traffic request streams for the multi-tenant job service.
//!
//! A quantum-cloud serving layer sees *heterogeneous* traffic: many
//! tenants, a handful of distinct experiment programs, wildly different
//! shot counts and priorities — and heavy repetition, because a tenant
//! iterating on an experiment resubmits the same program over and over.
//! [`mixed_traffic`] generates such a stream deterministically: requests
//! carry timed-QASM **source text** (what a wire protocol would carry),
//! drawn from a small pool of distinct programs reusing the paper's
//! workload generators, so a content-hash compile cache gets realistic
//! hit rates.

use crate::feedback::{conditional_x, feedback_chain, mrce_feedback_chain, rus_block};
use crate::multiprogramming::combine;
use crate::rb::rb_program;
use quape_isa::Program;
use quape_qpu::CliffordGroup;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One request of a traffic stream.
#[derive(Debug, Clone)]
pub struct TrafficRequest {
    /// Request name (`req<i>_<program>`), unique within the stream.
    pub name: String,
    /// Tenant id (`t<k>`): the paper's many-users-one-controller story
    /// needs per-tenant attribution for quotas and cache accounting.
    pub tenant: String,
    /// Timed-QASM source text of the program to run.
    pub source: String,
    /// Shots requested.
    pub shots: u64,
    /// Priority class: 0 = low, 1 = normal, 2 = high. Kept as a plain
    /// integer so this crate does not depend on the server's types.
    pub priority_class: u8,
    /// Index into the stream's program pool of the underlying distinct
    /// program.
    pub pool_index: usize,
}

/// The distinct programs mixed traffic draws from: feedback-bound chains
/// of several depths (long programs, DAQ-wait-dominated shots — the
/// compile-bound regime), an MRCE variant, a multiprogrammed RUS bundle,
/// a pulse-dense RB sequence, and the tiny Fig. 2 round trip.
pub fn program_pool() -> Vec<(&'static str, Program)> {
    let group = CliffordGroup::new();
    vec![
        (
            "fmr_chain_1600",
            feedback_chain(0, 1600).expect("valid workload"),
        ),
        (
            "fmr_chain_1000",
            feedback_chain(0, 1000).expect("valid workload"),
        ),
        (
            "fmr_chain_600",
            feedback_chain(0, 600).expect("valid workload"),
        ),
        (
            "mrce_chain_200",
            mrce_feedback_chain(0, 200).expect("valid workload"),
        ),
        (
            "rb_300",
            rb_program(&group, 0, 300, 17)
                .expect("valid workload")
                .program,
        ),
        (
            "rus_multiprog_x4",
            combine(&vec![rus_block(0).expect("valid workload"); 4]).expect("tasks combine"),
        ),
        ("cond_x", conditional_x(0).expect("valid workload")),
    ]
}

/// Generates a deterministic mixed-traffic stream of `requests` requests
/// from `seed`: programs drawn uniformly from [`program_pool`], shot
/// counts from {1, 2} weighted 5:1 toward 1 (calibration-dominated
/// traffic: tenants iterating on a program resubmit it over and over
/// with probe-sized shot counts, which is exactly the regime where
/// per-request recompilation hurts most — large batches amortize their
/// own compile and need no cache to run well), priorities from {low,
/// normal, high}.
pub fn mixed_traffic(seed: u64, requests: usize) -> Vec<TrafficRequest> {
    let pool: Vec<(String, String)> = program_pool()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p.to_string()))
        .collect();
    stream(&pool, seed, requests)
}

/// The one request-draw policy every stream generator shares: uniform
/// program pick from `pool`, shot counts from {1, 2} weighted 5:1,
/// three priority classes, four tenants. Keeping a single copy means
/// the generators can never drift apart statistically.
fn stream(pool: &[(String, String)], seed: u64, requests: usize) -> Vec<TrafficRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..requests)
        .map(|i| {
            let pool_index = rng.gen_range(0..pool.len());
            let (prog_name, source) = &pool[pool_index];
            let shots = [1, 1, 1, 1, 1, 2][rng.gen_range(0..6usize)];
            let priority_class = rng.gen_range(0..3u32) as u8;
            let tenant = format!("t{}", rng.gen_range(0..4u32));
            TrafficRequest {
                name: format!("req{i}_{prog_name}"),
                tenant,
                source: source.clone(),
                shots,
                priority_class,
                pool_index,
            }
        })
        .collect()
}

/// A pool of `distinct` structurally different feedback-chain programs
/// of growing depth — the program *catalog* of a multi-shard serving
/// fleet. Long chains make compilation (assembly + validation) the
/// dominant per-request cost when the cache misses, which is exactly
/// what sticky shard placement exists to avoid.
pub fn sized_program_pool(distinct: usize) -> Vec<(String, String)> {
    (0..distinct)
        .map(|i| {
            let depth = 200 + 55 * i;
            let program = feedback_chain((i % 2) as u16, depth).expect("valid workload");
            (format!("chain{depth}_q{}", i % 2), program.to_string())
        })
        .collect()
}

/// A deterministic traffic stream for the sharded front router, drawn
/// from [`sized_program_pool`]: `distinct` programs, probe-sized shot
/// counts ({1, 2}, 5:1), four tenants, three priorities. With more
/// distinct programs than any one shard's cache holds, placement policy
/// decides whether the fleet's caches partition the catalog (sticky) or
/// thrash on all of it (round-robin).
pub fn sharded_traffic(seed: u64, requests: usize, distinct: usize) -> Vec<TrafficRequest> {
    stream(&sized_program_pool(distinct.max(1)), seed, requests)
}

/// The distinct programs of the *small-job* stream: narrow spans (one
/// or two qubits) and short bodies. This is the multiprogramming regime
/// of §3.1.2 — jobs too small to amortize their own scheduling
/// overhead, which the server's claim batching serves in shared claims.
pub fn small_program_pool() -> Vec<(&'static str, Program)> {
    vec![
        ("cond_x", conditional_x(0).expect("valid workload")),
        ("chain_4", feedback_chain(0, 4).expect("valid workload")),
        ("chain2_6", feedback_chain(1, 6).expect("valid workload")),
        ("mrce_3", mrce_feedback_chain(0, 3).expect("valid workload")),
        ("rus", rus_block(0).expect("valid workload")),
    ]
}

/// A deterministic small-job-heavy stream for the packing benchmark:
/// every request draws from [`small_program_pool`], runs the same shot
/// count at the same priority, and names one of four tenants — so every
/// co-queued pair is batchable, and the packed-vs-interleaved
/// comparison measures claim batching, not stream skew.
pub fn small_job_traffic(seed: u64, requests: usize) -> Vec<TrafficRequest> {
    let pool: Vec<(String, String)> = small_program_pool()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p.to_string()))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..requests)
        .map(|i| {
            let pool_index = rng.gen_range(0..pool.len());
            let (prog_name, source) = &pool[pool_index];
            let tenant = format!("t{}", rng.gen_range(0..4u32));
            TrafficRequest {
                name: format!("req{i}_{prog_name}"),
                tenant,
                source: source.clone(),
                shots: 16,
                priority_class: 1,
                pool_index,
            }
        })
        .collect()
}

/// A hot-tenant admission-control stream: `hog_requests` bulk jobs of
/// `hog_shots` shots each from one tenant (`hog`), followed by
/// `mouse_requests` single-shot probes spread round-robin over three
/// interactive tenants (`mouse0`..`mouse2`). All requests run the same
/// tiny feedback program, so dispatch order — not program size — decides
/// who waits. This is the stream the admission-control layer's
/// starvation bound is proven against: the hog floods the fleet first,
/// and a fair front door must still dispatch every mouse probe within a
/// bounded number of hog shots.
pub fn hot_tenant_traffic(
    seed: u64,
    hog_requests: usize,
    mouse_requests: usize,
) -> Vec<TrafficRequest> {
    let source = conditional_x(0).expect("valid workload").to_string();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(hog_requests + mouse_requests);
    for i in 0..hog_requests {
        let hog_shots = [16, 16, 16, 24][rng.gen_range(0..4usize)];
        stream.push(TrafficRequest {
            name: format!("hog{i}_cond_x"),
            tenant: "hog".to_string(),
            source: source.clone(),
            shots: hog_shots,
            priority_class: 1,
            pool_index: 0,
        });
    }
    for i in 0..mouse_requests {
        stream.push(TrafficRequest {
            name: format!("mouse_req{i}_cond_x"),
            tenant: format!("mouse{}", i % 3),
            source: source.clone(),
            shots: 1,
            priority_class: 1,
            pool_index: 0,
        });
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a = mixed_traffic(3, 12);
        let b = mixed_traffic(3, 12);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.source, y.source);
            assert_eq!(x.shots, y.shots);
            assert_eq!(x.priority_class, y.priority_class);
        }
        // A different seed reshuffles the stream.
        let c = mixed_traffic(4, 12);
        assert!(a.iter().zip(&c).any(|(x, y)| x.pool_index != y.pool_index
            || x.shots != y.shots
            || x.priority_class != y.priority_class));
    }

    #[test]
    fn every_source_assembles_back() {
        for (name, program) in program_pool() {
            let text = program.to_string();
            let parsed = quape_isa::assemble(&text)
                .unwrap_or_else(|e| panic!("{name} does not round-trip: {e}"));
            assert_eq!(parsed.digest(), program.digest(), "{name}");
        }
    }

    #[test]
    fn long_streams_cover_the_pool_and_stay_bounded() {
        let pool_len = program_pool().len();
        let stream = mixed_traffic(0, 64);
        let mut seen = vec![false; pool_len];
        for r in &stream {
            assert!(r.pool_index < pool_len);
            assert!(matches!(r.shots, 1 | 2));
            assert!(r.priority_class < 3);
            seen[r.pool_index] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 requests cover every program");
    }

    #[test]
    fn small_job_stream_is_uniformly_packable() {
        let a = small_job_traffic(11, 32);
        let b = small_job_traffic(11, 32);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
        }
        // One shot count, one priority class: a single batching class,
        // so any co-queued pair is a batching candidate.
        assert!(a.iter().all(|r| r.shots == 16 && r.priority_class == 1));
        // Every pool program assembles and stays narrow (≤ 2 qubits).
        for (name, program) in small_program_pool() {
            let text = program.to_string();
            quape_isa::assemble(&text)
                .unwrap_or_else(|e| panic!("{name} does not round-trip: {e}"));
            assert!(program.num_qubits() <= 2, "{name} is not small");
        }
    }

    #[test]
    fn hot_tenant_stream_is_deterministic_and_shaped() {
        let a = hot_tenant_traffic(9, 20, 6);
        let b = hot_tenant_traffic(9, 20, 6);
        assert_eq!(a.len(), 26);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.shots, y.shots);
        }
        assert!(a[..20].iter().all(|r| r.tenant == "hog"));
        assert!(a[..20].iter().all(|r| matches!(r.shots, 16 | 24)));
        assert!(a[20..].iter().all(|r| r.tenant.starts_with("mouse")));
        assert!(a[20..].iter().all(|r| r.shots == 1));
        // One shared tiny program: the front door, not compile cost,
        // decides who waits.
        quape_isa::assemble(&a[0].source).expect("hot-tenant program assembles");
        assert!(a.iter().all(|r| r.source == a[0].source));
    }

    #[test]
    fn sharded_streams_are_deterministic_and_assemble() {
        let a = sharded_traffic(5, 24, 9);
        let b = sharded_traffic(5, 24, 9);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.pool_index, y.pool_index);
        }
        // Every distinct pool program round-trips through the assembler.
        for (name, source) in sized_program_pool(9) {
            quape_isa::assemble(&source)
                .unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
        }
        // Tenants come from the fixed four-tenant set.
        assert!(a
            .iter()
            .all(|r| matches!(r.tenant.as_str(), "t0" | "t1" | "t2" | "t3")));
    }
}
