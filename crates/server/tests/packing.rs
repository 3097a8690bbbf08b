//! Differential suite for claim batching: every batched job's
//! `JobResult` — full runs, mid-flight partials, and single-member
//! cancels — is bit-identical to its solo `ShotEngine` run, batching
//! adds no compile-cache traffic, and jobs batch exactly when their
//! priority and shot count agree.

use proptest::prelude::*;
use quape_core::{BatchAggregate, CompiledJob, QuapeConfig, ShotEngine};
use quape_isa::Program;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobRequest, JobServer, JobSource, Priority, ServerConfig};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain, parallel_rus};

fn cfg() -> QuapeConfig {
    QuapeConfig::superscalar(4)
}

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn server(threads: usize, quantum: u64, packer: bool) -> JobServer {
    JobServer::new(ServerConfig {
        threads,
        shot_quantum: quantum,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer,
    })
}

fn program(choice: u8) -> Program {
    match choice % 4 {
        0 => conditional_x(0).unwrap(),
        1 => feedback_chain(0, 5).unwrap(),
        2 => feedback_chain(1, 8).unwrap(),
        _ => mrce_feedback_chain(0, 6).unwrap(),
    }
}

fn solo_on(c: &QuapeConfig, program: &Program, shots: u64, seed: u64) -> BatchAggregate {
    let job = CompiledJob::compile(c.clone(), program.clone()).unwrap();
    ShotEngine::new(job, coin(c))
        .base_seed(seed)
        .threads(1)
        .run(shots)
        .aggregate
}

fn solo(program: &Program, shots: u64, seed: u64) -> BatchAggregate {
    solo_on(&cfg(), program, shots, seed)
}

fn request_on(c: &QuapeConfig, name: &str, program: Program, shots: u64, seed: u64) -> JobRequest {
    JobRequest::new(name, JobSource::Program(program), c.clone(), coin(c), shots).base_seed(seed)
}

fn request(name: &str, program: Program, shots: u64, seed: u64) -> JobRequest {
    request_on(&cfg(), name, program, shots, seed)
}

/// Batch mode with one worker forms the pack deterministically (every
/// submission is unstarted when `run()` begins), and every packed
/// job's aggregate is bit-identical to its solo run.
#[test]
fn packed_batch_is_bit_identical_to_solo_runs() {
    let srv = server(1, 4, true);
    let jobs: Vec<(Program, u64, u64)> = (0..6)
        .map(|i| (program(i % 4), 24u64, 500 + u64::from(i)))
        .collect();
    for (i, (p, shots, seed)) in jobs.iter().enumerate() {
        let _ = srv
            .submit(request(&format!("j{i}"), p.clone(), *shots, *seed))
            .unwrap();
    }
    let results = srv.run();
    assert_eq!(results.len(), jobs.len());
    let stats = srv.packer_stats();
    // All six share priority and shot count — the whole batching class
    // — so they land in one batch.
    assert_eq!(stats.packs_formed, 1, "{stats:?}");
    assert_eq!(stats.jobs_packed, 6);
    for (i, (p, shots, seed)) in jobs.iter().enumerate() {
        let r = results
            .iter()
            .find(|r| r.name == format!("j{i}"))
            .expect("result present");
        assert_eq!(r.shots, *shots);
        assert!(!r.cancelled);
        assert_eq!(r.aggregate, solo(p, *shots, *seed), "j{i} diverged");
    }
}

/// Mid-flight partial aggregates of a packed member are
/// prefix-consistent: at any observation point the partial equals a
/// solo run of exactly that many shots.
#[test]
fn packed_partials_are_prefix_consistent_mid_flight() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 2,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: true,
    });
    let shots = 2_000_000u64;
    let a = serving.submit(request("a", program(1), shots, 41)).unwrap();
    let b = serving.submit(request("b", program(2), shots, 42)).unwrap();
    let partial = loop {
        let p = a.partial_aggregate();
        if p.shots >= 8 {
            break p;
        }
        std::thread::yield_now();
    };
    assert_eq!(partial, solo(&program(1), partial.shots, 41));
    a.cancel();
    b.cancel();
    let ra = a.wait();
    assert!(ra.cancelled);
    assert!(ra.shots < shots);
    drop(serving);
}

/// Cancelling one member of a pack must not perturb the others: the
/// cancelled member finalizes as a prefix-consistent partial while its
/// packmate runs to completion bit-identical to solo.
#[test]
fn cancelling_one_member_leaves_the_others_bit_identical() {
    let serving = JobServer::serve(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: true,
    });
    let shots = 200_000u64;
    let victim = serving
        .submit(request("victim", program(0), shots, 7))
        .unwrap();
    let survivor = serving
        .submit(request("survivor", program(3), shots, 8))
        .unwrap();
    // Wait for both to make progress (if they packed, both advance in
    // lockstep; if not, the property must hold anyway).
    while victim.progress().shots_done == 0 || survivor.progress().shots_done == 0 {
        std::thread::yield_now();
    }
    victim.cancel();
    let rv = victim.wait();
    assert!(rv.cancelled);
    assert!(rv.shots < shots, "cancel must cut the victim short");
    // The victim's partial is prefix-consistent…
    assert_eq!(rv.aggregate, solo(&program(0), rv.shots, 7));
    // …and the survivor is untouched: full run, bit-identical.
    let rs = survivor.wait();
    assert!(!rs.cancelled);
    assert_eq!(rs.shots, shots);
    assert_eq!(rs.aggregate, solo(&program(3), shots, 8));
    drop(serving);
}

/// The compatibility rule is priority and shot count, nothing else: a
/// program with priority-dependent blocks and a pair on different
/// machine configs batch, and every member matches its solo run, while
/// different priorities or different shot counts never batch.
#[test]
fn packer_batches_exactly_equal_priority_and_shots() {
    // A priority-dependent program batches with a plain one.
    let rus = parallel_rus(0, 1).unwrap();
    assert!(rus
        .blocks()
        .iter()
        .any(|(_, info)| matches!(info.dependency, quape_isa::Dependency::Priority(_))));
    let srv = server(1, 4, true);
    let _ = srv.submit(request("rus", rus.clone(), 6, 1)).unwrap();
    let _ = srv.submit(request("plain", program(1), 6, 2)).unwrap();
    let results = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 1);
    assert_eq!(results[0].aggregate, solo(&rus, 6, 1));
    assert_eq!(results[1].aggregate, solo(&program(1), 6, 2));

    // Different machine configs batch; each member keeps its own.
    let other = QuapeConfig::multiprocessor(2);
    let srv = server(1, 4, true);
    let _ = srv.submit(request("x", program(0), 10, 1)).unwrap();
    let _ = srv
        .submit(request_on(&other, "y", program(2), 10, 2))
        .unwrap();
    let results = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 1);
    assert_eq!(results[0].aggregate, solo(&program(0), 10, 1));
    assert_eq!(results[1].aggregate, solo_on(&other, &program(2), 10, 2));

    // Different shot counts: never batched.
    let srv = server(1, 4, true);
    let _ = srv.submit(request("x", program(0), 10, 1)).unwrap();
    let _ = srv.submit(request("y", program(1), 11, 2)).unwrap();
    assert_eq!(srv.run().len(), 2);
    assert_eq!(srv.packer_stats().packs_formed, 0);

    // Different priorities: never batched.
    let srv = server(1, 4, true);
    let _ = srv
        .submit(request("x", program(0), 10, 1).priority(Priority::High))
        .unwrap();
    let _ = srv
        .submit(request("y", program(0), 10, 2).priority(Priority::Low))
        .unwrap();
    assert_eq!(srv.run().len(), 2);
    assert_eq!(srv.packer_stats().packs_formed, 0);
}

/// Batching changes who claims together, nothing about compilation:
/// the same stream served with and without it makes the same
/// compile-cache lookups and compiles.
#[test]
fn batching_adds_no_compile_cache_traffic() {
    let serve = |packer: bool| {
        let srv = server(1, 4, packer);
        for i in 0..12u8 {
            let _ = srv
                .submit(request(&format!("j{i}"), program(i), 8, u64::from(i)))
                .unwrap();
        }
        let results = srv.run();
        assert_eq!(results.len(), 12);
        srv
    };
    let plain = serve(false);
    let batched = serve(true);
    assert!(batched.packer_stats().packs_formed >= 1);
    assert_eq!(plain.packer_stats().packs_formed, 0);
    assert_eq!(batched.cache_stats(), plain.cache_stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random program pairs with one shot count: batching keeps every
    /// member's aggregate solo-identical, whatever the programs, shot
    /// count and seeds.
    #[test]
    fn packed_pairs_match_solo_engine_on_random_programs(
        a in 0u8..4,
        b in 0u8..4,
        shots in 1u64..48,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let srv = server(1, 4, true);
        let _ = srv.submit(request("a", program(a), shots, seed_a)).unwrap();
        let _ = srv.submit(request("b", program(b), shots, seed_b)).unwrap();
        let results = srv.run();
        prop_assert_eq!(results.len(), 2);
        prop_assert_eq!(srv.packer_stats().packs_formed, 1);
        let ra = results.iter().find(|r| r.name == "a").unwrap();
        let rb = results.iter().find(|r| r.name == "b").unwrap();
        prop_assert_eq!(&ra.aggregate, &solo(&program(a), shots, seed_a));
        prop_assert_eq!(&rb.aggregate, &solo(&program(b), shots, seed_b));
    }
}
