//! Pins the heap cost of a full-report single shot: `job.shot(qpu, s)`
//! builds the lowered core the shot runs on, and an event-driven
//! `run()` allocates nothing beyond that core and its report — no
//! second (reference) core is built and thrown away.
//!
//! The whole file is one test binary on purpose: the counting allocator
//! is global, and other tests' allocations would pollute the counts.

use quape_core::{CompiledJob, QpuBackend, QuapeConfig};
use quape_isa::{ClassicalOp, Cond, Gate1, Program, ProgramBuilder, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc + realloc) flowing through the global
/// allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measure → FMR → conditional X feedback chain.
fn fmr_chain(rounds: usize) -> Program {
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
    b.finish().expect("valid fmr chain")
}

/// Allocations of each full-report shot of `job` for seeds 0–7,
/// counted from after the shot's QPU is built.
fn shot_allocs(job: &CompiledJob, model: &MeasurementModel) -> Vec<u64> {
    (0..8u64)
        .map(|s| {
            let qpu: Box<dyn QpuBackend> =
                Box::new(BehavioralQpu::new(job.cfg().timings, model.clone(), s));
            let before = ALLOCS.load(Ordering::Relaxed);
            let report = job.shot(qpu, s).run();
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(report.issued_count() > 0, "seed {s}: trivial run");
            allocs
        })
        .collect()
}

#[test]
fn full_report_shots_build_one_core() {
    let coin = MeasurementModel::Bernoulli { p_one: 0.5 };
    let chain = CompiledJob::compile(QuapeConfig::uniprocessor(), fmr_chain(64))
        .expect("fmr chain compiles");
    let per_shot = shot_allocs(&chain, &coin);
    assert!(
        per_shot.iter().all(|&a| a <= 51),
        "fmr_chain(64) shots must allocate <= 51 times each, got {per_shot:?}"
    );
    assert_eq!(per_shot, [51; 8], "fmr_chain(64) allocations moved");

    let shor = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("Shor generates");
    let shor =
        CompiledJob::compile(QuapeConfig::multiprocessor(6), shor.program).expect("Shor compiles");
    let total: u64 = shot_allocs(&shor, &coin).iter().sum();
    assert!(
        total <= 1140,
        "Shor syndrome shots must allocate <= 1140 times over seeds 0-7, got {total}"
    );
    assert_eq!(total, 1140, "Shor syndrome allocations moved");
}
