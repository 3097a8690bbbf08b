//! Pins the heap cost of the cold path a compile-cache miss pays:
//! `Program::digest` allocates nothing, and assembling plus compiling a
//! program costs a number of allocations that does not grow with its
//! length beyond a few Vec doublings — no `String` per instruction from
//! formatting, no `Vec` per line from the assembler.
//!
//! The whole file is one test binary on purpose: the counting allocator
//! is global, and other tests' allocations would pollute the counts.

use quape_core::{CompiledJob, QuapeConfig};
use quape_isa::{assemble, Program};
use quape_workloads::feedback::feedback_chain;
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

fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// The round-trip text of a feedback chain, as a wire request carries it.
fn chain_text(rounds: usize) -> String {
    feedback_chain(0, rounds).expect("chain builds").to_string()
}

/// Allocations of `assemble` + `CompiledJob::compile` on `text`.
fn cold_path_allocs(text: &str) -> u64 {
    let (allocs, job) = allocs_of(|| {
        let program = assemble(text).expect("chain text assembles");
        CompiledJob::compile(QuapeConfig::uniprocessor(), program).expect("chain compiles")
    });
    assert!(job.program().len() > 1, "trivial program");
    allocs
}

#[test]
fn cold_path_allocations_do_not_grow_per_instruction() {
    let blocked = assemble(
        ".block w1 deps=none\n.step 0\n0 H q0\n1 CNOT q0, q1\n.step none\nSTOP\n.endblock\n\
         .block w2 deps=w1\n2 MEAS q1\nFMR r0, q1\nMRCE q1, q0, X, NONE\nSTOP\n.endblock\n",
    )
    .expect("blocked program assembles");
    let programs: [Program; 3] = [
        feedback_chain(0, 200).expect("chain builds"),
        feedback_chain(0, 2000).expect("chain builds"),
        blocked,
    ];
    for p in &programs {
        let (allocs, _) = allocs_of(|| p.digest());
        assert_eq!(allocs, 0, "Program::digest allocated {allocs} times");
    }

    let small = cold_path_allocs(&chain_text(200));
    let large = cold_path_allocs(&chain_text(2000));
    // Ten times the instructions cost only a few more Vec doublings
    // (the builder's instruction and step vectors).
    assert!(
        large <= small + 8,
        "a 10x longer program allocated {large} times against {small}"
    );
    assert_eq!((small, large), (34, 42), "cold-path allocations moved");
}
