//! Ablation studies over the design choices DESIGN.md calls out,
//! reporting *simulated* metrics:
//!
//! * prefetching on/off for the multiprocessor (block-switch latency);
//! * fast context switch on/off (active reset + RB);
//! * superscalar width sweep on hs16 (saturation at the step width);
//! * scheduler sensitivity to block granularity (the §7 observation that
//!   overly fine-grained blocks hurt).

use quape_bench::table::TextTable;
use quape_compiler::Compiler;
use quape_core::{ces_report_paper, CompiledJob, QuapeConfig};
use quape_isa::{ClassicalOp, Dependency, Gate1, ProgramBuilder, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpu, CliffordGroup, MeasurementModel};
use quape_workloads::benchmarks::hs16;
use quape_workloads::rb::active_reset_with_rb;
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};

fn mean_shor_ns(cfg_base: &QuapeConfig, runs: usize) -> f64 {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("valid workload");
    let job = CompiledJob::compile(cfg_base.clone(), w.program).expect("valid machine");
    let mut total = 0u64;
    for i in 0..runs as u64 {
        let model = ShorSyndrome::measurement_model(0.25);
        let qpu = BehavioralQpu::new(cfg_base.timings, model, i);
        total += job
            .shot(Box::new(qpu), i)
            .run_with_limit(2_000_000)
            .execution_time_ns();
    }
    total as f64 / runs as f64
}

fn ablate_prefetch(runs: usize) {
    println!("— Prefetch ablation (Shor syndrome, 6 processors, f = 0.25) —");
    let mut t = TextTable::new(["prefetch", "mean time (ns)"]);
    for prefetch in [true, false] {
        let mut cfg = QuapeConfig::multiprocessor(6);
        cfg.prefetch = prefetch;
        t.row([
            prefetch.to_string(),
            format!("{:.0}", mean_shor_ns(&cfg, runs)),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_fcs() {
    println!("— Fast-context-switch ablation (active reset + RB) —");
    let group = CliffordGroup::new();
    let program = active_reset_with_rb(&group, 0, 1, 16, 3)
        .expect("valid workload")
        .program;
    let mut t = TextTable::new(["fast context switch", "execution time (ns)"]);
    for fcs in [true, false] {
        let mut cfg = QuapeConfig::superscalar(8).with_seed(5);
        cfg.fast_context_switch = fcs;
        cfg.daq_jitter_ns = 0;
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, 5);
        let ns = CompiledJob::compile(cfg, program.clone())
            .expect("valid machine")
            .shot(Box::new(qpu), 5)
            .run()
            .execution_time_ns();
        t.row([fcs.to_string(), ns.to_string()]);
    }
    println!("{}", t.render());
}

fn ablate_width() {
    println!("— Superscalar width sweep (hs16 average TR) —");
    let program = Compiler::new().compile(&hs16()).expect("compiles");
    let mut t = TextTable::new(["width", "avg TR", "improvement vs scalar"]);
    let mut scalar_tr = None;
    for width in [1usize, 2, 4, 8, 16] {
        let cfg = QuapeConfig::superscalar(width).with_seed(5);
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 5);
        let report = CompiledJob::compile(cfg, program.clone())
            .expect("valid machine")
            .shot(Box::new(qpu), 5)
            .run();
        let tr = ces_report_paper(&report).average_tr();
        let base = *scalar_tr.get_or_insert(tr);
        t.row([
            width.to_string(),
            format!("{tr:.2}"),
            format!("{:.2}x", base / tr),
        ]);
    }
    println!("{}", t.render());
}

/// 64 two-instruction blocks vs 8 sixteen-instruction blocks: same work,
/// very different scheduling pressure.
fn ablate_granularity() {
    println!("— Block-granularity ablation (same 128 gates, 4 processors) —");
    let build = |blocks: usize| {
        let per_block = 128 / blocks;
        let mut b = ProgramBuilder::new();
        for i in 0..blocks {
            b.begin_block(format!("g{i}"), Dependency::Priority(0));
            for j in 0..per_block {
                let q = ((i * per_block + j) % 32) as u16;
                b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
            }
            b.push(ClassicalOp::Stop);
            b.end_block();
        }
        b.finish().expect("valid program")
    };
    let mut t = TextTable::new(["blocks", "instructions each", "execution time (ns)"]);
    for blocks in [4usize, 8, 16, 32, 64] {
        let program = build(blocks);
        let cfg = QuapeConfig::multiprocessor(4).with_seed(5);
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 5);
        let ns = CompiledJob::compile(cfg, program)
            .expect("valid machine")
            .shot(Box::new(qpu), 5)
            .run()
            .execution_time_ns();
        t.row([
            blocks.to_string(),
            (128 / blocks + 1).to_string(),
            ns.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(fine-grained blocks overwhelm the one-action-per-cycle scheduler, §7)");
}

fn main() {
    let runs = std::env::args()
        .position(|a| a == "--runs")
        .map_or(50, |i| {
            std::env::args()
                .nth(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--runs needs a number")
        });
    ablate_prefetch(runs);
    ablate_fcs();
    ablate_width();
    ablate_granularity();
}
