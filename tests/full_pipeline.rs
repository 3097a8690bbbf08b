//! Integration tests spanning the whole stack: circuit IR → compiler →
//! binary encoding → machine → QPU → metrics.

use quape::prelude::*;

fn behavioral(cfg: &QuapeConfig, seed: u64) -> Box<BehavioralQpu> {
    Box::new(BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    ))
}

/// Every suite benchmark compiles, runs to completion on every standard
/// configuration, and issues exactly its gate count.
#[test]
fn every_benchmark_runs_on_every_config() {
    let compiler = Compiler::new();
    for bench in benchmark_suite() {
        let program = compiler.compile(&bench.circuit).expect("compiles");
        for cfg in [
            QuapeConfig::scalar_baseline(),
            QuapeConfig::superscalar(8),
            QuapeConfig::multiprocessor(2),
        ] {
            let report = CompiledJob::compile(cfg.clone(), program.clone())
                .expect("machine builds")
                .shot(behavioral(&cfg, 3), cfg.seed)
                .run();
            assert_eq!(report.stop, StopReason::Completed, "{}", bench.name);
            assert_eq!(
                report.issued_count(),
                bench.circuit.gate_count(),
                "{} issued a wrong op count",
                bench.name
            );
        }
    }
}

/// The superscalar machine respects the compiled schedule physically: on
/// the occupancy model no operation overlaps another on the same qubit.
#[test]
fn compiled_schedules_are_physically_clean_on_the_superscalar() {
    let compiler = Compiler::new();
    for bench in benchmark_suite() {
        let program = compiler.compile(&bench.circuit).expect("compiles");
        let cfg = QuapeConfig::superscalar(8);
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("machine builds")
            .shot(behavioral(&cfg, 5), cfg.seed)
            .run();
        assert!(
            report.violations.is_empty(),
            "{}: {} timing violations, first: {}",
            bench.name,
            report.violations.len(),
            report.violations[0]
        );
    }
}

/// Binary-level fidelity: encoding a program to 32-bit words and decoding
/// it back yields exactly the same machine behaviour.
#[test]
fn binary_roundtrip_preserves_machine_behaviour() {
    let compiler = Compiler::new();
    let bench = &benchmark_suite()[1]; // hs16
    let program = compiler.compile(&bench.circuit).expect("compiles");
    let words = program.encode_all().expect("encodes");
    let decoded = Program::from_words(&words).expect("decodes");

    let run = |p: Program| {
        let cfg = QuapeConfig::superscalar(8);
        let report = CompiledJob::compile(cfg.clone(), p)
            .expect("machine builds")
            .shot(behavioral(&cfg, 9), cfg.seed)
            .run();
        report
            .issued
            .iter()
            .map(|o| (o.time_ns, o.op))
            .collect::<Vec<_>>()
    };
    // The decoded program lost block/step metadata but must issue the
    // identical timed operation stream.
    assert_eq!(run(program), run(decoded));
}

/// The same seed ⇒ bit-identical run reports, across the whole stack.
#[test]
fn stack_is_deterministic() {
    let w = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("generates");
    let run = || {
        let cfg = QuapeConfig::multiprocessor(4).with_seed(21);
        let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.25), 21);
        let report = CompiledJob::compile(cfg, w.program.clone())
            .expect("machine builds")
            .shot(Box::new(qpu), 21)
            .run_with_limit(2_000_000);
        (
            report.cycles,
            report
                .issued
                .iter()
                .map(|o| (o.time_ns, o.op))
                .collect::<Vec<_>>(),
            report.measurements.clone(),
        )
    };
    assert_eq!(run(), run());
}

/// Two-block partitioning preserves the issued operation multiset
/// relative to the single-block compilation.
#[test]
fn partitioning_preserves_operations() {
    let compiler = Compiler::new();
    for bench in benchmark_suite() {
        let single = compiler.compile(&bench.circuit).expect("compiles");
        let (split, _) = partition_two_blocks(&compiler, &bench.circuit).expect("partitions");
        let ops = |p: &Program| {
            let mut v: Vec<String> = p
                .instructions()
                .iter()
                .filter_map(|i| i.as_quantum().map(|q| q.op.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(ops(&single), ops(&split), "{} lost operations", bench.name);
    }
}

/// The multiprocessor executes a partitioned program with the same
/// operation multiset as the uniprocessor (semantic equivalence of CLP).
#[test]
fn multiprocessor_preserves_issued_multiset() {
    let compiler = Compiler::new();
    let bench = &benchmark_suite()[2]; // ising_16
    let (program, _) = partition_two_blocks(&compiler, &bench.circuit).expect("partitions");
    let issued = |n: usize| {
        let cfg = QuapeConfig::multiprocessor(n);
        let report = CompiledJob::compile(cfg.clone(), program.clone())
            .expect("machine builds")
            .shot(behavioral(&cfg, 13), cfg.seed)
            .run();
        assert_eq!(report.stop, StopReason::Completed);
        let mut v: Vec<String> = report.issued.iter().map(|o| o.op.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(issued(1), issued(2));
}

/// CES accounting identity: the sum of per-step CES plus measurement
/// waits never exceeds the run length, and every tagged step appears.
#[test]
fn ces_accounting_is_consistent() {
    let compiler = Compiler::new();
    for bench in benchmark_suite() {
        let program = compiler.compile(&bench.circuit).expect("compiles");
        let steps_expected = program.num_steps();
        let cfg = QuapeConfig::superscalar(8);
        let report = CompiledJob::compile(cfg.clone(), program)
            .expect("machine builds")
            .shot(behavioral(&cfg, 1), cfg.seed)
            .run();
        let ces = ces_report_paper(&report);
        assert_eq!(ces.steps.len(), steps_expected, "{} lost steps", bench.name);
        let total_ces: u64 = ces.steps.iter().map(|s| s.ces).sum();
        assert!(
            total_ces + report.wait_cycles.len() as u64 <= report.cycles,
            "{}: CES {} + waits {} exceed run {}",
            bench.name,
            total_ces,
            report.wait_cycles.len(),
            report.cycles
        );
    }
}
