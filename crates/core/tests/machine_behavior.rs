//! End-to-end behavioural tests of the QuAPE machine: timing control,
//! superscalar grouping, feedback control, fast context switch, block
//! scheduling and multiprocessor execution.

use quape_core::{ces_report_paper, CompiledJob, QuapeConfig, RunReport, StopReason};
use quape_isa::{assemble, QuantumOp};
use quape_qpu::{BehavioralQpu, MeasurementModel};

fn run(cfg: QuapeConfig, src: &str, model: MeasurementModel) -> RunReport {
    let program = assemble(src).expect("valid test program");
    let qpu = BehavioralQpu::new(cfg.timings, model, cfg.seed.wrapping_add(17));
    let seed = cfg.seed;
    CompiledJob::compile(cfg, program)
        .expect("valid machine")
        .shot(Box::new(qpu), seed)
        .run()
}

fn issue_times(report: &RunReport) -> Vec<(String, u64)> {
    report
        .issued
        .iter()
        .map(|o| (o.op.to_string(), o.time_ns))
        .collect()
}

#[test]
fn paper_listing_timing_is_exact() {
    // 0 H q0 / 0 H q1 / 1 CNOT: the H's issue simultaneously, the CNOT
    // exactly one cycle (10 ns) later — the §2.2 semantics. (The listing
    // is illustrative: with 20 ns H pulses the CNOT physically overlaps,
    // which the QPU occupancy model duly reports.)
    let r = run(
        QuapeConfig::superscalar(4),
        "0 H q0\n0 H q1\n1 CNOT q0, q1\nSTOP\n",
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    let t = issue_times(&r);
    assert_eq!(t.len(), 3);
    assert_eq!(t[0].1, t[1].1, "parallel H gates must issue simultaneously");
    assert_eq!(
        t[2].1,
        t[0].1 + 10,
        "CNOT must follow after exactly 1 cycle"
    );
    assert_eq!(r.stats.late_issues, 0);

    // With a 2-cycle label the schedule is physically clean as well.
    let r2 = run(
        QuapeConfig::superscalar(4),
        "0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n",
        MeasurementModel::AlwaysZero,
    );
    assert!(r2.timing_clean());
}

#[test]
fn scalar_skews_parallel_ops() {
    // On a 1-wide machine, 4 "simultaneous" ops cannot issue together:
    // the QCP falls behind and the ops spread out in time (late issues).
    let src = "0 H q0\n0 H q1\n0 H q2\n0 H q3\nSTOP\n";
    let r = run(
        QuapeConfig::scalar_baseline(),
        src,
        MeasurementModel::AlwaysZero,
    );
    let times: Vec<u64> = r.issued.iter().map(|o| o.time_ns).collect();
    assert_eq!(times.len(), 4);
    assert!(
        times.windows(2).all(|w| w[1] > w[0]),
        "scalar issue must skew: {times:?}"
    );
    assert!(r.stats.late_issues > 0, "lateness must be recorded");

    // The 8-way superscalar issues all four together.
    let r8 = run(
        QuapeConfig::superscalar(8),
        src,
        MeasurementModel::AlwaysZero,
    );
    let times8: Vec<u64> = r8.issued.iter().map(|o| o.time_ns).collect();
    assert!(
        times8.iter().all(|&t| t == times8[0]),
        "superscalar must group: {times8:?}"
    );
    assert_eq!(r8.stats.late_issues, 0);
}

#[test]
fn qwait_advances_the_timeline() {
    let r = run(
        QuapeConfig::superscalar(4),
        "0 X q0\nQWAIT 50\n0 Y q0\nSTOP\n",
        MeasurementModel::AlwaysZero,
    );
    let t = issue_times(&r);
    assert_eq!(t[1].1 - t[0].1, 500, "QWAIT 50 = 500 ns gap, got {t:?}");
}

#[test]
fn buffered_group_recombines_across_fetches() {
    // 8 parallel ops on a 4-wide machine: two fetch groups, but the
    // pre-decoder recombines zero-label instructions — all 8 ops carry
    // the same timestamp even though dispatch takes 2 cycles (the later
    // half is late by 1 cycle but catches up via the timing queue).
    let mut src = String::new();
    for i in 0..8 {
        src.push_str(&format!("0 H q{i}\n"));
    }
    src.push_str("STOP\n");
    let cfg = QuapeConfig::superscalar(8);
    let r = run(cfg, &src, MeasurementModel::AlwaysZero);
    let times: Vec<u64> = r.issued.iter().map(|o| o.time_ns).collect();
    assert!(
        times.iter().all(|&t| t == times[0]),
        "all 8 issue together: {times:?}"
    );
}

#[test]
fn feedback_latency_matches_paper_450ns() {
    // MEAS → FMR → conditional X: end-to-end feedback latency should be
    // ≈ 450 ns (readout 300 + DAQ 120..150 + QCP conditional cycles).
    let src = "0 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR NE, skip\n0 X q0\nskip: STOP\n";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysOne,
    );
    assert_eq!(
        r.issued.len(),
        2,
        "measure + conditional X: {:?}",
        issue_times(&r)
    );
    let latency = r.issued[1].time_ns - r.issued[0].time_ns;
    assert!(
        (420..=520).contains(&latency),
        "feedback latency {latency} ns outside the expected ≈450 ns window"
    );
    assert!(r.stats.processors[0].measure_wait_cycles > 20);
}

#[test]
fn feedback_branch_not_taken_issues_nothing() {
    let src = "0 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR NE, skip\n0 X q0\nskip: STOP\n";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.issued.len(), 1, "no conditional X when result is 0");
}

#[test]
fn rus_loop_terminates_on_success() {
    // Repeat-until-success: measure, loop back while the outcome is 1.
    // AlwaysZero succeeds on the first try; the loop runs exactly once.
    let src = "top: 0 X q0\n2 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    assert_eq!(r.issued.len(), 2); // one X + one MEAS
    assert_eq!(r.measurements.len(), 1);
}

#[test]
fn rus_loop_repeats_on_failure() {
    // Bernoulli failures: across seeds the loop must retry at least once
    // somewhere, and every round re-measures exactly once.
    let src = "top: 0 X q0\n2 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n";
    let mut saw_retry = false;
    for seed in 0..10 {
        let cfg = QuapeConfig::uniprocessor().with_seed(seed);
        let r = run(cfg, src, MeasurementModel::Bernoulli { p_one: 0.7 });
        assert_eq!(r.stop, StopReason::Completed);
        let xs = r
            .issued
            .iter()
            .filter(|o| matches!(o.op, QuantumOp::Gate1(..)))
            .count();
        assert_eq!(xs, r.measurements.len(), "one X per round (seed {seed})");
        assert!(
            !r.measurements.last().expect("at least one round").value,
            "loop exits on 0"
        );
        if r.measurements.len() >= 2 {
            saw_retry = true;
        }
    }
    assert!(
        saw_retry,
        "no seed out of 10 produced a retry at p(fail)=0.7"
    );
}

#[test]
fn mrce_active_reset_issues_conditional() {
    let src = "0 MEAS q0\nMRCE q0, q0, X, NONE\nSTOP\n";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysOne,
    );
    assert_eq!(r.stop, StopReason::Completed);
    assert_eq!(
        r.issued.len(),
        2,
        "measure + reset X: {:?}",
        issue_times(&r)
    );
    assert_eq!(r.stats.processors[0].context_switches, 1);
}

#[test]
fn mrce_does_nothing_on_zero_outcome() {
    let src = "0 MEAS q0\nMRCE q0, q0, X, NONE\nSTOP\n";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.issued.len(), 1);
    assert_eq!(r.stats.processors[0].context_switches, 1);
}

#[test]
fn mrce_lets_unrelated_work_proceed() {
    // While the active reset of q0 waits for its result, gates on q1
    // keep flowing — the §5.4 scenario (RB during active reset).
    let src = "\
0 MEAS q0
MRCE q0, q0, X, NONE
0 H q1
1 H q1
1 H q1
1 H q1
STOP
";
    let cfg = QuapeConfig::uniprocessor();
    let r = run(cfg.clone(), src, MeasurementModel::AlwaysOne);
    assert_eq!(r.stop, StopReason::Completed);
    // The H gates issue long before the measurement result returns.
    let meas_t = r.issued[0].time_ns;
    let h_times: Vec<u64> = r
        .issued
        .iter()
        .filter(|o| o.op.qubits().any(|q| q.index() == 1))
        .map(|o| o.time_ns)
        .collect();
    assert_eq!(h_times.len(), 4);
    let result_arrival = meas_t + cfg.timings.readout_pulse_ns + cfg.daq_base_ns;
    assert!(
        h_times.iter().all(|&t| t < result_arrival),
        "H gates must not wait for the measurement: {h_times:?} vs {result_arrival}"
    );
    // And the conditional X still fires afterwards.
    assert_eq!(r.issued.len(), 6);
}

#[test]
fn mrce_without_fcs_stalls_instead() {
    let src = "\
0 MEAS q0
MRCE q0, q0, X, NONE
0 H q1
STOP
";
    let mut cfg = QuapeConfig::uniprocessor();
    cfg.fast_context_switch = false;
    let r = run(cfg.clone(), src, MeasurementModel::AlwaysOne);
    // Without FCS the H waits for the whole feedback round-trip.
    let meas_t = r.issued[0].time_ns;
    let h_t = r
        .issued
        .iter()
        .find(|o| o.op.qubits().any(|q| q.index() == 1))
        .map(|o| o.time_ns)
        .expect("H was issued");
    assert!(
        h_t >= meas_t + cfg.timings.readout_pulse_ns,
        "H at {h_t} should have stalled past the readout pulse"
    );
    assert_eq!(r.stats.processors[0].context_switches, 0);
}

#[test]
fn mrce_dependent_gate_waits_for_context() {
    // A gate on the context's target qubit must not overtake the pending
    // conditional operation.
    let src = "\
0 MEAS q0
MRCE q0, q0, X, NONE
0 H q0
STOP
";
    let cfg = QuapeConfig::uniprocessor();
    let r = run(cfg.clone(), src, MeasurementModel::AlwaysOne);
    assert_eq!(r.issued.len(), 3);
    // Order: MEAS, conditional X, then H.
    assert!(matches!(
        r.issued[1].op,
        QuantumOp::Gate1(quape_isa::Gate1::X, _)
    ));
    assert!(matches!(
        r.issued[2].op,
        QuantumOp::Gate1(quape_isa::Gate1::H, _)
    ));
    assert!(r.stats.processors[0].context_dependency_stalls > 0);
}

#[test]
fn blocks_execute_in_dependency_order() {
    let src = "\
.block w1 deps=none
0 X q0
STOP
.endblock
.block w2 deps=w1
0 Y q0
STOP
.endblock
";
    let r = run(
        QuapeConfig::multiprocessor(2),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    assert_eq!(r.issued.len(), 2);
    assert!(
        r.issued[0].time_ns < r.issued[1].time_ns,
        "w2 must wait for w1"
    );
}

#[test]
fn parallel_blocks_overlap_on_multiprocessor() {
    // Two independent RUS-free blocks with a long serial gate chain each.
    let mut src = String::from(".block w1 prio=0\n");
    for _ in 0..20 {
        src.push_str("2 X q0\n");
    }
    src.push_str("STOP\n.endblock\n.block w2 prio=0\n");
    for _ in 0..20 {
        src.push_str("2 X q1\n");
    }
    src.push_str("STOP\n.endblock\n");

    let uni = run(
        QuapeConfig::uniprocessor(),
        &src,
        MeasurementModel::AlwaysZero,
    );
    let dual = run(
        QuapeConfig::multiprocessor(2),
        &src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(uni.issued.len(), 40);
    assert_eq!(dual.issued.len(), 40);
    assert!(
        dual.execution_time_ns() * 3 < uni.execution_time_ns() * 2,
        "two processors should be much faster: {} vs {}",
        dual.execution_time_ns(),
        uni.execution_time_ns()
    );
}

#[test]
fn priority_levels_serialize() {
    let src = "\
.block a prio=0
0 X q0
STOP
.endblock
.block b prio=0
0 X q1
STOP
.endblock
.block c prio=1
0 CNOT q0, q1
STOP
.endblock
";
    let r = run(
        QuapeConfig::multiprocessor(2),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    let cnot_t = r
        .issued
        .iter()
        .find(|o| matches!(o.op, QuantumOp::Gate2(..)))
        .expect("CNOT issued")
        .time_ns;
    for o in r
        .issued
        .iter()
        .filter(|o| matches!(o.op, QuantumOp::Gate1(..)))
    {
        assert!(
            o.time_ns < cnot_t,
            "priority 1 block ran before priority 0 finished"
        );
    }
}

#[test]
fn ideal_scheduler_is_never_slower() {
    let mut src = String::new();
    for b in 0..6 {
        src.push_str(&format!(".block w{b} prio={}\n", b / 2));
        for _ in 0..10 {
            src.push_str(&format!("1 X q{b}\n"));
        }
        src.push_str("STOP\n.endblock\n");
    }
    let real = run(
        QuapeConfig::multiprocessor(2),
        &src,
        MeasurementModel::AlwaysZero,
    );
    let ideal = run(
        QuapeConfig::multiprocessor(2).ideal(),
        &src,
        MeasurementModel::AlwaysZero,
    );
    assert!(ideal.execution_time_ns() <= real.execution_time_ns());
}

#[test]
fn ces_matches_hand_computed_widths() {
    // Step of 16 parallel 1q gates: scalar CES = 16 (TR 8), 8-way CES = 2
    // (TR 1) — the hs16 saturation case of Fig. 13.
    let mut src = String::from(".step 0\n");
    for i in 0..16 {
        src.push_str(&format!("0 H q{i}\n"));
    }
    src.push_str(".step 1\n");
    for i in 0..16 {
        src.push_str(&format!("{} H q{i}\n", if i == 0 { 2 } else { 0 }));
    }
    src.push_str(".step none\nSTOP\n");

    let scalar = run(
        QuapeConfig::scalar_baseline(),
        &src,
        MeasurementModel::AlwaysZero,
    );
    let ces_scalar = ces_report_paper(&scalar);
    assert_eq!(ces_scalar.steps[1].ces, 16, "{ces_scalar}");
    assert!((ces_scalar.steps[1].tr - 8.0).abs() < 1e-9);

    let wide = run(
        QuapeConfig::superscalar(8),
        &src,
        MeasurementModel::AlwaysZero,
    );
    let ces_wide = ces_report_paper(&wide);
    assert_eq!(ces_wide.steps[1].ces, 2, "{ces_wide}");
    assert!((ces_wide.steps[1].tr - 1.0).abs() < 1e-9);
    assert!(ces_wide.meets_deadline());
}

#[test]
fn halt_stops_the_machine() {
    let r = run(
        QuapeConfig::uniprocessor(),
        "0 X q0\nHALT\n",
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Halted);
    assert_eq!(r.issued.len(), 1);
}

#[test]
fn determinism_under_equal_seeds() {
    let src = "top: 0 X q0\n2 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n";
    let go = || {
        let cfg = QuapeConfig::uniprocessor().with_seed(42);
        let r = run(cfg, src, MeasurementModel::Bernoulli { p_one: 0.5 });
        (r.cycles, issue_times(&r))
    };
    assert_eq!(go(), go());
}

#[test]
fn subroutine_call_and_return() {
    let src = "\
CALL sub
0 Y q0
STOP
NOP
sub: 0 X q0
RET
";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    let t = issue_times(&r);
    assert_eq!(t.len(), 2);
    assert!(t[0].0.starts_with("X"), "subroutine body first: {t:?}");
    assert!(t[1].0.starts_with("Y"));
}

#[test]
fn loop_with_counter_executes_n_times() {
    let src = "\
LDI r0, 5
top: 0 X q0
ADDI r0, r0, -1
CMPI r0, 0
BR GT, top
STOP
";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.issued.len(), 5);
}

#[test]
fn shared_registers_communicate_across_blocks() {
    let src = "\
.block w1 prio=0
LDI r1, 7
STS s0, r1
0 X q0
STOP
.endblock
.block w2 prio=1
LDS r2, s0
CMPI r2, 7
BR NE, bad
0 Y q1
JMP fin
bad: 0 Z q1
fin: STOP
.endblock
";
    let r = run(
        QuapeConfig::multiprocessor(2),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Completed);
    assert!(
        r.issued.iter().any(|o| o.op.to_string().starts_with("Y ")),
        "shared register value must reach block w2: {:?}",
        issue_times(&r)
    );
}

#[test]
fn qpu_never_sees_overlap_when_tr_le_1() {
    // A well-scheduled program on a wide machine produces zero timing
    // violations in the QPU occupancy model.
    let src = "\
.step 0
0 H q0
0 H q1
.step 1
2 CNOT q0, q1
.step 2
4 MEAS q0
0 MEAS q1
.step none
STOP
";
    let r = run(
        QuapeConfig::superscalar(8),
        src,
        MeasurementModel::AlwaysZero,
    );
    assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    assert!(r.timing_clean());
}

#[test]
fn cycle_limit_reports_timeout() {
    // An infinite loop must stop at the cycle budget.
    let src = "top: 0 X q0\nJMP top\n";
    let program = assemble(src).unwrap();
    let cfg = QuapeConfig::uniprocessor();
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 5);
    let r = CompiledJob::compile(cfg, program)
        .unwrap()
        .shot(Box::new(qpu), 0)
        .run_with_limit(2_000);
    assert_eq!(r.stop, StopReason::CycleLimit);
    assert_eq!(r.cycles, 2_000);
}

#[test]
fn ret_without_call_is_an_error() {
    let r = run(
        QuapeConfig::uniprocessor(),
        "RET\n",
        MeasurementModel::AlwaysZero,
    );
    assert_eq!(r.stop, StopReason::Error);
}

#[test]
fn context_store_overflow_stalls_then_recovers() {
    // Five simple feedback controls with a 4-entry context store: the
    // fifth MRCE stalls until a context resolves, then everything
    // completes.
    let mut src = String::new();
    for q in 0..5 {
        src.push_str(&format!("0 MEAS q{q}\n"));
    }
    for q in 0..5 {
        src.push_str(&format!("MRCE q{q}, q{q}, X, NONE\n"));
    }
    src.push_str("STOP\n");
    let r = run(
        QuapeConfig::superscalar(8),
        &src,
        MeasurementModel::AlwaysOne,
    );
    assert_eq!(r.stop, StopReason::Completed);
    // 5 measures + 5 conditional X's.
    assert_eq!(r.issued.len(), 10, "{:?}", issue_times(&r));
    // The first four park in the context store; by the time the stalled
    // fifth MRCE retries, its own result is already valid, so it issues
    // directly without a switch.
    assert_eq!(r.stats.processors[0].context_switches, 4);
    assert!(
        r.stats.processors[0].measure_wait_cycles > 0,
        "fifth MRCE must have stalled"
    );
}

#[test]
fn minimal_predecode_buffer_still_executes() {
    let mut cfg = QuapeConfig::superscalar(4);
    cfg.predecode_buffer = 4; // exactly one fetch group
    let mut src = String::new();
    for i in 0..16 {
        src.push_str(&format!("0 H q{i}\n"));
    }
    src.push_str("STOP\n");
    let r = run(cfg, &src, MeasurementModel::AlwaysZero);
    assert_eq!(r.stop, StopReason::Completed);
    assert_eq!(r.issued.len(), 16);
}

#[test]
fn wide_machine_on_serial_code_changes_nothing() {
    // A fully serial chain must produce identical issue times on the
    // scalar and the 16-way machine (QOLP cannot invent parallelism).
    let src = "0 X q0\n2 X q0\n2 X q0\n2 X q0\nSTOP\n";
    let scalar = run(
        QuapeConfig::scalar_baseline(),
        src,
        MeasurementModel::AlwaysZero,
    );
    let wide = run(
        QuapeConfig::superscalar(16),
        src,
        MeasurementModel::AlwaysZero,
    );
    let deltas = |r: &RunReport| {
        r.issued
            .windows(2)
            .map(|w| w[1].time_ns - w[0].time_ns)
            .collect::<Vec<_>>()
    };
    assert_eq!(deltas(&scalar), deltas(&wide));
    assert_eq!(deltas(&wide), vec![20, 20, 20]);
}

#[test]
fn block_events_trace_status_flow() {
    let src = "\
.block w1 deps=none
0 X q0
STOP
.endblock
.block w2 deps=w1
0 Y q0
STOP
.endblock
";
    let r = run(
        QuapeConfig::uniprocessor(),
        src,
        MeasurementModel::AlwaysZero,
    );
    use quape_isa::{BlockId, BlockStatus};
    let w2: Vec<BlockStatus> = r
        .block_events
        .iter()
        .filter(|e| e.block == BlockId(1))
        .map(|e| e.status)
        .collect();
    // W2 must pass through prefetch (or allocation) before execution and
    // end done.
    assert_eq!(*w2.last().expect("events for w2"), BlockStatus::Done);
    assert!(w2.contains(&BlockStatus::InExecution));
}
