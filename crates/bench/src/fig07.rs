//! Fig. 7: the scheduler status-register flow during prefetch and block
//! switching, reproduced as an event trace of the 4-block example circuit
//! of Fig. 6 / Table 1.

use quape_core::{BlockEvent, CompiledJob, QuapeConfig};
use quape_isa::{ClassicalOp, Dependency, Gate1, Gate2, Program, ProgramBuilder, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpu, MeasurementModel};

/// Builds the Fig. 6 example: W1 ∥ W2, then W3 (depends on both), then W4.
pub fn example_program() -> Program {
    let mut b = ProgramBuilder::new();
    let g = |q: u16| QuantumOp::Gate1(Gate1::H, Qubit::new(q));
    b.begin_block("W1", Dependency::none());
    for _ in 0..8 {
        b.quantum(2, g(0));
    }
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block("W2", Dependency::none());
    for _ in 0..8 {
        b.quantum(2, g(1));
    }
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block_named_deps("W3", &["W1", "W2"]);
    for _ in 0..4 {
        b.quantum(
            4,
            QuantumOp::Gate2(Gate2::Cnot, Qubit::new(0), Qubit::new(1)),
        );
    }
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block_named_deps("W4", &["W3"]);
    for _ in 0..4 {
        b.quantum(2, g(0));
    }
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.finish().expect("valid example program")
}

/// Runs the example on `n` processors and returns the status transitions.
pub fn run(processors: usize) -> Vec<BlockEvent> {
    let cfg = QuapeConfig::multiprocessor(processors);
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
    let job = CompiledJob::compile(cfg, example_program()).expect("valid machine");
    let report = job.shot(Box::new(qpu), job.cfg().seed).run();
    assert!(matches!(report.stop, quape_core::StopReason::Completed));
    report.block_events
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{BlockId, BlockStatus};

    #[test]
    fn w3_is_prefetched_before_it_executes() {
        let events = run(2);
        let w3: Vec<(u64, BlockStatus)> = events
            .iter()
            .filter(|e| e.block == BlockId(2))
            .map(|e| (e.cycle, e.status))
            .collect();
        let prefetch_at = w3.iter().find(|(_, s)| *s == BlockStatus::Prefetch);
        let exec_at = w3.iter().find(|(_, s)| *s == BlockStatus::InExecution);
        let (Some(p), Some(x)) = (prefetch_at, exec_at) else {
            panic!("W3 must pass through prefetch and execution: {w3:?}");
        };
        assert!(p.0 < x.0, "prefetch {} must precede execution {}", p.0, x.0);
    }

    #[test]
    fn all_blocks_finish_in_dependency_order() {
        let events = run(2);
        let done = |b: u16| {
            events
                .iter()
                .find(|e| e.block == BlockId(b) && e.status == BlockStatus::Done)
                .map(|e| e.cycle)
                .expect("block finished")
        };
        assert!(done(0) < done(2) && done(1) < done(2));
        assert!(done(2) < done(3));
    }
}
