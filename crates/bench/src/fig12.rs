//! Fig. 12: execution time of the seven benchmarks on a two-core
//! implementation vs the uniprocessor.

use quape_compiler::{partition_two_blocks, Compiler};
use quape_core::{CompiledJob, QuapeConfig, RunReport};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::benchmark_suite;
use serde::{Deserialize, Serialize};

/// One benchmark's two-core result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Uniprocessor execution time (ns).
    pub uniprocessor_ns: u64,
    /// Two-core execution time (ns).
    pub two_core_ns: u64,
    /// Speedup (uniprocessor / two-core).
    pub speedup: f64,
    /// Program blocks after partitioning.
    pub blocks: usize,
    /// Sections that could run in parallel.
    pub parallel_sections: usize,
}

fn run_once(cfg: QuapeConfig, program: quape_isa::Program) -> RunReport {
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 11);
    let job = CompiledJob::compile(cfg, program).expect("valid machine");
    let report = job.shot(Box::new(qpu), job.cfg().seed).run();
    assert!(
        matches!(report.stop, quape_core::StopReason::Completed),
        "benchmark did not complete: {:?}",
        report.stop
    );
    report
}

/// Runs the full Fig. 12 experiment.
pub fn run() -> Vec<Fig12Row> {
    let compiler = Compiler::new();
    benchmark_suite()
        .into_iter()
        .map(|b| {
            let (program, part) =
                partition_two_blocks(&compiler, &b.circuit).expect("benchmark partitions");
            let uni = run_once(QuapeConfig::uniprocessor(), program.clone());
            let dual = run_once(QuapeConfig::multiprocessor(2), program);
            let uni_ns = uni.execution_time_ns();
            let dual_ns = dual.execution_time_ns();
            Fig12Row {
                benchmark: b.name.to_string(),
                uniprocessor_ns: uni_ns,
                two_core_ns: dual_ns,
                speedup: uni_ns as f64 / dual_ns as f64,
                blocks: part.blocks,
                parallel_sections: part.parallel_sections,
            }
        })
        .collect()
}

/// Mean speedup across the suite (the paper's 1.30×).
pub fn average_speedup(rows: &[Fig12Row]) -> f64 {
    rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cores_never_slower_and_usually_faster() {
        let rows = run();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(
                r.speedup > 0.95,
                "{}: two-core {}ns vs uni {}ns",
                r.benchmark,
                r.two_core_ns,
                r.uniprocessor_ns
            );
        }
        let avg = average_speedup(&rows);
        assert!(
            (1.1..=1.6).contains(&avg),
            "average two-core speedup {avg:.3} outside the paper's ≈1.30 regime"
        );
    }
}
