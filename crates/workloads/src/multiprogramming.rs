//! Multiprogramming (§3.1.2): "multiple tasks that are relatively
//! independent and supposed to be executed on the same QPU
//! simultaneously", improving quantum-cloud resource utilization.
//!
//! [`combine`] merges independent programs into one multiprogrammed
//! workload: each task's qubits are relocated to a disjoint region, its
//! branch targets are relocated to the new address space, and its blocks
//! enter the block information table with no cross-task dependencies —
//! the scheduler's dependency check then lets every task run as soon as
//! a processor is free, which the paper calls pre-determined allocation.
//! Relocation itself is the audited ISA rule
//! ([`quape_isa::Instruction::relocated`]); this module only chooses
//! the offsets: task *i* starts at the prefix sums of the earlier tasks'
//! qubit widths and instruction counts.

use quape_isa::{
    qubit_span, BlockInfo, BlockInfoTable, Dependency, Instruction, Program, ProgramError, StepId,
};
use std::fmt;

/// Errors from combining programs.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineError {
    /// No input programs were given.
    Empty,
    /// The combined qubit count exceeds the 7-bit qubit address space.
    TooManyQubits {
        /// Qubits required by the combination.
        required: u32,
    },
    /// Program assembly failed.
    Program(ProgramError),
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineError::Empty => write!(f, "no programs to combine"),
            CombineError::TooManyQubits { required } => {
                write!(
                    f,
                    "combined workload needs {required} qubits, exceeding the ISA limit"
                )
            }
            CombineError::Program(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CombineError {}

impl From<ProgramError> for CombineError {
    fn from(e: ProgramError) -> Self {
        CombineError::Program(e)
    }
}

/// Combines independent programs into one multiprogrammed workload.
///
/// Task *i*'s qubits move up by the sum of the earlier tasks' widths; its
/// block table entries (or an implicit whole-task block) are appended
/// with `Dependency::none()`, so the multiprocessor may run every task
/// concurrently. Step tags are discarded (CES is a single-task metric).
///
/// # Errors
///
/// Returns [`CombineError::Empty`] for an empty input and
/// [`CombineError::TooManyQubits`] when the tasks exceed the qubit
/// address space.
pub fn combine(programs: &[Program]) -> Result<Program, CombineError> {
    if programs.is_empty() {
        return Err(CombineError::Empty);
    }
    let total_qubits: u32 = programs.iter().map(|p| u32::from(p.num_qubits())).sum();
    if total_qubits > quape_isa::MAX_QUBITS as u32 {
        return Err(CombineError::TooManyQubits {
            required: total_qubits,
        });
    }

    let mut instructions: Vec<Instruction> = Vec::new();
    let mut table = BlockInfoTable::new();
    let mut qubit_offset: u16 = 0;
    for (task, p) in programs.iter().enumerate() {
        let addr_offset = instructions.len() as u32;
        let block_start = table.len() as u16;
        for instr in p.instructions() {
            instructions.push(instr.relocated(qubit_offset, addr_offset));
        }
        if p.blocks().is_empty() {
            table
                .push(BlockInfo::new(
                    format!("task{task}"),
                    addr_offset..addr_offset + p.len() as u32,
                    Dependency::none(),
                ))
                .map_err(ProgramError::from)?;
        } else {
            // A task-local block id `d` becomes `block_start + d` in the
            // combined table; dependencies never cross tasks.
            for (_, info) in p.blocks().iter() {
                let dep = match &info.dependency {
                    Dependency::Direct(deps) => Dependency::Direct(
                        deps.iter()
                            .map(|d| quape_isa::BlockId(block_start + d.0))
                            .collect(),
                    ),
                    Dependency::Priority(_) => {
                        // Priority entries cannot mix with the direct
                        // entries of other tasks in one table; priority
                        // tasks flatten to unconstrained blocks (their
                        // internal order is then over-parallelized —
                        // callers combining priority tasks should convert
                        // them to direct chains first).
                        Dependency::none()
                    }
                };
                table
                    .push(BlockInfo::new(
                        format!("task{task}_{}", info.name),
                        addr_offset + info.range.start..addr_offset + info.range.end,
                        dep,
                    ))
                    .map_err(ProgramError::from)?;
            }
        }
        qubit_offset += p.num_qubits();
    }
    debug_assert_eq!(
        u32::from(qubit_span(
            instructions
                .iter()
                .flat_map(|i| i.referenced_qubits())
                .map(|q| q.index())
        )),
        // Members that reference no qubits still reserve zero-width
        // regions, so the combined span equals the sum of member spans.
        total_qubits,
    );
    let step_map: Vec<Option<StepId>> = vec![None; instructions.len()];
    Ok(Program::with_parts(instructions, table, step_map)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::rus_block;
    use quape_isa::{assemble, ClassicalOp, QuantumOp};

    #[test]
    fn combine_relocates_qubits_and_targets() {
        let a =
            assemble("top: 0 X q0\n1 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n").unwrap();
        let b = assemble("0 H q0\n0 H q1\nSTOP\n").unwrap();
        let combined = combine(&[a.clone(), b]).unwrap();
        assert_eq!(combined.blocks().len(), 2);
        // Task 1's H gates landed on q1..q2 shifted by task 0's width (1).
        let hs: Vec<u16> = combined
            .instructions()
            .iter()
            .filter_map(|i| match i {
                Instruction::Quantum(q) => match q.op {
                    QuantumOp::Gate1(quape_isa::Gate1::H, qb) => Some(qb.index()),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(hs, vec![1, 2]);
        // Task 0's branch target relocated to its own copy (address 0).
        let br = combined
            .instructions()
            .iter()
            .find_map(|i| i.as_classical().and_then(ClassicalOp::target));
        assert_eq!(br, Some(0));
    }

    #[test]
    fn combine_three_rus_tasks() {
        let tasks: Vec<Program> = (0..3).map(|_| rus_block(0).unwrap()).collect();
        let combined = combine(&tasks).unwrap();
        assert_eq!(combined.blocks().len(), 3);
        combined.blocks().validate().unwrap();
        // All three tasks are immediately ready (no cross dependencies).
        for (_, info) in combined.blocks().iter() {
            assert_eq!(info.dependency, Dependency::none());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(combine(&[]).unwrap_err(), CombineError::Empty);
    }

    #[test]
    fn qubit_budget_enforced() {
        let wide = assemble("0 H q127\nSTOP\n").unwrap();
        let err = combine(&[wide.clone(), wide]).unwrap_err();
        assert!(matches!(err, CombineError::TooManyQubits { required: 256 }));
    }

    #[test]
    fn qubit_budget_boundary_is_exact() {
        // 128 qubits is the full 7-bit space: exactly representable.
        let half = assemble("0 H q63\nSTOP\n").unwrap();
        let combined = combine(&[half.clone(), half.clone()]).unwrap();
        assert_eq!(combined.num_qubits(), 128);
        // One more qubit overflows.
        let one = assemble("0 H q0\nSTOP\n").unwrap();
        let err = combine(&[half.clone(), half, one]).unwrap_err();
        assert!(matches!(err, CombineError::TooManyQubits { required: 129 }));
    }

    #[test]
    fn relocated_member_replays_the_same_local_ops() {
        // Each task's combined instructions are exactly its own
        // instructions relocated by the prefix sums of the earlier
        // tasks' qubit widths and instruction counts.
        let a = rus_block(0).unwrap();
        let b = assemble("0 H q0\n1 MEAS q0\nFMR r1, q0\nSTOP\n").unwrap();
        let inputs = [a, b];
        let combined = combine(&inputs).unwrap();
        let (mut qubit_offset, mut addr_offset) = (0u16, 0u32);
        for input in &inputs {
            for (local, original) in input.instructions().iter().enumerate() {
                let addr = addr_offset as usize + local;
                let expect = original.relocated(qubit_offset, addr_offset);
                assert_eq!(combined.instructions()[addr], expect);
            }
            qubit_offset += input.num_qubits();
            addr_offset += input.len() as u32;
        }
        assert_eq!(addr_offset as usize, combined.len());
        assert_eq!(qubit_offset, combined.num_qubits());
    }
}
