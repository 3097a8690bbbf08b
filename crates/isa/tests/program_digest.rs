//! Field-sensitivity audit for [`Program::digest`].
//!
//! The digest keys compiled jobs in the server's compile cache and
//! decides whether a worker's reset-in-place core is reused for the next
//! shot. A field the digest ignores is therefore a *correctness* bug:
//! two programs differing only in that field would share a compiled job
//! or run on a stale core. This audit changes every operand field of
//! every instruction kind, one at a time, and asserts each change moves
//! the digest — and that a builder program and the program its display
//! text assembles back to hash equal.

use quape_isa::{
    assemble, Angle, ClassicalOp, Cond, CondOp, Cycles, Dependency, Gate1, Gate2, Instruction,
    Program, ProgramBuilder, QuantumOp, Qubit, Reg, SharedReg, StepId,
};

fn q(i: u16) -> Qubit {
    Qubit::new(i)
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

fn s(i: u8) -> SharedReg {
    SharedReg::new(i)
}

/// One instruction of every kind the mutations below touch.
fn base() -> Vec<Instruction> {
    vec![
        Instruction::quantum(1, QuantumOp::Gate1(Gate1::H, q(0))),
        Instruction::quantum(0, QuantumOp::Gate1(Gate1::Rx(Angle::new(8)), q(1))),
        Instruction::quantum(2, QuantumOp::Gate2(Gate2::Cnot, q(0), q(1))),
        Instruction::quantum(3, QuantumOp::Measure(q(1))),
        ClassicalOp::Fmr {
            rd: r(0),
            qubit: q(1),
        }
        .into(),
        ClassicalOp::Ldi { rd: r(1), imm: 5 }.into(),
        ClassicalOp::Addi {
            rd: r(2),
            rs: r(1),
            imm: -3,
        }
        .into(),
        ClassicalOp::Cmpi { rs: r(0), imm: 1 }.into(),
        ClassicalOp::Br {
            cond: Cond::Eq,
            target: 10,
        }
        .into(),
        ClassicalOp::Qwait {
            cycles: Cycles::new(300),
        }
        .into(),
        ClassicalOp::Lds {
            rd: r(3),
            sreg: s(1),
        }
        .into(),
        ClassicalOp::Sts {
            sreg: s(2),
            rs: r(3),
        }
        .into(),
        ClassicalOp::Mrce {
            qubit: q(1),
            target: q(0),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        }
        .into(),
        ClassicalOp::Add {
            rd: r(4),
            rs1: r(5),
            rs2: r(6),
        }
        .into(),
        ClassicalOp::Jmp { target: 15 }.into(),
        ClassicalOp::Stop.into(),
    ]
}

/// `(field, address, replacement)`: each replacement differs from the
/// base instruction at `address` in exactly one field.
fn mutations() -> Vec<(&'static str, usize, Instruction)> {
    let g1 = |t: u32, g: Gate1, qb: u16| Instruction::quantum(t, QuantumOp::Gate1(g, q(qb)));
    let g2 = |g: Gate2, c: u16, t: u16| Instruction::quantum(2, QuantumOp::Gate2(g, q(c), q(t)));
    let mrce = |qb: u16, t: u16, one: CondOp, zero: CondOp| {
        Instruction::from(ClassicalOp::Mrce {
            qubit: q(qb),
            target: q(t),
            op_if_one: one,
            op_if_zero: zero,
        })
    };
    let addi = |rd: u8, rs: u8, imm: i16| {
        Instruction::from(ClassicalOp::Addi {
            rd: r(rd),
            rs: r(rs),
            imm,
        })
    };
    let add = |rd: u8, rs1: u8, rs2: u8| {
        Instruction::from(ClassicalOp::Add {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        })
    };
    vec![
        ("timing label", 0, g1(2, Gate1::H, 0)),
        ("gate", 0, g1(1, Gate1::X, 0)),
        ("gate qubit", 0, g1(1, Gate1::H, 2)),
        ("rotation axis", 1, g1(0, Gate1::Ry(Angle::new(8)), 1)),
        ("rotation index", 1, g1(0, Gate1::Rx(Angle::new(9)), 1)),
        ("two-qubit gate", 2, g2(Gate2::Cz, 0, 1)),
        ("two-qubit control", 2, g2(Gate2::Cnot, 2, 1)),
        ("two-qubit target", 2, g2(Gate2::Cnot, 0, 2)),
        ("two-qubit operand order", 2, g2(Gate2::Cnot, 1, 0)),
        (
            "measure timing",
            3,
            Instruction::quantum(4, QuantumOp::Measure(q(1))),
        ),
        (
            "measure qubit",
            3,
            Instruction::quantum(3, QuantumOp::Measure(q(0))),
        ),
        (
            "fmr rd",
            4,
            ClassicalOp::Fmr {
                rd: r(7),
                qubit: q(1),
            }
            .into(),
        ),
        (
            "fmr qubit",
            4,
            ClassicalOp::Fmr {
                rd: r(0),
                qubit: q(2),
            }
            .into(),
        ),
        ("ldi rd", 5, ClassicalOp::Ldi { rd: r(2), imm: 5 }.into()),
        ("ldi imm", 5, ClassicalOp::Ldi { rd: r(1), imm: 6 }.into()),
        (
            "ldi imm sign",
            5,
            ClassicalOp::Ldi { rd: r(1), imm: -5 }.into(),
        ),
        ("addi rd", 6, addi(3, 1, -3)),
        ("addi rs", 6, addi(2, 2, -3)),
        ("addi imm", 6, addi(2, 1, -4)),
        ("cmpi rs", 7, ClassicalOp::Cmpi { rs: r(1), imm: 1 }.into()),
        ("cmpi imm", 7, ClassicalOp::Cmpi { rs: r(0), imm: 0 }.into()),
        (
            "branch cond",
            8,
            ClassicalOp::Br {
                cond: Cond::Ne,
                target: 10,
            }
            .into(),
        ),
        (
            "branch target",
            8,
            ClassicalOp::Br {
                cond: Cond::Eq,
                target: 11,
            }
            .into(),
        ),
        (
            "qwait cycles",
            9,
            ClassicalOp::Qwait {
                cycles: Cycles::new(301),
            }
            .into(),
        ),
        (
            "lds rd",
            10,
            ClassicalOp::Lds {
                rd: r(4),
                sreg: s(1),
            }
            .into(),
        ),
        (
            "lds shared register",
            10,
            ClassicalOp::Lds {
                rd: r(3),
                sreg: s(2),
            }
            .into(),
        ),
        (
            "sts shared register",
            11,
            ClassicalOp::Sts {
                sreg: s(3),
                rs: r(3),
            }
            .into(),
        ),
        (
            "sts rs",
            11,
            ClassicalOp::Sts {
                sreg: s(2),
                rs: r(4),
            }
            .into(),
        ),
        ("mrce qubit", 12, mrce(2, 0, CondOp::X, CondOp::None)),
        ("mrce target", 12, mrce(1, 2, CondOp::X, CondOp::None)),
        ("mrce op_if_one", 12, mrce(1, 0, CondOp::Z, CondOp::None)),
        ("mrce op_if_zero", 12, mrce(1, 0, CondOp::X, CondOp::H)),
        ("mrce ops swapped", 12, mrce(1, 0, CondOp::None, CondOp::X)),
        ("add rd", 13, add(7, 5, 6)),
        ("add rs1", 13, add(4, 7, 6)),
        ("add rs2", 13, add(4, 5, 7)),
        ("add to sub", 13, {
            Instruction::from(ClassicalOp::Sub {
                rd: r(4),
                rs1: r(5),
                rs2: r(6),
            })
        }),
        ("jmp target", 14, ClassicalOp::Jmp { target: 14 }.into()),
        ("jmp to call", 14, ClassicalOp::Call { target: 15 }.into()),
        ("stop to halt", 15, ClassicalOp::Halt.into()),
    ]
}

fn program(instructions: Vec<Instruction>) -> Program {
    Program::new(instructions).expect("valid program")
}

#[test]
fn every_instruction_field_moves_the_digest() {
    let base_digest = program(base()).digest();
    let mut seen = vec![("base", base_digest)];
    for (field, addr, replacement) in mutations() {
        let mut instructions = base();
        assert_ne!(
            instructions[addr], replacement,
            "{field}: mutation is a no-op"
        );
        instructions[addr] = replacement;
        let d = program(instructions).digest();
        assert_ne!(
            d, base_digest,
            "changing the {field} must change the digest"
        );
        for (other, od) in &seen {
            assert_ne!(d, *od, "{field} and {other} collide on one digest");
        }
        seen.push((field, d));
    }
}

#[test]
fn builder_program_and_its_text_hash_equal() {
    let flat = program(base());
    let text = assemble(&flat.to_string()).expect("display text assembles");
    assert_eq!(text, flat);
    assert_eq!(text.digest(), flat.digest());

    // Blocks, dependencies, step tags and resolved labels round-trip too.
    let mut b = ProgramBuilder::new();
    b.begin_block("w1", Dependency::none());
    b.set_step(Some(StepId(0)));
    b.label("top");
    b.quantum(2, QuantumOp::Measure(q(0)));
    b.fmr(0, 0);
    b.cmpi(0, 1);
    b.br_to(Cond::Ne, "top");
    b.set_step(None);
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block_named_deps("w2", &["w1"]);
    b.quantum(0, QuantumOp::Gate1(Gate1::Rz(Angle::new(31)), q(3)));
    b.push(ClassicalOp::Stop);
    b.end_block();
    let built = b.finish().expect("valid blocked program");
    let text = assemble(&built.to_string()).expect("display text assembles");
    assert_eq!(text, built);
    assert_eq!(text.digest(), built.digest());
}
