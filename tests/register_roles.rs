//! The scoreboard's register read and write sets, pinned instruction by
//! instruction.
//!
//! The cycle-level CU stalls an instruction until every register it reads
//! has no write in flight, and marks the registers it writes as in flight.
//! Both sets come from [`Instruction::reads`] and [`Instruction::writes`],
//! which walk the explicit operand fields plus the register-role column of
//! the opcode table. The CU drops memory-load destinations from the write
//! set (software orders those with `s_waitcnt`, and the timing model
//! charges them there); [`scoreboard_sets`] applies the same policy.
//!
//! `tests/fixtures/register_roles.txt` holds, for every instruction
//! [`cases`] generates, the encoded words and the read and write sets as
//! sorted, de-duplicated register codes ([`Reg::code`]). The sets were
//! recorded from the hand-written per-opcode lists the role column
//! replaced, so any change here is a change to the CU's schedule.
//!
//! The cases are: every opcode in its natural encoding; the VOP3 form of
//! every VOP1/VOP2/VOPC opcode; SGPR, VGPR, VCC, EXEC, M0, SCC and literal
//! operands in every operand slot that accepts them; and every
//! instruction of the 17 paper kernels.

use std::collections::{BTreeSet, HashSet};

use scratch::isa::{Fields, Format, Instruction, Opcode, Operand, Reg, Roles, SmrdOffset};
use scratch::kernels::paper_benchmarks;

const FIXTURE: &str = include_str!("fixtures/register_roles.txt");

/// Scalar and vector source operands tried in every source slot.
const SOURCES: [Operand; 8] = [
    Operand::Sgpr(20),
    Operand::Vgpr(5),
    Operand::VccLo,
    Operand::ExecHi,
    Operand::M0,
    Operand::Scc,
    Operand::Vccz,
    Operand::Literal(0x1234_5678),
];

/// Scalar destinations tried in every scalar destination slot.
const DESTS: [Operand; 4] = [
    Operand::Sgpr(10),
    Operand::VccHi,
    Operand::ExecLo,
    Operand::M0,
];

/// `base` plus one variant per candidate operand in each slot: `slots`
/// lists `(candidates, substitute)` pairs.
type Slot = (&'static [Operand], fn(Fields, Operand) -> Fields);

fn vary(base: Fields, slots: &[Slot]) -> Vec<Fields> {
    let mut out = vec![base];
    for &(candidates, substitute) in slots {
        out.extend(candidates.iter().map(|&o| substitute(base, o)));
    }
    out
}

/// The natural-encoding field layouts to try for `op`.
fn natural(op: Opcode) -> Vec<Fields> {
    match op.format() {
        Format::Sop2 => vary(
            Fields::Sop2 {
                sdst: Operand::Sgpr(10),
                ssrc0: Operand::Sgpr(20),
                ssrc1: Operand::Sgpr(30),
            },
            &[
                (&DESTS, |f, o| match f {
                    Fields::Sop2 { ssrc0, ssrc1, .. } => Fields::Sop2 {
                        sdst: o,
                        ssrc0,
                        ssrc1,
                    },
                    _ => f,
                }),
                (&SOURCES, |f, o| match f {
                    Fields::Sop2 { sdst, ssrc1, .. } => Fields::Sop2 {
                        sdst,
                        ssrc0: o,
                        ssrc1,
                    },
                    _ => f,
                }),
                (&SOURCES, |f, o| match f {
                    Fields::Sop2 { sdst, ssrc0, .. } => Fields::Sop2 {
                        sdst,
                        ssrc0,
                        ssrc1: o,
                    },
                    _ => f,
                }),
            ],
        ),
        Format::Sopk => DESTS
            .iter()
            .map(|&sdst| Fields::Sopk { sdst, simm16: -7 })
            .collect(),
        Format::Sop1 => vary(
            Fields::Sop1 {
                sdst: Operand::Sgpr(10),
                ssrc0: Operand::Sgpr(20),
            },
            &[
                (&DESTS, |f, o| match f {
                    Fields::Sop1 { ssrc0, .. } => Fields::Sop1 { sdst: o, ssrc0 },
                    _ => f,
                }),
                (&SOURCES, |f, o| match f {
                    Fields::Sop1 { sdst, .. } => Fields::Sop1 { sdst, ssrc0: o },
                    _ => f,
                }),
            ],
        ),
        Format::Sopc => vary(
            Fields::Sopc {
                ssrc0: Operand::Sgpr(20),
                ssrc1: Operand::Sgpr(30),
            },
            &[
                (&SOURCES, |f, o| match f {
                    Fields::Sopc { ssrc1, .. } => Fields::Sopc { ssrc0: o, ssrc1 },
                    _ => f,
                }),
                (&SOURCES, |f, o| match f {
                    Fields::Sopc { ssrc0, .. } => Fields::Sopc { ssrc0, ssrc1: o },
                    _ => f,
                }),
            ],
        ),
        Format::Sopp => vec![Fields::Sopp { simm16: 3 }],
        Format::Smrd => {
            let mut out: Vec<Fields> = DESTS
                .iter()
                .map(|&sdst| Fields::Smrd {
                    sdst,
                    sbase: 4,
                    offset: SmrdOffset::Imm(2),
                })
                .collect();
            out.push(Fields::Smrd {
                sdst: Operand::Sgpr(12),
                sbase: 4,
                offset: SmrdOffset::Sgpr(20),
            });
            out
        }
        Format::Vop2 => SOURCES
            .iter()
            .map(|&src0| Fields::Vop2 {
                vdst: 1,
                src0,
                vsrc1: 3,
            })
            .collect(),
        Format::Vop1 => SOURCES
            .iter()
            .map(|&src0| Fields::Vop1 { vdst: 1, src0 })
            .collect(),
        Format::Vopc => SOURCES
            .iter()
            .map(|&src0| Fields::Vopc { src0, vsrc1: 3 })
            .collect(),
        Format::Vop3a | Format::Vop3b => vop3(op),
        Format::Ds => vec![Fields::Ds {
            vdst: 1,
            addr: 2,
            data0: 3,
            data1: 4,
            offset0: 8,
            offset1: 9,
            gds: false,
        }],
        Format::Mubuf => SOURCES
            .iter()
            .map(|&soffset| Fields::Mubuf {
                vdata: 1,
                vaddr: 2,
                srsrc: 8,
                soffset,
                offset: 16,
                offen: true,
                idxen: false,
                glc: false,
            })
            .collect(),
        Format::Mtbuf => SOURCES
            .iter()
            .map(|&soffset| Fields::Mtbuf {
                vdata: 1,
                vaddr: 2,
                srsrc: 8,
                soffset,
                offset: 16,
                offen: true,
                idxen: false,
                dfmt: 4,
                nfmt: 4,
            })
            .collect(),
    }
}

/// VOP3 layouts for `op` (its native form, or the promotion of a
/// VOP1/VOP2/VOPC opcode): the VOP3a form, and the VOP3b form with an
/// explicit scalar destination.
fn vop3(op: Opcode) -> Vec<Fields> {
    let three = op.src_count() == 3 || op.reads_vcc_implicitly();
    let src2 = three.then_some(Operand::Vgpr(4));
    let mut out = vary(
        Fields::Vop3a {
            vdst: 1,
            src0: Operand::Vgpr(2),
            src1: Operand::Vgpr(3),
            src2,
            abs: 0,
            neg: 0,
            clamp: false,
            omod: 0,
        },
        &[
            (&SOURCES, |f, o| match f {
                Fields::Vop3a { .. } => with_vop3_src(f, 0, o),
                _ => f,
            }),
            (&SOURCES, |f, o| match f {
                Fields::Vop3a { .. } => with_vop3_src(f, 1, o),
                _ => f,
            }),
        ],
    );
    if three {
        let a = out[0];
        out.extend(SOURCES.iter().map(|&o| with_vop3_src(a, 2, o)));
    }
    let b = Fields::Vop3b {
        vdst: 1,
        sdst: Operand::Sgpr(10),
        src0: Operand::Vgpr(2),
        src1: Operand::Vgpr(3),
        src2,
    };
    out.extend(DESTS.iter().map(|&sdst| match b {
        Fields::Vop3b {
            vdst,
            src0,
            src1,
            src2,
            ..
        } => Fields::Vop3b {
            vdst,
            sdst,
            src0,
            src1,
            src2,
        },
        _ => b,
    }));
    for slot in 0..if three { 3 } else { 2 } {
        out.extend(SOURCES.iter().map(|&o| with_vop3_src(b, slot, o)));
    }
    out
}

/// `f` (VOP3a or VOP3b) with source `slot` replaced by `o`.
fn with_vop3_src(mut f: Fields, slot: usize, o: Operand) -> Fields {
    match &mut f {
        Fields::Vop3a {
            src0, src1, src2, ..
        }
        | Fields::Vop3b {
            src0, src1, src2, ..
        } => match slot {
            0 => *src0 = o,
            1 => *src1 = o,
            _ => *src2 = Some(o),
        },
        _ => {}
    }
    f
}

/// Every case, as the CU would see it: encoded, decoded back, and
/// de-duplicated by its words.
fn cases() -> Vec<(Vec<u32>, Instruction)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut add = |words: Vec<u32>| {
        if seen.insert(words.clone()) {
            let (inst, len) = Instruction::decode(&words).expect("case words decode");
            assert_eq!(len, words.len());
            out.push((words, inst));
        }
    };
    for &op in Opcode::ALL {
        let mut layouts = natural(op);
        if matches!(op.format(), Format::Vop1 | Format::Vop2 | Format::Vopc) {
            layouts.extend(vop3(op));
        }
        for fields in layouts {
            let Ok(inst) = Instruction::new(op, fields) else {
                continue;
            };
            if let Ok(words) = inst.encode() {
                add(words);
            }
        }
    }
    for bench in paper_benchmarks() {
        for kernel in bench.kernels().expect("paper kernels assemble") {
            let words = kernel.words();
            for (pos, inst) in Instruction::decode_all(words).expect("paper kernels decode") {
                add(words[pos..pos + inst.size_words()].to_vec());
            }
        }
    }
    out
}

/// The scoreboard's read and write sets for `inst`, as sorted register
/// codes.
fn scoreboard_sets(inst: &Instruction) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let mut reads = BTreeSet::new();
    inst.reads(|r| {
        reads.insert(r.code());
    });
    let mut writes = BTreeSet::new();
    if !inst.opcode.roles().contains(Roles::LOAD) {
        inst.writes(|r| {
            writes.insert(r.code());
        });
    }
    (reads, writes)
}

fn codes(set: &BTreeSet<u32>) -> String {
    set.iter()
        .map(|c| format!("{c:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// One fixture line: words, mnemonic, read set, write set.
fn line(words: &[u32], inst: &Instruction) -> String {
    let (reads, writes) = scoreboard_sets(inst);
    let words: Vec<String> = words.iter().map(|w| format!("{w:08x}")).collect();
    format!(
        "{} {} r={} w={}",
        words.join(":"),
        inst.opcode.mnemonic(),
        codes(&reads),
        codes(&writes)
    )
}

#[test]
fn scoreboard_sets_match_the_recorded_fixture() {
    let cases = cases();
    let want: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        cases.len(),
        want.len(),
        "case count differs from the fixture"
    );
    for ((words, inst), want) in cases.iter().zip(want) {
        assert_eq!(line(words, inst), want, "{inst:?}");
    }
}

#[test]
fn fixture_covers_every_opcode_and_promotion() {
    let cases = cases();
    let ops: HashSet<Opcode> = cases.iter().map(|(_, i)| i.opcode).collect();
    assert_eq!(ops.len(), Opcode::ALL.len());
    assert_eq!(Opcode::ALL.len(), 208);
    let promoted: HashSet<Opcode> = cases
        .iter()
        .filter(|(_, i)| i.fields.encoding_format() != i.opcode.format())
        .map(|(_, i)| i.opcode)
        .collect();
    for &op in Opcode::ALL {
        if matches!(op.format(), Format::Vop1 | Format::Vop2 | Format::Vopc) {
            assert!(promoted.contains(&op), "{op:?} has no VOP3 case");
        }
    }
}

#[test]
fn register_codes_roundtrip() {
    for code in 0..0x204 {
        let reg = Reg::from_code(code).expect("code in range");
        assert_eq!(reg.code(), code);
    }
    assert_eq!(Reg::from_code(0x204), None);
}
