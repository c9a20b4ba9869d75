//! Disassembly to CodeXL-like text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scratch_isa::{Fields, Format, Instruction, Opcode, Operand, Roles, SmrdOffset};

use crate::{AsmError, Kernel};

/// Render a scalar operand that names a `width`-register group.
fn sgroup(op: Operand, width: u8) -> String {
    match (op, width) {
        (Operand::VccLo, 2) => "vcc".to_string(),
        (Operand::ExecLo, 2) => "exec".to_string(),
        (Operand::Sgpr(n), w) if w > 1 => {
            format!("s[{}:{}]", n, u16::from(n) + u16::from(w) - 1)
        }
        (o, _) => o.to_string(),
    }
}

/// Render a vector register group.
fn vgroup(n: u8, width: u8) -> String {
    if width > 1 {
        format!("v[{}:{}]", n, u16::from(n) + u16::from(width) - 1)
    } else {
        format!("v{n}")
    }
}

fn operand_src(op: Operand, width: u8) -> String {
    match op {
        Operand::Vgpr(n) => vgroup(n, width),
        Operand::Literal(v) => format!("lit({v:#x})"),
        other => sgroup(other, width),
    }
}

/// Disassemble a kernel to text that [`crate::assemble`] parses back to the
/// identical binary.
///
/// The output carries the kernel's metadata as directives, labels every
/// branch target (`label_xxxx`, named by word offset as in the paper's
/// Fig. 5) and prefixes each instruction with its byte address.
///
/// # Errors
///
/// Fails if the binary contains undecodable words.
pub fn disassemble(kernel: &Kernel) -> Result<String, AsmError> {
    let insts = kernel.instructions()?;

    // Collect branch-target word offsets.
    let mut targets = BTreeMap::new();
    for (pos, inst) in &insts {
        if let (true, Fields::Sopp { simm16 }) = (inst.opcode.is_branch(), inst.fields) {
            let target = (*pos as i64 + 1 + i64::from(simm16 as i16)) as usize;
            targets.insert(target, format!("label_{target:04x}"));
        }
    }

    let meta = kernel.meta();
    let mut out = String::new();
    writeln!(out, ".kernel {}", kernel.name()).unwrap();
    writeln!(out, ".sgprs {}", meta.sgprs).unwrap();
    writeln!(out, ".vgprs {}", meta.vgprs).unwrap();
    writeln!(out, ".lds {}", meta.lds_bytes).unwrap();
    writeln!(out, ".wgsize {}", meta.workgroup_size).unwrap();

    for (pos, inst) in &insts {
        if let Some(label) = targets.get(pos) {
            writeln!(out, "{label}:").unwrap();
        }
        writeln!(
            out,
            "  0x{:06X} {}",
            pos * 4,
            format_inst(*pos, inst, &targets)
        )
        .unwrap();
    }
    Ok(out)
}

/// Render one instruction (without address prefix).
pub(crate) fn format_inst(
    pos: usize,
    inst: &Instruction,
    targets: &BTreeMap<usize, String>,
) -> String {
    // VOP3-encoded instructions whose natural encoding is narrower carry
    // an `_e64` suffix, otherwise their text is indistinguishable from the
    // narrow form (e.g. a VOP3b `v_cmp` whose sdst happens to be VCC) and
    // reassembly would silently pick the other encoding.
    let promoted = matches!(inst.fields, Fields::Vop3a { .. } | Fields::Vop3b { .. })
        && !matches!(inst.opcode.format(), Format::Vop3a | Format::Vop3b);
    let mn = if promoted {
        format!("{}_e64", inst.opcode.mnemonic())
    } else {
        inst.opcode.mnemonic().to_string()
    };
    let dw = inst.opcode.dst_width();
    let sw = inst.opcode.src_width();
    match inst.fields {
        Fields::Sop2 { sdst, ssrc0, ssrc1 } => format!(
            "{mn} {}, {}, {}",
            sgroup(sdst, dw),
            operand_src(ssrc0, sw),
            operand_src(ssrc1, sw)
        ),
        Fields::Sopk { sdst, simm16 } => format!("{mn} {}, {simm16}", sgroup(sdst, dw)),
        Fields::Sop1 { sdst, ssrc0 } => {
            format!("{mn} {}, {}", sgroup(sdst, dw), operand_src(ssrc0, sw))
        }
        Fields::Sopc { ssrc0, ssrc1 } => format!(
            "{mn} {}, {}",
            operand_src(ssrc0, sw),
            operand_src(ssrc1, sw)
        ),
        Fields::Sopp { simm16 } => match inst.opcode {
            Opcode::SEndpgm | Opcode::SBarrier => mn.to_string(),
            Opcode::SWaitcnt => {
                let vm = simm16 & 0xf;
                let exp = (simm16 >> 4) & 0x7;
                let lgkm = (simm16 >> 8) & 0x1f;
                let mut parts = Vec::new();
                if vm != 0xf {
                    parts.push(format!("vmcnt({vm})"));
                }
                if lgkm != 0x1f {
                    parts.push(format!("lgkmcnt({lgkm})"));
                }
                // The counter syntax can only express the canonical
                // encoding (expcnt left at don't-care, high bits clear);
                // fall back to the raw immediate for anything else.
                if parts.is_empty() || exp != 0x7 || simm16 >> 13 != 0 {
                    format!("{mn} {simm16:#x}")
                } else {
                    format!("{mn} {}", parts.join(" "))
                }
            }
            _ if inst.opcode.is_branch() => {
                let target = (pos as i64 + 1 + i64::from(simm16 as i16)) as usize;
                match targets.get(&target) {
                    Some(l) => format!("{mn} {l}"),
                    None => format!("{mn} label_{target:04x}"),
                }
            }
            _ => format!("{mn} {simm16}"),
        },
        Fields::Smrd {
            sdst,
            sbase,
            offset,
        } => {
            let off = match offset {
                SmrdOffset::Imm(i) => format!("{i:#x}"),
                SmrdOffset::Sgpr(s) => format!("s{s}"),
            };
            format!(
                "{mn} {}, s[{}:{}], {off}",
                sgroup(sdst, dw),
                sbase,
                sbase + 1
            )
        }
        Fields::Vop2 { vdst, src0, vsrc1 } => {
            if inst.opcode == Opcode::VCndmaskB32 {
                format!("{mn} v{vdst}, {}, v{vsrc1}, vcc", operand_src(src0, 1))
            } else if inst.opcode.reads_vcc_implicitly() {
                // v_addc / v_subb: carry-out and carry-in both VCC.
                format!("{mn} v{vdst}, vcc, {}, v{vsrc1}, vcc", operand_src(src0, 1))
            } else if inst.opcode.writes_vcc_implicitly() {
                format!("{mn} v{vdst}, vcc, {}, v{vsrc1}", operand_src(src0, 1))
            } else {
                format!("{mn} v{vdst}, {}, v{vsrc1}", operand_src(src0, 1))
            }
        }
        Fields::Vop1 { vdst, src0 } => {
            if inst.opcode.roles().contains(Roles::SDST) {
                // Destination is an SGPR carried in the vdst field.
                format!("{mn} s{vdst}, {}", operand_src(src0, 1))
            } else {
                format!("{mn} v{vdst}, {}", operand_src(src0, 1))
            }
        }
        Fields::Vopc { src0, vsrc1 } => {
            format!("{mn} vcc, {}, v{vsrc1}", operand_src(src0, 1))
        }
        Fields::Vop3a {
            vdst,
            src0,
            src1,
            src2,
            abs,
            neg,
            clamp,
            omod,
        } => {
            let mut s = format!(
                "{mn} v{vdst}, {}, {}",
                operand_src(src0, 1),
                operand_src(src1, 1)
            );
            if let Some(s2) = src2 {
                write!(s, ", {}", operand_src(s2, 1)).unwrap();
            }
            if abs != 0 {
                write!(s, " abs:{abs}").unwrap();
            }
            if neg != 0 {
                write!(s, " neg:{neg}").unwrap();
            }
            if clamp {
                s.push_str(" clamp");
            }
            if omod != 0 {
                write!(s, " omod:{omod}").unwrap();
            }
            s
        }
        Fields::Vop3b {
            vdst,
            sdst,
            src0,
            src1,
            src2,
        } => {
            if inst.opcode.is_vector_compare() {
                format!(
                    "{mn} {}, {}, {}",
                    sgroup(sdst, 2),
                    operand_src(src0, 1),
                    operand_src(src1, 1)
                )
            } else {
                let mut s = format!(
                    "{mn} v{vdst}, {}, {}, {}",
                    sgroup(sdst, 2),
                    operand_src(src0, 1),
                    operand_src(src1, 1)
                );
                if let Some(s2) = src2 {
                    write!(s, ", {}", sgroup(s2, 2)).unwrap();
                }
                s
            }
        }
        Fields::Ds {
            vdst,
            addr,
            data0,
            data1,
            offset0,
            offset1,
            gds,
        } => {
            let two = matches!(inst.opcode, Opcode::DsRead2B32 | Opcode::DsWrite2B32);
            let mut s = if inst.opcode.is_store() {
                if two {
                    format!("{mn} v{addr}, v{data0}, v{data1}")
                } else {
                    format!("{mn} v{addr}, v{data0}")
                }
            } else if inst.opcode.roles().contains(Roles::LOAD) {
                if two {
                    format!("{mn} {}, v{addr}", vgroup(vdst, 2))
                } else {
                    format!("{mn} v{vdst}, v{addr}")
                }
            } else {
                // LDS atomics: address + data.
                format!("{mn} v{addr}, v{data0}")
            };
            if two {
                write!(s, " offset0:{offset0} offset1:{offset1}").unwrap();
            } else {
                write!(s, " offset:{offset0}").unwrap();
            }
            if gds {
                s.push_str(" gds");
            }
            s
        }
        Fields::Mubuf {
            vdata,
            vaddr,
            srsrc,
            soffset,
            offset,
            offen,
            idxen,
            glc,
        } => {
            let mut s = format!(
                "{mn} {}, v{vaddr}, s[{}:{}], {}",
                vgroup(vdata, dw),
                srsrc,
                srsrc + 3,
                operand_src(soffset, 1)
            );
            if offen {
                s.push_str(" offen");
            }
            if idxen {
                s.push_str(" idxen");
            }
            write!(s, " offset:{offset}").unwrap();
            if glc {
                s.push_str(" glc");
            }
            s
        }
        Fields::Mtbuf {
            vdata,
            vaddr,
            srsrc,
            soffset,
            offset,
            offen,
            idxen,
            dfmt,
            nfmt,
        } => {
            let mut s = format!(
                "{mn} {}, v{vaddr}, s[{}:{}], {}",
                vgroup(vdata, dw),
                srsrc,
                srsrc + 3,
                operand_src(soffset, 1)
            );
            if offen {
                s.push_str(" offen");
            }
            if idxen {
                s.push_str(" idxen");
            }
            write!(s, " offset:{offset} dfmt:{dfmt} nfmt:{nfmt}").unwrap();
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;
    use scratch_isa::Opcode;

    #[test]
    fn disassembly_has_labels_and_addresses() {
        let mut b = KernelBuilder::new("t");
        let top = b.new_label();
        b.bind(top).unwrap();
        b.vop2(Opcode::VAddI32, 1, Operand::Vgpr(0), 0).unwrap();
        b.branch(Opcode::SCbranchVccnz, top);
        b.endpgm().unwrap();
        let text = b.finish().unwrap().disassemble().unwrap();
        assert!(text.contains(".kernel t"), "{text}");
        assert!(text.contains("label_0000:"), "{text}");
        assert!(text.contains("s_cbranch_vccnz label_0000"), "{text}");
        assert!(text.contains("0x000000"), "{text}");
    }

    #[test]
    fn carry_form_matches_codexl_style() {
        let mut b = KernelBuilder::new("t");
        b.vop2(Opcode::VAddI32, 11, Operand::Sgpr(0), 8).unwrap();
        b.endpgm().unwrap();
        let text = b.finish().unwrap().disassemble().unwrap();
        assert!(text.contains("v_add_i32 v11, vcc, s0, v8"), "{text}");
    }

    #[test]
    fn waitcnt_renders_counts() {
        let mut b = KernelBuilder::new("t");
        b.waitcnt(Some(0), None).unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.endpgm().unwrap();
        let text = b.finish().unwrap().disassemble().unwrap();
        assert!(text.contains("s_waitcnt vmcnt(0)"), "{text}");
        assert!(text.contains("s_waitcnt lgkmcnt(0)"), "{text}");
    }
}
