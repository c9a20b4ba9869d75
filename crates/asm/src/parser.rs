//! Text assembler for CodeXL-like Southern Islands assembly.

use std::collections::HashMap;

use scratch_isa::{Fields, Format, Instruction, Opcode, Operand, Roles, SmrdOffset};

use crate::builder::waitcnt_imm;
use crate::{AsmError, Kernel, KernelBuilder};

/// Assemble CodeXL-like assembly text into a [`Kernel`].
///
/// The accepted syntax is exactly what [`crate::disassemble`] produces:
/// `.kernel/.sgprs/.vgprs/.lds/.wgsize` directives, `label:` definitions,
/// optional `0x...` address prefixes, comments (`//` or `;`), and one
/// instruction per line. [`assemble`] ∘ [`crate::disassemble`] is the
/// identity on binaries (property-tested).
///
/// # Errors
///
/// Returns [`AsmError::Syntax`] with a 1-based line number on any malformed
/// line, and label/branch errors from the underlying builder.
pub fn assemble(text: &str) -> Result<Kernel, AsmError> {
    let mut builder = KernelBuilder::new("kernel");
    let mut labels: HashMap<String, crate::Label> = HashMap::new();

    // Intern a label by name.
    fn intern(
        builder: &mut KernelBuilder,
        labels: &mut HashMap<String, crate::Label>,
        name: &str,
    ) -> crate::Label {
        if let Some(&l) = labels.get(name) {
            l
        } else {
            let l = builder.new_label();
            labels.insert(name.to_string(), l);
            l
        }
    }

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw
            .split("//")
            .next()
            .unwrap_or("")
            .split(';')
            .next()
            .unwrap_or("")
            .trim();
        if line.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.strip_prefix('.') {
            let mut it = rest.split_whitespace();
            let key = it.next().unwrap_or("");
            let val = it.next().unwrap_or("");
            match key {
                "kernel" => {
                    let name = val.to_string();
                    let mut nb = KernelBuilder::new(name);
                    std::mem::swap(&mut builder, &mut nb);
                    // Keep any state accumulated so far (directives must come
                    // first; enforce that).
                    if !nb.is_empty() {
                        return Err(AsmError::syntax(
                            lineno,
                            ".kernel must precede instructions",
                        ));
                    }
                }
                "sgprs" => {
                    builder.sgprs(int_in_range(val, 0..=255, ".sgprs", lineno)? as u8);
                }
                "vgprs" => {
                    builder.vgprs(int_in_range(val, 0..=255, ".vgprs", lineno)? as u8);
                }
                "lds" => {
                    builder.lds_bytes(int_in_range(val, 0..=0xffff_ffff, ".lds", lineno)? as u32);
                }
                "wgsize" => {
                    builder.workgroup_size(
                        int_in_range(val, 0..=0xffff_ffff, ".wgsize", lineno)? as u32
                    );
                }
                other => {
                    return Err(AsmError::syntax(
                        lineno,
                        format!("unknown directive .{other}"),
                    ))
                }
            }
            continue;
        }

        // Label definition.
        if let Some(name) = line.strip_suffix(':') {
            if name.split_whitespace().count() != 1 {
                return Err(AsmError::syntax(lineno, "malformed label"));
            }
            let l = intern(&mut builder, &mut labels, name.trim());
            builder
                .bind(l)
                .map_err(|_| AsmError::syntax(lineno, format!("label `{name}` bound twice")))?;
            continue;
        }

        // Optional address prefix (as printed by the disassembler).
        let mut body = line;
        if let Some(first) = body.split_whitespace().next() {
            if first.starts_with("0x") && body.split_whitespace().nth(1).is_some() {
                body = body[first.len()..].trim_start();
            }
        }

        parse_instruction(body, lineno, &mut builder, &mut labels, intern)?;
    }

    builder.finish()
}

fn parse_int(tok: &str, lineno: usize) -> Result<i64, AsmError> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    }
    .map_err(|_| AsmError::syntax(lineno, format!("bad integer `{tok}`")))?;
    Ok(if neg { -v } else { v })
}

/// Parse an operand token.
fn parse_operand(tok: &str, lineno: usize) -> Result<Operand, AsmError> {
    let t = tok.trim();
    let lower = t.to_ascii_lowercase();
    match lower.as_str() {
        "vcc" | "vcc_lo" => return Ok(Operand::VccLo),
        "vcc_hi" => return Ok(Operand::VccHi),
        "exec" | "exec_lo" => return Ok(Operand::ExecLo),
        "exec_hi" => return Ok(Operand::ExecHi),
        "m0" => return Ok(Operand::M0),
        "scc" => return Ok(Operand::Scc),
        "vccz" => return Ok(Operand::Vccz),
        "execz" => return Ok(Operand::Execz),
        _ => {}
    }
    if let Some(inner) = lower.strip_prefix("lit(").and_then(|s| s.strip_suffix(')')) {
        let v = int_in_range(inner, i64::from(i32::MIN)..=0xffff_ffff, "literal", lineno)?;
        return Ok(Operand::Literal(v as u32));
    }
    if let Some(rest) = lower.strip_prefix("s[") {
        let base = rest
            .split(':')
            .next()
            .ok_or_else(|| AsmError::syntax(lineno, format!("bad register group `{t}`")))?;
        return Ok(Operand::Sgpr(
            int_in_range(base, 0..=255, "sgpr index", lineno)? as u8,
        ));
    }
    if let Some(rest) = lower.strip_prefix("v[") {
        let base = rest
            .split(':')
            .next()
            .ok_or_else(|| AsmError::syntax(lineno, format!("bad register group `{t}`")))?;
        return Ok(Operand::Vgpr(
            int_in_range(base, 0..=255, "vgpr index", lineno)? as u8,
        ));
    }
    if let Some(n) = lower.strip_prefix('s') {
        if let Ok(i) = n.parse::<u8>() {
            return Ok(Operand::Sgpr(i));
        }
    }
    if let Some(n) = lower.strip_prefix('v') {
        if let Ok(i) = n.parse::<u8>() {
            return Ok(Operand::Vgpr(i));
        }
    }
    if lower.contains('.') && !lower.starts_with("0x") {
        let f: f32 = lower
            .parse()
            .map_err(|_| AsmError::syntax(lineno, format!("bad float `{t}`")))?;
        return Ok(KernelBuilder::const_f32(f));
    }
    if lower.starts_with("0x")
        || lower.starts_with('-')
        || lower.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        let v = int_in_range(
            &lower,
            i64::from(i32::MIN)..=0xffff_ffff,
            "integer constant",
            lineno,
        )?;
        return Ok(KernelBuilder::const_u32(v as u32));
    }
    Err(AsmError::syntax(
        lineno,
        format!("unrecognised operand `{t}`"),
    ))
}

fn expect_vgpr(op: Operand, lineno: usize) -> Result<u8, AsmError> {
    op.vgpr_index()
        .ok_or_else(|| AsmError::syntax(lineno, "expected a VGPR operand"))
}

fn expect_sgpr(op: Operand, lineno: usize) -> Result<u8, AsmError> {
    op.sgpr_index()
        .ok_or_else(|| AsmError::syntax(lineno, "expected an SGPR operand"))
}

/// Key:value / flag modifiers that trail the operand list.
#[derive(Default)]
struct Mods {
    offset: Option<i64>,
    offset0: Option<i64>,
    offset1: Option<i64>,
    offen: bool,
    idxen: bool,
    glc: bool,
    gds: bool,
    dfmt: Option<i64>,
    nfmt: Option<i64>,
    abs: Option<i64>,
    neg: Option<i64>,
    clamp: bool,
    omod: Option<i64>,
}

fn parse_mods(tokens: &[&str], lineno: usize) -> Result<Mods, AsmError> {
    let mut m = Mods::default();
    for tok in tokens {
        let t = tok.trim();
        if t.is_empty() {
            continue;
        }
        if let Some((key, val)) = t.split_once(':') {
            let v = parse_int(val, lineno)?;
            match key {
                "offset" => m.offset = Some(v),
                "offset0" => m.offset0 = Some(v),
                "offset1" => m.offset1 = Some(v),
                "dfmt" => m.dfmt = Some(v),
                "nfmt" => m.nfmt = Some(v),
                "abs" => m.abs = Some(v),
                "neg" => m.neg = Some(v),
                "omod" => m.omod = Some(v),
                other => {
                    return Err(AsmError::syntax(
                        lineno,
                        format!("unknown modifier `{other}`"),
                    ))
                }
            }
        } else {
            match t {
                "offen" => m.offen = true,
                "idxen" => m.idxen = true,
                "glc" => m.glc = true,
                "gds" => m.gds = true,
                "clamp" => m.clamp = true,
                other => return Err(AsmError::syntax(lineno, format!("unknown flag `{other}`"))),
            }
        }
    }
    Ok(m)
}

/// Parse `s_waitcnt` operands: `vmcnt(N)` and/or `lgkmcnt(N)` in either
/// order, a raw immediate, or nothing (wait for everything).
fn parse_waitcnt(rest: &str, lineno: usize) -> Result<u16, AsmError> {
    let mut vm = None;
    let mut lgkm = None;
    let mut raw = None;
    for tok in rest.split_whitespace() {
        let t = tok.to_ascii_lowercase();
        if let Some(inner) = t.strip_prefix("vmcnt(").and_then(|s| s.strip_suffix(')')) {
            vm = Some(int_in_range(inner, 0..=0xf, "vmcnt", lineno)? as u8);
        } else if let Some(inner) = t.strip_prefix("lgkmcnt(").and_then(|s| s.strip_suffix(')')) {
            lgkm = Some(int_in_range(inner, 0..=0x1f, "lgkmcnt", lineno)? as u8);
        } else {
            raw = Some(int_in_range(&t, 0..=0xffff, "waitcnt immediate", lineno)? as u16);
        }
    }
    match (vm, lgkm, raw) {
        (None, None, Some(r)) => Ok(r),
        (vm, lgkm, None) => Ok(waitcnt_imm(vm, lgkm)),
        _ => Err(AsmError::syntax(lineno, "mixed waitcnt forms")),
    }
}

/// Range-check an already-parsed optional modifier value (absent → 0).
fn mod_in_range(
    v: Option<i64>,
    range: std::ops::RangeInclusive<i64>,
    what: &str,
    lineno: usize,
) -> Result<i64, AsmError> {
    let v = v.unwrap_or(0);
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(AsmError::syntax(
            lineno,
            format!("{what} {v} outside {}..={}", range.start(), range.end()),
        ))
    }
}

/// Parse an integer and require it to fit `range` — the checked
/// alternative to a silently truncating `as` cast.
fn int_in_range(
    t: &str,
    range: std::ops::RangeInclusive<i64>,
    what: &str,
    lineno: usize,
) -> Result<i64, AsmError> {
    let v = parse_int(t, lineno)?;
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(AsmError::syntax(
            lineno,
            format!("{what} {v} outside {}..={}", range.start(), range.end()),
        ))
    }
}

#[allow(clippy::too_many_lines)]
fn parse_instruction(
    body: &str,
    lineno: usize,
    builder: &mut KernelBuilder,
    labels: &mut HashMap<String, crate::Label>,
    intern: fn(&mut KernelBuilder, &mut HashMap<String, crate::Label>, &str) -> crate::Label,
) -> Result<(), AsmError> {
    let (mn, rest) = match body.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (body, ""),
    };
    // An `_e64` suffix names the VOP3 encoding of an instruction whose
    // natural encoding is narrower; the suffix forces that encoding.
    let (opcode, e64) = match Opcode::from_mnemonic(mn) {
        Some(op) => (op, false),
        None => match mn.strip_suffix("_e64").and_then(Opcode::from_mnemonic) {
            Some(op) => (op, true),
            None => return Err(AsmError::syntax(lineno, format!("unknown mnemonic `{mn}`"))),
        },
    };
    if e64 && !matches!(opcode.format(), Format::Vop2 | Format::Vopc) {
        return Err(AsmError::syntax(
            lineno,
            format!("`_e64` does not apply to {mn}"),
        ));
    }

    // `s_waitcnt` counters (`vmcnt(0) lgkmcnt(0)`) are whitespace-separated
    // and would be misread as trailing flags by the generic modifier split,
    // so handle the mnemonic before that split runs.
    if opcode == Opcode::SWaitcnt {
        let imm = parse_waitcnt(rest, lineno)?;
        builder.sopp(opcode, imm)?;
        return Ok(());
    }

    // Split the operand list on commas; trailing modifiers ride on the last
    // comma field (or on `rest` itself when there are no operands).
    let mut ops: Vec<String> = Vec::new();
    let mut mods_tokens: Vec<&str> = Vec::new();
    if !rest.is_empty() {
        let fields: Vec<&str> = rest.split(',').collect();
        let n = fields.len();
        for (i, f) in fields.iter().enumerate() {
            let f = f.trim();
            if i + 1 == n {
                let mut it = f.split_whitespace();
                if let Some(first) = it.next() {
                    ops.push(first.to_string());
                }
                mods_tokens.extend(it);
            } else {
                ops.push(f.to_string());
            }
        }
    }
    let mods = parse_mods(&mods_tokens, lineno)?;

    let operr = |n: usize| AsmError::syntax(lineno, format!("{mn} expects {n} operands"));
    let op_at = |i: usize| -> Result<Operand, AsmError> {
        ops.get(i)
            .ok_or_else(|| AsmError::syntax(lineno, format!("{mn}: missing operand {i}")))
            .and_then(|t| parse_operand(t, lineno))
    };

    match opcode.format() {
        Format::Sop2 => {
            if ops.len() != 3 {
                return Err(operr(3));
            }
            builder.sop2(opcode, op_at(0)?, op_at(1)?, op_at(2)?)?;
        }
        Format::Sopk => {
            if ops.len() != 2 {
                return Err(operr(2));
            }
            let imm = int_in_range(
                &ops[1],
                i64::from(i16::MIN)..=0xffff,
                "sopk immediate",
                lineno,
            )?;
            builder.sopk(opcode, op_at(0)?, imm as i16)?;
        }
        Format::Sop1 => {
            if ops.len() != 2 {
                return Err(operr(2));
            }
            builder.sop1(opcode, op_at(0)?, op_at(1)?)?;
        }
        Format::Sopc => {
            if ops.len() != 2 {
                return Err(operr(2));
            }
            builder.sopc(opcode, op_at(0)?, op_at(1)?)?;
        }
        Format::Sopp => match opcode {
            Opcode::SEndpgm | Opcode::SBarrier => {
                builder.sopp(opcode, 0)?;
            }
            Opcode::SWaitcnt => unreachable!("s_waitcnt is handled before operand splitting"),
            op if op.is_branch() => {
                let target = rest.trim();
                if target.is_empty() {
                    return Err(AsmError::syntax(lineno, "branch needs a target label"));
                }
                let l = intern(builder, labels, target);
                builder.branch(opcode, l);
            }
            _ => {
                let imm = if rest.is_empty() {
                    0
                } else {
                    int_in_range(rest, 0..=0xffff, "sopp immediate", lineno)? as u16
                };
                builder.sopp(opcode, imm)?;
            }
        },
        Format::Smrd => {
            if ops.len() != 3 {
                return Err(operr(3));
            }
            let sdst = op_at(0)?;
            let sbase = expect_sgpr(op_at(1)?, lineno)?;
            let off_tok = ops[2].trim().to_ascii_lowercase();
            let offset = if off_tok.starts_with('s') && !off_tok.starts_with("0x") {
                SmrdOffset::Sgpr(expect_sgpr(parse_operand(&off_tok, lineno)?, lineno)?)
            } else {
                SmrdOffset::Imm(int_in_range(&off_tok, 0..=255, "smrd offset", lineno)? as u8)
            };
            builder.smrd(opcode, sdst, sbase, offset)?;
        }
        Format::Vop2 => {
            if opcode == Opcode::VCndmaskB32 {
                // v_cndmask_b32 vdst, src0, vsrc1, vcc
                if ops.len() != 4 {
                    return Err(operr(4));
                }
                let vdst = expect_vgpr(op_at(0)?, lineno)?;
                let vsrc1 = expect_vgpr(op_at(2)?, lineno)?;
                builder.vop2(opcode, vdst, op_at(1)?, vsrc1)?;
            } else if opcode.reads_vcc_implicitly() {
                // v_addc_u32 vdst, <carry-out>, src0, vsrc1, <carry-in>
                if ops.len() != 5 {
                    return Err(operr(5));
                }
                let vdst = expect_vgpr(op_at(0)?, lineno)?;
                let cout = op_at(1)?;
                let vsrc1 = expect_vgpr(op_at(3)?, lineno)?;
                let cin = op_at(4)?;
                if cout == Operand::VccLo && cin == Operand::VccLo && !e64 {
                    builder.vop2(opcode, vdst, op_at(2)?, vsrc1)?;
                } else {
                    builder.vop3b(
                        opcode,
                        vdst,
                        cout,
                        op_at(2)?,
                        Operand::Vgpr(vsrc1),
                        Some(cin),
                    )?;
                }
            } else if opcode.writes_vcc_implicitly() {
                // v_add_i32 vdst, <carry-out>, src0, vsrc1
                if ops.len() != 4 {
                    return Err(operr(4));
                }
                let vdst = expect_vgpr(op_at(0)?, lineno)?;
                let cout = op_at(1)?;
                let src1 = op_at(3)?;
                if cout == Operand::VccLo && !e64 {
                    if let Some(v1) = src1.vgpr_index() {
                        builder.vop2(opcode, vdst, op_at(2)?, v1)?;
                        return Ok(());
                    }
                }
                builder.vop3b(opcode, vdst, cout, op_at(2)?, src1, None)?;
            } else {
                if ops.len() != 3 {
                    return Err(operr(3));
                }
                let vdst = expect_vgpr(op_at(0)?, lineno)?;
                let src0 = op_at(1)?;
                let src1 = op_at(2)?;
                match src1.vgpr_index() {
                    Some(v1)
                        if !e64
                            && mods.abs.is_none()
                            && mods.neg.is_none()
                            && mods.omod.is_none()
                            && !mods.clamp =>
                    {
                        builder.vop2(opcode, vdst, src0, v1)?;
                    }
                    _ => {
                        // Promote to VOP3a.
                        builder.push(Instruction::new(
                            opcode,
                            Fields::Vop3a {
                                vdst,
                                src0,
                                src1,
                                src2: None,
                                abs: mod_in_range(mods.abs, 0..=7, "abs", lineno)? as u8,
                                neg: mod_in_range(mods.neg, 0..=7, "neg", lineno)? as u8,
                                clamp: mods.clamp,
                                omod: mod_in_range(mods.omod, 0..=3, "omod", lineno)? as u8,
                            },
                        )?);
                    }
                }
            }
        }
        Format::Vop1 => {
            if ops.len() != 2 {
                return Err(operr(2));
            }
            let dst = op_at(0)?;
            let vdst = if opcode.roles().contains(Roles::SDST) {
                expect_sgpr(dst, lineno)?
            } else {
                expect_vgpr(dst, lineno)?
            };
            builder.vop1(opcode, vdst, op_at(1)?)?;
        }
        Format::Vopc => {
            if ops.len() != 3 {
                return Err(operr(3));
            }
            let dst = op_at(0)?;
            let src0 = op_at(1)?;
            let src1 = op_at(2)?;
            if dst == Operand::VccLo && !e64 {
                if let Some(v1) = src1.vgpr_index() {
                    builder.vopc(opcode, src0, v1)?;
                    return Ok(());
                }
            }
            builder.vop3b(opcode, 0, dst, src0, src1, None)?;
        }
        Format::Vop3a | Format::Vop3b => {
            let want = usize::from(opcode.src_count()) + 1;
            if ops.len() != want {
                return Err(operr(want));
            }
            let vdst = expect_vgpr(op_at(0)?, lineno)?;
            let src2 = if want == 4 { Some(op_at(3)?) } else { None };
            builder.push(Instruction::new(
                opcode,
                Fields::Vop3a {
                    vdst,
                    src0: op_at(1)?,
                    src1: op_at(2)?,
                    src2,
                    abs: mod_in_range(mods.abs, 0..=7, "abs", lineno)? as u8,
                    neg: mod_in_range(mods.neg, 0..=7, "neg", lineno)? as u8,
                    clamp: mods.clamp,
                    omod: mod_in_range(mods.omod, 0..=3, "omod", lineno)? as u8,
                },
            )?);
        }
        Format::Ds => {
            let two = matches!(opcode, Opcode::DsRead2B32 | Opcode::DsWrite2B32);
            let (vdst, addr, data0, data1) = if opcode.is_store() {
                if two {
                    if ops.len() != 3 {
                        return Err(operr(3));
                    }
                    (
                        0,
                        expect_vgpr(op_at(0)?, lineno)?,
                        expect_vgpr(op_at(1)?, lineno)?,
                        expect_vgpr(op_at(2)?, lineno)?,
                    )
                } else {
                    if ops.len() != 2 {
                        return Err(operr(2));
                    }
                    (
                        0,
                        expect_vgpr(op_at(0)?, lineno)?,
                        expect_vgpr(op_at(1)?, lineno)?,
                        0,
                    )
                }
            } else if opcode.roles().contains(Roles::LOAD) {
                if ops.len() != 2 {
                    return Err(operr(2));
                }
                (
                    expect_vgpr(op_at(0)?, lineno)?,
                    expect_vgpr(op_at(1)?, lineno)?,
                    0,
                    0,
                )
            } else {
                // Atomics: addr, data.
                if ops.len() != 2 {
                    return Err(operr(2));
                }
                (
                    0,
                    expect_vgpr(op_at(0)?, lineno)?,
                    expect_vgpr(op_at(1)?, lineno)?,
                    0,
                )
            };
            let byte = |v: Option<i64>, what| mod_in_range(v, 0..=255, what, lineno);
            let (offset0, offset1) = if two {
                (
                    byte(mods.offset0, "offset0")? as u8,
                    byte(mods.offset1, "offset1")? as u8,
                )
            } else {
                (byte(mods.offset, "offset")? as u8, 0)
            };
            builder.push(Instruction::new(
                opcode,
                Fields::Ds {
                    vdst,
                    addr,
                    data0,
                    data1,
                    offset0,
                    offset1,
                    gds: mods.gds,
                },
            )?);
        }
        Format::Mubuf => {
            if ops.len() != 4 {
                return Err(operr(4));
            }
            builder.push(Instruction::new(
                opcode,
                Fields::Mubuf {
                    vdata: expect_vgpr(op_at(0)?, lineno)?,
                    vaddr: expect_vgpr(op_at(1)?, lineno)?,
                    srsrc: expect_sgpr(op_at(2)?, lineno)?,
                    soffset: op_at(3)?,
                    offset: mod_in_range(mods.offset, 0..=0xfff, "offset", lineno)? as u16,
                    offen: mods.offen,
                    idxen: mods.idxen,
                    glc: mods.glc,
                },
            )?);
        }
        Format::Mtbuf => {
            if ops.len() != 4 {
                return Err(operr(4));
            }
            builder.push(Instruction::new(
                opcode,
                Fields::Mtbuf {
                    vdata: expect_vgpr(op_at(0)?, lineno)?,
                    vaddr: expect_vgpr(op_at(1)?, lineno)?,
                    srsrc: expect_sgpr(op_at(2)?, lineno)?,
                    soffset: op_at(3)?,
                    offset: mod_in_range(mods.offset, 0..=0xfff, "offset", lineno)? as u16,
                    offen: mods.offen,
                    idxen: mods.idxen,
                    dfmt: mod_in_range(mods.dfmt.or(Some(4)), 0..=0xf, "dfmt", lineno)? as u8,
                    nfmt: mod_in_range(mods.nfmt.or(Some(4)), 0..=0x7, "nfmt", lineno)? as u8,
                },
            )?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_simple_kernel() {
        let text = r"
            .kernel add_seven
            .sgprs 8
            .vgprs 4
            // v1 = v0 + 7
            v_add_i32 v1, vcc, 7, v0
            s_endpgm
        ";
        let k = assemble(text).unwrap();
        assert_eq!(k.name(), "add_seven");
        assert_eq!(k.meta().sgprs, 8);
        let insts = k.instructions().unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].1.opcode, Opcode::VAddI32);
    }

    #[test]
    fn assembles_fig5_fragment() {
        // A fragment of the conv2D inner loop from the paper's Fig. 5.
        let text = r"
            .kernel conv2d_fragment
            label_0067:
            v_cmp_gt_u32 vcc, v6, v5
            s_and_saveexec_b64 s[8:9], vcc
            v_mov_b32 v8, v1
            v_mov_b32 v10, v3
            label_006f:
            v_add_i32 v11, vcc, s0, v8
            v_add_i32 v12, vcc, s1, v10
            s_waitcnt vmcnt(0)
            v_mul_lo_i32 v8, v8, v10
            v_mov_b32 v8, v11
            v_mov_b32 v10, v12
            s_branch label_006f
            s_mov_b64 exec, s[8:9]
            v_add_i32 v13, vcc, 1, v13
            v_cmp_gt_u32 s[14:15], v13, v4
            v_add_i32 v1, vcc, 4, v1
            s_endpgm
        ";
        let k = assemble(text).unwrap();
        let insts = k.instructions().unwrap();
        assert_eq!(insts.len(), 16);
        // The compare with an SGPR-pair destination must use VOP3b.
        let vop3b = insts
            .iter()
            .find(|(_, i)| matches!(i.fields, Fields::Vop3b { .. }))
            .expect("promoted compare present");
        assert_eq!(vop3b.1.opcode, Opcode::VCmpGtU32);
    }

    #[test]
    fn roundtrip_through_disassembly() {
        let text = r"
            .kernel rt
            s_mov_b32 s0, lit(0xdeadbeef)
            v_mul_f32 v1, 2.0, v0
            v_mac_f32 v2, v1, v3
            buffer_load_dword v4, v0, s[8:11], 0 offen offset:16
            s_waitcnt vmcnt(0)
            buffer_store_dword v4, v0, s[8:11], 0 offen offset:0
            s_endpgm
        ";
        let k1 = assemble(text).unwrap();
        let dis = k1.disassemble().unwrap();
        let k2 = assemble(&dis).unwrap();
        assert_eq!(k1.words(), k2.words(), "disassembly:\n{dis}");
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let text = ".kernel x\n v_frobnicate v0, v1\n s_endpgm\n";
        match assemble(text) {
            Err(AsmError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn bad_operand_count_rejected() {
        let text = ".kernel x\n s_add_u32 s0, s1\n s_endpgm\n";
        assert!(matches!(assemble(text), Err(AsmError::Syntax { .. })));
    }

    #[test]
    fn branch_to_missing_label_rejected() {
        let text = ".kernel x\n s_branch nowhere\n s_endpgm\n";
        assert!(matches!(assemble(text), Err(AsmError::UnboundLabel { .. })));
    }
}
