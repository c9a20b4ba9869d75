//! Decoded instructions and their machine-code encodings.

use serde::{Deserialize, Serialize};

use crate::{Format, IsaError, Opcode, Operand};

/// The offset source of an SMRD instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmrdOffset {
    /// Unsigned 8-bit immediate, in dwords.
    Imm(u8),
    /// Offset taken from an SGPR, in bytes.
    Sgpr(u8),
}

/// Format-specific instruction fields.
///
/// Vector-ALU opcodes whose natural format is VOP1/VOP2/VOPC may instead
/// carry [`Fields::Vop3a`] / [`Fields::Vop3b`] payloads, selecting the 64-bit
/// *promoted* encoding (needed e.g. when a compare writes an explicit SGPR
/// pair, as in `v_cmp_gt_u32 s[14:15], v13, v4` from the paper's Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fields {
    /// Scalar, two sources.
    Sop2 {
        /// Scalar destination.
        sdst: Operand,
        /// First source.
        ssrc0: Operand,
        /// Second source.
        ssrc1: Operand,
    },
    /// Scalar with a 16-bit signed immediate.
    Sopk {
        /// Scalar destination (also a source for the compare variants).
        sdst: Operand,
        /// Immediate.
        simm16: i16,
    },
    /// Scalar, one source.
    Sop1 {
        /// Scalar destination.
        sdst: Operand,
        /// Source.
        ssrc0: Operand,
    },
    /// Scalar compare: writes SCC only.
    Sopc {
        /// First source.
        ssrc0: Operand,
        /// Second source.
        ssrc1: Operand,
    },
    /// Program control with raw 16-bit immediate (branch offset, waitcnt
    /// bit-field, …).
    Sopp {
        /// Immediate payload.
        simm16: u16,
    },
    /// Scalar memory read.
    Smrd {
        /// Scalar destination (first register of the loaded group).
        sdst: Operand,
        /// First SGPR of the aligned base pair (must be even).
        sbase: u8,
        /// Offset source.
        offset: SmrdOffset,
    },
    /// Vector, two sources (32-bit encoding; `vsrc1` must be a VGPR).
    Vop2 {
        /// Vector destination register.
        vdst: u8,
        /// First source (full 9-bit operand space).
        src0: Operand,
        /// Second source VGPR.
        vsrc1: u8,
    },
    /// Vector, one source (32-bit encoding).
    Vop1 {
        /// Vector destination register.
        vdst: u8,
        /// Source (full 9-bit operand space).
        src0: Operand,
    },
    /// Vector compare (32-bit encoding; result implicitly to VCC).
    Vopc {
        /// First source (full 9-bit operand space).
        src0: Operand,
        /// Second source VGPR.
        vsrc1: u8,
    },
    /// Vector, 64-bit encoding, vector destination.
    Vop3a {
        /// Vector destination register.
        vdst: u8,
        /// First source.
        src0: Operand,
        /// Second source.
        src1: Operand,
        /// Third source (two-source VOP3 opcodes leave this `None`).
        src2: Option<Operand>,
        /// Per-source absolute-value modifier bits (bit *i* = source *i*).
        abs: u8,
        /// Per-source negation modifier bits.
        neg: u8,
        /// Clamp result to `[0, 1]`.
        clamp: bool,
        /// Output modifier (0 = none, 1 = ×2, 2 = ×4, 3 = ÷2).
        omod: u8,
    },
    /// Vector, 64-bit encoding with an explicit scalar destination
    /// (compares and carry-producing arithmetic).
    Vop3b {
        /// Vector destination register.
        vdst: u8,
        /// Scalar destination (lane-mask / carry-out pair).
        sdst: Operand,
        /// First source.
        src0: Operand,
        /// Second source.
        src1: Operand,
        /// Third source (carry-in for `v_addc`/`v_subb`).
        src2: Option<Operand>,
    },
    /// LDS access.
    Ds {
        /// Vector destination register (reads).
        vdst: u8,
        /// Address VGPR (byte address within the LDS).
        addr: u8,
        /// First data VGPR (writes / atomics).
        data0: u8,
        /// Second data VGPR (`*2` variants).
        data1: u8,
        /// First offset (bytes; element index for `*2` variants).
        offset0: u8,
        /// Second offset (`*2` variants).
        offset1: u8,
        /// Global data share flag (unused by MIAOW2.0, kept for encoding).
        gds: bool,
    },
    /// Untyped buffer access.
    Mubuf {
        /// Data VGPR (first of the group).
        vdata: u8,
        /// Address VGPR.
        vaddr: u8,
        /// First SGPR of the aligned resource-descriptor quad (multiple of 4).
        srsrc: u8,
        /// Scalar offset source (SGPR or inline constant).
        soffset: Operand,
        /// Unsigned 12-bit immediate byte offset.
        offset: u16,
        /// Supply the address from `vaddr` (offset enable).
        offen: bool,
        /// Index enable.
        idxen: bool,
        /// Globally coherent access.
        glc: bool,
    },
    /// Typed buffer access.
    Mtbuf {
        /// Data VGPR (first of the group).
        vdata: u8,
        /// Address VGPR.
        vaddr: u8,
        /// First SGPR of the aligned resource-descriptor quad (multiple of 4).
        srsrc: u8,
        /// Scalar offset source.
        soffset: Operand,
        /// Unsigned 12-bit immediate byte offset.
        offset: u16,
        /// Offset enable.
        offen: bool,
        /// Index enable.
        idxen: bool,
        /// Data format (4 bits; 4 = 32-bit, as produced by CodeXL).
        dfmt: u8,
        /// Numeric format (3 bits; 4 = uint).
        nfmt: u8,
    },
}

impl Fields {
    /// The encoding format selected by this payload.
    #[must_use]
    pub fn encoding_format(&self) -> Format {
        match self {
            Fields::Sop2 { .. } => Format::Sop2,
            Fields::Sopk { .. } => Format::Sopk,
            Fields::Sop1 { .. } => Format::Sop1,
            Fields::Sopc { .. } => Format::Sopc,
            Fields::Sopp { .. } => Format::Sopp,
            Fields::Smrd { .. } => Format::Smrd,
            Fields::Vop2 { .. } => Format::Vop2,
            Fields::Vop1 { .. } => Format::Vop1,
            Fields::Vopc { .. } => Format::Vopc,
            Fields::Vop3a { .. } => Format::Vop3a,
            Fields::Vop3b { .. } => Format::Vop3b,
            Fields::Ds { .. } => Format::Ds,
            Fields::Mubuf { .. } => Format::Mubuf,
            Fields::Mtbuf { .. } => Format::Mtbuf,
        }
    }
}

/// A fully decoded instruction: opcode plus format fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Format-specific operand fields.
    pub fields: Fields,
}

/// An instruction's explicit source operands, held inline: no format
/// has more than three, so listing them never allocates. Derefs to a
/// slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceOperands {
    ops: [Operand; 3],
    len: usize,
}

impl Default for SourceOperands {
    fn default() -> SourceOperands {
        SourceOperands {
            ops: [Operand::IntConst(0); 3],
            len: 0,
        }
    }
}

impl SourceOperands {
    fn push(&mut self, op: Operand) {
        self.ops[self.len] = op;
        self.len += 1;
    }
}

impl std::ops::Deref for SourceOperands {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.ops[..self.len]
    }
}

impl IntoIterator for SourceOperands {
    type Item = Operand;
    type IntoIter = std::iter::Take<std::array::IntoIter<Operand, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter().take(self.len)
    }
}

impl Instruction {
    /// Build and validate an instruction.
    ///
    /// # Errors
    ///
    /// * [`IsaError::FieldsMismatch`] when the payload layout is not legal
    ///   for the opcode (the natural format, or a VOP3 promotion for
    ///   vector-ALU opcodes);
    /// * [`IsaError::InvalidOperand`] for operands illegal in their position;
    /// * [`IsaError::MultipleLiterals`] when more than one operand needs a
    ///   trailing literal word.
    pub fn new(opcode: Opcode, fields: Fields) -> Result<Instruction, IsaError> {
        let inst = Instruction { opcode, fields };
        inst.validate()?;
        Ok(inst)
    }

    fn validate(&self) -> Result<(), IsaError> {
        let natural = self.opcode.format();
        let encoding = self.fields.encoding_format();
        let promotion_ok = matches!(encoding, Format::Vop3a | Format::Vop3b)
            && self.opcode.vop3_native().is_some();
        if encoding != natural && !promotion_ok {
            return Err(IsaError::FieldsMismatch {
                opcode: self.opcode,
                expected: natural,
            });
        }
        // VOP3b is only meaningful for opcodes with an implicit scalar result.
        if encoding == Format::Vop3b
            && !(self.opcode.writes_vcc_implicitly() || natural == Format::Vop3b)
        {
            return Err(IsaError::InvalidOperand {
                opcode: self.opcode,
                reason: "VOP3b encoding requires a compare or carry opcode",
            });
        }

        let err = |reason| IsaError::InvalidOperand {
            opcode: self.opcode,
            reason,
        };

        match self.fields {
            Fields::Sop2 { sdst, ssrc0, ssrc1 } => {
                if !sdst.is_scalar_writable() {
                    return Err(err("sdst must be a scalar-writable register"));
                }
                if !ssrc0.is_scalar_src() || !ssrc1.is_scalar_src() {
                    return Err(err("scalar sources cannot be VGPRs"));
                }
            }
            Fields::Sopk { sdst, .. } => {
                if !sdst.is_scalar_writable() {
                    return Err(err("sdst must be a scalar-writable register"));
                }
            }
            Fields::Sop1 { sdst, ssrc0 } => {
                if !sdst.is_scalar_writable() {
                    return Err(err("sdst must be a scalar-writable register"));
                }
                if !ssrc0.is_scalar_src() {
                    return Err(err("scalar sources cannot be VGPRs"));
                }
            }
            Fields::Sopc { ssrc0, ssrc1 } => {
                if !ssrc0.is_scalar_src() || !ssrc1.is_scalar_src() {
                    return Err(err("scalar sources cannot be VGPRs"));
                }
            }
            Fields::Sopp { .. } => {}
            Fields::Smrd { sdst, sbase, .. } => {
                if !sdst.is_scalar_writable() {
                    return Err(err("sdst must be a scalar-writable register"));
                }
                if sbase % 2 != 0 || usize::from(sbase) >= crate::SGPR_COUNT {
                    return Err(err("sbase must be an even SGPR pair base"));
                }
            }
            Fields::Vop2 { src0, .. } | Fields::Vop1 { src0, .. } | Fields::Vopc { src0, .. } => {
                // src0 spans the full 9-bit space: everything is legal.
                let _ = src0;
            }
            Fields::Vop3a {
                src0,
                src1,
                src2,
                omod,
                ..
            } => {
                if src0.is_literal() || src1.is_literal() || src2.is_some_and(|s| s.is_literal()) {
                    return Err(err("VOP3 encodings cannot carry literal constants"));
                }
                if omod > 3 {
                    return Err(err("omod must be 0..=3"));
                }
                let expects_src2 = self.opcode.src_count() == 3
                    && matches!(self.opcode.format(), Format::Vop3a | Format::Vop3b);
                if expects_src2 && src2.is_none() {
                    return Err(err("three-source VOP3 opcode requires src2"));
                }
            }
            Fields::Vop3b {
                sdst,
                src0,
                src1,
                src2,
                ..
            } => {
                if !sdst.is_scalar_writable() {
                    return Err(err("sdst must be a scalar-writable register"));
                }
                if src0.is_literal() || src1.is_literal() || src2.is_some_and(|s| s.is_literal()) {
                    return Err(err("VOP3 encodings cannot carry literal constants"));
                }
            }
            Fields::Ds { .. } => {}
            Fields::Mubuf {
                srsrc,
                soffset,
                offset,
                ..
            }
            | Fields::Mtbuf {
                srsrc,
                soffset,
                offset,
                ..
            } => {
                if srsrc % 4 != 0 || usize::from(srsrc) >= crate::SGPR_COUNT {
                    return Err(err("srsrc must be a multiple-of-4 SGPR quad base"));
                }
                if !soffset.is_scalar_src() || soffset.is_literal() {
                    return Err(err("soffset must be an SGPR or inline constant"));
                }
                if offset > 0xfff {
                    return Err(err("buffer immediate offset is 12 bits"));
                }
            }
        }

        if self.literal_operands() > 1 {
            return Err(IsaError::MultipleLiterals);
        }
        Ok(())
    }

    fn literal_operands(&self) -> usize {
        self.source_operands()
            .iter()
            .filter(|o| o.is_literal())
            .count()
    }

    /// The explicit source operands, in encoding order.
    #[must_use]
    pub fn source_operands(&self) -> SourceOperands {
        let mut ops = SourceOperands::default();
        match self.fields {
            Fields::Sop2 { ssrc0, ssrc1, .. } | Fields::Sopc { ssrc0, ssrc1 } => {
                ops.push(ssrc0);
                ops.push(ssrc1);
            }
            Fields::Sop1 { ssrc0, .. } => ops.push(ssrc0),
            Fields::Sopk { .. } | Fields::Sopp { .. } => {}
            Fields::Smrd { sbase, offset, .. } => {
                ops.push(Operand::Sgpr(sbase));
                if let SmrdOffset::Sgpr(s) = offset {
                    ops.push(Operand::Sgpr(s));
                }
            }
            Fields::Vop2 { src0, vsrc1, .. } | Fields::Vopc { src0, vsrc1 } => {
                ops.push(src0);
                ops.push(Operand::Vgpr(vsrc1));
            }
            Fields::Vop1 { src0, .. } => ops.push(src0),
            Fields::Vop3a {
                src0, src1, src2, ..
            }
            | Fields::Vop3b {
                src0, src1, src2, ..
            } => {
                ops.push(src0);
                ops.push(src1);
                if let Some(s) = src2 {
                    ops.push(s);
                }
            }
            Fields::Ds {
                addr, data0, data1, ..
            } => {
                ops.push(Operand::Vgpr(addr));
                ops.push(Operand::Vgpr(data0));
                ops.push(Operand::Vgpr(data1));
            }
            Fields::Mubuf {
                vaddr,
                srsrc,
                soffset,
                ..
            }
            | Fields::Mtbuf {
                vaddr,
                srsrc,
                soffset,
                ..
            } => {
                ops.push(Operand::Vgpr(vaddr));
                ops.push(Operand::Sgpr(srsrc));
                ops.push(soffset);
            }
        }
        ops
    }

    /// The literal constant carried by this instruction, if any.
    #[must_use]
    pub fn literal(&self) -> Option<u32> {
        self.source_operands().into_iter().find_map(|o| match o {
            Operand::Literal(v) => Some(v),
            _ => None,
        })
    }

    /// Size of the encoded instruction in 32-bit words (including any
    /// trailing literal).
    #[must_use]
    pub fn size_words(&self) -> usize {
        let base = if self.fields.encoding_format().is_64bit() {
            2
        } else {
            1
        };
        base + self.literal_operands()
    }

    /// `true` when the encoding occupies two base words (requiring the
    /// double fetch described in §2.1.1 of the paper).
    #[must_use]
    pub fn uses_64bit_encoding(&self) -> bool {
        self.fields.encoding_format().is_64bit() || self.literal_operands() > 0
    }

    /// Encode to machine words.
    ///
    /// # Errors
    ///
    /// Propagates operand-encoding failures; the instruction itself was
    /// validated at construction.
    pub fn encode(&self) -> Result<Vec<u32>, IsaError> {
        let op = u32::from(self.opcode.native());
        let mut words = Vec::with_capacity(self.size_words());
        let mut literal: Option<u32> = None;
        let mut src = |o: Operand| -> Result<u32, IsaError> {
            if let Operand::Literal(v) = o {
                literal = Some(v);
            }
            Ok(u32::from(o.encode_src()?))
        };

        match self.fields {
            Fields::Sop2 { sdst, ssrc0, ssrc1 } => {
                let s0 = src(ssrc0)?;
                let s1 = src(ssrc1)?;
                let d = u32::from(sdst.encode_src()?);
                words.push((0b10 << 30) | (op << 23) | (d << 16) | (s1 << 8) | s0);
            }
            Fields::Sopk { sdst, simm16 } => {
                let d = u32::from(sdst.encode_src()?);
                words.push((0b1011 << 28) | (op << 23) | (d << 16) | u32::from(simm16 as u16));
            }
            Fields::Sop1 { sdst, ssrc0 } => {
                let s0 = src(ssrc0)?;
                let d = u32::from(sdst.encode_src()?);
                words.push((0b101111101 << 23) | (d << 16) | (op << 8) | s0);
            }
            Fields::Sopc { ssrc0, ssrc1 } => {
                let s0 = src(ssrc0)?;
                let s1 = src(ssrc1)?;
                words.push((0b101111110 << 23) | (op << 16) | (s1 << 8) | s0);
            }
            Fields::Sopp { simm16 } => {
                words.push((0b101111111 << 23) | (op << 16) | u32::from(simm16));
            }
            Fields::Smrd {
                sdst,
                sbase,
                offset,
            } => {
                let d = u32::from(sdst.encode_src()?);
                let (imm, off) = match offset {
                    SmrdOffset::Imm(i) => (1u32, u32::from(i)),
                    SmrdOffset::Sgpr(s) => (0u32, u32::from(s)),
                };
                words.push(
                    (0b11000 << 27)
                        | (op << 22)
                        | (d << 15)
                        | (u32::from(sbase / 2) << 9)
                        | (imm << 8)
                        | off,
                );
            }
            Fields::Vop2 { vdst, src0, vsrc1 } => {
                let s0 = src(src0)?;
                words.push((op << 25) | (u32::from(vdst) << 17) | (u32::from(vsrc1) << 9) | s0);
            }
            Fields::Vop1 { vdst, src0 } => {
                let s0 = src(src0)?;
                words.push((0b0111111 << 25) | (u32::from(vdst) << 17) | (op << 9) | s0);
            }
            Fields::Vopc { src0, vsrc1 } => {
                let s0 = src(src0)?;
                words.push((0b0111110 << 25) | (op << 17) | (u32::from(vsrc1) << 9) | s0);
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
                let vop3_op = u32::from(self.opcode.vop3_native().expect("validated vector op"));
                let s0 = src(src0)?;
                let s1 = src(src1)?;
                let s2 = match src2 {
                    Some(s) => src(s)?,
                    None => 0,
                };
                words.push(
                    (0b110100 << 26)
                        | (vop3_op << 17)
                        | (u32::from(clamp) << 11)
                        | (u32::from(abs & 0x7) << 8)
                        | u32::from(vdst),
                );
                words.push(
                    (u32::from(neg & 0x7) << 29)
                        | (u32::from(omod & 0x3) << 27)
                        | (s2 << 18)
                        | (s1 << 9)
                        | s0,
                );
            }
            Fields::Vop3b {
                vdst,
                sdst,
                src0,
                src1,
                src2,
            } => {
                let vop3_op = u32::from(self.opcode.vop3_native().expect("validated vector op"));
                let s0 = src(src0)?;
                let s1 = src(src1)?;
                let s2 = match src2 {
                    Some(s) => src(s)?,
                    None => 0,
                };
                let d = u32::from(sdst.encode_src()?);
                words.push((0b110100 << 26) | (vop3_op << 17) | (d << 8) | u32::from(vdst));
                words.push((s2 << 18) | (s1 << 9) | s0);
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
                words.push(
                    (0b110110 << 26)
                        | (op << 18)
                        | (u32::from(gds) << 17)
                        | (u32::from(offset1) << 8)
                        | u32::from(offset0),
                );
                words.push(
                    (u32::from(vdst) << 24)
                        | (u32::from(data1) << 16)
                        | (u32::from(data0) << 8)
                        | u32::from(addr),
                );
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
                let soff = src(soffset)?;
                words.push(
                    (0b111000 << 26)
                        | (op << 18)
                        | (u32::from(glc) << 14)
                        | (u32::from(idxen) << 13)
                        | (u32::from(offen) << 12)
                        | u32::from(offset & 0xfff),
                );
                words.push(
                    (soff << 24)
                        | (u32::from(srsrc / 4) << 16)
                        | (u32::from(vdata) << 8)
                        | u32::from(vaddr),
                );
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
                let soff = src(soffset)?;
                words.push(
                    (0b111010 << 26)
                        | (u32::from(nfmt & 0x7) << 23)
                        | (u32::from(dfmt & 0xf) << 19)
                        | (op << 16)
                        | (u32::from(idxen) << 13)
                        | (u32::from(offen) << 12)
                        | u32::from(offset & 0xfff),
                );
                words.push(
                    (soff << 24)
                        | (u32::from(srsrc / 4) << 16)
                        | (u32::from(vdata) << 8)
                        | u32::from(vaddr),
                );
            }
        }

        if let Some(v) = literal {
            words.push(v);
        }
        Ok(words)
    }

    /// Decode one instruction from the front of `words`.
    ///
    /// Returns the instruction and the number of words consumed.
    ///
    /// # Errors
    ///
    /// * [`IsaError::TruncatedStream`] when `words` ends mid-instruction;
    /// * [`IsaError::UnknownFormat`] / [`IsaError::UnknownOpcode`] for
    ///   unrecognised encodings;
    /// * operand decoding failures.
    pub fn decode(words: &[u32]) -> Result<(Instruction, usize), IsaError> {
        let &w0 = words.first().ok_or(IsaError::TruncatedStream)?;
        let format = Format::of_word(w0).ok_or(IsaError::UnknownFormat { word: w0 })?;

        let field = |word: u32, lo: u32, bits: u32| -> u32 { (word >> lo) & ((1 << bits) - 1) };

        let mut consumed = 1usize;
        let mut need_literal = false;
        let mut src = |raw: u32| -> Result<Operand, IsaError> {
            let o = Operand::decode_src(raw as u16)?;
            if o.is_literal() {
                need_literal = true;
            }
            Ok(o)
        };

        let (opcode, mut fields) = match format {
            Format::Sop2 => {
                let op = field(w0, 23, 7) as u16;
                let opcode = Opcode::from_native(Format::Sop2, op)?;
                let fields = Fields::Sop2 {
                    sdst: Operand::decode_src(field(w0, 16, 7) as u16)?,
                    ssrc0: src(field(w0, 0, 8))?,
                    ssrc1: src(field(w0, 8, 8))?,
                };
                (opcode, fields)
            }
            Format::Sopk => {
                let op = field(w0, 23, 5) as u16;
                let opcode = Opcode::from_native(Format::Sopk, op)?;
                let fields = Fields::Sopk {
                    sdst: Operand::decode_src(field(w0, 16, 7) as u16)?,
                    simm16: field(w0, 0, 16) as u16 as i16,
                };
                (opcode, fields)
            }
            Format::Sop1 => {
                let op = field(w0, 8, 8) as u16;
                let opcode = Opcode::from_native(Format::Sop1, op)?;
                let fields = Fields::Sop1 {
                    sdst: Operand::decode_src(field(w0, 16, 7) as u16)?,
                    ssrc0: src(field(w0, 0, 8))?,
                };
                (opcode, fields)
            }
            Format::Sopc => {
                let op = field(w0, 16, 7) as u16;
                let opcode = Opcode::from_native(Format::Sopc, op)?;
                let fields = Fields::Sopc {
                    ssrc0: src(field(w0, 0, 8))?,
                    ssrc1: src(field(w0, 8, 8))?,
                };
                (opcode, fields)
            }
            Format::Sopp => {
                let op = field(w0, 16, 7) as u16;
                let opcode = Opcode::from_native(Format::Sopp, op)?;
                (
                    opcode,
                    Fields::Sopp {
                        simm16: field(w0, 0, 16) as u16,
                    },
                )
            }
            Format::Smrd => {
                let op = field(w0, 22, 5) as u16;
                let opcode = Opcode::from_native(Format::Smrd, op)?;
                let offset = if field(w0, 8, 1) == 1 {
                    SmrdOffset::Imm(field(w0, 0, 8) as u8)
                } else {
                    SmrdOffset::Sgpr(field(w0, 0, 8) as u8)
                };
                let fields = Fields::Smrd {
                    sdst: Operand::decode_src(field(w0, 15, 7) as u16)?,
                    sbase: (field(w0, 9, 6) * 2) as u8,
                    offset,
                };
                (opcode, fields)
            }
            Format::Vop2 => {
                let op = field(w0, 25, 6) as u16;
                let opcode = Opcode::from_native(Format::Vop2, op)?;
                let fields = Fields::Vop2 {
                    vdst: field(w0, 17, 8) as u8,
                    src0: src(field(w0, 0, 9))?,
                    vsrc1: field(w0, 9, 8) as u8,
                };
                (opcode, fields)
            }
            Format::Vop1 => {
                let op = field(w0, 9, 8) as u16;
                let opcode = Opcode::from_native(Format::Vop1, op)?;
                let fields = Fields::Vop1 {
                    vdst: field(w0, 17, 8) as u8,
                    src0: src(field(w0, 0, 9))?,
                };
                (opcode, fields)
            }
            Format::Vopc => {
                let op = field(w0, 17, 8) as u16;
                let opcode = Opcode::from_native(Format::Vopc, op)?;
                let fields = Fields::Vopc {
                    src0: src(field(w0, 0, 9))?,
                    vsrc1: field(w0, 9, 8) as u8,
                };
                (opcode, fields)
            }
            Format::Vop3a | Format::Vop3b => {
                let &w1 = words.get(1).ok_or(IsaError::TruncatedStream)?;
                consumed = 2;
                let vop3_op = field(w0, 17, 9) as u16;
                let opcode = Opcode::from_vop3_native(vop3_op)?;
                let src0 = src(field(w1, 0, 9))?;
                let src1 = src(field(w1, 9, 9))?;
                let src2_raw = field(w1, 18, 9);
                let src2 = if opcode.src_count() == 3 || opcode.reads_vcc_implicitly() {
                    Some(src(src2_raw)?)
                } else {
                    None
                };
                // VOP3b: promoted compares and carry arithmetic.
                let is_b = opcode.writes_vcc_implicitly();
                let fields = if is_b {
                    Fields::Vop3b {
                        vdst: field(w0, 0, 8) as u8,
                        sdst: Operand::decode_src(field(w0, 8, 7) as u16)?,
                        src0,
                        src1,
                        src2: if opcode.reads_vcc_implicitly() {
                            src2
                        } else {
                            None
                        },
                    }
                } else {
                    Fields::Vop3a {
                        vdst: field(w0, 0, 8) as u8,
                        src0,
                        src1,
                        src2,
                        abs: field(w0, 8, 3) as u8,
                        neg: field(w1, 29, 3) as u8,
                        clamp: field(w0, 11, 1) == 1,
                        omod: field(w1, 27, 2) as u8,
                    }
                };
                (opcode, fields)
            }
            Format::Ds => {
                let &w1 = words.get(1).ok_or(IsaError::TruncatedStream)?;
                consumed = 2;
                let op = field(w0, 18, 8) as u16;
                let opcode = Opcode::from_native(Format::Ds, op)?;
                let fields = Fields::Ds {
                    vdst: field(w1, 24, 8) as u8,
                    data1: field(w1, 16, 8) as u8,
                    data0: field(w1, 8, 8) as u8,
                    addr: field(w1, 0, 8) as u8,
                    offset1: field(w0, 8, 8) as u8,
                    offset0: field(w0, 0, 8) as u8,
                    gds: field(w0, 17, 1) == 1,
                };
                (opcode, fields)
            }
            Format::Mubuf => {
                let &w1 = words.get(1).ok_or(IsaError::TruncatedStream)?;
                consumed = 2;
                let op = field(w0, 18, 7) as u16;
                let opcode = Opcode::from_native(Format::Mubuf, op)?;
                let fields = Fields::Mubuf {
                    vdata: field(w1, 8, 8) as u8,
                    vaddr: field(w1, 0, 8) as u8,
                    srsrc: (field(w1, 16, 5) * 4) as u8,
                    soffset: src(field(w1, 24, 8))?,
                    offset: field(w0, 0, 12) as u16,
                    offen: field(w0, 12, 1) == 1,
                    idxen: field(w0, 13, 1) == 1,
                    glc: field(w0, 14, 1) == 1,
                };
                (opcode, fields)
            }
            Format::Mtbuf => {
                let &w1 = words.get(1).ok_or(IsaError::TruncatedStream)?;
                consumed = 2;
                let op = field(w0, 16, 3) as u16;
                let opcode = Opcode::from_native(Format::Mtbuf, op)?;
                let fields = Fields::Mtbuf {
                    vdata: field(w1, 8, 8) as u8,
                    vaddr: field(w1, 0, 8) as u8,
                    srsrc: (field(w1, 16, 5) * 4) as u8,
                    soffset: src(field(w1, 24, 8))?,
                    offset: field(w0, 0, 12) as u16,
                    offen: field(w0, 12, 1) == 1,
                    idxen: field(w0, 13, 1) == 1,
                    dfmt: field(w0, 19, 4) as u8,
                    nfmt: field(w0, 23, 3) as u8,
                };
                (opcode, fields)
            }
        };

        if need_literal {
            let &lit = words.get(consumed).ok_or(IsaError::TruncatedStream)?;
            consumed += 1;
            patch_literal(&mut fields, lit);
        }

        let inst = Instruction { opcode, fields };
        inst.validate()?;
        Ok((inst, consumed))
    }

    /// Decode an entire word stream into an instruction list with the word
    /// offset of each instruction.
    ///
    /// # Errors
    ///
    /// Fails on the first undecodable word.
    pub fn decode_all(words: &[u32]) -> Result<Vec<(usize, Instruction)>, IsaError> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < words.len() {
            let (inst, used) = Instruction::decode(&words[pos..])?;
            out.push((pos, inst));
            pos += used;
        }
        Ok(out)
    }
}

fn patch_literal(fields: &mut Fields, value: u32) {
    let patch = |o: &mut Operand| {
        if let Operand::Literal(v) = o {
            *v = value;
        }
    };
    match fields {
        Fields::Sop2 { ssrc0, ssrc1, .. } => {
            patch(ssrc0);
            patch(ssrc1);
        }
        Fields::Sop1 { ssrc0, .. } => patch(ssrc0),
        Fields::Sopc { ssrc0, ssrc1 } => {
            patch(ssrc0);
            patch(ssrc1);
        }
        Fields::Vop2 { src0, .. } | Fields::Vop1 { src0, .. } | Fields::Vopc { src0, .. } => {
            patch(src0)
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Instruction) {
        let words = inst.encode().expect("encode");
        assert_eq!(words.len(), inst.size_words());
        let (back, used) = Instruction::decode(&words).expect("decode");
        assert_eq!(used, words.len());
        assert_eq!(back, inst, "words: {words:08x?}");
    }

    #[test]
    fn sop2_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::SAddU32,
                Fields::Sop2 {
                    sdst: Operand::Sgpr(3),
                    ssrc0: Operand::Sgpr(1),
                    ssrc1: Operand::IntConst(12),
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn sop2_with_literal_roundtrip() {
        let inst = Instruction::new(
            Opcode::SMulI32,
            Fields::Sop2 {
                sdst: Operand::Sgpr(0),
                ssrc0: Operand::Sgpr(2),
                ssrc1: Operand::Literal(0x1234_5678),
            },
        )
        .unwrap();
        assert_eq!(inst.size_words(), 2);
        assert!(inst.uses_64bit_encoding());
        roundtrip(inst);
    }

    #[test]
    fn sopk_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::SMovkI32,
                Fields::Sopk {
                    sdst: Operand::Sgpr(9),
                    simm16: -1234,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn sop1_saveexec_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::SAndSaveexecB64,
                Fields::Sop1 {
                    sdst: Operand::Sgpr(8),
                    ssrc0: Operand::VccLo,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn sopc_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::SCmpLtU32,
                Fields::Sopc {
                    ssrc0: Operand::Sgpr(4),
                    ssrc1: Operand::IntConst(64),
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn sopp_roundtrip() {
        roundtrip(Instruction::new(Opcode::SWaitcnt, Fields::Sopp { simm16: 0x0070 }).unwrap());
        roundtrip(
            Instruction::new(
                Opcode::SBranch,
                Fields::Sopp {
                    simm16: (-5i16) as u16,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn smrd_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::SLoadDwordx4,
                Fields::Smrd {
                    sdst: Operand::Sgpr(8),
                    sbase: 4,
                    offset: SmrdOffset::Imm(2),
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::SBufferLoadDword,
                Fields::Smrd {
                    sdst: Operand::Sgpr(0),
                    sbase: 8,
                    offset: SmrdOffset::Sgpr(16),
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn smrd_odd_base_rejected() {
        let r = Instruction::new(
            Opcode::SLoadDword,
            Fields::Smrd {
                sdst: Operand::Sgpr(0),
                sbase: 5,
                offset: SmrdOffset::Imm(0),
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn vop2_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VAddI32,
                Fields::Vop2 {
                    vdst: 11,
                    src0: Operand::Sgpr(0),
                    vsrc1: 8,
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::VMulF32,
                Fields::Vop2 {
                    vdst: 1,
                    src0: Operand::FloatConst(2.0),
                    vsrc1: 2,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vop2_literal_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VAndB32,
                Fields::Vop2 {
                    vdst: 0,
                    src0: Operand::Literal(0x00ff_00ff),
                    vsrc1: 3,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vop1_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VMovB32,
                Fields::Vop1 {
                    vdst: 8,
                    src0: Operand::Vgpr(1),
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::VRcpF32,
                Fields::Vop1 {
                    vdst: 4,
                    src0: Operand::Vgpr(4),
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vopc_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VCmpGtU32,
                Fields::Vopc {
                    src0: Operand::Vgpr(6),
                    vsrc1: 5,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vop3a_native_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VMadF32,
                Fields::Vop3a {
                    vdst: 7,
                    src0: Operand::Vgpr(1),
                    src1: Operand::Vgpr(2),
                    src2: Some(Operand::Vgpr(3)),
                    abs: 0,
                    neg: 0b001,
                    clamp: true,
                    omod: 2,
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::VMulLoI32,
                Fields::Vop3a {
                    vdst: 8,
                    src0: Operand::Vgpr(8),
                    src1: Operand::Vgpr(10),
                    src2: None,
                    abs: 0,
                    neg: 0,
                    clamp: false,
                    omod: 0,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vopc_promoted_to_vop3b_roundtrip() {
        // Fig. 5: v_cmp_gt_u32 s[14:15], v13, v4
        roundtrip(
            Instruction::new(
                Opcode::VCmpGtU32,
                Fields::Vop3b {
                    vdst: 0,
                    sdst: Operand::Sgpr(14),
                    src0: Operand::Vgpr(13),
                    src1: Operand::Vgpr(4),
                    src2: None,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vop2_promoted_to_vop3a_roundtrip() {
        // v_max_u32 with a scalar second source needs the VOP3 encoding.
        roundtrip(
            Instruction::new(
                Opcode::VMaxU32,
                Fields::Vop3a {
                    vdst: 2,
                    src0: Operand::Vgpr(2),
                    src1: Operand::Sgpr(5),
                    src2: None,
                    abs: 0,
                    neg: 0,
                    clamp: false,
                    omod: 0,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn addc_vop3b_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::VAddcU32,
                Fields::Vop3b {
                    vdst: 1,
                    sdst: Operand::Sgpr(10),
                    src0: Operand::Vgpr(1),
                    src1: Operand::Vgpr(2),
                    src2: Some(Operand::Sgpr(12)),
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn vop3_rejects_literals() {
        let r = Instruction::new(
            Opcode::VMadF32,
            Fields::Vop3a {
                vdst: 0,
                src0: Operand::Literal(5),
                src1: Operand::Vgpr(1),
                src2: Some(Operand::Vgpr(2)),
                abs: 0,
                neg: 0,
                clamp: false,
                omod: 0,
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn vop3b_requires_carry_or_compare() {
        let r = Instruction::new(
            Opcode::VMulF32,
            Fields::Vop3b {
                vdst: 0,
                sdst: Operand::Sgpr(0),
                src0: Operand::Vgpr(0),
                src1: Operand::Vgpr(1),
                src2: None,
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn ds_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::DsWriteB32,
                Fields::Ds {
                    vdst: 0,
                    addr: 3,
                    data0: 4,
                    data1: 0,
                    offset0: 16,
                    offset1: 0,
                    gds: false,
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::DsRead2B32,
                Fields::Ds {
                    vdst: 6,
                    addr: 3,
                    data0: 0,
                    data1: 0,
                    offset0: 0,
                    offset1: 1,
                    gds: false,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn mubuf_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::BufferLoadDword,
                Fields::Mubuf {
                    vdata: 2,
                    vaddr: 1,
                    srsrc: 4,
                    soffset: Operand::IntConst(0),
                    offset: 64,
                    offen: true,
                    idxen: false,
                    glc: false,
                },
            )
            .unwrap(),
        );
        roundtrip(
            Instruction::new(
                Opcode::BufferStoreDwordx2,
                Fields::Mubuf {
                    vdata: 8,
                    vaddr: 0,
                    srsrc: 8,
                    soffset: Operand::Sgpr(20),
                    offset: 0,
                    offen: false,
                    idxen: true,
                    glc: true,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn mtbuf_roundtrip() {
        roundtrip(
            Instruction::new(
                Opcode::TbufferLoadFormatX,
                Fields::Mtbuf {
                    vdata: 3,
                    vaddr: 2,
                    srsrc: 4,
                    soffset: Operand::IntConst(0),
                    offset: 16,
                    offen: true,
                    idxen: false,
                    dfmt: 4,
                    nfmt: 4,
                },
            )
            .unwrap(),
        );
    }

    #[test]
    fn buffer_srsrc_alignment_enforced() {
        let r = Instruction::new(
            Opcode::BufferLoadDword,
            Fields::Mubuf {
                vdata: 0,
                vaddr: 0,
                srsrc: 6,
                soffset: Operand::IntConst(0),
                offset: 0,
                offen: false,
                idxen: false,
                glc: false,
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn fields_format_mismatch_rejected() {
        let r = Instruction::new(
            Opcode::SAddU32,
            Fields::Sop1 {
                sdst: Operand::Sgpr(0),
                ssrc0: Operand::Sgpr(1),
            },
        );
        assert_eq!(
            r,
            Err(IsaError::FieldsMismatch {
                opcode: Opcode::SAddU32,
                expected: Format::Sop2
            })
        );
    }

    #[test]
    fn scalar_dst_must_be_writable() {
        let r = Instruction::new(
            Opcode::SMovB32,
            Fields::Sop1 {
                sdst: Operand::Scc,
                ssrc0: Operand::Sgpr(0),
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn decode_all_walks_stream() {
        let a = Instruction::new(
            Opcode::SMovB32,
            Fields::Sop1 {
                sdst: Operand::Sgpr(0),
                ssrc0: Operand::Literal(42),
            },
        )
        .unwrap();
        let b = Instruction::new(Opcode::SEndpgm, Fields::Sopp { simm16: 0 }).unwrap();
        let mut words = a.encode().unwrap();
        words.extend(b.encode().unwrap());
        let decoded = Instruction::decode_all(&words).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].1, a);
        assert_eq!(decoded[1].0, 2);
        assert_eq!(decoded[1].1, b);
    }

    #[test]
    fn truncated_stream_detected() {
        let inst = Instruction::new(
            Opcode::VMadF32,
            Fields::Vop3a {
                vdst: 0,
                src0: Operand::Vgpr(0),
                src1: Operand::Vgpr(1),
                src2: Some(Operand::Vgpr(2)),
                abs: 0,
                neg: 0,
                clamp: false,
                omod: 0,
            },
        )
        .unwrap();
        let words = inst.encode().unwrap();
        assert_eq!(
            Instruction::decode(&words[..1]),
            Err(IsaError::TruncatedStream)
        );
        assert_eq!(Instruction::decode(&[]), Err(IsaError::TruncatedStream));
    }
}
