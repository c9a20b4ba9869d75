//! Register roles: the registers an opcode touches beyond its explicit
//! operand fields, and the widths of its operand groups. Each opcode's
//! roles are one column of the `opcodes!` table; [`Instruction::reads`]
//! and [`Instruction::writes`] combine them with the explicit fields into
//! the register sets the CU's issue scoreboard tracks.

use crate::{Fields, Instruction, Operand};

/// An opcode's register roles, as a set of flags (see the associated
/// constants). Read it with [`Opcode::roles`](crate::Opcode::roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Roles(u16);

impl Roles {
    /// No implicit registers; one-dword operands.
    pub const NONE: Roles = Roles(0);
    /// Reads VCC implicitly: the carry-in or select mask of a 32-bit VALU
    /// encoding, or a branch condition.
    pub const READ_VCC: Roles = Roles(1);
    /// Reads SCC implicitly (carry-in, select, branch condition).
    pub const READ_SCC: Roles = Roles(1 << 1);
    /// Reads EXEC as a branch condition. (Every vector-format instruction
    /// reads EXEC as its lane mask; that needs no flag.)
    pub const READ_EXEC: Roles = Roles(1 << 2);
    /// Writes VCC implicitly in the 32-bit encoding (compares, carry-out).
    pub const WRITE_VCC: Roles = Roles(1 << 3);
    /// Writes SCC.
    pub const WRITE_SCC: Roles = Roles(1 << 4);
    /// Writes EXEC (the `saveexec` family).
    pub const WRITE_EXEC: Roles = Roles(1 << 5);
    /// The destination is also a source (SOPK arithmetic and compares,
    /// `s_bitset*`, `s_cmov_b32`, `v_mac_f32`).
    pub const RMW: Roles = Roles(1 << 6);
    /// The vector destination field names an SGPR (`v_readfirstlane_b32`).
    pub const SDST: Roles = Roles(1 << 7);
    /// A memory read into the destination register group.
    pub const LOAD: Roles = Roles(1 << 8);
    /// A memory write from the data register group.
    pub const STORE: Roles = Roles(1 << 9);
    /// A SOPP branch: `simm16` is a signed word displacement.
    pub const BRANCH: Roles = Roles(1 << 10);
    /// A VOP3-only opcode with two sources instead of three.
    pub const TWO_SRC: Roles = Roles(1 << 11);
    /// 64-bit scalar sources and destination.
    pub const B64: Roles = Roles(1 << 12);
    /// Two-dword destination or data group.
    pub const X2: Roles = Roles(1 << 13);
    /// Three-dword destination or data group.
    pub const X3: Roles = Roles(1 << 14);
    /// Four-dword destination or data group.
    pub const X4: Roles = Roles(1 << 15);

    /// `self` plus the flags of `other`.
    #[must_use]
    pub const fn with(self, other: Roles) -> Roles {
        Roles(self.0 | other.0)
    }

    /// `true` when every flag of `other` is set.
    #[must_use]
    pub const fn contains(self, other: Roles) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` when any flag of `other` is set.
    #[must_use]
    pub const fn intersects(self, other: Roles) -> bool {
        self.0 & other.0 != 0
    }
}

/// A register as the issue scoreboard tracks it: one SGPR or VGPR, or a
/// special register (each half of VCC or EXEC counts as the whole pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Scalar register `s<n>`.
    S(u8),
    /// Vector register `v<n>`.
    V(u8),
    /// The vector condition code pair.
    Vcc,
    /// The execute mask pair.
    Exec,
    /// The scalar condition code.
    Scc,
    /// The `m0` register.
    M0,
}

impl Reg {
    /// Stable integer encoding (checkpoints store scoreboard entries in
    /// it): SGPRs 0..=0xff, VGPRs 0x100..=0x1ff, then VCC, EXEC, SCC, M0.
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            Reg::S(n) => u32::from(n),
            Reg::V(n) => 0x100 + u32::from(n),
            Reg::Vcc => 0x200,
            Reg::Exec => 0x201,
            Reg::Scc => 0x202,
            Reg::M0 => 0x203,
        }
    }

    /// Inverse of [`Reg::code`].
    #[must_use]
    pub fn from_code(code: u32) -> Option<Reg> {
        Some(match code {
            0..=0xff => Reg::S(code as u8),
            0x100..=0x1ff => Reg::V((code - 0x100) as u8),
            0x200 => Reg::Vcc,
            0x201 => Reg::Exec,
            0x202 => Reg::Scc,
            0x203 => Reg::M0,
            _ => return None,
        })
    }

    /// The register a scalar operand names; constants name none.
    fn scalar(op: Operand) -> Option<Reg> {
        match op {
            Operand::Sgpr(n) => Some(Reg::S(n)),
            Operand::VccLo | Operand::VccHi | Operand::Vccz => Some(Reg::Vcc),
            Operand::ExecLo | Operand::ExecHi | Operand::Execz => Some(Reg::Exec),
            Operand::Scc => Some(Reg::Scc),
            Operand::M0 => Some(Reg::M0),
            _ => None,
        }
    }

    /// Emit `self` and the `width - 1` registers after it; a special
    /// register is one register whatever the width.
    fn group(self, width: u8, out: &mut impl FnMut(Reg)) {
        match self {
            Reg::S(n) => (0..width).for_each(|i| out(Reg::S(n.saturating_add(i)))),
            Reg::V(n) => (0..width).for_each(|i| out(Reg::V(n.saturating_add(i)))),
            other => out(other),
        }
    }
}

impl Instruction {
    /// Emit every register this instruction reads: its explicit sources
    /// (scalar ones as groups of the source width), EXEC for vector
    /// formats, the implicit reads of its roles, a read-modify-write
    /// destination, buffer store data and buffer descriptors. A register
    /// may be emitted more than once.
    ///
    /// Some sets are wider or narrower than the hardware's, and the cycle
    /// timing depends on them as they are: the VOP3 forms of VCC readers
    /// still read VCC, the VOP3 form of `v_mac_f32` does not read its
    /// destination, DS instructions read both data fields, and buffer
    /// stores read only the first register of the descriptor quad.
    pub fn reads(&self, mut out: impl FnMut(Reg)) {
        let op = self.opcode;
        let roles = op.roles();
        for src in self.source_operands() {
            match src {
                Operand::Vgpr(r) => out(Reg::V(r)),
                other => {
                    if let Some(r) = Reg::scalar(other) {
                        r.group(op.src_width(), &mut out);
                    }
                }
            }
        }
        if op.is_vector_alu() || op.is_vector_memory() || op.is_lds() {
            out(Reg::Exec);
        }
        for (role, reg) in [
            (Roles::READ_VCC, Reg::Vcc),
            (Roles::READ_SCC, Reg::Scc),
            (Roles::READ_EXEC, Reg::Exec),
        ] {
            if roles.contains(role) {
                out(reg);
            }
        }
        let rmw = roles.contains(Roles::RMW);
        match self.fields {
            Fields::Sopk { sdst, .. } | Fields::Sop1 { sdst, .. } if rmw => {
                if let Some(r) = Reg::scalar(sdst) {
                    out(r);
                }
            }
            Fields::Vop2 { vdst, .. } if rmw => out(Reg::V(vdst)),
            Fields::Mubuf { vdata, .. } | Fields::Mtbuf { vdata, .. } if op.is_store() => {
                Reg::V(vdata).group(op.dst_width(), &mut out);
            }
            Fields::Mubuf { srsrc, .. } | Fields::Mtbuf { srsrc, .. } => {
                Reg::S(srsrc).group(4, &mut out);
            }
            _ => {}
        }
    }

    /// Emit every register this instruction writes: its destination
    /// fields (scalar ones as groups of the destination width, memory
    /// loads as their loaded group) and the implicit writes of its roles.
    /// A register may be emitted more than once.
    ///
    /// `s_cmpk_*` emit their `sdst` although they write only SCC, and a
    /// VOP3a-encoded compare emits its `vdst`; the cycle timing depends on
    /// both.
    pub fn writes(&self, mut out: impl FnMut(Reg)) {
        let op = self.opcode;
        let roles = op.roles();
        match self.fields {
            Fields::Sop2 { sdst, .. }
            | Fields::Sopk { sdst, .. }
            | Fields::Sop1 { sdst, .. }
            | Fields::Smrd { sdst, .. } => {
                if let Some(r) = Reg::scalar(sdst) {
                    r.group(op.dst_width(), &mut out);
                }
            }
            Fields::Vop1 { vdst, .. } if roles.contains(Roles::SDST) => out(Reg::S(vdst)),
            Fields::Vop1 { vdst, .. } | Fields::Vop2 { vdst, .. } | Fields::Vop3a { vdst, .. } => {
                out(Reg::V(vdst));
            }
            Fields::Vop3b { vdst, sdst, .. } => {
                if !op.is_vector_compare() {
                    out(Reg::V(vdst));
                }
                if let Some(r) = Reg::scalar(sdst) {
                    r.group(2, &mut out);
                }
            }
            Fields::Ds { vdst: data, .. }
            | Fields::Mubuf { vdata: data, .. }
            | Fields::Mtbuf { vdata: data, .. }
                if roles.contains(Roles::LOAD) =>
            {
                Reg::V(data).group(op.dst_width(), &mut out);
            }
            _ => {}
        }
        if roles.contains(Roles::WRITE_SCC) {
            out(Reg::Scc);
        }
        // A VOP3b encoding names its scalar result explicitly.
        if roles.contains(Roles::WRITE_VCC) && !matches!(self.fields, Fields::Vop3b { .. }) {
            out(Reg::Vcc);
        }
        if roles.contains(Roles::WRITE_EXEC) {
            out(Reg::Exec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    fn writes(inst: &Instruction) -> Vec<Reg> {
        let mut regs = Vec::new();
        inst.writes(|r| regs.push(r));
        regs
    }

    #[test]
    fn loads_write_their_whole_group() {
        let smrd = Instruction::new(
            Opcode::SLoadDwordx4,
            Fields::Smrd {
                sdst: Operand::Sgpr(8),
                sbase: 0,
                offset: crate::SmrdOffset::Imm(0),
            },
        )
        .unwrap();
        assert_eq!(
            writes(&smrd),
            [Reg::S(8), Reg::S(9), Reg::S(10), Reg::S(11)]
        );
        let ds = |op| {
            Instruction::new(
                op,
                Fields::Ds {
                    vdst: 4,
                    addr: 1,
                    data0: 2,
                    data1: 3,
                    offset0: 0,
                    offset1: 1,
                    gds: false,
                },
            )
            .unwrap()
        };
        assert_eq!(writes(&ds(Opcode::DsRead2B32)), [Reg::V(4), Reg::V(5)]);
        assert_eq!(writes(&ds(Opcode::DsReadB32)), [Reg::V(4)]);
        assert!(writes(&ds(Opcode::DsAddU32)).is_empty());
        assert!(writes(&ds(Opcode::DsWriteB32)).is_empty());
    }

    #[test]
    fn role_flags_are_distinct() {
        let all = [
            Roles::READ_VCC,
            Roles::READ_SCC,
            Roles::READ_EXEC,
            Roles::WRITE_VCC,
            Roles::WRITE_SCC,
            Roles::WRITE_EXEC,
            Roles::RMW,
            Roles::SDST,
            Roles::LOAD,
            Roles::STORE,
            Roles::BRANCH,
            Roles::TWO_SRC,
            Roles::B64,
            Roles::X2,
            Roles::X3,
            Roles::X4,
        ];
        let union = all.iter().fold(Roles::NONE, |acc, &r| acc.with(r));
        assert_eq!(union.0.count_ones() as usize, all.len());
    }

    #[test]
    fn memory_roles_match_the_units() {
        for &op in Opcode::ALL {
            let roles = op.roles();
            assert!(
                !(roles.contains(Roles::LOAD) && roles.contains(Roles::STORE)),
                "{op:?}"
            );
            if roles.contains(Roles::LOAD) || roles.contains(Roles::STORE) {
                assert!(op.is_memory(), "{op:?}");
            }
            if op.format() == crate::Format::Smrd {
                assert!(roles.contains(Roles::LOAD), "{op:?}");
            }
        }
    }
}
