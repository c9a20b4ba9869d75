//! The supported instruction set: a superset of the 156 Southern Islands
//! instructions validated on FPGA by the SCRATCH paper.
//!
//! Native opcode numbers follow the *Southern Islands Series Instruction Set
//! Architecture Reference Guide* (AMD, Dec. 2012) where the instruction is
//! defined there.

use serde::{Deserialize, Serialize};

use crate::{Category, DataType, Format, FuncUnit, IsaError, Roles};

macro_rules! opcodes {
    ($(
        $variant:ident = $mn:literal, $fmt:ident, $native:literal, $unit:ident, $cat:ident, $dt:ident,
            [$($role:ident),*];
    )*) => {
        /// An instruction opcode supported by the MIAOW2.0 compute unit.
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub enum Opcode {
            $($variant,)*
        }

        impl Opcode {
            /// Every supported opcode.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant,)*];

            /// Assembly mnemonic (lower case, as in CodeXL disassembly).
            #[must_use]
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $mn,)*
                }
            }

            /// Natural machine-code format family.
            #[must_use]
            pub fn format(self) -> Format {
                match self {
                    $(Opcode::$variant => Format::$fmt,)*
                }
            }

            /// Native opcode number within the format family.
            #[must_use]
            pub fn native(self) -> u16 {
                match self {
                    $(Opcode::$variant => $native,)*
                }
            }

            /// Functional unit that executes this opcode.
            #[must_use]
            pub fn unit(self) -> FuncUnit {
                match self {
                    $(Opcode::$variant => FuncUnit::$unit,)*
                }
            }

            /// Computational category (Fig. 4 taxonomy).
            #[must_use]
            pub fn category(self) -> Category {
                match self {
                    $(Opcode::$variant => Category::$cat,)*
                }
            }

            /// Numeric domain.
            #[must_use]
            pub fn data_type(self) -> DataType {
                match self {
                    $(Opcode::$variant => DataType::$dt,)*
                }
            }

            /// Register roles and operand widths: the facts the assembler,
            /// the executors and the issue scoreboard share.
            #[must_use]
            pub const fn roles(self) -> Roles {
                match self {
                    $(Opcode::$variant => Roles::NONE$(.with(Roles::$role))*,)*
                }
            }

            /// Look an opcode up by `(format, native number)`.
            ///
            /// # Errors
            ///
            /// Returns [`IsaError::UnknownOpcode`] when the number is not
            /// implemented in that format.
            pub fn from_native(format: Format, native: u16) -> Result<Opcode, IsaError> {
                match (format, native) {
                    $((Format::$fmt, $native) => Ok(Opcode::$variant),)*
                    _ => Err(IsaError::UnknownOpcode { format, native }),
                }
            }

            /// Look an opcode up by its assembly mnemonic (case-insensitive).
            #[must_use]
            pub fn from_mnemonic(mnemonic: &str) -> Option<Opcode> {
                let lower = mnemonic.to_ascii_lowercase();
                match lower.as_str() {
                    $($mn => Some(Opcode::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    // ===================== SOP2: scalar, two sources =====================
    SAddU32        = "s_add_u32",        Sop2, 0,  Salu, Add,     Int, [WRITE_SCC];
    SSubU32        = "s_sub_u32",        Sop2, 1,  Salu, Add,     Int, [WRITE_SCC];
    SAddI32        = "s_add_i32",        Sop2, 2,  Salu, Add,     Int, [WRITE_SCC];
    SSubI32        = "s_sub_i32",        Sop2, 3,  Salu, Add,     Int, [WRITE_SCC];
    SAddcU32       = "s_addc_u32",       Sop2, 4,  Salu, Add,     Int, [READ_SCC, WRITE_SCC];
    SSubbU32       = "s_subb_u32",       Sop2, 5,  Salu, Add,     Int, [READ_SCC, WRITE_SCC];
    SMinI32        = "s_min_i32",        Sop2, 6,  Salu, Add,     Int, [WRITE_SCC];
    SMinU32        = "s_min_u32",        Sop2, 7,  Salu, Add,     Int, [WRITE_SCC];
    SMaxI32        = "s_max_i32",        Sop2, 8,  Salu, Add,     Int, [WRITE_SCC];
    SMaxU32        = "s_max_u32",        Sop2, 9,  Salu, Add,     Int, [WRITE_SCC];
    SCselectB32    = "s_cselect_b32",    Sop2, 10, Salu, Mov,     Int, [READ_SCC];
    SAndB32        = "s_and_b32",        Sop2, 14, Salu, Logic,   Int, [WRITE_SCC];
    SAndB64        = "s_and_b64",        Sop2, 15, Salu, Logic,   Int, [WRITE_SCC, B64];
    SOrB32         = "s_or_b32",         Sop2, 16, Salu, Logic,   Int, [WRITE_SCC];
    SOrB64         = "s_or_b64",         Sop2, 17, Salu, Logic,   Int, [WRITE_SCC, B64];
    SXorB32        = "s_xor_b32",        Sop2, 18, Salu, Logic,   Int, [WRITE_SCC];
    SXorB64        = "s_xor_b64",        Sop2, 19, Salu, Logic,   Int, [WRITE_SCC, B64];
    SAndn2B64      = "s_andn2_b64",      Sop2, 21, Salu, Logic,   Int, [WRITE_SCC, B64];
    SOrn2B64       = "s_orn2_b64",       Sop2, 23, Salu, Logic,   Int, [WRITE_SCC, B64];
    SNandB64       = "s_nand_b64",       Sop2, 25, Salu, Logic,   Int, [WRITE_SCC, B64];
    SNorB64        = "s_nor_b64",        Sop2, 27, Salu, Logic,   Int, [WRITE_SCC, B64];
    SXnorB64       = "s_xnor_b64",       Sop2, 29, Salu, Logic,   Int, [WRITE_SCC, B64];
    SLshlB32       = "s_lshl_b32",       Sop2, 30, Salu, Shift,   Int, [WRITE_SCC];
    SLshrB32       = "s_lshr_b32",       Sop2, 32, Salu, Shift,   Int, [WRITE_SCC];
    SAshrI32       = "s_ashr_i32",       Sop2, 34, Salu, Shift,   Int, [WRITE_SCC];
    SBfmB32        = "s_bfm_b32",        Sop2, 36, Salu, Logic,   Int, [];
    SMulI32        = "s_mul_i32",        Sop2, 38, Salu, Mul,     Int, [];
    SBfeU32        = "s_bfe_u32",        Sop2, 39, Salu, Logic,   Int, [];
    SBfeI32        = "s_bfe_i32",        Sop2, 40, Salu, Logic,   Int, [];

    // ===================== SOPK: scalar, 16-bit immediate ================
    SMovkI32       = "s_movk_i32",       Sopk, 0,  Salu, Mov,     Int, [];
    SCmpkEqI32     = "s_cmpk_eq_i32",    Sopk, 3,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SCmpkLgI32     = "s_cmpk_lg_i32",    Sopk, 4,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SCmpkGtI32     = "s_cmpk_gt_i32",    Sopk, 5,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SCmpkGeI32     = "s_cmpk_ge_i32",    Sopk, 6,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SCmpkLtI32     = "s_cmpk_lt_i32",    Sopk, 7,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SCmpkLeI32     = "s_cmpk_le_i32",    Sopk, 8,  Salu, Add,     Int, [WRITE_SCC, RMW];
    SAddkI32       = "s_addk_i32",       Sopk, 15, Salu, Add,     Int, [WRITE_SCC, RMW];
    SMulkI32       = "s_mulk_i32",       Sopk, 16, Salu, Mul,     Int, [RMW];

    // ===================== SOP1: scalar, one source ======================
    SMovB32        = "s_mov_b32",        Sop1, 3,  Salu, Mov,     Int, [];
    SMovB64        = "s_mov_b64",        Sop1, 4,  Salu, Mov,     Int, [B64];
    SCmovB32       = "s_cmov_b32",       Sop1, 5,  Salu, Mov,     Int, [READ_SCC, RMW];
    SNotB32        = "s_not_b32",        Sop1, 7,  Salu, Logic,   Int, [WRITE_SCC];
    SNotB64        = "s_not_b64",        Sop1, 8,  Salu, Logic,   Int, [WRITE_SCC, B64];
    SWqmB64        = "s_wqm_b64",        Sop1, 10, Salu, Logic,   Int, [WRITE_SCC, B64];
    SBrevB32       = "s_brev_b32",       Sop1, 11, Salu, Bitwise, Int, [];
    SBcnt0I32B32   = "s_bcnt0_i32_b32",  Sop1, 13, Salu, Bitwise, Int, [WRITE_SCC];
    SBcnt1I32B32   = "s_bcnt1_i32_b32",  Sop1, 15, Salu, Bitwise, Int, [WRITE_SCC];
    SFf0I32B32     = "s_ff0_i32_b32",    Sop1, 17, Salu, Bitwise, Int, [];
    SFf1I32B32     = "s_ff1_i32_b32",    Sop1, 19, Salu, Bitwise, Int, [];
    SFlbitI32B32   = "s_flbit_i32_b32",  Sop1, 21, Salu, Bitwise, Int, [];
    SSextI32I8     = "s_sext_i32_i8",    Sop1, 25, Salu, Convert, Int, [];
    SSextI32I16    = "s_sext_i32_i16",   Sop1, 26, Salu, Convert, Int, [];
    SBitset0B32    = "s_bitset0_b32",    Sop1, 27, Salu, Logic,   Int, [RMW];
    SBitset1B32    = "s_bitset1_b32",    Sop1, 29, Salu, Logic,   Int, [RMW];
    SAndSaveexecB64   = "s_and_saveexec_b64",   Sop1, 36, Salu, Control, Int, [WRITE_SCC, WRITE_EXEC, B64];
    SOrSaveexecB64    = "s_or_saveexec_b64",    Sop1, 37, Salu, Control, Int, [WRITE_SCC, WRITE_EXEC, B64];
    SXorSaveexecB64   = "s_xor_saveexec_b64",   Sop1, 38, Salu, Control, Int, [WRITE_SCC, WRITE_EXEC, B64];
    SAndn2SaveexecB64 = "s_andn2_saveexec_b64", Sop1, 39, Salu, Control, Int, [WRITE_SCC, WRITE_EXEC, B64];

    // ===================== SOPC: scalar compare ==========================
    SCmpEqI32      = "s_cmp_eq_i32",     Sopc, 0,  Salu, Add,     Int, [WRITE_SCC];
    SCmpLgI32      = "s_cmp_lg_i32",     Sopc, 1,  Salu, Add,     Int, [WRITE_SCC];
    SCmpGtI32      = "s_cmp_gt_i32",     Sopc, 2,  Salu, Add,     Int, [WRITE_SCC];
    SCmpGeI32      = "s_cmp_ge_i32",     Sopc, 3,  Salu, Add,     Int, [WRITE_SCC];
    SCmpLtI32      = "s_cmp_lt_i32",     Sopc, 4,  Salu, Add,     Int, [WRITE_SCC];
    SCmpLeI32      = "s_cmp_le_i32",     Sopc, 5,  Salu, Add,     Int, [WRITE_SCC];
    SCmpEqU32      = "s_cmp_eq_u32",     Sopc, 6,  Salu, Add,     Int, [WRITE_SCC];
    SCmpLgU32      = "s_cmp_lg_u32",     Sopc, 7,  Salu, Add,     Int, [WRITE_SCC];
    SCmpGtU32      = "s_cmp_gt_u32",     Sopc, 8,  Salu, Add,     Int, [WRITE_SCC];
    SCmpGeU32      = "s_cmp_ge_u32",     Sopc, 9,  Salu, Add,     Int, [WRITE_SCC];
    SCmpLtU32      = "s_cmp_lt_u32",     Sopc, 10, Salu, Add,     Int, [WRITE_SCC];
    SCmpLeU32      = "s_cmp_le_u32",     Sopc, 11, Salu, Add,     Int, [WRITE_SCC];

    // ===================== SOPP: program control =========================
    SNop           = "s_nop",            Sopp, 0,  Branch, Control, Int, [];
    SEndpgm        = "s_endpgm",         Sopp, 1,  Branch, Control, Int, [];
    SBranch        = "s_branch",         Sopp, 2,  Branch, Control, Int, [BRANCH];
    SCbranchScc0   = "s_cbranch_scc0",   Sopp, 4,  Branch, Control, Int, [READ_SCC, BRANCH];
    SCbranchScc1   = "s_cbranch_scc1",   Sopp, 5,  Branch, Control, Int, [READ_SCC, BRANCH];
    SCbranchVccz   = "s_cbranch_vccz",   Sopp, 6,  Branch, Control, Int, [READ_VCC, BRANCH];
    SCbranchVccnz  = "s_cbranch_vccnz",  Sopp, 7,  Branch, Control, Int, [READ_VCC, BRANCH];
    SCbranchExecz  = "s_cbranch_execz",  Sopp, 8,  Branch, Control, Int, [READ_EXEC, BRANCH];
    SCbranchExecnz = "s_cbranch_execnz", Sopp, 9,  Branch, Control, Int, [READ_EXEC, BRANCH];
    SBarrier       = "s_barrier",        Sopp, 10, Branch, Control, Int, [];
    SWaitcnt       = "s_waitcnt",        Sopp, 12, Branch, Control, Int, [];

    // ===================== SMRD: scalar memory read ======================
    SLoadDword        = "s_load_dword",          Smrd, 0,  Lsu, Mem, Int, [LOAD];
    SLoadDwordx2      = "s_load_dwordx2",        Smrd, 1,  Lsu, Mem, Int, [LOAD, X2];
    SLoadDwordx4      = "s_load_dwordx4",        Smrd, 2,  Lsu, Mem, Int, [LOAD, X4];
    SBufferLoadDword  = "s_buffer_load_dword",   Smrd, 8,  Lsu, Mem, Int, [LOAD];
    SBufferLoadDwordx2 = "s_buffer_load_dwordx2", Smrd, 9, Lsu, Mem, Int, [LOAD, X2];
    SBufferLoadDwordx4 = "s_buffer_load_dwordx4", Smrd, 10, Lsu, Mem, Int, [LOAD, X4];

    // ===================== VOP2: vector, two sources =====================
    VCndmaskB32    = "v_cndmask_b32",    Vop2, 0,  Simd, Mov,     Int, [READ_VCC];
    VAddF32        = "v_add_f32",        Vop2, 3,  Simf, Add,     Fp32, [];
    VSubF32        = "v_sub_f32",        Vop2, 4,  Simf, Add,     Fp32, [];
    VSubrevF32     = "v_subrev_f32",     Vop2, 5,  Simf, Add,     Fp32, [];
    VMulF32        = "v_mul_f32",        Vop2, 8,  Simf, Mul,     Fp32, [];
    VMulI32I24     = "v_mul_i32_i24",    Vop2, 9,  Simd, Mul,     Int, [];
    VMulU32U24     = "v_mul_u32_u24",    Vop2, 11, Simd, Mul,     Int, [];
    VMinF32        = "v_min_f32",        Vop2, 15, Simf, Add,     Fp32, [];
    VMaxF32        = "v_max_f32",        Vop2, 16, Simf, Add,     Fp32, [];
    VMinI32        = "v_min_i32",        Vop2, 17, Simd, Add,     Int, [];
    VMaxI32        = "v_max_i32",        Vop2, 18, Simd, Add,     Int, [];
    VMinU32        = "v_min_u32",        Vop2, 19, Simd, Add,     Int, [];
    VMaxU32        = "v_max_u32",        Vop2, 20, Simd, Add,     Int, [];
    VLshrB32       = "v_lshr_b32",       Vop2, 21, Simd, Shift,   Int, [];
    VLshrrevB32    = "v_lshrrev_b32",    Vop2, 22, Simd, Shift,   Int, [];
    VAshrI32       = "v_ashr_i32",       Vop2, 23, Simd, Shift,   Int, [];
    VAshrrevI32    = "v_ashrrev_i32",    Vop2, 24, Simd, Shift,   Int, [];
    VLshlB32       = "v_lshl_b32",       Vop2, 25, Simd, Shift,   Int, [];
    VLshlrevB32    = "v_lshlrev_b32",    Vop2, 26, Simd, Shift,   Int, [];
    VAndB32        = "v_and_b32",        Vop2, 27, Simd, Logic,   Int, [];
    VOrB32         = "v_or_b32",         Vop2, 28, Simd, Logic,   Int, [];
    VXorB32        = "v_xor_b32",        Vop2, 29, Simd, Logic,   Int, [];
    VMacF32        = "v_mac_f32",        Vop2, 31, Simf, Mul,     Fp32, [RMW];
    VAddI32        = "v_add_i32",        Vop2, 37, Simd, Add,     Int, [WRITE_VCC];
    VSubI32        = "v_sub_i32",        Vop2, 38, Simd, Add,     Int, [WRITE_VCC];
    VSubrevI32     = "v_subrev_i32",     Vop2, 39, Simd, Add,     Int, [WRITE_VCC];
    VAddcU32       = "v_addc_u32",       Vop2, 40, Simd, Add,     Int, [READ_VCC, WRITE_VCC];
    VSubbU32       = "v_subb_u32",       Vop2, 41, Simd, Add,     Int, [READ_VCC, WRITE_VCC];

    // ===================== VOP1: vector, one source ======================
    VNop           = "v_nop",            Vop1, 0,  Simd, Control, Int, [];
    VMovB32        = "v_mov_b32",        Vop1, 1,  Simd, Mov,     Int, [];
    VReadfirstlaneB32 = "v_readfirstlane_b32", Vop1, 2, Simd, Mov, Int, [SDST];
    VCvtF32I32     = "v_cvt_f32_i32",    Vop1, 5,  Simf, Convert, Fp32, [];
    VCvtF32U32     = "v_cvt_f32_u32",    Vop1, 6,  Simf, Convert, Fp32, [];
    VCvtU32F32     = "v_cvt_u32_f32",    Vop1, 7,  Simf, Convert, Fp32, [];
    VCvtI32F32     = "v_cvt_i32_f32",    Vop1, 8,  Simf, Convert, Fp32, [];
    VFractF32      = "v_fract_f32",      Vop1, 32, Simf, Convert, Fp32, [];
    VTruncF32      = "v_trunc_f32",      Vop1, 33, Simf, Convert, Fp32, [];
    VCeilF32       = "v_ceil_f32",       Vop1, 34, Simf, Convert, Fp32, [];
    VRndneF32      = "v_rndne_f32",      Vop1, 35, Simf, Convert, Fp32, [];
    VFloorF32      = "v_floor_f32",      Vop1, 36, Simf, Convert, Fp32, [];
    VExpF32        = "v_exp_f32",        Vop1, 37, Simf, Trans,   Fp32, [];
    VLogF32        = "v_log_f32",        Vop1, 39, Simf, Trans,   Fp32, [];
    VRcpF32        = "v_rcp_f32",        Vop1, 42, Simf, Div,     Fp32, [];
    VRsqF32        = "v_rsq_f32",        Vop1, 46, Simf, Trans,   Fp32, [];
    VSqrtF32       = "v_sqrt_f32",       Vop1, 51, Simf, Trans,   Fp32, [];
    VSinF32        = "v_sin_f32",        Vop1, 53, Simf, Trans,   Fp32, [];
    VCosF32        = "v_cos_f32",        Vop1, 54, Simf, Trans,   Fp32, [];
    VNotB32        = "v_not_b32",        Vop1, 55, Simd, Logic,   Int, [];
    VBfrevB32      = "v_bfrev_b32",      Vop1, 56, Simd, Bitwise, Int, [];
    VFfbhU32       = "v_ffbh_u32",       Vop1, 57, Simd, Bitwise, Int, [];
    VFfblB32       = "v_ffbl_b32",       Vop1, 58, Simd, Bitwise, Int, [];

    // ===================== VOPC: vector compare ==========================
    VCmpLtF32      = "v_cmp_lt_f32",     Vopc, 1,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpEqF32      = "v_cmp_eq_f32",     Vopc, 2,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpLeF32      = "v_cmp_le_f32",     Vopc, 3,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpGtF32      = "v_cmp_gt_f32",     Vopc, 4,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpLgF32      = "v_cmp_lg_f32",     Vopc, 5,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpGeF32      = "v_cmp_ge_f32",     Vopc, 6,   Simf, Add, Fp32, [WRITE_VCC];
    VCmpNeqF32     = "v_cmp_neq_f32",    Vopc, 13,  Simf, Add, Fp32, [WRITE_VCC];
    VCmpLtI32      = "v_cmp_lt_i32",     Vopc, 129, Simd, Add, Int, [WRITE_VCC];
    VCmpEqI32      = "v_cmp_eq_i32",     Vopc, 130, Simd, Add, Int, [WRITE_VCC];
    VCmpLeI32      = "v_cmp_le_i32",     Vopc, 131, Simd, Add, Int, [WRITE_VCC];
    VCmpGtI32      = "v_cmp_gt_i32",     Vopc, 132, Simd, Add, Int, [WRITE_VCC];
    VCmpNeI32      = "v_cmp_ne_i32",     Vopc, 133, Simd, Add, Int, [WRITE_VCC];
    VCmpGeI32      = "v_cmp_ge_i32",     Vopc, 134, Simd, Add, Int, [WRITE_VCC];
    VCmpLtU32      = "v_cmp_lt_u32",     Vopc, 193, Simd, Add, Int, [WRITE_VCC];
    VCmpEqU32      = "v_cmp_eq_u32",     Vopc, 194, Simd, Add, Int, [WRITE_VCC];
    VCmpLeU32      = "v_cmp_le_u32",     Vopc, 195, Simd, Add, Int, [WRITE_VCC];
    VCmpGtU32      = "v_cmp_gt_u32",     Vopc, 196, Simd, Add, Int, [WRITE_VCC];
    VCmpNeU32      = "v_cmp_ne_u32",     Vopc, 197, Simd, Add, Int, [WRITE_VCC];
    VCmpGeU32      = "v_cmp_ge_u32",     Vopc, 198, Simd, Add, Int, [WRITE_VCC];

    // ============ VOP3 (native three-source / 64-bit only) ===============
    VMadF32        = "v_mad_f32",        Vop3a, 321, Simf, Mul,   Fp32, [];
    VMadI32I24     = "v_mad_i32_i24",    Vop3a, 322, Simd, Mul,   Int, [];
    VMadU32U24     = "v_mad_u32_u24",    Vop3a, 323, Simd, Mul,   Int, [];
    VBfeU32        = "v_bfe_u32",        Vop3a, 328, Simd, Logic, Int, [];
    VBfeI32        = "v_bfe_i32",        Vop3a, 329, Simd, Logic, Int, [];
    VBfiB32        = "v_bfi_b32",        Vop3a, 330, Simd, Logic, Int, [];
    VFmaF32        = "v_fma_f32",        Vop3a, 331, Simf, Mul,   Fp32, [];
    VAlignbitB32   = "v_alignbit_b32",   Vop3a, 334, Simd, Shift, Int, [];
    VMin3F32       = "v_min3_f32",       Vop3a, 337, Simf, Add,   Fp32, [];
    VMin3I32       = "v_min3_i32",       Vop3a, 338, Simd, Add,   Int, [];
    VMin3U32       = "v_min3_u32",       Vop3a, 339, Simd, Add,   Int, [];
    VMax3F32       = "v_max3_f32",       Vop3a, 340, Simf, Add,   Fp32, [];
    VMax3I32       = "v_max3_i32",       Vop3a, 341, Simd, Add,   Int, [];
    VMax3U32       = "v_max3_u32",       Vop3a, 342, Simd, Add,   Int, [];
    VMed3F32       = "v_med3_f32",       Vop3a, 343, Simf, Add,   Fp32, [];
    VMed3I32       = "v_med3_i32",       Vop3a, 344, Simd, Add,   Int, [];
    VMed3U32       = "v_med3_u32",       Vop3a, 345, Simd, Add,   Int, [];
    VMulLoU32      = "v_mul_lo_u32",     Vop3a, 357, Simd, Mul,   Int, [TWO_SRC];
    VMulHiU32      = "v_mul_hi_u32",     Vop3a, 358, Simd, Mul,   Int, [TWO_SRC];
    VMulLoI32      = "v_mul_lo_i32",     Vop3a, 359, Simd, Mul,   Int, [TWO_SRC];
    VMulHiI32      = "v_mul_hi_i32",     Vop3a, 360, Simd, Mul,   Int, [TWO_SRC];

    // ===================== DS: local data share ==========================
    DsAddU32       = "ds_add_u32",       Ds, 0,  Lsu, Mem, Int, [];
    DsSubU32       = "ds_sub_u32",       Ds, 1,  Lsu, Mem, Int, [];
    DsMinI32       = "ds_min_i32",       Ds, 5,  Lsu, Mem, Int, [];
    DsMaxI32       = "ds_max_i32",       Ds, 6,  Lsu, Mem, Int, [];
    DsMinU32       = "ds_min_u32",       Ds, 7,  Lsu, Mem, Int, [];
    DsMaxU32       = "ds_max_u32",       Ds, 8,  Lsu, Mem, Int, [];
    DsAndB32       = "ds_and_b32",       Ds, 9,  Lsu, Mem, Int, [];
    DsOrB32        = "ds_or_b32",        Ds, 10, Lsu, Mem, Int, [];
    DsXorB32       = "ds_xor_b32",       Ds, 11, Lsu, Mem, Int, [];
    DsWriteB32     = "ds_write_b32",     Ds, 13, Lsu, Mem, Int, [STORE];
    DsWrite2B32    = "ds_write2_b32",    Ds, 14, Lsu, Mem, Int, [STORE];
    DsReadB32      = "ds_read_b32",      Ds, 54, Lsu, Mem, Int, [LOAD];
    DsRead2B32     = "ds_read2_b32",     Ds, 55, Lsu, Mem, Int, [LOAD, X2];

    // ===================== MUBUF: untyped buffer access ==================
    BufferLoadUbyte    = "buffer_load_ubyte",    Mubuf, 8,  Lsu, Mem, Int, [LOAD];
    BufferLoadSbyte    = "buffer_load_sbyte",    Mubuf, 9,  Lsu, Mem, Int, [LOAD];
    BufferLoadDword    = "buffer_load_dword",    Mubuf, 12, Lsu, Mem, Int, [LOAD];
    BufferLoadDwordx2  = "buffer_load_dwordx2",  Mubuf, 13, Lsu, Mem, Int, [LOAD, X2];
    BufferLoadDwordx4  = "buffer_load_dwordx4",  Mubuf, 14, Lsu, Mem, Int, [LOAD, X4];
    BufferStoreByte    = "buffer_store_byte",    Mubuf, 24, Lsu, Mem, Int, [STORE];
    BufferStoreDword   = "buffer_store_dword",   Mubuf, 28, Lsu, Mem, Int, [STORE];
    BufferStoreDwordx2 = "buffer_store_dwordx2", Mubuf, 29, Lsu, Mem, Int, [STORE, X2];
    BufferStoreDwordx4 = "buffer_store_dwordx4", Mubuf, 30, Lsu, Mem, Int, [STORE, X4];

    // ===================== MTBUF: typed buffer access ====================
    TbufferLoadFormatX    = "tbuffer_load_format_x",    Mtbuf, 0, Lsu, Mem, Int, [LOAD];
    TbufferLoadFormatXy   = "tbuffer_load_format_xy",   Mtbuf, 1, Lsu, Mem, Int, [LOAD, X2];
    TbufferLoadFormatXyz  = "tbuffer_load_format_xyz",  Mtbuf, 2, Lsu, Mem, Int, [LOAD, X3];
    TbufferLoadFormatXyzw = "tbuffer_load_format_xyzw", Mtbuf, 3, Lsu, Mem, Int, [LOAD, X4];
    TbufferStoreFormatX    = "tbuffer_store_format_x",    Mtbuf, 4, Lsu, Mem, Int, [STORE];
    TbufferStoreFormatXy   = "tbuffer_store_format_xy",   Mtbuf, 5, Lsu, Mem, Int, [STORE, X2];
    TbufferStoreFormatXyz  = "tbuffer_store_format_xyz",  Mtbuf, 6, Lsu, Mem, Int, [STORE, X3];
    TbufferStoreFormatXyzw = "tbuffer_store_format_xyzw", Mtbuf, 7, Lsu, Mem, Int, [STORE, X4];
}

impl Opcode {
    /// `true` if the natural format is a vector (VALU) format.
    #[must_use]
    pub fn is_vector_alu(self) -> bool {
        matches!(
            self.format(),
            Format::Vop1 | Format::Vop2 | Format::Vopc | Format::Vop3a | Format::Vop3b
        )
    }

    /// `true` for memory instructions (SMRD, DS, MUBUF, MTBUF).
    #[must_use]
    pub fn is_memory(self) -> bool {
        self.unit() == FuncUnit::Lsu
    }

    /// `true` for instructions that access the LDS (local data share).
    #[must_use]
    pub fn is_lds(self) -> bool {
        self.format() == Format::Ds
    }

    /// `true` for vector-memory instructions (counted by `vmcnt`).
    #[must_use]
    pub fn is_vector_memory(self) -> bool {
        matches!(self.format(), Format::Mubuf | Format::Mtbuf)
    }

    /// `true` for instructions counted by `lgkmcnt` (LDS + scalar memory).
    #[must_use]
    pub fn is_lgkm(self) -> bool {
        matches!(self.format(), Format::Ds | Format::Smrd)
    }

    /// `true` for memory writes.
    #[must_use]
    pub fn is_store(self) -> bool {
        self.roles().contains(Roles::STORE)
    }

    /// `true` for VOPC / VOP3b compares (write a 64-bit lane mask).
    #[must_use]
    pub fn is_vector_compare(self) -> bool {
        self.format() == Format::Vopc
    }

    /// `true` for `s_branch` and the conditional branches — the SOPP
    /// opcodes whose `simm16` is a signed instruction-word displacement
    /// rather than a plain immediate.
    #[must_use]
    pub fn is_branch(self) -> bool {
        self.roles().contains(Roles::BRANCH)
    }

    /// Width, in 32-bit words, of the destination (or store data) register
    /// group (1 for most, 2 for `B64` results and `dwordx2`, 4 for
    /// `dwordx4`).
    #[must_use]
    pub fn dst_width(self) -> u8 {
        let roles = self.roles();
        [
            (Roles::X4, 4),
            (Roles::X3, 3),
            (Roles::X2, 2),
            (Roles::B64, 2),
        ]
        .into_iter()
        .find_map(|(role, width)| roles.contains(role).then_some(width))
        .unwrap_or(1)
    }

    /// Width, in 32-bit words, of the source operands (2 for `B64` sources).
    #[must_use]
    pub fn src_width(self) -> u8 {
        1 + u8::from(self.roles().contains(Roles::B64))
    }

    /// Number of explicit source operands in the natural encoding.
    #[must_use]
    pub fn src_count(self) -> u8 {
        match self.format() {
            Format::Sop2 | Format::Sopc | Format::Vop2 | Format::Vopc => 2,
            Format::Sop1 | Format::Vop1 => 1,
            Format::Sopk | Format::Sopp => 0,
            Format::Smrd | Format::Ds | Format::Mubuf | Format::Mtbuf => 0,
            Format::Vop3a | Format::Vop3b if self.roles().contains(Roles::TWO_SRC) => 2,
            Format::Vop3a | Format::Vop3b => 3,
        }
    }

    /// The VOP3 (64-bit encoding) opcode number for this instruction:
    /// promoted numbers for VOPC (+0), VOP2 (+256) and VOP1 (+384) opcodes,
    /// the native number for VOP3-only opcodes, `None` for non-vector ones.
    #[must_use]
    pub fn vop3_native(self) -> Option<u16> {
        match self.format() {
            Format::Vopc => Some(self.native()),
            Format::Vop2 => Some(self.native() + 256),
            Format::Vop1 => Some(self.native() + 384),
            Format::Vop3a | Format::Vop3b => Some(self.native()),
            _ => None,
        }
    }

    /// Inverse of [`Opcode::vop3_native`]: find the opcode encoded by a VOP3
    /// word with the given 9-bit opcode number.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownOpcode`] if no supported opcode maps there.
    pub fn from_vop3_native(native: u16) -> Result<Opcode, IsaError> {
        match native {
            0..=255 => Opcode::from_native(Format::Vopc, native),
            256..=319 => Opcode::from_native(Format::Vop2, native - 256),
            384..=511 => Opcode::from_native(Format::Vop1, native - 384),
            _ => Opcode::from_native(Format::Vop3a, native),
        }
        .map_err(|_| IsaError::UnknownOpcode {
            format: Format::Vop3a,
            native,
        })
    }

    /// `true` for a vector ALU opcode that implicitly reads VCC (carry-in
    /// or select mask in the 32-bit encoding, `src2` in the VOP3 form).
    #[must_use]
    pub fn reads_vcc_implicitly(self) -> bool {
        self.is_vector_alu() && self.roles().contains(Roles::READ_VCC)
    }

    /// `true` if this opcode implicitly writes VCC in its 32-bit encoding
    /// (carry-out producing adds and all VOPC compares).
    #[must_use]
    pub fn writes_vcc_implicitly(self) -> bool {
        self.roles().contains(Roles::WRITE_VCC)
    }

    /// `true` if this opcode writes the scalar condition code.
    #[must_use]
    pub fn writes_scc(self) -> bool {
        self.roles().contains(Roles::WRITE_SCC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn at_least_the_papers_156_instructions() {
        assert!(
            Opcode::ALL.len() >= 156,
            "only {} opcodes implemented",
            Opcode::ALL.len()
        );
    }

    #[test]
    fn mnemonics_unique() {
        let set: HashSet<_> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(set.len(), Opcode::ALL.len());
    }

    #[test]
    fn native_numbers_unique_per_format() {
        let set: HashSet<_> = Opcode::ALL
            .iter()
            .map(|o| (o.format(), o.native()))
            .collect();
        assert_eq!(set.len(), Opcode::ALL.len());
    }

    #[test]
    fn from_native_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_native(op.format(), op.native()), Ok(op));
        }
    }

    #[test]
    fn from_mnemonic_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(
                Opcode::from_mnemonic(&op.mnemonic().to_ascii_uppercase()),
                Some(op)
            );
        }
        assert_eq!(Opcode::from_mnemonic("v_bogus_f32"), None);
    }

    #[test]
    fn vop3_promotion_roundtrip() {
        for &op in Opcode::ALL {
            if let Some(n) = op.vop3_native() {
                assert_eq!(Opcode::from_vop3_native(n), Ok(op), "{op:?}");
            }
        }
    }

    #[test]
    fn vop3_numbers_unique() {
        let nums: Vec<_> = Opcode::ALL.iter().filter_map(|o| o.vop3_native()).collect();
        let set: HashSet<_> = nums.iter().collect();
        assert_eq!(set.len(), nums.len());
    }

    #[test]
    fn fp_opcodes_execute_on_simf() {
        for &op in Opcode::ALL {
            if op.is_vector_alu() && op.data_type() == DataType::Fp32 {
                assert_eq!(op.unit(), FuncUnit::Simf, "{op:?}");
            }
        }
    }

    #[test]
    fn simf_opcodes_are_fp() {
        for &op in Opcode::ALL {
            if op.unit() == FuncUnit::Simf {
                assert_eq!(op.data_type(), DataType::Fp32, "{op:?}");
            }
        }
    }

    #[test]
    fn memory_opcodes_on_lsu() {
        for &op in Opcode::ALL {
            assert_eq!(
                op.category() == Category::Mem,
                op.unit() == FuncUnit::Lsu,
                "{op:?}"
            );
        }
    }

    #[test]
    fn sopp_is_branch_unit() {
        for &op in Opcode::ALL {
            if op.format() == Format::Sopp {
                assert_eq!(op.unit(), FuncUnit::Branch);
            }
        }
    }

    #[test]
    fn stores_are_memory() {
        for &op in Opcode::ALL {
            if op.is_store() {
                assert!(op.is_memory());
            }
        }
    }

    #[test]
    fn b64_ops_have_wide_sources() {
        assert_eq!(Opcode::SAndB64.src_width(), 2);
        assert_eq!(Opcode::SAndB64.dst_width(), 2);
        assert_eq!(Opcode::SAndB32.src_width(), 1);
        assert_eq!(Opcode::SLoadDwordx4.dst_width(), 4);
    }
}
