//! # scratch-isa
//!
//! Model of the AMD *Southern Islands* (SI) instruction set as implemented by
//! the MIAOW2.0 soft-GPGPU from the SCRATCH paper (MICRO-50, 2017).
//!
//! The crate provides:
//!
//! * [`Opcode`] — the supported instruction set (a superset of the 156
//!   instructions validated on the FPGA in the paper), each opcode tagged
//!   with its encoding [`Format`], executing [`FuncUnit`], computational
//!   [`Category`] (the Fig. 4 taxonomy), [`DataType`] and register
//!   [`Roles`];
//! * [`Operand`] — scalar/vector registers, special registers and inline
//!   constants with their SI source-field encodings;
//! * [`Instruction`] — a decoded instruction with per-format fields, plus
//!   bit-exact [`Instruction::encode`] / [`Instruction::decode`] against the
//!   SI machine-code layouts, and the [`Reg`]isters it reads and writes
//!   ([`Instruction::reads`] / [`Instruction::writes`]).
//!
//! # Examples
//!
//! ```
//! use scratch_isa::{Instruction, Opcode, Operand, Fields};
//!
//! # fn main() -> Result<(), scratch_isa::IsaError> {
//! let inst = Instruction::new(
//!     Opcode::SAddU32,
//!     Fields::Sop2 {
//!         sdst: Operand::Sgpr(0),
//!         ssrc0: Operand::Sgpr(1),
//!         ssrc1: Operand::IntConst(7),
//!     },
//! )?;
//! let words = inst.encode()?;
//! let (back, len) = Instruction::decode(&words)?;
//! assert_eq!(len, words.len());
//! assert_eq!(back, inst);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod formats;
mod instruction;
mod meta;
mod opcode;
mod operand;
mod roles;

pub use error::IsaError;
pub use formats::Format;
pub use instruction::{Fields, Instruction, SmrdOffset, SourceOperands};
pub use meta::{Category, DataType, FuncUnit};
pub use opcode::Opcode;
pub use operand::Operand;
pub use roles::{Reg, Roles};

/// Number of work-items in a wavefront (fixed by the SI architecture).
pub const WAVEFRONT_SIZE: usize = 64;

/// Number of architected scalar general-purpose registers per wavefront.
pub const SGPR_COUNT: usize = 104;

/// Number of architected vector general-purpose registers per work-item.
pub const VGPR_COUNT: usize = 256;

/// Maximum number of wavefronts concurrently resident in one compute unit
/// (the MIAOW fetch controller supports 40).
pub const MAX_WAVEFRONTS: usize = 40;
