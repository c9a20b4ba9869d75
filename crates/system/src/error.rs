use std::fmt;

use scratch_asm::AsmError;
use scratch_cu::CuError;

/// Errors raised by the full-system simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// Compute-unit level failure.
    Cu(CuError),
    /// Kernel construction/decoding failure.
    Asm(AsmError),
    /// Global memory is exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining.
        available: u64,
    },
    /// The prefetch buffer cannot hold the requested range.
    PrefetchCapacity {
        /// Bytes requested for prefetch residence.
        requested: u64,
        /// Prefetch capacity in bytes.
        capacity: u64,
    },
    /// A dispatch was attempted before `set_args`.
    ArgsNotSet,
    /// A zero-sized grid or workgroup was dispatched.
    EmptyDispatch,
    /// A grid whose workgroup count, or global X size, overflows the
    /// dispatcher's counters (see [`crate::check_grid`]).
    GridOverflow {
        /// Workgroups requested per dimension.
        grid: [u32; 3],
        /// Work-items per workgroup.
        workgroup_size: u32,
    },
    /// A CU count outside what the FPGA allocator could ever place.
    InvalidCuCount {
        /// CUs requested.
        requested: u8,
        /// The device's allocator capacity bound
        /// ([`scratch_fpga::cu_capacity_bound`]).
        max: u8,
    },
    /// A preemptible-dispatch operation was used out of sequence, or a
    /// checkpoint did not match the system it was restored onto.
    Preemption {
        /// What was violated.
        reason: String,
    },
    /// Snapshot-codec failure.
    Snap(scratch_snap::SnapError),
    /// The self-checking `ExecMode::FastWithTiming` tier found the fast
    /// path's memory writes diverging from the cycle pipeline's.
    FastDivergence {
        /// What diverged.
        what: String,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Cu(e) => write!(f, "compute unit: {e}"),
            SystemError::Asm(e) => write!(f, "kernel: {e}"),
            SystemError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of global memory ({requested} bytes requested, {available} free)"
                )
            }
            SystemError::PrefetchCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "prefetch buffer capacity exceeded ({requested} bytes requested of {capacity})"
            ),
            SystemError::ArgsNotSet => write!(f, "kernel arguments not set before dispatch"),
            SystemError::EmptyDispatch => write!(f, "dispatch with an empty grid or workgroup"),
            SystemError::GridOverflow {
                grid,
                workgroup_size,
            } => write!(
                f,
                "grid {grid:?} of {workgroup_size}-item workgroups overflows the dispatcher's counters"
            ),
            SystemError::InvalidCuCount { requested, max } => write!(
                f,
                "{requested} compute units requested, but the device routes at most {max}"
            ),
            SystemError::Preemption { reason } => write!(f, "preemption: {reason}"),
            SystemError::Snap(e) => write!(f, "snapshot: {e}"),
            SystemError::FastDivergence { what } => {
                write!(f, "fast tier diverged from the cycle pipeline: {what}")
            }
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Cu(e) => Some(e),
            SystemError::Asm(e) => Some(e),
            SystemError::Snap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CuError> for SystemError {
    fn from(e: CuError) -> Self {
        SystemError::Cu(e)
    }
}

impl From<AsmError> for SystemError {
    fn from(e: AsmError) -> Self {
        SystemError::Asm(e)
    }
}
