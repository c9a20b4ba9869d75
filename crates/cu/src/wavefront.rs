//! Per-wavefront architectural and timing state.

use scratch_isa::{Operand, WAVEFRONT_SIZE};
use scratch_trace::StallReason;

use crate::CuError;

/// Scheduling state of a wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaveState {
    /// May issue instructions.
    Ready,
    /// Stopped at an `s_barrier`, waiting for the rest of the workgroup.
    AtBarrier,
    /// Executed `s_endpgm`.
    Done,
}

/// One wavefront: 64 work-items sharing a program counter (§2.1.1).
#[derive(Debug, Clone)]
pub struct Wavefront {
    /// Wavefront identifier within the CU.
    pub id: usize,
    /// Workgroup this wavefront belongs to (shares LDS and barriers).
    pub workgroup: usize,
    /// Program counter, in words from the start of the binary.
    pub pc: usize,
    /// 64-bit execute mask.
    pub exec: u64,
    /// Vector condition code.
    pub vcc: u64,
    /// Scalar condition code.
    pub scc: bool,
    /// Memory-descriptor register.
    pub m0: u32,
    sgprs: Vec<u32>,
    vgprs: Vec<[u32; WAVEFRONT_SIZE]>,

    // --- timing state (driven by the pipeline) ---
    /// Cycle at which the next instruction may issue.
    pub(crate) next_ready: u64,
    /// Why the wavefront is waiting for `next_ready` (set by whichever
    /// pipeline stage last pushed `next_ready` forward; read by the
    /// stall-attribution engine when tracing is enabled).
    pub(crate) wait_reason: StallReason,
    /// Outstanding vector-memory completion times (vmcnt).
    pub(crate) vm_events: Vec<u64>,
    /// Outstanding LDS/scalar-memory completion times (lgkmcnt).
    pub(crate) lgkm_events: Vec<u64>,
    pub(crate) state: WaveState,
    /// Dynamic instruction count executed by this wavefront.
    pub(crate) retired: u64,
    /// Cycle up to which this wave's stall cycles have been charged to
    /// the compute unit's always-on accumulator (see
    /// [`Wavefront::charge_stalls`]); not architectural state.
    pub(crate) acct: u64,
}

impl Wavefront {
    /// Create a wavefront with the given register budgets, all state zeroed
    /// and all lanes enabled.
    #[must_use]
    pub fn new(id: usize, workgroup: usize, sgprs: usize, vgprs: usize) -> Wavefront {
        Wavefront {
            id,
            workgroup,
            pc: 0,
            exec: u64::MAX,
            vcc: 0,
            scc: false,
            m0: u32::MAX,
            sgprs: vec![0; sgprs],
            vgprs: vec![[0; WAVEFRONT_SIZE]; vgprs],
            next_ready: 0,
            wait_reason: StallReason::FetchStarve,
            vm_events: Vec::new(),
            lgkm_events: Vec::new(),
            state: WaveState::Ready,
            retired: 0,
            acct: 0,
        }
    }

    /// Number of architected SGPRs.
    #[must_use]
    pub fn sgpr_count(&self) -> usize {
        self.sgprs.len()
    }

    /// Number of architected VGPRs.
    #[must_use]
    pub fn vgpr_count(&self) -> usize {
        self.vgprs.len()
    }

    /// Read SGPR `n`.
    ///
    /// # Errors
    ///
    /// Fails when `n` exceeds the kernel's register budget.
    pub fn sgpr(&self, n: u32) -> Result<u32, CuError> {
        self.sgprs
            .get(n as usize)
            .copied()
            .ok_or(CuError::RegisterOutOfRange {
                what: "s",
                index: n,
            })
    }

    /// Write SGPR `n`.
    ///
    /// # Errors
    ///
    /// Fails when `n` exceeds the kernel's register budget.
    pub fn set_sgpr(&mut self, n: u32, value: u32) -> Result<(), CuError> {
        match self.sgprs.get_mut(n as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(CuError::RegisterOutOfRange {
                what: "s",
                index: n,
            }),
        }
    }

    /// Read VGPR `r` of `lane`.
    ///
    /// # Errors
    ///
    /// Fails when `r` exceeds the kernel's register budget.
    pub fn vgpr(&self, r: u32, lane: usize) -> Result<u32, CuError> {
        self.vgprs
            .get(r as usize)
            .map(|regs| regs[lane])
            .ok_or(CuError::RegisterOutOfRange {
                what: "v",
                index: r,
            })
    }

    /// Write VGPR `r` of `lane`.
    ///
    /// # Errors
    ///
    /// Fails when `r` exceeds the kernel's register budget.
    pub fn set_vgpr(&mut self, r: u32, lane: usize, value: u32) -> Result<(), CuError> {
        match self.vgprs.get_mut(r as usize) {
            Some(regs) => {
                regs[lane] = value;
                Ok(())
            }
            None => Err(CuError::RegisterOutOfRange {
                what: "v",
                index: r,
            }),
        }
    }

    /// Full scalar register file (for checkpointing).
    pub(crate) fn sgprs_raw(&self) -> &[u32] {
        &self.sgprs
    }

    /// Full vector register file (for checkpointing).
    pub(crate) fn vgprs_raw(&self) -> &[[u32; WAVEFRONT_SIZE]] {
        &self.vgprs
    }

    /// Mutable scalar register file (for snapshot restore).
    pub(crate) fn sgprs_mut(&mut self) -> &mut [u32] {
        &mut self.sgprs
    }

    /// Mutable vector register file (for snapshot restore).
    pub(crate) fn vgprs_mut(&mut self) -> &mut [[u32; WAVEFRONT_SIZE]] {
        &mut self.vgprs
    }

    /// `true` when `lane` is enabled by the execute mask.
    #[must_use]
    pub fn lane_active(&self, lane: usize) -> bool {
        self.exec & (1 << lane) != 0
    }

    /// Number of active lanes.
    #[must_use]
    pub fn active_lanes(&self) -> u32 {
        self.exec.count_ones()
    }

    /// Dynamic instructions retired by this wavefront.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Read a scalar operand of `width` dwords (1 or 2) as a zero-extended
    /// 64-bit value. Inline integer constants are sign-extended; float
    /// constants contribute their IEEE-754 bits.
    ///
    /// # Errors
    ///
    /// Fails on out-of-budget SGPR indices.
    pub fn read_scalar(&self, op: Operand, width: u8) -> Result<u64, CuError> {
        Ok(match op {
            Operand::Sgpr(n) => {
                let lo = u64::from(self.sgpr(n.into())?);
                if width >= 2 {
                    lo | (u64::from(self.sgpr(u32::from(n) + 1)?) << 32)
                } else {
                    lo
                }
            }
            Operand::VccLo => {
                if width >= 2 {
                    self.vcc
                } else {
                    self.vcc & 0xffff_ffff
                }
            }
            Operand::VccHi => self.vcc >> 32,
            Operand::ExecLo => {
                if width >= 2 {
                    self.exec
                } else {
                    self.exec & 0xffff_ffff
                }
            }
            Operand::ExecHi => self.exec >> 32,
            Operand::M0 => u64::from(self.m0),
            Operand::Scc => u64::from(self.scc),
            Operand::Vccz => u64::from(self.vcc == 0),
            Operand::Execz => u64::from(self.exec == 0),
            Operand::IntConst(v) => {
                let v64 = i64::from(v);
                if width >= 2 {
                    v64 as u64
                } else {
                    u64::from(v64 as u32)
                }
            }
            Operand::FloatConst(f) => u64::from(f.to_bits()),
            Operand::Literal(v) => u64::from(v),
            Operand::Vgpr(_) => {
                return Err(CuError::RegisterOutOfRange {
                    what: "scalar read of v",
                    index: 0,
                })
            }
        })
    }

    /// Write a scalar destination of `width` dwords.
    ///
    /// # Errors
    ///
    /// Fails on out-of-budget SGPR indices or non-writable destinations.
    pub fn write_scalar(&mut self, dst: Operand, width: u8, value: u64) -> Result<(), CuError> {
        match dst {
            Operand::Sgpr(n) => {
                self.set_sgpr(n.into(), value as u32)?;
                if width >= 2 {
                    self.set_sgpr(u32::from(n) + 1, (value >> 32) as u32)?;
                }
            }
            Operand::VccLo => {
                if width >= 2 {
                    self.vcc = value;
                } else {
                    self.vcc = (self.vcc & !0xffff_ffff) | (value & 0xffff_ffff);
                }
            }
            Operand::VccHi => {
                self.vcc = (self.vcc & 0xffff_ffff) | (value << 32);
            }
            Operand::ExecLo => {
                if width >= 2 {
                    self.exec = value;
                } else {
                    self.exec = (self.exec & !0xffff_ffff) | (value & 0xffff_ffff);
                }
            }
            Operand::ExecHi => {
                self.exec = (self.exec & 0xffff_ffff) | (value << 32);
            }
            Operand::M0 => self.m0 = value as u32,
            other => {
                return Err(CuError::RegisterOutOfRange {
                    what: "scalar write to non-register operand",
                    index: u32::from(other.encode_src().unwrap_or(0)),
                })
            }
        }
        Ok(())
    }

    /// Read a vector-format source for `lane` (VGPRs per lane, scalars
    /// broadcast).
    ///
    /// # Errors
    ///
    /// Fails on out-of-budget register indices.
    pub fn read_lane(&self, op: Operand, lane: usize) -> Result<u32, CuError> {
        match op {
            Operand::Vgpr(r) => self.vgpr(r.into(), lane),
            other => Ok(self.read_scalar(other, 1)? as u32),
        }
    }

    /// Outstanding vector-memory operations at `now` (the `vmcnt` value).
    #[must_use]
    pub fn vmcnt(&self, now: u64) -> u32 {
        self.vm_events.iter().filter(|&&t| t > now).count() as u32
    }

    /// Outstanding LDS/scalar-memory operations at `now` (`lgkmcnt`).
    #[must_use]
    pub fn lgkmcnt(&self, now: u64) -> u32 {
        self.lgkm_events.iter().filter(|&&t| t > now).count() as u32
    }

    /// Drop completed events (keeps the outstanding lists short).
    pub(crate) fn retire_mem_events(&mut self, now: u64) {
        self.vm_events.retain(|&t| t > now);
        self.lgkm_events.retain(|&t| t > now);
    }

    /// Earliest cycle at which a `s_waitcnt(vm ≤ vm_target, lgkm ≤ lgkm_target)`
    /// would be satisfied. `scratch` is reusable working space, so the
    /// evaluation allocates nothing once it has grown.
    #[must_use]
    pub(crate) fn waitcnt_ready_at(
        &self,
        vm_target: u32,
        lgkm_target: u32,
        scratch: &mut Vec<u64>,
    ) -> u64 {
        fn nth_newest_completion(events: &[u64], keep: u32, scratch: &mut Vec<u64>) -> u64 {
            // The counter drops to `keep` once all but `keep` of the events
            // have completed: the (keep+1)-th latest completion.
            let keep = keep as usize;
            if events.len() <= keep {
                return 0;
            }
            if keep == 0 {
                return events.iter().copied().max().unwrap_or(0);
            }
            scratch.clear();
            scratch.extend_from_slice(events);
            *scratch.select_nth_unstable(events.len() - keep - 1).1
        }
        nth_newest_completion(&self.vm_events, vm_target, scratch).max(nth_newest_completion(
            &self.lgkm_events,
            lgkm_target,
            scratch,
        ))
    }

    /// Charge this wave's stall cycles over `[acct, to)` to `acc`
    /// (indexed by `StallReason as usize`) and advance `acct` to `to`.
    ///
    /// The compute unit calls this before every change to `state`,
    /// `next_ready` or `wait_reason` and before `run_until` returns, so
    /// the interval always saw one scheduling state. Within it, each
    /// decision interval would have been charged as follows: a retired
    /// wave's idle slot counts as [`StallReason::WavepoolEmpty`], a wave
    /// at the barrier as [`StallReason::Barrier`], and a ready wave as its
    /// `wait_reason` while `next_ready` lies ahead and as
    /// [`StallReason::StructuralFu`] afterwards. No decision interval
    /// straddles `next_ready` (the scheduler's next event is never later
    /// than a ready wave's `next_ready`), so splitting at it is exact.
    /// Calls with `to <= acct` charge nothing (an issuing wave skips its
    /// issue cycle by advancing `acct` past it).
    pub(crate) fn charge_stalls(&mut self, acc: &mut [u64; StallReason::ALL.len()], to: u64) {
        let from = self.acct;
        if to <= from {
            return;
        }
        match self.state {
            WaveState::Done => acc[StallReason::WavepoolEmpty as usize] += to - from,
            WaveState::AtBarrier => acc[StallReason::Barrier as usize] += to - from,
            WaveState::Ready => {
                let split = self.next_ready.clamp(from, to);
                acc[self.wait_reason as usize] += split - from;
                acc[StallReason::StructuralFu as usize] += to - split;
            }
        }
        self.acct = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_budget_enforced() {
        let mut w = Wavefront::new(0, 0, 8, 4);
        assert!(w.set_sgpr(7, 1).is_ok());
        assert!(w.set_sgpr(8, 1).is_err());
        assert!(w.vgpr(4, 0).is_err());
        assert!(w.set_vgpr(3, 63, 9).is_ok());
        assert_eq!(w.vgpr(3, 63).unwrap(), 9);
    }

    #[test]
    fn scalar_read_widths() {
        let mut w = Wavefront::new(0, 0, 8, 1);
        w.set_sgpr(2, 0x1111_2222).unwrap();
        w.set_sgpr(3, 0x3333_4444).unwrap();
        assert_eq!(w.read_scalar(Operand::Sgpr(2), 1).unwrap(), 0x1111_2222);
        assert_eq!(
            w.read_scalar(Operand::Sgpr(2), 2).unwrap(),
            0x3333_4444_1111_2222
        );
        assert_eq!(
            w.read_scalar(Operand::IntConst(-1), 1).unwrap(),
            0xffff_ffff
        );
        assert_eq!(w.read_scalar(Operand::IntConst(-1), 2).unwrap(), u64::MAX);
        assert_eq!(
            w.read_scalar(Operand::FloatConst(1.0), 1).unwrap(),
            u64::from(1.0f32.to_bits())
        );
    }

    #[test]
    fn special_register_reads() {
        let mut w = Wavefront::new(0, 0, 4, 1);
        w.vcc = 0;
        w.exec = 0;
        assert_eq!(w.read_scalar(Operand::Vccz, 1).unwrap(), 1);
        assert_eq!(w.read_scalar(Operand::Execz, 1).unwrap(), 1);
        w.vcc = 5;
        w.exec = u64::MAX;
        assert_eq!(w.read_scalar(Operand::Vccz, 1).unwrap(), 0);
        assert_eq!(w.read_scalar(Operand::VccLo, 2).unwrap(), 5);
        assert_eq!(w.read_scalar(Operand::ExecHi, 1).unwrap(), 0xffff_ffff);
    }

    #[test]
    fn scalar_write_halves() {
        let mut w = Wavefront::new(0, 0, 4, 1);
        w.write_scalar(Operand::VccLo, 2, 0xdead_beef_0000_0001)
            .unwrap();
        assert_eq!(w.vcc, 0xdead_beef_0000_0001);
        w.write_scalar(Operand::VccHi, 1, 0x1234).unwrap();
        assert_eq!(w.vcc >> 32, 0x1234);
        w.write_scalar(Operand::ExecLo, 2, 0xff).unwrap();
        assert_eq!(w.exec, 0xff);
        assert_eq!(w.active_lanes(), 8);
    }

    #[test]
    fn lane_reads_broadcast_scalars() {
        let mut w = Wavefront::new(0, 0, 4, 2);
        w.set_sgpr(1, 77).unwrap();
        w.set_vgpr(0, 5, 123).unwrap();
        assert_eq!(w.read_lane(Operand::Sgpr(1), 9).unwrap(), 77);
        assert_eq!(w.read_lane(Operand::Vgpr(0), 5).unwrap(), 123);
        assert_eq!(w.read_lane(Operand::Vgpr(0), 6).unwrap(), 0);
    }

    #[test]
    fn waitcnt_accounting() {
        let mut w = Wavefront::new(0, 0, 4, 1);
        w.vm_events = vec![100, 200, 300];
        assert_eq!(w.vmcnt(50), 3);
        assert_eq!(w.vmcnt(150), 2);
        assert_eq!(w.vmcnt(300), 0);
        // Waiting for vmcnt<=0 needs all three done; <=2 needs only first.
        let scratch = &mut Vec::new();
        assert_eq!(w.waitcnt_ready_at(0, 0, scratch), 300);
        assert_eq!(w.waitcnt_ready_at(2, 0, scratch), 100);
        assert_eq!(w.waitcnt_ready_at(3, 0, scratch), 0);
        w.retire_mem_events(250);
        assert_eq!(w.vm_events, vec![300]);
    }

    /// In-place selection agrees with sorting a copy, for every target
    /// and event multiset (duplicates included).
    #[test]
    fn waitcnt_selection_matches_sorting() {
        fn sorted_nth(events: &[u64], keep: u32) -> u64 {
            if events.len() <= keep as usize {
                return 0;
            }
            let mut sorted = events.to_vec();
            sorted.sort_unstable();
            sorted[events.len() - keep as usize - 1]
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let scratch = &mut Vec::new();
        let mut w = Wavefront::new(0, 0, 4, 1);
        for _ in 0..500 {
            w.vm_events = (0..next() % 20).map(|_| next() % 64).collect();
            w.lgkm_events = (0..next() % 20).map(|_| next() % 64).collect();
            for vm in (0..=21).chain([u32::MAX]) {
                for lgkm in [0, 1, 3, 7, 19, u32::MAX] {
                    let want = sorted_nth(&w.vm_events, vm).max(sorted_nth(&w.lgkm_events, lgkm));
                    assert_eq!(w.waitcnt_ready_at(vm, lgkm, scratch), want);
                }
            }
        }
    }
}
