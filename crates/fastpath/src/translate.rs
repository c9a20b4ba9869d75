//! Kernel → basic-block translation.
//!
//! Decodes the binary once, splits it at block leaders and compiles each
//! instruction into a closure. Control flow is resolved at translation
//! time into block-id targets; a target that does not land on an
//! instruction start becomes an [`Target::Invalid`] edge that raises
//! [`CuError::PcOutOfRange`] only if control actually reaches it — the
//! same lazy failure the pipeline's fetch stage produces.

use scratch_asm::{Kernel, KernelMeta};
use scratch_cu::func::{self, VecOps};
use scratch_cu::{CuConfig, CuError, Memory, Wavefront};
use scratch_isa::{Fields, FuncUnit, Instruction, Opcode, Operand, Roles, WAVEFRONT_SIZE};

/// A compiled instruction body: closure over the wave's architectural
/// state, the workgroup's LDS and global memory.
pub(crate) type OpFn =
    Box<dyn Fn(&mut Wavefront, &mut [u32], &mut dyn Memory) -> Result<(), CuError> + Send + Sync>;

/// One compiled non-control-flow instruction.
pub(crate) struct Op {
    pub(crate) run: OpFn,
    /// Specialised closure (`true`) or interpreter fallback (`false`).
    pub(crate) compiled: bool,
}

/// A control-flow edge, resolved at translation time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    /// Edge to another basic block.
    Block(usize),
    /// Edge to a word offset that is not an instruction start (or lies
    /// outside the binary): taking it raises `PcOutOfRange` with this pc.
    Invalid(usize),
}

/// Branch condition of the six SOPP conditional branches.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cond {
    Scc0,
    Scc1,
    Vccz,
    Vccnz,
    Execz,
    Execnz,
}

impl Cond {
    pub(crate) fn eval(self, wave: &Wavefront) -> bool {
        match self {
            Cond::Scc0 => !wave.scc,
            Cond::Scc1 => wave.scc,
            Cond::Vccz => wave.vcc == 0,
            Cond::Vccnz => wave.vcc != 0,
            Cond::Execz => wave.exec == 0,
            Cond::Execnz => wave.exec != 0,
        }
    }
}

/// How a basic block ends.
pub(crate) enum Terminator {
    /// Fall through to the next block (no instruction — the block was
    /// split because its successor is a branch target).
    Fall(Target),
    /// `s_branch`.
    Jump(Target),
    /// One of the six conditional branches.
    Branch {
        cond: Cond,
        taken: Target,
        fall: Target,
    },
    /// `s_barrier`: park the wave, continue at the target once the whole
    /// workgroup has arrived.
    Barrier(Target),
    /// `s_endpgm`.
    End,
}

/// One basic block: straight-line compiled ops plus a terminator.
pub(crate) struct Block {
    /// Word offset of the first instruction.
    pub(crate) start: usize,
    pub(crate) ops: Vec<Op>,
    /// (word offset, opcode) of each body op, in `ops` order — the static
    /// view the continuous profiler multiplies by dispatch counts.
    pub(crate) op_meta: Vec<(u32, Opcode)>,
    pub(crate) term: Terminator,
    /// (word offset, opcode) of the terminator *instruction* (absent for
    /// [`Terminator::Fall`], which has none).
    pub(crate) term_meta: Option<(u32, Opcode)>,
    /// Issue-time trim/unit error of the terminator *instruction* (absent
    /// for [`Terminator::Fall`], which has no instruction). Raised when
    /// the terminator executes, like every other issue-time check.
    pub(crate) term_err: Option<CuError>,
}

/// Static profile of one translated basic block: its leader offset plus
/// the (pc, opcode) pairs of every instruction one dispatch issues.
///
/// Multiplying by [`FastStats::block_dispatches`](crate::FastStats) turns
/// the fast tier's block counters into the same per-PC retire histogram
/// the cycle pipeline collects directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    /// Word offset of the block's first instruction.
    pub start: u32,
    /// (word offset, opcode) of each straight-line body instruction.
    pub ops: Vec<(u32, Opcode)>,
    /// (word offset, opcode) of the terminator instruction; `None` for
    /// instruction-free fall-through blocks.
    pub term: Option<(u32, Opcode)>,
}

impl BlockProfile {
    /// Instructions one dispatch of this block issues.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.ops.len() as u64 + u64::from(self.term.is_some())
    }
}

/// A kernel translated into dispatchable basic blocks.
///
/// Holds the dispatch table (`blocks`, keyed by block id), the entry edge
/// and a copy of the kernel's launch metadata. Translation is deterministic:
/// translating the same kernel against the same configuration twice yields
/// the same block structure, so per-block dispatch counts are reproducible
/// run to run.
pub struct Program {
    pub(crate) blocks: Vec<Block>,
    pub(crate) entry: Target,
    meta: KernelMeta,
}

impl Program {
    /// Number of basic blocks in the dispatch table.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Launch metadata of the translated kernel.
    #[must_use]
    pub fn meta(&self) -> &KernelMeta {
        &self.meta
    }

    /// LDS words a workgroup of this kernel needs.
    #[must_use]
    pub fn lds_words(&self) -> usize {
        (self.meta.lds_bytes as usize).div_ceil(4)
    }

    /// Static per-block instruction profiles, indexed like
    /// [`FastStats::block_dispatches`](crate::FastStats).
    #[must_use]
    pub fn block_profiles(&self) -> Vec<BlockProfile> {
        self.blocks
            .iter()
            .map(|b| BlockProfile {
                start: b.start as u32,
                ops: b.op_meta.clone(),
                term: b.term_meta,
            })
            .collect()
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("blocks", &self.blocks.len())
            .field("meta", &self.meta)
            .finish()
    }
}

/// Issue-time enforcement the pipeline performs before executing any
/// instruction, in the same order: trimmed-architecture check first, then
/// functional-unit availability.
fn issue_error(op: Opcode, config: &CuConfig) -> Option<CuError> {
    if let Some(trim) = &config.trim {
        if !trim.contains(op) {
            return Some(CuError::Trimmed { opcode: op });
        }
    }
    let unit = op.unit();
    match unit {
        FuncUnit::Simd if config.int_valus == 0 => Some(CuError::MissingUnit { unit, opcode: op }),
        FuncUnit::Simf if config.fp_valus == 0 => Some(CuError::MissingUnit { unit, opcode: op }),
        _ => None,
    }
}

/// Branches, barriers and `s_endpgm` end a basic block.
fn is_terminator(op: Opcode) -> bool {
    op.is_branch() || matches!(op, Opcode::SBarrier | Opcode::SEndpgm)
}

/// Specialised closure for a pure lanewise vector ALU op (including
/// `v_mac_f32`'s accumulator), delegating the per-lane math to
/// [`func::lanewise`] with the operand shape pre-resolved.
fn lanewise_closure(op: Opcode, v: VecOps) -> OpFn {
    let is_float = op.unit() == FuncUnit::Simf;
    let nsrc = (op.src_count() as usize).max(1);
    let accumulates = op.roles().contains(Roles::RMW);
    Box::new(move |wave, _lds, _mem| {
        for lane in 0..WAVEFRONT_SIZE {
            if !wave.lane_active(lane) {
                continue;
            }
            let mut s = [0u32; 3];
            for (i, slot) in s.iter_mut().enumerate().take(nsrc) {
                let raw = wave.read_lane(v.src[i], lane)?;
                *slot = if is_float {
                    func::in_mods(raw, i as u8, v.abs, v.neg)
                } else {
                    raw
                };
            }
            let acc = if accumulates {
                wave.vgpr(v.vdst.into(), lane)?
            } else {
                0
            };
            let mut r = func::lanewise(op, s, acc);
            if is_float {
                r = func::out_mods(r, v.clamp, v.omod);
            }
            wave.set_vgpr(v.vdst.into(), lane, r)?;
        }
        Ok(())
    })
}

/// Specialised closure for a vector compare: per-lane [`func::compare`]
/// into a set/clear mask pair merged into VCC (or the VOP3b destination).
fn compare_closure(op: Opcode, v: VecOps) -> OpFn {
    let dst = v.sdst.unwrap_or(Operand::VccLo);
    Box::new(move |wave, _lds, _mem| {
        let mut mask_set = 0u64;
        let mut mask_clr = 0u64;
        for lane in 0..WAVEFRONT_SIZE {
            if !wave.lane_active(lane) {
                continue;
            }
            let a = wave.read_lane(v.src[0], lane)?;
            let b = wave.read_lane(v.src[1], lane)?;
            if func::compare(op, a, b) {
                mask_set |= 1 << lane;
            } else {
                mask_clr |= 1 << lane;
            }
        }
        let old = wave.read_scalar(dst, 2)?;
        wave.write_scalar(dst, 2, (old | mask_set) & !mask_clr)?;
        Ok(())
    })
}

/// Compile one non-terminator instruction.
fn body_op(inst: Instruction, next_pc: usize, config: &CuConfig) -> Op {
    let op = inst.opcode;
    if let Some(e) = issue_error(op, config) {
        return Op {
            run: Box::new(move |_, _, _| Err(e.clone())),
            compiled: true,
        };
    }
    // `s_nop` / `s_waitcnt` have no architectural effect in a functional
    // tier (memory is eager, so the counters they gate are always drained).
    if matches!(op, Opcode::SNop | Opcode::SWaitcnt) {
        return Op {
            run: Box::new(|_, _, _| Ok(())),
            compiled: true,
        };
    }
    // Vector ALU opcodes carry VOP1/VOP2/VOPC fields or their VOP3 forms.
    if op.is_vector_alu() {
        let v = func::vec_ops(&inst);
        if op.is_vector_compare() {
            return Op {
                run: compare_closure(op, v),
                compiled: true,
            };
        }
        // Plain lanewise: no implicit VCC operand and a vector destination.
        let special = Roles::READ_VCC.with(Roles::WRITE_VCC).with(Roles::SDST);
        if !op.roles().intersects(special) {
            return Op {
                run: lanewise_closure(op, v),
                compiled: true,
            };
        }
    }
    // Everything else — scalar ALU, SMRD, buffer, LDS, carry arithmetic,
    // `v_cndmask_b32`, `v_readfirstlane_b32` — goes through the shared
    // interpreter entry point (the fallback tier).
    Op {
        run: Box::new(move |wave, lds, mem| {
            func::execute(&inst, next_pc, wave, lds, mem).map(|_| ())
        }),
        compiled: false,
    }
}

/// Translate `kernel` into a block-compiled [`Program`] under `config`'s
/// issue-time rules (trim set, instantiated functional units).
///
/// Translation itself never fails on reachable-but-wild control flow —
/// branch targets that miss an instruction boundary become lazy
/// [`CuError::PcOutOfRange`] edges — so the only error is an undecodable
/// binary.
///
/// # Errors
///
/// [`CuError::Isa`] when the kernel words do not decode.
pub fn translate(kernel: &Kernel, config: &CuConfig) -> Result<Program, CuError> {
    let words = kernel.words();
    let decoded = Instruction::decode_all(words)?;
    let n_words = words.len();

    // Block leaders: entry, branch targets, and successors of every
    // control-transfer instruction (including barriers, which must end a
    // block so waves can park between blocks).
    let mut leader = vec![false; n_words];
    if let Some(&(first, _)) = decoded.first() {
        leader[first] = true;
    }
    for &(pos, inst) in &decoded {
        let next = pos + inst.size_words();
        if !is_terminator(inst.opcode) {
            continue;
        }
        if next < n_words {
            leader[next] = true;
        }
        if let Fields::Sopp { simm16 } = inst.fields {
            if inst.opcode.is_branch() {
                let t = next as i64 + i64::from(simm16 as i16);
                if (0..n_words as i64).contains(&t) {
                    leader[t as usize] = true;
                }
            }
        }
    }

    // Block ids, in program order, for every leader that is an
    // instruction start.
    let mut block_at: Vec<Option<usize>> = vec![None; n_words + 1];
    let mut starts: Vec<usize> = Vec::new();
    for &(pos, _) in &decoded {
        if leader[pos] {
            block_at[pos] = Some(starts.len());
            starts.push(pos);
        }
    }
    let resolve = |pc: usize| match block_at.get(pc).copied().flatten() {
        Some(b) => Target::Block(b),
        None => Target::Invalid(pc),
    };

    // Word-indexed map to decoded instructions (the same shape as the
    // pipeline's instruction memory).
    let mut at: Vec<Option<usize>> = vec![None; n_words];
    for (i, &(pos, _)) in decoded.iter().enumerate() {
        at[pos] = Some(i);
    }

    let mut blocks = Vec::with_capacity(starts.len());
    for &start in &starts {
        let mut ops = Vec::new();
        let mut op_meta = Vec::new();
        let mut pc = start;
        let (term, term_meta, term_err) = loop {
            let i = at[pc].expect("blocks begin and continue on instruction starts");
            let (_, inst) = decoded[i];
            let next = pc + inst.size_words();
            if is_terminator(inst.opcode) {
                let err = issue_error(inst.opcode, config);
                let Fields::Sopp { simm16 } = inst.fields else {
                    unreachable!("terminators are SOPP-encoded")
                };
                let t = next as i64 + i64::from(simm16 as i16);
                let taken = if t >= 0 {
                    resolve(t as usize)
                } else {
                    // Negative targets overflow the pc; the interpreter
                    // reports the failure as word 0.
                    Target::Invalid(0)
                };
                let term = match inst.opcode {
                    Opcode::SBranch => Terminator::Jump(taken),
                    Opcode::SBarrier => Terminator::Barrier(resolve(next)),
                    Opcode::SEndpgm => Terminator::End,
                    branch => Terminator::Branch {
                        cond: match branch {
                            Opcode::SCbranchScc0 => Cond::Scc0,
                            Opcode::SCbranchScc1 => Cond::Scc1,
                            Opcode::SCbranchVccz => Cond::Vccz,
                            Opcode::SCbranchVccnz => Cond::Vccnz,
                            Opcode::SCbranchExecz => Cond::Execz,
                            Opcode::SCbranchExecnz => Cond::Execnz,
                            other => unreachable!("non-branch terminator {other:?}"),
                        },
                        taken,
                        fall: resolve(next),
                    },
                };
                break (term, Some((pc as u32, inst.opcode)), err);
            }
            ops.push(body_op(inst, next, config));
            op_meta.push((pc as u32, inst.opcode));
            if next >= n_words || leader[next] {
                // Successor is a branch target (or the binary's end):
                // close the block with an instruction-free fall-through.
                break (Terminator::Fall(resolve(next)), None, None);
            }
            pc = next;
        };
        blocks.push(Block {
            start,
            ops,
            op_meta,
            term,
            term_meta,
            term_err,
        });
    }

    Ok(Program {
        blocks,
        // Waves start at pc 0; an empty binary fails like the pipeline's
        // first fetch would.
        entry: resolve(0),
        meta: *kernel.meta(),
    })
}
