//! The compute-unit timing model: fetch/decode/issue scheduling over the
//! functional executor.

use scratch_asm::{Kernel, KernelMeta};
use scratch_isa::{Fields, FuncUnit, Instruction, Opcode, Reg, Roles, WAVEFRONT_SIZE};
use scratch_snap::{CuSnapshot, WaveSnapshot, WorkgroupSnapshot};
use scratch_trace::{Attribution, StallReason, TraceEvent, TraceSummary, Tracer};
use serde::{Deserialize, Serialize};

use crate::fault::FaultHook;
use crate::func::{execute, MemEvent};
use crate::memory::Memory;
use crate::stats::IssueCounters;
use crate::wavefront::{WaveState, Wavefront};
use crate::{CuConfig, CuError, CuStats};

/// Everything the issue stage needs to know about one decoded
/// instruction, derived once when the kernel is loaded.
#[derive(Debug, Clone, Copy)]
struct IssueEntry {
    inst: Instruction,
    unit: FuncUnit,
    /// Issue class (MIAOW's per-class scoreboards): 0 scalar, 1 vector,
    /// 2 LD/ST, 3 branch & message.
    class: u8,
    /// The architecture retains the opcode (always true untrimmed).
    kept: bool,
    /// `s_waitcnt` targets `(vmcnt, lgkmcnt)`.
    waitcnt: Option<(u32, u32)>,
    /// Cycles the unit instance stays busy.
    occupancy: u64,
    /// Cycles until the result reaches the scoreboard (at least 1).
    latency: u64,
    /// Instruction length, which is also the fetch/decode cost of the
    /// instruction after it.
    size_words: usize,
    /// Active lanes count as work-item operations (vector ALU/memory).
    per_lane: bool,
    /// Registers read, as a range of [`IssueTable::keys`].
    reads: (usize, usize),
    /// Registers written, as a range of [`IssueTable::keys`].
    writes: (usize, usize),
}

/// The loaded program as the issue stage sees it: one [`IssueEntry`] per
/// instruction-start word, with every entry's scoreboard read and write
/// sets stored in one flat key arena.
#[derive(Debug)]
struct IssueTable {
    /// The binary the table was built from.
    words: Vec<u32>,
    entries: Vec<Option<IssueEntry>>,
    keys: Vec<Reg>,
}

impl IssueTable {
    /// Decode `kernel` and derive each instruction's issue facts under
    /// `config` (latencies, vector beats and the trim set are fixed for a
    /// compute unit's lifetime).
    fn build(config: &CuConfig, kernel: &Kernel) -> Result<IssueTable, CuError> {
        let insts = Instruction::decode_all(kernel.words())?;
        let mut table = IssueTable {
            words: kernel.words().to_vec(),
            entries: vec![None; kernel.words().len()],
            // Room for a typical instruction's reads and writes.
            keys: Vec::with_capacity(insts.len() * 6),
        };
        let beats = config.vector_beats();
        for (pos, inst) in insts {
            let op = inst.opcode;
            let unit = op.unit();
            let latency = config.latencies.of(op);
            let waitcnt = match inst.fields {
                Fields::Sopp { simm16 } if op == Opcode::SWaitcnt => {
                    Some((u32::from(simm16 & 0xf), u32::from((simm16 >> 8) & 0x1f)))
                }
                _ => None,
            };
            // SIMD datapaths are pipelined (one beat per cycle); the SIMF
            // maps to iterative FP cores on the FPGA, so a floating-point
            // instruction occupies its unit for the full operation latency
            // — which is why replicating SIMF units pays off so well in the
            // paper's multi-thread experiments (Fig. 7B).
            let occupancy = match unit {
                FuncUnit::Simd => beats,
                FuncUnit::Simf => beats + latency,
                _ => 1,
            };
            let vector_tail = if op.is_vector_alu() { beats - 1 } else { 0 };
            let reads = table.push_keys(|keys| inst.reads(|r| keys.push(r)));
            // Memory-load destinations stay off the scoreboard: SI software
            // orders those with `s_waitcnt`, and the timing model charges
            // them there.
            let writes = table.push_keys(|keys| {
                if !op.roles().contains(Roles::LOAD) {
                    inst.writes(|r| keys.push(r));
                }
            });
            table.entries[pos] = Some(IssueEntry {
                inst,
                unit,
                class: match unit {
                    FuncUnit::Salu => 0,
                    FuncUnit::Simd | FuncUnit::Simf => 1,
                    FuncUnit::Lsu => 2,
                    FuncUnit::Branch => 3,
                },
                kept: config.trim.as_ref().is_none_or(|trim| trim.contains(op)),
                waitcnt,
                occupancy,
                latency: (latency + vector_tail).max(1),
                size_words: inst.size_words(),
                per_lane: op.is_vector_alu() || op.is_vector_memory(),
                reads,
                writes,
            });
        }
        Ok(table)
    }

    /// Append the keys `push` produces to the arena and return their
    /// range.
    fn push_keys(&mut self, push: impl FnOnce(&mut Vec<Reg>)) -> (usize, usize) {
        let start = self.keys.len();
        push(&mut self.keys);
        (start, self.keys.len())
    }

    /// The keys of an entry's read or write range.
    fn keys(&self, (start, end): (usize, usize)) -> &[Reg] {
        &self.keys[start..end]
    }
}

/// One wave's in-flight register writes: `(register, cycle the result
/// lands)`, each register at most once. A handful of entries at a time,
/// so a linear scan beats hashing.
type Pending = Vec<(Reg, u64)>;

/// Record a pending write of `key` landing at `t`, replacing any earlier
/// one for the same register.
fn set_pending(pending: &mut Pending, key: Reg, t: u64) {
    match pending.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = t,
        None => pending.push((key, t)),
    }
}

/// Initial state for one wavefront, as the ultra-threaded dispatcher would
/// program it over the register access interfaces (§2.1.2).
#[derive(Debug, Clone, Default)]
pub struct WaveInit {
    /// Workgroup handle from [`ComputeUnit::add_workgroup`].
    pub workgroup: usize,
    /// Initial execute mask (lanes beyond the workgroup tail are disabled).
    pub exec: u64,
    /// `(register, value)` scalar initialisers.
    pub sgprs: Vec<(u32, u32)>,
    /// `(register, per-lane values)` vector initialisers.
    pub vgprs: Vec<(u32, Vec<u32>)>,
}

impl WaveInit {
    /// Program `wave`'s execute mask and registers from this initialiser
    /// (the cycle pipeline and the fast tier share it).
    ///
    /// # Errors
    ///
    /// Register initialisers outside the wave's budgets.
    pub fn apply(&self, wave: &mut Wavefront) -> Result<(), CuError> {
        wave.exec = self.exec;
        for &(r, v) in &self.sgprs {
            wave.set_sgpr(r, v)?;
        }
        for (r, lanes) in &self.vgprs {
            for (lane, &v) in lanes.iter().enumerate().take(WAVEFRONT_SIZE) {
                wave.set_vgpr(*r, lane, v)?;
            }
        }
        Ok(())
    }
}

/// Outcome of a budgeted [`ComputeUnit::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every resident wavefront retired; the value is the cycles the whole
    /// logical run took (summed across any pauses).
    Done(u64),
    /// The cycle budget ran out at an instruction boundary; the CU can be
    /// checkpointed or resumed with another `run_until` call.
    Paused,
}

#[derive(Debug)]
struct Workgroup {
    lds: Vec<u32>,
    waves: Vec<usize>,
    arrived: usize,
}

#[derive(Debug)]
struct FuPool {
    salu_busy: u64,
    lsu_busy: u64,
    simd_busy: Vec<u64>,
    simf_busy: Vec<u64>,
}

/// Per-CU tracing state: the stall-attribution engine, an optional
/// structured-event sink, and scratch space for the decision being
/// attributed. Boxed behind an `Option` on [`ComputeUnit`] so the untraced
/// path pays a single pointer test per scheduling decision.
struct CuTrace {
    /// CU index stamped into events and timelines.
    id: u32,
    attr: Attribution,
    sink: Option<Box<dyn Tracer>>,
    /// Waves that issued in the current scheduling decision.
    issued_now: Vec<usize>,
    /// Open (coalescing) stall interval per wave: `(reason, from, to)`.
    /// Only maintained while a sink is attached.
    open: Vec<Option<(StallReason, u64, u64)>>,
}

impl std::fmt::Debug for CuTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CuTrace")
            .field("id", &self.id)
            .field("attr", &self.attr)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl CuTrace {
    fn new(id: u32, sink: Option<Box<dyn Tracer>>) -> CuTrace {
        CuTrace {
            id,
            attr: Attribution::new(),
            sink,
            issued_now: Vec::new(),
            open: Vec::new(),
        }
    }

    fn emit(&mut self, ev: &TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(ev);
        }
    }

    /// Close wave `wi`'s open stall interval and emit it as one event.
    fn flush_stall(&mut self, wi: usize) {
        if let Some((reason, from, to)) = self.open.get_mut(wi).and_then(Option::take) {
            let ev = TraceEvent::Stall {
                cu: self.id,
                wave: wi as u32,
                reason,
                from,
                to,
            };
            self.emit(&ev);
        }
    }

    /// Extend wave `wi`'s open stall interval, or start a new one (closing
    /// the previous interval when the reason changes or time is
    /// discontiguous).
    fn note_stall(&mut self, wi: usize, reason: StallReason, from: u64, to: u64) {
        if self.sink.is_none() {
            return;
        }
        if let Some((r, _, t)) = &mut self.open[wi] {
            if *r == reason && *t == from {
                *t = to;
                return;
            }
        }
        self.flush_stall(wi);
        self.open[wi] = Some((reason, from, to));
    }
}

/// The MIAOW2.0 compute unit: program, resident wavefronts, functional
/// units and the cycle-level scheduler.
#[derive(Debug)]
pub struct ComputeUnit {
    config: CuConfig,
    meta: KernelMeta,
    /// Word-indexed decoded program with its issue facts.
    table: IssueTable,
    waves: Vec<Wavefront>,
    /// Per-wave scoreboard of in-flight register writes.
    pending: Vec<Pending>,
    /// Waves not yet retired; recounted whenever a run starts or resumes.
    live: usize,
    workgroups: Vec<Workgroup>,
    fus: FuPool,
    rr: usize,
    now: u64,
    /// Clock value at which the current (logically single) run began;
    /// persists across [`ComputeUnit::run_until`] pauses so the cycle
    /// limit spans the whole run, and clears when the run completes.
    run_start: Option<u64>,
    stats: CuStats,
    /// Issue and busy counts not yet folded into `stats` (folded on every
    /// return from [`ComputeUnit::run_until`]).
    counters: IssueCounters,
    /// Tracing state; `None` keeps the scheduler on its untraced fast path.
    trace: Option<Box<CuTrace>>,
    /// Always-on stall aggregation, indexed by `StallReason as usize`;
    /// charged lazily per wave (see [`Wavefront::charge_stalls`]) and
    /// folded into [`CuStats::stall_cycles`] when a batch completes.
    stall_acc: [u64; StallReason::ALL.len()],
    /// Working space for `s_waitcnt` evaluation.
    wait_scratch: Vec<u64>,
    /// Fault-injection state; `None` keeps the issue loop on its
    /// uninstrumented fast path (zero overhead when off).
    fault: Option<Box<FaultState>>,
    /// Per-PC retire counters, indexed by word offset; maintained only
    /// when `config.profile` is on (empty otherwise) and grown lazily to
    /// the highest retired pc.
    pc_counts: Vec<u64>,
}

/// Fault-injection plumbing: the installed hook plus the CU's cumulative
/// issue counter the hook triggers on.
#[derive(Debug)]
struct FaultState {
    issued: u64,
    hook: Box<dyn FaultHook>,
}

impl ComputeUnit {
    /// Build a compute unit loaded with `kernel`.
    ///
    /// # Errors
    ///
    /// Fails if the kernel binary does not decode.
    pub fn new(config: CuConfig, kernel: &Kernel) -> Result<ComputeUnit, CuError> {
        let table = IssueTable::build(&config, kernel)?;
        Ok(ComputeUnit {
            fus: FuPool {
                salu_busy: 0,
                lsu_busy: 0,
                simd_busy: vec![0; config.int_valus as usize],
                simf_busy: vec![0; config.fp_valus as usize],
            },
            config,
            meta: *kernel.meta(),
            table,
            waves: Vec::new(),
            pending: Vec::new(),
            live: 0,
            workgroups: Vec::new(),
            rr: 0,
            now: 0,
            run_start: None,
            stats: CuStats::default(),
            counters: IssueCounters::default(),
            trace: None,
            stall_acc: [0; StallReason::ALL.len()],
            wait_scratch: Vec::new(),
            fault: None,
            pc_counts: Vec::new(),
        })
    }

    /// Enable stall attribution and summary collection, identifying this
    /// CU as `cu` in timelines and events. No structured events are
    /// recorded; use [`ComputeUnit::set_tracer`] for an event stream.
    pub fn enable_tracing(&mut self, cu: u32) {
        if self.trace.is_none() {
            self.trace = Some(Box::new(CuTrace::new(cu, None)));
        }
    }

    /// Enable tracing with a structured-event sink attached (replaces any
    /// previous tracer and attribution state).
    ///
    /// A disabled sink ([`Tracer::is_enabled`] returning `false`, e.g.
    /// [`scratch_trace::NullTracer`]) switches tracing off entirely, so a
    /// caller can pass any sink and pay nothing when it discards events.
    pub fn set_tracer(&mut self, cu: u32, sink: Box<dyn Tracer>) {
        if sink.is_enabled() {
            self.trace = Some(Box::new(CuTrace::new(cu, Some(sink))));
        } else {
            self.trace = None;
        }
    }

    /// `true` when an attribution engine (and possibly a sink) is attached.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Install a fault-injection hook (replaces any previous one). The
    /// hook runs after every issued instruction's architectural effects
    /// apply; see [`FaultHook`].
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault = Some(Box::new(FaultState { issued: 0, hook }));
    }

    /// `true` when a fault hook is installed.
    #[must_use]
    pub fn fault_injection_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Drain the records of faults the installed hook has applied so far
    /// (empty without a hook).
    pub fn drain_fault_records(&mut self) -> Vec<crate::FaultRecord> {
        self.fault
            .as_mut()
            .map(|fs| fs.hook.drain_records())
            .unwrap_or_default()
    }

    /// Fold the attribution collected so far into a [`TraceSummary`]
    /// (`None` when tracing is disabled).
    #[must_use]
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        self.trace
            .as_ref()
            .map(|tr| tr.attr.summarize(tr.id, self.now, &self.stats.fu_busy))
    }

    /// Architecture configuration.
    #[must_use]
    pub fn config(&self) -> &CuConfig {
        &self.config
    }

    /// Current cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CuStats {
        &self.stats
    }

    /// Access a resident wavefront (for result inspection in tests).
    #[must_use]
    pub fn wave(&self, idx: usize) -> &Wavefront {
        &self.waves[idx]
    }

    /// Allocate a workgroup (LDS storage + barrier scope); returns its
    /// handle for [`WaveInit::workgroup`].
    pub fn add_workgroup(&mut self) -> usize {
        self.workgroups.push(Workgroup {
            lds: vec![0; (self.meta.lds_bytes as usize).div_ceil(4)],
            waves: Vec::new(),
            arrived: 0,
        });
        self.workgroups.len() - 1
    }

    /// Start a wavefront at PC 0 with the dispatcher-provided register state.
    ///
    /// # Errors
    ///
    /// * [`CuError::TooManyWavefronts`] beyond the fetch controller's limit;
    /// * register initialisers outside the kernel's budgets.
    pub fn start_wave(&mut self, init: WaveInit) -> Result<usize, CuError> {
        let resident = self
            .waves
            .iter()
            .filter(|w| w.state != WaveState::Done)
            .count();
        if resident >= usize::from(self.config.max_wavefronts) {
            return Err(CuError::TooManyWavefronts);
        }
        let idx = self.waves.len();
        let mut wave = Wavefront::new(
            idx,
            init.workgroup,
            usize::from(self.meta.sgprs),
            usize::from(self.meta.vgprs),
        );
        wave.next_ready = self.now;
        init.apply(&mut wave)?;
        self.workgroups[init.workgroup].waves.push(idx);
        self.waves.push(wave);
        self.pending.push(Pending::new());
        Ok(idx)
    }

    /// Drop retired wavefronts and workgroups so a new batch can start.
    /// Cycle count and statistics carry over.
    pub fn clear_waves(&mut self) {
        self.waves.clear();
        self.pending.clear();
        self.workgroups.clear();
        self.rr = 0;
        self.run_start = None;
    }

    /// Replace the loaded program with another kernel (the dispatcher
    /// reloads the instruction memory between kernel launches). Resident
    /// wavefronts are dropped; cycle count and statistics carry over.
    ///
    /// # Errors
    ///
    /// Fails if the kernel binary does not decode.
    pub fn load_kernel(&mut self, kernel: &Kernel) -> Result<(), CuError> {
        // The table depends only on the binary and the fixed configuration,
        // so reloading the same kernel (every dispatch does) keeps it.
        if self.table.words != kernel.words() {
            self.table = IssueTable::build(&self.config, kernel)?;
        }
        self.meta = *kernel.meta();
        self.pc_counts.clear();
        self.clear_waves();
        Ok(())
    }

    /// Per-PC retire counters of the current kernel, indexed by word
    /// offset (empty unless [`CuConfig::profile`] is on). Entries past the
    /// highest retired pc are absent, not zero.
    #[must_use]
    pub fn pc_counts(&self) -> &[u64] {
        &self.pc_counts
    }

    /// Drain the per-PC retire counters, leaving them zeroed for the next
    /// kernel (the dispatcher's per-kernel aggregation hook).
    pub fn take_pc_counts(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pc_counts)
    }

    /// Run until every resident wavefront has executed `s_endpgm`.
    ///
    /// Returns the number of cycles this batch took.
    ///
    /// # Errors
    ///
    /// Trim violations, missing units, register/LDS range errors, barrier
    /// deadlock, or exceeding the configured cycle limit.
    pub fn run_to_completion(&mut self, mem: &mut dyn Memory) -> Result<u64, CuError> {
        match self.run_until(mem, u64::MAX)? {
            RunStatus::Done(cycles) => Ok(cycles),
            RunStatus::Paused => unreachable!("an unbounded budget cannot pause"),
        }
    }

    /// Run for at most `budget` cycles, pausing at an instruction boundary
    /// when the budget runs out. A paused CU is at a checkpointable state:
    /// [`ComputeUnit::snapshot`] captures it exactly, and further
    /// `run_until` calls continue the same logical run (the configured
    /// cycle limit spans the whole run, across pauses). Tracing sinks are
    /// not resumable; use the preemptible path untraced.
    ///
    /// # Errors
    ///
    /// Same failures as [`ComputeUnit::run_to_completion`].
    pub fn run_until(&mut self, mem: &mut dyn Memory, budget: u64) -> Result<RunStatus, CuError> {
        let entry = self.now;
        let fresh = self.run_start.is_none();
        let start = *self.run_start.get_or_insert(entry);
        let deadline = entry.saturating_add(budget);
        if fresh {
            if let Some(tr) = &mut self.trace {
                tr.attr.begin_run(self.waves.len(), start);
                tr.open.clear();
                tr.open.resize(self.waves.len(), None);
                for w in &self.waves {
                    let ev = TraceEvent::WaveStart {
                        cu: tr.id,
                        wave: w.id as u32,
                        workgroup: w.workgroup as u32,
                        now: start,
                    };
                    tr.emit(&ev);
                }
            }
        }
        for w in &mut self.waves {
            w.acct = entry;
        }
        self.live = self
            .waves
            .iter()
            .filter(|w| w.state != WaveState::Done)
            .count();
        let paused = self.run_decisions(mem, start, deadline);
        // Settle the lazily kept accounts on every way out, so statistics
        // and snapshots read exactly as if they were kept per decision.
        if self.config.metrics {
            for w in &mut self.waves {
                w.charge_stalls(&mut self.stall_acc, self.now);
            }
        }
        self.counters.fold_into(&mut self.stats);
        if paused? {
            return Ok(RunStatus::Paused);
        }
        if let Some(tr) = &mut self.trace {
            for wi in 0..self.waves.len() {
                tr.flush_stall(wi);
            }
            tr.attr.end_run(self.now);
        }
        for (i, &reason) in StallReason::ALL.iter().enumerate() {
            if self.stall_acc[i] > 0 {
                *self.stats.stall_cycles.entry(reason).or_default() += self.stall_acc[i];
                self.stall_acc[i] = 0;
            }
        }
        self.stats.cycles = self.now;
        self.run_start = None;
        Ok(RunStatus::Done(self.now - start))
    }

    /// The scheduling loop of [`ComputeUnit::run_until`]: one decision
    /// per iteration until every wave retires (`false`) or the budget
    /// runs out (`true`).
    fn run_decisions(
        &mut self,
        mem: &mut dyn Memory,
        start: u64,
        deadline: u64,
    ) -> Result<bool, CuError> {
        while self.live > 0 {
            if self.now - start > self.config.cycle_limit {
                return Err(CuError::CycleLimit {
                    limit: self.config.cycle_limit,
                });
            }
            if self.now >= deadline {
                return Ok(true);
            }
            let t0 = self.now;
            let t1 = if self.try_issue(mem)? {
                t0 + 1
            } else {
                self.next_event().ok_or(CuError::Deadlock { cycle: t0 })?
            };
            if self.trace.is_some() {
                self.attribute_interval(t0, t1);
            }
            self.now = t1;
        }
        Ok(false)
    }

    /// Charge the decision interval `[t0, t1)` to every live wavefront:
    /// one issue cycle for waves that issued at `t0` (issuing decisions
    /// always advance time by exactly one cycle), and `t1 − t0` stalled
    /// cycles with a single [`StallReason`] for everyone else. Successive
    /// intervals tile each wave's residency, which is what makes the
    /// attribution exact (`issued + Σ stalls == retire − start`).
    fn attribute_interval(&mut self, t0: u64, t1: u64) {
        let Some(mut tr) = self.trace.take() else {
            return;
        };
        for (wi, w) in self.waves.iter().enumerate() {
            if tr.attr.is_retired(wi) {
                continue;
            }
            if tr.issued_now.contains(&wi) {
                tr.flush_stall(wi);
                tr.attr.issue(wi);
                if w.state == WaveState::Done {
                    tr.attr.retire(wi, t0 + 1);
                }
            } else {
                // Reason priority: a wave parked at the barrier waits on
                // its workgroup; a wave whose `next_ready` lies ahead
                // waits on whichever stage pushed it there (recorded in
                // `wait_reason`); a wave that was ready yet skipped lost
                // issue arbitration — its unit was busy or the issue
                // class was already taken this cycle.
                let reason = if w.state == WaveState::AtBarrier {
                    StallReason::Barrier
                } else if w.next_ready > t0 {
                    w.wait_reason
                } else {
                    StallReason::StructuralFu
                };
                tr.attr.stall(wi, reason, t1 - t0);
                tr.note_stall(wi, reason, t0, t1);
            }
        }
        self.trace = Some(tr);
    }

    /// Attempt to issue instructions this cycle. MIAOW's issue stage keeps
    /// one scoreboard per instruction class (branch & message, scalar,
    /// vector, LD/ST — Fig. 2) and its arbiter can start one instruction
    /// of each class per cycle, from different wavefronts. Returns `true`
    /// if anything issued.
    fn try_issue(&mut self, mem: &mut dyn Memory) -> Result<bool, CuError> {
        let mut class_used = [false; 4]; // scalar, vector, lsu, branch
        let mut issued_any = false;
        let n = self.waves.len();
        let rr_start = self.rr;
        let metrics = self.config.metrics;
        if let Some(tr) = &mut self.trace {
            tr.issued_now.clear();
        }
        // Structured events are only worth assembling with a sink attached.
        let emit = self.trace.as_ref().is_some_and(|tr| tr.sink.is_some());
        for i in 0..n {
            if class_used.iter().all(|&u| u) {
                break;
            }
            let wi = (rr_start + i) % n;
            if self.waves[wi].state != WaveState::Ready || self.waves[wi].next_ready > self.now {
                continue;
            }
            let pc = self.waves[wi].pc;
            let e = *self
                .table
                .entries
                .get(pc)
                .and_then(Option::as_ref)
                .ok_or(CuError::PcOutOfRange { pc })?;
            let op = e.inst.opcode;
            let unit = e.unit;

            // One instruction per issue class per cycle.
            let class = usize::from(e.class);
            if class_used[class] {
                continue;
            }

            // Trimmed-architecture enforcement (hard errors: the hardware
            // for this instruction does not exist).
            if !e.kept {
                return Err(CuError::Trimmed { opcode: op });
            }
            match unit {
                FuncUnit::Simd if self.config.int_valus == 0 => {
                    return Err(CuError::MissingUnit { unit, opcode: op })
                }
                FuncUnit::Simf if self.config.fp_valus == 0 => {
                    return Err(CuError::MissingUnit { unit, opcode: op })
                }
                _ => {}
            }

            // s_waitcnt blocks at issue until the counters drain.
            if let Some((vm_target, lgkm_target)) = e.waitcnt {
                let wave = &mut self.waves[wi];
                let scratch = &mut self.wait_scratch;
                let ready = wave.waitcnt_ready_at(vm_target, lgkm_target, scratch);
                if ready > self.now {
                    if metrics {
                        wave.charge_stalls(&mut self.stall_acc, self.now);
                    }
                    if self.trace.is_some() || metrics {
                        // Which counter gates the wait? Query each alone
                        // (the other target relaxed to "any") and blame
                        // the one that matches the combined ready time.
                        let vm_ready = wave.waitcnt_ready_at(vm_target, u32::MAX, scratch);
                        wave.wait_reason = if vm_ready >= ready {
                            StallReason::WaitcntVm
                        } else {
                            StallReason::WaitcntLgkm
                        };
                    }
                    wave.next_ready = ready;
                    continue;
                }
            }

            // Scoreboard: stall on pending writes to our sources.
            let pending = &self.pending[wi];
            if !pending.is_empty() {
                let mut dep_ready = 0u64;
                for key in self.table.keys(e.reads) {
                    if let Some(&(_, t)) = pending.iter().find(|(k, _)| k == key) {
                        dep_ready = dep_ready.max(t);
                    }
                }
                if dep_ready > self.now {
                    let wave = &mut self.waves[wi];
                    if metrics {
                        wave.charge_stalls(&mut self.stall_acc, self.now);
                    }
                    wave.next_ready = dep_ready;
                    wave.wait_reason = StallReason::ScoreboardRaw;
                    continue;
                }
            }

            // Structural hazard: need a free unit instance.
            let slot: Option<usize> = match unit {
                FuncUnit::Salu => (self.fus.salu_busy <= self.now).then_some(0),
                FuncUnit::Lsu => (self.fus.lsu_busy <= self.now).then_some(0),
                FuncUnit::Branch => Some(0),
                FuncUnit::Simd => self.fus.simd_busy.iter().position(|&b| b <= self.now),
                FuncUnit::Simf => self.fus.simf_busy.iter().position(|&b| b <= self.now),
            };
            let Some(slot) = slot else { continue };

            // ---- issue ----
            class_used[class] = true;
            issued_any = true;
            self.rr = (wi + 1) % n;
            if let Some(tr) = &mut self.trace {
                tr.issued_now.push(wi);
            }
            if metrics {
                // Close the wave's account before its state moves; the
                // issue cycle itself is not a stall.
                let wave = &mut self.waves[wi];
                wave.charge_stalls(&mut self.stall_acc, self.now);
                wave.acct = self.now + 1;
            }
            let occupancy = e.occupancy;
            match unit {
                FuncUnit::Salu => self.fus.salu_busy = self.now + 1,
                FuncUnit::Lsu => self.fus.lsu_busy = self.now + 1,
                FuncUnit::Branch => {}
                FuncUnit::Simd => self.fus.simd_busy[slot] = self.now + occupancy,
                FuncUnit::Simf => self.fus.simf_busy[slot] = self.now + occupancy,
            }
            self.counters.record_busy(unit, occupancy);

            let next_pc = pc + e.size_words;
            let lds_ptr = self.waves[wi].workgroup;
            let wave = &mut self.waves[wi];
            let lanes = wave.active_lanes();
            let outcome = execute(
                &e.inst,
                next_pc,
                wave,
                &mut self.workgroups[lds_ptr].lds,
                mem,
            )?;
            wave.retired += 1;
            self.counters
                .record_issue(op, if e.per_lane { u64::from(lanes) } else { 1 });
            if self.config.profile {
                if self.pc_counts.len() <= pc {
                    self.pc_counts.resize(pc + 1, 0);
                }
                self.pc_counts[pc] += 1;
            }

            // Result latency for the scoreboard.
            let done_at = self.now + e.latency;
            let now = self.now;
            let pending = &mut self.pending[wi];
            pending.retain(|&(_, t)| t > now);
            for &key in self.table.keys(e.writes) {
                set_pending(pending, key, done_at);
            }

            // Fetch/decode cost for the following instruction.
            let decode = (e.size_words as u64).max(1);
            self.waves[wi].next_ready = self.now + decode;
            self.waves[wi].wait_reason = StallReason::FetchStarve;

            // Memory events feed the waitcnt counters.
            let mut mem_trace: Option<(&'static str, u64, u32, u64)> = None;
            match outcome.mem {
                Some(MemEvent::Scalar { addr }) => {
                    let t = mem.access(
                        crate::AccessKind::ScalarLoad,
                        addr,
                        1,
                        self.now + self.config.latencies.lsu_addr,
                    );
                    self.waves[wi].lgkm_events.push(t);
                    self.stats.scalar_mem_ops += 1;
                    mem_trace = Some(("ScalarLoad", addr, 1, t));
                }
                // A fully masked-off vector access issues no memory request
                // at all (the LSU sees an empty lane set).
                Some(MemEvent::Vector { lanes: 0, .. }) => {}
                Some(MemEvent::Vector { kind, addr, lanes }) => {
                    let t =
                        mem.access(kind, addr, lanes, self.now + self.config.latencies.lsu_addr);
                    self.waves[wi].vm_events.push(t);
                    self.stats.vector_mem_ops += 1;
                    let label = match kind {
                        crate::AccessKind::ScalarLoad => "ScalarLoad",
                        crate::AccessKind::VectorLoad => "VectorLoad",
                        crate::AccessKind::VectorStore => "VectorStore",
                    };
                    mem_trace = Some((label, addr, lanes, t));
                }
                Some(MemEvent::Lds) => {
                    let t = self.now + 2;
                    self.waves[wi].lgkm_events.push(t);
                    self.stats.lds_ops += 1;
                    mem_trace = Some(("Lds", 0, lanes, t));
                }
                None => {}
            }
            self.waves[wi].retire_mem_events(self.now);

            // Fault injection fires after the instruction's architectural
            // effects apply, keyed on the CU's cumulative issue index so a
            // campaign reproduces identically under any host scheduling.
            if let Some(fs) = &mut self.fault {
                fs.issued += 1;
                fs.hook.post_issue(
                    self.now,
                    fs.issued,
                    &mut self.waves[wi],
                    &mut self.workgroups[lds_ptr].lds,
                );
            }

            if emit {
                if let Some(tr) = &mut self.trace {
                    let cu = tr.id;
                    let wave = wi as u32;
                    let pc = pc as u32;
                    let now = self.now;
                    tr.emit(&TraceEvent::Fetch { cu, wave, pc, now });
                    tr.emit(&TraceEvent::Decode {
                        cu,
                        wave,
                        pc,
                        now,
                        cycles: decode,
                    });
                    tr.emit(&TraceEvent::Issue {
                        cu,
                        wave,
                        pc,
                        opcode: op,
                        unit,
                        now,
                    });
                    tr.emit(&TraceEvent::Execute {
                        cu,
                        wave,
                        pc,
                        opcode: op,
                        unit,
                        start: now,
                        end: now + occupancy,
                    });
                    tr.emit(&TraceEvent::Writeback {
                        cu,
                        wave,
                        pc,
                        now: done_at,
                    });
                    if let Some((kind, addr, lanes, done)) = mem_trace {
                        tr.emit(&TraceEvent::MemStart {
                            cu,
                            wave,
                            pc,
                            kind: kind.to_owned(),
                            addr,
                            lanes,
                            now,
                        });
                        tr.emit(&TraceEvent::MemComplete {
                            cu,
                            wave,
                            kind: kind.to_owned(),
                            addr,
                            now: done,
                        });
                    }
                }
            }

            // Control flow.
            if outcome.end {
                self.waves[wi].state = WaveState::Done;
                self.live -= 1;
                self.stats.wavefronts_retired += 1;
                if emit {
                    let instructions = self.waves[wi].retired;
                    if let Some(tr) = &mut self.trace {
                        tr.emit(&TraceEvent::Retire {
                            cu: tr.id,
                            wave: wi as u32,
                            now: self.now + 1,
                            instructions,
                        });
                    }
                }
            } else if let Some(target) = outcome.new_pc {
                self.waves[wi].pc = target;
                self.waves[wi].next_ready = self.now + self.config.latencies.branch_taken;
                self.stats.branches_taken += 1;
            } else {
                self.waves[wi].pc = next_pc;
            }

            if outcome.barrier {
                self.stats.barriers += 1;
                let wg = self.waves[wi].workgroup;
                self.waves[wi].state = WaveState::AtBarrier;
                self.workgroups[wg].arrived += 1;
                if emit {
                    if let Some(tr) = &mut self.trace {
                        tr.emit(&TraceEvent::BarrierArrive {
                            cu: tr.id,
                            wave: wi as u32,
                            workgroup: wg as u32,
                            now: self.now,
                        });
                    }
                }
                if self.workgroups[wg].arrived == self.workgroups[wg].waves.len() {
                    self.workgroups[wg].arrived = 0;
                    let release = self.now + 1;
                    for &widx in &self.workgroups[wg].waves {
                        let wave = &mut self.waves[widx];
                        if wave.state == WaveState::AtBarrier {
                            if metrics {
                                wave.charge_stalls(&mut self.stall_acc, self.now);
                            }
                            wave.state = WaveState::Ready;
                            if release > wave.next_ready {
                                wave.next_ready = release;
                                wave.wait_reason = StallReason::Barrier;
                            }
                        }
                    }
                    if emit {
                        if let Some(tr) = &mut self.trace {
                            tr.emit(&TraceEvent::BarrierRelease {
                                cu: tr.id,
                                workgroup: wg as u32,
                                now: release,
                            });
                        }
                    }
                }
            }
        }
        Ok(issued_any)
    }

    /// Earliest future time at which anything could change.
    fn next_event(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > self.now {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        };
        for (wi, w) in self.waves.iter().enumerate() {
            if w.state != WaveState::Ready {
                continue;
            }
            consider(w.next_ready);
            for &t in &w.vm_events {
                consider(t);
            }
            for &t in &w.lgkm_events {
                consider(t);
            }
            for &(_, t) in &self.pending[wi] {
                consider(t);
            }
        }
        consider(self.fus.salu_busy);
        consider(self.fus.lsu_busy);
        for &t in &self.fus.simd_busy {
            consider(t);
        }
        for &t in &self.fus.simf_busy {
            consider(t);
        }
        best
    }

    /// Capture the CU's full architectural state at the current
    /// instruction boundary (i.e. between [`ComputeUnit::run_until`]
    /// calls). The snapshot plus the same [`CuConfig`] and kernel is
    /// sufficient for [`ComputeUnit::restore`] to continue the run
    /// bit-identically — same outputs, same cycle counts.
    #[must_use]
    pub fn snapshot(&self) -> CuSnapshot {
        let waves = self
            .waves
            .iter()
            .zip(&self.pending)
            .map(|(w, pend)| {
                let mut pending: Vec<(u32, u64)> =
                    pend.iter().map(|&(k, t)| (k.code(), t)).collect();
                pending.sort_unstable();
                WaveSnapshot {
                    id: w.id as u64,
                    workgroup: w.workgroup as u64,
                    pc: w.pc as u64,
                    exec: w.exec,
                    vcc: w.vcc,
                    scc: w.scc,
                    m0: w.m0,
                    sgprs: w.sgprs_raw().to_vec(),
                    vgprs: w.vgprs_raw().iter().map(|row| row.to_vec()).collect(),
                    next_ready: w.next_ready,
                    wait_reason: stall_code(w.wait_reason),
                    vm_events: w.vm_events.clone(),
                    lgkm_events: w.lgkm_events.clone(),
                    state: match w.state {
                        WaveState::Ready => 0,
                        WaveState::AtBarrier => 1,
                        WaveState::Done => 2,
                    },
                    retired: w.retired,
                    pending,
                }
            })
            .collect();
        CuSnapshot {
            now: self.now,
            rr: self.rr as u64,
            run_start: self.run_start,
            waves,
            workgroups: self
                .workgroups
                .iter()
                .map(|wg| WorkgroupSnapshot {
                    lds: wg.lds.clone(),
                    waves: wg.waves.iter().map(|&i| i as u64).collect(),
                    arrived: wg.arrived as u64,
                })
                .collect(),
            salu_busy: self.fus.salu_busy,
            lsu_busy: self.fus.lsu_busy,
            simd_busy: self.fus.simd_busy.clone(),
            simf_busy: self.fus.simf_busy.clone(),
            stall_acc: self.stall_acc.to_vec(),
            stats: self.stats.to_sval(),
            pc_counts: self.pc_counts.clone(),
        }
    }

    /// Rebuild a CU from a snapshot taken by [`ComputeUnit::snapshot`],
    /// given the same configuration and kernel the snapshotted CU ran.
    /// Tracing and fault hooks are *not* part of a snapshot; reattach them
    /// afterwards if needed.
    ///
    /// # Errors
    ///
    /// [`CuError::Snapshot`] when the snapshot does not fit `config` or
    /// the kernel's register/unit budgets, plus any kernel decode error.
    pub fn restore(
        config: CuConfig,
        kernel: &Kernel,
        snap: &CuSnapshot,
    ) -> Result<ComputeUnit, CuError> {
        let bad = |reason: &str| CuError::Snapshot {
            reason: reason.to_owned(),
        };
        let mut cu = ComputeUnit::new(config, kernel)?;
        if snap.simd_busy.len() != cu.fus.simd_busy.len()
            || snap.simf_busy.len() != cu.fus.simf_busy.len()
        {
            return Err(bad("vector-unit count differs from the configuration"));
        }
        if snap.stall_acc.len() != cu.stall_acc.len() {
            return Err(bad("stall-accumulator table size mismatch"));
        }
        cu.now = snap.now;
        cu.rr = usize::try_from(snap.rr).map_err(|_| bad("rr out of range"))?;
        cu.run_start = snap.run_start;
        cu.fus.salu_busy = snap.salu_busy;
        cu.fus.lsu_busy = snap.lsu_busy;
        cu.fus.simd_busy.copy_from_slice(&snap.simd_busy);
        cu.fus.simf_busy.copy_from_slice(&snap.simf_busy);
        cu.stall_acc.copy_from_slice(&snap.stall_acc);
        cu.stats = CuStats::from_sval(&snap.stats)
            .map_err(|e| bad(&format!("stats do not decode: {}", e.0)))?;
        cu.pc_counts = snap.pc_counts.clone();
        for wgs in &snap.workgroups {
            cu.workgroups.push(Workgroup {
                lds: wgs.lds.clone(),
                waves: wgs
                    .waves
                    .iter()
                    .map(|&i| usize::try_from(i).map_err(|_| bad("wave index out of range")))
                    .collect::<Result<_, _>>()?,
                arrived: usize::try_from(wgs.arrived).map_err(|_| bad("arrived out of range"))?,
            });
        }
        for ws in &snap.waves {
            let workgroup =
                usize::try_from(ws.workgroup).map_err(|_| bad("workgroup out of range"))?;
            if workgroup >= cu.workgroups.len() {
                return Err(bad("wave references a missing workgroup"));
            }
            let mut w = Wavefront::new(
                usize::try_from(ws.id).map_err(|_| bad("wave id out of range"))?,
                workgroup,
                usize::from(cu.meta.sgprs),
                usize::from(cu.meta.vgprs),
            );
            if ws.sgprs.len() != w.sgpr_count() || ws.vgprs.len() != w.vgpr_count() {
                return Err(bad("register-file shape differs from the kernel budgets"));
            }
            w.pc = usize::try_from(ws.pc).map_err(|_| bad("pc out of range"))?;
            w.exec = ws.exec;
            w.vcc = ws.vcc;
            w.scc = ws.scc;
            w.m0 = ws.m0;
            w.sgprs_mut().copy_from_slice(&ws.sgprs);
            for (row, src) in w.vgprs_mut().iter_mut().zip(&ws.vgprs) {
                if src.len() != WAVEFRONT_SIZE {
                    return Err(bad("vgpr row is not wavefront-sized"));
                }
                row.copy_from_slice(src);
            }
            w.next_ready = ws.next_ready;
            w.wait_reason = *StallReason::ALL
                .get(usize::from(ws.wait_reason))
                .ok_or_else(|| bad("unknown stall reason"))?;
            w.vm_events = ws.vm_events.clone();
            w.lgkm_events = ws.lgkm_events.clone();
            w.state = match ws.state {
                0 => WaveState::Ready,
                1 => WaveState::AtBarrier,
                2 => WaveState::Done,
                _ => return Err(bad("unknown wave state")),
            };
            w.retired = ws.retired;
            let mut pending = Pending::with_capacity(ws.pending.len());
            for &(code, t) in &ws.pending {
                let key = Reg::from_code(code).ok_or_else(|| bad("unknown register key"))?;
                set_pending(&mut pending, key, t);
            }
            cu.waves.push(w);
            cu.pending.push(pending);
        }
        Ok(cu)
    }
}

/// Stable snapshot code for a stall reason (its index in
/// [`StallReason::ALL`]).
fn stall_code(reason: StallReason) -> u8 {
    StallReason::ALL
        .iter()
        .position(|&r| r == reason)
        .unwrap_or(0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::FixedLatencyMemory;
    use crate::TrimSet;
    use scratch_asm::KernelBuilder;
    use scratch_isa::{Opcode, Operand};

    /// v1 = v0 * 3 + 7 elementwise, no memory.
    fn alu_kernel() -> Kernel {
        let mut b = KernelBuilder::new("alu");
        b.vgprs(4).sgprs(8);
        b.vop3a(
            Opcode::VMulLoI32,
            1,
            Operand::Vgpr(0),
            Operand::IntConst(3),
            None,
        )
        .unwrap();
        b.vop2(Opcode::VAddI32, 1, Operand::IntConst(7), 1).unwrap();
        b.endpgm().unwrap();
        b.finish().unwrap()
    }

    fn tid_init(workgroup: usize) -> WaveInit {
        WaveInit {
            workgroup,
            exec: u64::MAX,
            sgprs: vec![],
            vgprs: vec![(0, (0..64).collect())],
        }
    }

    #[test]
    fn single_wave_alu_results() {
        let kernel = alu_kernel();
        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = cu.add_workgroup();
        let w = cu.start_wave(tid_init(wg)).unwrap();
        let mut mem = FixedLatencyMemory::new(0, 0);
        let cycles = cu.run_to_completion(&mut mem).unwrap();
        assert!(cycles > 0);
        for lane in 0..64 {
            assert_eq!(cu.wave(w).vgpr(1, lane).unwrap(), lane as u32 * 3 + 7);
        }
        assert_eq!(cu.stats().wavefronts_retired, 1);
        assert_eq!(cu.stats().instructions, 3);
    }

    #[test]
    fn dependent_chain_slower_than_independent() {
        // Dependent: v1 = v0+1; v2 = v1+1; v3 = v2+1 (RAW chain).
        let mut b = KernelBuilder::new("dep");
        b.vgprs(8);
        b.vop2(Opcode::VAddI32, 1, Operand::IntConst(1), 0).unwrap();
        b.vop2(Opcode::VAddI32, 2, Operand::IntConst(1), 1).unwrap();
        b.vop2(Opcode::VAddI32, 3, Operand::IntConst(1), 2).unwrap();
        b.endpgm().unwrap();
        let dep = b.finish().unwrap();

        // Independent: v1 = v0+1; v2 = v0+1; v3 = v0+1.
        let mut b = KernelBuilder::new("indep");
        b.vgprs(8);
        for d in 1..=3 {
            b.vop2(Opcode::VAddI32, d, Operand::IntConst(1), 0).unwrap();
        }
        b.endpgm().unwrap();
        let indep = b.finish().unwrap();

        let run = |k: &Kernel| {
            let mut cu = ComputeUnit::new(
                CuConfig {
                    int_valus: 4,
                    ..CuConfig::default()
                },
                k,
            )
            .unwrap();
            let wg = cu.add_workgroup();
            cu.start_wave(tid_init(wg)).unwrap();
            let mut mem = FixedLatencyMemory::new(0, 0);
            cu.run_to_completion(&mut mem).unwrap()
        };
        assert!(
            run(&dep) > run(&indep),
            "RAW chain must be slower than independent ops"
        );
    }

    #[test]
    fn multiple_valus_speed_up_many_waves() {
        let kernel = alu_kernel();
        let run = |valus: u8| {
            let mut cu = ComputeUnit::new(
                CuConfig {
                    int_valus: valus,
                    ..CuConfig::default()
                },
                &kernel,
            )
            .unwrap();
            let wg = cu.add_workgroup();
            for _ in 0..16 {
                cu.start_wave(tid_init(wg)).unwrap();
            }
            let mut mem = FixedLatencyMemory::new(0, 0);
            cu.run_to_completion(&mut mem).unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four * 2 < one,
            "4 VALUs ({four} cy) should be >2x faster than 1 ({one} cy)"
        );
    }

    #[test]
    fn waitcnt_charges_memory_latency() {
        // load -> waitcnt -> endpgm with big latency vs small latency.
        let mut b = KernelBuilder::new("mem");
        b.vgprs(4).sgprs(8);
        b.mubuf(Opcode::BufferLoadDword, 1, 0, 4, Operand::IntConst(0), 0)
            .unwrap();
        b.waitcnt(Some(0), None).unwrap();
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();

        let run = |latency: u64| {
            let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
            let wg = cu.add_workgroup();
            cu.start_wave(WaveInit {
                workgroup: wg,
                exec: u64::MAX,
                sgprs: vec![(4, 0), (5, 0), (6, 0)],
                vgprs: vec![(0, (0..64).map(|l| l * 4).collect())],
            })
            .unwrap();
            let mut mem = FixedLatencyMemory::new(1024, latency);
            cu.run_to_completion(&mut mem).unwrap()
        };
        let slow = run(500);
        let fast = run(5);
        assert!(slow > fast + 400, "slow={slow} fast={fast}");
    }

    #[test]
    fn barrier_synchronises_workgroup() {
        // Each wave: atomically add 1 to LDS[0], barrier, read LDS[0].
        let mut b = KernelBuilder::new("bar");
        b.vgprs(4).sgprs(4).lds_bytes(16);
        b.vop1(Opcode::VMovB32, 1, Operand::IntConst(0)).unwrap(); // addr
        b.vop1(Opcode::VMovB32, 2, Operand::IntConst(1)).unwrap(); // data
        b.ds_write(Opcode::DsAddU32, 1, 2, 0).unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.sopp(Opcode::SBarrier, 0).unwrap();
        b.ds_read(Opcode::DsReadB32, 3, 1, 0).unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();

        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = cu.add_workgroup();
        let mut ids = Vec::new();
        for _ in 0..4 {
            // Single active lane per wave so the atomic adds 1 per wave.
            ids.push(
                cu.start_wave(WaveInit {
                    workgroup: wg,
                    exec: 1,
                    sgprs: vec![],
                    vgprs: vec![],
                })
                .unwrap(),
            );
        }
        let mut mem = FixedLatencyMemory::new(0, 0);
        cu.run_to_completion(&mut mem).unwrap();
        for &w in &ids {
            assert_eq!(
                cu.wave(w).vgpr(3, 0).unwrap(),
                4,
                "every wave must observe all 4 atomic adds after the barrier"
            );
        }
        assert_eq!(cu.stats().barriers, 4);
    }

    #[test]
    fn trimmed_instruction_is_fatal() {
        let kernel = alu_kernel();
        let mut trim = TrimSet::empty();
        trim.insert(Opcode::VAddI32);
        trim.insert(Opcode::SEndpgm);
        // v_mul_lo_i32 missing.
        let mut cu = ComputeUnit::new(
            CuConfig {
                trim: Some(trim),
                ..CuConfig::default()
            },
            &kernel,
        )
        .unwrap();
        let wg = cu.add_workgroup();
        cu.start_wave(tid_init(wg)).unwrap();
        let mut mem = FixedLatencyMemory::new(0, 0);
        let err = cu.run_to_completion(&mut mem).unwrap_err();
        assert_eq!(
            err,
            CuError::Trimmed {
                opcode: Opcode::VMulLoI32
            }
        );
    }

    #[test]
    fn missing_simf_is_fatal() {
        let mut b = KernelBuilder::new("fp");
        b.vgprs(4);
        b.vop2(Opcode::VAddF32, 1, Operand::FloatConst(1.0), 0)
            .unwrap();
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();
        let mut cu = ComputeUnit::new(
            CuConfig {
                fp_valus: 0,
                ..CuConfig::default()
            },
            &kernel,
        )
        .unwrap();
        let wg = cu.add_workgroup();
        cu.start_wave(tid_init(wg)).unwrap();
        let mut mem = FixedLatencyMemory::new(0, 0);
        let err = cu.run_to_completion(&mut mem).unwrap_err();
        assert!(matches!(err, CuError::MissingUnit { .. }));
    }

    #[test]
    fn too_many_wavefronts_rejected() {
        let kernel = alu_kernel();
        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = cu.add_workgroup();
        for _ in 0..40 {
            cu.start_wave(tid_init(wg)).unwrap();
        }
        assert_eq!(
            cu.start_wave(tid_init(wg)).unwrap_err(),
            CuError::TooManyWavefronts
        );
    }

    #[test]
    fn loop_kernel_terminates_with_correct_count() {
        // s0 = 10; loop { s0 -= 1 } until s0 == 0.
        let mut b = KernelBuilder::new("loop");
        b.sgprs(4).vgprs(1);
        let top = b.new_label();
        b.sopk(Opcode::SMovkI32, Operand::Sgpr(0), 10).unwrap();
        b.sopk(Opcode::SMovkI32, Operand::Sgpr(1), 0).unwrap();
        b.bind(top).unwrap();
        b.sop2(
            Opcode::SAddI32,
            Operand::Sgpr(1),
            Operand::Sgpr(1),
            Operand::IntConst(1),
        )
        .unwrap();
        b.sop2(
            Opcode::SSubI32,
            Operand::Sgpr(0),
            Operand::Sgpr(0),
            Operand::IntConst(1),
        )
        .unwrap();
        b.sopc(Opcode::SCmpLgI32, Operand::Sgpr(0), Operand::IntConst(0))
            .unwrap();
        b.branch(Opcode::SCbranchScc1, top);
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();

        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = cu.add_workgroup();
        let w = cu.start_wave(tid_init(wg)).unwrap();
        let mut mem = FixedLatencyMemory::new(0, 0);
        cu.run_to_completion(&mut mem).unwrap();
        assert_eq!(cu.wave(w).sgpr(1).unwrap(), 10);
        assert_eq!(cu.wave(w).sgpr(0).unwrap(), 0);
        assert_eq!(cu.stats().branches_taken, 9);
    }

    #[test]
    fn preempted_run_with_snapshots_is_bit_identical() {
        // Uninterrupted reference.
        let kernel = alu_kernel();
        let mut reference = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = reference.add_workgroup();
        for _ in 0..4 {
            reference.start_wave(tid_init(wg)).unwrap();
        }
        let mut mem = FixedLatencyMemory::new(0, 0);
        let ref_cycles = reference.run_to_completion(&mut mem).unwrap();

        // Same run, preempted every cycle with a snapshot/restore (and a
        // binary serde round trip) between quanta.
        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let wg = cu.add_workgroup();
        for _ in 0..4 {
            cu.start_wave(tid_init(wg)).unwrap();
        }
        let mut mem = FixedLatencyMemory::new(0, 0);
        let mut pauses = 0;
        let cycles = loop {
            match cu.run_until(&mut mem, 1).unwrap() {
                RunStatus::Done(cycles) => break cycles,
                RunStatus::Paused => {
                    pauses += 1;
                    let bytes = scratch_snap::to_bytes(&cu.snapshot());
                    let snap: CuSnapshot = scratch_snap::from_bytes(&bytes).unwrap();
                    cu = ComputeUnit::restore(CuConfig::default(), &kernel, &snap).unwrap();
                }
            }
        };
        assert!(pauses > 1, "budget of 1 cycle must actually preempt");
        assert_eq!(cycles, ref_cycles);
        assert_eq!(cu.now(), reference.now());
        assert_eq!(cu.stats(), reference.stats());
        for w in 0..4 {
            for lane in 0..64 {
                assert_eq!(
                    cu.wave(w).vgpr(1, lane).unwrap(),
                    reference.wave(w).vgpr(1, lane).unwrap()
                );
            }
        }
    }

    /// Stall cycles are charged lazily, but at every pause the accounts
    /// are settled: each wave-cycle since the run began is either an
    /// issue or a charged stall, and a snapshot/restore between quanta
    /// changes nothing.
    #[test]
    fn stall_accounts_are_settled_at_every_pause() {
        let mut b = KernelBuilder::new("bar_mem");
        b.vgprs(4).sgprs(8).lds_bytes(16);
        b.vop1(Opcode::VMovB32, 1, Operand::IntConst(0)).unwrap();
        b.vop1(Opcode::VMovB32, 2, Operand::IntConst(1)).unwrap();
        b.ds_write(Opcode::DsAddU32, 1, 2, 0).unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.sopp(Opcode::SBarrier, 0).unwrap();
        b.vop3a(
            Opcode::VMulLoI32,
            3,
            Operand::Vgpr(2),
            Operand::IntConst(3),
            None,
        )
        .unwrap();
        b.vop2(Opcode::VAddI32, 3, Operand::IntConst(7), 3).unwrap();
        b.ds_read(Opcode::DsReadB32, 3, 1, 0).unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.endpgm().unwrap();
        let kernel = b.finish().unwrap();
        let start = |cu: &mut ComputeUnit| {
            for _ in 0..2 {
                let wg = cu.add_workgroup();
                for _ in 0..4 {
                    cu.start_wave(tid_init(wg)).unwrap();
                }
            }
        };
        let waves = 8;

        let mut reference = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        start(&mut reference);
        let mut mem = FixedLatencyMemory::new(0, 0);
        reference.run_to_completion(&mut mem).unwrap();

        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        start(&mut cu);
        let mut mem = FixedLatencyMemory::new(0, 0);
        let mut pauses = 0;
        while cu.run_until(&mut mem, 3).unwrap() == RunStatus::Paused {
            pauses += 1;
            let snap = cu.snapshot();
            let charged: u64 = snap.stall_acc.iter().sum();
            assert_eq!(
                charged + cu.stats().instructions,
                waves * cu.now(),
                "wave-cycles not tiled at cycle {}",
                cu.now()
            );
            cu = ComputeUnit::restore(CuConfig::default(), &kernel, &snap).unwrap();
        }
        assert!(pauses > 3);
        assert_eq!(cu.stats(), reference.stats());
        assert!(cu.stats().stall_total() > 0);
    }

    #[test]
    fn cycle_limit_spans_pauses() {
        let kernel = alu_kernel();
        let config = CuConfig {
            cycle_limit: 4,
            ..CuConfig::default()
        };
        let mut cu = ComputeUnit::new(config, &kernel).unwrap();
        let wg = cu.add_workgroup();
        for _ in 0..16 {
            cu.start_wave(tid_init(wg)).unwrap();
        }
        let mut mem = FixedLatencyMemory::new(0, 0);
        let mut steps = 0;
        let err = loop {
            match cu.run_until(&mut mem, 1) {
                Ok(RunStatus::Paused) => steps += 1,
                Ok(RunStatus::Done(_)) => panic!("16 waves cannot finish in 4 cycles"),
                Err(e) => break e,
            }
            assert!(steps < 100, "cycle limit never tripped");
        };
        assert_eq!(err, CuError::CycleLimit { limit: 4 });
    }

    #[test]
    fn batches_accumulate_cycles() {
        let kernel = alu_kernel();
        let mut cu = ComputeUnit::new(CuConfig::default(), &kernel).unwrap();
        let mut mem = FixedLatencyMemory::new(0, 0);
        let wg = cu.add_workgroup();
        cu.start_wave(tid_init(wg)).unwrap();
        let c1 = cu.run_to_completion(&mut mem).unwrap();
        cu.clear_waves();
        let wg = cu.add_workgroup();
        cu.start_wave(tid_init(wg)).unwrap();
        let c2 = cu.run_to_completion(&mut mem).unwrap();
        assert_eq!(cu.now(), c1 + c2);
    }
}
