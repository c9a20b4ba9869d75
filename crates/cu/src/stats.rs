//! Execution statistics collected by the compute unit.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use scratch_isa::{Category, DataType, FuncUnit, Opcode};
use scratch_trace::StallReason;

/// Dynamic per-opcode execution counts.
pub type OpcodeHistogram = BTreeMap<Opcode, u64>;

/// Number of opcodes, the length of [`IssueCounters`]' per-opcode table.
const OPCODES: usize = Opcode::ALL.len();

/// Counters accumulated while a compute unit runs.
///
/// These drive the paper's Fig. 4 characterisation (per-category instruction
/// mixes), the energy model (instructions-per-Joule needs retired
/// instructions) and utilisation sanity checks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CuStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Dynamic instructions issued (wavefront granularity).
    pub instructions: u64,
    /// Work-item level operations (instructions × active lanes for vector
    /// ops, ×1 for scalar).
    pub work_item_ops: u64,
    /// Dynamic histogram by opcode.
    pub histogram: OpcodeHistogram,
    /// Busy cycles per functional-unit class (occupancy, summed over
    /// instances).
    pub fu_busy: BTreeMap<FuncUnit, u64>,
    /// Taken branches.
    pub branches_taken: u64,
    /// Vector memory requests issued.
    pub vector_mem_ops: u64,
    /// Scalar memory requests issued.
    pub scalar_mem_ops: u64,
    /// LDS accesses issued.
    pub lds_ops: u64,
    /// Barriers executed (per wavefront arrival).
    pub barriers: u64,
    /// Wavefronts that ran to `s_endpgm`.
    pub wavefronts_retired: u64,
    /// Wavefront-cycles that did not issue, by reason — the cheap
    /// always-on aggregate of the trace crate's stall taxonomy. Collected
    /// whenever [`CuConfig::metrics`](crate::CuConfig) is on (the
    /// default); empty otherwise. Unlike a full trace this keeps no
    /// per-wave timeline, just totals.
    pub stall_cycles: BTreeMap<StallReason, u64>,
}

impl CuStats {
    /// Record the issue of `opcode` with `lanes` active lanes.
    ///
    /// Exposed so analyses can build synthetic statistics; the compute unit
    /// calls this internally for every issued instruction.
    pub fn record_issue(&mut self, opcode: Opcode, lanes: u32) {
        self.instructions += 1;
        *self.histogram.entry(opcode).or_default() += 1;
        self.work_item_ops += if opcode.is_vector_alu() || opcode.is_vector_memory() {
            u64::from(lanes)
        } else {
            1
        };
    }

    /// Record `cycles` of busy time on `unit`.
    pub(crate) fn record_busy(&mut self, unit: FuncUnit, cycles: u64) {
        *self.fu_busy.entry(unit).or_default() += cycles;
    }

    /// Merge another stats block into this one (used when aggregating CUs).
    pub fn merge(&mut self, other: &CuStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.instructions += other.instructions;
        self.work_item_ops += other.work_item_ops;
        for (&op, &n) in &other.histogram {
            *self.histogram.entry(op).or_default() += n;
        }
        for (&u, &n) in &other.fu_busy {
            *self.fu_busy.entry(u).or_default() += n;
        }
        self.branches_taken += other.branches_taken;
        self.vector_mem_ops += other.vector_mem_ops;
        self.scalar_mem_ops += other.scalar_mem_ops;
        self.lds_ops += other.lds_ops;
        self.barriers += other.barriers;
        self.wavefronts_retired += other.wavefronts_retired;
        for (&r, &n) in &other.stall_cycles {
            *self.stall_cycles.entry(r).or_default() += n;
        }
    }

    /// Instructions per cycle (wavefront granularity); zero before any
    /// cycle has been simulated.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Memory operations (vector + scalar) per cycle.
    #[must_use]
    pub fn mem_ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.vector_mem_ops + self.scalar_mem_ops) as f64 / self.cycles as f64
        }
    }

    /// Total stalled wavefront-cycles across every reason.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stall_cycles.values().sum()
    }

    /// Dynamic instruction counts grouped by `(unit, category, data type)`.
    #[must_use]
    pub fn mix(&self) -> BTreeMap<(FuncUnit, Category, DataType), u64> {
        let mut out = BTreeMap::new();
        for (&op, &n) in &self.histogram {
            *out.entry((op.unit(), op.category(), op.data_type()))
                .or_default() += n;
        }
        out
    }

    /// Dynamic instructions executed on `unit`.
    #[must_use]
    pub fn unit_instructions(&self, unit: FuncUnit) -> u64 {
        self.histogram
            .iter()
            .filter(|(op, _)| op.unit() == unit)
            .map(|(_, &n)| n)
            .sum()
    }

    /// The set of distinct opcodes that were actually executed.
    #[must_use]
    pub fn executed_opcodes(&self) -> Vec<Opcode> {
        self.histogram.keys().copied().collect()
    }
}

/// Allocation-free counters the compute unit bumps on every issue, in
/// place of [`CuStats::record_issue`]/`record_busy`'s map updates. Indexed
/// by `Opcode as usize` and `FuncUnit as usize`; folded into a
/// [`CuStats`] whenever a run returns, which leaves the maps exactly as
/// per-issue recording would have.
#[derive(Debug, Clone)]
pub(crate) struct IssueCounters {
    instructions: u64,
    work_item_ops: u64,
    ops: [u64; OPCODES],
    busy: [u64; FuncUnit::ALL.len()],
}

impl Default for IssueCounters {
    fn default() -> IssueCounters {
        IssueCounters {
            instructions: 0,
            work_item_ops: 0,
            ops: [0; OPCODES],
            busy: [0; FuncUnit::ALL.len()],
        }
    }
}

impl IssueCounters {
    /// Count one issue of `opcode` covering `work_items` work-item
    /// operations (see [`CuStats::work_item_ops`]).
    pub(crate) fn record_issue(&mut self, opcode: Opcode, work_items: u64) {
        self.instructions += 1;
        self.work_item_ops += work_items;
        self.ops[opcode as usize] += 1;
    }

    /// Count `cycles` of busy time on `unit`.
    pub(crate) fn record_busy(&mut self, unit: FuncUnit, cycles: u64) {
        self.busy[unit as usize] += cycles;
    }

    /// Add everything counted so far to `stats` and reset to zero.
    pub(crate) fn fold_into(&mut self, stats: &mut CuStats) {
        stats.instructions += std::mem::take(&mut self.instructions);
        stats.work_item_ops += std::mem::take(&mut self.work_item_ops);
        for (&op, n) in Opcode::ALL.iter().zip(&mut self.ops) {
            if *n > 0 {
                *stats.histogram.entry(op).or_default() += std::mem::take(n);
            }
        }
        for (&unit, n) in FuncUnit::ALL.iter().zip(&mut self.busy) {
            if *n > 0 {
                stats.record_busy(unit, std::mem::take(n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_recording_distinguishes_lanes() {
        let mut s = CuStats::default();
        s.record_issue(Opcode::SAddU32, 64);
        s.record_issue(Opcode::VAddI32, 48);
        assert_eq!(s.instructions, 2);
        assert_eq!(s.work_item_ops, 1 + 48);
        assert_eq!(s.unit_instructions(FuncUnit::Salu), 1);
        assert_eq!(s.unit_instructions(FuncUnit::Simd), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CuStats::default();
        a.record_issue(Opcode::VAddF32, 64);
        a.cycles = 100;
        let mut b = CuStats::default();
        b.record_issue(Opcode::VAddF32, 64);
        b.cycles = 150;
        a.merge(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.histogram[&Opcode::VAddF32], 2);
    }

    #[test]
    fn merge_is_associative_and_histogram_preserving() {
        // Three distinct per-CU stats blocks.
        let mut a = CuStats::default();
        a.record_issue(Opcode::VAddI32, 64);
        a.record_issue(Opcode::SAddU32, 64);
        a.record_busy(FuncUnit::Simd, 4);
        a.cycles = 120;
        a.branches_taken = 3;
        a.stall_cycles.insert(StallReason::FetchStarve, 10);
        let mut b = CuStats::default();
        b.record_issue(Opcode::VAddI32, 32);
        b.record_busy(FuncUnit::Simd, 8);
        b.record_busy(FuncUnit::Salu, 1);
        b.cycles = 90;
        b.vector_mem_ops = 7;
        b.stall_cycles.insert(StallReason::FetchStarve, 5);
        b.stall_cycles.insert(StallReason::Barrier, 2);
        let mut c = CuStats::default();
        c.record_issue(Opcode::VMulF32, 16);
        c.record_busy(FuncUnit::Simf, 40);
        c.cycles = 200;
        c.wavefronts_retired = 5;

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // The merged histogram preserves every per-opcode count.
        assert_eq!(ab_c.histogram[&Opcode::VAddI32], 2);
        assert_eq!(ab_c.histogram[&Opcode::SAddU32], 1);
        assert_eq!(ab_c.histogram[&Opcode::VMulF32], 1);
        let total: u64 = ab_c.histogram.values().sum();
        assert_eq!(total, ab_c.instructions);
        // Busy counters accumulate per unit; cycles take the maximum.
        assert_eq!(ab_c.fu_busy[&FuncUnit::Simd], 12);
        assert_eq!(ab_c.fu_busy[&FuncUnit::Simf], 40);
        assert_eq!(ab_c.cycles, 200);
        assert_eq!(ab_c.work_item_ops, 64 + 1 + 32 + 16);
        // Stall aggregates accumulate per reason.
        assert_eq!(ab_c.stall_cycles[&StallReason::FetchStarve], 15);
        assert_eq!(ab_c.stall_cycles[&StallReason::Barrier], 2);
        assert_eq!(ab_c.stall_total(), 17);
    }

    #[test]
    fn issue_counters_fold_like_per_issue_recording() {
        // The counters index by discriminant; the fold maps index `i`
        // back through `ALL[i]`, so the two orders must agree.
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
        for (i, &unit) in FuncUnit::ALL.iter().enumerate() {
            assert_eq!(unit as usize, i, "{unit:?}");
        }
        let issues = [
            (Opcode::VAddI32, 48, FuncUnit::Simd, 4),
            (Opcode::SAddU32, 64, FuncUnit::Salu, 1),
            (Opcode::VAddI32, 64, FuncUnit::Simd, 4),
            (Opcode::VMulF32, 16, FuncUnit::Simf, 9),
        ];
        let mut direct = CuStats::default();
        let mut counters = IssueCounters::default();
        let mut folded = CuStats::default();
        for (i, &(op, lanes, unit, busy)) in issues.iter().enumerate() {
            direct.record_issue(op, lanes);
            direct.record_busy(unit, busy);
            let per_lane = op.is_vector_alu() || op.is_vector_memory();
            counters.record_issue(op, if per_lane { u64::from(lanes) } else { 1 });
            counters.record_busy(unit, busy);
            if i == 1 {
                // Folding mid-stream (a paused run) changes nothing.
                counters.fold_into(&mut folded);
            }
        }
        counters.fold_into(&mut folded);
        assert_eq!(folded, direct);
        counters.fold_into(&mut folded);
        assert_eq!(folded, direct, "a fold resets the counters");
    }

    #[test]
    fn mix_buckets_by_metadata() {
        let mut s = CuStats::default();
        s.record_issue(Opcode::VAddF32, 64);
        s.record_issue(Opcode::VMulF32, 64);
        s.record_issue(Opcode::VAddI32, 64);
        let mix = s.mix();
        assert_eq!(mix[&(FuncUnit::Simf, Category::Add, DataType::Fp32)], 1);
        assert_eq!(mix[&(FuncUnit::Simf, Category::Mul, DataType::Fp32)], 1);
        assert_eq!(mix[&(FuncUnit::Simd, Category::Add, DataType::Int)], 1);
    }
}
