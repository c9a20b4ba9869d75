//! The shared global memory with configuration-dependent timing.

use scratch_snap::MemoryImage;
use serde::{Deserialize, Serialize};

use scratch_cu::{AccessKind, Memory};

use crate::SystemError;

/// Memory-path timing parameters, in CU cycles (50 MHz).
///
/// The *global* path models a request travelling CU → AXI interconnect →
/// MicroBlaze → MIG → DDR3 and back. In the original MIAOW system every
/// element of that path runs at the CU clock and the MicroBlaze services one
/// request at a time, so requests are serialised behind a single server
/// (`global_*` costs with the FIFO `server_free` queue). The dual-clock
/// domain (DCD) runs MicroBlaze+MIG at 200 MHz — a 4:1 ratio that divides
/// the service costs seen from the CU clock. The prefetch memory (PM) adds
/// a BRAM path next to the CU: accesses to preloaded ranges complete in a
/// few cycles, pipelined, without touching the global server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemTiming {
    /// Fixed service cost of a scalar (SMRD) global access.
    pub scalar_service: u64,
    /// Fixed service cost of a vector global access.
    pub vector_base: u64,
    /// Additional service cost per active lane of a vector global access
    /// (fixed-point, 1/256ths of a cycle).
    pub per_lane_q8: u64,
    /// Latency of a prefetch-buffer hit; `None` disables the prefetch path.
    pub prefetch_hit: Option<u64>,
    /// Additional prefetch cycles per 16-lane beat.
    pub prefetch_per_beat: u64,
    /// Prefetch buffer capacity in bytes (the BRAM blocks allocated to PM).
    pub prefetch_capacity: u64,
}

impl MemTiming {
    /// The original MIAOW system: single 50 MHz clock, strictly global
    /// accesses through the MicroBlaze. The service cost is dominated by
    /// the AXI polling handshake in the CU clock domain; the
    /// MicroBlaze-internal portion is the part a faster MB clock can cut.
    #[must_use]
    pub fn original() -> MemTiming {
        MemTiming {
            scalar_service: 280,
            vector_base: 320,
            per_lane_q8: 4 * 256,
            prefetch_hit: None,
            prefetch_per_beat: 0,
            prefetch_capacity: 0,
        }
    }

    /// Dual clock domain: MicroBlaze + MIG at 200 MHz (4:1). Only the
    /// MB-internal share of the service shrinks — the AXI handshake still
    /// runs at the CU clock, which is why the paper measures only ~1.17x
    /// from the DCD alone (§4.1.2).
    #[must_use]
    pub fn dcd() -> MemTiming {
        MemTiming {
            scalar_service: 216,
            vector_base: 256,
            per_lane_q8: 4 * 256,
            prefetch_hit: None,
            prefetch_per_beat: 0,
            prefetch_capacity: 0,
        }
    }

    /// DCD plus the in-FPGA prefetch memory (the paper's *baseline*).
    /// Capacity reflects the ~928 BRAM36 blocks the design dedicates to PM.
    #[must_use]
    pub fn dcd_pm() -> MemTiming {
        MemTiming {
            prefetch_hit: Some(6),
            prefetch_per_beat: 1,
            prefetch_capacity: 928 * 4096,
            ..MemTiming::dcd()
        }
    }

    fn vector_service(&self, lanes: u32) -> u64 {
        self.vector_base + (u64::from(lanes) * self.per_lane_q8) / 256
    }
}

/// Global memory shared by all compute units: functional storage plus the
/// configuration's timing model.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<u8>,
    timing: MemTiming,
    /// Byte ranges resident in the prefetch buffer.
    prefetched: Vec<(u64, u64)>,
    prefetched_bytes: u64,
    /// MicroBlaze server availability (FIFO queue over global accesses).
    server_free: u64,
    /// Number of CUs sharing the global path (bandwidth division).
    sharers: u32,
    /// Counters.
    pub(crate) global_accesses: u64,
    pub(crate) prefetch_hits: u64,
    /// Bytes served out of the prefetch buffer (4 per scalar access, 4 per
    /// active lane of a vector access).
    pub(crate) prefetch_hit_bytes: u64,
    /// Cycles requests spent queued behind the server before service began.
    pub(crate) queue_wait: u64,
}

/// Bytes an access moves: one word per active lane for vector operations,
/// a single word for scalar loads.
fn access_bytes(kind: AccessKind, lanes: u32) -> u64 {
    match kind {
        AccessKind::ScalarLoad => 4,
        AccessKind::VectorLoad | AccessKind::VectorStore => u64::from(lanes) * 4,
    }
}

impl SharedMemory {
    /// Allocate `size` bytes of zeroed global memory with `timing`.
    #[must_use]
    pub fn new(size: usize, timing: MemTiming) -> SharedMemory {
        SharedMemory {
            data: vec![0; size],
            timing,
            prefetched: Vec::new(),
            prefetched_bytes: 0,
            server_free: 0,
            sharers: 1,
            global_accesses: 0,
            prefetch_hits: 0,
            prefetch_hit_bytes: 0,
            queue_wait: 0,
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the memory has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Active timing parameters.
    #[must_use]
    pub fn timing(&self) -> &MemTiming {
        &self.timing
    }

    /// Set how many CUs share the global path (divides its bandwidth).
    pub fn set_sharers(&mut self, n: u32) {
        self.sharers = n.max(1);
    }

    /// Reset the timing queue (a new measurement run); functional contents
    /// and prefetch residency are preserved.
    pub fn reset_timing(&mut self) {
        self.server_free = 0;
        self.global_accesses = 0;
        self.prefetch_hits = 0;
        self.prefetch_hit_bytes = 0;
        self.queue_wait = 0;
    }

    /// Mark `[addr, addr+len)` as resident in the prefetch buffer, as the
    /// MicroBlaze preload commands do at application start (§2.1.4).
    ///
    /// # Errors
    ///
    /// Fails when the configuration has no prefetch buffer or its capacity
    /// is exceeded.
    pub fn prefetch(&mut self, addr: u64, len: u64) -> Result<(), crate::SystemError> {
        let capacity = self.timing.prefetch_capacity;
        if self.timing.prefetch_hit.is_none() {
            return Err(crate::SystemError::PrefetchCapacity {
                requested: len,
                capacity: 0,
            });
        }
        if self.prefetched_bytes + len > capacity {
            return Err(crate::SystemError::PrefetchCapacity {
                requested: len,
                capacity,
            });
        }
        self.prefetched.push((addr, addr + len));
        self.prefetched_bytes += len;
        Ok(())
    }

    /// Mark as much of `[addr, addr+len)` as still fits the prefetch
    /// buffer; returns the number of bytes marked (the preload fills the
    /// BRAMs to capacity and the tail of oversized data spills to the
    /// global path).
    pub fn prefetch_partial(&mut self, addr: u64, len: u64) -> u64 {
        if self.timing.prefetch_hit.is_none() {
            return 0;
        }
        let room = self
            .timing
            .prefetch_capacity
            .saturating_sub(self.prefetched_bytes);
        let take = len.min(room);
        if take > 0 {
            self.prefetched.push((addr, addr + take));
            self.prefetched_bytes += take;
        }
        take
    }

    /// Bytes currently marked prefetch-resident.
    #[must_use]
    pub fn prefetched_bytes(&self) -> u64 {
        self.prefetched_bytes
    }

    /// `true` if `addr` hits the prefetch buffer.
    #[must_use]
    pub fn is_prefetched(&self, addr: u64) -> bool {
        self.timing.prefetch_hit.is_some()
            && self.prefetched.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Number of accesses that went down the global (MicroBlaze) path.
    #[must_use]
    pub fn global_accesses(&self) -> u64 {
        self.global_accesses
    }

    /// Number of accesses serviced by the prefetch buffer.
    #[must_use]
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Bytes served by the prefetch buffer (the BRAM bandwidth the PM path
    /// absorbed instead of the global server).
    #[must_use]
    pub fn prefetch_hit_bytes(&self) -> u64 {
        self.prefetch_hit_bytes
    }

    /// Cycles requests spent queued behind the shared server before their
    /// service began (the memory-server congestion component of the stall
    /// taxonomy).
    #[must_use]
    pub fn queue_wait_cycles(&self) -> u64 {
        self.queue_wait
    }

    /// Copy words into memory (host-side write; no timing).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn write_words(&mut self, addr: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let a = addr as usize + i * 4;
            self.data[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Flip one bit of a memory byte (host-side upset injection; no
    /// timing). The address wraps modulo the memory size and the bit
    /// modulo 8, so any scheduled upset is applicable.
    pub fn flip_bit(&mut self, addr: u64, bit: u8) {
        if self.data.is_empty() {
            return;
        }
        let a = (addr % self.data.len() as u64) as usize;
        self.data[a] ^= 1 << (bit % 8);
    }

    /// Read words back (host-side read; no timing).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    #[must_use]
    pub fn read_words(&self, addr: u64, count: usize) -> Vec<u32> {
        (0..count)
            .map(|i| {
                let a = addr as usize + i * 4;
                u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap())
            })
            .collect()
    }
}

impl Memory for SharedMemory {
    fn read_u32(&mut self, addr: u64) -> u32 {
        let a = addr as usize;
        if a + 4 <= self.data.len() {
            u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap())
        } else {
            0
        }
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        if a + 4 <= self.data.len() {
            self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
        }
    }

    fn access(&mut self, kind: AccessKind, addr: u64, lanes: u32, now: u64) -> u64 {
        if self.is_prefetched(addr) {
            self.prefetch_hits += 1;
            self.prefetch_hit_bytes += access_bytes(kind, lanes);
            let beats = u64::from(lanes.div_ceil(16).max(1));
            // BRAM path: short, pipelined, no shared server.
            return now
                + self.timing.prefetch_hit.unwrap_or(0)
                + beats * self.timing.prefetch_per_beat;
        }
        self.global_accesses += 1;
        let service = match kind {
            AccessKind::ScalarLoad => self.timing.scalar_service,
            AccessKind::VectorLoad | AccessKind::VectorStore => self.timing.vector_service(lanes),
        } * u64::from(self.sharers);
        let start = self.server_free.max(now);
        self.queue_wait += start - now;
        let done = start + service;
        self.server_free = done;
        done
    }
}

/// Page granularity of the epoch copy-on-write views.
const EPOCH_PAGE: usize = 4096;

/// Everything a CU's [`EpochMemory`] view carries back to the shared
/// memory when its shard of a dispatch completes: dirtied pages, the
/// final position of the view's private server clock, and the access
/// counters accumulated by the shard.
///
/// Deltas are applied with [`SharedMemory::commit`] in CU-index order,
/// which makes the post-epoch memory state a pure function of the
/// epoch-start state regardless of which worker thread ran which CU.
#[derive(Debug)]
pub struct EpochDelta {
    /// Dirty pages, sorted by page index.
    pages: Vec<(usize, EpochPage)>,
    server_free: u64,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
}

/// One copy-on-write page of an epoch view: the page contents (snapshot
/// plus this view's writes) and a bitmask of the bytes actually written.
/// Only masked bytes commit back, so shards interleaving stores within one
/// page never clobber each other's data.
#[derive(Debug)]
struct EpochPage {
    data: Box<[u8]>,
    /// 1 bit per byte of `data`.
    written: Box<[u64]>,
}

impl EpochPage {
    fn from_base(base: &[u8]) -> EpochPage {
        EpochPage {
            data: base.into(),
            written: vec![0u64; base.len().div_ceil(64)].into_boxed_slice(),
        }
    }

    fn write(&mut self, off: usize, byte: u8) {
        self.data[off] = byte;
        self.written[off / 64] |= 1 << (off % 64);
    }
}

/// A copy-on-write view of [`SharedMemory`] scoped to one CU's shard of a
/// dispatch epoch.
///
/// Each view snapshots the epoch-start functional contents (reads fall
/// through to the base; writes dirty private 4-KiB pages) and decouples
/// the MicroBlaze server clock: every CU's request stream queues behind a
/// private `server_free` seeded from the epoch-start value, while the
/// `sharers` multiplier continues to model the bandwidth division between
/// CUs. The result is that a shard's timing and functional effects depend
/// only on `(kernel, workgroups, epoch-start state)` — the invariant that
/// lets the engine run shards on worker threads and still produce
/// bit-identical cycle counts to the serial scheduler.
#[derive(Debug)]
pub struct EpochMemory<'a> {
    base: &'a [u8],
    timing: MemTiming,
    prefetched: &'a [(u64, u64)],
    sharers: u32,
    server_free: u64,
    /// Dirty pages, sorted by page index.
    pages: Vec<(usize, EpochPage)>,
    /// Memo: position in `pages` of the most recently touched page.
    last: Option<usize>,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
}

impl<'a> EpochMemory<'a> {
    /// Position of page `pidx` in the dirty set, if present.
    fn find(&self, pidx: usize) -> Option<usize> {
        if let Some(pos) = self.last {
            if self.pages.get(pos).is_some_and(|p| p.0 == pidx) {
                return Some(pos);
            }
        }
        self.pages.binary_search_by_key(&pidx, |p| p.0).ok()
    }

    fn byte(&mut self, a: usize) -> u8 {
        let pidx = a / EPOCH_PAGE;
        match self.find(pidx) {
            Some(pos) => {
                self.last = Some(pos);
                self.pages[pos].1.data[a % EPOCH_PAGE]
            }
            None => self.base[a],
        }
    }

    /// Dirty page `pidx`, copying it from the base on first touch; returns
    /// its position in the dirty set.
    fn dirty_page(&mut self, pidx: usize) -> usize {
        if let Some(pos) = self.find(pidx) {
            self.last = Some(pos);
            return pos;
        }
        let start = pidx * EPOCH_PAGE;
        let end = (start + EPOCH_PAGE).min(self.base.len());
        let page = EpochPage::from_base(&self.base[start..end]);
        let pos = self.pages.binary_search_by_key(&pidx, |p| p.0).unwrap_err();
        self.pages.insert(pos, (pidx, page));
        self.last = Some(pos);
        pos
    }

    fn is_prefetched(&self, addr: u64) -> bool {
        self.timing.prefetch_hit.is_some()
            && self.prefetched.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Consume the view into the delta to [`SharedMemory::commit`].
    #[must_use]
    pub fn finish(self) -> EpochDelta {
        EpochDelta {
            pages: self.pages,
            server_free: self.server_free,
            global_accesses: self.global_accesses,
            prefetch_hits: self.prefetch_hits,
            prefetch_hit_bytes: self.prefetch_hit_bytes,
            queue_wait: self.queue_wait,
        }
    }

    /// Detach the view into an owned, serializable [`EpochState`] so a
    /// paused dispatch can drop its borrow of the shared memory (and be
    /// checkpointed); [`SharedMemory::epoch_resume`] reattaches it.
    #[must_use]
    pub fn suspend(self) -> EpochState {
        EpochState {
            pages: self
                .pages
                .into_iter()
                .map(|(pidx, page)| EpochPageState {
                    index: pidx as u64,
                    data: page.data.into_vec(),
                    written: page.written.into_vec(),
                })
                .collect(),
            server_free: self.server_free,
            global_accesses: self.global_accesses,
            prefetch_hits: self.prefetch_hits,
            prefetch_hit_bytes: self.prefetch_hit_bytes,
            queue_wait: self.queue_wait,
        }
    }
}

/// Owned form of a detached [`EpochMemory`] view: the dirty copy-on-write
/// pages (with their written-byte masks) plus the view's private server
/// clock and access counters. Serializable, so it rides inside a system
/// checkpoint; convertible back to a live view over the *same* epoch base
/// with [`SharedMemory::epoch_resume`], or straight to an [`EpochDelta`]
/// when its shard has finished and only the commit remains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochState {
    pages: Vec<EpochPageState>,
    server_free: u64,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EpochPageState {
    index: u64,
    data: Vec<u8>,
    written: Vec<u64>,
}

impl EpochState {
    /// Check that every page lies inside a `memory_bytes`-long memory, at
    /// the length a view would have copied, with one written-mask bit per
    /// byte, in ascending order. Checkpoints are read back from disk, and
    /// committing or reading through a malformed page would index past
    /// the memory or the page.
    ///
    /// # Errors
    ///
    /// [`SystemError::Preemption`] naming the first malformed page.
    pub fn validate(&self, memory_bytes: usize) -> Result<(), SystemError> {
        let mut prev = None;
        for page in &self.pages {
            let start = usize::try_from(page.index)
                .ok()
                .and_then(|i| i.checked_mul(EPOCH_PAGE))
                .filter(|&start| start < memory_bytes && prev < Some(page.index))
                .ok_or_else(|| bad_checkpoint("epoch page index out of range or order"))?;
            if page.data.len() != EPOCH_PAGE.min(memory_bytes - start) {
                return Err(bad_checkpoint("epoch page length differs from its page"));
            }
            let tail = page.data.len() % 64;
            let stray = match page.written.last() {
                Some(&last) if tail != 0 => last >> tail != 0,
                _ => false,
            };
            if page.written.len() != page.data.len().div_ceil(64) || stray {
                return Err(bad_checkpoint(
                    "epoch page written mask does not match its data",
                ));
            }
            prev = Some(page.index);
        }
        Ok(())
    }

    /// Convert into the delta form [`SharedMemory::commit`] applies.
    #[must_use]
    pub fn into_delta(self) -> EpochDelta {
        EpochDelta {
            pages: self
                .pages
                .into_iter()
                .map(|p| {
                    (
                        usize::try_from(p.index).unwrap_or(usize::MAX),
                        EpochPage {
                            data: p.data.into_boxed_slice(),
                            written: p.written.into_boxed_slice(),
                        },
                    )
                })
                .collect(),
            server_free: self.server_free,
            global_accesses: self.global_accesses,
            prefetch_hits: self.prefetch_hits,
            prefetch_hit_bytes: self.prefetch_hit_bytes,
            queue_wait: self.queue_wait,
        }
    }
}

impl Memory for EpochMemory<'_> {
    fn read_u32(&mut self, addr: u64) -> u32 {
        let a = addr as usize;
        if a + 4 > self.base.len() {
            return 0;
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.byte(a + i);
        }
        u32::from_le_bytes(bytes)
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        if a + 4 > self.base.len() {
            return;
        }
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            let pos = self.dirty_page((a + i) / EPOCH_PAGE);
            self.pages[pos].1.write((a + i) % EPOCH_PAGE, b);
        }
    }

    fn access(&mut self, kind: AccessKind, addr: u64, lanes: u32, now: u64) -> u64 {
        if self.is_prefetched(addr) {
            self.prefetch_hits += 1;
            self.prefetch_hit_bytes += access_bytes(kind, lanes);
            let beats = u64::from(lanes.div_ceil(16).max(1));
            return now
                + self.timing.prefetch_hit.unwrap_or(0)
                + beats * self.timing.prefetch_per_beat;
        }
        self.global_accesses += 1;
        let service = match kind {
            AccessKind::ScalarLoad => self.timing.scalar_service,
            AccessKind::VectorLoad | AccessKind::VectorStore => self.timing.vector_service(lanes),
        } * u64::from(self.sharers);
        let start = self.server_free.max(now);
        self.queue_wait += start - now;
        let done = start + service;
        self.server_free = done;
        done
    }
}

impl SharedMemory {
    /// Open a copy-on-write epoch view over the current contents. Multiple
    /// views may be live at once (one per CU shard); each sees the same
    /// epoch-start snapshot and queues behind a private server clock
    /// seeded from the current `server_free`.
    #[must_use]
    pub fn epoch(&self) -> EpochMemory<'_> {
        EpochMemory {
            base: &self.data,
            timing: self.timing,
            prefetched: &self.prefetched,
            sharers: self.sharers,
            server_free: self.server_free,
            pages: Vec::new(),
            last: None,
            global_accesses: 0,
            prefetch_hits: 0,
            prefetch_hit_bytes: 0,
            queue_wait: 0,
        }
    }

    /// Apply one shard's epoch delta: copy the bytes the shard wrote back,
    /// advance the server clock to the latest final position seen so far,
    /// and fold the access counters in. Call in CU-index order for every
    /// shard of the epoch — the order later shards' bytes overwrite
    /// earlier ones is part of the deterministic dispatch semantics.
    pub fn commit(&mut self, delta: EpochDelta) {
        for (pidx, page) in delta.pages {
            let start = pidx * EPOCH_PAGE;
            for (w, &mask) in page.written.iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                let woff = w * 64;
                if mask == u64::MAX {
                    let n = 64.min(page.data.len() - woff);
                    self.data[start + woff..start + woff + n]
                        .copy_from_slice(&page.data[woff..woff + n]);
                } else {
                    for b in 0..64 {
                        if mask & (1 << b) != 0 {
                            self.data[start + woff + b] = page.data[woff + b];
                        }
                    }
                }
            }
        }
        self.server_free = self.server_free.max(delta.server_free);
        self.global_accesses += delta.global_accesses;
        self.prefetch_hits += delta.prefetch_hits;
        self.prefetch_hit_bytes += delta.prefetch_hit_bytes;
        self.queue_wait += delta.queue_wait;
    }

    /// First byte recorded in `delta` whose value differs from this
    /// memory's *current* contents, as `(address, delta value, memory
    /// value)`. The `ExecMode::FastWithTiming` self-check runs the fast
    /// tier against throwaway epoch views, commits the cycle pipeline's
    /// shards normally, then requires every byte the fast tier wrote to
    /// match the committed state.
    #[must_use]
    pub fn first_delta_mismatch(&self, delta: &EpochDelta) -> Option<(u64, u8, u8)> {
        for (pidx, page) in &delta.pages {
            let start = pidx * EPOCH_PAGE;
            for (w, &mask) in page.written.iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                for b in 0..64 {
                    if mask & (1 << b) == 0 {
                        continue;
                    }
                    let off = w * 64 + b;
                    if off >= page.data.len() {
                        break;
                    }
                    let addr = start + off;
                    let want = page.data[off];
                    let got = self.data.get(addr).copied().unwrap_or(0);
                    if want != got {
                        return Some((addr as u64, want, got));
                    }
                }
            }
        }
        None
    }

    /// Reattach a suspended epoch view over the current contents. The
    /// base must be the same epoch-start state the view was opened over
    /// (a checkpointed dispatch restores the memory before resuming its
    /// views, which guarantees this).
    #[must_use]
    pub fn epoch_resume(&self, state: EpochState) -> EpochMemory<'_> {
        EpochMemory {
            base: &self.data,
            timing: self.timing,
            prefetched: &self.prefetched,
            sharers: self.sharers,
            server_free: state.server_free,
            pages: state
                .pages
                .into_iter()
                .map(|p| {
                    (
                        usize::try_from(p.index).unwrap_or(usize::MAX),
                        EpochPage {
                            data: p.data.into_boxed_slice(),
                            written: p.written.into_boxed_slice(),
                        },
                    )
                })
                .collect(),
            last: None,
            global_accesses: state.global_accesses,
            prefetch_hits: state.prefetch_hits,
            prefetch_hit_bytes: state.prefetch_hit_bytes,
            queue_wait: state.queue_wait,
        }
    }

    /// Capture the memory's complete state (functional contents as a
    /// sparse image, timing model, prefetch residency, server clock and
    /// counters) for a system checkpoint.
    #[must_use]
    pub fn checkpoint_state(&self) -> MemoryState {
        MemoryState {
            image: MemoryImage::capture(&self.data),
            timing: self.timing,
            prefetched: self.prefetched.clone(),
            prefetched_bytes: self.prefetched_bytes,
            server_free: self.server_free,
            sharers: self.sharers,
            global_accesses: self.global_accesses,
            prefetch_hits: self.prefetch_hits,
            prefetch_hit_bytes: self.prefetch_hit_bytes,
            queue_wait: self.queue_wait,
        }
    }

    /// Rebuild a `memory_bytes`-long memory from
    /// [`SharedMemory::checkpoint_state`] output.
    ///
    /// # Errors
    ///
    /// [`SystemError::Preemption`] when the image has another length or a
    /// page outside it.
    pub fn restore_state(
        state: &MemoryState,
        memory_bytes: usize,
    ) -> Result<SharedMemory, SystemError> {
        if usize::try_from(state.image.len).ok() != Some(memory_bytes) {
            return Err(bad_checkpoint(
                "memory image length differs from the memory size",
            ));
        }
        state
            .image
            .validate()
            .map_err(|e| bad_checkpoint(&e.to_string()))?;
        Ok(SharedMemory {
            data: state.image.restore(),
            timing: state.timing,
            prefetched: state.prefetched.clone(),
            prefetched_bytes: state.prefetched_bytes,
            server_free: state.server_free,
            sharers: state.sharers,
            global_accesses: state.global_accesses,
            prefetch_hits: state.prefetch_hits,
            prefetch_hit_bytes: state.prefetch_hit_bytes,
            queue_wait: state.queue_wait,
        })
    }
}

fn bad_checkpoint(reason: &str) -> SystemError {
    SystemError::Preemption {
        reason: format!("checkpoint: {reason}"),
    }
}

/// Serializable complete state of a [`SharedMemory`], as captured by
/// [`SharedMemory::checkpoint_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryState {
    image: MemoryImage,
    timing: MemTiming,
    prefetched: Vec<(u64, u64)>,
    prefetched_bytes: u64,
    server_free: u64,
    sharers: u32,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_strictly_ordered() {
        let mut orig = SharedMemory::new(1024, MemTiming::original());
        let mut dcd = SharedMemory::new(1024, MemTiming::dcd());
        let mut pm = SharedMemory::new(1024, MemTiming::dcd_pm());
        pm.prefetch(0, 1024).unwrap();
        let t_orig = orig.access(AccessKind::VectorLoad, 0, 64, 0);
        let t_dcd = dcd.access(AccessKind::VectorLoad, 0, 64, 0);
        let t_pm = pm.access(AccessKind::VectorLoad, 0, 64, 0);
        // DCD shaves the MB-internal share (~1.1-1.3x); PM removes the
        // whole round trip.
        let ratio = t_orig as f64 / t_dcd as f64;
        assert!((1.05..=1.45).contains(&ratio), "orig/dcd ratio {ratio:.2}");
        assert!(t_dcd > 10 * t_pm, "dcd={t_dcd} pm={t_pm}");
    }

    #[test]
    fn global_path_serialises_requests() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd());
        let t1 = m.access(AccessKind::VectorLoad, 0, 64, 0);
        let t2 = m.access(AccessKind::VectorLoad, 0, 64, 0);
        assert!(t2 >= 2 * t1, "second request queues behind the first");
        assert_eq!(m.global_accesses(), 2);
    }

    #[test]
    fn prefetch_path_is_parallel() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd_pm());
        m.prefetch(0, 1024).unwrap();
        let t1 = m.access(AccessKind::VectorLoad, 0, 64, 0);
        let t2 = m.access(AccessKind::VectorLoad, 64, 64, 0);
        assert_eq!(t1, t2, "BRAM accesses do not queue behind each other");
        assert_eq!(m.prefetch_hits(), 2);
        assert_eq!(m.prefetch_hit_bytes(), 2 * 64 * 4);
    }

    #[test]
    fn prefetch_miss_uses_global_path() {
        let mut m = SharedMemory::new(8192, MemTiming::dcd_pm());
        m.prefetch(0, 1024).unwrap();
        let hit = m.access(AccessKind::VectorLoad, 100, 64, 0);
        let miss = m.access(AccessKind::VectorLoad, 4096, 64, 0);
        assert!(miss > hit * 3);
    }

    #[test]
    fn prefetch_capacity_enforced() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd_pm());
        let cap = m.timing().prefetch_capacity;
        assert!(m.prefetch(0, cap + 1).is_err());
        assert!(m.prefetch(0, cap).is_ok());
        assert!(m.prefetch(0, 1).is_err());
    }

    #[test]
    fn no_prefetch_on_non_pm_configs() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd());
        assert!(m.prefetch(0, 16).is_err());
        assert!(!m.is_prefetched(0));
    }

    #[test]
    fn sharers_divide_bandwidth() {
        let mut one = SharedMemory::new(1024, MemTiming::dcd());
        let mut three = SharedMemory::new(1024, MemTiming::dcd());
        three.set_sharers(3);
        let t1 = one.access(AccessKind::VectorLoad, 0, 64, 0);
        let t3 = three.access(AccessKind::VectorLoad, 0, 64, 0);
        assert_eq!(t3, t1 * 3);
    }

    #[test]
    fn functional_rw() {
        let mut m = SharedMemory::new(64, MemTiming::original());
        m.write_words(0, &[7, 8, 9]);
        assert_eq!(m.read_words(4, 2), vec![8, 9]);
        m.write_u32(0, 42);
        assert_eq!(m.read_u32(0), 42);
        assert_eq!(m.read_u32(1000), 0);
    }

    #[test]
    fn epoch_views_are_isolated_until_commit() {
        let mut m = SharedMemory::new(3 * EPOCH_PAGE, MemTiming::original());
        m.write_words(0, &[1, 2]);
        let mut a = m.epoch();
        let mut b = m.epoch();
        assert_eq!(a.read_u32(0), 1, "views see the epoch-start snapshot");
        a.write_u32(0, 10);
        a.write_u32(2 * EPOCH_PAGE as u64, 77);
        b.write_u32(8, 99); // same page as a's first write
        assert_eq!(a.read_u32(0), 10, "a view reads its own writes");
        assert_eq!(b.read_u32(0), 1, "sibling views stay isolated");
        let (da, db) = (a.finish(), b.finish());
        assert_eq!(m.read_u32(0), 1, "base unchanged before commit");
        m.commit(da);
        m.commit(db);
        // Only written bytes commit: b dirtied the same page as a, yet a's
        // writes survive b's later commit.
        assert_eq!(m.read_words(0, 3), vec![10, 2, 99]);
        assert_eq!(m.read_u32(2 * EPOCH_PAGE as u64), 77);
    }

    #[test]
    fn epoch_timing_matches_direct_access_for_one_cu() {
        // A single CU's request stream through an epoch view must time out
        // identically to the same stream hitting SharedMemory directly —
        // the 1-CU serial/engine equivalence in miniature.
        let mut direct = SharedMemory::new(8192, MemTiming::dcd_pm());
        direct.prefetch(0, 1024).unwrap();
        let mut epoch_base = direct.clone();
        let mut view = epoch_base.epoch();
        let stream = [
            (AccessKind::VectorLoad, 0, 64, 0),
            (AccessKind::VectorLoad, 4096, 64, 10),
            (AccessKind::ScalarLoad, 4096, 1, 12),
            (AccessKind::VectorStore, 100, 32, 500),
        ];
        for (kind, addr, lanes, now) in stream {
            assert_eq!(
                direct.access(kind, addr, lanes, now),
                view.access(kind, addr, lanes, now)
            );
        }
        epoch_base.commit(view.finish());
        assert_eq!(epoch_base.global_accesses(), direct.global_accesses());
        assert_eq!(epoch_base.prefetch_hits(), direct.prefetch_hits());
        assert_eq!(epoch_base.prefetch_hit_bytes(), direct.prefetch_hit_bytes());
        assert_eq!(epoch_base.queue_wait_cycles(), direct.queue_wait_cycles());
        assert_eq!(epoch_base.server_free, direct.server_free);
    }

    #[test]
    fn epoch_commit_takes_max_server_clock_and_sums_counters() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd());
        let mut a = m.epoch();
        let mut b = m.epoch();
        a.access(AccessKind::VectorLoad, 0, 64, 0);
        b.access(AccessKind::ScalarLoad, 0, 1, 0);
        b.access(AccessKind::ScalarLoad, 0, 1, 0);
        let (da, db) = (a.finish(), b.finish());
        let (fa, fb) = (da.server_free, db.server_free);
        m.commit(da);
        m.commit(db);
        assert_eq!(m.global_accesses(), 3);
        assert_eq!(m.server_free, fa.max(fb));
    }

    #[test]
    fn suspended_epoch_view_resumes_identically() {
        let mut m = SharedMemory::new(2 * EPOCH_PAGE, MemTiming::dcd_pm());
        m.prefetch(0, 256).unwrap();
        m.write_words(0, &[5, 6]);

        // Reference: one continuous view.
        let mut direct = m.epoch();
        direct.write_u32(0, 11);
        direct.access(AccessKind::VectorLoad, 0, 64, 0);
        direct.write_u32(EPOCH_PAGE as u64, 22);
        let t_direct = direct.access(AccessKind::VectorLoad, 4000, 64, 10);

        // Same stream with a suspend (+ serde round trip) in the middle.
        let mut view = m.epoch();
        view.write_u32(0, 11);
        view.access(AccessKind::VectorLoad, 0, 64, 0);
        let bytes = scratch_snap::to_bytes(&view.suspend());
        let state: EpochState = scratch_snap::from_bytes(&bytes).unwrap();
        let mut view = m.epoch_resume(state);
        view.write_u32(EPOCH_PAGE as u64, 22);
        let t_resumed = view.access(AccessKind::VectorLoad, 4000, 64, 10);

        assert_eq!(t_direct, t_resumed);
        let d_direct = direct.finish();
        let d_resumed = view.suspend().into_delta();
        let mut a = m.clone();
        let mut b = m;
        a.commit(d_direct);
        b.commit(d_resumed);
        assert_eq!(a.read_words(0, 2), b.read_words(0, 2));
        assert_eq!(a.read_u32(EPOCH_PAGE as u64), b.read_u32(EPOCH_PAGE as u64));
        assert_eq!(a.server_free, b.server_free);
        assert_eq!(a.global_accesses(), b.global_accesses());
        assert_eq!(a.queue_wait_cycles(), b.queue_wait_cycles());
    }

    #[test]
    fn memory_checkpoint_state_round_trips() {
        let mut m = SharedMemory::new(3 * EPOCH_PAGE, MemTiming::dcd_pm());
        m.set_sharers(2);
        m.prefetch(0, 512).unwrap();
        m.write_words(8, &[1, 2, 3]);
        m.access(AccessKind::VectorLoad, 4096, 64, 0);
        let bytes = scratch_snap::to_bytes(&m.checkpoint_state());
        let state: MemoryState = scratch_snap::from_bytes(&bytes).unwrap();
        let mut r = SharedMemory::restore_state(&state, m.len()).unwrap();
        assert_eq!(r.read_words(8, 3), vec![1, 2, 3]);
        assert_eq!(r.len(), m.len());
        assert_eq!(r.server_free, m.server_free);
        assert_eq!(r.global_accesses(), m.global_accesses());
        assert_eq!(r.prefetched_bytes(), m.prefetched_bytes());
        assert!(r.is_prefetched(100));
        // Timing continues identically after restore.
        assert_eq!(
            m.access(AccessKind::ScalarLoad, 4096, 1, 5),
            r.access(AccessKind::ScalarLoad, 4096, 1, 5)
        );
    }

    #[test]
    fn epoch_respects_bounds_like_base_memory() {
        let mut m = SharedMemory::new(64, MemTiming::original());
        let mut v = m.epoch();
        assert_eq!(v.read_u32(1000), 0);
        v.write_u32(62, 5); // straddles the end: dropped, like the base
        v.write_u32(60, 9);
        m.commit(v.finish());
        assert_eq!(m.read_u32(60), 9);
    }
}
