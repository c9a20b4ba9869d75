//! The shared global memory with configuration-dependent timing.

use scratch_snap::{page_len, ImagePage, MemoryImage, PAGE_BYTES};
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

/// Global memory shared by all compute units: a sparse set of
/// [`PAGE_BYTES`] pages plus the configuration's timing state.
///
/// A page is created on its first write and an absent page reads as zero,
/// so a memory costs what its contents touch, not its address range. The
/// memory is also its own serializable checkpoint form
/// ([`SharedMemory::checkpoint_state`]). The timing model lives in its
/// [`EpochMemory`] views, which every access goes through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedMemory {
    /// The pages written so far; `image.len` is the address range.
    image: MemoryImage,
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

/// The pieces of the byte range `[addr, addr + len)` that fall in one
/// page each, as (page index, offset in the page, offset in the range,
/// length).
fn page_spans(addr: usize, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done;
            let off = a % PAGE_BYTES;
            let n = (len - done).min(PAGE_BYTES - off);
            done += n;
            ((a / PAGE_BYTES) as u64, off, done - n, n)
        })
    })
}

/// Position of page `index` in a page set sorted by index, trying the
/// memoised position of the last hit first; a hit updates the memo.
fn find<P>(
    pages: &[P],
    index: u64,
    key: impl Fn(&P) -> u64,
    memo: &mut Option<usize>,
) -> Option<usize> {
    let pos = match *memo {
        Some(pos) if pages.get(pos).is_some_and(|p| key(p) == index) => pos,
        _ => pages.binary_search_by_key(&index, &key).ok()?,
    };
    *memo = Some(pos);
    Some(pos)
}

impl SharedMemory {
    /// A `size`-byte global memory with `timing`, holding no pages yet.
    #[must_use]
    pub fn new(size: usize, timing: MemTiming) -> SharedMemory {
        SharedMemory {
            image: MemoryImage {
                len: size as u64,
                pages: Vec::new(),
            },
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
        self.image.len as usize
    }

    /// `true` when the memory has zero capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.image.len == 0
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

    /// Length of page `index`, which lies inside the memory.
    fn page_len(&self, index: u64) -> usize {
        page_len(index, self.image.len).expect("page inside the memory")
    }

    /// Page `index`, if it has been written.
    fn page(&self, index: u64) -> Option<&[u8]> {
        let pos = self
            .image
            .pages
            .binary_search_by_key(&index, |p| p.index)
            .ok()?;
        Some(&self.image.pages[pos].data)
    }

    /// Page `index` for writing, created zeroed on its first write.
    fn page_mut(&mut self, index: u64) -> &mut [u8] {
        let len = self.page_len(index);
        let pages = &mut self.image.pages;
        let pos = pages
            .binary_search_by_key(&index, |p| p.index)
            .unwrap_or_else(|pos| {
                pages.insert(
                    pos,
                    ImagePage {
                        index,
                        data: vec![0; len],
                    },
                );
                pos
            });
        &mut pages[pos].data
    }

    /// Panic unless `[addr, addr + len)` lies inside the memory.
    fn check_range(&self, addr: u64, len: usize) -> usize {
        let a = addr as usize;
        assert!(
            a.checked_add(len).is_some_and(|end| end <= self.len()),
            "host access of {len} bytes at {addr:#x} outside the {}-byte memory",
            self.len()
        );
        a
    }

    /// Copy words into memory (host-side write; no timing).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn write_words(&mut self, addr: u64, words: &[u32]) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let a = self.check_range(addr, bytes.len());
        for (index, off, at, n) in page_spans(a, bytes.len()) {
            self.page_mut(index)[off..off + n].copy_from_slice(&bytes[at..at + n]);
        }
    }

    /// Flip one bit of a memory byte (host-side upset injection; no
    /// timing). The address wraps modulo the memory size and the bit
    /// modulo 8, so any scheduled upset is applicable.
    pub fn flip_bit(&mut self, addr: u64, bit: u8) {
        if self.is_empty() {
            return;
        }
        let a = (addr % self.image.len) as usize;
        self.page_mut((a / PAGE_BYTES) as u64)[a % PAGE_BYTES] ^= 1 << (bit % 8);
    }

    /// Read words back (host-side read; no timing).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    #[must_use]
    pub fn read_words(&self, addr: u64, count: usize) -> Vec<u32> {
        let mut bytes = vec![0u8; count * 4];
        let a = self.check_range(addr, bytes.len());
        for (index, off, at, n) in page_spans(a, bytes.len()) {
            if let Some(page) = self.page(index) {
                bytes[at..at + n].copy_from_slice(&page[off..off + n]);
            }
        }
        bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    /// Open a copy-on-write epoch view over the current contents. Multiple
    /// views may be live at once (one per CU shard); each sees the same
    /// epoch-start snapshot and queues behind a private server clock
    /// seeded from the current `server_free`.
    #[must_use]
    pub fn epoch(&self) -> EpochMemory<'_> {
        self.epoch_resume(EpochState {
            pages: Vec::new(),
            server_free: self.server_free,
            global_accesses: 0,
            prefetch_hits: 0,
            prefetch_hit_bytes: 0,
            queue_wait: 0,
        })
    }

    /// Reattach a suspended epoch view over the current contents. The
    /// base must be the same epoch-start state the view was opened over
    /// (a checkpointed dispatch restores the memory before resuming its
    /// views, which guarantees this).
    #[must_use]
    pub fn epoch_resume(&self, state: EpochState) -> EpochMemory<'_> {
        EpochMemory {
            base: self,
            state,
            last: None,
            last_base: None,
        }
    }

    /// Apply one shard's finished view: copy the bytes the shard wrote
    /// back, advance the server clock to the latest final position seen
    /// so far, and fold the access counters in. Call in CU-index order for
    /// every shard of the epoch — the order later shards' bytes overwrite
    /// earlier ones is part of the deterministic dispatch semantics, and
    /// it makes the post-epoch state a pure function of the epoch-start
    /// state whichever worker thread ran which CU.
    pub fn commit(&mut self, state: EpochState) {
        for page in state.pages {
            let dst = self.page_mut(page.index);
            for (w, &mask) in page.written.iter().enumerate() {
                let woff = w * 64;
                if mask == u64::MAX {
                    let n = 64.min(page.data.len() - woff);
                    dst[woff..woff + n].copy_from_slice(&page.data[woff..woff + n]);
                } else {
                    for b in (0..64).filter(|b| mask & (1 << b) != 0) {
                        dst[woff + b] = page.data[woff + b];
                    }
                }
            }
        }
        self.server_free = self.server_free.max(state.server_free);
        self.global_accesses += state.global_accesses;
        self.prefetch_hits += state.prefetch_hits;
        self.prefetch_hit_bytes += state.prefetch_hit_bytes;
        self.queue_wait += state.queue_wait;
    }

    /// First byte written in the view `state` whose value differs from
    /// this memory's *current* contents, as `(address, view value, memory
    /// value)`. The `ExecMode::FastWithTiming` self-check runs the fast
    /// tier against throwaway epoch views, commits the cycle pipeline's
    /// shards normally, then requires every byte the fast tier wrote to
    /// match the committed state.
    #[must_use]
    pub fn first_delta_mismatch(&self, state: &EpochState) -> Option<(u64, u8, u8)> {
        state.pages.iter().find_map(|page| {
            let base = self.page(page.index);
            (0..page.data.len())
                .filter(|&off| page.written[off / 64] & (1 << (off % 64)) != 0)
                .map(|off| (off, page.data[off], base.map_or(0, |b| b[off])))
                .find(|(_, want, got)| want != got)
                .map(|(off, want, got)| (page.index * PAGE_BYTES as u64 + off as u64, want, got))
        })
    }

    /// Copy out the memory's complete state (the non-zero pages, timing
    /// model, prefetch residency, server clock and counters) for a system
    /// checkpoint: the memory itself with its all-zero pages elided.
    #[must_use]
    pub fn checkpoint_state(&self) -> SharedMemory {
        SharedMemory {
            image: MemoryImage {
                len: self.image.len,
                pages: self
                    .image
                    .pages
                    .iter()
                    .filter(|p| p.data.iter().any(|&b| b != 0))
                    .cloned()
                    .collect(),
            },
            prefetched: self.prefetched.clone(),
            ..*self
        }
    }

    /// Rebuild a `memory_bytes`-long memory from
    /// [`SharedMemory::checkpoint_state`] output.
    ///
    /// # Errors
    ///
    /// [`SystemError::Preemption`] when the image has another length or a
    /// page outside it, out of order or at the wrong length.
    pub fn restore_state(
        state: &SharedMemory,
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
        Ok(state.clone())
    }
}

fn bad_checkpoint(reason: &str) -> SystemError {
    SystemError::Preemption {
        reason: format!("checkpoint: {reason}"),
    }
}

/// A copy-on-write view of [`SharedMemory`] scoped to one CU's shard of a
/// dispatch epoch.
///
/// Each view snapshots the epoch-start functional contents (reads fall
/// through to the base; writes dirty private pages) and decouples the
/// MicroBlaze server clock: every CU's request stream queues behind a
/// private `server_free` seeded from the epoch-start value, while the
/// `sharers` multiplier continues to model the bandwidth division between
/// CUs. The result is that a shard's timing and functional effects depend
/// only on `(kernel, workgroups, epoch-start state)` — the invariant that
/// lets the engine run shards on worker threads and still produce
/// bit-identical cycle counts to the serial scheduler.
#[derive(Debug)]
pub struct EpochMemory<'a> {
    base: &'a SharedMemory,
    /// The dirty pages, private server clock and counters.
    state: EpochState,
    /// Memo: position in `state.pages` of the most recently touched page.
    last: Option<usize>,
    /// Memo: position in the base page set of the most recently read page.
    last_base: Option<usize>,
}

/// The dirty pages of an [`EpochMemory`] view (with their written-byte
/// masks) plus the view's private server clock and access counters.
/// Suspending a view hands it out, so a paused dispatch can drop its
/// borrow of the shared memory and be checkpointed;
/// [`SharedMemory::epoch_resume`] reattaches it over the *same* epoch
/// base and [`SharedMemory::commit`] applies it once the shard is done.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochState {
    /// Dirty pages, sorted by index.
    pages: Vec<DirtyPage>,
    server_free: u64,
    global_accesses: u64,
    prefetch_hits: u64,
    prefetch_hit_bytes: u64,
    queue_wait: u64,
}

/// One copy-on-write page of an epoch view: the page contents (the
/// epoch-start bytes plus this view's writes) and a bitmask of the bytes
/// actually written. Only masked bytes commit back, so shards
/// interleaving stores within one page never clobber each other's data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DirtyPage {
    index: u64,
    data: Vec<u8>,
    /// 1 bit per byte of `data`.
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
        let mut next = 0;
        for page in &self.pages {
            let len = page_len(page.index, memory_bytes as u64)
                .filter(|_| page.index >= next)
                .ok_or_else(|| bad_checkpoint("epoch page index out of range or order"))?;
            if page.data.len() != len {
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
            next = page.index + 1;
        }
        Ok(())
    }
}

impl EpochMemory<'_> {
    /// Detach the view into its owned, serializable [`EpochState`].
    #[must_use]
    pub fn suspend(self) -> EpochState {
        self.state
    }

    /// The bytes of page `index` as this view sees them: its own dirty
    /// copy, else the base page, else none (all zero).
    fn page(&mut self, index: u64) -> Option<&[u8]> {
        if let Some(pos) = find(&self.state.pages, index, |p| p.index, &mut self.last) {
            return Some(&self.state.pages[pos].data);
        }
        let pages = &self.base.image.pages;
        find(pages, index, |p| p.index, &mut self.last_base).map(|pos| &pages[pos].data[..])
    }

    /// Dirty page `index`, copying it from the base on first touch.
    fn dirty_page(&mut self, index: u64) -> &mut DirtyPage {
        let pos =
            find(&self.state.pages, index, |p| p.index, &mut self.last).unwrap_or_else(|| {
                let data = self
                    .base
                    .page(index)
                    .map_or_else(|| vec![0; self.base.page_len(index)], <[u8]>::to_vec);
                let written = vec![0; data.len().div_ceil(64)];
                let pos = self.state.pages.partition_point(|p| p.index < index);
                self.state.pages.insert(
                    pos,
                    DirtyPage {
                        index,
                        data,
                        written,
                    },
                );
                self.last = Some(pos);
                pos
            });
        &mut self.state.pages[pos]
    }

    /// `addr` as a byte offset when the word there lies inside the memory.
    fn word_offset(&self, addr: u64) -> Option<usize> {
        usize::try_from(addr)
            .ok()
            .filter(|&a| a.checked_add(4).is_some_and(|end| end <= self.base.len()))
    }
}

impl Memory for EpochMemory<'_> {
    fn read_u32(&mut self, addr: u64) -> u32 {
        let Some(a) = self.word_offset(addr) else {
            return 0;
        };
        let mut bytes = [0u8; 4];
        for (index, off, at, n) in page_spans(a, 4) {
            if let Some(page) = self.page(index) {
                bytes[at..at + n].copy_from_slice(&page[off..off + n]);
            }
        }
        u32::from_le_bytes(bytes)
    }

    fn write_u32(&mut self, addr: u64, value: u32) {
        let Some(a) = self.word_offset(addr) else {
            return;
        };
        let bytes = value.to_le_bytes();
        for (index, off, at, n) in page_spans(a, 4) {
            let page = self.dirty_page(index);
            page.data[off..off + n].copy_from_slice(&bytes[at..at + n]);
            for b in off..off + n {
                page.written[b / 64] |= 1 << (b % 64);
            }
        }
    }

    fn access(&mut self, kind: AccessKind, addr: u64, lanes: u32, now: u64) -> u64 {
        let timing = &self.base.timing;
        let s = &mut self.state;
        if self.base.is_prefetched(addr) {
            s.prefetch_hits += 1;
            s.prefetch_hit_bytes += access_bytes(kind, lanes);
            let beats = u64::from(lanes.div_ceil(16).max(1));
            // BRAM path: short, pipelined, no shared server.
            return now + timing.prefetch_hit.unwrap_or(0) + beats * timing.prefetch_per_beat;
        }
        s.global_accesses += 1;
        let service = match kind {
            AccessKind::ScalarLoad => timing.scalar_service,
            AccessKind::VectorLoad | AccessKind::VectorStore => timing.vector_service(lanes),
        } * u64::from(self.base.sharers);
        let start = s.server_free.max(now);
        s.queue_wait += start - now;
        let done = start + service;
        s.server_free = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn presets_are_strictly_ordered() {
        let orig = SharedMemory::new(1024, MemTiming::original());
        let dcd = SharedMemory::new(1024, MemTiming::dcd());
        let mut pm = SharedMemory::new(1024, MemTiming::dcd_pm());
        pm.prefetch(0, 1024).unwrap();
        let t_orig = orig.epoch().access(AccessKind::VectorLoad, 0, 64, 0);
        let t_dcd = dcd.epoch().access(AccessKind::VectorLoad, 0, 64, 0);
        let t_pm = pm.epoch().access(AccessKind::VectorLoad, 0, 64, 0);
        // DCD shaves the MB-internal share (~1.1-1.3x); PM removes the
        // whole round trip.
        let ratio = t_orig as f64 / t_dcd as f64;
        assert!((1.05..=1.45).contains(&ratio), "orig/dcd ratio {ratio:.2}");
        assert!(t_dcd > 10 * t_pm, "dcd={t_dcd} pm={t_pm}");
    }

    #[test]
    fn global_path_serialises_requests() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd());
        let mut v = m.epoch();
        let t1 = v.access(AccessKind::VectorLoad, 0, 64, 0);
        let t2 = v.access(AccessKind::VectorLoad, 0, 64, 0);
        assert!(t2 >= 2 * t1, "second request queues behind the first");
        m.commit(v.suspend());
        assert_eq!(m.global_accesses(), 2);
    }

    #[test]
    fn prefetch_path_is_parallel() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd_pm());
        m.prefetch(0, 1024).unwrap();
        let mut v = m.epoch();
        let t1 = v.access(AccessKind::VectorLoad, 0, 64, 0);
        let t2 = v.access(AccessKind::VectorLoad, 64, 64, 0);
        assert_eq!(t1, t2, "BRAM accesses do not queue behind each other");
        m.commit(v.suspend());
        assert_eq!(m.prefetch_hits(), 2);
        assert_eq!(m.prefetch_hit_bytes(), 2 * 64 * 4);
    }

    #[test]
    fn prefetch_miss_uses_global_path() {
        let mut m = SharedMemory::new(8192, MemTiming::dcd_pm());
        m.prefetch(0, 1024).unwrap();
        let mut v = m.epoch();
        let hit = v.access(AccessKind::VectorLoad, 100, 64, 0);
        let miss = v.access(AccessKind::VectorLoad, 4096, 64, 0);
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
        let one = SharedMemory::new(1024, MemTiming::dcd());
        let mut three = SharedMemory::new(1024, MemTiming::dcd());
        three.set_sharers(3);
        let t1 = one.epoch().access(AccessKind::VectorLoad, 0, 64, 0);
        let t3 = three.epoch().access(AccessKind::VectorLoad, 0, 64, 0);
        assert_eq!(t3, t1 * 3);
    }

    #[test]
    fn functional_rw() {
        let mut m = SharedMemory::new(64, MemTiming::original());
        m.write_words(0, &[7, 8, 9]);
        assert_eq!(m.read_words(4, 2), vec![8, 9]);
        let mut v = m.epoch();
        v.write_u32(0, 42);
        assert_eq!(v.read_u32(0), 42);
        assert_eq!(v.read_u32(1000), 0);
    }

    #[test]
    fn pages_exist_only_once_written() {
        let mut m = SharedMemory::new(64 << 20, MemTiming::dcd());
        assert!(m.image.pages.is_empty(), "a new memory holds no pages");
        assert_eq!(m.read_words(40 << 20, 2), vec![0, 0]);
        m.write_words(PAGE_BYTES as u64 - 4, &[1, 2]);
        let indices: Vec<u64> = m.image.pages.iter().map(|p| p.index).collect();
        assert_eq!(indices, vec![0, 1], "a write straddling a page boundary");
        assert_eq!(m.read_words(PAGE_BYTES as u64 - 4, 2), vec![1, 2]);
    }

    #[test]
    fn epoch_views_are_isolated_until_commit() {
        let mut m = SharedMemory::new(3 * PAGE_BYTES, MemTiming::original());
        m.write_words(0, &[1, 2]);
        let mut a = m.epoch();
        let mut b = m.epoch();
        assert_eq!(a.read_u32(0), 1, "views see the epoch-start snapshot");
        a.write_u32(0, 10);
        a.write_u32(2 * PAGE_BYTES as u64, 77);
        b.write_u32(8, 99); // same page as a's first write
        assert_eq!(a.read_u32(0), 10, "a view reads its own writes");
        assert_eq!(b.read_u32(0), 1, "sibling views stay isolated");
        let (da, db) = (a.suspend(), b.suspend());
        assert_eq!(m.read_words(0, 1), vec![1], "base unchanged before commit");
        m.commit(da);
        m.commit(db);
        // Only written bytes commit: b dirtied the same page as a, yet a's
        // writes survive b's later commit.
        assert_eq!(m.read_words(0, 3), vec![10, 2, 99]);
        assert_eq!(m.read_words(2 * PAGE_BYTES as u64, 1), vec![77]);
    }

    #[test]
    fn one_cu_stream_times_the_same_across_epochs() {
        // A single CU's request stream times out identically whether it
        // runs in one epoch or is cut into two with a commit between them:
        // the committed server clock seeds the next epoch's views.
        let mut m = SharedMemory::new(8192, MemTiming::dcd_pm());
        m.prefetch(0, 1024).unwrap();
        let stream = [
            (AccessKind::VectorLoad, 0, 64, 0),
            (AccessKind::VectorLoad, 4096, 64, 10),
            (AccessKind::ScalarLoad, 4096, 1, 12),
            (AccessKind::VectorStore, 100, 32, 500),
        ];
        let mut whole = m.clone();
        let mut one = whole.epoch();
        let want: Vec<u64> = stream
            .iter()
            .map(|&(kind, addr, lanes, now)| one.access(kind, addr, lanes, now))
            .collect();
        whole.commit(one.suspend());
        let mut got = Vec::new();
        for half in stream.chunks(2) {
            let mut v = m.epoch();
            got.extend(
                half.iter()
                    .map(|&(kind, addr, lanes, now)| v.access(kind, addr, lanes, now)),
            );
            m.commit(v.suspend());
        }
        assert_eq!(got, want);
        assert_eq!(m, whole);
    }

    #[test]
    fn epoch_commit_takes_max_server_clock_and_sums_counters() {
        let mut m = SharedMemory::new(1024, MemTiming::dcd());
        let mut a = m.epoch();
        let mut b = m.epoch();
        a.access(AccessKind::VectorLoad, 0, 64, 0);
        b.access(AccessKind::ScalarLoad, 0, 1, 0);
        b.access(AccessKind::ScalarLoad, 0, 1, 0);
        let (da, db) = (a.suspend(), b.suspend());
        let (fa, fb) = (da.server_free, db.server_free);
        m.commit(da);
        m.commit(db);
        assert_eq!(m.global_accesses(), 3);
        assert_eq!(m.server_free, fa.max(fb));
    }

    #[test]
    fn suspended_epoch_view_resumes_identically() {
        let mut m = SharedMemory::new(2 * PAGE_BYTES, MemTiming::dcd_pm());
        m.prefetch(0, 256).unwrap();
        m.write_words(0, &[5, 6]);

        // Reference: one continuous view.
        let mut direct = m.epoch();
        direct.write_u32(0, 11);
        direct.access(AccessKind::VectorLoad, 0, 64, 0);
        direct.write_u32(PAGE_BYTES as u64, 22);
        let t_direct = direct.access(AccessKind::VectorLoad, 4000, 64, 10);

        // Same stream with a suspend (+ serde round trip) in the middle.
        let mut view = m.epoch();
        view.write_u32(0, 11);
        view.access(AccessKind::VectorLoad, 0, 64, 0);
        let bytes = scratch_snap::to_bytes(&view.suspend());
        let state: EpochState = scratch_snap::from_bytes(&bytes).unwrap();
        let mut view = m.epoch_resume(state);
        view.write_u32(PAGE_BYTES as u64, 22);
        let t_resumed = view.access(AccessKind::VectorLoad, 4000, 64, 10);

        assert_eq!(t_direct, t_resumed);
        let (d_direct, d_resumed) = (direct.suspend(), view.suspend());
        assert_eq!(d_direct, d_resumed);
        m.commit(d_resumed);
        assert_eq!(m.read_words(0, 2), vec![11, 6]);
        assert_eq!(m.read_words(PAGE_BYTES as u64, 1), vec![22]);
    }

    #[test]
    fn memory_checkpoint_state_round_trips() {
        let mut m = SharedMemory::new(3 * PAGE_BYTES, MemTiming::dcd_pm());
        m.set_sharers(2);
        m.prefetch(0, 512).unwrap();
        m.write_words(8, &[1, 2, 3]);
        let mut v = m.epoch();
        v.access(AccessKind::VectorLoad, 4096, 64, 0);
        m.commit(v.suspend());
        let bytes = scratch_snap::to_bytes(&m.checkpoint_state());
        let state: SharedMemory = scratch_snap::from_bytes(&bytes).unwrap();
        let r = SharedMemory::restore_state(&state, m.len()).unwrap();
        assert_eq!(r, m);
        assert!(r.is_prefetched(100));
        // Timing continues identically after restore.
        assert_eq!(
            m.epoch().access(AccessKind::ScalarLoad, 4096, 1, 5),
            r.epoch().access(AccessKind::ScalarLoad, 4096, 1, 5)
        );
    }

    /// The page indices and lengths a checkpoint of `m` lists.
    fn listed_pages(m: &SharedMemory) -> Vec<(u64, usize)> {
        let state = m.checkpoint_state();
        let restored = SharedMemory::restore_state(&state, m.len()).unwrap();
        assert_eq!(
            restored.read_words(0, m.len() / 4),
            m.read_words(0, m.len() / 4)
        );
        state
            .image
            .pages
            .iter()
            .map(|p| (p.index, p.data.len()))
            .collect()
    }

    #[test]
    fn checkpoint_lists_only_non_zero_pages() {
        let mut m = SharedMemory::new(4 * PAGE_BYTES + 100, MemTiming::dcd());
        m.write_words(0, &[0; 16]); // written with zeros
        m.write_words(PAGE_BYTES as u64 + 4, &[0xab]);
        m.write_words(2 * PAGE_BYTES as u64, &[7]); // written, then zeroed again
        m.write_words(2 * PAGE_BYTES as u64, &[0]);
        m.flip_bit(3 * PAGE_BYTES as u64 + 9, 3); // flipped twice
        m.flip_bit(3 * PAGE_BYTES as u64 + 9, 3);
        m.write_words(4 * PAGE_BYTES as u64 + 96, &[0xcd]); // the short final page
        assert_eq!(m.image.pages.len(), 5);
        assert_eq!(listed_pages(&m), vec![(1, PAGE_BYTES), (4, 100)]);
    }

    #[test]
    fn empty_memories_checkpoint_no_pages() {
        assert_eq!(
            listed_pages(&SharedMemory::new(0, MemTiming::dcd())),
            vec![]
        );
        assert_eq!(
            listed_pages(&SharedMemory::new(PAGE_BYTES, MemTiming::dcd())),
            vec![]
        );
        let mut m = SharedMemory::new(0, MemTiming::dcd());
        m.flip_bit(12, 1);
        assert_eq!(listed_pages(&m), vec![]);
    }

    #[test]
    fn restore_state_refuses_a_malformed_image() {
        let mut m = SharedMemory::new(2 * PAGE_BYTES + 100, MemTiming::dcd());
        m.write_words(0, &[1]);
        m.write_words(2 * PAGE_BYTES as u64, &[2]);
        let state = m.checkpoint_state();
        assert!(SharedMemory::restore_state(&state, m.len()).is_ok());
        assert!(SharedMemory::restore_state(&state, 3 * PAGE_BYTES).is_err());
        let page = |index, len| ImagePage {
            index,
            data: vec![1; len],
        };
        for pages in [
            vec![page(3, 100)],                      // outside the memory
            vec![page(2, 100), page(0, PAGE_BYTES)], // out of order
            vec![page(0, 100)],                      // short, not the final page
            vec![page((1 << 52) + 2, PAGE_BYTES)],   // start overflows
        ] {
            let mut bad = state.clone();
            bad.image.pages = pages;
            assert!(matches!(
                SharedMemory::restore_state(&bad, m.len()),
                Err(SystemError::Preemption { .. })
            ));
        }
    }

    #[test]
    fn epoch_respects_bounds_like_base_memory() {
        let mut m = SharedMemory::new(64, MemTiming::original());
        let mut v = m.epoch();
        assert_eq!(v.read_u32(1000), 0);
        v.write_u32(62, 5); // straddles the end: dropped, like the base
        v.write_u32(60, 9);
        m.commit(v.suspend());
        assert_eq!(m.read_words(60, 1), vec![9]);
    }

    /// The little-endian word at `addr` of a flat reference memory, or 0
    /// when the word does not fit (the views' out-of-range rule).
    fn model_word(bytes: &[u8], addr: u64) -> u32 {
        match usize::try_from(addr).ok().filter(|&a| a + 4 <= bytes.len()) {
            Some(a) => u32::from_le_bytes(bytes[a..a + 4].try_into().unwrap()),
            None => 0,
        }
    }

    /// A view access address: aligned, unaligned, straddling a page
    /// boundary, straddling the end, or far past it.
    fn view_addr(rng: &mut StdRng, len: usize) -> u64 {
        let (len, p) = (len as u64, PAGE_BYTES as u64);
        match rng.gen_range(0..5u32) {
            0 => rng.gen_range(0..len / 4 + 1) * 4,
            1 => rng.gen_range(0..len + 8),
            2 => rng.gen_range(1..len / p + 2) * p - rng.gen_range(1..4u64),
            3 => len.saturating_sub(rng.gen_range(0..8u64)),
            _ => rng.gen_range(len..1 << 40),
        }
    }

    /// Checkpoint `mem`, check the image lists exactly the model's
    /// non-zero pages with their bytes, and restore it through the binary
    /// codec.
    fn checkpoint_round_trip(mem: &SharedMemory, model: &[u8]) -> SharedMemory {
        let state = mem.checkpoint_state();
        let nonzero: Vec<u64> = model
            .chunks(PAGE_BYTES)
            .enumerate()
            .filter(|(_, page)| page.iter().any(|&b| b != 0))
            .map(|(i, _)| i as u64)
            .collect();
        let listed: Vec<u64> = state.image.pages.iter().map(|p| p.index).collect();
        assert_eq!(listed, nonzero);
        for page in &state.image.pages {
            let start = page.index as usize * PAGE_BYTES;
            assert_eq!(page.data, model[start..model.len().min(start + PAGE_BYTES)]);
        }
        let back: SharedMemory = scratch_snap::from_bytes(&scratch_snap::to_bytes(&state)).unwrap();
        SharedMemory::restore_state(&back, model.len()).unwrap()
    }

    /// One random stream: host writes, reads and bit flips between
    /// epochs; 1–4 views per epoch reading and writing (in and out of
    /// range), suspended and resumed between turns and committed in CU
    /// order; checkpoints at random points, mid-epoch included.
    fn memory_model_stream(seed: u64) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let len = match rng.gen_range(0..3u32) {
            0 => rng.gen_range(0..64usize),
            1 => 3 * PAGE_BYTES + rng.gen_range(0..20usize),
            _ => rng.gen_range(0..4 * PAGE_BYTES),
        };
        let mut mem = SharedMemory::new(len, MemTiming::dcd());
        let mut model = vec![0u8; len];
        for _ in 0..rng.gen_range(1..6u32) {
            for _ in 0..rng.gen_range(0..8u32) {
                let count = rng.gen_range(0..9usize).min(len / 4);
                let addr = rng.gen_range(0..len - 4 * count + 1) as u64;
                match rng.gen_range(0..4u32) {
                    0 => {
                        let words: Vec<u32> = (0..count)
                            .map(|_| rng.gen::<u32>() * rng.gen_range(0..2u32))
                            .collect();
                        mem.write_words(addr, &words);
                        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                        model[addr as usize..][..bytes.len()].copy_from_slice(&bytes);
                    }
                    1 => {
                        let want: Vec<u32> = (0..count)
                            .map(|i| model_word(&model, addr + 4 * i as u64))
                            .collect();
                        assert_eq!(mem.read_words(addr, count), want);
                    }
                    _ => {
                        // Flipping the same bit twice leaves a zero page.
                        let (at, bit) = (rng.gen::<u64>(), rng.gen_range(0..16u32) as u8);
                        for _ in 0..rng.gen_range(1..3u32) {
                            mem.flip_bit(at, bit);
                            if len > 0 {
                                model[(at % len as u64) as usize] ^= 1 << (bit % 8);
                            }
                        }
                    }
                }
            }
            if rng.gen_range(0..3u32) == 0 {
                mem = checkpoint_round_trip(&mem, &model);
            }
            // One epoch: every view sees the epoch-start contents.
            let n = rng.gen_range(1..5usize);
            let mut states: Vec<Option<EpochState>> =
                (0..n).map(|_| Some(mem.epoch().suspend())).collect();
            let mut copies = vec![model.clone(); n];
            let mut written = vec![vec![false; len]; n];
            for _ in 0..rng.gen_range(0..24u32) {
                if rng.gen_range(0..8u32) == 0 {
                    // A checkpoint of the paused dispatch: the memory and
                    // every suspended view ride the codec.
                    mem = checkpoint_round_trip(&mem, &model);
                    for state in &mut states {
                        let bytes = scratch_snap::to_bytes(state.as_ref().unwrap());
                        *state = Some(scratch_snap::from_bytes(&bytes).unwrap());
                    }
                    continue;
                }
                let i = rng.gen_range(0..n);
                let mut view = mem.epoch_resume(states[i].take().unwrap());
                for _ in 0..rng.gen_range(1..6u32) {
                    let addr = view_addr(rng, len);
                    if rng.gen::<bool>() {
                        assert_eq!(
                            view.read_u32(addr),
                            model_word(&copies[i], addr),
                            "{addr:#x}"
                        );
                    } else {
                        let value = rng.gen::<u32>();
                        view.write_u32(addr, value);
                        if addr as usize + 4 <= len {
                            let a = addr as usize;
                            copies[i][a..a + 4].copy_from_slice(&value.to_le_bytes());
                            written[i][a..a + 4].fill(true);
                        }
                    }
                }
                states[i] = Some(view.suspend());
            }
            for (i, state) in states.into_iter().enumerate() {
                mem.commit(state.unwrap());
                for (b, _) in written[i].iter().enumerate().filter(|(_, &w)| w) {
                    model[b] = copies[i][b];
                }
            }
        }
        checkpoint_round_trip(&mem, &model);
        let words: Vec<u32> = (0..len / 4)
            .map(|i| model_word(&model, 4 * i as u64))
            .collect();
        assert_eq!(mem.read_words(0, len / 4), words);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memory_matches_a_flat_model(seed in 0u64..1_000_000) {
            memory_model_stream(seed);
        }
    }
}
