//! Serializable snapshots of soft-GPGPU architectural state.
//!
//! A [`CuSnapshot`] captures everything a compute unit needs to resume a
//! paused run at an instruction boundary: per-wave register files (SGPRs,
//! VGPRs), execution and condition masks, program counters, outstanding
//! memory-wait events, per-workgroup LDS and barrier state, scoreboard
//! entries, functional-unit busy times and the CU clock. The structs here
//! are plain data — `scratch-cu` converts to and from its live pipeline
//! state, `scratch-system` wraps them (plus shared-memory state) into a
//! whole-system checkpoint, and everything rides the crate-local serde
//! value model so a snapshot round-trips through JSON *and* through the
//! compact versioned binary form implemented by [`to_bytes`] /
//! [`from_bytes`].
//!
//! The binary codec is a tagged tree encoding of [`serde::Value`] behind a
//! `SNAP` magic and a little-endian `u32` format version; readers reject
//! unknown versions outright ([`SnapError::Version`]) instead of guessing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use serde::{DeError, Deserialize, Map, Serialize, Value};

/// Version stamped into every binary snapshot; bump on any codec or
/// layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every binary snapshot.
pub const MAGIC: [u8; 4] = *b"SNAP";

/// Page granularity of global memory, in bytes: the unit of its sparse
/// page set, of epoch-view copy-on-write and of a [`MemoryImage`].
pub const PAGE_BYTES: usize = 4096;

/// Everything that can go wrong reading a binary snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with the `SNAP` magic.
    Magic,
    /// The format version is not the one this build understands.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The buffer ended mid-value.
    Truncated,
    /// The buffer is structurally invalid (bad tag, overlong varint,
    /// non-UTF-8 string, trailing bytes, excessive nesting).
    Corrupt(String),
    /// The value tree decoded fine but does not match the target type.
    De(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Magic => write!(f, "not a snapshot: bad magic"),
            SnapError::Version { found, expected } => {
                write!(
                    f,
                    "snapshot format v{found} unsupported (expected v{expected})"
                )
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapError::De(msg) => write!(f, "snapshot decode: {msg}"),
        }
    }
}

impl Error for SnapError {}

impl From<DeError> for SnapError {
    fn from(e: DeError) -> SnapError {
        SnapError::De(e.0)
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

// Value tags. `BYTES` is a packing of an `Array` whose elements are all
// `U64` values <= 255 (memory pages, LDS images); it decodes back to the
// equivalent `Array`, so the optimization is invisible above the codec.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;
const TAG_BYTES: u8 = 9;

/// Nesting bound for decoding; snapshots are a handful of levels deep, so
/// anything past this is corrupt input, not data.
const MAX_DEPTH: u32 = 64;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            put_varint(out, *n);
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            put_varint(out, zigzag(*n));
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Array(items) => {
            let small = |it: &Value| matches!(it, Value::U64(n) if *n <= 0xff);
            if !items.is_empty() && items.iter().all(small) {
                out.push(TAG_BYTES);
                put_varint(out, items.len() as u64);
                for it in items {
                    if let Value::U64(n) = it {
                        out.push(*n as u8);
                    }
                }
            } else {
                out.push(TAG_ARRAY);
                put_varint(out, items.len() as u64);
                for it in items {
                    encode_value(out, it);
                }
            }
        }
        Value::Object(map) => {
            out.push(TAG_OBJECT);
            put_varint(out, map.len() as u64);
            for (k, item) in map {
                put_str(out, k);
                encode_value(out, item);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift > 63 || (shift == 63 && b > 1) {
                return Err(SnapError::Corrupt("varint overflow".to_owned()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Bounded length prefix: no legal count exceeds the bytes left, so a
    /// huge prefix is corruption, not a reason to allocate.
    fn count(&mut self) -> Result<usize, SnapError> {
        let n = self.varint()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(SnapError::Truncated);
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, SnapError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("non-UTF-8 string".to_owned()))
    }

    fn value(&mut self, depth: u32) -> Result<Value, SnapError> {
        if depth > MAX_DEPTH {
            return Err(SnapError::Corrupt("nesting too deep".to_owned()));
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => Ok(Value::U64(self.varint()?)),
            TAG_I64 => Ok(Value::I64(unzigzag(self.varint()?))),
            TAG_F64 => {
                let bytes = self.take(8)?;
                let mut raw = [0u8; 8];
                raw.copy_from_slice(bytes);
                Ok(Value::F64(f64::from_le_bytes(raw)))
            }
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_ARRAY => {
                let n = self.count()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_BYTES => {
                let n = self.count()?;
                let bytes = self.take(n)?;
                Ok(Value::Array(
                    bytes.iter().map(|&b| Value::U64(u64::from(b))).collect(),
                ))
            }
            TAG_OBJECT => {
                let n = self.count()?;
                let mut map = Map::new();
                for _ in 0..n {
                    let key = self.string()?;
                    let item = self.value(depth + 1)?;
                    map.insert(key, item);
                }
                Ok(Value::Object(map))
            }
            tag => Err(SnapError::Corrupt(format!("unknown value tag {tag}"))),
        }
    }
}

/// Serialize any serde-capable value into the compact versioned binary
/// form (`SNAP` magic + version header + tagged value tree).
#[must_use]
pub fn to_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    encode_value(&mut out, &value.to_sval());
    out
}

/// Read just the format version out of a snapshot header, without
/// decoding the body. Recovery paths use this to decide whether a durable
/// checkpoint written by an older process is still restorable before
/// spending a full decode on it.
///
/// # Errors
///
/// [`SnapError::Magic`] when the buffer does not open with the `SNAP`
/// magic, [`SnapError::Truncated`] when it is shorter than the header.
pub fn peek_version(bytes: &[u8]) -> Result<u32, SnapError> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(SnapError::Magic);
    }
    if bytes.len() < 8 {
        return Err(SnapError::Truncated);
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&bytes[4..8]);
    Ok(u32::from_le_bytes(ver))
}

/// Parse a binary snapshot produced by [`to_bytes`].
///
/// # Errors
///
/// [`SnapError::Magic`] / [`SnapError::Version`] on a foreign or
/// future-format buffer, [`SnapError::Truncated`] / [`SnapError::Corrupt`]
/// on damaged bytes, [`SnapError::De`] when the tree does not match `T`.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, SnapError> {
    if bytes.len() < 8 {
        return Err(if bytes.len() < 4 || bytes[..4.min(bytes.len())] != MAGIC {
            SnapError::Magic
        } else {
            SnapError::Truncated
        });
    }
    if bytes[..4] != MAGIC {
        return Err(SnapError::Magic);
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&bytes[4..8]);
    let found = u32::from_le_bytes(ver);
    if found != FORMAT_VERSION {
        return Err(SnapError::Version {
            found,
            expected: FORMAT_VERSION,
        });
    }
    let mut reader = Reader { buf: bytes, pos: 8 };
    let value = reader.value(0)?;
    if reader.pos != bytes.len() {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes",
            bytes.len() - reader.pos
        )));
    }
    Ok(T::from_sval(&value)?)
}

// ---------------------------------------------------------------------------
// Sparse memory image
// ---------------------------------------------------------------------------

/// Length of page `index` in a `len`-byte memory: [`PAGE_BYTES`], fewer
/// only for a short final page; `None` when the page lies outside.
#[must_use]
pub fn page_len(index: u64, len: u64) -> Option<usize> {
    let start = index.checked_mul(PAGE_BYTES as u64).filter(|&s| s < len)?;
    Some((len - start).min(PAGE_BYTES as u64) as usize)
}

/// One page of a [`MemoryImage`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImagePage {
    /// Page number (`byte offset / PAGE_BYTES`).
    pub index: u64,
    /// Raw page bytes: [`PAGE_BYTES`] of them, fewer only for the final
    /// page of an image whose length is not a page multiple.
    pub data: Vec<u8>,
}

/// A sparse byte image of a memory: its pages in ascending index order,
/// where an absent page reads as zero. Checkpoints list only the non-zero
/// pages, which keeps them proportional to the data actually touched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryImage {
    /// Total image length in bytes.
    pub len: u64,
    /// The present pages, in ascending index order.
    pub pages: Vec<ImagePage>,
}

impl MemoryImage {
    /// Check that every page lies inside the image, in strictly
    /// ascending order, at its full length (checkpoints are read back
    /// from disk, so indices and lengths are untrusted).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] naming the first malformed page.
    pub fn validate(&self) -> Result<(), SnapError> {
        let mut next = 0;
        for page in &self.pages {
            if page.index < next || page_len(page.index, self.len) != Some(page.data.len()) {
                return Err(SnapError::Corrupt(format!(
                    "image page {} lies outside the image, out of order or at the wrong length",
                    page.index
                )));
            }
            next = page.index + 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Architectural snapshots
// ---------------------------------------------------------------------------

/// One wavefront's full architectural state at an instruction boundary.
///
/// Integer codes mirror `scratch-cu` internals without importing them
/// (this crate sits below the simulator): `state` is 0 = ready,
/// 1 = at-barrier, 2 = done; `wait_reason` indexes the CU's stall-reason
/// table; `pending` maps encoded register keys (see `scratch-cu`) to the
/// cycle their in-flight write completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveSnapshot {
    /// Wave slot index within the CU.
    pub id: u64,
    /// Owning workgroup slot.
    pub workgroup: u64,
    /// Program counter (instruction word index).
    pub pc: u64,
    /// 64-lane execution mask.
    pub exec: u64,
    /// Vector condition code.
    pub vcc: u64,
    /// Scalar condition code.
    pub scc: bool,
    /// Memory-descriptor register.
    pub m0: u32,
    /// Scalar register file.
    pub sgprs: Vec<u32>,
    /// Vector register file; one 64-lane row per allocated VGPR.
    pub vgprs: Vec<Vec<u32>>,
    /// Earliest cycle the wave may issue again.
    pub next_ready: u64,
    /// Index of the stall reason last blamed for a wait.
    pub wait_reason: u8,
    /// Completion cycles of outstanding vector-memory operations.
    pub vm_events: Vec<u64>,
    /// Completion cycles of outstanding LDS/scalar-memory operations.
    pub lgkm_events: Vec<u64>,
    /// Wave state code (0 ready, 1 at-barrier, 2 done).
    pub state: u8,
    /// Instructions retired so far.
    pub retired: u64,
    /// Scoreboard: (encoded register key, ready-at cycle), key-sorted.
    pub pending: Vec<(u32, u64)>,
}

/// One workgroup slot: LDS contents plus barrier bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkgroupSnapshot {
    /// Local data share contents, in words.
    pub lds: Vec<u32>,
    /// Wave slots belonging to this workgroup.
    pub waves: Vec<u64>,
    /// Waves currently arrived at the barrier.
    pub arrived: u64,
}

/// Full architectural state of one compute unit mid-run, capturable at
/// any instruction boundary and sufficient to resume bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuSnapshot {
    /// CU clock at capture.
    pub now: u64,
    /// Round-robin issue pointer.
    pub rr: u64,
    /// Clock value when the (logically single) budgeted run began; drives
    /// the cycle-limit check across pause/resume.
    pub run_start: Option<u64>,
    /// Resident wavefronts, in slot order.
    pub waves: Vec<WaveSnapshot>,
    /// Workgroup slots, in creation order.
    pub workgroups: Vec<WorkgroupSnapshot>,
    /// Cycle the scalar ALU frees up.
    pub salu_busy: u64,
    /// Cycle the load/store unit frees up.
    pub lsu_busy: u64,
    /// Cycle each integer SIMD frees up.
    pub simd_busy: Vec<u64>,
    /// Cycle each floating-point SIMD frees up.
    pub simf_busy: Vec<u64>,
    /// Accumulated stall cycles per reason, indexed like `wait_reason`.
    pub stall_acc: Vec<u64>,
    /// Serialized `CuStats` at capture (kept as a value tree so this
    /// crate stays below `scratch-cu` in the dependency graph).
    pub stats: Value,
    /// Per-PC retire counters at capture (empty unless the CU profiles),
    /// so sliced jobs keep their instruction-usage profile across resume.
    pub pc_counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let bytes = to_bytes(v);
        from_bytes::<Value>(&bytes).expect("round trip")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(i64::MIN),
            Value::I64(-1),
            Value::F64(-1.5),
            Value::Str("héllo".to_owned()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn nested_trees_round_trip() {
        let mut map = Map::new();
        map.insert("a".to_owned(), Value::Array(vec![Value::U64(300)]));
        map.insert("b".to_owned(), Value::Null);
        let v = Value::Array(vec![Value::Object(map), Value::Str(String::new())]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn byte_arrays_pack_and_round_trip() {
        let v = Value::Array((0u64..=255).map(Value::U64).collect());
        let bytes = to_bytes(&v);
        // 8 header + 1 tag + 2 varint count + 256 payload bytes.
        assert_eq!(bytes.len(), 8 + 1 + 2 + 256);
        assert_eq!(bytes[8], TAG_BYTES);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn mixed_arrays_do_not_pack() {
        let v = Value::Array(vec![Value::U64(1), Value::U64(256)]);
        let bytes = to_bytes(&v);
        assert_eq!(bytes[8], TAG_ARRAY);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&Value::U64(7));
        bytes[0] = b'X';
        assert_eq!(from_bytes::<Value>(&bytes), Err(SnapError::Magic));
        assert_eq!(from_bytes::<Value>(b"SN"), Err(SnapError::Magic));
    }

    #[test]
    fn peek_version_reads_the_header_only() {
        let mut bytes = to_bytes(&Value::U64(7));
        assert_eq!(peek_version(&bytes), Ok(FORMAT_VERSION));
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // A future version peeks fine (that's the point) …
        assert_eq!(peek_version(&bytes), Ok(99));
        // … while garbage and short buffers fail without panicking.
        assert_eq!(peek_version(b"nope"), Err(SnapError::Magic));
        assert_eq!(peek_version(b"SNAP\x01"), Err(SnapError::Truncated));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = to_bytes(&Value::U64(7));
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            from_bytes::<Value>(&bytes),
            Err(SnapError::Version {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = to_bytes(&Value::Str("hello world".to_owned()));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Value>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&Value::U64(7));
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_length_prefix_is_truncation_not_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(TAG_ARRAY);
        put_varint(&mut bytes, u64::MAX);
        assert_eq!(from_bytes::<Value>(&bytes), Err(SnapError::Truncated));
    }

    #[test]
    fn memory_image_pages_outside_the_image_are_refused() {
        let page = |index, len| ImagePage {
            index,
            data: vec![1; len],
        };
        let mut image = MemoryImage {
            len: PAGE_BYTES as u64 * 2 + 100,
            pages: vec![page(0, PAGE_BYTES), page(2, 100)],
        };
        assert_eq!(image.validate(), Ok(()));
        for index in [(1 << 52) + 2, 3, u64::MAX] {
            image.pages[0].index = index;
            assert!(
                matches!(image.validate(), Err(SnapError::Corrupt(_))),
                "{index}"
            );
        }
        // Out of order, repeated, or at the wrong length: only the final
        // page of the image may be short, and no page is long.
        for pages in [
            vec![page(2, 100), page(0, PAGE_BYTES)],
            vec![page(0, PAGE_BYTES), page(0, PAGE_BYTES)],
            vec![page(0, 100)],
            vec![page(0, PAGE_BYTES + 1)],
            vec![page(2, 101)],
        ] {
            image.pages = pages;
            assert!(matches!(image.validate(), Err(SnapError::Corrupt(_))));
        }
    }
}
