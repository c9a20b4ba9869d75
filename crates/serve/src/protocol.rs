//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every line the client sends is one serialized [`Request`]; every line
//! the server sends back is one serialized [`Response`]. Messages use
//! serde's externally-tagged enum shape, so a submit line looks like
//!
//! ```json
//! {"Submit": {"tenant": "acme", "label": "job-1", "kernel": {…},
//!             "input": [1, 2, 3], "grid": [2, 1, 1], "out_bytes": 16384,
//!             "system": "dcdpm", "return_output": true}}
//! ```
//!
//! and is answered *immediately* with `{"Accepted": {…}}` or
//! `{"Rejected": {…}}` — the admission decision — and *later*, once the
//! job has run on the engine pool, with `{"Done": {…}}` on the same
//! connection. Accepted jobs always produce exactly one `Done`; rejected
//! submissions never do. Responses to different jobs may interleave in
//! completion order.

use serde::{Deserialize, Serialize};

use scratch_asm::Kernel;
use scratch_system::{ExecMode, SystemKind};

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a kernel for execution.
    Submit(SubmitRequest),
    /// Ask for the server's live statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain: stop admitting, finish every accepted
    /// job, then shut down. The daemon's `serve` loop exits afterwards.
    Drain,
    /// Request cancellation of a previously accepted job. Best-effort:
    /// a queued job is reaped before it starts, a running one stops at
    /// its next preemption quantum boundary. The job's [`Response::Done`]
    /// still arrives (with `ok: false` and error `"cancelled"`), so
    /// accepted jobs always produce exactly one `Done` either way.
    Cancel {
        /// The job id from the matching [`Response::Accepted`].
        job: u64,
    },
    /// Ask for the live SLO/queue introspection view (`scratch-tool ctl
    /// top`): per-tenant queue depths, rolling latency quantiles, shed
    /// ratio, error-budget burn, and the aggregated instruction-usage
    /// profile.
    Top,
}

/// Longest accepted `tenant` or `label` of a [`SubmitRequest`], in bytes.
/// A tenant name becomes a metrics label and a table key, so a longer one
/// is shed with [`RejectReason::TooLarge`].
pub const MAX_NAME_BYTES: usize = 256;

/// The payload of a [`Request::Submit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant this job bills against (quotas and queues are per-tenant).
    pub tenant: String,
    /// Free-form label echoed back in the [`JobDone`].
    pub label: String,
    /// The assembled kernel to execute.
    pub kernel: Kernel,
    /// Input words copied into a fresh buffer; its base address becomes
    /// the second kernel argument. Empty = no input buffer (the kernel
    /// gets only the output base as argument 0).
    pub input: Vec<u32>,
    /// Grid in workgroups, `[x, y, z]`.
    pub grid: [u32; 3],
    /// Bytes of output buffer to allocate; its base address is kernel
    /// argument 0.
    pub out_bytes: u64,
    /// System preset: `"original"`, `"dcd"` or `"dcdpm"` (`None` =
    /// `"dcdpm"`, the paper's baseline).
    pub system: Option<String>,
    /// `true` to ship the full output buffer back in the [`JobDone`];
    /// `false` returns only its [FNV-1a digest](fnv1a) (load-test mode —
    /// the digest still proves bit-identity cheaply).
    pub return_output: bool,
    /// Execution tier: `"cycle"` (cycle-accurate pipeline, the default),
    /// `"fast"` (block-compiled functional tier — jobs that don't read
    /// cycle counts skip the cycle scheduler and report zero cycles), or
    /// `"fast-timing"` (both tiers, cross-checked byte for byte).
    pub exec: Option<String>,
}

impl SubmitRequest {
    /// Resolve the requested system preset.
    ///
    /// # Errors
    ///
    /// An unknown preset name.
    pub fn system_kind(&self) -> Result<SystemKind, String> {
        match self.system.as_deref() {
            None | Some("dcdpm") => Ok(SystemKind::DcdPm),
            Some("dcd") => Ok(SystemKind::Dcd),
            Some("original") => Ok(SystemKind::Original),
            Some(other) => Err(format!("unknown system preset `{other}`")),
        }
    }

    /// Resolve the requested execution tier.
    ///
    /// # Errors
    ///
    /// An unknown tier name.
    pub fn exec_mode(&self) -> Result<ExecMode, String> {
        match self.exec.as_deref() {
            None | Some("cycle") => Ok(ExecMode::Cycle),
            Some("fast") => Ok(ExecMode::Fast),
            Some("fast-timing") => Ok(ExecMode::FastWithTiming),
            Some(other) => Err(format!("unknown exec mode `{other}`")),
        }
    }
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission passed admission control; a [`Response::Done`] with
    /// the same job id will follow.
    Accepted {
        /// Server-assigned job id, unique per server lifetime.
        job: u64,
    },
    /// The submission was shed by admission control — the typed
    /// `429`-style outcome. No job was queued; nothing will follow.
    Rejected(Rejection),
    /// A previously accepted job finished (successfully or not).
    Done(JobDone),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::Drain`]: the server stopped admitting and
    /// will exit once `pending` jobs have completed.
    Draining {
        /// Jobs still queued or running at the time of the request.
        pending: u64,
    },
    /// Answer to [`Request::Cancel`].
    Cancelled {
        /// The job id the cancellation targeted.
        job: u64,
        /// `true` if the job was still live and cancellation was
        /// delivered; `false` when the id is unknown or the job already
        /// completed (its `Done` was produced — too late to cancel).
        cancelled: bool,
    },
    /// Answer to [`Request::Top`].
    Top(TopReply),
    /// The request line could not be parsed or violated the protocol.
    /// The connection stays open.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One tenant's row in a [`TopReply`]: live backlog plus rolling-window
/// SLO telemetry (last 60 s) and the profiler's aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTop {
    /// Tenant name.
    pub tenant: String,
    /// Jobs parked in this tenant's engine queue right now (waiting for
    /// a first or next slice).
    pub queued: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
    /// Completions inside the rolling window.
    pub completed: u64,
    /// Sheds inside the rolling window.
    pub shed: u64,
    /// Rolling median end-to-end latency, µs.
    pub p50_us: u64,
    /// Rolling 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Rolling 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Shed fraction inside the window, 0..=1.
    pub shed_ratio: f64,
    /// Error-budget burn rate (1.0 = burning exactly the allowed rate).
    pub budget_burn: f64,
    /// Dynamic instructions folded into the tenant's aggregated
    /// instruction-usage signature (0 when profiling is off).
    pub instructions: u64,
    /// Name of the minimal trim preset covering the tenant's observed
    /// traffic (`-` until the profiler has seen an instruction).
    pub preset: String,
}

/// Answer to [`Request::Top`]: the live introspection view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopReply {
    /// Jobs waiting in tenant queues right now.
    pub queue_depth: u64,
    /// Jobs executing on engine workers right now.
    pub in_flight: u64,
    /// `true` once a drain has been requested.
    pub draining: bool,
    /// Per-tenant rows, sorted by tenant name.
    pub tenants: Vec<TenantTop>,
}

/// Why a submission was shed, and what the client should do about it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rejection {
    /// The typed shed reason.
    pub reason: RejectReason,
    /// Tenant the decision applied to.
    pub tenant: String,
    /// For rate-limited tenants: how long until the token bucket refills
    /// enough to admit one job.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail.
    pub message: String,
}

/// The typed shed reasons (the protocol's `429` taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant's token bucket is empty (sustained request rate above
    /// its quota). Retry after `retry_after_ms`.
    RateLimited,
    /// The tenant already has its maximum number of jobs queued or
    /// running. Retry after one of them completes.
    TenantQueueFull,
    /// The shared engine queue is at capacity — the server as a whole is
    /// overloaded and sheds regardless of tenant.
    Overloaded,
    /// The server is draining for shutdown and admits nothing new.
    Draining,
    /// The request itself is oversized (kernel or input beyond the
    /// configured limits). Retrying is pointless.
    TooLarge,
    /// The request was malformed (e.g. unknown system preset). Retrying
    /// the same request is pointless.
    Invalid,
    /// The connection sat idle (no request line, no job in flight) past
    /// the server's idle timeout and is being closed. Sent once, best
    /// effort, just before the server drops the connection.
    IdleTimeout,
}

impl RejectReason {
    /// Stable lowercase name (used as the `reason` metrics label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimited => "rate_limited",
            RejectReason::TenantQueueFull => "tenant_queue_full",
            RejectReason::Overloaded => "overloaded",
            RejectReason::Draining => "draining",
            RejectReason::TooLarge => "too_large",
            RejectReason::Invalid => "invalid",
            RejectReason::IdleTimeout => "idle_timeout",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Completion record of one accepted job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDone {
    /// The id from the matching [`Response::Accepted`].
    pub job: u64,
    /// Tenant the job billed against.
    pub tenant: String,
    /// Label from the submission.
    pub label: String,
    /// `true` if the kernel ran to completion.
    pub ok: bool,
    /// Failure description when `ok` is `false` (simulator error,
    /// watchdog trip, …).
    pub error: Option<String>,
    /// Simulated CU cycles of the run (0 on failure).
    pub cycles: u64,
    /// Instructions the run retired (0 on failure).
    pub instructions: u64,
    /// [FNV-1a](fnv1a) digest of the output buffer words.
    pub digest: u64,
    /// The output buffer, present when `return_output` was set.
    pub output: Option<Vec<u32>>,
    /// Microseconds the job waited for a worker after admission.
    pub queue_us: u64,
    /// Microseconds the job spent executing.
    pub exec_us: u64,
    /// Of `exec_us`, the microseconds spent on the checkpoint plane:
    /// capturing + serializing the checkpoints journaled at quantum
    /// expiries (WAL only) and decoding + restoring a replayed job's
    /// checkpoint. `exec_us - snap_us` is pure run time.
    pub snap_us: u64,
    /// Execution slices the job took (1 = never preempted).
    pub slices: u64,
    /// `true` when this completion was produced by write-ahead-log
    /// recovery rather than the admitting connection's lifetime: the job
    /// was re-admitted (or its completion re-derived) after a server
    /// restart. Live completions always carry `false`.
    pub redelivered: bool,
}

/// Per-tenant slice of a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions shed (all reasons).
    pub shed: u64,
    /// Jobs completed (ok and failed).
    pub completed: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
    /// End-to-end latency quantiles in microseconds (admission → done),
    /// `[p50, p95, p99]`; zeros until the first completion.
    pub latency_us: [u64; 3],
}

/// Answer to [`Request::Stats`]: the serving counters at a point in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Total submissions received (admitted + shed).
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions shed (all reasons).
    pub shed: u64,
    /// Jobs completed, successfully or not.
    pub completed: u64,
    /// Completed jobs that failed (simulator error or watchdog).
    pub failed: u64,
    /// Completed jobs that ended via [`Request::Cancel`] (a subset of
    /// `failed`).
    pub cancelled: u64,
    /// Jobs waiting in the engine queue right now.
    pub queue_depth: u64,
    /// Jobs executing on engine workers right now.
    pub in_flight: u64,
    /// Open client connections.
    pub connections: u64,
    /// `true` once a drain has been requested.
    pub draining: bool,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

/// FNV-1a over the little-endian bytes of `words` — the digest `Done`
/// carries so clients can check bit-identity without shipping the buffer.
#[must_use]
pub fn fnv1a(words: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_order_sensitive() {
        assert_ne!(fnv1a(&[1, 2]), fnv1a(&[2, 1]));
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
