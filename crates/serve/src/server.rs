//! The daemon: TCP accept loop, per-connection protocol handling,
//! admission control, engine execution, and graceful drain.
//!
//! ## Threading model
//!
//! One accept thread; two threads per connection (a reader that parses
//! request lines and makes admission decisions, and a writer that owns
//! the socket's send side, fed by an mpsc channel); one shared
//! *preemptive* `scratch-engine` pool executing the admitted jobs in
//! preemptible slices; and one router thread that consumes the pool's
//! outcome stream and serializes each [`Response::Done`] into the
//! originating connection's channel. A disconnected client simply makes
//! that send a no-op (the job itself always completes; accepted work is
//! never dropped).
//!
//! ## Preemptive execution
//!
//! A job does not own a worker for its whole run. Each admitted kernel
//! executes in quanta of [`ServeConfig::quantum_cycles`] simulated
//! cycles: when a quantum expires the simulator pauses at an instruction
//! boundary and the job's `System` stays resident in its slice closure;
//! the next slice resumes that same `System`. Between slices the
//! scheduler round-robins across tenants, and a [`Request::Cancel`] takes
//! effect at the next quantum boundary — long kernels can be stopped
//! mid-flight without wedging a worker or blocking a drain.
//!
//! With a write-ahead log ([`ServeConfig::wal`]) every pause also
//! captures the full architectural state as a
//! `scratch_system::SystemCheckpoint`, encodes it in the compact
//! `scratch-snap` binary form and journals it; the running `System` is
//! untouched. A restart restores a replayed job from its newest journaled
//! checkpoint on that job's first slice — the only place serve decodes a
//! checkpoint. Checkpoint/restore is bit-identical (outputs *and* cycle
//! counts), so sliced and resumed served results match offline runs
//! exactly.
//!
//! ## Admission control
//!
//! A submission passes four gates, in order: the server is not draining;
//! the request is well-formed and within size limits; the shared engine
//! queue has room (`queue_cap`) and the tenant is below its own bound
//! (`tenant_cap`); and the tenant's token bucket has a token. Each gate
//! sheds with its own typed [`RejectReason`] so clients can tell "back
//! off" from "give up".

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scratch_engine::{JobError, JobOutcome, PreemptiveEngine, PreemptiveHandle, Slice};
use scratch_metrics::{Counter, Gauge, Histogram, Registry};
use scratch_profile::{
    InstrSignature, JobSpans, SloSnapshot, SloWindow, SpanKind, SpanRecorder, SpanTrack,
};
use scratch_system::{
    check_grid, CuError, DispatchProgress, ExecMode, System, SystemCheckpoint, SystemConfig,
    SystemError, SystemKind,
};
use scratch_wal::{CrashOnAppend, PendingEntry, Record, RecoveryReport, Wal, WalConfig};

use crate::protocol::{
    fnv1a, JobDone, RejectReason, Rejection, Request, Response, StatsReply, SubmitRequest,
    TenantStats, TenantTop, TopReply, MAX_NAME_BYTES,
};
use crate::quota::TokenBucket;

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine pool workers (`0` = one per available core).
    pub workers: usize,
    /// Maximum jobs waiting in the shared engine queue; beyond this every
    /// tenant is shed with [`RejectReason::Overloaded`].
    pub queue_cap: usize,
    /// Maximum jobs one tenant may have queued or running; beyond it the
    /// tenant is shed with [`RejectReason::TenantQueueFull`].
    pub tenant_cap: usize,
    /// Token-bucket refill rate per tenant, jobs/second (`0` disables
    /// rate limiting).
    pub rate: f64,
    /// Token-bucket capacity per tenant (burst allowance).
    pub burst: f64,
    /// Per-job simulated-cycle budget; a kernel that exceeds it resolves
    /// to a failed [`JobDone`] instead of wedging a worker.
    pub watchdog_cycles: u64,
    /// Simulated cycles one execution slice may run before the job pauses
    /// and the worker moves to the next tenant's work. Smaller quanta mean
    /// fairer scheduling and faster cancellation at the cost of more
    /// scheduler round trips (and, with a WAL, more journaled
    /// checkpoints).
    pub quantum_cycles: u64,
    /// Largest accepted input buffer, in words.
    pub max_input_words: usize,
    /// Largest accepted output allocation, in bytes.
    pub max_out_bytes: u64,
    /// Registry the serving metrics publish into (`None` = the
    /// process-global registry).
    pub registry: Option<Registry>,
    /// Record a span timeline (admission → reply) for every job into an
    /// internal recorder, drained via [`Server::take_spans`]. Purely
    /// observational: enabling it changes no reported cycles or outputs.
    pub spans: bool,
    /// Run jobs with the continuous profiler on (per-PC retire counters
    /// in the cycle tier, per-block dispatch counters in the fast tier)
    /// and fold each completed job's [`InstrSignature`] into its
    /// tenant's aggregate. Also purely observational.
    pub profile: bool,
    /// Journal every admission, completion and quantum-boundary
    /// checkpoint into a durable write-ahead log at this location
    /// (`None` = no durability). On bind the log is recovered first:
    /// unfinished jobs are re-admitted (resuming from their newest
    /// durable checkpoint where one exists), completed ones are deduped
    /// by request id, and the torn tail — if a crash landed mid-append —
    /// is truncated. See [`Server::recovery_report`].
    pub wal: Option<WalConfig>,
    /// Close a connection that has sent no request *and* has no job in
    /// flight for this long, shedding it with
    /// [`RejectReason::IdleTimeout`] (`None` = connections may idle
    /// forever, the historical behaviour). Clients blocked on a `Done`
    /// of a long-running job are never idle-closed: in-flight jobs hold
    /// the connection open.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_cap: 256,
            tenant_cap: 64,
            rate: 0.0,
            burst: 32.0,
            watchdog_cycles: scratch_engine::DEFAULT_WATCHDOG_CYCLES,
            quantum_cycles: 200_000,
            max_input_words: 1 << 20,
            max_out_bytes: 64 << 20,
            registry: None,
            spans: false,
            profile: false,
            wal: None,
            idle_timeout: None,
        }
    }
}

/// Registry handles for the serving layer's counters.
struct ServeMetrics {
    submitted: Counter,
    accepted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    shed: [(RejectReason, Counter); 7],
    queue_depth: Gauge,
    in_flight: Gauge,
    connections: Gauge,
    queue_us: Histogram,
}

/// Registry handles for the checkpoint/restore plane: checkpoints
/// journaled at pauses, restores of replayed jobs.
struct SnapMetrics {
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    resume_us: Histogram,
}

impl SnapMetrics {
    fn new(r: &Registry) -> SnapMetrics {
        SnapMetrics {
            checkpoints: r.counter(
                "scratch_snap_checkpoints_total",
                "System checkpoints journaled to the WAL at preemption boundaries",
            ),
            checkpoint_bytes: r.counter(
                "scratch_snap_checkpoint_bytes_total",
                "Serialized checkpoint bytes journaled to the WAL",
            ),
            resume_us: r.histogram(
                "scratch_snap_resume_micros",
                "Microseconds to decode a replayed job's checkpoint and rebuild its system",
            ),
        }
    }
}

/// Registry handles for the durability plane.
struct WalMetrics {
    appends: Counter,
    appended_bytes: Counter,
    fsyncs: Counter,
    append_errors: Counter,
    replayed: Counter,
    resumed: Counter,
    deduped: Counter,
    recovery_ms: Gauge,
}

impl WalMetrics {
    fn new(r: &Registry) -> WalMetrics {
        WalMetrics {
            appends: r.counter(
                "scratch_wal_appends_total",
                "Records appended to the write-ahead log",
            ),
            appended_bytes: r.counter(
                "scratch_wal_appended_bytes_total",
                "Frame bytes appended to the write-ahead log",
            ),
            fsyncs: r.counter(
                "scratch_wal_fsyncs_total",
                "Appends that paid an fsync under the configured policy",
            ),
            append_errors: r.counter(
                "scratch_wal_append_errors_total",
                "Write-ahead log appends that failed (durability degraded)",
            ),
            replayed: r.counter(
                "scratch_wal_replayed_jobs_total",
                "Unfinished jobs re-admitted from the log at startup",
            ),
            resumed: r.counter(
                "scratch_wal_resumed_jobs_total",
                "Replayed jobs that resumed from a durable checkpoint",
            ),
            deduped: r.counter(
                "scratch_wal_deduped_jobs_total",
                "Logged jobs whose completion record suppressed re-execution",
            ),
            recovery_ms: r.gauge(
                "scratch_wal_recovery_ms",
                "Wall-clock milliseconds the last recovery scan took",
            ),
        }
    }
}

/// The serving side of the write-ahead log: a mutex around the writer
/// (appends from the admission path, the router and engine workers are
/// serialized here) plus the `scratch_wal_*` metrics.
struct WalPlane {
    wal: Mutex<Wal>,
    metrics: WalMetrics,
}

impl WalPlane {
    /// Append one record, best effort. A failed append loudly degrades
    /// durability (counter + stderr) rather than wedging the serving
    /// path: the job still runs, it is just no longer replayable.
    fn append(&self, record: &Record) {
        let mut wal = self.wal.lock().expect("wal lock");
        match wal.append(record) {
            Ok(info) => {
                self.metrics.appends.inc();
                self.metrics.appended_bytes.add(info.bytes);
                if info.synced {
                    self.metrics.fsyncs.inc();
                }
            }
            Err(e) => {
                self.metrics.append_errors.inc();
                eprintln!("scratch-serve: wal append failed: {e}");
            }
        }
    }

    /// Force an fsync (drain/shutdown path).
    fn sync(&self) {
        if let Err(e) = self.wal.lock().expect("wal lock").sync() {
            eprintln!("scratch-serve: wal sync failed: {e}");
        }
    }
}

impl ServeMetrics {
    fn new(r: &Registry) -> ServeMetrics {
        let shed_counter = |reason: RejectReason| {
            (
                reason,
                r.counter_with(
                    "scratch_serve_shed_total",
                    "Submissions shed by admission control",
                    &[("reason", reason.name())],
                ),
            )
        };
        ServeMetrics {
            submitted: r.counter(
                "scratch_serve_submitted_total",
                "Submissions received (admitted + shed)",
            ),
            accepted: r.counter(
                "scratch_serve_accepted_total",
                "Submissions admitted to the engine queue",
            ),
            completed: r.counter(
                "scratch_serve_completed_total",
                "Accepted jobs that produced a Done (ok or failed)",
            ),
            failed: r.counter(
                "scratch_serve_failed_total",
                "Completed jobs whose run failed (simulator error or watchdog)",
            ),
            cancelled: r.counter(
                "scratch_serve_cancelled_total",
                "Completed jobs that ended via client cancellation",
            ),
            shed: [
                shed_counter(RejectReason::RateLimited),
                shed_counter(RejectReason::TenantQueueFull),
                shed_counter(RejectReason::Overloaded),
                shed_counter(RejectReason::Draining),
                shed_counter(RejectReason::TooLarge),
                shed_counter(RejectReason::Invalid),
                shed_counter(RejectReason::IdleTimeout),
            ],
            queue_depth: r.gauge(
                "scratch_serve_queue_depth",
                "Admitted jobs waiting for an engine worker",
            ),
            in_flight: r.gauge(
                "scratch_serve_in_flight",
                "Admitted jobs executing right now",
            ),
            connections: r.gauge("scratch_serve_connections", "Open client connections"),
            queue_us: r.histogram(
                "scratch_serve_queue_micros",
                "Microseconds admitted jobs waited for an engine worker",
            ),
        }
    }

    fn shed(&self, reason: RejectReason) -> &Counter {
        &self
            .shed
            .iter()
            .find(|(r, _)| *r == reason)
            .expect("every reason has a counter")
            .1
    }
}

/// SLO gauge handles for one tenant, refreshed from its rolling window
/// at most every [`SLO_REFRESH`].
struct SloGauges {
    p99_us: Gauge,
    shed_ratio: Gauge,
    budget_burn: Gauge,
}

impl SloGauges {
    fn publish(&self, snap: &SloSnapshot) {
        self.p99_us.set(snap.p99_us as f64);
        self.shed_ratio.set(snap.shed_ratio);
        self.budget_burn.set(snap.budget_burn);
    }
}

/// Minimum interval between gauge recomputations from a tenant's rolling
/// window — keeps the per-completion hook O(1) under load.
const SLO_REFRESH: Duration = Duration::from_millis(200);

/// Per-tenant serving state shared by the tenant table and every pending
/// job of the tenant. The registry handles double as the stats source,
/// so counters exist in exactly one place.
struct TenantHandle {
    /// Jobs queued or running (the `tenant_cap` gate).
    in_flight: AtomicU64,
    accepted: Counter,
    completed: Counter,
    shed: Counter,
    /// End-to-end latency, admission → Done, in microseconds.
    latency_us: Histogram,
    /// Rolling SLO window (last 60 s of completions and sheds).
    slo: Mutex<SloWindow>,
    slo_gauges: SloGauges,
    /// The profiler's per-tenant aggregate: every completed job's
    /// signature merged in (stays empty with profiling off).
    signature: Mutex<InstrSignature>,
}

impl TenantHandle {
    fn new(registry: &Registry, name: &str) -> TenantHandle {
        let labels = [("tenant", name)];
        TenantHandle {
            in_flight: AtomicU64::new(0),
            accepted: registry.counter_with(
                "scratch_serve_tenant_accepted_total",
                "Submissions admitted, per tenant",
                &labels,
            ),
            completed: registry.counter_with(
                "scratch_serve_tenant_completed_total",
                "Jobs completed, per tenant",
                &labels,
            ),
            shed: registry.counter_with(
                "scratch_serve_tenant_shed_total",
                "Submissions shed, per tenant",
                &labels,
            ),
            latency_us: registry.histogram_with(
                "scratch_serve_latency_micros",
                "End-to-end job latency (admission to completion), per tenant",
                &labels,
            ),
            slo: Mutex::new(SloWindow::default_serving()),
            slo_gauges: SloGauges {
                p99_us: registry.gauge_with(
                    "scratch_slo_p99_micros",
                    "Rolling-window (60s) p99 end-to-end latency, per tenant",
                    &labels,
                ),
                shed_ratio: registry.gauge_with(
                    "scratch_slo_shed_ratio",
                    "Rolling-window (60s) shed fraction, per tenant",
                    &labels,
                ),
                budget_burn: registry.gauge_with(
                    "scratch_slo_budget_burn",
                    "Error-budget burn rate against the 99% target (1.0 = \
                     burning exactly the allowed rate), per tenant",
                    &labels,
                ),
            },
            signature: Mutex::new(InstrSignature::default()),
        }
    }

    /// Count a shed, record it in the rolling window and refresh the
    /// gauges if due.
    fn note_shed(&self) {
        self.shed.inc();
        let mut slo = self.slo.lock().expect("tenant slo lock");
        slo.record_shed();
        if let Some(snap) = slo.maybe_refresh(SLO_REFRESH) {
            self.slo_gauges.publish(&snap);
        }
    }

    /// Reserve one job slot: the job now counts as queued or running.
    fn reserve(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.accepted.inc();
    }

    /// Settle one finished job: fold its signature in, record its
    /// latency and release its slot.
    fn settle(&self, total_us: u64, signature: Option<InstrSignature>) {
        if let Some(sig) = signature {
            self.signature
                .lock()
                .expect("tenant signature lock")
                .merge(&sig);
        }
        {
            let mut slo = self.slo.lock().expect("tenant slo lock");
            slo.record_latency(total_us);
            if let Some(snap) = slo.maybe_refresh(SLO_REFRESH) {
                self.slo_gauges.publish(&snap);
            }
        }
        self.latency_us.observe(total_us);
        self.completed.inc();
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A tenant-table entry: the token bucket lives under the table lock,
/// everything else in the shared handle.
struct Tenant {
    bucket: TokenBucket,
    handle: Arc<TenantHandle>,
}

/// What a completed run resolves to. (Named to stay clear of
/// `scratch_engine::JobOutcome`, which wraps engine-level delivery.)
struct RunOutcome {
    cycles: u64,
    instructions: u64,
    words: Vec<u32>,
    /// Microseconds spent capturing/serializing journaled checkpoints and
    /// decoding/restoring a replayed one, across all slices.
    snap_us: u64,
    /// Execution slices the run took.
    slices: u64,
    /// The job's instruction-usage signature (profiling on only).
    signature: Option<InstrSignature>,
}

/// What a slice job resolves to: the run's [`RunOutcome`] or a failure
/// description. Cancellation and panics arrive as the outer [`JobError`]
/// instead.
type JobResult = Result<RunOutcome, String>;

/// Everything the router needs to answer and account for one admitted
/// job once its outcome arrives, keyed by engine job id.
struct PendingJob {
    tx: Sender<String>,
    tenant: String,
    label: String,
    return_output: bool,
    admitted: Instant,
    tenant_handle: Arc<TenantHandle>,
    /// The job's span timeline (spans on only); finished at routing.
    track: Option<Arc<SpanTrack>>,
    /// Id this job's WAL records settle under. Equal to the engine id for
    /// live admissions; for jobs re-admitted by recovery it is the
    /// *original* request id, so the completion record dedupes against
    /// the original admission on the next restart.
    wal_id: u64,
    /// `true` for jobs re-admitted from the log (stamped into the
    /// [`JobDone`]).
    redelivered: bool,
    /// The admitting connection's in-flight job count; decremented once
    /// the `Done` is on the writer channel. Holds the idle timeout off
    /// while the client legitimately waits in silence.
    conn_pending: Arc<AtomicU64>,
}

/// State shared by the accept loop, connection threads and the router.
struct Inner {
    config: ServeConfig,
    registry: Registry,
    engine: PreemptiveHandle<JobResult>,
    metrics: ServeMetrics,
    snap: SnapMetrics,
    tenants: Mutex<BTreeMap<String, Tenant>>,
    /// Admitted jobs whose outcome the router has not yet routed. The
    /// admission path holds this lock *across* the engine submit, so the
    /// router can never observe an outcome before its entry exists.
    pending_jobs: Mutex<HashMap<u64, PendingJob>>,
    draining: AtomicBool,
    stop: AtomicBool,
    /// Signalled on every job completion and on drain requests; the value
    /// is `true` once a drain has been requested.
    progress: (Mutex<bool>, Condvar),
    /// Span recorder, present when [`ServeConfig::spans`] is on.
    spans: Option<Arc<SpanRecorder>>,
    /// Durability plane, present when [`ServeConfig::wal`] is set.
    wal: Option<WalPlane>,
}

impl Inner {
    /// The named tenant's entry, created on first sight.
    fn tenant<'t>(&self, tenants: &'t mut BTreeMap<String, Tenant>, name: &str) -> &'t mut Tenant {
        tenants.entry(name.to_owned()).or_insert_with(|| Tenant {
            bucket: TokenBucket::new(self.config.rate, self.config.burst, Instant::now()),
            handle: Arc::new(TenantHandle::new(&self.registry, name)),
        })
    }

    /// Update the backlog gauges from engine introspection.
    fn publish_backlog(&self) {
        self.metrics
            .queue_depth
            .set(self.engine.queue_depth() as f64);
        self.metrics.in_flight.set(self.engine.in_flight() as f64);
    }

    /// Jobs admitted but not yet completed.
    fn pending(&self) -> u64 {
        self.metrics.accepted.get() - self.metrics.completed.get()
    }

    /// Route one engine outcome: build the [`JobDone`], send it down the
    /// originating connection's channel, and settle all accounting. Runs
    /// on the router thread.
    fn route(&self, outcome: JobOutcome<JobResult>) {
        let Some(p) = self
            .pending_jobs
            .lock()
            .expect("pending jobs lock")
            .remove(&outcome.id)
        else {
            return; // unreachable: admission registers before submitting
        };
        let exec_us = micros(outcome.wall);
        let total_us = micros(p.admitted.elapsed());
        // With sliced execution "queue time" is every moment the job was
        // admitted but not on a worker — initial wait plus between-slice
        // parking.
        let queue_us = total_us.saturating_sub(exec_us);
        self.metrics.queue_us.observe(queue_us);
        let cancelled = matches!(outcome.result, Err(JobError::Cancelled));
        let failure = |msg: String| (false, Some(msg), 0, 0, fnv1a(&[]), None, 0, 0, None);
        let (ok, error, cycles, instructions, digest, output, snap_us, slices, signature) =
            match outcome.result {
                Ok(Ok(run)) => (
                    true,
                    None,
                    run.cycles,
                    run.instructions,
                    fnv1a(&run.words),
                    p.return_output.then_some(run.words),
                    run.snap_us,
                    run.slices,
                    run.signature,
                ),
                Ok(Err(msg)) => failure(msg),
                Err(JobError::Cancelled) => failure("cancelled".to_owned()),
                Err(JobError::Panicked(_)) => {
                    failure("job panicked inside the simulator".to_owned())
                }
                Err(other) => failure(other.to_string()),
            };
        // The completion becomes durable *before* the client can observe
        // it: a crash after this append but before the send redelivers a
        // `Done` the client never saw (flagged `redelivered`), never the
        // reverse — an acked `Done` whose job re-runs.
        if let Some(plane) = &self.wal {
            plane.append(&Record::Completed {
                id: p.wal_id,
                ok,
                digest,
                cycles,
                instructions,
                error: error.clone().unwrap_or_default(),
            });
        }
        // Like the WAL append above, all completion accounting settles
        // *before* the Done can reach the client: a client that has its
        // reply in hand must never observe counters that do not yet
        // include it.
        p.tenant_handle.settle(total_us, signature);
        self.metrics.completed.inc();
        if !ok {
            self.metrics.failed.inc();
        }
        if cancelled {
            self.metrics.cancelled.inc();
        }

        let done = JobDone {
            job: outcome.id,
            tenant: p.tenant,
            label: p.label,
            ok,
            error,
            cycles,
            instructions,
            digest,
            output,
            queue_us,
            exec_us,
            snap_us,
            slices,
            redelivered: p.redelivered,
        };
        // A gone client makes this a no-op; the accounting above already
        // ran, so drains never wedge and accepted work is never dropped
        // server-side.
        let line = serde_json::to_string(&Response::Done(done)).expect("JobDone always serializes");
        let _ = p.tx.send(line);
        p.conn_pending.fetch_sub(1, Ordering::AcqRel);
        // Close the span timeline only after the reply hit the writer
        // channel, so the final Reply span covers the routing work too.
        if let Some(track) = &p.track {
            track.finish(outcome.id);
        }
        self.publish_backlog();
        // Wake anyone waiting on drain progress.
        let (lock, cv) = &self.progress;
        let _guard = lock.lock().expect("progress lock");
        cv.notify_all();
    }

    /// The admission decision for one submission. Returns the response to
    /// send immediately; on acceptance the job has already been queued
    /// (its `Done` will follow through `tx`) and — when the WAL is on —
    /// durably journaled, so the `Accepted` ack implies replay-on-crash.
    fn admit(
        self: &Arc<Inner>,
        req: SubmitRequest,
        tx: &Sender<String>,
        conn_pending: &Arc<AtomicU64>,
    ) -> Response {
        self.metrics.submitted.inc();
        if self.draining.load(Ordering::Acquire) {
            return self.reject(
                &req.tenant,
                RejectReason::Draining,
                None,
                "server is draining",
            );
        }
        let kind = match req.system_kind() {
            Ok(kind) => kind,
            Err(msg) => return self.reject(&req.tenant, RejectReason::Invalid, None, &msg),
        };
        if let Err(msg) = req.exec_mode() {
            return self.reject(&req.tenant, RejectReason::Invalid, None, &msg);
        }
        if let Err(e) = check_grid(req.grid, req.kernel.meta().workgroup_size) {
            return self.reject(&req.tenant, RejectReason::Invalid, None, &e.to_string());
        }
        if req.input.len() > self.config.max_input_words {
            let msg = format!(
                "input of {} words exceeds the {}-word limit",
                req.input.len(),
                self.config.max_input_words
            );
            return self.reject(&req.tenant, RejectReason::TooLarge, None, &msg);
        }
        if req.out_bytes > self.config.max_out_bytes {
            let msg = format!(
                "out_bytes {} exceeds the {}-byte limit",
                req.out_bytes, self.config.max_out_bytes
            );
            return self.reject(&req.tenant, RejectReason::TooLarge, None, &msg);
        }
        if req.tenant.len() > MAX_NAME_BYTES || req.label.len() > MAX_NAME_BYTES {
            // The over-long name is not echoed back.
            let msg = format!("tenant or label exceeds the {MAX_NAME_BYTES}-byte limit");
            return self.reject("", RejectReason::TooLarge, None, &msg);
        }

        // Tenant-table gates. The lock covers the bucket mutation and the
        // in-flight reservation, so two racing submissions cannot both
        // squeeze through the last slot.
        let handle = {
            let mut tenants = self.tenants.lock().expect("tenant table lock");
            let t = self.tenant(&mut tenants, &req.tenant);
            let in_flight = t.handle.in_flight.load(Ordering::Acquire);
            let shed = if in_flight >= self.config.tenant_cap as u64 {
                let msg = format!(
                    "tenant has {in_flight} jobs queued or running (cap {})",
                    self.config.tenant_cap
                );
                Some((RejectReason::TenantQueueFull, None, msg))
            } else if self.engine.queue_depth() >= self.config.queue_cap {
                let msg = format!("engine queue at capacity ({} jobs)", self.config.queue_cap);
                Some((RejectReason::Overloaded, None, msg))
            } else if let Err(wait) = t.bucket.try_take(Instant::now()) {
                let ms = wait.as_millis().try_into().unwrap_or(u64::MAX).max(1);
                let msg = format!("tenant over its {}/s rate quota", self.config.rate);
                Some((RejectReason::RateLimited, Some(ms), msg))
            } else {
                None
            };
            if let Some((reason, retry_after_ms, msg)) = shed {
                t.handle.note_shed();
                return self.reject(&req.tenant, reason, retry_after_ms, &msg);
            }
            t.handle.reserve();
            Arc::clone(&t.handle)
        };

        self.metrics.accepted.inc();
        let job = self.launch(
            req,
            kind,
            handle,
            tx.clone(),
            Arc::clone(conn_pending),
            None,
        );
        self.publish_backlog();
        Response::Accepted { job }
    }

    /// Hand one validated submission to the engine and register its
    /// pending entry — the shared tail of live admission ([`Inner::admit`])
    /// and WAL replay ([`Inner::replay`], which passes the [`Replayed`]
    /// origin).
    fn launch(
        self: &Arc<Inner>,
        req: SubmitRequest,
        kind: SystemKind,
        tenant_handle: Arc<TenantHandle>,
        tx: Sender<String>,
        conn_pending: Arc<AtomicU64>,
        replayed: Option<Replayed>,
    ) -> u64 {
        // The timeline opens here, in its Queue (or Replay) span; the job
        // id is bound at routing, once the engine has minted it.
        let track = self.spans.as_ref().map(|r| match replayed {
            Some(_) => r.begin_replayed(&req.tenant, &req.label),
            None => r.begin(&req.tenant, &req.label),
        });
        // Live admissions journal the full submission; replayed jobs are
        // already in the log (replay is idempotent by request id), so
        // they are not re-journaled.
        let payload = (replayed.is_none() && self.wal.is_some()).then(|| {
            serde_json::to_string(&req)
                .expect("SubmitRequest always serializes")
                .into_bytes()
        });
        let admitted = Instant::now();
        let engine_label = format!("{}/{}", req.tenant, req.label);
        let tenant = req.tenant.clone();
        let label = req.label.clone();
        let return_output = req.return_output;
        let (wal_id, resume) = match replayed {
            Some(r) => (Some(r.id), r.checkpoint),
            None => (None, None),
        };
        let mut served = ServedJob {
            inner: Arc::clone(self),
            req,
            kind,
            wal_id,
            track: track.clone(),
            sys: None,
            resume,
            out_addr: 0,
            snap_us: 0,
        };
        let work = move |job: u64, slice: u64| -> Slice<JobResult> {
            match served.run_slice(job, slice) {
                Ok(SliceStep::Paused) => Slice::Yield,
                Ok(SliceStep::Finished(run)) => Slice::Done(Ok(Ok(run))),
                Err(msg) => Slice::Done(Ok(Err(msg))),
            }
        };
        conn_pending.fetch_add(1, Ordering::AcqRel);
        // Register the pending entry under the same critical section as
        // the submit, so the router can't race us to the outcome — and
        // journal the admission there too, so a job's Admitted record
        // always precedes its Completed record in the log.
        let mut pending = self.pending_jobs.lock().expect("pending jobs lock");
        let id = self
            .engine
            .submit_with_id(tenant.clone(), engine_label, work);
        if let (Some(payload), Some(plane)) = (payload, &self.wal) {
            plane.append(&Record::Admitted {
                id,
                tenant: tenant.clone(),
                label: label.clone(),
                payload,
            });
        }
        pending.insert(
            id,
            PendingJob {
                tx,
                tenant,
                label,
                return_output,
                admitted,
                tenant_handle,
                track,
                wal_id: wal_id.unwrap_or(id),
                redelivered: wal_id.is_some(),
                conn_pending,
            },
        );
        id
    }

    /// Re-admit every unfinished job recovery found in the write-ahead
    /// log, in original admission order. Runs once at bind, after the
    /// router thread is live.
    fn replay(self: &Arc<Inner>, entries: Vec<PendingEntry>) {
        for entry in entries {
            let req: SubmitRequest = match std::str::from_utf8(&entry.payload)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
            {
                Ok(req) => req,
                Err(e) => {
                    self.dead_letter(entry.id, &format!("payload decode failed: {e}"));
                    continue;
                }
            };
            let kind = match req.system_kind() {
                Ok(kind) => kind,
                Err(msg) => {
                    self.dead_letter(entry.id, &msg);
                    continue;
                }
            };
            if let Err(msg) = req.exec_mode() {
                self.dead_letter(entry.id, &msg);
                continue;
            }
            if let Err(e) = check_grid(req.grid, req.kernel.meta().workgroup_size) {
                self.dead_letter(entry.id, &e.to_string());
                continue;
            }
            // A checkpoint from a foreign snap format version is dropped
            // (the job re-runs from scratch, still exactly-once); same-
            // version bytes resume mid-kernel.
            let checkpoint =
                entry
                    .checkpoint
                    .and_then(|(addr, snap)| match scratch_snap::peek_version(&snap) {
                        Ok(v) if v == scratch_snap::FORMAT_VERSION => Some((addr, snap)),
                        peek => {
                            eprintln!(
                                "scratch-serve: wal replay: job {} checkpoint unusable \
                             ({peek:?}); re-running from scratch",
                                entry.id
                            );
                            None
                        }
                    });
            // Replay bypasses the admission gates — these jobs were
            // already admitted and acked in a previous lifetime — but
            // still reserves tenant capacity, so live admission sees the
            // recovered backlog.
            let handle = {
                let mut tenants = self.tenants.lock().expect("tenant table lock");
                let t = self.tenant(&mut tenants, &req.tenant);
                t.handle.reserve();
                Arc::clone(&t.handle)
            };
            self.metrics.accepted.inc();
            // No connection owns a replayed job: its Done goes to a dead
            // channel (while still being journaled and accounted), its
            // in-flight count to a throwaway counter.
            let (tx, _) = channel::<String>();
            self.launch(
                req,
                kind,
                handle,
                tx,
                Arc::new(AtomicU64::new(0)),
                Some(Replayed {
                    id: entry.id,
                    checkpoint,
                }),
            );
        }
        self.publish_backlog();
    }

    /// A logged job that can no longer be replayed (undecodable payload
    /// or an invalid request): journal a failed completion under its id
    /// so the next recovery dedupes it instead of tripping over it again.
    fn dead_letter(&self, id: u64, why: &str) {
        eprintln!("scratch-serve: wal replay: job {id} dropped: {why}");
        if let Some(plane) = &self.wal {
            plane.append(&Record::Completed {
                id,
                ok: false,
                digest: 0,
                cycles: 0,
                instructions: 0,
                error: format!("unreplayable: {why}"),
            });
        }
    }

    fn reject(
        &self,
        tenant: &str,
        reason: RejectReason,
        retry_after_ms: Option<u64>,
        message: &str,
    ) -> Response {
        self.metrics.shed(reason).inc();
        Response::Rejected(Rejection {
            reason,
            tenant: tenant.to_owned(),
            retry_after_ms,
            message: message.to_owned(),
        })
    }

    fn stats(&self) -> StatsReply {
        let tenants = self.tenants.lock().expect("tenant table lock");
        let mut out = Vec::with_capacity(tenants.len());
        for (name, t) in tenants.iter() {
            let snap = t.handle.latency_us.snapshot();
            let q = |p: f64| snap.quantile(p).unwrap_or(0);
            out.push(TenantStats {
                tenant: name.clone(),
                accepted: t.handle.accepted.get(),
                shed: t.handle.shed.get(),
                completed: t.handle.completed.get(),
                in_flight: t.handle.in_flight.load(Ordering::Acquire),
                latency_us: [q(0.50), q(0.95), q(0.99)],
            });
        }
        let m = &self.metrics;
        StatsReply {
            submitted: m.submitted.get(),
            accepted: m.accepted.get(),
            shed: m.shed.iter().map(|(_, c)| c.get()).sum(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            cancelled: m.cancelled.get(),
            queue_depth: self.engine.queue_depth() as u64,
            in_flight: self.engine.in_flight() as u64,
            connections: m.connections.get() as u64,
            draining: self.draining.load(Ordering::Acquire),
            tenants: out,
        }
    }

    /// The live introspection view behind `scratch-tool ctl top`.
    fn top(&self) -> TopReply {
        let mut queued: HashMap<String, u64> = HashMap::new();
        for (tenant, depth) in self.engine.tenant_queue_depths() {
            *queued.entry(tenant).or_default() += depth as u64;
        }
        let tenants = self.tenants.lock().expect("tenant table lock");
        let mut rows = Vec::with_capacity(tenants.len());
        for (name, t) in tenants.iter() {
            let slo = t.handle.slo.lock().expect("tenant slo lock").snapshot();
            let (instructions, preset) = {
                let sig = t.handle.signature.lock().expect("tenant signature lock");
                if sig.is_empty() {
                    (0, "-".to_owned())
                } else {
                    (sig.instructions(), sig.minimal_preset().0)
                }
            };
            rows.push(TenantTop {
                tenant: name.clone(),
                queued: queued.get(name).copied().unwrap_or(0),
                in_flight: t.handle.in_flight.load(Ordering::Acquire),
                completed: slo.completed,
                shed: slo.shed,
                p50_us: slo.p50_us,
                p95_us: slo.p95_us,
                p99_us: slo.p99_us,
                shed_ratio: slo.shed_ratio,
                budget_burn: slo.budget_burn,
                instructions,
                preset,
            });
        }
        TopReply {
            queue_depth: self.engine.queue_depth() as u64,
            in_flight: self.engine.in_flight() as u64,
            draining: self.draining.load(Ordering::Acquire),
            tenants: rows,
        }
    }

    /// Handle one parsed request; returns the immediate response.
    fn dispatch(
        self: &Arc<Inner>,
        req: Request,
        tx: &Sender<String>,
        conn_pending: &Arc<AtomicU64>,
    ) -> Response {
        match req {
            Request::Submit(submit) => self.admit(submit, tx, conn_pending),
            Request::Stats => Response::Stats(self.stats()),
            Request::Top => Response::Top(self.top()),
            Request::Ping => Response::Pong,
            Request::Drain => {
                self.draining.store(true, Ordering::Release);
                let (lock, cv) = &self.progress;
                let mut requested = lock.lock().expect("progress lock");
                *requested = true;
                cv.notify_all();
                Response::Draining {
                    pending: self.pending(),
                }
            }
            Request::Cancel { job } => Response::Cancelled {
                job,
                cancelled: self.engine.cancel(job),
            },
        }
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

/// A job recovered from the write-ahead log: the request id its records
/// settle under, and its newest usable checkpoint `(out_addr, snap)`.
struct Replayed {
    id: u64,
    checkpoint: Option<(u64, Vec<u8>)>,
}

/// What one execution slice produced.
enum SliceStep {
    /// The quantum expired; the resident system resumes next slice.
    Paused,
    /// The kernel completed.
    Finished(RunOutcome),
}

/// Build the completed job's instruction-usage signature from whichever
/// tier ran it: the cycle tier's accumulated per-PC retire counters, or
/// the fast tier's per-block dispatch counters. Block attribution comes
/// from the fastpath translator's static block table either way; a kernel
/// the translator rejects outright simply yields no signature.
fn build_signature(req: &SubmitRequest, kind: SystemKind, sys: &System) -> Option<InstrSignature> {
    if let Some(stats) = sys.fast_stats(0) {
        let blocks = sys.fast_block_profiles(0)?;
        return Some(InstrSignature::from_block_dispatches(
            &req.label,
            &blocks,
            &stats.block_dispatches,
        ));
    }
    let config = SystemConfig::preset(kind);
    let prog = scratch_fastpath::translate(&req.kernel, &config.cu).ok()?;
    Some(InstrSignature::from_pc_counts(
        &req.label,
        &prog.block_profiles(),
        sys.pc_profile(0),
    ))
}

/// One served job's execution state, owned by its slice closure. The
/// first slice builds the job's `System` ([`build_system`]) — or, for a
/// job replayed with a checkpoint, restores it from the log — and every
/// later slice resumes that same resident `System`.
struct ServedJob {
    inner: Arc<Inner>,
    req: SubmitRequest,
    kind: SystemKind,
    /// Id the WAL records settle under (`None` = the engine id).
    wal_id: Option<u64>,
    track: Option<Arc<SpanTrack>>,
    /// The live system between quanta (`None` before the first slice).
    sys: Option<System>,
    /// A replayed job's recovered checkpoint, consumed by the first slice.
    resume: Option<(u64, Vec<u8>)>,
    /// Base address of the output buffer (kernel argument 0).
    out_addr: u64,
    /// Microseconds spent capturing journaled checkpoints and restoring
    /// a replayed one.
    snap_us: u64,
}

impl ServedJob {
    /// Run one quantum on the calling engine worker. A cycle-tier job
    /// pauses at each quantum boundary and stays resident; with a WAL the
    /// pause also journals a checkpoint, so a restart resumes mid-kernel.
    /// A fast-tier job (no checkpointable state) completes in its first
    /// slice.
    fn run_slice(&mut self, job: u64, slice: u64) -> Result<SliceStep, String> {
        let config = &self.inner.config;
        let watchdog = config.watchdog_cycles;
        let quantum = config.quantum_cycles.max(1);
        let map_err = |e: SystemError| match e {
            SystemError::Cu(CuError::CycleLimit { .. }) => {
                format!("watchdog: job exceeded its {watchdog}-cycle budget")
            }
            other => other.to_string(),
        };
        let track = self.track.as_deref();
        let mark = |kind: SpanKind| {
            if let Some(t) = track {
                t.mark(kind);
            }
        };
        let req = &self.req;
        let registry = &self.inner.registry;
        let (sys, progress) = match (self.sys.take(), self.resume.take()) {
            (Some(mut sys), _) => {
                mark(SpanKind::Run);
                let progress = sys.resume_dispatch(quantum);
                (sys, progress)
            }
            (None, Some((out_addr, bytes))) => {
                mark(SpanKind::Restore);
                let resume_start = Instant::now();
                let ck: SystemCheckpoint = scratch_snap::from_bytes(&bytes)
                    .map_err(|e| format!("checkpoint decode failed: {e}"))?;
                let mut sys = System::restore(&ck, Some(registry.clone())).map_err(map_err)?;
                sys.set_job_id(job);
                self.out_addr = out_addr;
                let restore_us = micros(resume_start.elapsed());
                self.inner.snap.resume_us.observe(restore_us);
                self.snap_us += restore_us;
                mark(SpanKind::Run);
                let progress = sys.resume_dispatch(quantum);
                (sys, progress)
            }
            (None, None) => {
                mark(SpanKind::Run);
                let exec = req.exec_mode().map_err(|e| e.to_string())?;
                let profile = config.profile;
                let (mut sys, out_addr) =
                    build_system(req, self.kind, exec, registry, watchdog, profile, job)
                        .map_err(map_err)?;
                self.out_addr = out_addr;
                let progress = sys.dispatch_preemptible(req.grid, quantum);
                (sys, progress)
            }
        };
        match progress.map_err(map_err)? {
            DispatchProgress::Paused => {
                if let Some(plane) = &self.inner.wal {
                    mark(SpanKind::Capture);
                    let capture_start = Instant::now();
                    let snap = scratch_snap::to_bytes(&sys.checkpoint().map_err(map_err)?);
                    self.snap_us += micros(capture_start.elapsed());
                    self.inner.snap.checkpoints.inc();
                    self.inner.snap.checkpoint_bytes.add(snap.len() as u64);
                    mark(SpanKind::Queue);
                    plane.append(&Record::Checkpoint {
                        id: self.wal_id.unwrap_or(job),
                        out_addr: self.out_addr,
                        snap,
                    });
                } else {
                    mark(SpanKind::Queue);
                }
                // Resident until the scheduler's next turn.
                self.sys = Some(sys);
                Ok(SliceStep::Paused)
            }
            DispatchProgress::Complete { .. } => {
                let report = sys.report();
                let words = sys.read_words(
                    self.out_addr,
                    usize::try_from(req.out_bytes.max(4) / 4).unwrap_or(0),
                );
                let signature = config
                    .profile
                    .then(|| build_signature(req, self.kind, &sys))
                    .flatten();
                mark(SpanKind::Reply);
                Ok(SliceStep::Finished(RunOutcome {
                    cycles: report.cu_cycles,
                    instructions: report.instructions(),
                    words,
                    snap_us: self.snap_us,
                    slices: slice + 1,
                    signature,
                }))
            }
        }
    }
}

/// Build a fresh system for a submission's first slice, mirroring a
/// direct `scratch-system` run exactly: the preset with the watchdog's
/// cycle cap, the output buffer allocated first (its base is argument 0),
/// then the optional input words (argument 1). Returns the system and the
/// output base address.
fn build_system(
    req: &SubmitRequest,
    kind: SystemKind,
    exec: ExecMode,
    registry: &Registry,
    watchdog: u64,
    profile: bool,
    job: u64,
) -> Result<(System, u64), SystemError> {
    let mut config = SystemConfig::preset(kind)
        .with_registry(registry.clone())
        .with_exec(exec)
        .with_profile(profile);
    config.cu.cycle_limit = config.cu.cycle_limit.min(watchdog.max(1));
    let mut sys = System::new(config, &req.kernel)?;
    sys.set_job_id(job);
    let out = sys.alloc(req.out_bytes.max(4));
    let mut args = vec![u32::try_from(out).unwrap_or(0)];
    if !req.input.is_empty() {
        let inp = sys.alloc_words(&req.input);
        args.push(u32::try_from(inp).unwrap_or(0));
    }
    sys.set_args(&args);
    Ok((sys, out))
}

/// The router loop: consume engine outcomes and answer/settle each one.
/// Exits once the server is stopping and nothing is pending.
fn router(inner: &Arc<Inner>) {
    loop {
        if let Some(outcome) = inner.engine.recv_timeout(Duration::from_millis(100)) {
            inner.route(outcome);
            continue;
        }
        if inner.stop.load(Ordering::Acquire)
            && inner
                .pending_jobs
                .lock()
                .expect("pending jobs lock")
                .is_empty()
        {
            return;
        }
    }
}

/// A running serve daemon. [`Server::shutdown`] (or a client's
/// [`Request::Drain`] followed by [`Server::wait_drain`] +
/// [`Server::shutdown`]) drains gracefully: admission stops, every
/// accepted job completes and is answered, then the listener and all
/// threads wind down.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    router_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port) and start serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| scratch_metrics::global().clone());
        // Open and recover the WAL *before* the engine exists: recovery's
        // `next_id` seeds the engine's id space, so restarted processes
        // never re-mint an id a previous lifetime already acked.
        let mut recovered = None;
        let wal = match config.wal.clone() {
            Some(wal_config) => {
                let (mut wal, recovery) = Wal::open(wal_config).map_err(|e| match e {
                    scratch_wal::WalError::Io(io) => io,
                    other => io::Error::other(other.to_string()),
                })?;
                // Test-only chaos hook: SCRATCH_WAL_CRASH=<append>:<keep>
                // tears that append after <keep> bytes and aborts the
                // process — the chaos harness's mid-append crash. Never
                // set it in production.
                if let Ok(spec) = std::env::var("SCRATCH_WAL_CRASH") {
                    if let Some(hook) = CrashOnAppend::parse(&spec) {
                        eprintln!(
                            "scratch-serve: SCRATCH_WAL_CRASH={spec} installed \
                             (test-only crash fault)"
                        );
                        wal.set_fault_hook(Box::new(hook));
                    }
                }
                let metrics = WalMetrics::new(&registry);
                let report = &recovery.report;
                metrics.replayed.add(report.replayed);
                metrics.resumed.add(report.resumed);
                metrics.deduped.add(report.deduped);
                metrics.recovery_ms.set(report.recovery_ms as f64);
                recovered = Some(recovery);
                Some(WalPlane {
                    wal: Mutex::new(wal),
                    metrics,
                })
            }
            None => None,
        };
        let first_id = recovered.as_ref().map_or(0, |r| r.next_id);
        let engine = PreemptiveEngine::new(config.workers)
            .with_registry(registry.clone())
            .with_first_id(first_id)
            .start();
        let spans = config.spans.then(SpanRecorder::new);
        let inner = Arc::new(Inner {
            metrics: ServeMetrics::new(&registry),
            snap: SnapMetrics::new(&registry),
            config,
            registry,
            engine,
            tenants: Mutex::new(BTreeMap::new()),
            pending_jobs: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            progress: (Mutex::new(false), Condvar::new()),
            spans,
            wal,
        });
        let router_inner = Arc::clone(&inner);
        let router_thread = std::thread::Builder::new()
            .name("scratch-serve-route".to_owned())
            .spawn(move || router(&router_inner))
            .expect("spawn router thread");
        // Re-admit the recovered backlog with the router already live, so
        // replayed completions route (to dead channels) like any other.
        let recovery = recovered.map(|r| {
            inner.replay(r.pending);
            r.report
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept_inner = Arc::clone(&inner);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("scratch-serve-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_inner.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_inner = Arc::clone(&accept_inner);
                    let handle = std::thread::Builder::new()
                        .name("scratch-serve-conn".to_owned())
                        .spawn(move || connection(&conn_inner, stream))
                        .expect("spawn connection thread");
                    accept_conns.lock().expect("conns lock").push(handle);
                }
            })
            .expect("spawn accept thread");
        Ok(Server {
            inner,
            addr,
            accept_thread: Some(accept_thread),
            router_thread: Some(router_thread),
            conns,
            recovery,
        })
    }

    /// What WAL recovery did at bind: `None` without a WAL (or on a
    /// fresh, empty log directory the report is all zeros — still
    /// `Some`). The same numbers land on the `scratch_wal_*` metrics.
    #[must_use]
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving statistics.
    #[must_use]
    pub fn stats(&self) -> StatsReply {
        self.inner.stats()
    }

    /// The live introspection view ([`Request::Top`]'s payload).
    #[must_use]
    pub fn top(&self) -> TopReply {
        self.inner.top()
    }

    /// Drain the span timelines of every job finished so far. Empty when
    /// [`ServeConfig::spans`] is off (or between completions).
    #[must_use]
    pub fn take_spans(&self) -> Vec<JobSpans> {
        self.inner
            .spans
            .as_ref()
            .map(|r| r.take_finished())
            .unwrap_or_default()
    }

    /// A handle on the span recorder (when [`ServeConfig::spans`] is on)
    /// that outlives [`Server::shutdown`], so timelines of jobs that
    /// finish during the drain can still be collected.
    #[must_use]
    pub fn span_recorder(&self) -> Option<Arc<SpanRecorder>> {
        self.inner.spans.clone()
    }

    /// Snapshot of every tenant's aggregated instruction-usage signature
    /// (empty signatures elided). Populated only with
    /// [`ServeConfig::profile`] on.
    #[must_use]
    pub fn tenant_signatures(&self) -> Vec<(String, InstrSignature)> {
        let tenants = self.inner.tenants.lock().expect("tenant table lock");
        tenants
            .iter()
            .filter_map(|(name, t)| {
                let sig = t.handle.signature.lock().expect("tenant signature lock");
                (!sig.is_empty()).then(|| (name.clone(), sig.clone()))
            })
            .collect()
    }

    /// Block until some client requests a drain ([`Request::Drain`]).
    /// The daemon's main loop parks here, then calls [`Server::shutdown`].
    pub fn wait_drain(&self) {
        let (lock, cv) = &self.inner.progress;
        let mut requested = lock.lock().expect("progress lock");
        while !*requested {
            requested = cv.wait(requested).expect("progress lock");
        }
    }

    /// Drain and stop: reject new submissions, wait for every accepted
    /// job to complete and be answered, then tear the listener, the
    /// connection threads and the engine pool down. Returns the final
    /// statistics.
    pub fn shutdown(mut self) -> StatsReply {
        self.inner.draining.store(true, Ordering::Release);
        // Wait for the backlog to drain. Completion closures signal the
        // condvar; the timeout makes the loop robust to missed wakeups.
        {
            let (lock, cv) = &self.inner.progress;
            let mut guard = lock.lock().expect("progress lock");
            while self.inner.pending() > 0 {
                let (g, _) = cv
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("progress lock");
                guard = g;
            }
        }
        let stats = self.inner.stats();
        // The backlog is drained; make its completion records durable
        // before tearing anything down.
        if let Some(plane) = &self.inner.wal {
            plane.sync();
        }

        // Stop the accept loop (one last self-connection unblocks it) and
        // the connection readers (they poll `stop` on their read timeout).
        self.inner.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.conns.lock().expect("conns lock").drain(..) {
            let _ = t.join();
        }
        // The router exits once `stop` is set and no job is pending.
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
        stats
        // Dropping `inner` (last Arc) drops the PreemptiveHandle, which
        // shuts down and joins the now-idle pool workers.
    }
}

/// Cap on one request line; a line that exceeds it earns a protocol error
/// (64 MiB comfortably fits the largest legal kernel + input).
const MAX_LINE_BYTES: usize = 64 << 20;

/// One connection: reader side. Parses request lines, answers through the
/// writer channel, and exits on EOF, socket error, or server stop.
fn connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    inner.metrics.connections.inc();

    let (tx, rx) = channel::<String>();
    let writer = std::thread::Builder::new()
        .name("scratch-serve-write".to_owned())
        .spawn(move || {
            let mut stream = write_half;
            while let Ok(line) = rx.recv() {
                if stream.write_all(line.as_bytes()).is_err()
                    || stream.write_all(b"\n").is_err()
                    || stream.flush().is_err()
                {
                    break; // client gone; drain silently until senders drop
                }
            }
        })
        .expect("spawn writer thread");

    // Jobs this connection admitted whose Done has not been sent yet —
    // the idle-timeout gate (a silently waiting client is not idle).
    let conn_pending = Arc::new(AtomicU64::new(0));
    read_loop(inner, stream, &tx, &conn_pending);

    inner.metrics.connections.dec();
    drop(tx);
    // The writer exits once every sender is gone — ours just dropped, and
    // job closures drop theirs at completion (a drain has already waited
    // for those by the time the server joins us).
    let _ = writer.join();
}

/// Read request lines, tolerating arbitrarily short reads, and dispatch
/// them. Malformed lines answer [`Response::Error`] and keep the
/// connection open. With [`ServeConfig::idle_timeout`] set, a connection
/// that goes silent with nothing in flight is shed with
/// [`RejectReason::IdleTimeout`] and closed, so abandoned sockets stop
/// pinning reader/writer threads forever.
fn read_loop(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    tx: &Sender<String>,
    conn_pending: &Arc<AtomicU64>,
) {
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut last_activity = Instant::now();
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if conn_pending.load(Ordering::Acquire) > 0 {
                    // Awaiting a Done: legitimately silent, not idle.
                    last_activity = Instant::now();
                } else if let Some(idle) = inner.config.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        inner.metrics.shed(RejectReason::IdleTimeout).inc();
                        respond(
                            tx,
                            &Response::Rejected(Rejection {
                                reason: RejectReason::IdleTimeout,
                                tenant: String::new(),
                                retry_after_ms: None,
                                message: format!(
                                    "connection idle past the {} ms timeout",
                                    idle.as_millis()
                                ),
                            }),
                        );
                        return;
                    }
                }
                continue;
            }
            Err(_) => return,
        };
        last_activity = Instant::now();
        acc.extend_from_slice(&chunk[..n]);
        if acc.len() > MAX_LINE_BYTES {
            respond(
                tx,
                &Response::Error {
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                },
            );
            return;
        }
        // Process every complete line in the accumulator.
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=pos).collect();
            let line = &line[..line.len() - 1]; // strip the newline
            let line = std::str::from_utf8(line).unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let response = match serde_json::from_str::<Request>(line) {
                Ok(req) => inner.dispatch(req, tx, conn_pending),
                Err(e) => Response::Error {
                    message: format!("malformed request: {e}"),
                },
            };
            respond(tx, &response);
        }
    }
}

fn respond(tx: &Sender<String>, response: &Response) {
    let line = serde_json::to_string(response).expect("responses always serialize");
    let _ = tx.send(line);
}
