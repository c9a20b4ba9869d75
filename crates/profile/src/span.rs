//! End-to-end job spans: the wall-to-wall timeline of one served job.
//!
//! A [`SpanTrack`] is minted at serve admission ([`SpanRecorder::begin`])
//! and advanced with [`SpanTrack::mark`] at every state change — queue
//! wait, checkpoint restore, execution slice, snapshot capture, reply.
//! `mark` closes the open span at the same instant it opens the next, so
//! the finished sequence tiles the job's lifetime *exactly*: no gaps, no
//! overlaps, by construction rather than by bookkeeping discipline
//! ([`JobSpans::check_tiling`] verifies the invariant anyway, and a
//! property test hammers it).
//!
//! Timelines export as JSONL (one [`JobSpans`] per line, [`to_jsonl`]) or
//! as Chrome `trace_event` tracks ([`to_chrome`]) that sit alongside the
//! `scratch-trace` CU/engine processes in the same viewer, correlated
//! through the shared job id.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use scratch_trace::chrome;
use serde::value::{Map, Value};
use serde::{Deserialize, Serialize};

/// What a job was doing during one span of its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// Waiting in the tenant queue (also the inter-slice wait while the
    /// job's checkpoint sits on the shelf).
    Queue,
    /// Deserialising and restoring a checkpoint at slice entry.
    Restore,
    /// Executing on a worker.
    Run,
    /// Capturing and serialising a checkpoint at quantum expiry.
    Capture,
    /// Writing the response back to the client.
    Reply,
    /// Re-admission from the write-ahead log after a restart: the span
    /// from recovery scan to the job's re-entry into the queue. Only
    /// replayed jobs open with it; live admissions open with `Queue`.
    Replay,
}

impl SpanKind {
    /// Stable lowercase label (JSONL field values, Chrome slice names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Restore => "restore",
            SpanKind::Run => "run",
            SpanKind::Capture => "capture",
            SpanKind::Reply => "reply",
            SpanKind::Replay => "replay",
        }
    }
}

/// One contiguous stretch of a job's lifetime, in microseconds since the
/// recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// What the job was doing.
    pub kind: SpanKind,
    /// Start, µs since the recorder epoch.
    pub start_us: u64,
    /// End, µs since the recorder epoch; `end_us >= start_us`.
    pub end_us: u64,
}

impl Span {
    /// Span duration in microseconds.
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A finished job's complete timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpans {
    /// Serving-layer job id (matches the `job` field on trace events).
    pub job: u64,
    /// Tenant the job belongs to.
    pub tenant: String,
    /// Kernel label the job ran.
    pub label: String,
    /// The timeline, in order; tiles `[spans[0].start_us,
    /// spans.last().end_us]` exactly.
    pub spans: Vec<Span>,
}

impl JobSpans {
    /// Verify the exact-tiling invariant: a non-empty timeline that opens
    /// with a [`SpanKind::Queue`] admission span (or [`SpanKind::Replay`]
    /// for a job re-admitted from the write-ahead log), where every span
    /// is well-formed (`start <= end`) and each span starts at the very
    /// microsecond the previous one ended.
    ///
    /// The last span is *not* required to be [`SpanKind::Reply`]: a job
    /// shed or cancelled while queued legitimately ends on `Queue`.
    ///
    /// # Errors
    ///
    /// Describes the first violated clause.
    pub fn check_tiling(&self) -> Result<(), String> {
        let first = self
            .spans
            .first()
            .ok_or_else(|| format!("job {}: empty timeline", self.job))?;
        if first.kind != SpanKind::Queue && first.kind != SpanKind::Replay {
            return Err(format!(
                "job {}: timeline opens with {}, not an admission (queue/replay) span",
                self.job,
                first.kind.label()
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.start_us > s.end_us {
                return Err(format!(
                    "job {}: span {i} ({}) ends before it starts ({} > {})",
                    self.job,
                    s.kind.label(),
                    s.start_us,
                    s.end_us
                ));
            }
        }
        for (i, pair) in self.spans.windows(2).enumerate() {
            if pair[0].end_us != pair[1].start_us {
                return Err(format!(
                    "job {}: gap/overlap between span {i} ({} ends {}) and span {} ({} starts {})",
                    self.job,
                    pair[0].kind.label(),
                    pair[0].end_us,
                    i + 1,
                    pair[1].kind.label(),
                    pair[1].start_us
                ));
            }
        }
        Ok(())
    }

    /// Wall-to-wall lifetime in microseconds.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => b.end_us.saturating_sub(a.start_us),
            _ => 0,
        }
    }

    /// Microseconds spent in spans of `kind`.
    #[must_use]
    pub fn kind_us(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::dur_us)
            .sum()
    }

    /// Number of execution slices (i.e. [`SpanKind::Run`] spans).
    #[must_use]
    pub fn slices(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Run)
            .count()
    }
}

/// The open end of a track: the span currently in progress.
#[derive(Debug)]
struct TrackState {
    tenant: String,
    label: String,
    open_kind: SpanKind,
    open_since_us: u64,
    spans: Vec<Span>,
    done: bool,
}

/// Mints and collects job timelines. One recorder per serve instance; its
/// construction instant is the epoch all span timestamps count from.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    finished: Mutex<Vec<JobSpans>>,
}

impl SpanRecorder {
    /// A fresh recorder whose epoch is *now*.
    #[must_use]
    pub fn new() -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder {
            epoch: Instant::now(),
            finished: Mutex::new(Vec::new()),
        })
    }

    /// Microseconds elapsed since the recorder epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Open a track for a newly admitted job. The timeline starts in
    /// [`SpanKind::Queue`] at this very instant; the job id is bound
    /// later, at [`SpanTrack::finish`], because admission happens before
    /// the engine mints the id.
    #[must_use]
    pub fn begin(self: &Arc<SpanRecorder>, tenant: &str, label: &str) -> Arc<SpanTrack> {
        let now = self.now_us();
        Arc::new(SpanTrack {
            recorder: Arc::clone(self),
            state: Mutex::new(TrackState {
                tenant: tenant.to_owned(),
                label: label.to_owned(),
                open_kind: SpanKind::Queue,
                open_since_us: now,
                spans: Vec::new(),
                done: false,
            }),
        })
    }

    /// Open a track for a job re-admitted from the write-ahead log: the
    /// timeline opens in [`SpanKind::Replay`] instead of `Queue`, so
    /// recovery time is attributed distinctly from live queueing.
    #[must_use]
    pub fn begin_replayed(self: &Arc<SpanRecorder>, tenant: &str, label: &str) -> Arc<SpanTrack> {
        let now = self.now_us();
        Arc::new(SpanTrack {
            recorder: Arc::clone(self),
            state: Mutex::new(TrackState {
                tenant: tenant.to_owned(),
                label: label.to_owned(),
                open_kind: SpanKind::Replay,
                open_since_us: now,
                spans: Vec::new(),
                done: false,
            }),
        })
    }

    /// Drain every finished timeline collected so far.
    #[must_use]
    pub fn take_finished(&self) -> Vec<JobSpans> {
        std::mem::take(&mut self.finished.lock().expect("span recorder lock"))
    }

    fn push_finished(&self, job: JobSpans) {
        self.finished.lock().expect("span recorder lock").push(job);
    }
}

/// One job's in-progress timeline. Cheap to clone (it's handed across the
/// admission thread, the worker running the slices, and the reply path)
/// via `Arc`.
#[derive(Debug)]
pub struct SpanTrack {
    recorder: Arc<SpanRecorder>,
    state: Mutex<TrackState>,
}

impl SpanTrack {
    /// Close the open span and open a `kind` span, both at the same
    /// instant — the handoff is what makes the finished timeline tile
    /// exactly. Marking after [`SpanTrack::finish`] is a no-op.
    pub fn mark(&self, kind: SpanKind) {
        let now = self.recorder.now_us();
        let mut st = self.state.lock().expect("span track lock");
        if st.done {
            return;
        }
        let closed = Span {
            kind: st.open_kind,
            start_us: st.open_since_us,
            end_us: now.max(st.open_since_us),
        };
        st.spans.push(closed);
        st.open_kind = kind;
        st.open_since_us = closed.end_us;
    }

    /// Close the timeline, bind the engine-minted `job` id, and hand the
    /// finished [`JobSpans`] to the recorder. Idempotent: only the first
    /// call publishes.
    pub fn finish(&self, job: u64) {
        let now = self.recorder.now_us();
        let mut st = self.state.lock().expect("span track lock");
        if st.done {
            return;
        }
        st.done = true;
        let closed = Span {
            kind: st.open_kind,
            start_us: st.open_since_us,
            end_us: now.max(st.open_since_us),
        };
        st.spans.push(closed);
        self.recorder.push_finished(JobSpans {
            job,
            tenant: std::mem::take(&mut st.tenant),
            label: std::mem::take(&mut st.label),
            spans: std::mem::take(&mut st.spans),
        });
    }
}

/// Serialise timelines as JSONL: one [`JobSpans`] JSON object per line.
#[must_use]
pub fn to_jsonl(jobs: &[JobSpans]) -> String {
    let mut out = String::new();
    for j in jobs {
        if let Ok(line) = serde_json::to_string(j) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Process id of the serve-job timeline tracks. Far above the CU pids and
/// the engine pid (9 000 000) used by `scratch-trace`'s Chrome exporter,
/// so merged documents never collide.
pub const SERVE_PID: u64 = 9_500_000;

/// Convert finished timelines into a Chrome `trace_event` document: one
/// `serve` process, one thread per job (tid = job id), one `X` slice per
/// span. The result serialises with `Display` / `to_json_compact` and
/// loads in `chrome://tracing` or Perfetto — alone, or concatenated into
/// the event list of a `scratch-trace` export, where the shared job id in
/// slice args ties the two views together.
#[must_use]
pub fn to_chrome(jobs: &[JobSpans]) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(jobs.len() * 8 + 2);
    events.push(chrome::process_name(SERVE_PID, "serve"));
    for j in jobs {
        let name = format!("job {} ({})", j.job, j.tenant);
        events.push(chrome::thread_name(SERVE_PID, j.job, &name));
        let args = chrome::object(&[
            ("job", Value::U64(j.job)),
            ("tenant", Value::Str(j.tenant.clone())),
            ("kernel", Value::Str(j.label.clone())),
        ]);
        for sp in &j.spans {
            events.push(chrome::slice(
                sp.kind.label(),
                SERVE_PID,
                j.job,
                sp.start_us,
                sp.dur_us(),
                args.clone(),
            ));
        }
    }
    let mut doc = Map::new();
    doc.insert("traceEvents".to_owned(), Value::Array(events));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_tile_exactly() {
        let rec = SpanRecorder::new();
        let track = rec.begin("acme", "saxpy");
        // A three-slice preemptive lifetime.
        for kind in [
            SpanKind::Run,
            SpanKind::Capture,
            SpanKind::Queue,
            SpanKind::Restore,
            SpanKind::Run,
            SpanKind::Capture,
            SpanKind::Queue,
            SpanKind::Restore,
            SpanKind::Run,
            SpanKind::Reply,
        ] {
            track.mark(kind);
        }
        track.finish(42);
        let jobs = rec.take_finished();
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.job, 42);
        assert_eq!(j.tenant, "acme");
        assert_eq!(j.spans.len(), 11);
        assert_eq!(j.spans[0].kind, SpanKind::Queue);
        assert_eq!(j.spans.last().unwrap().kind, SpanKind::Reply);
        assert_eq!(j.slices(), 3);
        j.check_tiling().unwrap();
        assert_eq!(
            j.total_us(),
            j.spans.iter().map(Span::dur_us).sum::<u64>(),
            "tiling means kinds partition the lifetime"
        );
    }

    #[test]
    fn finish_is_idempotent_and_mark_after_finish_is_noop() {
        let rec = SpanRecorder::new();
        let track = rec.begin("t", "k");
        track.mark(SpanKind::Run);
        track.finish(1);
        track.mark(SpanKind::Capture);
        track.finish(2);
        let jobs = rec.take_finished();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].job, 1);
        assert!(rec.take_finished().is_empty());
    }

    #[test]
    fn tiling_check_rejects_gaps_and_bad_openers() {
        let good = Span {
            kind: SpanKind::Queue,
            start_us: 0,
            end_us: 5,
        };
        let gapped = JobSpans {
            job: 7,
            tenant: "t".into(),
            label: "k".into(),
            spans: vec![
                good,
                Span {
                    kind: SpanKind::Run,
                    start_us: 6,
                    end_us: 9,
                },
            ],
        };
        let err = gapped.check_tiling().unwrap_err();
        assert!(err.contains("gap/overlap"), "{err}");

        let bad_open = JobSpans {
            spans: vec![Span {
                kind: SpanKind::Run,
                start_us: 0,
                end_us: 1,
            }],
            ..gapped.clone()
        };
        assert!(bad_open.check_tiling().is_err());

        let empty = JobSpans {
            spans: Vec::new(),
            ..gapped
        };
        assert!(empty.check_tiling().is_err());
    }

    #[test]
    fn jsonl_and_chrome_round_trip_job_fields() {
        let rec = SpanRecorder::new();
        let track = rec.begin("acme", "fir");
        track.mark(SpanKind::Run);
        track.mark(SpanKind::Reply);
        track.finish(9);
        let jobs = rec.take_finished();

        let jsonl = to_jsonl(&jobs);
        let back: JobSpans = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(back, jobs[0]);

        let doc = to_chrome(&jobs).to_string();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"serve\""));
        assert!(doc.contains("\"tid\":9"));
        assert!(doc.contains("\"queue\""));
        assert!(doc.contains("\"reply\""));
    }

    #[test]
    fn chrome_export_is_pinned() {
        // The expected document was produced by the exporter's earlier,
        // self-contained event builders for the same input.
        let span = |kind, start_us, end_us| Span {
            kind,
            start_us,
            end_us,
        };
        let jobs = vec![
            JobSpans {
                job: 7,
                tenant: "acme".to_owned(),
                label: "matrix_add".to_owned(),
                spans: vec![
                    span(SpanKind::Queue, 100, 130),
                    span(SpanKind::Run, 130, 400),
                    span(SpanKind::Capture, 400, 400),
                    span(SpanKind::Queue, 400, 420),
                    span(SpanKind::Restore, 420, 431),
                    span(SpanKind::Run, 431, 600),
                    span(SpanKind::Reply, 600, 612),
                ],
            },
            JobSpans {
                job: 12,
                tenant: "t\"2".to_owned(),
                label: "gauss".to_owned(),
                spans: vec![span(SpanKind::Replay, 5, 9), span(SpanKind::Queue, 9, 9)],
            },
        ];
        let expected = r#"{"traceEvents":[{"args":{"name":"serve"},"name":"process_name","ph":"M","pid":9500000},{"args":{"name":"job 7 (acme)"},"name":"thread_name","ph":"M","pid":9500000,"tid":7},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":30,"name":"queue","ph":"X","pid":9500000,"tid":7,"ts":100},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":270,"name":"run","ph":"X","pid":9500000,"tid":7,"ts":130},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":1,"name":"capture","ph":"X","pid":9500000,"tid":7,"ts":400},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":20,"name":"queue","ph":"X","pid":9500000,"tid":7,"ts":400},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":11,"name":"restore","ph":"X","pid":9500000,"tid":7,"ts":420},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":169,"name":"run","ph":"X","pid":9500000,"tid":7,"ts":431},{"args":{"job":7,"kernel":"matrix_add","tenant":"acme"},"dur":12,"name":"reply","ph":"X","pid":9500000,"tid":7,"ts":600},{"args":{"name":"job 12 (t\"2)"},"name":"thread_name","ph":"M","pid":9500000,"tid":12},{"args":{"job":12,"kernel":"gauss","tenant":"t\"2"},"dur":4,"name":"replay","ph":"X","pid":9500000,"tid":12,"ts":5},{"args":{"job":12,"kernel":"gauss","tenant":"t\"2"},"dur":1,"name":"queue","ph":"X","pid":9500000,"tid":12,"ts":9}]}"#;
        assert_eq!(to_chrome(&jobs).to_string(), expected);
    }
}
