//! # scratch-trace
//!
//! Cycle-attribution and event-tracing subsystem for the SCRATCH
//! simulators.
//!
//! The CU pipeline (`scratch-cu`) and the system simulator
//! (`scratch-system`) are *event-driven*: time advances either by one
//! cycle (when something issued) or jumps straight to the next event.
//! This crate turns those scheduling decisions into two artefacts:
//!
//! 1. **Stall attribution** ([`Attribution`]): every wavefront-cycle
//!    between a wave becoming resident and its retirement is classified as
//!    either an *issue* cycle or a stall with a [`StallReason`]. The
//!    engine maintains the invariant that, per wavefront,
//!    `issued + Σ stalls == retire − start` — checked by
//!    [`WaveTimeline::check`] and property-tested against randomised
//!    kernels in the CU crate.
//! 2. **Event streams** ([`TraceEvent`] via the [`Tracer`] trait):
//!    structured fetch/decode/issue/execute/writeback/retire, memory
//!    request start/complete and barrier arrive/release events, consumable
//!    by the in-memory [`EventBuffer`], the streaming [`JsonlTracer`], or
//!    the Chrome `trace_event` exporter ([`chrome_trace`]).
//!
//! Tracing is strictly opt-in and zero-cost when disabled: a CU without an
//! attached tracer performs one `Option::is_some` test per scheduling
//! decision and nothing else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
pub mod chrome;
mod event;
mod stall;
mod summary;

use std::io::Write;
use std::sync::{Arc, Mutex};

pub use attribution::{Attribution, WaveAttribution};
pub use chrome::chrome_trace;
pub use event::TraceEvent;
pub use stall::StallReason;
pub use summary::{TraceSummary, WaveTimeline};

/// A sink for structured simulator events.
///
/// Implementations must be cheap: the pipeline calls [`Tracer::record`]
/// once per emitted event while tracing is enabled. The trait is
/// deliberately minimal so sinks compose (buffer, stream, discard).
///
/// Sinks are `Send` so a traced compute unit can migrate onto an engine
/// worker thread (`scratch-engine` shards a dispatch's CUs across
/// workers); each CU's sink is only ever driven by one thread at a time.
pub trait Tracer: Send {
    /// Consume one event.
    fn record(&mut self, event: &TraceEvent);

    /// Whether this sink retains anything at all.
    ///
    /// A simulator may skip event construction entirely for a disabled
    /// sink (see [`NullTracer`]), so tracing-off costs nothing beyond a
    /// branch. Sinks that observe events must keep the default `true`.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A tracer that discards every event.
///
/// `NullTracer` reports itself as disabled ([`Tracer::is_enabled`] is
/// `false`), so attaching it is equivalent to tracing off: the compute
/// unit drops the sink and pays only its per-decision `Option` check —
/// this is what the overhead benchmark measures. The equivalence
/// property tests attach a *retaining* sink instead to prove the full
/// instrumentation path changes no simulation result.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&mut self, _event: &TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A shareable in-memory event sink.
///
/// Cloning an `EventBuffer` yields a handle onto the *same* buffer, so a
/// system can hand one handle to each compute unit and keep another to
/// read the merged stream back after the run. Handles are `Send`: the
/// parallel dispatcher gives every CU a private buffer, runs the CUs on
/// worker threads, and drains the buffers in CU order afterwards so the
/// merged stream is deterministic.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer(Arc<Mutex<Vec<TraceEvent>>>);

impl EventBuffer {
    /// Create an empty buffer.
    #[must_use]
    pub fn new() -> EventBuffer {
        EventBuffer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        // A panicking recorder cannot leave the vector in a torn state
        // (pushes are atomic with respect to the lock), so poisoning is
        // safe to shrug off.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Clone the buffered events out.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Move the buffered events out, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.lock())
    }

    /// Append `events` in order (used to merge per-CU streams).
    pub fn extend(&self, events: impl IntoIterator<Item = TraceEvent>) {
        self.lock().extend(events);
    }
}

impl Tracer for EventBuffer {
    fn record(&mut self, event: &TraceEvent) {
        self.lock().push(event.clone());
    }
}

/// A streaming sink writing one JSON object per line (JSONL).
///
/// Each line is the externally-tagged serialisation of a [`TraceEvent`],
/// so multi-gigabyte traces can be processed without ever materialising
/// them in memory.
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    /// First I/O error encountered, if any (recording never panics).
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// Stream events to `out`.
    pub fn new(out: W) -> JsonlTracer<W> {
        JsonlTracer { out, error: None }
    }

    /// Flush and return the writer.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error hit while recording or flushing.
    pub fn finish(mut self) -> Result<W, std::io::Error> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write + Send> Tracer for JsonlTracer<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = serde::value::to_json_compact(&serde::Serialize::to_sval(event));
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<EventBuffer>();
        assert_send::<NullTracer>();
        assert_send::<JsonlTracer<Vec<u8>>>();
        assert_send::<Box<dyn Tracer>>();
    }

    #[test]
    fn event_buffer_drains_across_threads() {
        let buf = EventBuffer::new();
        let mut handle = buf.clone();
        std::thread::spawn(move || {
            handle.record(&TraceEvent::ShardRun {
                cu: 1,
                worker: 0,
                start: 10,
                end: 20,
                job: 0,
            });
        })
        .join()
        .unwrap();
        let events = buf.take();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::ShardRun { cu: 1, .. }));
    }

    #[test]
    fn event_buffer_handles_share_storage() {
        let buf = EventBuffer::new();
        let mut handle = buf.clone();
        handle.record(&TraceEvent::BarrierRelease {
            cu: 0,
            workgroup: 1,
            now: 42,
        });
        assert_eq!(buf.len(), 1);
        let events = buf.take();
        assert!(buf.is_empty());
        assert!(matches!(
            events[0],
            TraceEvent::BarrierRelease { now: 42, .. }
        ));
    }

    #[test]
    fn jsonl_tracer_writes_one_line_per_event() {
        let mut t = JsonlTracer::new(Vec::new());
        t.record(&TraceEvent::WaveStart {
            cu: 0,
            wave: 3,
            workgroup: 0,
            now: 7,
        });
        t.record(&TraceEvent::Retire {
            cu: 0,
            wave: 3,
            now: 99,
            instructions: 12,
        });
        let bytes = t.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("WaveStart"));
    }
}
