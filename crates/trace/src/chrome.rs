//! Chrome `trace_event` exporter: renders an event stream as a JSON
//! document loadable in `chrome://tracing` / Perfetto.
//!
//! Layout: one *process* per compute unit; each wavefront gets a pipeline
//! track (stall slices + issue/retire instants) and a memory track
//! (request slices), and each functional-unit class gets a track showing
//! its occupancy slices. A separate *engine* process renders one track
//! per execution-engine worker lane, with a slice per CU shard, so the
//! parallel schedule of a multi-CU dispatch is visible at a glance. One
//! CU cycle is rendered as one microsecond.
//!
//! The event builders ([`object`], [`process_name`], [`thread_name`],
//! [`slice`]) are public so other timelines — `scratch-profile`'s serve
//! job spans — render in the same format.

use std::collections::{BTreeSet, HashMap, VecDeque};

use serde::value::{Map, Value};

use scratch_isa::FuncUnit;

use crate::TraceEvent;

/// A JSON object from `(key, value)` pairs (event `args`, or a whole
/// event).
#[must_use]
pub fn object(pairs: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert((*k).to_owned(), v.clone());
    }
    Value::Object(m)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

fn n(v: u64) -> Value {
    Value::U64(v)
}

/// Pipeline track of wavefront `wave`.
fn wave_tid(wave: u32) -> u64 {
    u64::from(wave) * 2
}

/// Memory track of wavefront `wave`.
fn mem_tid(wave: u32) -> u64 {
    u64::from(wave) * 2 + 1
}

/// Track of a functional-unit class (placed far above the wave tracks).
fn fu_tid(unit: FuncUnit) -> u64 {
    1_000_000
        + match unit {
            FuncUnit::Salu => 0,
            FuncUnit::Simd => 1,
            FuncUnit::Simf => 2,
            FuncUnit::Lsu => 3,
            FuncUnit::Branch => 4,
        }
}

/// A complete (`X`) slice of `dur` microseconds (at least 1, so it stays
/// visible) starting at `ts` on track `(pid, tid)`.
#[must_use]
pub fn slice(name: &str, pid: u64, tid: u64, ts: u64, dur: u64, args: Value) -> Value {
    object(&[
        ("name", s(name)),
        ("ph", s("X")),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("ts", n(ts)),
        ("dur", n(dur.max(1))),
        ("args", args),
    ])
}

fn instant(name: &str, pid: u64, tid: u64, ts: u64, args: Value) -> Value {
    object(&[
        ("name", s(name)),
        ("ph", s("i")),
        ("s", s("t")),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("ts", n(ts)),
        ("args", args),
    ])
}

/// Metadata event naming track `(pid, tid)`.
#[must_use]
pub fn thread_name(pid: u64, tid: u64, name: &str) -> Value {
    object(&[
        ("name", s("thread_name")),
        ("ph", s("M")),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("args", object(&[("name", s(name))])),
    ])
}

/// Metadata event naming process `pid`.
#[must_use]
pub fn process_name(pid: u64, name: &str) -> Value {
    object(&[
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", n(pid)),
        ("args", object(&[("name", s(name))])),
    ])
}

/// Process id of the execution-engine schedule (far above any CU pid).
const ENGINE_PID: u64 = 9_000_000;

/// Outstanding memory requests of one wave: `(kind label, address, start)`.
type MemFifo = VecDeque<(String, u64, u64)>;

/// Convert an event stream into a Chrome `trace_event` JSON document.
///
/// The result serialises to a `{"traceEvents": [...]}` object; render it
/// with [`serde::value::to_json_compact`] (or `Display`) and load the file
/// in `chrome://tracing`.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> Value {
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + 16);
    let mut named: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    // FIFO of outstanding memory requests per (cu, wave).
    let mut mem_open: HashMap<(u32, u32), MemFifo> = HashMap::new();

    fn name_cu_track(
        out: &mut Vec<Value>,
        named: &mut BTreeSet<(u64, u64)>,
        pids: &mut BTreeSet<u64>,
        pid: u64,
        tid: u64,
        name: String,
    ) {
        if named.insert((pid, tid)) {
            out.push(thread_name(pid, tid, &name));
        }
        if pids.insert(pid) {
            out.push(process_name(pid, &format!("CU {pid}")));
        }
    }

    for ev in events {
        match ev {
            TraceEvent::KernelDispatch {
                kernel,
                grid,
                workgroup_size,
            } => {
                out.push(instant(
                    &format!("dispatch {kernel}"),
                    0,
                    0,
                    ev.timestamp(),
                    object(&[
                        (
                            "grid",
                            Value::Array(grid.iter().map(|&g| n(u64::from(g))).collect()),
                        ),
                        ("workgroup_size", n(u64::from(*workgroup_size))),
                    ]),
                ));
            }
            TraceEvent::WaveStart {
                cu,
                wave,
                workgroup,
                now,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(instant(
                    "wave start",
                    pid,
                    wave_tid(*wave),
                    *now,
                    object(&[("workgroup", n(u64::from(*workgroup)))]),
                ));
            }
            // Fetch/decode/issue/writeback render as instants on the wave
            // track; the execute slice already spans the operation.
            TraceEvent::Fetch { .. } | TraceEvent::Decode { .. } => {}
            TraceEvent::Issue {
                cu,
                wave,
                pc,
                opcode,
                now,
                ..
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(instant(
                    opcode.mnemonic(),
                    pid,
                    wave_tid(*wave),
                    *now,
                    object(&[("pc", n(u64::from(*pc)))]),
                ));
            }
            TraceEvent::Execute {
                cu,
                wave,
                pc,
                opcode,
                unit,
                start,
                end,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    fu_tid(*unit),
                    format!("FU {}", unit.label()),
                );
                out.push(slice(
                    opcode.mnemonic(),
                    pid,
                    fu_tid(*unit),
                    *start,
                    end.saturating_sub(*start),
                    object(&[("wave", n(u64::from(*wave))), ("pc", n(u64::from(*pc)))]),
                ));
            }
            TraceEvent::Writeback { .. } => {}
            TraceEvent::Retire {
                cu,
                wave,
                now,
                instructions,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(instant(
                    "retire",
                    pid,
                    wave_tid(*wave),
                    *now,
                    object(&[("instructions", n(*instructions))]),
                ));
            }
            TraceEvent::MemStart {
                cu,
                wave,
                kind,
                addr,
                now,
                ..
            } => {
                mem_open
                    .entry((*cu, *wave))
                    .or_default()
                    .push_back((kind.clone(), *addr, *now));
            }
            TraceEvent::MemComplete {
                cu, wave, now: end, ..
            } => {
                if let Some((kind, addr, start)) = mem_open
                    .get_mut(&(*cu, *wave))
                    .and_then(VecDeque::pop_front)
                {
                    let pid = u64::from(*cu);
                    name_cu_track(
                        &mut out,
                        &mut named,
                        &mut pids,
                        pid,
                        mem_tid(*wave),
                        format!("wave {wave} mem"),
                    );
                    out.push(slice(
                        &kind,
                        pid,
                        mem_tid(*wave),
                        start,
                        end.saturating_sub(start),
                        object(&[("addr", n(addr))]),
                    ));
                }
            }
            TraceEvent::BarrierArrive {
                cu,
                wave,
                workgroup,
                now,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(instant(
                    "barrier arrive",
                    pid,
                    wave_tid(*wave),
                    *now,
                    object(&[("workgroup", n(u64::from(*workgroup)))]),
                ));
            }
            TraceEvent::BarrierRelease { cu, workgroup, now } => {
                out.push(instant(
                    "barrier release",
                    u64::from(*cu),
                    0,
                    *now,
                    object(&[("workgroup", n(u64::from(*workgroup)))]),
                ));
            }
            TraceEvent::ShardRun {
                cu,
                worker,
                start,
                end,
                job,
            } => {
                let tid = u64::from(*worker);
                if named.insert((ENGINE_PID, tid)) {
                    out.push(thread_name(ENGINE_PID, tid, &format!("worker {worker}")));
                }
                if pids.insert(ENGINE_PID) {
                    out.push(process_name(ENGINE_PID, "engine"));
                }
                out.push(slice(
                    &format!("CU {cu}"),
                    ENGINE_PID,
                    tid,
                    *start,
                    end.saturating_sub(*start),
                    object(&[("cu", n(u64::from(*cu))), ("job", n(*job))]),
                ));
            }
            TraceEvent::FaultInjected {
                cu,
                wave,
                class,
                detail,
                now,
                job,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(instant(
                    &format!("fault[{class}]"),
                    pid,
                    wave_tid(*wave),
                    *now,
                    object(&[("detail", s(detail)), ("job", n(*job))]),
                ));
            }
            // Detection/recovery are campaign-level events: render them on
            // the dispatcher track (pid 0) like kernel dispatches.
            TraceEvent::FaultDetected {
                label,
                detector,
                now,
                job,
            } => {
                out.push(instant(
                    &format!("detected[{detector}]"),
                    0,
                    0,
                    *now,
                    object(&[("label", s(label)), ("job", n(*job))]),
                ));
            }
            TraceEvent::FaultRecovered {
                label,
                action,
                now,
                job,
            } => {
                out.push(instant(
                    &format!("recovered[{action}]"),
                    0,
                    0,
                    *now,
                    object(&[("label", s(label)), ("job", n(*job))]),
                ));
            }
            TraceEvent::Stall {
                cu,
                wave,
                reason,
                from,
                to,
            } => {
                let pid = u64::from(*cu);
                name_cu_track(
                    &mut out,
                    &mut named,
                    &mut pids,
                    pid,
                    wave_tid(*wave),
                    format!("wave {wave}"),
                );
                out.push(slice(
                    reason.label(),
                    pid,
                    wave_tid(*wave),
                    *from,
                    to.saturating_sub(*from),
                    Value::Object(Map::new()),
                ));
            }
        }
    }

    // Leak any unmatched memory requests as 1-cycle slices so nothing
    // silently disappears from the timeline.
    for ((cu, wave), open) in mem_open {
        for (kind, addr, start) in open {
            out.push(slice(
                &format!("{kind} (incomplete)"),
                u64::from(cu),
                mem_tid(wave),
                start,
                1,
                object(&[("addr", n(addr))]),
            ));
        }
    }

    let mut doc = Map::new();
    doc.insert("traceEvents".to_owned(), Value::Array(out));
    doc.insert("displayTimeUnit".to_owned(), s("ms"));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallReason;
    use scratch_isa::Opcode;

    #[test]
    fn exports_slices_instants_and_metadata() {
        let events = vec![
            TraceEvent::WaveStart {
                cu: 0,
                wave: 0,
                workgroup: 0,
                now: 0,
            },
            TraceEvent::Issue {
                cu: 0,
                wave: 0,
                pc: 0,
                opcode: Opcode::VAddI32,
                unit: FuncUnit::Simd,
                now: 0,
            },
            TraceEvent::Execute {
                cu: 0,
                wave: 0,
                pc: 0,
                opcode: Opcode::VAddI32,
                unit: FuncUnit::Simd,
                start: 0,
                end: 4,
            },
            TraceEvent::MemStart {
                cu: 0,
                wave: 0,
                pc: 2,
                kind: "VectorLoad".into(),
                addr: 64,
                lanes: 64,
                now: 1,
            },
            TraceEvent::MemComplete {
                cu: 0,
                wave: 0,
                kind: "VectorLoad".into(),
                addr: 64,
                now: 300,
            },
            TraceEvent::Stall {
                cu: 0,
                wave: 0,
                reason: StallReason::WaitcntVm,
                from: 2,
                to: 300,
            },
        ];
        let doc = chrome_trace(&events);
        let Value::Object(m) = &doc else {
            panic!("not an object")
        };
        let Value::Array(evs) = &m["traceEvents"] else {
            panic!("traceEvents missing")
        };
        let json = doc.to_string();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("v_add_i32") || json.contains("VAddI32"));
        assert!(json.contains("waitcnt-vm"));
        // Metadata (process + 3 thread names) + 5 renderable events.
        assert!(evs.len() >= 8, "{}", evs.len());
    }

    #[test]
    fn shard_runs_render_as_engine_worker_tracks() {
        let events = vec![
            TraceEvent::ShardRun {
                cu: 0,
                worker: 0,
                start: 0,
                end: 500,
                job: 7,
            },
            TraceEvent::ShardRun {
                cu: 1,
                worker: 1,
                start: 0,
                end: 480,
                job: 7,
            },
        ];
        let json = chrome_trace(&events).to_string();
        assert!(json.contains("\"engine\""));
        assert!(json.contains("worker 0"));
        assert!(json.contains("worker 1"));
        assert!(json.contains("CU 1"));
        assert!(json.contains("\"job\":7"));
    }

    #[test]
    fn unmatched_memory_requests_still_render() {
        let events = vec![TraceEvent::MemStart {
            cu: 0,
            wave: 1,
            pc: 0,
            kind: "ScalarLoad".into(),
            addr: 4,
            lanes: 1,
            now: 10,
        }];
        let json = chrome_trace(&events).to_string();
        assert!(json.contains("incomplete"));
    }
}
