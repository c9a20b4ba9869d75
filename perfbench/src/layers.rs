//! The layer pass: each layer timed from outside, by calling its public
//! functions on the workload's own inputs after a warm-up.

use std::path::Path;
use std::time::Instant;

use scratch_engine::{PreemptiveEngine, Slice};
use scratch_serve::{JobDone, Request, Response};
use scratch_system::{
    DispatchProgress, ExecMode, System, SystemCheckpoint, SystemConfig, SystemKind,
};
use scratch_wal::{Record, Wal, WalConfig};

use crate::mix::{build_system, fnv1a, output_words, Mix, MixKernel};
use crate::report::{metric, Gate, Metric};
use crate::serve_load::{fresh_dir, ServeShape, WORKERS};
use crate::stats::{mean, median, quantile, timed, us};

/// Repetitions of each per-kernel measurement; the first is warm-up.
const REPS: usize = 4;

/// Engine round trips timed.
const HOPS: usize = 2000;

/// Quantum, in cycles, of the pauses the snap layer is timed at.
pub const SNAP_QUANTUM: u64 = 200;

/// Mix kernels whose checkpoints the snap and WAL layers use.
const SNAP_KERNELS: usize = 8;

/// Times each journalled job sequence is appended.
const WAL_ROUNDS: usize = 16;

/// Explicit fsyncs timed.
const SYNCS: usize = 16;

/// Samples of one timed call, skipping the warm-up repetition.
#[derive(Default)]
struct Samples(Vec<f64>);

impl Samples {
    fn push(&mut self, rep: usize, v: f64) {
        if rep > 0 {
            self.0.push(v);
        }
    }

    fn median(&self, name: &'static str, unit: &'static str) -> Metric {
        metric(name, median(&self.0), unit, self.0.len())
    }
}

/// Run the layer pass over `mix` for a workload shaped like `shape`,
/// writing scratch files under `work_dir`. Every output the pass computes
/// is checked against the mix's references in `gate`.
///
/// # Errors
///
/// A layer call failed outright (the system rejected a kernel, the log
/// could not be opened).
pub fn layer_pass(
    mix: &Mix,
    shape: ServeShape,
    work_dir: &Path,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let mut out = system_layers(mix, gate)?;
    out.extend(protocol_layer(mix, gate)?);
    out.push(engine_layer(gate));
    let checkpoints = snap_layer(mix, &mut out, gate)?;
    out.extend(wal_layer(mix, shape, &checkpoints, work_dir)?);
    Ok(out)
}

/// `system.*`, `cu.*` and `fastpath.*`: build, dispatch on both tiers and
/// translate every mix kernel.
fn system_layers(mix: &Mix, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let cu_config = SystemConfig::preset(SystemKind::DcdPm).cu;
    let [mut build, mut cycle, mut fast, mut translate]: [Samples; 4] = Default::default();
    let (mut cycle_us, mut fast_us, mut instr) = (0.0, 0.0, 0u64);
    for rep in 0..REPS {
        for k in &mix.kernels {
            let (built, t) = timed(|| build_system(k, ExecMode::Cycle));
            let (mut sys, out) = built?;
            build.push(rep, t);
            let (r, t) = timed(|| sys.dispatch(k.grid));
            r.map_err(|e| e.to_string())?;
            cycle.push(rep, t);
            gate.check(check_run(k, &sys, out, true));

            let (mut sys, out) = build_system(k, ExecMode::Fast)?;
            let (r, f) = timed(|| sys.dispatch(k.grid));
            r.map_err(|e| e.to_string())?;
            fast.push(rep, f);
            gate.check(check_run(k, &sys, out, false));

            let (p, tr) = timed(|| scratch_fastpath::translate(&k.kernel, &cu_config));
            p.map_err(|e| e.to_string())?;
            translate.push(rep, tr);
            if rep > 0 {
                cycle_us += t;
                fast_us += f;
                instr += k.reference.instructions;
            }
        }
    }
    let ns_per = |total_us: f64| total_us * 1e3 / instr.max(1) as f64;
    let samples = cycle.0.len();
    let mut out = vec![
        build.median("system.build_us", "us"),
        cycle.median("system.dispatch_cycle_us", "us"),
        fast.median("system.dispatch_fast_us", "us"),
        translate.median("fastpath.translate_us", "us"),
        metric("cu.ns_per_instr", ns_per(cycle_us), "ns/instr", samples),
        metric(
            "fastpath.ns_per_instr",
            ns_per(fast_us),
            "ns/instr",
            samples,
        ),
    ];
    out.extend(mix_counts(mix));
    Ok(out)
}

/// `cu.sim_cycles`, `cu.instructions` and `cu.ipc` of one pass over the
/// mix on the cycle tier: exact counts fixed by the seed.
#[must_use]
pub fn mix_counts(mix: &Mix) -> Vec<Metric> {
    let cycles: u64 = mix.kernels.iter().map(|k| k.reference.cycles).sum();
    let instr: u64 = mix.kernels.iter().map(|k| k.reference.instructions).sum();
    sim_counts(cycles, instr, mix.kernels.len())
}

/// The simulated-count metrics for `cycles` and `instructions` summed
/// over `runs` runs.
#[must_use]
pub fn sim_counts(cycles: u64, instructions: u64, runs: usize) -> Vec<Metric> {
    vec![
        metric("cu.sim_cycles", cycles as f64, "cycles", runs),
        metric("cu.instructions", instructions as f64, "instr", runs),
        metric(
            "cu.ipc",
            instructions as f64 / cycles.max(1) as f64,
            "instr/cycle",
            runs,
        ),
    ]
}

/// Check a finished direct run against the kernel's reference.
fn check_run(k: &MixKernel, sys: &System, out: u64, cycle_tier: bool) -> Result<(), String> {
    let report = sys.report();
    let r = &k.reference;
    let digest = fnv1a(&output_words(sys, k, out));
    if digest != r.digest || report.instructions() != r.instructions {
        Err(format!("layer pass: kernel seed {} output differs", k.seed))
    } else if cycle_tier && report.cu_cycles != r.cycles {
        Err(format!(
            "layer pass: kernel seed {} took {} cycles, reference {}",
            k.seed, report.cu_cycles, r.cycles
        ))
    } else {
        Ok(())
    }
}

/// Every mix kernel on both tiers.
fn shapes(mix: &Mix) -> impl Iterator<Item = (usize, bool)> {
    (0..mix.kernels.len()).flat_map(|index| [(index, false), (index, true)])
}

/// `protocol.*`: encode and decode every submission of one mix pass and
/// its `Done`, and digest each kernel's output.
fn protocol_layer(mix: &Mix, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let outputs = mix
        .kernels
        .iter()
        .map(|k| {
            let (mut sys, out) = build_system(k, ExecMode::Fast)?;
            sys.dispatch(k.grid).map_err(|e| e.to_string())?;
            Ok(output_words(&sys, k, out))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let [mut enc, mut dec, mut done_dec, mut digest]: [Samples; 4] = Default::default();
    let mut bytes = Vec::new();
    for rep in 0..REPS {
        for (n, (index, fast)) in shapes(mix).enumerate() {
            let n = n as u64;
            let request = Request::Submit(mix.request(index, fast, "t0"));
            let (line, t) = timed(|| serde_json::to_string(&request));
            let line = line.map_err(|e| e.to_string())?;
            enc.push(rep, t);
            let (back, t) = timed(|| serde_json::from_str::<Request>(&line));
            dec.push(rep, t);
            let (d, t) = timed(|| scratch_serve::fnv1a(&outputs[index]));
            digest.push(rep, t);
            let k = &mix.kernels[index];
            let done = Response::Done(JobDone {
                job: n,
                tenant: "t0".to_owned(),
                label: format!("k{index}"),
                ok: true,
                error: None,
                cycles: k.reference.cycles,
                instructions: k.reference.instructions,
                digest: d,
                output: None,
                queue_us: 0,
                exec_us: 0,
                snap_us: 0,
                slices: 1,
                redelivered: false,
            });
            let done_line = serde_json::to_string(&done).map_err(|e| e.to_string())?;
            let (done_back, t) = timed(|| serde_json::from_str::<Response>(&done_line));
            done_dec.push(rep, t);
            if rep == 0 {
                bytes.push(line.len() as f64 + 1.0);
                gate.check(
                    if back.ok() == Some(request)
                        && done_back.ok() == Some(done)
                        && d == k.reference.digest
                    {
                        Ok(())
                    } else {
                        Err(format!("protocol round trip of job {n} changed it"))
                    },
                );
            }
        }
    }
    Ok(vec![
        enc.median("protocol.submit_encode_us", "us"),
        dec.median("protocol.submit_decode_us", "us"),
        done_dec.median("protocol.done_decode_us", "us"),
        metric("protocol.submit_bytes", mean(&bytes), "bytes", bytes.len()),
        digest.median("protocol.digest_us", "us"),
    ])
}

/// `engine.hop_us`: submit a slice that finishes at once and wait for its
/// outcome, on a pool as wide as the daemon's. Every hop must come back
/// with its job's result.
fn engine_layer(gate: &mut Gate) -> Metric {
    let mut handle = PreemptiveEngine::new(WORKERS).start::<u64>();
    let mut hops = Samples::default();
    let mut lost = 0;
    for i in 0..=HOPS {
        let started = Instant::now();
        let id = handle.submit("t0", "hop", |_slice| Slice::Done(Ok(7)));
        let outcome = handle.recv();
        hops.push(i, us(started.elapsed()));
        if !outcome.is_some_and(|o| o.id == id && o.result == Ok(7)) {
            lost += 1;
        }
    }
    gate.check(if lost == 0 {
        Ok(())
    } else {
        Err(format!(
            "engine: {lost} of {} hops lost their result",
            HOPS + 1
        ))
    });
    hops.median("engine.hop_us", "us")
}

/// The encoded checkpoints of each sampled mix kernel, by kernel index.
type Checkpoints = Vec<(usize, Vec<Vec<u8>>)>;

/// `snap.*`: pause the first [`SNAP_KERNELS`] mix kernels that outlast
/// one [`SNAP_QUANTUM`]-cycle quantum at every quantum boundary, and time
/// capture, encode, decode and restore of each pause; the resumed runs
/// must still reproduce their references. Returns the encoded
/// checkpoints per sampled kernel for the WAL layer.
fn snap_layer(mix: &Mix, out: &mut Vec<Metric>, gate: &mut Gate) -> Result<Checkpoints, String> {
    let [mut capture, mut encode, mut decode, mut restore]: [Samples; 4] = Default::default();
    let mut sizes = Vec::new();
    let mut sampled = Vec::new();
    for (index, k) in mix.kernels.iter().enumerate() {
        if sampled.len() == SNAP_KERNELS {
            break;
        }
        let (mut sys, out_addr) = build_system(k, ExecMode::Cycle)?;
        let mut progress = sys
            .dispatch_preemptible(k.grid, SNAP_QUANTUM)
            .map_err(|e| e.to_string())?;
        let mut checkpoints = Vec::new();
        while progress == DispatchProgress::Paused {
            let (ck, t) = timed(|| sys.checkpoint());
            let ck = ck.map_err(|e| e.to_string())?;
            capture.0.push(t);
            let (bytes, t) = timed(|| scratch_snap::to_bytes(&ck));
            encode.0.push(t);
            let (back, t) = timed(|| scratch_snap::from_bytes::<SystemCheckpoint>(&bytes));
            let back = back.map_err(|e| e.to_string())?;
            decode.0.push(t);
            let (restored, t) = timed(|| System::restore(&back, None));
            sys = restored.map_err(|e| e.to_string())?;
            restore.0.push(t);
            sizes.push(bytes.len() as f64);
            checkpoints.push(bytes);
            progress = sys
                .resume_dispatch(SNAP_QUANTUM)
                .map_err(|e| e.to_string())?;
        }
        if !checkpoints.is_empty() {
            gate.check(check_run(k, &sys, out_addr, true));
            sampled.push((index, checkpoints));
        }
    }
    out.extend([
        capture.median("snap.capture_us", "us"),
        encode.median("snap.encode_us", "us"),
        decode.median("snap.decode_us", "us"),
        restore.median("snap.restore_us", "us"),
        metric("snap.checkpoint_bytes", mean(&sizes), "bytes", sizes.len()),
    ]);
    Ok(sampled)
}

/// `wal.*`: journal the sampled kernels' jobs in the workload's tier
/// pattern, as the daemon would (admission, the checkpoint of every
/// pause when the workload preempts at the snap quantum, completion),
/// into a fresh log on the benchmark's own filesystem, then time
/// explicit fsyncs.
fn wal_layer(
    mix: &Mix,
    shape: ServeShape,
    checkpoints: &Checkpoints,
    work_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let dir = fresh_dir(work_dir, "layer-wal")?;
    let result = (|| {
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).map_err(|e| e.to_string())?;
        let preempts = shape.quantum == Some(SNAP_QUANTUM);
        let (mut appends, mut synced, mut bytes, mut jobs) = (Vec::new(), 0usize, 0u64, 0u64);
        let mut id = 0u64;
        for _ in 0..WAL_ROUNDS {
            for (index, cks) in checkpoints {
                let cycle_jobs = shape.fast_every - 1;
                for fast in (0..shape.fast_every).map(|j| j == cycle_jobs) {
                    let k = &mix.kernels[*index];
                    let payload = serde_json::to_string(&mix.request(*index, fast, "t0"))
                        .map_err(|e| e.to_string())?
                        .into_bytes();
                    let mut records = vec![Record::Admitted {
                        id,
                        tenant: "t0".to_owned(),
                        label: format!("k{index}"),
                        payload,
                    }];
                    if preempts && !fast {
                        records.extend(cks.iter().map(|snap| Record::Checkpoint {
                            id,
                            out_addr: 0,
                            snap: snap.clone(),
                        }));
                    }
                    records.push(Record::Completed {
                        id,
                        ok: true,
                        digest: k.reference.digest,
                        cycles: if fast { 0 } else { k.reference.cycles },
                        instructions: k.reference.instructions,
                        error: String::new(),
                    });
                    for record in &records {
                        let (info, t) = timed(|| wal.append(record));
                        let info = info.map_err(|e| e.to_string())?;
                        appends.push(t);
                        synced += usize::from(info.synced);
                        bytes += info.bytes;
                    }
                    id += 1;
                    jobs += 1;
                }
            }
        }
        let mut syncs = Vec::with_capacity(SYNCS);
        for _ in 0..SYNCS {
            wal.append(&Record::Completed {
                id,
                ok: true,
                digest: 0,
                cycles: 0,
                instructions: 0,
                error: String::new(),
            })
            .map_err(|e| e.to_string())?;
            id += 1;
            let (r, t) = timed(|| wal.sync());
            r.map_err(|e| e.to_string())?;
            syncs.push(t);
        }
        Ok(vec![
            metric("wal.append_us", median(&appends), "us", appends.len()),
            metric(
                "wal.append_p99_us",
                quantile(&appends, 0.99),
                "us",
                appends.len(),
            ),
            metric("wal.sync_us", median(&syncs), "us", syncs.len()),
            metric(
                "wal.synced_ratio",
                synced as f64 / appends.len().max(1) as f64,
                "ratio",
                appends.len(),
            ),
            metric(
                "wal.bytes_per_job",
                bytes as f64 / jobs.max(1) as f64,
                "bytes",
                usize::try_from(jobs).unwrap_or(usize::MAX),
            ),
        ])
    })();
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(&dir);
    result
}
