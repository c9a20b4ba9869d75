//! # scratch-perfbench
//!
//! The layered benchmark of the SCRATCH workspace. One invocation runs
//! one workload for a fixed time and prints its metrics, each with its
//! unit, after checking every output against a direct in-process
//! reference run.
//!
//! Workloads (`BENCHMARK.json` says why each was chosen):
//!
//! * `serve_small`, `serve_journal`, `serve_preempt`: an in-process
//!   `scratch-serve` daemon with two engine workers, driven in a closed
//!   loop by two clients over TCP through the seed's kernel mix, part of
//!   the submissions on the fast tier. They differ only in the daemon's
//!   configuration: no log, a write-ahead log, and a log plus a
//!   200-cycle preemption quantum.
//! * `paper_suite`: the paper's 17 applications on both execution tiers,
//!   each run validated against its CPU reference.
//!
//! `serve_journal` and `serve_preempt` run, but `BENCHMARK.json` does not
//! list them, because on a two-core virtual machine sharing its host their
//! figures did not repeat between runs. The journal writes every
//! submission, about 45 KB, to disk, some 700 MB per run, so it measures
//! the shared disk: its throughput fell by half after a few dozen runs.
//! Every pause of `serve_preempt` scans the whole 64 MiB simulated memory,
//! and those memory-bound scans spread its figures by a quarter to two
//! fifths between runs.
//!
//! Without tracing the end-to-end metrics are reported. With tracing the
//! per-layer ones: a layer pass timing each layer's public functions on
//! the workload's inputs, plus an untraced and a span-traced serve run
//! whose difference is the tracing overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layers;
pub mod mix;
pub mod report;
pub mod serve_load;
mod stats;
mod suite;

use std::path::PathBuf;

use scratch_system::ExecMode;

use crate::layers::{layer_pass, sim_counts, SNAP_QUANTUM};
use crate::report::{metric, peak_rss_mib, Gate, Metric, Outcome};
use crate::serve_load::{LoadRun, ServeBench, ServeShape, SpanBreakdown};
use crate::stats::{median, quantile, timed};
use crate::suite::{app_latencies, check_determinism, instr_per_s, AppRun, Suite};

/// Rounds of an untraced serve run. Each round sets the daemon up from
/// scratch and drives it for its share of the time, so the set-ups whose
/// median is `setup_s` are spread over the run like the jobs are.
const SERVE_ROUNDS: usize = 5;

/// Groups the paper applications are split into. An untraced paper-suite
/// run is a whole number of passes over the groups, one round per group,
/// each round with its own set-up, so the set-ups are spread over the run
/// and every run has the same mix of applications.
const SUITE_GROUPS: usize = 2;

/// Share of a traced invocation's time given to each of its two serve
/// runs (untraced, then traced).
const TRACED_SHARE: f64 = 0.35;

/// Fast-tier runs of each paper application per cycle-tier run in one
/// round, so every round has the same mix of runs on the two tiers.
const FAST_RUNS_PER_CYCLE_RUN: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Served jobs with per-job fixed costs dominating.
    ServeSmall,
    /// As `ServeSmall`, with a write-ahead log.
    ServeJournal,
    /// As `ServeJournal`, with a 200-cycle preemption quantum.
    ServePreempt,
    /// The paper's applications on both tiers, in-process.
    PaperSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::ServeJournal,
        Workload::ServePreempt,
        Workload::PaperSuite,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeJournal => "serve_journal",
            Workload::ServePreempt => "serve_preempt",
            Workload::PaperSuite => "paper_suite",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The daemon configuration of a serve workload; `None` for the
    /// paper suite.
    #[must_use]
    pub fn serve_shape(self) -> Option<ServeShape> {
        match self {
            Workload::ServeSmall => Some(ServeShape {
                wal: false,
                quantum: None,
                fast_every: 2,
            }),
            Workload::ServeJournal => Some(ServeShape {
                wal: true,
                quantum: None,
                fast_every: 2,
            }),
            // Fast-tier jobs are never preempted and finish two orders of
            // magnitude sooner; at one in two they would put the median
            // exactly on the gap between the two tiers' latencies.
            Workload::ServePreempt => Some(ServeShape {
                wal: true,
                quantum: Some(SNAP_QUANTUM),
                fast_every: 4,
            }),
            Workload::PaperSuite => None,
        }
    }
}

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for log files and written results.
    pub work_dir: PathBuf,
}

/// Run one invocation.
///
/// # Errors
///
/// Set-up failed (the mix, a bind, a log directory); a wrong output is
/// not an error but a failed check in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    match (opts.workload.serve_shape(), opts.trace) {
        (Some(shape), false) => serve_timed(opts, shape),
        (Some(shape), true) => serve_layers(opts, shape, opts.seconds * TRACED_SHARE),
        (None, false) => suite_timed(opts),
        (None, true) => suite_traced(opts),
    }
}

/// The simulated facts every set-up of one seed must reproduce exactly:
/// per-kernel references and slice counts.
fn fingerprint(bench: &ServeBench) -> Vec<(u64, u64, u64, u64)> {
    bench
        .mix
        .kernels
        .iter()
        .zip(&bench.slices)
        .map(|(k, &s)| {
            (
                k.reference.digest,
                k.reference.cycles,
                k.reference.instructions,
                s,
            )
        })
        .collect()
}

/// Count one check that every fingerprint equals the first.
fn check_repeats<T: PartialEq>(prints: &[T], what: &str, gate: &mut Gate) {
    gate.check(if prints.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err(format!("{what} differ between repeats of one invocation"))
    });
}

fn serve_timed(opts: &Options, shape: ServeShape) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SERVE_ROUNDS);
    let mut prints = Vec::with_capacity(SERVE_ROUNDS);
    let mut run = LoadRun::default();
    for _ in 0..SERVE_ROUNDS {
        let (bench, t) = timed(|| ServeBench::setup(opts.seed, shape, &opts.work_dir, false));
        let mut bench = bench?;
        setups.push(t / 1e6);
        prints.push(fingerprint(&bench));
        outcome.gate.merge(std::mem::take(&mut bench.warmup));
        let round = bench.run(opts.seconds / SERVE_ROUNDS as f64);
        drop(bench.finish());
        outcome.gate.merge(round.gate);
        run.jobs.extend(round.jobs);
        run.elapsed_s += round.elapsed_s;
    }
    check_repeats(
        &prints,
        "mix references and slice counts",
        &mut outcome.gate,
    );
    let latencies: Vec<f64> = run.jobs.iter().map(|j| j.latency_us).collect();
    // Served throughput of each tier: simulated instructions its jobs
    // completed per second of the run, as the load harness reports it.
    let tier_rate = |fast: bool| {
        let instr: u64 = run
            .jobs
            .iter()
            .filter(|j| j.fast == fast)
            .map(|j| j.instructions)
            .sum();
        instr as f64 / run.elapsed_s.max(1e-9)
    };
    let n = run.jobs.len();
    outcome.metrics = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("jobs_per_s", run.jobs_per_s(), "jobs/s", n),
        metric("latency_p50_us", quantile(&latencies, 0.5), "us", n),
        metric("latency_p90_us", quantile(&latencies, 0.9), "us", n),
        metric("cycle_instr_per_s", tier_rate(false), "instr/s", n),
        metric("fast_instr_per_s", tier_rate(true), "instr/s", n),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", 1),
    ];
    Ok(outcome)
}

/// Per-layer metrics of a serve configuration: the layer pass on the
/// seed's mix, an untraced run for the `serve.*` breakdown, and a
/// span-traced run for the `profile.*` self times.
fn serve_layers(opts: &Options, shape: ServeShape, seconds: f64) -> Result<Outcome, String> {
    let mut bench = ServeBench::setup(opts.seed, shape, &opts.work_dir, false)?;
    let mut untraced = bench.run(seconds);
    let mut outcome = Outcome {
        gate: std::mem::take(&mut bench.warmup),
        ..Outcome::default()
    };
    outcome.gate.merge(std::mem::take(&mut untraced.gate));
    let mut prints = vec![fingerprint(&bench)];
    outcome.metrics = serve_breakdown(&untraced, bench.slices_per_job());
    outcome.metrics.extend(layer_pass(
        &bench.mix,
        shape,
        &opts.work_dir,
        &mut outcome.gate,
    )?);
    drop(bench.finish());

    let mut bench = ServeBench::setup(opts.seed, shape, &opts.work_dir, true)?;
    prints.push(fingerprint(&bench));
    outcome.gate.merge(std::mem::take(&mut bench.warmup));
    let mut traced = bench.run(seconds);
    traced.spans = bench.finish();
    outcome.gate.merge(std::mem::take(&mut traced.gate));
    check_repeats(
        &prints,
        "mix references and slice counts",
        &mut outcome.gate,
    );
    let b = SpanBreakdown::of(&traced);
    let overhead =
        100.0 * (untraced.jobs_per_s() - traced.jobs_per_s()) / untraced.jobs_per_s().max(1e-9);
    outcome.metrics.extend([
        metric("profile.client_latency_us", b.client_us, "us", b.jobs),
        metric("profile.queue_self_us", b.queue_us, "us", b.jobs),
        metric("profile.run_self_us", b.run_us, "us", b.jobs),
        metric("profile.capture_self_us", b.capture_us, "us", b.jobs),
        metric("profile.restore_self_us", b.restore_us, "us", b.jobs),
        metric("profile.reply_self_us", b.reply_us, "us", b.jobs),
        metric("profile.unspanned_us", b.unspanned_us, "us", b.jobs),
        metric("profile.overhead_pct", overhead, "%", traced.jobs.len()),
    ]);
    gate_spans(&traced, b.jobs, &mut outcome.gate);
    outcome.spans_jsonl = traced
        .spans
        .iter()
        .filter_map(|s| serde_json::to_string(s).ok())
        .map(|line| line + "\n")
        .collect();
    Ok(outcome)
}

/// Every traced job must have a timeline, and every timeline must tile.
fn gate_spans(traced: &LoadRun, matched: usize, gate: &mut Gate) {
    gate.check(if matched == traced.jobs.len() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} traced jobs have no span timeline",
            traced.jobs.len() - matched,
            traced.jobs.len()
        ))
    });
    for spans in &traced.spans {
        gate.check(spans.check_tiling());
    }
}

/// The `serve.*` metrics of an untraced run.
fn serve_breakdown(run: &LoadRun, slices_per_job: f64) -> Vec<Metric> {
    let n = run.jobs.len();
    let collect = |f: &dyn Fn(&serve_load::JobRecord) -> f64| -> Vec<f64> {
        run.jobs.iter().map(f).collect()
    };
    let ack = collect(&|j| j.ack_us);
    let done = collect(&|j| j.latency_us - j.ack_us);
    let queue = collect(&|j| j.queue_us as f64);
    let exec_run = collect(&|j| j.exec_us.saturating_sub(j.snap_us) as f64);
    let snap = collect(&|j| j.snap_us as f64);
    let unattributed = collect(&|j| j.latency_us - (j.queue_us + j.exec_us) as f64);
    vec![
        metric("serve.ack_us", median(&ack), "us", n),
        metric("serve.done_us", median(&done), "us", n),
        metric("serve.queue_us", stats::mean(&queue), "us", n),
        metric("serve.run_us", stats::mean(&exec_run), "us", n),
        metric("serve.snap_us", stats::mean(&snap), "us", n),
        metric("serve.unattributed_us", stats::mean(&unattributed), "us", n),
        metric("serve.slices_per_job", slices_per_job, "slices", n),
    ]
}

/// Set up the suite and warm it with one fast-tier pass.
fn suite_setup(seed: u64, gate: &mut Gate) -> Result<Suite, String> {
    let suite = Suite::setup(seed)?;
    drop(suite.pass(ExecMode::Fast, gate));
    Ok(suite)
}

fn suite_timed(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let (mut cycle, mut fast): (Vec<AppRun>, Vec<AppRun>) = (Vec::new(), Vec::new());
    let mut elapsed = 0.0;
    let mut suite = None;
    while setups.is_empty() || setups.len() % SUITE_GROUPS != 0 || elapsed < opts.seconds {
        let group = setups.len() % SUITE_GROUPS;
        let (s, t) = timed(|| suite_setup(opts.seed, &mut outcome.gate));
        setups.push(t / 1e6);
        let s = suite.insert(s?);
        let ((c, f), t) = timed(|| {
            s.round(
                group,
                SUITE_GROUPS,
                FAST_RUNS_PER_CYCLE_RUN,
                &mut outcome.gate,
            )
        });
        elapsed += t / 1e6;
        cycle.extend(c);
        fast.extend(f);
    }
    let suite = suite.expect("at least one round");
    check_determinism(&suite, &cycle, &fast, &mut outcome.gate);
    let n = cycle.len() + fast.len();
    let latencies = app_latencies(&cycle, &fast);
    outcome.metrics = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("jobs_per_s", n as f64 / elapsed, "jobs/s", n),
        metric(
            "latency_p50_us",
            quantile(&latencies, 0.5),
            "us",
            latencies.len(),
        ),
        metric(
            "latency_p90_us",
            quantile(&latencies, 0.9),
            "us",
            latencies.len(),
        ),
        metric(
            "cycle_instr_per_s",
            instr_per_s(&cycle),
            "instr/s",
            cycle.len(),
        ),
        metric(
            "fast_instr_per_s",
            instr_per_s(&fast),
            "instr/s",
            fast.len(),
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", 1),
    ];
    Ok(outcome)
}

/// The paper suite's per-layer pass: the CU and fastpath numbers come
/// from one pass of the applications on each tier. The suite exercises no
/// serve, protocol, engine, snap or WAL code, so those layers (and the
/// per-kernel system and translation costs) are reported from the
/// `serve_small` configuration on the seed's mix, to keep every per-layer
/// name on every workload.
fn suite_traced(opts: &Options) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let suite = suite_setup(opts.seed, &mut gate)?;
    let cycle = suite.pass(ExecMode::Cycle, &mut gate);
    let fast = suite.pass(ExecMode::Fast, &mut gate);
    check_determinism(&suite, &cycle, &fast, &mut gate);
    let shape = Workload::ServeSmall
        .serve_shape()
        .expect("a serve workload");
    let mut outcome = serve_layers(opts, shape, opts.seconds * TRACED_SHARE / 2.0)?;
    outcome.gate.merge(gate);
    let instr: u64 = cycle.iter().map(|r| r.instructions).sum();
    let cycles: u64 = cycle.iter().map(|r| r.cycles).sum();
    let ns_per = |runs: &[AppRun]| 1e9 / instr_per_s(runs);
    let mut own = sim_counts(cycles, instr, cycle.len());
    own.push(metric(
        "cu.ns_per_instr",
        ns_per(&cycle),
        "ns/instr",
        cycle.len(),
    ));
    own.push(metric(
        "fastpath.ns_per_instr",
        ns_per(&fast),
        "ns/instr",
        fast.len(),
    ));
    for m in own {
        if let Some(slot) = outcome.metrics.iter_mut().find(|x| x.name == m.name) {
            *slot = m;
        }
    }
    Ok(outcome)
}
