//! The serve workloads: an in-process daemon driven in a closed loop by
//! one client thread per core, every `Done` checked against the mix's
//! reference runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scratch_profile::{JobSpans, SpanKind, SpanRecorder};
use scratch_serve::{JobDone, ServeClient, ServeConfig, Server};
use scratch_system::{DispatchProgress, ExecMode};
use scratch_wal::WalConfig;

use crate::mix::{build_system, job_shape, Mix, MixKernel, MIX_KERNELS};
use crate::report::Gate;
use crate::stats::us;

/// Closed-loop clients, each with its own connection and tenant.
pub const CLIENTS: usize = 2;

/// Engine workers of the daemon under test, one per client.
pub const WORKERS: usize = 2;

/// Jobs each client runs after bind and before timing starts.
pub const WARMUP_JOBS: u64 = 8;

/// How a serve workload configures the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeShape {
    /// Journal admissions and completions to a write-ahead log.
    pub wal: bool,
    /// Preemption quantum in simulated cycles (`None` = the default,
    /// which no mix kernel reaches).
    pub quantum: Option<u64>,
    /// Every `fast_every`-th submission runs on the fast tier.
    pub fast_every: u64,
}

/// One served job as the client saw it: its timings and the `Done`
/// fields the metrics use.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Job id.
    pub job: u64,
    /// Ran on the fast tier.
    pub fast: bool,
    /// Submit → `Accepted`, µs.
    pub ack_us: f64,
    /// Submit → `Done`, µs.
    pub latency_us: f64,
    /// Instructions the job retired.
    pub instructions: u64,
    /// Server-side queue wait, µs.
    pub queue_us: u64,
    /// Server-side execution time, checkpoint plane included, µs.
    pub exec_us: u64,
    /// Of `exec_us`, the checkpoint plane's share, µs.
    pub snap_us: u64,
}

/// Everything one timed (or traced) closed-loop run produced.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// Completed jobs in completion order per client.
    pub jobs: Vec<JobRecord>,
    /// Wall-clock seconds from the first submit to the last `Done`.
    pub elapsed_s: f64,
    /// Correctness tally of the run's submissions.
    pub gate: Gate,
    /// Span timelines (traced runs only).
    pub spans: Vec<JobSpans>,
}

impl LoadRun {
    /// Completed jobs per second.
    #[must_use]
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// A bound daemon with its mix, ready to be driven.
pub struct ServeBench {
    /// The kernel mix and its references.
    pub mix: Mix,
    /// Expected slices of each mix kernel on the cycle tier under this
    /// workload's quantum (fast-tier jobs always take one).
    pub slices: Vec<u64>,
    /// Correctness tally of the warm-up jobs.
    pub warmup: Gate,
    shape: ServeShape,
    server: Server,
    spans: Option<Arc<SpanRecorder>>,
    wal_dir: Option<PathBuf>,
}

impl ServeBench {
    /// Build the mix from `seed`, bind a daemon shaped by `shape` (with a
    /// fresh log directory under `work_dir` when it journals), and warm
    /// it up. `spans` turns on the daemon's job timelines.
    ///
    /// # Errors
    ///
    /// The mix, the log directory or the bind failed.
    pub fn setup(
        seed: u64,
        shape: ServeShape,
        work_dir: &Path,
        spans: bool,
    ) -> Result<ServeBench, String> {
        let mix = Mix::build(seed)?;
        let quantum = shape
            .quantum
            .unwrap_or(ServeConfig::default().quantum_cycles);
        let slices = mix
            .kernels
            .iter()
            .map(|k| reference_slices(k, quantum))
            .collect::<Result<Vec<_>, _>>()?;
        let wal_dir = if shape.wal {
            Some(fresh_dir(work_dir, "wal")?)
        } else {
            None
        };
        let config = ServeConfig {
            workers: WORKERS,
            quantum_cycles: quantum,
            spans,
            wal: wal_dir.as_ref().map(WalConfig::new),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let spans = server.span_recorder();
        let mut bench = ServeBench {
            mix,
            slices,
            warmup: Gate::default(),
            shape,
            server,
            spans,
            wal_dir,
        };
        bench.warmup = bench.drive(Budget::Jobs(WARMUP_JOBS)).gate;
        if let Some(spans) = &bench.spans {
            drop(spans.take_finished());
        }
        Ok(bench)
    }

    /// Drive the daemon for `seconds` and return what the clients saw.
    #[must_use]
    pub fn run(&self, seconds: f64) -> LoadRun {
        self.drive(Budget::Seconds(seconds))
    }

    /// Shut the daemon down, collect the span timelines of every job it
    /// ran since the warm-up, and remove its log directory.
    #[must_use]
    pub fn finish(self) -> Vec<JobSpans> {
        drop(self.server.shutdown());
        let spans = self.spans.map(|r| r.take_finished()).unwrap_or_default();
        if let Some(dir) = self.wal_dir {
            // Best effort: a leftover directory only costs disk space.
            let _ = std::fs::remove_dir_all(dir);
        }
        spans
    }

    /// Run every client's closed loop until the budget is spent.
    fn drive(&self, budget: Budget) -> LoadRun {
        let addr = self.server.addr();
        let started = Instant::now();
        let deadline = match budget {
            Budget::Seconds(s) => Some(started + Duration::from_secs_f64(s.max(0.0))),
            Budget::Jobs(_) => None,
        };
        let per_client: Vec<(Vec<JobRecord>, Gate)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let limit = match budget {
                            Budget::Jobs(n) => n,
                            Budget::Seconds(_) => u64::MAX,
                        };
                        self.client_loop(addr, c, deadline, limit)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = started.elapsed().as_secs_f64();
        let mut run = LoadRun {
            elapsed_s,
            ..LoadRun::default()
        };
        for (jobs, gate) in per_client {
            run.jobs.extend(jobs);
            run.gate.merge(gate);
        }
        run
    }

    /// One closed-loop client: submit, wait for the `Done`, check it,
    /// repeat until the deadline or `limit` jobs.
    fn client_loop(
        &self,
        addr: std::net::SocketAddr,
        client: usize,
        deadline: Option<Instant>,
        limit: u64,
    ) -> (Vec<JobRecord>, Gate) {
        let mut jobs = Vec::new();
        let mut gate = Gate::default();
        let mut conn = match ServeClient::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                gate.check(Err(format!("client {client}: connect: {e}")));
                return (jobs, gate);
            }
        };
        let tenant = format!("t{client}");
        // Clients start half a mix and one submission apart, so they do not
        // run in lockstep.
        let first = (client * (MIX_KERNELS / CLIENTS + 1)) as u64;
        for n in first..first.saturating_add(limit) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let (kernel, fast) = job_shape(n, self.shape.fast_every);
            let request = self.mix.request(kernel, fast, &tenant);
            let begun = Instant::now();
            let ack = match conn.submit(request) {
                Ok(Ok(_job)) => begun.elapsed(),
                Ok(Err(rejection)) => {
                    gate.check(Err(format!("job shed: {}", rejection.reason)));
                    continue;
                }
                Err(e) => {
                    gate.check(Err(format!("client {client}: submit: {e}")));
                    break;
                }
            };
            let done = match conn.recv_done() {
                Ok(done) => done,
                Err(e) => {
                    gate.check(Err(format!("client {client}: recv: {e}")));
                    break;
                }
            };
            let latency = begun.elapsed();
            gate.check(self.check_done(kernel, fast, &done));
            jobs.push(JobRecord {
                job: done.job,
                fast,
                ack_us: us(ack),
                latency_us: us(latency),
                instructions: done.instructions,
                queue_us: done.queue_us,
                exec_us: done.exec_us,
                snap_us: done.snap_us,
            });
        }
        (jobs, gate)
    }

    /// The correctness gate for one served job: it succeeded, its digest
    /// and instruction count match the direct run, and on the cycle tier
    /// its cycles and slice count do too.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_done(&self, kernel: usize, fast: bool, done: &JobDone) -> Result<(), String> {
        let r = &self.mix.kernels[kernel].reference;
        let tier = if fast { "fast" } else { "cycle" };
        let expect_slices = if fast { 1 } else { self.slices[kernel] };
        if !done.ok {
            Err(format!(
                "job {} (k{kernel}, {tier}) failed: {}",
                done.job,
                done.error.as_deref().unwrap_or("no reason given")
            ))
        } else if done.digest != r.digest {
            Err(format!(
                "job {} (k{kernel}, {tier}): digest {:#x}, reference {:#x}",
                done.job, done.digest, r.digest
            ))
        } else if done.instructions != r.instructions {
            Err(format!(
                "job {} (k{kernel}, {tier}): {} instructions, reference {}",
                done.job, done.instructions, r.instructions
            ))
        } else if !fast && done.cycles != r.cycles {
            Err(format!(
                "job {} (k{kernel}, cycle): {} cycles, reference {}",
                done.job, done.cycles, r.cycles
            ))
        } else if done.slices != expect_slices {
            Err(format!(
                "job {} (k{kernel}, {tier}): {} slices, expected {expect_slices}",
                done.job, done.slices
            ))
        } else {
            Ok(())
        }
    }

    /// Mean slices per job over one full pass of the job pattern (see
    /// [`job_shape`]): an exact count, fixed by the seed and the shape.
    #[must_use]
    pub fn slices_per_job(&self) -> f64 {
        let every = self.shape.fast_every;
        let cycle: u64 = self.slices.iter().sum();
        let kernels = self.slices.len() as u64;
        ((every - 1) * cycle + kernels) as f64 / (every * kernels) as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum Budget {
    Seconds(f64),
    Jobs(u64),
}

/// Slices a direct preemptible run of `k` takes at `quantum` cycles.
fn reference_slices(k: &MixKernel, quantum: u64) -> Result<u64, String> {
    let (mut sys, _) = build_system(k, ExecMode::Cycle)?;
    let mut progress = sys
        .dispatch_preemptible(k.grid, quantum)
        .map_err(|e| e.to_string())?;
    let mut slices = 1;
    while progress == DispatchProgress::Paused {
        progress = sys.resume_dispatch(quantum).map_err(|e| e.to_string())?;
        slices += 1;
    }
    Ok(slices)
}

/// A new, empty directory under `work_dir`, unique to this process.
///
/// # Errors
///
/// The directory could not be created.
pub fn fresh_dir(work_dir: &Path, stem: &str) -> Result<PathBuf, String> {
    for n in 0u32.. {
        let dir = work_dir.join(format!("{stem}-{}-{n}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(format!("create {}: {e}", dir.display())),
        }
    }
    unreachable!("u32 range exhausted")
}

/// Mean self time per job of each span kind, and the client latency the
/// span timeline leaves uncovered, over the jobs `run` completed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanBreakdown {
    /// Jobs whose timeline was found.
    pub jobs: usize,
    /// Mean client latency of those jobs, µs.
    pub client_us: f64,
    /// Mean [`SpanKind::Queue`] self time, µs.
    pub queue_us: f64,
    /// Mean [`SpanKind::Run`] self time, µs.
    pub run_us: f64,
    /// Mean [`SpanKind::Capture`] self time, µs.
    pub capture_us: f64,
    /// Mean [`SpanKind::Restore`] self time, µs.
    pub restore_us: f64,
    /// Mean [`SpanKind::Reply`] self time, µs.
    pub reply_us: f64,
    /// Mean client latency minus the timeline's span, µs.
    pub unspanned_us: f64,
}

impl SpanBreakdown {
    /// Match each completed job to its timeline by job id. Spans of one
    /// job tile its server-side lifetime without nesting, so a span's
    /// self time is its duration.
    #[must_use]
    pub fn of(run: &LoadRun) -> SpanBreakdown {
        let by_job: std::collections::HashMap<u64, &JobSpans> =
            run.spans.iter().map(|s| (s.job, s)).collect();
        let mut b = SpanBreakdown::default();
        for job in &run.jobs {
            let Some(spans) = by_job.get(&job.job) else {
                continue;
            };
            b.jobs += 1;
            b.client_us += job.latency_us;
            b.queue_us += spans.kind_us(SpanKind::Queue) as f64;
            b.run_us += spans.kind_us(SpanKind::Run) as f64;
            b.capture_us += spans.kind_us(SpanKind::Capture) as f64;
            b.restore_us += spans.kind_us(SpanKind::Restore) as f64;
            b.reply_us += spans.kind_us(SpanKind::Reply) as f64;
            b.unspanned_us += job.latency_us - spans.total_us() as f64;
        }
        let n = b.jobs.max(1) as f64;
        for v in [
            &mut b.client_us,
            &mut b.queue_us,
            &mut b.run_us,
            &mut b.capture_us,
            &mut b.restore_us,
            &mut b.reply_us,
            &mut b.unspanned_us,
        ] {
            *v /= n;
        }
        b
    }
}
