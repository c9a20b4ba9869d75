//! Chaos harness: prove the WAL's exactly-once recovery promise under
//! violent failure.
//!
//! The driver runs a real serve daemon *as a child process* (so it can be
//! SIGKILLed mid-anything), drives seeded load at it with reconnecting
//! clients, kills it at seeded random points — including mid-append, via
//! the `SCRATCH_WAL_CRASH` torn-write hook — restarts it against the same
//! `--wal-dir`, and finally audits the surviving log against the invariant
//! a production inference stack needs from in-flight request recovery:
//!
//! * **Exactly-once** — every acked admission completes exactly once
//!   (one completion record per id, no duplicates, no losses);
//! * **Bit-identity** — every completion's digest equals a direct
//!   in-process run of the same kernel (replayed and checkpoint-resumed
//!   jobs included);
//! * **No phantom work** — no completion for an id that was never
//!   admitted, and no client ever receives a `Done` for a job it was not
//!   acked.
//!
//! The whole campaign is deterministic in its *schedule* (kernels, the
//! ack count each kill waits for, tear points all derive from
//! [`ChaosPlan::seed`]); the precise
//! instruction the daemon dies on still varies run to run, which is the
//! point — the invariant must hold for every interleaving.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use scratch_check::GenKernel;
use scratch_system::{System, SystemConfig, SystemKind};
use scratch_wal::{verify, WalState};

use crate::client::ServeClient;
use crate::protocol::{fnv1a, SubmitRequest};

/// The campaign schedule.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for everything random: the kernel mix, kill points, tear
    /// points.
    pub seed: u64,
    /// SIGKILL/restart cycles before the final drain cycle.
    pub cycles: u32,
    /// Distinct jobs the campaign must complete at least once.
    pub jobs: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Distinct tenants the jobs bill against.
    pub tenants: usize,
    /// Daemon address, fixed across restarts (the clients reconnect to
    /// it).
    pub addr: String,
    /// The write-ahead log directory shared by every daemon lifetime.
    pub wal_dir: PathBuf,
    /// Preemption quantum handed to the daemon — small, so jobs slice and
    /// checkpoint records land in the log for recovery to resume from.
    pub quantum: u64,
    /// Per-lifetime range `(min, max)` of acked admissions: each kill
    /// cycle draws `k` from it (seeded) and SIGKILLs the daemon right
    /// after the `k`-th ack of that lifetime, so the kill lands while jobs
    /// are in flight whatever the host speed. A lifetime whose clients
    /// run out of work first, or that outlives a 10 s wall-clock cap, is
    /// killed then instead.
    pub kill_after_acks: (u64, u64),
    /// Install the `SCRATCH_WAL_CRASH` mid-append tear-and-abort hook on
    /// every `n`-th kill cycle (0 = never): the daemon dies *inside* a
    /// `write(2)`, leaving a torn frame exactly as a power cut would.
    pub mid_append_every: u32,
    /// Command prefix that launches a serve daemon (binary plus any extra
    /// flags). The harness appends `--addr`, `--wal-dir` and `--quantum`
    /// itself.
    pub daemon: Vec<String>,
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan {
            seed: 42,
            cycles: 5,
            jobs: 96,
            clients: 4,
            tenants: 3,
            addr: "127.0.0.1:7999".to_owned(),
            wal_dir: std::env::temp_dir().join("scratch-chaos-wal"),
            quantum: 200,
            // Short lifetimes: the kill must land while jobs are in
            // flight, or nothing ever needs replaying.
            kill_after_acks: (4, 16),
            mid_append_every: 2,
            daemon: Vec::new(),
        }
    }
}

/// What the campaign observed, and the verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The plan's seed.
    pub seed: u64,
    /// Kill cycles driven (excluding the final drain cycle).
    pub cycles: u32,
    /// SIGKILLs delivered.
    pub kills: u32,
    /// Cycles where the mid-append tear-and-abort hook was armed.
    pub mid_append_crashes: u32,
    /// Distinct jobs in the campaign.
    pub jobs: u64,
    /// Distinct admissions acked to a client across all daemon lifetimes.
    pub acked: u64,
    /// Admission records in the final log.
    pub admitted: u64,
    /// Completion records in the final log.
    pub completions: u64,
    /// Checkpoint records in the final log (mid-run durable state).
    pub checkpoints: u64,
    /// Submissions of a job that had already been acked in an earlier
    /// daemon lifetime (the client could not know — its ack or `Done` was
    /// lost to a crash).
    pub resubmits: u64,
    /// Client reconnections after a connection reset.
    pub reconnects: u64,
    /// Ids with more than one completion record — exactly-once
    /// violations. Must be 0.
    pub duplicates: u64,
    /// Acked admissions with no completion record after the final drain —
    /// lost jobs. Must be 0.
    pub losses: u64,
    /// Completions whose digest differs from the direct in-process run of
    /// the same kernel. Must be 0.
    pub digest_mismatches: u64,
    /// Completion records with `ok: false`. Must be 0 (nothing in this
    /// campaign legitimately fails).
    pub failed_jobs: u64,
    /// Completion records whose id was never admitted. Must be 0.
    pub orphan_completions: u64,
    /// Admitted jobs with no completion after the final drain. Must be 0.
    pub unfinished: u64,
    /// `Done`s a client received for a job it was never acked. Must be 0.
    pub unacked_done: u64,
    /// A job id acked twice across daemon lifetimes (the recovered id
    /// floor failed). Must be 0.
    pub id_reuse: u64,
    /// The final log still carries damage after the last recovery. Must
    /// be `false`.
    pub damage: bool,
    /// The verdict: every invariant above held.
    pub exactly_once: bool,
    /// Campaign wall clock, milliseconds.
    pub wall_ms: u64,
}

impl ChaosReport {
    /// `true` when every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.exactly_once
    }

    /// Multi-line human summary; the last line is the grep-stable
    /// verdict.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "chaos: seed {} — {} kill cycles ({} SIGKILL, {} armed mid-append), {} jobs, {} ms\n",
            self.seed, self.cycles, self.kills, self.mid_append_crashes, self.jobs, self.wall_ms
        ));
        s.push_str(&format!(
            "chaos: log holds {} admissions / {} completions / {} checkpoints; \
             {} acked, {} resubmits, {} reconnects\n",
            self.admitted,
            self.completions,
            self.checkpoints,
            self.acked,
            self.resubmits,
            self.reconnects
        ));
        let verdict = if self.exactly_once {
            "chaos: exactly-once OK".to_owned()
        } else {
            "chaos: exactly-once VIOLATED".to_owned()
        };
        s.push_str(&format!(
            "{verdict} — {} duplicates, {} losses, {} digest mismatches, {} failed, \
             {} orphans, {} unfinished, {} unacked-done, {} id-reuse, damage: {}",
            self.duplicates,
            self.losses,
            self.digest_mismatches,
            self.failed_jobs,
            self.orphan_completions,
            self.unfinished,
            self.unacked_done,
            self.id_reuse,
            self.damage
        ));
        s
    }
}

/// One job of the campaign, with its ground-truth digest from a direct
/// in-process run.
struct JobSpec {
    label: String,
    tenant: String,
    kernel: scratch_asm::Kernel,
    image: Vec<u32>,
    grid: [u32; 3],
    out_bytes: u64,
    digest: u64,
}

impl JobSpec {
    fn request(&self) -> SubmitRequest {
        SubmitRequest {
            tenant: self.tenant.clone(),
            label: self.label.clone(),
            kernel: self.kernel.clone(),
            input: self.image.clone(),
            grid: self.grid,
            out_bytes: self.out_bytes,
            system: None,
            return_output: false,
            exec: None,
        }
    }
}

/// splitmix64 — the repo's stock deterministic stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the job mix: seeded generated kernels (skipping unbuildable
/// seeds, as the fuzzer does), `wgs` stretched so small quanta force
/// multi-slice runs, each with its direct-run digest.
fn build_specs(seed: u64, jobs: usize, tenants: usize) -> io::Result<Vec<JobSpec>> {
    let mut specs = Vec::with_capacity(jobs);
    let mut s = seed;
    while specs.len() < jobs {
        let idx = specs.len();
        let mut gk = GenKernel::generate(s);
        s = s.wrapping_add(1);
        gk.wgs = 2 + (idx as u32 % 3); // 2..=4 workgroups
        let Ok(kernel) = gk.build() else { continue };
        let digest = direct_digest(&gk, &kernel)?;
        specs.push(JobSpec {
            label: format!("chaos-{idx}"),
            tenant: format!("t{}", idx % tenants.max(1)),
            kernel,
            image: gk.image.clone(),
            grid: [gk.wgs, 1, 1],
            out_bytes: gk.out_bytes(),
            digest,
        });
    }
    Ok(specs)
}

/// Mirror of the server's execution path, run directly in-process — the
/// ground truth every completion digest must equal bit-for-bit.
fn direct_digest(gk: &GenKernel, kernel: &scratch_asm::Kernel) -> io::Result<u64> {
    let config = SystemConfig::preset(SystemKind::DcdPm);
    let mut sys = System::new(config, kernel).map_err(io::Error::other)?;
    let out = sys.alloc(gk.out_bytes().max(4));
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    sys.dispatch([gk.wgs, 1, 1]).map_err(io::Error::other)?;
    let words = sys.read_words(out, (gk.out_bytes().max(4) / 4) as usize);
    Ok(fnv1a(&words))
}

/// Client-side shared state, accumulated across every daemon lifetime.
struct Shared {
    specs: Vec<JobSpec>,
    /// Jobs not yet confirmed complete by a client-received `Done`.
    remaining: Mutex<BTreeSet<usize>>,
    /// Every acked admission: server job id → spec index.
    acked: Mutex<BTreeMap<u64, usize>>,
    /// Spec indices acked at least once (resubmission detector).
    ever_acked: Mutex<BTreeSet<usize>>,
    stop: AtomicBool,
    /// Admissions acked in the current daemon lifetime (the kill trigger).
    lifetime_acks: AtomicU64,
    resubmits: AtomicU64,
    reconnects: AtomicU64,
    unacked_done: AtomicU64,
    id_reuse: AtomicU64,
    client_mismatch: AtomicU64,
}

/// One closed-loop chaos client: claims jobs `idx % clients == c`,
/// submits, awaits the `Done`, repeats. `reconnect: false` (kill cycles)
/// dies with its connection; `reconnect: true` (the drain cycle) keeps
/// reconnecting until its share of jobs is empty.
#[allow(clippy::too_many_lines)]
fn client_loop(shared: &Shared, addr: &str, c: usize, clients: usize, reconnect: bool) {
    let mut rng_state = (c as u64).wrapping_mul(0x517c_c1b7_2722_0a95) ^ 0x5ca1ab1e;
    let mut client: Option<ServeClient> = None;
    let mut connected_before = false;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // My next unfinished job.
        let idx = {
            let rem = shared.remaining.lock().expect("remaining lock");
            rem.iter().copied().find(|i| i % clients == c)
        };
        let Some(idx) = idx else { return };
        if client.is_none() {
            match ServeClient::connect(addr) {
                Ok(conn) => {
                    if connected_before {
                        shared.reconnects.fetch_add(1, Ordering::AcqRel);
                    }
                    connected_before = true;
                    // Safety net so a wedged daemon cannot hang the
                    // campaign; treated as a dead connection.
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(20)));
                    client = Some(conn);
                }
                Err(_) => {
                    if !reconnect {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20 + mix(&mut rng_state) % 60));
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");
        match conn.submit(shared.specs[idx].request()) {
            Ok(Ok(id)) => {
                shared.lifetime_acks.fetch_add(1, Ordering::AcqRel);
                {
                    let mut acked = shared.acked.lock().expect("acked lock");
                    if acked.insert(id, idx).is_some() {
                        // A restarted daemon re-minted an id an earlier
                        // lifetime already acked: the recovery id floor
                        // failed.
                        shared.id_reuse.fetch_add(1, Ordering::AcqRel);
                    }
                }
                if !shared
                    .ever_acked
                    .lock()
                    .expect("ever-acked lock")
                    .insert(idx)
                {
                    shared.resubmits.fetch_add(1, Ordering::AcqRel);
                }
                match conn.recv_done() {
                    Ok(done) => {
                        let owner = shared
                            .acked
                            .lock()
                            .expect("acked lock")
                            .get(&done.job)
                            .copied();
                        match owner {
                            Some(done_idx) => {
                                if !done.ok || done.digest != shared.specs[done_idx].digest {
                                    shared.client_mismatch.fetch_add(1, Ordering::AcqRel);
                                }
                                shared
                                    .remaining
                                    .lock()
                                    .expect("remaining lock")
                                    .remove(&done_idx);
                            }
                            None => {
                                shared.unacked_done.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    }
                    Err(_) => {
                        client = None; // connection died mid-job
                        if !reconnect {
                            return;
                        }
                    }
                }
            }
            Ok(Err(rejection)) => {
                let backoff = rejection.retry_after_ms.map_or(5, |ms| ms.min(50));
                std::thread::sleep(Duration::from_millis(backoff + mix(&mut rng_state) % 10));
            }
            Err(_) => {
                client = None;
                if !reconnect {
                    return;
                }
            }
        }
    }
}

fn spawn_daemon(plan: &ChaosPlan, crash_env: Option<&str>) -> io::Result<Child> {
    let mut cmd = Command::new(&plan.daemon[0]);
    cmd.args(&plan.daemon[1..])
        .args(["--addr", &plan.addr])
        .args(["--wal-dir", &plan.wal_dir.display().to_string()])
        .args(["--quantum", &plan.quantum.to_string()])
        .stdin(Stdio::null());
    match crash_env {
        Some(spec) => cmd.env("SCRATCH_WAL_CRASH", spec),
        None => cmd.env_remove("SCRATCH_WAL_CRASH"),
    };
    cmd.spawn()
}

/// Poll until the daemon answers a ping. `Ok(false)` means the child
/// exited before becoming ready (e.g. an armed tear fired during replay);
/// the caller restarts it clean.
fn wait_ready(addr: &str, child: &mut Child) -> io::Result<bool> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if child.try_wait()?.is_some() {
            return Ok(false);
        }
        if let Ok(mut c) = ServeClient::connect(addr) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
            if c.ping().unwrap_or(false) {
                return Ok(true);
            }
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err(io::Error::other(format!(
                "daemon at {addr} not ready within 20s"
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Run the campaign: kill cycles, a final drain cycle, then the audit.
///
/// # Errors
///
/// Harness-level failure only (cannot spawn or reach the daemon, direct
/// runs fail, the log is unreadable). *Invariant violations are not
/// errors* — they land in the report with `exactly_once: false`.
#[allow(clippy::too_many_lines)]
pub fn run_chaos(plan: &ChaosPlan) -> io::Result<ChaosReport> {
    if plan.daemon.is_empty() {
        return Err(io::Error::other(
            "ChaosPlan::daemon must name the serve daemon command",
        ));
    }
    let started = Instant::now();
    std::fs::create_dir_all(&plan.wal_dir)?;
    let clients = plan.clients.max(1);
    let specs = build_specs(plan.seed, plan.jobs.max(1), plan.tenants)?;
    let shared = Shared {
        remaining: Mutex::new((0..specs.len()).collect()),
        specs,
        acked: Mutex::new(BTreeMap::new()),
        ever_acked: Mutex::new(BTreeSet::new()),
        stop: AtomicBool::new(false),
        lifetime_acks: AtomicU64::new(0),
        resubmits: AtomicU64::new(0),
        reconnects: AtomicU64::new(0),
        unacked_done: AtomicU64::new(0),
        id_reuse: AtomicU64::new(0),
        client_mismatch: AtomicU64::new(0),
    };
    let mut rng = plan.seed ^ 0xc4a0_5c4a_05c4_a05c;
    let mut kills = 0u32;
    let mut mid_append = 0u32;

    for cycle in 0..plan.cycles {
        let armed = plan.mid_append_every > 0 && (cycle + 1) % plan.mid_append_every == 0;
        let crash_spec = armed.then(|| {
            mid_append += 1;
            // Tear a frame `at` appends into this lifetime, keeping a
            // few bytes — both drawn from the seed.
            format!("{}:{}", 5 + mix(&mut rng) % 40, 1 + mix(&mut rng) % 14)
        });
        let mut child = spawn_daemon(plan, crash_spec.as_deref())?;
        if !wait_ready(&plan.addr, &mut child)? {
            // The armed tear fired before the daemon was ready (during
            // replay appends). That *is* a crash cycle; restart clean.
            let _ = child.wait();
            child = spawn_daemon(plan, None)?;
            if !wait_ready(&plan.addr, &mut child)? {
                return Err(io::Error::other("daemon died twice before ready"));
            }
        }
        shared.stop.store(false, Ordering::Release);
        shared.lifetime_acks.store(0, Ordering::Release);
        let (lo, hi) = plan.kill_after_acks;
        let kill_at = lo + mix(&mut rng) % (hi.saturating_sub(lo) + 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let shared = &shared;
                    let addr = plan.addr.as_str();
                    s.spawn(move || client_loop(shared, addr, c, clients, false))
                })
                .collect();
            while shared.lifetime_acks.load(Ordering::Acquire) < kill_at
                && !handles.iter().all(|h| h.is_finished())
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_micros(200));
            }
            let _ = child.kill(); // SIGKILL on unix
            shared.stop.store(true, Ordering::Release);
        });
        let _ = child.wait();
        kills += 1;
    }

    // Final cycle: restart, drive every remaining job to completion, then
    // drain gracefully.
    let mut child = spawn_daemon(plan, None)?;
    if !wait_ready(&plan.addr, &mut child)? {
        return Err(io::Error::other("final daemon lifetime died before ready"));
    }
    shared.stop.store(false, Ordering::Release);
    std::thread::scope(|s| {
        for c in 0..clients {
            let shared = &shared;
            let addr = plan.addr.as_str();
            s.spawn(move || client_loop(shared, addr, c, clients, true));
        }
    });
    let mut ctl = ServeClient::connect(&plan.addr)?;
    ctl.drain()?;
    let _ = child.wait();

    // The audit: the log is the ledger.
    let state = WalState::read(&plan.wal_dir).map_err(io::Error::other)?;
    let vr = verify(&plan.wal_dir).map_err(io::Error::other)?;
    let spec_of_label = |label: &str| -> Option<usize> {
        label
            .strip_prefix("chaos-")
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|&i| i < shared.specs.len())
    };
    let mut digest_mismatches = shared.client_mismatch.load(Ordering::Acquire);
    let mut failed_jobs = 0u64;
    let mut completions = 0u64;
    for (id, metas) in &state.completions {
        completions += metas.len() as u64;
        let expected = state
            .admitted
            .get(id)
            .and_then(|(_, label)| spec_of_label(label))
            .map(|i| shared.specs[i].digest);
        for meta in metas {
            if !meta.ok {
                failed_jobs += 1;
            } else if expected.is_some_and(|d| d != meta.digest) {
                digest_mismatches += 1;
            }
        }
    }
    let acked = shared.acked.lock().expect("acked lock");
    let losses = acked
        .keys()
        .filter(|id| !state.completions.contains_key(id))
        .count() as u64;

    let report = ChaosReport {
        seed: plan.seed,
        cycles: plan.cycles,
        kills,
        mid_append_crashes: mid_append,
        jobs: shared.specs.len() as u64,
        acked: acked.len() as u64,
        admitted: state.admitted.len() as u64,
        completions,
        checkpoints: state.checkpoints.values().sum(),
        resubmits: shared.resubmits.load(Ordering::Acquire),
        reconnects: shared.reconnects.load(Ordering::Acquire),
        duplicates: vr.duplicate_completions,
        losses,
        digest_mismatches,
        failed_jobs,
        orphan_completions: vr.orphan_completions,
        unfinished: vr.unfinished,
        unacked_done: shared.unacked_done.load(Ordering::Acquire),
        id_reuse: shared.id_reuse.load(Ordering::Acquire),
        damage: vr.damage.is_some(),
        exactly_once: false,
        wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
    };
    let exactly_once = report.duplicates == 0
        && report.losses == 0
        && report.digest_mismatches == 0
        && report.failed_jobs == 0
        && report.orphan_completions == 0
        && report.unfinished == 0
        && report.unacked_done == 0
        && report.id_reuse == 0
        && !report.damage;
    Ok(ChaosReport {
        exactly_once,
        ..report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_labeled() {
        let a = build_specs(7, 6, 3).expect("build");
        let b = build_specs(7, 6, 3).expect("build");
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.digest, y.digest, "direct digests are reproducible");
        }
        assert_eq!(a[0].label, "chaos-0");
        assert_eq!(a[5].tenant, "t2");
        assert!(a.iter().all(|s| s.out_bytes >= 4));
    }

    #[test]
    fn report_summary_carries_the_grep_stable_verdict() {
        let mut r = ChaosReport {
            exactly_once: true,
            ..ChaosReport::default()
        };
        assert!(r.summary().contains("chaos: exactly-once OK"));
        r.exactly_once = false;
        r.losses = 2;
        assert!(r.summary().contains("chaos: exactly-once VIOLATED"));
        assert!(r.summary().contains("2 losses"));
    }

    #[test]
    fn empty_daemon_command_is_a_typed_error() {
        let plan = ChaosPlan {
            jobs: 1,
            ..ChaosPlan::default()
        };
        let err = run_chaos(&plan).expect_err("no daemon command");
        assert!(err.to_string().contains("daemon"));
    }
}
