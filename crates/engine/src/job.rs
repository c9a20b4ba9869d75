//! Jobs and their outcomes: the [`KernelJob`] `(kernel, config, grid)`
//! triple the pool batches, and the [`JobOutcome`]/[`JobError`] every
//! pooled job resolves to.

use std::fmt;
use std::time::Duration;

use scratch_asm::Kernel;
use scratch_system::{CuError, ExecMode, RunReport, System, SystemConfig, SystemError};

use crate::PreemptiveEngine;

/// Failure of a single job. A failing — even panicking — job never kills
/// the queue: its outcome carries the error and the workers move on.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The job panicked; the payload message was captured.
    Panicked(String),
    /// The simulator refused or aborted the run.
    System(SystemError),
    /// The job exceeded its cycle budget ([`KernelJob::run_with_budget`])
    /// — a non-terminating (or merely runaway) kernel resolves to this
    /// outcome instead of hanging
    /// [`PreemptiveHandle::join`](crate::PreemptiveHandle::join) forever.
    Watchdog {
        /// The cycle budget that was exhausted.
        budget: u64,
    },
    /// The job was cancelled — either while still queued or mid-flight at
    /// a preemption boundary
    /// ([`PreemptiveHandle::cancel`](crate::PreemptiveHandle::cancel)).
    Cancelled,
    /// Any other failure, stringified by the job itself.
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::System(e) => write!(f, "system: {e}"),
            JobError::Watchdog { budget } => {
                write!(f, "watchdog: job exceeded its {budget}-cycle budget")
            }
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemError> for JobError {
    fn from(e: SystemError) -> Self {
        JobError::System(e)
    }
}

/// When a job passed through the pool, stamped from the pool's logical
/// clock — a shared monotonic counter that ticks once per queue event, not
/// wall time, so stamps stay meaningful under any scheduler and never make
/// batch results depend on host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Tick at which the job was submitted to the queue.
    pub enqueued: u64,
    /// Tick at which a worker first picked the job up.
    pub started: u64,
    /// Tick at which the job's work returned (or its panic was caught).
    pub finished: u64,
}

impl JobTiming {
    /// Ticks the job sat queued before a worker picked it up.
    #[must_use]
    pub fn wait_ticks(&self) -> u64 {
        self.started - self.enqueued
    }

    /// Ticks between first pickup and completion (queue events that
    /// happened while the job ran — a congestion measure, not a duration).
    #[must_use]
    pub fn run_ticks(&self) -> u64 {
        self.finished - self.started
    }
}

/// The completed result of one job: which job it was, what it produced
/// (or how it failed), and how long it ran on its worker.
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// Submission id, minted in submission order by
    /// [`PreemptiveHandle::submit`](crate::PreemptiveHandle::submit): the
    /// pool's first id ([`PreemptiveEngine::with_first_id`], 0 by
    /// default) plus the 0-based submission index.
    pub id: u64,
    /// The label the job was submitted under.
    pub label: String,
    /// What the job produced.
    pub result: Result<T, JobError>,
    /// Wall-clock time the job spent executing, summed over its slices.
    pub wall: Duration,
    /// Logical-clock stamps of the job's path through the queue.
    pub timing: JobTiming,
}

/// Default per-job cycle budget, used by [`run_kernel_jobs`] and the
/// serving layer: `CuConfig`'s default cycle limit, so a runaway
/// [`KernelJob`] resolves to [`JobError::Watchdog`] instead of a bare
/// cycle-limit error.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 4_000_000_000;

/// One simulator run for the engine's batching layer: build a [`System`]
/// from `(config, kernel)`, allocate an output scratch buffer whose base
/// address becomes the first kernel argument, dispatch `grid`, and report.
///
/// This is the quickstart convention for kernels written against the
/// dispatcher ABI (`out[...]` indexed from argument word 0); applications
/// with richer setup submit their own closures via
/// [`PreemptiveHandle::submit`](crate::PreemptiveHandle::submit) or
/// [`PreemptiveEngine::run_batch`] instead.
#[derive(Debug, Clone)]
pub struct KernelJob {
    /// Display label carried through to the [`JobOutcome`].
    pub label: String,
    /// The kernel binary to run.
    pub kernel: Kernel,
    /// Full system configuration (preset, CU count, trim, workers, …).
    pub config: SystemConfig,
    /// Grid in workgroups, `[x, y, z]`.
    pub grid: [u32; 3],
    /// Bytes of output scratch to allocate (256-byte aligned, default
    /// 1 MiB); its base address is passed as the first argument word.
    pub scratch_bytes: u64,
    /// Additional argument words appended after the scratch base address.
    pub extra_args: Vec<u32>,
}

impl KernelJob {
    /// A job with the default 1 MiB scratch buffer and no extra arguments.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        kernel: Kernel,
        config: SystemConfig,
        grid: [u32; 3],
    ) -> KernelJob {
        KernelJob {
            label: label.into(),
            kernel,
            config,
            grid,
            scratch_bytes: 1 << 20,
            extra_args: Vec::new(),
        }
    }

    /// Run this job on the block-compiled fast tier ([`ExecMode::Fast`]):
    /// jobs that only need output words — sweeps, conformance batches,
    /// anything not reading cycle counts — skip the cycle scheduler
    /// entirely and report zero cycles.
    #[must_use]
    pub fn functional_only(mut self) -> KernelJob {
        self.config.exec = ExecMode::Fast;
        self
    }

    /// Execute the run synchronously on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (decode errors, trim violations,
    /// invalid CU counts, …).
    pub fn run(self) -> Result<RunReport, SystemError> {
        let mut sys = System::new(self.config, &self.kernel)?;
        let out = sys.alloc(self.scratch_bytes.max(4));
        let mut args = vec![out as u32];
        args.extend(&self.extra_args);
        sys.set_args(&args);
        sys.dispatch(self.grid)?;
        Ok(sys.report())
    }

    /// Execute the run under a cycle-budget watchdog: the per-CU cycle
    /// limit is capped at `budget`, and exhausting it resolves to
    /// [`JobError::Watchdog`] — a non-terminating kernel yields a typed
    /// outcome instead of hanging its worker (and the pool's `join`).
    ///
    /// # Errors
    ///
    /// [`JobError::Watchdog`] when the budget is exhausted; any other
    /// simulator failure as [`JobError::System`].
    pub fn run_with_budget(mut self, budget: u64) -> Result<RunReport, JobError> {
        let effective = self.config.cu.cycle_limit.min(budget.max(1));
        self.config.cu.cycle_limit = effective;
        self.run().map_err(|e| match e {
            SystemError::Cu(CuError::CycleLimit { .. }) => JobError::Watchdog { budget: effective },
            other => JobError::System(other),
        })
    }
}

/// Run a batch of [`KernelJob`]s across `workers` pool threads (`0` = one
/// per core). Outcomes come back in submission order, so a sweep's output
/// is deterministic no matter how the pool scheduled it. Every job runs
/// under [`DEFAULT_WATCHDOG_CYCLES`]; call [`KernelJob::run_with_budget`]
/// from [`PreemptiveEngine::run_batch`] for a tighter budget.
pub fn run_kernel_jobs(
    workers: usize,
    jobs: impl IntoIterator<Item = KernelJob>,
) -> Vec<JobOutcome<RunReport>> {
    PreemptiveEngine::new(workers).run_batch(jobs.into_iter().map(|job| {
        let label = job.label.clone();
        (label, move || job.run_with_budget(DEFAULT_WATCHDOG_CYCLES))
    }))
}
