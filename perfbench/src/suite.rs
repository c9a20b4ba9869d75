//! The paper suite: the 17 evaluated applications run in-process on both
//! execution tiers, each run validated against its CPU reference.

use scratch_kernels::{paper_benchmarks, Benchmark};
use scratch_system::{ExecMode, SystemConfig, SystemKind};

use crate::report::Gate;
use crate::stats::{median, timed};

/// One application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppRun {
    /// Index into the suite's application list.
    pub app: usize,
    /// Host time of `Benchmark::run`, µs.
    pub us: f64,
    /// Simulated CU cycles (0 on the fast tier).
    pub cycles: u64,
    /// Wave-instructions retired.
    pub instructions: u64,
}

/// The applications in a seeded run order.
pub struct Suite {
    apps: Vec<Box<dyn Benchmark>>,
    order: Vec<usize>,
}

impl Suite {
    /// Instantiate the applications, assemble every kernel once, and
    /// shuffle the run order with `seed`.
    ///
    /// # Errors
    ///
    /// A kernel failed to assemble.
    pub fn setup(seed: u64) -> Result<Suite, String> {
        let apps = paper_benchmarks();
        for app in &apps {
            app.kernels()
                .map_err(|e| format!("{}: kernel: {e}", app.name()))?;
        }
        let mut order: Vec<usize> = (0..apps.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            let j = usize::try_from(splitmix64(&mut state) % (i as u64 + 1))
                .expect("index below the application count");
            order.swap(i, j);
        }
        Ok(Suite { apps, order })
    }

    /// Display name of application `app`.
    #[must_use]
    pub fn name(&self, app: usize) -> String {
        self.apps[app].name()
    }

    /// Run every application once on `exec`, in the seeded order. Each
    /// run counts in `gate`; a run that fails or disagrees with its CPU
    /// reference fails it and is left out of the returned runs.
    pub fn pass(&self, exec: ExecMode, gate: &mut Gate) -> Vec<AppRun> {
        self.order
            .iter()
            .filter_map(|&app| self.run_app(app, exec, gate))
            .collect()
    }

    /// Run group `group` of `groups` equal slices of the seeded order:
    /// each of its applications once on the cycle tier and then
    /// `fast_runs` times on the fast tier, so both tiers' runs spread
    /// evenly over the time the round takes. Returns the cycle- and
    /// fast-tier runs, checked as [`Suite::pass`] checks them.
    pub fn round(
        &self,
        group: usize,
        groups: usize,
        fast_runs: usize,
        gate: &mut Gate,
    ) -> (Vec<AppRun>, Vec<AppRun>) {
        let (mut cycle, mut fast) = (Vec::new(), Vec::new());
        let apps =
            &self.order[self.order.len() * group / groups..self.order.len() * (group + 1) / groups];
        for &app in apps {
            cycle.extend(self.run_app(app, ExecMode::Cycle, gate));
            for _ in 0..fast_runs {
                fast.extend(self.run_app(app, ExecMode::Fast, gate));
            }
        }
        (cycle, fast)
    }

    fn run_app(&self, app: usize, exec: ExecMode, gate: &mut Gate) -> Option<AppRun> {
        let config = SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
        let (result, us) = timed(|| self.apps[app].run(config));
        match result {
            Ok(report) => {
                gate.check(Ok(()));
                Some(AppRun {
                    app,
                    us,
                    cycles: report.cu_cycles,
                    instructions: report.instructions(),
                })
            }
            Err(e) => {
                gate.check(Err(format!("{} ({exec:?}): {e}", self.name(app))));
                None
            }
        }
    }
}

/// Check that every cycle-tier pass simulated the same cycles and
/// instructions per application and that every fast-tier pass retired
/// the cycle tier's instructions. Counts one check per application.
pub fn check_determinism(suite: &Suite, cycle: &[AppRun], fast: &[AppRun], gate: &mut Gate) {
    for app in 0..suite.apps.len() {
        let mut runs = cycle.iter().filter(|r| r.app == app);
        let Some(first) = runs.next() else { continue };
        let consistent = runs
            .all(|r| (r.cycles, r.instructions) == (first.cycles, first.instructions))
            && fast
                .iter()
                .filter(|r| r.app == app)
                .all(|r| r.instructions == first.instructions);
        gate.check(if consistent {
            Ok(())
        } else {
            Err(format!(
                "{}: simulated counts differ between passes or tiers",
                suite.name(app)
            ))
        });
    }
}

/// The latency of each application on each tier: the median host time of
/// its runs. Repetitions of one application on one tier differ only by
/// host noise, so the suite's latency distribution is taken over these
/// 34 medians rather than over every run.
#[must_use]
pub fn app_latencies(cycle: &[AppRun], fast: &[AppRun]) -> Vec<f64> {
    let mut by_app: std::collections::BTreeMap<(bool, usize), Vec<f64>> = Default::default();
    for (tier_fast, runs) in [(false, cycle), (true, fast)] {
        for r in runs {
            by_app.entry((tier_fast, r.app)).or_default().push(r.us);
        }
    }
    by_app.values().map(|times| median(times)).collect()
}

/// Simulated wave-instructions per host second over `runs`.
#[must_use]
pub fn instr_per_s(runs: &[AppRun]) -> f64 {
    let instr: u64 = runs.iter().map(|r| r.instructions).sum();
    let us: f64 = runs.iter().map(|r| r.us).sum();
    instr as f64 / (us / 1e6).max(1e-9)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
