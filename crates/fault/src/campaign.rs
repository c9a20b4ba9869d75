//! Campaign driver: plan, execute and aggregate a seeded fault campaign
//! across kernels × fault classes, optionally fanned out over the
//! `scratch-engine` worker pool.
//!
//! The campaign proves the subsystem's contract: every injected fault is
//! masked, detected or recovered — in a detecting mode, never silent.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use scratch_engine::PreemptiveEngine;
use scratch_trace::TraceEvent;

use crate::error::FaultError;
use crate::inject::{CaseContext, Classification, InjectionOutcome, Mode};
use crate::plan::{FaultClass, FaultPlan, KernelProfile};

/// What to run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed: generates both the kernels (seeds `seed..seed+kernels`)
    /// and the fault plan.
    pub seed: u64,
    /// Number of generated kernels to inject into.
    pub kernels: u32,
    /// Fault classes to exercise.
    pub classes: Vec<FaultClass>,
    /// Faults per (kernel, class) cell.
    pub per_cell: u32,
    /// Detection mode.
    pub mode: Mode,
    /// Worker threads (`1` runs serially; either way the report is
    /// deterministic — outcomes are aggregated in plan order).
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            kernels: 4,
            classes: FaultClass::ALL.to_vec(),
            per_cell: 4,
            mode: Mode::Crc,
            jobs: 1,
        }
    }
}

/// Outcome counts of one campaign cell (or of the whole campaign).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellStats {
    /// Faults injected.
    pub injected: u64,
    /// Faults absorbed with golden output and no detector involvement.
    pub masked: u64,
    /// Faults a detector caught but recovery could not repair.
    pub detected: u64,
    /// Faults caught and repaired back to golden output.
    pub recovered: u64,
    /// Faults that produced wrong output with no detection.
    pub silent: u64,
    /// Extra simulator runs spent on detection replicas and recovery.
    pub extra_runs: u64,
}

impl CellStats {
    fn absorb(&mut self, o: &InjectionOutcome) {
        self.injected += 1;
        match o.classification {
            Classification::Masked => self.masked += 1,
            Classification::Detected => self.detected += 1,
            Classification::Recovered => self.recovered += 1,
            Classification::Silent => self.silent += 1,
        }
        self.extra_runs += u64::from(o.extra_runs);
    }

    /// Fold another cell's counts into this one (aggregation across
    /// kernels or classes).
    pub fn merge(&mut self, other: &CellStats) {
        self.injected += other.injected;
        self.masked += other.masked;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.silent += other.silent;
        self.extra_runs += other.extra_runs;
    }

    /// Fraction of non-masked faults that were caught (detected or
    /// recovered); `1.0` when every fault was masked.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let effective = self.detected + self.recovered + self.silent;
        if effective == 0 {
            1.0
        } else {
            (self.detected + self.recovered) as f64 / effective as f64
        }
    }

    /// Mean extra simulator runs per injected fault (the recovery
    /// overhead of the campaign's mode).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.extra_runs as f64 / self.injected as f64
        }
    }
}

/// One (kernel, class) row of the campaign table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Generated-kernel seed.
    pub kernel_seed: u64,
    /// Fault class of this cell.
    pub class: FaultClass,
    /// Outcome counts.
    pub stats: CellStats,
}

/// Full campaign result: per-cell rows, totals, and every individual
/// outcome (for audit / JSON export).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Master seed the campaign ran from.
    pub seed: u64,
    /// Detection mode.
    pub mode: Mode,
    /// Per-(kernel, class) aggregates, in plan order.
    pub rows: Vec<CampaignRow>,
    /// Whole-campaign aggregate.
    pub totals: CellStats,
    /// Every classified injection, in plan order.
    pub outcomes: Vec<InjectionOutcome>,
}

impl CampaignReport {
    /// Detection/recovery trace events of the whole campaign.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.outcomes
            .iter()
            .flat_map(InjectionOutcome::trace_events)
            .collect()
    }

    /// Render the resilience table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<10} {:<6} {:>8} {:>7} {:>9} {:>10} {:>7} {:>9} {:>9}\n",
            "kernel",
            "class",
            "injected",
            "masked",
            "detected",
            "recovered",
            "silent",
            "coverage",
            "overhead"
        ));
        for row in &self.rows {
            s.push_str(&render_row(
                &format!("k{}", row.kernel_seed),
                row.class.name(),
                &row.stats,
            ));
        }
        s.push_str(&render_row("total", "*", &self.totals));
        s
    }
}

fn render_row(kernel: &str, class: &str, st: &CellStats) -> String {
    format!(
        "{:<10} {:<6} {:>8} {:>7} {:>9} {:>10} {:>7} {:>8.1}% {:>8.2}x\n",
        kernel,
        class,
        st.injected,
        st.masked,
        st.detected,
        st.recovered,
        st.silent,
        st.coverage() * 100.0,
        st.overhead()
    )
}

/// Build injection contexts (golden output, trim set, dynamic profile)
/// for each kernel seed.
///
/// # Errors
///
/// Propagates the first kernel whose golden output cannot be established.
pub fn build_contexts(seeds: &[u64]) -> Result<Vec<CaseContext>, FaultError> {
    seeds.iter().map(|&s| CaseContext::new(s)).collect()
}

/// Plan and run a full campaign from `cfg`.
///
/// # Errors
///
/// [`FaultError::EmptyCampaign`] when the configuration schedules no
/// faults; otherwise any context-building or worker failure.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, FaultError> {
    if cfg.kernels == 0 || cfg.classes.is_empty() || cfg.per_cell == 0 {
        return Err(FaultError::EmptyCampaign);
    }
    let seeds: Vec<u64> = (0..u64::from(cfg.kernels)).map(|i| cfg.seed + i).collect();
    let contexts = build_contexts(&seeds)?;
    let profiles: Vec<KernelProfile> = contexts.iter().map(|c| c.profile).collect();
    let plan = FaultPlan::generate(cfg.seed, &profiles, &cfg.classes, cfg.per_cell);
    run_plan(&plan, contexts, cfg.mode, cfg.jobs)
}

/// Execute an explicit plan against prepared contexts.
///
/// # Errors
///
/// [`FaultError::EmptyCampaign`] for an empty plan; [`FaultError::Job`]
/// when a worker dies.
pub fn run_plan(
    plan: &FaultPlan,
    contexts: Vec<CaseContext>,
    mode: Mode,
    jobs: usize,
) -> Result<CampaignReport, FaultError> {
    if plan.faults.is_empty() {
        return Err(FaultError::EmptyCampaign);
    }

    let outcomes = if jobs > 1 {
        run_parallel(plan, contexts, mode, jobs)?
    } else {
        run_serial(plan, &contexts, mode)
    };

    // Aggregate in plan order: one row per (kernel, class) cell, created
    // on first sight so row order is deterministic.
    let mut rows: Vec<CampaignRow> = Vec::new();
    let mut totals = CellStats::default();
    for o in &outcomes {
        let key = (o.fault.kernel_seed, o.fault.class);
        let row = match rows.iter_mut().find(|r| (r.kernel_seed, r.class) == key) {
            Some(r) => r,
            None => {
                rows.push(CampaignRow {
                    kernel_seed: key.0,
                    class: key.1,
                    stats: CellStats::default(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.stats.absorb(o);
        totals.absorb(o);
    }

    publish_metrics(&rows);

    Ok(CampaignReport {
        seed: plan.seed,
        mode,
        rows,
        totals,
        outcomes,
    })
}

/// Serial execution, in plan order.
fn run_serial(plan: &FaultPlan, contexts: &[CaseContext], mode: Mode) -> Vec<InjectionOutcome> {
    let mut out = Vec::with_capacity(plan.faults.len());
    for fault in &plan.faults {
        if let Some(ctx) = contexts
            .iter()
            .find(|c| c.profile.seed == fault.kernel_seed)
        {
            out.push(ctx.inject(fault, mode));
        }
    }
    out
}

/// Fan the plan's (kernel, class) cells out over the engine pool. Batch
/// outcomes come back sorted by submission id, so the flattened result is
/// identical to the serial order.
fn run_parallel(
    plan: &FaultPlan,
    contexts: Vec<CaseContext>,
    mode: Mode,
    jobs: usize,
) -> Result<Vec<InjectionOutcome>, FaultError> {
    let contexts: Vec<Arc<CaseContext>> = contexts.into_iter().map(Arc::new).collect();
    let mut cells: Vec<(String, Arc<CaseContext>, Vec<crate::plan::PlannedFault>)> = Vec::new();
    for fault in &plan.faults {
        let key = format!("k{}/{}", fault.kernel_seed, fault.class.name());
        match cells.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, fs)) => fs.push(*fault),
            None => {
                let Some(ctx) = contexts
                    .iter()
                    .find(|c| c.profile.seed == fault.kernel_seed)
                else {
                    continue;
                };
                cells.push((key, Arc::clone(ctx), vec![*fault]));
            }
        }
    }

    let engine = PreemptiveEngine::new(jobs);
    let batch = engine.run_batch(cells.into_iter().map(|(label, ctx, faults)| {
        (label, move || {
            Ok(faults
                .iter()
                .map(|f| ctx.inject(f, mode))
                .collect::<Vec<_>>())
        })
    }));

    let mut out = Vec::with_capacity(plan.faults.len());
    for o in batch {
        match o.result {
            Ok(v) => out.extend(v),
            Err(e) => {
                return Err(FaultError::Job {
                    label: o.label,
                    detail: e.to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Publish campaign counters to the process-global metrics registry.
fn publish_metrics(rows: &[CampaignRow]) {
    let reg = scratch_metrics::global();
    for row in rows {
        let class = row.class.name();
        reg.counter_with(
            "scratch_fault_injected_total",
            "Faults injected by campaign runs",
            &[("class", class)],
        )
        .add(row.stats.injected);
        for (name, v) in [
            ("masked", row.stats.masked),
            ("detected", row.stats.detected),
            ("recovered", row.stats.recovered),
            ("silent", row.stats.silent),
        ] {
            reg.counter_with(
                "scratch_fault_outcomes_total",
                "Fault campaign outcomes by classification",
                &[("class", class), ("outcome", name)],
            )
            .add(v);
        }
    }
}
