//! Regression: a kernel that never terminates must come back as
//! [`JobError::Watchdog`] instead of hanging
//! [`PreemptiveHandle::join`](scratch_engine::PreemptiveHandle::join)
//! forever.

use scratch_asm::{Kernel, KernelBuilder};
use scratch_engine::{JobError, KernelJob, PreemptiveEngine};
use scratch_isa::Opcode;
use scratch_metrics::Registry;
use scratch_system::{SystemConfig, SystemKind};

/// `spin: s_branch spin` — the minimal runaway kernel.
fn infinite_loop_kernel() -> Kernel {
    let mut b = KernelBuilder::new("spin");
    b.vgprs(8).sgprs(32).workgroup_size(64);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.branch(Opcode::SBranch, top);
    b.endpgm().unwrap();
    b.finish().unwrap()
}

fn config() -> SystemConfig {
    SystemConfig::preset(SystemKind::DcdPm).with_metrics(false)
}

/// Submit each kernel job through the pool under a 50k-cycle budget.
fn run_budgeted(
    engine: &PreemptiveEngine,
    jobs: Vec<KernelJob>,
) -> Vec<scratch_engine::JobOutcome<scratch_system::RunReport>> {
    engine.run_batch(
        jobs.into_iter()
            .map(|job| (job.label.clone(), move || job.run_with_budget(50_000))),
    )
}

#[test]
fn infinite_loop_trips_the_watchdog_instead_of_hanging_join() {
    let registry = Registry::new();
    let engine = PreemptiveEngine::new(2).with_registry(registry.clone());
    let jobs = vec![
        KernelJob::new("spin-0", infinite_loop_kernel(), config(), [1, 1, 1]),
        KernelJob::new("spin-1", infinite_loop_kernel(), config(), [1, 1, 1]),
    ];
    let outcomes = run_budgeted(&engine, jobs);
    assert_eq!(outcomes.len(), 2);
    for o in outcomes {
        match o.result {
            Err(JobError::Watchdog { budget }) => assert_eq!(budget, 50_000),
            other => panic!("{}: expected watchdog trip, got {other:?}", o.label),
        }
    }
    // Both trips are counted by the pool's metrics plane.
    assert_eq!(
        registry
            .snapshot()
            .counter("scratch_engine_watchdog_trips_total", &[]),
        Some(2)
    );
}

#[test]
fn watchdog_budget_does_not_clip_well_behaved_jobs() {
    let mut b = KernelBuilder::new("quick");
    b.vgprs(8).sgprs(32).workgroup_size(64);
    b.endpgm().unwrap();
    let kernel = b.finish().unwrap();

    let engine = PreemptiveEngine::new(1).with_registry(Registry::new());
    let outcomes = run_budgeted(
        &engine,
        vec![KernelJob::new("quick", kernel, config(), [1, 1, 1])],
    );
    assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
}

#[test]
fn watchdog_error_formats_and_chains() {
    let e = JobError::Watchdog { budget: 123 };
    assert_eq!(e.to_string(), "watchdog: job exceeded its 123-cycle budget");
    let dyn_err: &dyn std::error::Error = &e;
    assert!(dyn_err.source().is_none());
}
