//! End-to-end checks of the metrics plane against real runs: the
//! extended `RunReport` (stall attribution, per-unit busy cycles,
//! prefetch byte counts) survives a serde round-trip; registry
//! aggregates agree with the report they were flushed from; the
//! engine's logical-clock job stamps are coherent; and the fuzz
//! campaign publishes its own counters.

use scratch::check::{fuzz, FuzzConfig, OracleKind};
use scratch::engine::PreemptiveEngine;
use scratch::kernels::{vec_ops::MatrixAdd, Benchmark};
use scratch::metrics::Registry;
use scratch::system::{RunReport, SystemConfig, SystemKind};

#[test]
fn run_report_round_trips_with_metrics_aggregates() {
    let config = SystemConfig::preset(SystemKind::DcdPm);
    let report = MatrixAdd::new(32, false).run(config).unwrap();

    // The metrics-era fields are populated.
    assert!(report.stats.instructions > 0);
    assert!(
        report.stats.stall_total() > 0,
        "stall attribution on by default"
    );
    assert!(!report.stats.fu_busy.is_empty());
    assert!(report.stats.ipc() > 0.0);

    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.stats.stall_cycles, report.stats.stall_cycles);
}

#[test]
fn registry_aggregates_agree_with_the_report() {
    let registry = Registry::new();
    let config = SystemConfig::preset(SystemKind::Dcd).with_registry(registry.clone());
    let report = MatrixAdd::new(16, true).run(config).unwrap();

    let snap = registry.snapshot();
    let labels = [("system", "DCD")];
    assert_eq!(
        snap.counter("scratch_system_dispatches_total", &labels),
        Some(1)
    );
    assert_eq!(
        snap.counter("scratch_system_instructions_total", &labels),
        Some(report.stats.instructions)
    );
    assert_eq!(
        snap.counter("scratch_system_cu_cycles_total", &labels),
        Some(report.cu_cycles)
    );
    assert_eq!(
        snap.counter("scratch_system_prefetch_hits_total", &labels),
        Some(report.prefetch_hits)
    );
    let h = snap
        .histogram("scratch_system_dispatch_cycles", &labels)
        .expect("dispatch latency histogram");
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum, report.cu_cycles);
    let ipc = snap
        .gauge("scratch_system_ipc", &labels)
        .expect("ipc gauge");
    assert!((ipc - report.stats.ipc()).abs() < 1e-12);
}

#[test]
fn engine_job_stamps_are_coherent_under_load() {
    let registry = Registry::new();
    let outcomes = PreemptiveEngine::new(3)
        .with_registry(registry.clone())
        .run_batch((0..8).map(|i| (format!("job-{i}"), move || Ok(i))));
    for o in &outcomes {
        assert!(o.timing.enqueued < o.timing.started);
        assert!(o.timing.started < o.timing.finished);
        assert_eq!(
            o.timing.wait_ticks() + o.timing.run_ticks(),
            o.timing.finished - o.timing.enqueued
        );
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("scratch_engine_jobs_submitted_total", &[]),
        Some(8)
    );
    assert_eq!(
        snap.counter("scratch_engine_jobs_completed_total", &[]),
        Some(8)
    );
    let waits = snap
        .histogram("scratch_engine_job_wait_ticks", &[])
        .expect("wait histogram");
    assert_eq!(waits.count(), 8);
}

#[test]
fn fuzz_campaign_publishes_counters() {
    let report = fuzz(&FuzzConfig {
        seed: 7,
        cases: 4,
        oracles: vec![OracleKind::Roundtrip],
        ..FuzzConfig::default()
    });
    // The campaign publishes to the process-global registry; other tests
    // in this binary use private registries, so only fuzz runs touch
    // these counters — but another fuzz test may too, so bound below.
    let snap = scratch::metrics::global().snapshot();
    let cases = snap
        .counter("scratch_check_cases_total", &[])
        .expect("campaign counter registered");
    assert!(cases >= report.cases, "{cases} < {}", report.cases);
    assert!(
        snap.counter("scratch_check_oracle_checks_total", &[])
            .unwrap_or(0)
            >= report.checks
    );
}
