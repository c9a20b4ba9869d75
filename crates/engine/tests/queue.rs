//! Pool queue semantics: panic isolation, deterministic batch ordering,
//! streaming outcomes, and the metrics a batch publishes.

use std::time::Duration;

use scratch_asm::KernelBuilder;
use scratch_engine::{default_workers, JobError, KernelJob, PreemptiveEngine, Slice};
use scratch_metrics::Registry;
use scratch_system::{SystemConfig, SystemError, SystemKind};

fn noop_kernel() -> scratch_asm::Kernel {
    let mut b = KernelBuilder::new("noop");
    b.vgprs(4).sgprs(24).workgroup_size(64);
    b.endpgm().unwrap();
    b.finish().unwrap()
}

#[test]
fn a_panicking_job_never_kills_the_queue() {
    let mut handle = PreemptiveEngine::new(2)
        .with_registry(Registry::new())
        .start::<u32>();
    for i in 0..5u32 {
        handle.submit("t", format!("job-{i}"), move |_| {
            if i == 2 {
                panic!("poisoned job {i}");
            }
            Slice::Done(Ok(i * 10))
        });
    }
    // The queue survives the panic: jobs submitted afterwards still run.
    handle.submit("t", "after-the-panic", |_| Slice::Done(Ok(999)));
    let mut outcomes = Vec::new();
    while let Some(o) = handle.recv() {
        outcomes.push(o);
    }
    outcomes.sort_by_key(|o| o.id);
    assert_eq!(outcomes.len(), 6);
    match &outcomes[2].result {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("poisoned job 2"), "{msg}"),
        other => panic!("expected a structured panic error, got {other:?}"),
    }
    assert_eq!(outcomes[0].result, Ok(0));
    assert_eq!(outcomes[4].result, Ok(40));
    assert_eq!(outcomes[5].result, Ok(999));
}

#[test]
fn batch_outcomes_come_back_in_submission_order() {
    // Reverse-staggered sleeps: completion order is the opposite of
    // submission order, yet run_batch returns submission order.
    let outcomes = PreemptiveEngine::new(4).run_batch((0..4u64).map(|i| {
        (format!("sleep-{i}"), move || {
            std::thread::sleep(Duration::from_millis((4 - i) * 20));
            Ok(i)
        })
    }));
    let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
    assert_eq!(labels, vec!["sleep-0", "sleep-1", "sleep-2", "sleep-3"]);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.result, Ok(i as u64));
    }
}

#[test]
fn outcomes_stream_as_jobs_complete() {
    let mut handle = PreemptiveEngine::new(1).start::<&'static str>();
    assert_eq!(handle.pending(), 0);
    assert!(handle.recv().is_none(), "no jobs, no blocking");
    handle.submit("t", "first", |_| Slice::Done(Ok("a")));
    handle.submit("t", "second", |_| Slice::Done(Ok("b")));
    assert_eq!(handle.pending(), 2);
    // One worker runs the queue FIFO, so streaming order is deterministic
    // here: results arrive one at a time as each job finishes.
    let first = handle.recv().expect("first outcome streams out");
    assert_eq!(first.result, Ok("a"));
    assert_eq!(handle.pending(), 1);
    let second = handle.recv().expect("second outcome streams out");
    assert_eq!(second.result, Ok("b"));
    assert_eq!(handle.pending(), 0);
    assert!(handle.recv().is_none(), "drained handles return None");
}

#[test]
fn kernel_jobs_surface_system_errors_as_job_errors() {
    let mut config = SystemConfig::preset(SystemKind::DcdPm);
    config.cus = 0; // unbackable CU count, rejected at System::new
    let job = KernelJob::new("bad-config", noop_kernel(), config, [1, 1, 1]);
    let outcomes = scratch_engine::run_kernel_jobs(2, [job]);
    assert_eq!(outcomes.len(), 1);
    match &outcomes[0].result {
        Err(JobError::System(SystemError::InvalidCuCount { requested: 0, .. })) => {}
        other => panic!("expected InvalidCuCount, got {other:?}"),
    }
}

#[test]
fn zero_workers_means_one_per_core() {
    let engine = PreemptiveEngine::new(0);
    assert_eq!(engine.workers(), default_workers());
    assert!(engine.workers() >= 1);
    // And the pool actually runs jobs.
    let outcomes = engine.run_batch([("probe", || Ok(7u8))]);
    assert_eq!(outcomes[0].result, Ok(7));
}

#[test]
fn job_timing_stamps_are_ordered_and_distinct() {
    // One worker, FIFO queue: every job's stamps are strictly ordered on
    // the pool's logical clock, and the second job is enqueued before the
    // first finishes (it waits in the queue).
    let outcomes =
        PreemptiveEngine::new(1).run_batch((0..3u64).map(|i| (format!("t-{i}"), move || Ok(i))));
    for o in &outcomes {
        assert!(o.timing.enqueued < o.timing.started, "{:?}", o.timing);
        assert!(o.timing.started < o.timing.finished, "{:?}", o.timing);
        assert_eq!(
            o.timing.wait_ticks() + o.timing.run_ticks(),
            o.timing.finished - o.timing.enqueued
        );
    }
    // FIFO on one worker: pickup order matches submission order.
    assert!(outcomes[0].timing.started < outcomes[1].timing.started);
    assert!(outcomes[1].timing.started < outcomes[2].timing.started);
    // Jobs 1 and 2 were queued while job 0 ran, so they waited.
    assert!(outcomes[2].timing.wait_ticks() > 0);
}

#[test]
fn pool_metrics_count_jobs_and_panics() {
    let registry = Registry::new();
    let outcomes = PreemptiveEngine::new(2)
        .with_registry(registry.clone())
        .run_batch((0..5u32).map(|i| {
            (format!("m-{i}"), move || {
                if i == 3 {
                    panic!("boom {i}");
                }
                Ok(i)
            })
        }));
    assert_eq!(outcomes.len(), 5);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("scratch_engine_jobs_submitted_total", &[]),
        Some(5)
    );
    assert_eq!(
        snap.counter("scratch_engine_jobs_completed_total", &[]),
        Some(5)
    );
    assert_eq!(
        snap.counter("scratch_engine_jobs_panicked_total", &[]),
        Some(1)
    );
    // The batch drained: both gauges are back to zero.
    assert_eq!(snap.gauge("scratch_engine_queue_depth", &[]), Some(0.0));
    assert_eq!(snap.gauge("scratch_engine_busy_workers", &[]), Some(0.0));
    let wait = snap
        .histogram("scratch_engine_job_wait_ticks", &[])
        .expect("wait histogram registered");
    assert_eq!(wait.count(), 5);
}

#[test]
fn a_batch_publishes_both_metric_families() {
    // A batch job is a single-slice job: on a fresh registry, N jobs are
    // N completions *and* N quanta, none of them preemptions, and the
    // queue/busy gauges drain back to zero.
    const N: u64 = 7;
    let registry = Registry::new();
    let outcomes = PreemptiveEngine::new(3)
        .with_registry(registry.clone())
        .run_batch((0..N).map(|i| (format!("b-{i}"), move || Ok(i))));
    assert_eq!(outcomes.len() as u64, N);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("scratch_engine_jobs_submitted_total", &[]),
        Some(N)
    );
    assert_eq!(
        snap.counter("scratch_engine_jobs_completed_total", &[]),
        Some(N)
    );
    assert_eq!(snap.counter("scratch_preempt_quanta_total", &[]), Some(N));
    assert_eq!(
        snap.counter("scratch_preempt_preemptions_total", &[]),
        Some(0)
    );
    assert_eq!(snap.gauge("scratch_engine_queue_depth", &[]), Some(0.0));
    assert_eq!(snap.gauge("scratch_engine_busy_workers", &[]), Some(0.0));
    let run = snap
        .histogram("scratch_engine_job_run_ticks", &[])
        .expect("run histogram registered");
    assert_eq!(run.count(), N);
}

#[test]
fn dropping_a_handle_with_queued_jobs_is_graceful() {
    let handle = PreemptiveEngine::new(1).start::<u8>();
    for _ in 0..8 {
        handle.submit("t", "queued", |_| {
            std::thread::sleep(Duration::from_millis(5));
            Slice::Done(Ok(1))
        });
    }
    drop(handle); // must not hang or panic; queued jobs drain or are dropped
}
