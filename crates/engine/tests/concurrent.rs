//! Concurrent-submission properties: many threads pushing into one shared
//! pool must preserve batch ordering and keep the backlog introspection
//! (`queue_depth` / `in_flight` / `submitted_count` / `completed_count`)
//! coherent — the contract the serving layer's admission control builds on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use scratch_engine::{PreemptiveEngine, Slice};
use scratch_metrics::Registry;

/// Submitting from eight threads at once: every submission id is unique,
/// `join` returns outcomes sorted by id, and each outcome still carries
/// the payload it was submitted with.
#[test]
fn concurrent_submission_preserves_ordering() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25;

    let handle = PreemptiveEngine::new(4)
        .with_registry(Registry::new())
        .start::<u64>();
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handle = &handle;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    let id = handle.submit(format!("t{t}"), format!("t{t}-{i}"), move |_| {
                        Slice::Done(Ok(t * 1000 + i))
                    });
                    // The pool assigned a fresh id (strictly monotone ids
                    // mean no two threads ever share one).
                    assert!(id < THREADS * PER_THREAD);
                }
            });
        }
    });
    assert_eq!(handle.submitted_count(), THREADS * PER_THREAD);

    let outcomes = handle.join();
    assert_eq!(outcomes.len() as u64, THREADS * PER_THREAD);
    // Sorted by id, ids dense 0..N, no duplicates.
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.id, i as u64);
    }
    // Every submitted payload came back exactly once, attached to its
    // own label.
    let mut seen = vec![false; (THREADS * PER_THREAD) as usize];
    for o in &outcomes {
        let v = *o.result.as_ref().expect("job succeeds");
        let (t, i) = (v / 1000, v % 1000);
        assert_eq!(o.label, format!("t{t}-{i}"));
        let slot = (t * PER_THREAD + i) as usize;
        assert!(!seen[slot], "payload {v} delivered twice");
        seen[slot] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

/// `run_batch` ordering holds while a second thread floods the same
/// engine through its own handle — pools are independent, and each one's
/// batch comes back in its own submission order.
#[test]
fn run_batch_ordering_holds_under_concurrent_submission() {
    let engine = PreemptiveEngine::new(2).with_registry(Registry::new());
    let noise = engine.start::<u64>();
    let stop = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let stop2 = Arc::clone(&stop);
        let noise_ref = &noise;
        s.spawn(move || {
            let mut i = 0u64;
            while stop2.load(Ordering::Acquire) == 0 {
                noise_ref.submit("noise", format!("noise-{i}"), move |_| Slice::Done(Ok(i)));
                i += 1;
                std::thread::yield_now();
            }
        });

        for round in 0..10u64 {
            let outcomes = engine.run_batch((0..20u64).map(|i| {
                (format!("r{round}-{i}"), move || {
                    Ok::<u64, _>(round * 100 + i)
                })
            }));
            assert_eq!(outcomes.len(), 20);
            for (i, o) in outcomes.iter().enumerate() {
                assert_eq!(o.id, i as u64, "batch ids start at 0 per pool");
                assert_eq!(o.result, Ok(round * 100 + i as u64));
            }
        }
        stop.store(1, Ordering::Release);
    });

    let outcomes = noise.join();
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.id, i as u64);
        assert_eq!(o.result, Ok(i as u64));
    }
}

/// Backlog introspection: with the pool's only worker wedged on a gate,
/// queued jobs show up in `queue_depth`, the wedged one in `in_flight`,
/// and both drain back to zero once the gate opens.
#[test]
fn queue_depth_and_in_flight_track_the_backlog() {
    let handle = PreemptiveEngine::new(1)
        .with_registry(Registry::new())
        .start::<()>();
    let gate = Arc::new(Barrier::new(2));

    let g = Arc::clone(&gate);
    handle.submit("t", "wedged", move |_| {
        g.wait(); // held until the test releases it
        Slice::Done(Ok(()))
    });
    // Wait for the worker to pick the job up.
    while handle.in_flight() == 0 {
        std::thread::yield_now();
    }
    for i in 0..5 {
        handle.submit("t", format!("queued-{i}"), |_| Slice::Done(Ok(())));
    }
    assert_eq!(handle.queue_depth(), 5);
    assert_eq!(handle.in_flight(), 1);
    assert_eq!(handle.submitted_count(), 6);
    assert_eq!(handle.completed_count(), 0);

    gate.wait();
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 6);
}
