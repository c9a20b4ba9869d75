//! Hermetic end-to-end tests: a real daemon on an ephemeral port, real
//! TCP clients, and the three properties the serving layer promises —
//! bit-identical results, typed shedding with zero accepted-then-dropped
//! jobs, and a graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scratch_check::GenKernel;
use scratch_metrics::{MetricsServer, Registry};
use scratch_serve::{fnv1a, RejectReason, ServeClient, ServeConfig, Server, SubmitRequest};
use scratch_system::{System, SystemConfig, SystemKind};

/// A buildable generated kernel (skipping seeds that fail to assemble,
/// as the fuzzer does), with `wgs` scaled to stretch its runtime.
fn workload(seed: u64, wgs: u32) -> GenKernel {
    let mut s = seed;
    loop {
        let mut gk = GenKernel::generate(s);
        gk.wgs = wgs;
        if gk.build().is_ok() {
            return gk;
        }
        s = s.wrapping_add(1);
    }
}

fn submit_of(gk: &GenKernel, tenant: &str, label: &str, return_output: bool) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        label: label.to_owned(),
        kernel: gk.build().expect("workload() returns buildable kernels"),
        input: gk.image.clone(),
        grid: [gk.wgs, 1, 1],
        out_bytes: gk.out_bytes(),
        system: None,
        return_output,
        exec: None,
    }
}

/// Fast-tier and self-checking jobs ride the same wire: identical output
/// words, zero cycles for `fast`, the cycle pipeline's count for
/// `fast-timing`, and an unknown tier is a typed Invalid rejection.
#[test]
fn fast_exec_jobs_serve_identical_words() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let gk = workload(7, 2);
    let (cycles, words) = direct_run(&gk);

    let mut client = ServeClient::connect(addr).expect("connect");
    for (exec, want_cycles) in [("fast", 0), ("fast-timing", cycles)] {
        let mut req = submit_of(&gk, "tenant", exec, true);
        req.exec = Some(exec.to_owned());
        let job = client.submit(req).expect("protocol").expect("admitted");
        let d = client.recv_done().expect("job completes");
        assert_eq!(d.job, job);
        assert!(d.ok, "{exec} job failed: {:?}", d.error);
        assert_eq!(
            d.output.as_ref().expect("return_output"),
            &words,
            "{exec} served words differ from the cycle tier's"
        );
        assert_eq!(d.cycles, want_cycles, "{exec} cycle count");
        assert!(d.instructions > 0, "{exec} instruction count");
    }

    let mut bad = submit_of(&gk, "tenant", "bad-exec", false);
    bad.exec = Some("warp-speed".to_owned());
    let rejection = client
        .submit(bad)
        .expect("protocol")
        .expect_err("unknown exec mode is shed, not queued");
    assert_eq!(rejection.reason, RejectReason::Invalid);

    server.shutdown();
}

/// Mirror of the server's execution path, run directly in-process: the
/// ground truth served results must be bit-identical to.
fn direct_run(gk: &GenKernel) -> (u64, Vec<u32>) {
    let kernel = gk.build().expect("buildable");
    let config = SystemConfig::preset(SystemKind::DcdPm);
    let mut sys = System::new(config, &kernel).expect("system");
    let out = sys.alloc(gk.out_bytes().max(4));
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    sys.dispatch([gk.wgs, 1, 1]).expect("generated kernels run");
    let report = sys.report();
    let words = sys.read_words(out, (gk.out_bytes().max(4) / 4) as usize);
    (report.cu_cycles, words)
}

#[test]
fn served_results_bit_identical_to_direct_runs() {
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            registry: Some(registry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // N kernels × M tenants, each submitted once with the full output
    // requested, checked word-for-word against a direct run.
    let kernels: Vec<GenKernel> = (0..4).map(|i| workload(100 + i, 2)).collect();
    let tenants = ["alpha", "beta", "gamma"];

    let mut client = ServeClient::connect(addr).expect("connect");
    assert!(client.ping().expect("ping"));

    let mut submitted = Vec::new();
    for (k, gk) in kernels.iter().enumerate() {
        for tenant in &tenants {
            let label = format!("job-{tenant}-{k}");
            let job = client
                .submit(submit_of(gk, tenant, &label, true))
                .expect("protocol")
                .expect("no load, nothing sheds");
            submitted.push((job, k));
        }
    }

    let mut done = std::collections::BTreeMap::new();
    for _ in 0..submitted.len() {
        let d = client.recv_done().expect("every accepted job completes");
        done.insert(d.job, d);
    }

    for (job, k) in submitted {
        let d = done.get(&job).expect("one Done per accepted job");
        assert!(d.ok, "job {job} failed: {:?}", d.error);
        let (cycles, words) = direct_run(&kernels[k]);
        let served = d.output.as_ref().expect("return_output was set");
        assert_eq!(served, &words, "served output differs from direct run");
        assert_eq!(d.digest, fnv1a(&words), "digest mismatch");
        assert_eq!(d.cycles, cycles, "cycle count differs from direct run");
        assert!(d.instructions > 0);
    }

    // The observability wiring actually observed all of it.
    let snap = registry.snapshot();
    let n = submitted_count(&done);
    assert_eq!(
        snap.counter("scratch_serve_accepted_total", &[]),
        Some(n),
        "accepted counter"
    );
    assert_eq!(
        snap.counter("scratch_serve_completed_total", &[]),
        Some(n),
        "completed counter"
    );
    assert_eq!(
        snap.counter(
            "scratch_serve_tenant_accepted_total",
            &[("tenant", "alpha")]
        ),
        Some(4),
        "per-tenant accepted counter"
    );
    assert!(
        snap.histogram("scratch_serve_latency_micros", &[("tenant", "alpha")])
            .is_some_and(|h| h.count() > 0),
        "per-tenant latency histogram populated"
    );

    // The engine pool publishes into the daemon's registry too: a scrape
    // counts exactly one engine completion per served job.
    let body = scrape_metrics(&registry);
    for family in [
        "scratch_engine_jobs_completed_total",
        "scratch_serve_completed_total",
    ] {
        assert!(
            body.lines().any(|l| l == format!("{family} {n}")),
            "{family} must equal {n} served completions:\n{body}"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.completed);
    assert_eq!(stats.failed, 0);
}

/// Serve `registry` on an ephemeral port and GET `/metrics` once over
/// TCP, the way a Prometheus scraper would; returns the body.
fn scrape_metrics(registry: &Registry) -> String {
    use std::io::Read as _;
    let server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind scrape port");
    let mut stream = TcpStream::connect(server.addr()).expect("connect to scrape port");
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    server.shutdown();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(head.contains(" 200 "), "{head}");
    body.to_owned()
}

fn submitted_count(done: &std::collections::BTreeMap<u64, scratch_serve::JobDone>) -> u64 {
    done.len() as u64
}

#[test]
fn overload_sheds_typed_and_never_drops_accepted_jobs() {
    // One worker, tiny queues: a burst from 6 open-loop submitters is far
    // beyond 2× capacity, so admission control must shed — and still
    // answer every accepted job.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_cap: 3,
            tenant_cap: 2,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let gk = workload(7, 4); // stretched runtime: the queue actually fills

    let accepted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let (gk, accepted, shed, completed) = (&gk, &accepted, &shed, &completed);
            scope.spawn(move || {
                let tenant = format!("t{}", t % 3);
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut my_accepted = 0u64;
                // Open loop: fire the whole burst without waiting.
                for i in 0..25 {
                    let req = submit_of(gk, &tenant, &format!("burst-{t}-{i}"), false);
                    match client.submit(req).expect("every submission is answered") {
                        Ok(_job) => {
                            my_accepted += 1;
                            accepted.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(rejection) => {
                            shed.fetch_add(1, Ordering::AcqRel);
                            assert!(
                                matches!(
                                    rejection.reason,
                                    RejectReason::TenantQueueFull | RejectReason::Overloaded
                                ),
                                "unexpected shed reason: {:?}",
                                rejection.reason
                            );
                            assert_eq!(rejection.tenant, tenant);
                            assert!(!rejection.message.is_empty());
                        }
                    }
                }
                // Every accepted job must produce exactly one Done on
                // this connection — zero accepted-then-dropped.
                for _ in 0..my_accepted {
                    let done = client.recv_done().expect("accepted job completes");
                    assert_eq!(done.tenant, tenant);
                    completed.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
    });

    let accepted = accepted.load(Ordering::Acquire);
    let shed = shed.load(Ordering::Acquire);
    assert_eq!(accepted + shed, 6 * 25, "every submission got an answer");
    assert!(shed > 0, "a 2×-capacity burst must shed");
    assert!(accepted > 0, "admission must not starve entirely");
    assert_eq!(
        completed.load(Ordering::Acquire),
        accepted,
        "one Done per accepted job"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.completed, accepted, "server-side: nothing dropped");
    assert_eq!(stats.shed, shed);
}

#[test]
fn rate_limit_sheds_with_retry_hint() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            rate: 2.0,
            burst: 1.0,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(11, 2);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // The single-token burst admits once; the immediate retry is shed
    // with a computed backoff hint.
    client
        .submit(submit_of(&gk, "acme", "first", false))
        .expect("protocol")
        .expect("burst token admits");
    let rejection = client
        .submit(submit_of(&gk, "acme", "second", false))
        .expect("protocol")
        .expect_err("empty bucket sheds");
    assert_eq!(rejection.reason, RejectReason::RateLimited);
    let hint = rejection.retry_after_ms.expect("rate limit carries a hint");
    assert!((1..=1000).contains(&hint), "hint {hint}ms vs 2/s refill");

    // A different tenant has its own bucket.
    client
        .submit(submit_of(&gk, "other", "first", false))
        .expect("protocol")
        .expect("per-tenant buckets are independent");

    client.recv_done().expect("accepted job 1 completes");
    client.recv_done().expect("accepted job 2 completes");
    server.shutdown();
}

#[test]
fn oversized_and_invalid_submissions_shed_without_queueing() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            max_input_words: 8,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(13, 2);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let too_big = client
        .submit(submit_of(&gk, "acme", "big", false)) // image is 4096 words
        .expect("protocol")
        .expect_err("input beyond max_input_words sheds");
    assert_eq!(too_big.reason, RejectReason::TooLarge);

    let mut bad = submit_of(&gk, "acme", "bad", false);
    bad.input = Vec::new();
    bad.system = Some("warp9".to_owned());
    let invalid = client
        .submit(bad)
        .expect("protocol")
        .expect_err("unknown preset sheds");
    assert_eq!(invalid.reason, RejectReason::Invalid);

    // Grids whose workgroup count or global size overflows the
    // dispatcher's counters are refused before queueing.
    for grid in [[u32::MAX, 1, 1], [u32::MAX; 3]] {
        let mut huge = submit_of(&gk, "acme", "huge", false);
        huge.input = Vec::new();
        huge.grid = grid;
        let rejection = client
            .submit(huge)
            .expect("protocol")
            .expect_err("overflowing grid sheds");
        assert_eq!(rejection.reason, RejectReason::Invalid, "{grid:?}");
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0, "nothing was queued");
    assert_eq!(stats.shed, 4);
}

#[test]
fn drain_rejects_new_work_and_completes_accepted() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let gk = workload(17, 4);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    // Queue a couple of jobs, then drain while they may still be running.
    for i in 0..3 {
        client
            .submit(submit_of(&gk, "acme", &format!("pre-{i}"), false))
            .expect("protocol")
            .expect("admits before drain");
    }
    client.drain().expect("drain acknowledged");

    let rejection = client
        .submit(submit_of(&gk, "acme", "late", false))
        .expect("protocol")
        .expect_err("draining server admits nothing");
    assert_eq!(rejection.reason, RejectReason::Draining);

    // The daemon loop would park in wait_drain(); it must return now.
    server.wait_drain();

    // Every pre-drain job still completes and is answered.
    for _ in 0..3 {
        let done = client.recv_done().expect("accepted jobs survive a drain");
        assert!(done.ok);
    }

    let stats = server.shutdown();
    assert!(stats.draining);
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
}

#[test]
fn load_harness_produces_a_saturation_curve() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let plan = scratch_serve::LoadPlan {
        addr: server.addr().to_string(),
        steps: vec![1, 4],
        duration_ms: 300,
        seed: 21,
        kernels: 3,
        tenants: 2,
    };
    let report = scratch_serve::run_load(&plan).expect("harness runs");
    assert_eq!(report.steps.len(), 2);
    for step in &report.steps {
        assert!(step.attempted > 0, "closed loop always submits");
        assert_eq!(step.attempted, step.accepted + step.shed);
        assert!(step.completed > 0, "some jobs complete within the step");
        assert!(step.p50_us > 0 && step.p50_us <= step.p95_us);
        assert!(step.p95_us <= step.p99_us);
        assert!(step.offered_per_sec > 0.0);
    }
    // The curve serializes (what `scratch-tool load` writes to disk).
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: scratch_serve::LoadReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, report);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.completed, "drain left nothing behind");
}

/// Preempted jobs stay resident between quanta: with no WAL nothing is
/// ever checkpointed, and with a WAL every pause is journaled — either
/// way the served words and cycles equal an uninterrupted direct run.
#[test]
fn preempted_jobs_checkpoint_and_match_direct_runs() {
    // Pick a quantum well below the kernel's runtime so every served job
    // pauses several times, then demand bit-identity with an
    // uninterrupted direct run anyway.
    let gk = workload(301, 4);
    let (ref_cycles, ref_words) = direct_run(&gk);
    let quantum = (ref_cycles / 4).max(1);
    assert!(ref_cycles > quantum, "workload outlives one quantum");

    for journaled in [false, true] {
        let dir = wal_dir("preempted");
        let registry = Registry::new();
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                quantum_cycles: quantum,
                registry: Some(registry.clone()),
                wal: journaled.then(|| scratch_wal::WalConfig::new(&dir)),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let mut client = ServeClient::connect(server.addr()).expect("connect");

        for tenant in ["alpha", "beta"] {
            client
                .submit(submit_of(&gk, tenant, "sliced", true))
                .expect("protocol")
                .expect("no load, nothing sheds");
        }
        for _ in 0..2 {
            let d = client.recv_done().expect("sliced jobs complete");
            assert!(d.ok, "sliced job failed: {:?}", d.error);
            assert_eq!(
                d.output.as_ref().expect("return_output"),
                &ref_words,
                "preempted served output differs from direct run (wal: {journaled})"
            );
            assert_eq!(
                d.cycles, ref_cycles,
                "preemption changed the cycle count (wal: {journaled})"
            );
            assert!(d.slices > 1, "the quantum forces more than one slice");
        }

        let snap = registry.snapshot();
        let count = |name: &str| snap.counter(name, &[]).unwrap_or(0);
        let preemptions = count("scratch_preempt_preemptions_total");
        assert!(preemptions > 0, "preemptions counted");
        assert!(
            count("scratch_preempt_quanta_total") > preemptions,
            "scheduler quanta counted"
        );
        let checkpoints = count("scratch_snap_checkpoints_total");
        if journaled {
            // Every pause is journaled, and nothing is restored in-process.
            assert_eq!(checkpoints, preemptions, "one checkpoint per pause");
            assert!(
                count("scratch_snap_checkpoint_bytes_total") > 0,
                "checkpoint bytes accounted"
            );
        } else {
            // The resident system is never captured.
            assert_eq!(checkpoints, 0, "no WAL, no checkpoint");
            assert_eq!(count("scratch_snap_checkpoint_bytes_total"), 0);
        }
        assert!(
            snap.histogram("scratch_snap_resume_micros", &[])
                .is_none_or(|h| h.count() == 0),
            "live jobs never restore"
        );

        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        if journaled {
            let state = scratch_wal::WalState::read(&dir).expect("read");
            assert_eq!(state.checkpoints.values().sum::<u64>(), checkpoints);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kernel that branches to itself forever: only a cancellation (or the
/// watchdog, billions of cycles away) ends it.
fn spin_kernel() -> scratch_asm::Kernel {
    let mut b = scratch_asm::KernelBuilder::new("spin");
    b.vgprs(4).sgprs(24).workgroup_size(64);
    let top = b.new_label();
    b.bind(top).expect("fresh label");
    b.branch(scratch_isa::Opcode::SBranch, top);
    b.endpgm().expect("endpgm");
    b.finish().expect("spin kernel assembles")
}

#[test]
fn cancel_stops_midflight_job_without_blocking_drain() {
    // A never-ending kernel sliced into short quanta: cancel it
    // mid-flight, watch the Done arrive as `cancelled`, and prove the
    // worker (and a subsequent drain) never wedge on it.
    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            quantum_cycles: 1000,
            registry: Some(registry.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let victim = client
        .submit(SubmitRequest {
            tenant: "acme".to_owned(),
            label: "victim".to_owned(),
            kernel: spin_kernel(),
            input: Vec::new(),
            grid: [1, 1, 1],
            out_bytes: 4,
            system: None,
            return_output: false,
            exec: None,
        })
        .expect("protocol")
        .expect("admits");
    assert!(
        client.cancel(victim).expect("protocol"),
        "live job is cancellable"
    );
    let done = client.recv_done().expect("cancelled job still answers");
    assert_eq!(done.job, victim);
    assert!(!done.ok, "cancelled job must not report success");
    assert_eq!(done.error.as_deref(), Some("cancelled"));

    // Too late now: its outcome was already produced.
    assert!(!client.cancel(victim).expect("protocol"));
    // Unknown ids are not cancellable either.
    assert!(!client.cancel(victim + 1000).expect("protocol"));

    // The worker is free again: new work completes normally…
    let after = workload(402, 2);
    let (after_cycles, after_words) = direct_run(&after);
    client
        .submit(submit_of(&after, "acme", "after", true))
        .expect("protocol")
        .expect("admits after a cancellation");
    let d = client.recv_done().expect("completes");
    assert!(d.ok, "{:?}", d.error);
    assert_eq!(d.cycles, after_cycles);
    assert_eq!(d.output.as_ref().expect("return_output"), &after_words);

    // …and a drain exits promptly instead of waiting on the victim.
    client.drain().expect("drain acknowledged");
    server.wait_drain();

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("scratch_serve_cancelled_total", &[]),
        Some(1),
        "serve-side cancellation accounted"
    );
    assert_eq!(
        snap.counter("scratch_preempt_cancelled_total", &[]),
        Some(1),
        "engine-side cancellation accounted"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2, "cancelled jobs still complete");
    assert_eq!(stats.failed, 1, "the cancelled job counts as failed");
    assert_eq!(stats.cancelled, 1);
}

#[test]
fn malformed_lines_answer_error_and_keep_the_connection() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ping = serde_json::to_string(&scratch_serve::Request::Ping).unwrap();
    raw.write_all(format!("this is not json\n{ping}\n").as_bytes())
        .unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("Error") && line.contains("malformed request"),
        "garbage line answers a protocol error, got: {line}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("Pong"),
        "connection survives a malformed line, got: {line}"
    );

    server.shutdown();
}

/// The full observability plane under preemption: spans on, profiling on,
/// a 4-worker pool, and a quantum small enough that every job is sliced
/// at least three times. Every job's span timeline must tile its lifetime
/// exactly; enabling the plane must change no cycles and no output words;
/// and `Top` must surface the per-tenant SLO and signature aggregates.
#[test]
fn spans_tile_exactly_under_preemption_and_top_aggregates() {
    let gk = workload(901, 4);
    let (ref_cycles, ref_words) = direct_run(&gk);
    // Aim well past the 3-slice floor; the engine re-slices on quantum
    // boundaries, so cycles/8 yields ~8 run slices per job.
    let quantum = (ref_cycles / 8).max(1);
    assert!(ref_cycles > 3 * quantum, "workload outlives three quanta");

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            quantum_cycles: quantum,
            spans: true,
            profile: true,
            registry: Some(Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let tenants = ["alpha", "beta"];
    let mut submitted = Vec::new();
    for round in 0..4 {
        for tenant in &tenants {
            let job = client
                .submit(submit_of(&gk, tenant, &format!("sliced-{round}"), true))
                .expect("protocol")
                .expect("no load, nothing sheds");
            submitted.push(job);
        }
    }

    for _ in 0..submitted.len() {
        let d = client.recv_done().expect("sliced jobs complete");
        assert!(d.ok, "job {} failed: {:?}", d.job, d.error);
        assert_eq!(
            d.output.as_ref().expect("return_output"),
            &ref_words,
            "spans+profiling changed the served words"
        );
        assert_eq!(d.cycles, ref_cycles, "spans+profiling changed the cycles");
        assert!(
            d.slices >= 3,
            "job {} ran in {} slices; the quantum should force >= 3",
            d.job,
            d.slices
        );
        assert!(d.exec_us >= d.snap_us, "checkpoint time within exec time");
    }

    // Spans are finished on the router thread just after the reply is
    // written, so give the recorder a moment to catch up with the client.
    let spans = {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut collected = Vec::new();
        loop {
            collected.extend(server.take_spans());
            if collected.len() >= submitted.len() || std::time::Instant::now() > deadline {
                break collected;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    assert_eq!(spans.len(), submitted.len(), "one timeline per job");
    for j in &spans {
        j.check_tiling()
            .unwrap_or_else(|e| panic!("job {} timeline torn: {e}", j.job));
        assert!(submitted.contains(&j.job), "unknown job id {}", j.job);
        assert!(
            j.slices() >= 3,
            "job {} timeline shows {} run slices",
            j.job,
            j.slices()
        );
        assert!(j.total_us() > 0, "job {} has a zero-width timeline", j.job);
        assert_eq!(
            j.total_us(),
            j.spans.iter().map(|s| s.dur_us()).sum::<u64>(),
            "exact tiling: span durations sum to the job's lifetime"
        );
    }

    // `Top` surfaces the rolling SLO and the aggregated signatures.
    let top = client.top().expect("top");
    assert!(!top.draining);
    assert_eq!(top.tenants.len(), tenants.len());
    for t in &top.tenants {
        assert!(tenants.contains(&t.tenant.as_str()), "tenant {}", t.tenant);
        assert_eq!(t.completed, 4, "{} completions", t.tenant);
        assert_eq!(t.shed, 0);
        assert!(t.p99_us >= t.p50_us, "{} quantile ordering", t.tenant);
        assert!(t.instructions > 0, "{} signature aggregated", t.tenant);
        assert_ne!(t.preset, "-", "{} covering preset computed", t.tenant);
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, submitted.len() as u64);
    assert_eq!(stats.failed, 0);
}

// ---------------------------------------------------------------------------
// Durability: WAL recovery and the idle-timeout shed.
// ---------------------------------------------------------------------------

/// A scratch directory unique to one test.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scratch-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll the log until `id` has a completion record (the replayed job's
/// `Done` goes to a dead channel, so the log is the only witness).
fn await_completion(dir: &std::path::Path, id: u64) -> scratch_wal::CompletionMeta {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let state = scratch_wal::WalState::read(dir).expect("readable log");
        if let Some(metas) = state.completions.get(&id) {
            return metas[0].clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never completed after replay"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A restarted daemon must re-run logged-but-unfinished jobs, suppress
/// logged-and-completed ones, produce bit-identical digests for the
/// replays, and never re-mint an id the previous lifetime used.
#[test]
fn wal_recovery_replays_pending_dedupes_completed_and_floors_ids() {
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("recovery");
    let gk_done = workload(300, 2);
    let gk_pending = workload(310, 2);
    let (_, done_words) = direct_run(&gk_done);
    let (_, pending_words) = direct_run(&gk_pending);

    // Forge the log a crashed daemon would have left behind: one job
    // fully completed, one admitted but unfinished.
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        let payload_of = |gk: &GenKernel, tenant: &str, label: &str| {
            serde_json::to_string(&submit_of(gk, tenant, label, false))
                .expect("serializable")
                .into_bytes()
        };
        wal.append(&Record::Admitted {
            id: 3,
            tenant: "alpha".to_owned(),
            label: "done".to_owned(),
            payload: payload_of(&gk_done, "alpha", "done"),
        })
        .expect("append");
        wal.append(&Record::Completed {
            id: 3,
            ok: true,
            digest: fnv1a(&done_words),
            cycles: 1,
            instructions: 1,
            error: String::new(),
        })
        .expect("append");
        wal.append(&Record::Admitted {
            id: 7,
            tenant: "beta".to_owned(),
            label: "pending".to_owned(),
            payload: payload_of(&gk_pending, "beta", "pending"),
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured").clone();
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 1);
    assert_eq!(report.replayed, 1, "only the unfinished job re-runs");
    assert_eq!(report.deduped, 1, "the completed job is suppressed");
    assert_eq!(report.torn_bytes, 0, "a clean log has no torn tail");

    // The replay completes with a digest bit-identical to a direct run,
    // exactly once.
    let meta = await_completion(&dir, 7);
    assert!(meta.ok, "replayed job failed: {}", meta.error);
    assert_eq!(
        meta.digest,
        fnv1a(&pending_words),
        "replay is bit-identical"
    );

    // A live admission in the new lifetime never reuses a logged id.
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let job = client
        .submit(submit_of(&gk_done, "alpha", "fresh", false))
        .expect("protocol")
        .expect("admitted");
    assert!(job > 7, "id floor: got {job}, the old lifetime reached 7");
    let d = client.recv_done().expect("fresh job completes");
    assert!(!d.redelivered, "a live admission is not a redelivery");
    server.shutdown();

    // The final ledger is clean: every admission has exactly one
    // completion.
    let vr = scratch_wal::verify(&dir).expect("verify");
    assert!(vr.clean(), "post-shutdown log must be clean: {vr:?}");
    assert_eq!(vr.duplicate_completions, 0);
    assert_eq!(vr.unfinished, 0);
    let state = scratch_wal::WalState::read(&dir).expect("read");
    assert_eq!(state.completions.get(&3).map(Vec::len), Some(1));
    assert_eq!(state.completions.get(&7).map(Vec::len), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unusable checkpoint (garbage bytes, wrong version) must not wedge
/// recovery: the job falls back to a from-scratch replay and still lands
/// the right digest.
#[test]
fn wal_recovery_survives_a_garbage_checkpoint() {
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("bad-checkpoint");
    let gk = workload(320, 2);
    let (_, words) = direct_run(&gk);
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        wal.append(&Record::Admitted {
            id: 5,
            tenant: "alpha".to_owned(),
            label: "resumable".to_owned(),
            payload: serde_json::to_string(&submit_of(&gk, "alpha", "resumable", false))
                .expect("serializable")
                .into_bytes(),
        })
        .expect("append");
        wal.append(&Record::Checkpoint {
            id: 5,
            out_addr: 64,
            snap: vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3],
        })
        .expect("append");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            wal: Some(scratch_wal::WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured");
    assert_eq!(report.replayed, 1);
    assert_eq!(report.resumed, 1, "the scan trusts the checkpoint's shape");

    let meta = await_completion(&dir, 5);
    assert!(meta.ok, "fallback replay failed: {}", meta.error);
    assert_eq!(meta.digest, fnv1a(&words), "fallback is bit-identical");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart resumes a job from a real mid-kernel checkpoint — the
/// bytes a paused serve job journals — and finishes it bit-identical to an
/// uninterrupted direct run, restoring exactly once.
#[test]
fn wal_recovery_resumes_from_a_real_mid_kernel_checkpoint() {
    use scratch_system::DispatchProgress;
    use scratch_wal::{FsyncPolicy, Record, Wal, WalConfig};

    let dir = wal_dir("real-checkpoint");
    let gk = workload(330, 4);
    let (ref_cycles, ref_words) = direct_run(&gk);
    let quantum = (ref_cycles / 3).max(1);
    assert!(ref_cycles > quantum, "workload outlives one quantum");

    // Pause a direct run mid-kernel, as a serve job does at a quantum
    // boundary, and capture its checkpoint.
    let kernel = gk.build().expect("buildable");
    let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).expect("system");
    let out_addr = sys.alloc(gk.out_bytes().max(4));
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out_addr as u32, inp as u32]);
    let progress = sys
        .dispatch_preemptible([gk.wgs, 1, 1], quantum)
        .expect("generated kernels run");
    assert!(
        matches!(progress, DispatchProgress::Paused),
        "paused mid-kernel"
    );
    let snap = scratch_snap::to_bytes(&sys.checkpoint().expect("paused system checkpoints"));
    {
        let (mut wal, _) = Wal::open(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        })
        .expect("fresh log");
        wal.append(&Record::Admitted {
            id: 9,
            tenant: "alpha".to_owned(),
            label: "resumable".to_owned(),
            payload: serde_json::to_string(&submit_of(&gk, "alpha", "resumable", false))
                .expect("serializable")
                .into_bytes(),
        })
        .expect("append");
        wal.append(&Record::Checkpoint {
            id: 9,
            out_addr,
            snap,
        })
        .expect("append");
    }

    let registry = Registry::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            registry: Some(registry.clone()),
            wal: Some(WalConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .expect("bind with wal");
    let report = server.recovery_report().expect("wal configured").clone();
    assert_eq!(report.replayed, 1);
    assert_eq!(report.resumed, 1, "the job resumes from its checkpoint");

    let meta = await_completion(&dir, 9);
    assert!(meta.ok, "resumed job failed: {}", meta.error);
    assert_eq!(meta.digest, fnv1a(&ref_words), "resume is bit-identical");
    assert_eq!(meta.cycles, ref_cycles, "resume keeps the cycle count");
    server.shutdown();
    let restores = registry
        .snapshot()
        .histogram("scratch_snap_resume_micros", &[])
        .map_or(0, |h| h.count());
    assert_eq!(restores, 1, "exactly one restore: the replayed first slice");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `idle_timeout` set, a connection that goes silent with nothing in
/// flight is shed with the typed `IdleTimeout` rejection and closed —
/// while activity (even just pings) keeps it alive indefinitely.
#[test]
fn idle_connections_shed_with_typed_timeout_and_activity_resets_it() {
    use scratch_serve::Response;

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // A silent connection: the daemon speaks first, with the typed shed,
    // then closes.
    let silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut lines = BufReader::new(silent);
    let mut line = String::new();
    lines.read_line(&mut line).expect("the shed notice arrives");
    let response: Response = serde_json::from_str(&line).expect("valid protocol line");
    match response {
        Response::Rejected(r) => {
            assert_eq!(r.reason, RejectReason::IdleTimeout);
            assert!(r.message.contains("300 ms"), "message names the limit");
        }
        other => panic!("expected the idle shed, got {other:?}"),
    }
    line.clear();
    let eof = lines.read_line(&mut line).expect("socket readable");
    assert_eq!(eof, 0, "the daemon closes an idle-shed connection");

    // An active connection outlives many idle windows: each ping resets
    // the clock.
    let mut active = ServeClient::connect(addr).expect("connect");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            active.ping().expect("still connected"),
            "ping keeps it alive"
        );
    }

    // ...and a submitted job holds the connection open while the client
    // silently awaits its Done.
    let gk = workload(330, 2);
    active
        .submit(submit_of(&gk, "tenant", "awaited", false))
        .expect("protocol")
        .expect("admitted");
    let d = active
        .recv_done()
        .expect("done arrives on a live connection");
    assert!(d.ok);
    server.shutdown();
}
