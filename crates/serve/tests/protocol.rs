//! Serde round-trips of every protocol message — both directions of the
//! wire format, via the exact `serde_json` path the server and client use
//! — plus the decoder's cost on long strings and the admission limit on
//! name lengths.

use scratch_asm::KernelBuilder;
use scratch_serve::{
    JobDone, RejectReason, Rejection, Request, Response, ServeClient, ServeConfig, Server,
    StatsReply, SubmitRequest, TenantStats, TenantTop, TopReply, MAX_NAME_BYTES,
};

fn tiny_kernel() -> scratch_asm::Kernel {
    let mut b = KernelBuilder::new("proto");
    b.vgprs(4).sgprs(24).workgroup_size(64);
    b.endpgm().unwrap();
    b.finish().unwrap()
}

fn roundtrip_request(req: &Request) {
    let line = serde_json::to_string(req).expect("serialize");
    assert!(!line.contains('\n'), "wire format must be one line");
    let back: Request = serde_json::from_str(&line).expect("deserialize");
    assert_eq!(*req, back, "request round-trip changed the message");
}

fn roundtrip_response(resp: &Response) {
    let line = serde_json::to_string(resp).expect("serialize");
    assert!(!line.contains('\n'), "wire format must be one line");
    let back: Response = serde_json::from_str(&line).expect("deserialize");
    assert_eq!(*resp, back, "response round-trip changed the message");
}

fn sample_submit() -> SubmitRequest {
    SubmitRequest {
        tenant: "acme".to_owned(),
        label: "job-1".to_owned(),
        kernel: tiny_kernel(),
        input: vec![1, 2, 3, 0xdead_beef],
        grid: [2, 1, 1],
        out_bytes: 16384,
        system: Some("dcdpm".to_owned()),
        return_output: true,
        exec: Some("cycle".to_owned()),
    }
}

#[test]
fn every_request_variant_round_trips() {
    roundtrip_request(&Request::Submit(sample_submit()));
    roundtrip_request(&Request::Submit(SubmitRequest {
        system: None, // the omittable fields, in their omitted state
        exec: None,
        input: Vec::new(),
        return_output: false,
        ..sample_submit()
    }));
    roundtrip_request(&Request::Stats);
    roundtrip_request(&Request::Ping);
    roundtrip_request(&Request::Drain);
    roundtrip_request(&Request::Cancel { job: 42 });
    roundtrip_request(&Request::Top);
}

#[test]
fn every_response_variant_round_trips() {
    roundtrip_response(&Response::Accepted { job: 42 });
    for reason in [
        RejectReason::RateLimited,
        RejectReason::TenantQueueFull,
        RejectReason::Overloaded,
        RejectReason::Draining,
        RejectReason::TooLarge,
        RejectReason::Invalid,
        RejectReason::IdleTimeout,
    ] {
        roundtrip_response(&Response::Rejected(Rejection {
            reason,
            tenant: "acme".to_owned(),
            retry_after_ms: (reason == RejectReason::RateLimited).then_some(125),
            message: format!("shed: {reason}"),
        }));
    }
    roundtrip_response(&Response::Done(JobDone {
        job: 42,
        tenant: "acme".to_owned(),
        label: "job-1".to_owned(),
        ok: true,
        error: None,
        cycles: 123_456,
        instructions: 7890,
        digest: 0xcbf2_9ce4_8422_2325,
        output: Some(vec![0, 1, u32::MAX]),
        queue_us: 12,
        exec_us: 3400,
        snap_us: 210,
        slices: 3,
        redelivered: false,
    }));
    roundtrip_response(&Response::Done(JobDone {
        job: 43,
        tenant: "acme".to_owned(),
        label: "job-2".to_owned(),
        ok: false,
        error: Some("watchdog: job exceeded its 1000-cycle budget".to_owned()),
        cycles: 0,
        instructions: 0,
        digest: 0xcbf2_9ce4_8422_2325,
        output: None,
        queue_us: 12,
        exec_us: 50,
        snap_us: 0,
        slices: 1,
        redelivered: true,
    }));
    roundtrip_response(&Response::Pong);
    roundtrip_response(&Response::Stats(StatsReply {
        submitted: 10,
        accepted: 8,
        shed: 2,
        completed: 7,
        failed: 1,
        cancelled: 1,
        queue_depth: 1,
        in_flight: 0,
        connections: 3,
        draining: false,
        tenants: vec![TenantStats {
            tenant: "acme".to_owned(),
            accepted: 8,
            shed: 2,
            completed: 7,
            in_flight: 1,
            latency_us: [150, 900, 2100],
        }],
    }));
    roundtrip_response(&Response::Top(TopReply {
        queue_depth: 2,
        in_flight: 1,
        draining: false,
        tenants: vec![TenantTop {
            tenant: "acme".to_owned(),
            queued: 2,
            in_flight: 1,
            completed: 7,
            shed: 1,
            p50_us: 150,
            p95_us: 900,
            p99_us: 2100,
            shed_ratio: 0.125,
            budget_burn: 1.5,
            instructions: 4096,
            preset: "salu+ivalu+lsu+branch".to_owned(),
        }],
    }));
    roundtrip_response(&Response::Draining { pending: 3 });
    roundtrip_response(&Response::Cancelled {
        job: 42,
        cancelled: true,
    });
    roundtrip_response(&Response::Error {
        message: "malformed request: expected value".to_owned(),
    });
}

#[test]
fn submit_accepts_omitted_optional_fields() {
    // A hand-written client may omit `system` entirely; the vendored
    // serde treats missing fields as null, which `Option` absorbs.
    let kernel_json = serde_json::to_string(&tiny_kernel()).unwrap();
    let line = format!(
        "{{\"Submit\":{{\"tenant\":\"t\",\"label\":\"l\",\"kernel\":{kernel_json},\
         \"input\":[],\"grid\":[1,1,1],\"out_bytes\":4096,\"return_output\":false}}}}"
    );
    let req: Request = serde_json::from_str(&line).expect("omitted system still parses");
    let Request::Submit(s) = req else {
        panic!("expected Submit")
    };
    assert_eq!(s.system, None);
    assert!(s.system_kind().is_ok(), "None defaults to dcdpm");
    assert_eq!(s.exec, None);
    assert!(s.exec_mode().is_ok(), "None defaults to the cycle tier");
}

#[test]
fn unknown_system_preset_is_invalid() {
    let s = SubmitRequest {
        system: Some("warp9".to_owned()),
        ..sample_submit()
    };
    assert!(s.system_kind().is_err());
}

/// String decoding is linear: a `Submit` line with a 1 MiB label (mixed
/// one- and multi-byte scalars, with escapes) parses well within a
/// second, where re-validating the rest of the input per character takes
/// tens of seconds.
#[test]
fn megabyte_label_decodes_in_linear_time() {
    let mut label = String::with_capacity(1 << 20);
    while label.len() < 1 << 20 {
        label.push_str("abcdefgh-ü✓\"\\\n");
    }
    let line = serde_json::to_string(&Request::Submit(SubmitRequest {
        label: label.clone(),
        ..sample_submit()
    }))
    .expect("serialize");
    let start = std::time::Instant::now();
    let back: Request = serde_json::from_str(&line).expect("deserialize");
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "1 MiB label took {took:?} to decode"
    );
    let Request::Submit(submit) = back else {
        panic!("decoded a different request variant");
    };
    assert_eq!(submit.label, label, "label survives the round trip");
}

/// A live server sheds an over-long tenant or label with the typed
/// `TooLarge` rejection before it touches the tenant table, and still
/// admits a name of exactly the limit.
#[test]
fn over_long_tenant_and_label_are_shed_too_large() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            registry: Some(scratch_metrics::Registry::new()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let long = "t".repeat(MAX_NAME_BYTES + 1);
    for req in [
        SubmitRequest {
            tenant: long.clone(),
            ..sample_submit()
        },
        SubmitRequest {
            label: long.clone(),
            ..sample_submit()
        },
    ] {
        let rejection = client
            .submit(req)
            .expect("protocol")
            .expect_err("over-long name is shed");
        assert_eq!(rejection.reason, RejectReason::TooLarge);
        assert!(rejection.tenant.len() <= MAX_NAME_BYTES, "not echoed back");
    }
    assert!(server.stats().tenants.is_empty(), "no tenant entry created");

    let at_limit = "t".repeat(MAX_NAME_BYTES);
    let job = client
        .submit(SubmitRequest {
            tenant: at_limit.clone(),
            label: at_limit,
            ..sample_submit()
        })
        .expect("protocol")
        .expect("a name at the limit is admitted");
    let done = client.recv_done().expect("job completes");
    assert_eq!(done.job, job);
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
}
