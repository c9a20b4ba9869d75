//! Golden timing digests for the cycle-level compute unit.
//!
//! The cycle tier's issue loop may be restructured for speed, but never
//! at the price of a different schedule. These tests pin, for a fixed set
//! of inputs, everything the timing model reports: the CU cycle count,
//! retired instructions, every per-reason stall total, the per-opcode
//! histogram and the per-unit busy cycles. A further test pins the exact
//! encoded bytes of a checkpoint taken mid-run, so the in-memory
//! scoreboard representation cannot leak into the snapshot format.
//!
//! A mismatch prints the recomputed value, so a deliberate change to the
//! timing model can re-pin it.

use scratch::check::GenKernel;
use scratch::cu::CuStats;
use scratch::kernels::{paper_benchmarks, Benchmark};
use scratch::system::{DispatchProgress, System, SystemConfig, SystemKind};

/// 64-bit FNV-1a over a stream of fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Fold one run's timing-visible results into `h`.
fn digest_run(h: &mut Fnv, cu_cycles: u64, stats: &CuStats) {
    h.u64(cu_cycles);
    h.u64(stats.instructions);
    h.u64(stats.stall_cycles.len() as u64);
    for (reason, &n) in &stats.stall_cycles {
        h.str(&format!("{reason:?}"));
        h.u64(n);
    }
    h.u64(stats.histogram.len() as u64);
    for (op, &n) in &stats.histogram {
        h.str(op.mnemonic());
        h.u64(n);
    }
    h.u64(stats.fu_busy.len() as u64);
    for (unit, &n) in &stats.fu_busy {
        h.str(&format!("{unit:?}"));
        h.u64(n);
    }
}

/// A generated kernel on a fresh DcdPm system, set up the way the
/// differential oracles launch it.
fn gen_system(gk: &GenKernel) -> System {
    let kernel = gk.build().expect("generated kernel assembles");
    let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), &kernel).unwrap();
    let out = sys.alloc(gk.out_bytes());
    let inp = sys.alloc_words(&gk.image);
    sys.set_args(&[out as u32, inp as u32]);
    sys
}

/// Digest of 64 generated kernels, each run to completion on the cycle
/// tier.
#[test]
fn generated_kernels_timing_is_pinned() {
    const EXPECTED: u64 = 0x4d0f_90f7_3fd9_6624;
    let mut h = Fnv::new();
    let mut instructions = 0;
    for seed in 0..64u64 {
        let gk = GenKernel::generate(seed);
        if gk.build().is_err() {
            h.str("skip");
            continue;
        }
        let mut sys = gen_system(&gk);
        match sys.dispatch([gk.wgs, 1, 1]) {
            Ok(_) => {
                let report = sys.report();
                instructions += report.stats.instructions;
                digest_run(&mut h, report.cu_cycles, &report.stats);
            }
            Err(e) => h.str(&e.to_string()),
        }
    }
    assert!(instructions > 0, "the generated kernels must run");
    assert_eq!(
        h.0, EXPECTED,
        "generated-kernel timing digest changed: {:#018x}",
        h.0
    );
}

/// Per-application digests of the three smallest paper applications
/// under DcdPm (each run validates its outputs against the CPU
/// reference).
#[test]
fn small_paper_applications_timing_is_pinned() {
    const EXPECTED: [(&str, u64); 3] = [
        ("Max Pooling (INT32)", 0xb6f478f808794df7),
        ("Average Pooling (INT32)", 0x61edc3f17c2f46d5),
        ("Median Pooling (INT32)", 0xe9b15bc3238ae302),
    ];
    let apps = paper_benchmarks();
    let got: Vec<(&str, u64)> = EXPECTED
        .iter()
        .map(|&(name, _)| {
            let app = apps
                .iter()
                .find(|a| a.name() == name)
                .unwrap_or_else(|| panic!("no paper application `{name}`"));
            (name, app_digest(app.as_ref()))
        })
        .collect();
    assert_eq!(got, EXPECTED, "paper-application timing digests changed");
}

fn app_digest(app: &dyn Benchmark) -> u64 {
    let report = app
        .run(SystemConfig::preset(SystemKind::DcdPm))
        .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
    let mut h = Fnv::new();
    digest_run(&mut h, report.cu_cycles, &report.stats);
    h.0
}

/// The encoded checkpoints of one generated kernel preempted every 200
/// cycles: length and digest of the first pause's exact bytes, plus a
/// digest over every pause's bytes (which covers the stall accumulators
/// and scoreboards at each pause) and the pause count.
#[test]
fn checkpoint_bytes_at_pauses_are_pinned() {
    const FIRST: (usize, u64) = (41331, 0x2f9d_0255_995b_71eb);
    const ALL: (usize, u64) = (4, 0x1f03_af3f_28b9_2702);
    let gk = GenKernel::generate(1);
    let mut sys = gen_system(&gk);
    let mut progress = sys.dispatch_preemptible([gk.wgs, 1, 1], 200).unwrap();
    let mut first = None;
    let mut all = Fnv::new();
    let mut pauses = 0;
    while progress == DispatchProgress::Paused {
        let ck = sys.checkpoint().expect("checkpoint while paused");
        let bytes = scratch_snap::to_bytes(&ck);
        let mut h = Fnv::new();
        h.bytes(&bytes);
        first.get_or_insert((bytes.len(), h.0));
        all.bytes(&bytes);
        pauses += 1;
        progress = sys.resume_dispatch(200).unwrap();
    }
    let first = first.expect("the run must outlast 200 cycles");
    assert_eq!(
        first, FIRST,
        "first checkpoint's bytes changed: {first:#x?}"
    );
    assert_eq!(
        (pauses, all.0),
        ALL,
        "checkpoint bytes across pauses changed: ({pauses}, {:#018x})",
        all.0
    );
}
