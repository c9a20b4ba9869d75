//! Property tests: a randomly populated snapshot survives both the
//! compact binary codec and JSON, bit-for-bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratch_snap::{
    from_bytes, to_bytes, CuSnapshot, ImagePage, MemoryImage, WaveSnapshot, WorkgroupSnapshot,
    PAGE_BYTES,
};
use serde::{Map, Value};

fn random_stats(rng: &mut StdRng) -> Value {
    let mut map = Map::new();
    map.insert("cycles".to_owned(), Value::U64(rng.gen_range(0..1 << 40)));
    map.insert(
        "instructions".to_owned(),
        Value::U64(rng.gen_range(0..1 << 30)),
    );
    map.insert(
        "histogram".to_owned(),
        Value::Array(
            (0..rng.gen_range(0..6usize))
                .map(|_| Value::U64(rng.gen_range(0..1000)))
                .collect(),
        ),
    );
    Value::Object(map)
}

fn random_wave(rng: &mut StdRng, id: u64) -> WaveSnapshot {
    let sgprs = rng.gen_range(4..32usize);
    let vgprs = rng.gen_range(1..8usize);
    WaveSnapshot {
        id,
        workgroup: rng.gen_range(0..4),
        pc: rng.gen_range(0..4096),
        exec: rng.gen_range(0..u64::MAX),
        vcc: rng.gen_range(0..u64::MAX),
        scc: rng.gen_range(0..2u32) == 1,
        m0: rng.gen_range(0..u32::MAX),
        sgprs: (0..sgprs).map(|_| rng.gen_range(0..u32::MAX)).collect(),
        vgprs: (0..vgprs)
            .map(|_| (0..64).map(|_| rng.gen_range(0..u32::MAX)).collect())
            .collect(),
        next_ready: rng.gen_range(0..1 << 40),
        wait_reason: rng.gen_range(0..8u32) as u8,
        vm_events: (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_range(0..1 << 40))
            .collect(),
        lgkm_events: (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_range(0..1 << 40))
            .collect(),
        state: rng.gen_range(0..3u32) as u8,
        retired: rng.gen_range(0..1 << 30),
        pending: (0..rng.gen_range(0..6usize))
            .map(|_| (rng.gen_range(0..0x204u32), rng.gen_range(0..1 << 40)))
            .collect(),
    }
}

/// A valid image: a random length and a random ascending subset of its
/// pages, each at its full length with sparse non-zero bytes.
fn random_image(seed: u64) -> MemoryImage {
    let rng = &mut StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..3 * PAGE_BYTES + 17);
    let present: Vec<usize> = (0..len.div_ceil(PAGE_BYTES))
        .filter(|_| rng.gen::<bool>())
        .collect();
    let pages = present
        .into_iter()
        .map(|index| {
            let mut data = vec![0u8; PAGE_BYTES.min(len - index * PAGE_BYTES)];
            for _ in 0..rng.gen_range(1..32u32) {
                let at = rng.gen_range(0..data.len());
                data[at] = rng.gen_range(1..256u32) as u8;
            }
            ImagePage {
                index: index as u64,
                data,
            }
        })
        .collect();
    MemoryImage {
        len: len as u64,
        pages,
    }
}

fn random_snapshot(seed: u64) -> CuSnapshot {
    let rng = &mut StdRng::seed_from_u64(seed);
    let waves = rng.gen_range(1..6usize);
    CuSnapshot {
        now: rng.gen_range(0..1 << 40),
        rr: rng.gen_range(0..8),
        run_start: if rng.gen_range(0..2u32) == 1 {
            Some(rng.gen_range(0..1 << 40))
        } else {
            None
        },
        waves: (0..waves).map(|i| random_wave(rng, i as u64)).collect(),
        workgroups: (0..rng.gen_range(1..3usize))
            .map(|_| WorkgroupSnapshot {
                lds: (0..rng.gen_range(0..64usize))
                    .map(|_| rng.gen_range(0..u32::MAX))
                    .collect(),
                waves: (0..waves).map(|i| i as u64).collect(),
                arrived: rng.gen_range(0..waves as u64 + 1),
            })
            .collect(),
        salu_busy: rng.gen_range(0..1 << 40),
        lsu_busy: rng.gen_range(0..1 << 40),
        simd_busy: (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(0..1 << 40))
            .collect(),
        simf_busy: (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(0..1 << 40))
            .collect(),
        stall_acc: (0..8).map(|_| rng.gen_range(0..1 << 40)).collect(),
        stats: random_stats(rng),
        pc_counts: (0..rng.gen_range(0..24usize))
            .map(|_| rng.gen_range(0..1 << 40))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn binary_round_trip(seed in 0u64..10_000) {
        let snap = random_snapshot(seed);
        let bytes = to_bytes(&snap);
        let back: CuSnapshot = from_bytes(&bytes).expect("binary decode");
        prop_assert_eq!(&back, &snap);
    }

    #[test]
    fn json_round_trip(seed in 0u64..10_000) {
        let snap = random_snapshot(seed);
        let json = serde_json::to_string(&snap).expect("json encode");
        let back: CuSnapshot = serde_json::from_str(&json).expect("json decode");
        prop_assert_eq!(&back, &snap);
    }

    #[test]
    fn memory_image_round_trip(seed in 0u64..10_000) {
        let image = random_image(seed);
        prop_assert_eq!(image.validate(), Ok(()));
        let bytes = to_bytes(&image);
        let back: MemoryImage = from_bytes(&bytes).expect("binary decode");
        prop_assert_eq!(&back, &image);
        let json = serde_json::to_string(&image).expect("json encode");
        let back: MemoryImage = serde_json::from_str(&json).expect("json decode");
        prop_assert_eq!(&back, &image);
    }
}

#[test]
fn version_mismatch_is_rejected() {
    let snap = random_snapshot(42);
    let mut bytes = to_bytes(&snap);
    bytes[4..8].copy_from_slice(&(scratch_snap::FORMAT_VERSION + 3).to_le_bytes());
    match from_bytes::<CuSnapshot>(&bytes) {
        Err(scratch_snap::SnapError::Version { found, expected }) => {
            assert_eq!(found, scratch_snap::FORMAT_VERSION + 3);
            assert_eq!(expected, scratch_snap::FORMAT_VERSION);
        }
        other => panic!("expected version error, got {other:?}"),
    }
}

#[test]
fn sparse_pages_keep_snapshots_compact() {
    let image = MemoryImage {
        len: 1 << 20,
        pages: vec![ImagePage {
            index: 0,
            data: vec![7; PAGE_BYTES],
        }],
    };
    let bytes = to_bytes(&image);
    assert!(
        bytes.len() < 2 * PAGE_BYTES,
        "1 MiB image with one touched page encoded to {} bytes",
        bytes.len()
    );
}

/// The fast functional tier has no cycle-accurate state to capture, so a
/// preemptible dispatch on it runs whole: `Complete` on the first call,
/// with exactly what a plain `dispatch` leaves behind. Cycle-tier
/// dispatches stay preemptible as before.
#[test]
fn preemptible_dispatch_runs_fast_tiers_whole() {
    use scratch_asm::KernelBuilder;
    use scratch_isa::{Opcode, Operand, SmrdOffset};
    use scratch_system::{abi, DispatchProgress, ExecMode, System, SystemConfig, SystemKind};

    // out[tid] = tid.
    let kernel = {
        let mut b = KernelBuilder::new("snap_exec_whole");
        b.vgprs(4).sgprs(24).workgroup_size(64);
        b.smrd(
            Opcode::SBufferLoadDwordx2,
            Operand::Sgpr(20),
            abi::CONST_BUF1,
            SmrdOffset::Imm(0),
        )
        .unwrap();
        b.waitcnt(None, Some(0)).unwrap();
        b.vop2(Opcode::VLshlrevB32, 3, Operand::IntConst(2), abi::TID_X)
            .unwrap();
        b.mubuf(
            Opcode::BufferStoreDword,
            abi::TID_X,
            3,
            abi::UAV_DESC,
            Operand::Sgpr(20),
            0,
        )
        .unwrap();
        b.waitcnt(Some(0), None).unwrap();
        b.endpgm().unwrap();
        b.finish().unwrap()
    };
    let system = |exec: ExecMode| {
        let config = SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
        let mut sys = System::new(config, &kernel).unwrap();
        let out = sys.alloc(4096);
        sys.set_args(&[out as u32]);
        (sys, out)
    };

    for exec in [ExecMode::Fast, ExecMode::FastWithTiming] {
        let (mut reference, out) = system(exec);
        let cycles = reference.dispatch([1, 1, 1]).unwrap();
        let (mut sys, _) = system(exec);
        assert_eq!(
            sys.dispatch_preemptible([1, 1, 1], 1).unwrap(),
            DispatchProgress::Complete { cycles },
            "{exec:?} runs whole in the first call"
        );
        let words = sys.read_words(out, 64);
        assert_eq!(words, (0..64).collect::<Vec<u32>>(), "{exec:?}");
        assert_eq!(words, reference.read_words(out, 64), "{exec:?}");
        assert_eq!(sys.report(), reference.report(), "{exec:?}");
        assert_eq!(sys.fast_stats(0), reference.fast_stats(0), "{exec:?}");
    }

    let progress = system(ExecMode::Cycle)
        .0
        .dispatch_preemptible([1, 1, 1], 1)
        .unwrap();
    assert_eq!(
        progress,
        DispatchProgress::Paused,
        "the cycle tier still yields at quantum boundaries"
    );
}
