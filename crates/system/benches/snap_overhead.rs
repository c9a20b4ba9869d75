//! Checkpoint-path overhead: what preemption and serialisation cost on
//! top of an uninterrupted dispatch. Four questions, one group each —
//! how much slower is a sliced dispatch (no serialisation — a served job
//! with no WAL), how much slower is a checkpoint → encode → decode →
//! restore between every quantum (each quantum paying serve's replay
//! path), and what do a single capture, encode,
//! and decode+restore cost in isolation. The snapshot size is printed so
//! the byte cost is on the record next to the latencies.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use scratch_asm::Kernel;
use scratch_asm::KernelBuilder;
use scratch_isa::{Opcode, Operand, SmrdOffset};
use scratch_system::{abi, DispatchProgress, System, SystemCheckpoint, SystemConfig, SystemKind};

const WG_SIZE: u32 = 64;
const WGS: u32 = 512;

/// out[gid] = in[gid] + 1 over the X grid — the same memory-bound shape
/// the system unit tests dispatch, sized to run thousands of CU cycles.
fn add_one_kernel() -> Kernel {
    let mut b = KernelBuilder::new("snap_bench");
    b.vgprs(8).sgprs(32).workgroup_size(WG_SIZE);
    // s20 = in, s21 = out
    b.smrd(
        Opcode::SBufferLoadDwordx2,
        Operand::Sgpr(20),
        abi::CONST_BUF1,
        SmrdOffset::Imm(0),
    )
    .unwrap();
    b.waitcnt(None, Some(0)).unwrap();
    b.sop2(
        Opcode::SMulI32,
        Operand::Sgpr(0),
        Operand::Sgpr(abi::WG_ID_X),
        Operand::Literal(WG_SIZE),
    )
    .unwrap();
    b.vop2(Opcode::VAddI32, 1, Operand::Sgpr(0), abi::TID_X)
        .unwrap();
    b.vop2(Opcode::VLshlrevB32, 1, Operand::IntConst(2), 1)
        .unwrap();
    b.mubuf(
        Opcode::BufferLoadDword,
        2,
        1,
        abi::UAV_DESC,
        Operand::Sgpr(20),
        0,
    )
    .unwrap();
    b.waitcnt(Some(0), None).unwrap();
    b.vop2(Opcode::VAddI32, 2, Operand::IntConst(1), 2).unwrap();
    b.mubuf(
        Opcode::BufferStoreDword,
        2,
        1,
        abi::UAV_DESC,
        Operand::Sgpr(21),
        0,
    )
    .unwrap();
    b.waitcnt(Some(0), None).unwrap();
    b.endpgm().unwrap();
    b.finish().unwrap()
}

/// A fresh system with buffers allocated and args set, ready to dispatch.
fn ready_system(kernel: &Kernel) -> System {
    let n = WGS * WG_SIZE;
    let mut sys = System::new(SystemConfig::preset(SystemKind::DcdPm), kernel).expect("system");
    let inp = sys.alloc(u64::from(n) * 4);
    let out = sys.alloc(u64::from(n) * 4);
    sys.write_words(inp, &(0..n).collect::<Vec<u32>>());
    sys.set_args(&[inp as u32, out as u32]);
    sys
}

/// A system paused at its first quantum boundary.
fn paused_system(kernel: &Kernel, quantum: u64) -> System {
    let mut sys = ready_system(kernel);
    let progress = sys
        .dispatch_preemptible([WGS, 1, 1], quantum)
        .expect("dispatch");
    assert_eq!(
        progress,
        DispatchProgress::Paused,
        "quantum must not finish"
    );
    sys
}

fn snap_overhead(c: &mut Criterion) {
    let kernel = add_one_kernel();

    // Reference cycle count; the quantum slices it into ~8 pauses.
    let ref_cycles = {
        let mut sys = ready_system(&kernel);
        sys.dispatch([WGS, 1, 1]).expect("dispatch")
    };
    let quantum = (ref_cycles / 8).max(1);
    let ck = paused_system(&kernel, quantum)
        .checkpoint()
        .expect("checkpoint");
    let encoded = scratch_snap::to_bytes(&ck);
    println!(
        "snap_overhead: {ref_cycles} CU cycles uninterrupted, quantum {quantum}, \
         checkpoint {} bytes encoded",
        encoded.len()
    );

    let mut group = c.benchmark_group("snap_overhead");
    group.sample_size(20).throughput(Throughput::Elements(1));

    // Every dispatch variant pays the same system-construction cost
    // inside the timed closure (the vendored criterion has no batched
    // setup), so the differences between them are the preemption and
    // serialisation overheads alone.

    // Baseline: one uninterrupted dispatch.
    group.bench_function("dispatch_uninterrupted", |b| {
        b.iter(|| {
            let mut sys = ready_system(&kernel);
            sys.dispatch([WGS, 1, 1]).expect("dispatch")
        });
    });

    // Sliced in-process: pause/resume every quantum, no serialisation.
    // This is how a served job runs without a WAL: its paused `System`
    // stays resident between quanta.
    group.bench_function("dispatch_preempted", |b| {
        b.iter(|| {
            let mut sys = ready_system(&kernel);
            let mut progress = sys
                .dispatch_preemptible([WGS, 1, 1], quantum)
                .expect("dispatch");
            while progress == DispatchProgress::Paused {
                progress = sys.resume_dispatch(quantum).expect("resume");
            }
        });
    });

    // Checkpoint → binary encode → decode → restore into a fresh system
    // at every quantum boundary: an upper bound on the replay path, which
    // serve pays once per job (restoring a replayed job from its newest
    // journaled checkpoint), not once per quantum.
    group.bench_function("dispatch_preempted_serde", |b| {
        b.iter(|| {
            let mut sys = ready_system(&kernel);
            let mut progress = sys
                .dispatch_preemptible([WGS, 1, 1], quantum)
                .expect("dispatch");
            while progress == DispatchProgress::Paused {
                let ck = sys.checkpoint().expect("checkpoint");
                drop(sys);
                let bytes = scratch_snap::to_bytes(&ck);
                let decoded: SystemCheckpoint = scratch_snap::from_bytes(&bytes).expect("decode");
                sys = System::restore(&decoded, None).expect("restore");
                progress = sys.resume_dispatch(quantum).expect("resume");
            }
        });
    });

    // The pieces in isolation, on one paused machine.
    let sys = paused_system(&kernel, quantum);
    group.bench_function("checkpoint_capture", |b| {
        b.iter(|| sys.checkpoint().expect("checkpoint"));
    });
    group.bench_function("checkpoint_encode", |b| {
        b.iter(|| scratch_snap::to_bytes(&ck));
    });
    group.bench_function("checkpoint_decode_restore", |b| {
        b.iter(|| {
            let decoded: SystemCheckpoint = scratch_snap::from_bytes(&encoded).expect("decode");
            System::restore(&decoded, None).expect("restore")
        });
    });

    group.finish();
}

criterion_group!(benches, snap_overhead);
criterion_main!(benches);
