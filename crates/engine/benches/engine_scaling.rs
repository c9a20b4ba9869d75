//! Engine throughput scaling: a fixed batch of simulator runs at 1/2/4/8
//! pool workers. On a multi-core host the batch wall-clock should shrink
//! roughly with the worker count until the batch width (8 jobs) or the
//! core count saturates; on a single-core host all points degenerate to
//! serial throughput (see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use scratch_engine::{JobError, PreemptiveEngine};
use scratch_kernels::{bitonic::BitonicSort, matmul::MatrixMul, Benchmark};
use scratch_system::{SystemConfig, SystemKind};

const BATCH: u64 = 8;

fn run_batch<B: Benchmark + 'static>(workers: usize, make: fn() -> B) {
    let outcomes = PreemptiveEngine::new(workers).run_batch((0..BATCH).map(|i| {
        (format!("job-{i}"), move || {
            make()
                .run(SystemConfig::preset(SystemKind::DcdPm))
                .map_err(|e| JobError::Failed(e.to_string()))
        })
    }));
    assert_eq!(outcomes.len() as u64, BATCH);
    for o in &outcomes {
        assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
    }
}

fn engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(BATCH));
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("matmul64_batch8_w{workers}"), |b| {
            b.iter(|| run_batch(workers, || MatrixMul::new(64, false)));
        });
    }
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("bitonic256_batch8_w{workers}"), |b| {
            b.iter(|| run_batch(workers, || BitonicSort::new(256)));
        });
    }
    group.finish();
}

criterion_group!(benches, engine_scaling);
criterion_main!(benches);
