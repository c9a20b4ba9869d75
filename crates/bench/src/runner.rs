//! Shared experiment plumbing: benchmark sets, trimming, configured runs.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use scratch_core::{configure, trim_kernels, RunSummary, Scratch, TrimReport};
use scratch_engine::PreemptiveEngine;
use scratch_fpga::ParallelPlan;
use scratch_kernels::{
    bitonic::BitonicSort,
    cnn::Cnn,
    conv2d::Conv2d,
    gaussian::Gaussian,
    kmeans::KMeans,
    matmul::MatrixMul,
    nin::Nin,
    pooling::{Mode, Pooling},
    transpose::Transpose,
    vec_ops::MatrixAdd,
    BenchError, Benchmark,
};
use scratch_system::SystemKind;

/// Workload scale: `Quick` for CI-sized runs, `Paper` for the evaluation
/// sizes (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small inputs, seconds of wall time.
    Quick,
    /// Paper-sized inputs.
    Paper,
}

impl Scale {
    /// Pick `q` under Quick, `p` under Paper.
    #[must_use]
    pub fn pick(self, q: u32, p: u32) -> u32 {
        match self {
            Scale::Quick => q,
            Scale::Paper => p,
        }
    }
}

/// The Fig. 6 benchmark columns (17 applications) at the given scale.
#[must_use]
pub fn fig6_set(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let s = scale;
    vec![
        Box::new(Conv2d::new(s.pick(32, 128), 5, false)) as Box<dyn Benchmark>,
        Box::new(BitonicSort::new(s.pick(256, 2048))),
        Box::new(Conv2d::new(s.pick(32, 128), 5, true)),
        Box::new(Transpose::new(s.pick(64, 256))),
        Box::new(MatrixMul::new(s.pick(64, 128), true)),
        Box::new(Gaussian::new(s.pick(16, 64))),
        Box::new(MatrixAdd::new(s.pick(32, 256), true)),
        Box::new(MatrixAdd::new(s.pick(32, 256), false)),
        Box::new(MatrixMul::new(s.pick(64, 128), false)),
        Box::new(Pooling::new(s.pick(64, 256), Mode::Average)),
        Box::new(Pooling::new(s.pick(64, 256), Mode::Max)),
        Box::new(Pooling::new(s.pick(64, 256), Mode::Median)),
        Box::new(KMeans::new(512, 5, 4)),
        Box::new(Cnn::new(s.pick(16, 32), false)),
        Box::new(Cnn::new(s.pick(16, 32), true)),
        Box::new(Nin::new(s.pick(16, 32), 32)),
        Box::new(Nin::new(s.pick(16, 32), 8)),
    ]
}

/// Application-level trim report (union over the benchmark's kernels).
///
/// # Errors
///
/// Propagates kernel-construction failures.
pub fn trim_of(bench: &dyn Benchmark) -> Result<TrimReport, BenchError> {
    let kernels = bench.kernels()?;
    Ok(trim_kernels(&kernels)?)
}

/// Run `bench` under a full configuration and summarise time/power/energy.
///
/// # Errors
///
/// Propagates simulation and validation failures.
pub fn run_summary(
    bench: &dyn Benchmark,
    kind: SystemKind,
    plan: ParallelPlan,
    trim: Option<&TrimReport>,
) -> Result<RunSummary, BenchError> {
    let config = configure(kind, plan, trim);
    let report = bench.run(config)?;
    Ok(Scratch::new().summarize(kind, trim, plan, &report))
}

/// Fan a batch of independent experiment legs out over a `scratch-engine`
/// pool and collect their results in submission order — the output is
/// identical for any job count. `jobs == 1` runs the legs serially on one
/// pool worker; `jobs == 0` means one worker per available core.
///
/// # Errors
///
/// The first failing leg's error (in submission order). A leg lost to a
/// worker panic surfaces as [`BenchError::Engine`].
pub fn engine_map<I, T, F>(
    jobs: usize,
    items: impl IntoIterator<Item = (String, I)>,
    work: F,
) -> Result<Vec<T>, BenchError>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> Result<T, BenchError> + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let outcomes = PreemptiveEngine::new(jobs).run_batch(items.into_iter().map(|(label, item)| {
        let work = Arc::clone(&work);
        // The job itself always "succeeds"; the leg's own `BenchError`
        // travels inside the payload so its structure survives the pool.
        (label, move || Ok(work(item)))
    }));
    outcomes
        .into_iter()
        .map(|o| match o.result {
            Ok(leg) => leg,
            Err(e) => Err(BenchError::Engine(format!("{}: {e}", o.label))),
        })
        .collect()
}

/// The untrimmed single-CU plan used as the paper's "Original"/"Baseline"
/// reference architecture (one SIMD + one SIMF).
#[must_use]
pub fn full_plan() -> ParallelPlan {
    ParallelPlan {
        cus: 1,
        int_valus: 1,
        fp_valus: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_set_has_17_columns() {
        assert_eq!(fig6_set(Scale::Quick).len(), 17);
    }

    #[test]
    fn trim_union_covers_multi_kernel_apps() {
        let cnn = Cnn::new(8, false);
        let t = trim_of(&cnn).unwrap();
        // Union must include both the conv kernel's and the pool kernel's
        // instructions.
        assert!(t.kept.contains(scratch_isa::Opcode::VMulLoI32));
        assert!(t.kept.contains(scratch_isa::Opcode::VMax3I32));
    }

    #[test]
    fn engine_map_returns_results_in_item_order() {
        let out = engine_map(
            4,
            (0..8u32).map(|i| (format!("item-{i}"), i)),
            |i| Ok(i * 3),
        )
        .expect("all legs succeed");
        assert_eq!(out, vec![0, 3, 6, 9, 12, 15, 18, 21]);
    }

    #[test]
    fn engine_map_surfaces_panics_as_engine_errors() {
        let err = engine_map(
            2,
            [("fine".to_string(), 1u32), ("doomed".to_string(), 2)],
            |i| {
                assert!(i != 2, "leg exploded");
                Ok(i)
            },
        )
        .expect_err("the panicking leg fails the batch");
        match err {
            BenchError::Engine(msg) => {
                assert!(msg.contains("doomed"), "{msg}");
                assert!(msg.contains("leg exploded"), "{msg}");
            }
            other => panic!("expected an engine error, got {other:?}"),
        }
    }

    #[test]
    fn engine_map_keeps_leg_error_structure() {
        let err = engine_map(2, [("bad".to_string(), ())], |()| {
            Err::<u32, _>(BenchError::Mismatch {
                bench: "probe".into(),
                index: 7,
                expected: 1,
                got: 2,
            })
        })
        .expect_err("the failing leg fails the batch");
        assert!(
            matches!(err, BenchError::Mismatch { index: 7, .. }),
            "leg errors must cross the pool intact, got {err:?}"
        );
    }

    #[test]
    fn run_summary_produces_energy() {
        let bench = MatrixAdd::new(16, false);
        let s = run_summary(&bench, SystemKind::DcdPm, full_plan(), None).unwrap();
        assert!(s.energy_j > 0.0);
        assert!(s.ipj > 0.0);
    }
}
