//! The serve workloads' kernel mix, built from the workload seed, and the
//! direct in-process reference runs every served result is checked
//! against.

use scratch_asm::Kernel;
use scratch_check::GenKernel;
use scratch_serve::SubmitRequest;
use scratch_system::{ExecMode, RunReport, System, SystemConfig, SystemKind};

/// Distinct kernels every serve workload cycles through. Generated
/// kernels vary widely in length and in how many quanta they span, so the
/// mix is large enough for one seed's mix to cost about what another's
/// does: with 8 kernels, instruction count and checkpoints per job moved
/// by a fifth to a quarter between seeds.
pub const MIX_KERNELS: usize = 256;

/// What a direct run of one mix kernel produced on the cycle tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// FNV-1a digest of the output buffer.
    pub digest: u64,
    /// Simulated CU cycles.
    pub cycles: u64,
    /// Wave-instructions retired.
    pub instructions: u64,
}

/// One kernel of the mix with its launch parameters and reference.
#[derive(Debug, Clone)]
pub struct MixKernel {
    /// Generator seed of this kernel.
    pub seed: u64,
    /// The assembled kernel.
    pub kernel: Kernel,
    /// Input buffer words (kernel argument 1).
    pub image: Vec<u32>,
    /// Grid in workgroups.
    pub grid: [u32; 3],
    /// Output buffer bytes (kernel argument 0).
    pub out_bytes: u64,
    /// The direct run's results.
    pub reference: Reference,
}

/// The kernel mix of one workload seed.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The kernels, in submission order.
    pub kernels: Vec<MixKernel>,
}

/// Which kernel, and whether on the fast tier, the `n`-th submission of a
/// client runs when every `fast_every`-th submission is fast (a divisor
/// of [`MIX_KERNELS`]). Any `fast_every` consecutive passes over the mix
/// run each kernel once on the fast tier and `fast_every - 1` times on
/// the cycle tier.
#[must_use]
pub fn job_shape(n: u64, fast_every: u64) -> (usize, bool) {
    let kernels = MIX_KERNELS as u64;
    // Shifting the kernel by one every pass over the mix moves each
    // kernel through every position of the tier pattern.
    let index = usize::try_from((n + n / kernels) % kernels).expect("index below MIX_KERNELS");
    (index, n % fast_every == fast_every - 1)
}

/// Build a [`System`] for `k` exactly as the serve layer does for a
/// submission (same preset, allocation order and argument convention),
/// returning it with the output base address.
///
/// # Errors
///
/// The system rejected the kernel.
pub fn build_system(k: &MixKernel, exec: ExecMode) -> Result<(System, u64), String> {
    let config = SystemConfig::preset(SystemKind::DcdPm).with_exec(exec);
    let mut sys = System::new(config, &k.kernel).map_err(|e| e.to_string())?;
    let out = sys.alloc(k.out_bytes.max(4));
    let inp = sys.alloc_words(&k.image);
    sys.set_args(&[
        u32::try_from(out).map_err(|e| e.to_string())?,
        u32::try_from(inp).map_err(|e| e.to_string())?,
    ]);
    Ok((sys, out))
}

/// Read back the output buffer of a finished run.
#[must_use]
pub fn output_words(sys: &System, k: &MixKernel, out: u64) -> Vec<u32> {
    let words = usize::try_from(k.out_bytes.max(4) / 4).expect("output fits in memory");
    sys.read_words(out, words)
}

/// Run `k` to completion on `exec` and return the report and output.
///
/// # Errors
///
/// The system rejected the kernel or the dispatch failed.
pub fn direct_run(k: &MixKernel, exec: ExecMode) -> Result<(RunReport, Vec<u32>), String> {
    let (mut sys, out) = build_system(k, exec)?;
    sys.dispatch(k.grid).map_err(|e| e.to_string())?;
    Ok((sys.report(), output_words(&sys, k, out)))
}

impl Mix {
    /// Generate [`MIX_KERNELS`] buildable kernels from `seed` onwards
    /// (seeds whose program does not assemble are skipped, as the load
    /// harness does) and compute each one's reference on the cycle tier.
    /// The fast tier must agree on the digest and instruction count.
    ///
    /// # Errors
    ///
    /// A reference run failed or the tiers disagree.
    pub fn build(seed: u64) -> Result<Mix, String> {
        let mut kernels = Vec::with_capacity(MIX_KERNELS);
        let mut s = seed;
        while kernels.len() < MIX_KERNELS {
            let gk = GenKernel::generate(s);
            s = s.wrapping_add(1);
            let Ok(kernel) = gk.build() else { continue };
            let mut k = MixKernel {
                seed: gk.seed,
                kernel,
                grid: [gk.wgs, 1, 1],
                out_bytes: gk.out_bytes(),
                image: gk.image,
                reference: Reference {
                    digest: 0,
                    cycles: 0,
                    instructions: 0,
                },
            };
            k.reference = reference(&k)?;
            kernels.push(k);
        }
        Ok(Mix { kernels })
    }

    /// The submission of kernel `index` on the fast or the cycle tier.
    #[must_use]
    pub fn request(&self, index: usize, fast: bool, tenant: &str) -> SubmitRequest {
        let k = &self.kernels[index];
        SubmitRequest {
            tenant: tenant.to_owned(),
            label: format!("k{index}"),
            kernel: k.kernel.clone(),
            input: k.image.clone(),
            grid: k.grid,
            out_bytes: k.out_bytes,
            system: None,
            return_output: false,
            exec: fast.then(|| "fast".to_owned()),
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`: the digest a served
/// `Done` carries, computed here independently of the serve crate so a
/// broken digest on the serving side cannot agree with its own reference.
#[must_use]
pub fn fnv1a(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Direct cycle-tier run of `k`, cross-checked against the fast tier.
fn reference(k: &MixKernel) -> Result<Reference, String> {
    let (cycle, cycle_words) = direct_run(k, ExecMode::Cycle)?;
    let (fast, fast_words) = direct_run(k, ExecMode::Fast)?;
    let r = Reference {
        digest: fnv1a(&cycle_words),
        cycles: cycle.cu_cycles,
        instructions: cycle.instructions(),
    };
    if fnv1a(&fast_words) != r.digest || fast.instructions() != r.instructions {
        return Err(format!(
            "mix kernel seed {}: fast tier disagrees with the cycle tier",
            k.seed
        ));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_protocol_digest() {
        for words in [&[][..], &[1, 2, 3], &[u32::MAX; 9]] {
            assert_eq!(fnv1a(words), scratch_serve::fnv1a(words));
        }
    }

    #[test]
    fn job_shapes_cover_the_mix_on_both_tiers() {
        let kernels = MIX_KERNELS as u64;
        for fast_every in [2, 4] {
            // Any `fast_every` consecutive passes over the mix.
            for first in [0, 3 * kernels] {
                let mut count = std::collections::BTreeMap::new();
                for n in first..first + fast_every * kernels {
                    let (index, fast) = job_shape(n, fast_every);
                    assert_eq!(fast, n % fast_every == fast_every - 1);
                    *count.entry((index, fast)).or_insert(0) += 1;
                }
                for index in 0..MIX_KERNELS {
                    assert_eq!(count[&(index, true)], 1);
                    assert_eq!(count[&(index, false)], fast_every - 1);
                }
            }
        }
    }
}
