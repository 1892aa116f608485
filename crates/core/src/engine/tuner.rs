//! Auto-tuner: resolve `Auto` to a concrete kernel by measuring.
//!
//! The tuner runs in two stages:
//!
//! 1. **Analytic pre-filter** ([`spmm_candidates`] / [`sddmm_candidates`]):
//!    drop kernels that cannot win for the descriptor, so the expensive
//!    profiling stage only touches plausible choices.
//!    * `BlockedEll` is never a candidate: the benchmark construction
//!      re-encodes the input to a sparsity-matched *surrogate*, so its
//!      output is not numerically equivalent to the other kernels.
//!    * `Dense` is only a candidate when density `1 - sparsity` is at
//!      least [`DENSE_DENSITY_FLOOR`]: below that the densified GEMM
//!      moves too many zeros to ever beat a sparse kernel, and it is the
//!      most expensive candidate to profile.
//!    * `Wmma` (SpMM and SDDMM) is only a candidate at `V == 8`, where
//!      the classic wmma fragment mapping is not padding-bound; at
//!      smaller V octet tiling strictly dominates it (paper Fig. 13).
//!    * `SddmmAlgo::OctetArch` is never a candidate: it models the
//!      proposed SWITCH-HMMA architecture, not the stock device the
//!      engine plans for.
//! 2. **Measurement**: profile each surviving candidate on the simulated
//!    GPU in `Mode::Performance` (sampled CTA traces — cheap relative to
//!    functional execution) and pick the fewest cycles. Candidates are
//!    ordered octet-first, and ties keep the earlier candidate.
//!
//! Since the kernels became [`TilingScheme`] compilers, the octet SpMM
//! candidate is not a single profiling point: it expands into the bounded
//! [`octet_schemes`] sweep (default scheme first), and the winning scheme
//! travels with the winning algorithm into the plan — see
//! [`spmm_sweep_points`].
//!
//! The winner is memoized in the owning [`super::Context`]'s plan cache
//! under the descriptor's key, so a descriptor is tuned at most once per
//! context.

use super::Counters;
use crate::api::{SddmmAlgo, SpmmAlgo};
use crate::compose::TilingScheme;
use crate::sddmm::{profile_sddmm_fpu, profile_sddmm_octet, profile_sddmm_wmma, OctetVariant};
use crate::spmm::compose::octet_schemes;
use crate::spmm::{
    profile_dense_gemm, profile_spmm_fpu, profile_spmm_octet_scheme, profile_spmm_wmma,
};
use rayon::prelude::*;
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, KernelProfile};

/// Minimum density (`1 - sparsity`) at which the dense-GEMM surrogate is
/// worth profiling at all.
pub const DENSE_DENSITY_FLOOR: f64 = 0.4;

/// Candidate SpMM kernels for a problem with the given V and sparsity.
pub fn spmm_candidates(v: usize, sparsity: f64) -> Vec<SpmmAlgo> {
    let mut c = vec![SpmmAlgo::Octet];
    if v == 8 {
        c.push(SpmmAlgo::Wmma);
    }
    c.push(SpmmAlgo::FpuSubwarp);
    if 1.0 - sparsity >= DENSE_DENSITY_FLOOR {
        c.push(SpmmAlgo::Dense);
    }
    c
}

/// Candidate SDDMM kernels for a problem with the given V.
pub fn sddmm_candidates(v: usize) -> Vec<SddmmAlgo> {
    let mut c = vec![SddmmAlgo::OctetReg, SddmmAlgo::OctetShfl];
    if v == 8 {
        c.push(SddmmAlgo::Wmma);
    }
    c.push(SddmmAlgo::FpuSubwarp);
    c
}

/// Expand the algorithm candidates into concrete profiling points. The
/// octet kernel is a [`TilingScheme`] compiler, so its single algorithm
/// slot expands into the bounded [`octet_schemes`] sweep — the paper's
/// default scheme first, so the strict-`<` reduction can never pick a
/// variant that does not beat it outright.
pub fn spmm_sweep_points(v: usize, sparsity: f64) -> Vec<(SpmmAlgo, Option<TilingScheme>)> {
    spmm_candidates(v, sparsity)
        .into_iter()
        .flat_map(|algo| match algo {
            SpmmAlgo::Octet => octet_schemes()
                .into_iter()
                .map(|s| (SpmmAlgo::Octet, Some(s)))
                .collect(),
            other => vec![(other, None)],
        })
        .collect()
}

pub(crate) fn tune_spmm(
    gpu: &GpuConfig,
    a: &VectorSparse<f16>,
    n: usize,
    counters: &Counters,
) -> (SpmmAlgo, Option<TilingScheme>) {
    let b = DenseMatrix::<f16>::zeros(a.cols(), n, Layout::RowMajor);
    fastest(
        spmm_sweep_points(a.v(), a.pattern().sparsity()),
        counters,
        |point| match point {
            (SpmmAlgo::Octet, Some(s)) => profile_spmm_octet_scheme(gpu, a, &b, s),
            (SpmmAlgo::Wmma, _) => profile_spmm_wmma(gpu, a, &b),
            (SpmmAlgo::FpuSubwarp, _) => profile_spmm_fpu(gpu, a, &b),
            (SpmmAlgo::Dense, _) => {
                let dense = a.to_dense(Layout::RowMajor);
                profile_dense_gemm(gpu, &dense, &b)
            }
            _ => unreachable!("never a tuner candidate"),
        },
    )
}

pub(crate) fn tune_sddmm(
    gpu: &GpuConfig,
    mask: &SparsityPattern,
    k: usize,
    counters: &Counters,
) -> SddmmAlgo {
    let a = DenseMatrix::<f16>::zeros(mask.rows(), k, Layout::RowMajor);
    let b = DenseMatrix::<f16>::zeros(k, mask.cols(), Layout::ColMajor);
    fastest(sddmm_candidates(mask.v()), counters, |algo| match algo {
        SddmmAlgo::OctetReg => profile_sddmm_octet(gpu, &a, &b, mask, OctetVariant::Reg),
        SddmmAlgo::OctetShfl => profile_sddmm_octet(gpu, &a, &b, mask, OctetVariant::Shfl),
        SddmmAlgo::FpuSubwarp => profile_sddmm_fpu(gpu, &a, &b, mask),
        SddmmAlgo::Wmma => profile_sddmm_wmma(gpu, &a, &b, mask),
        SddmmAlgo::OctetArch | SddmmAlgo::Auto => unreachable!("never a tuner candidate"),
    })
}

/// The candidate with the fewest profiled cycles. Candidates profile in
/// parallel (each builds its own `MemPool`), then reduce in candidate
/// order: strict `<` keeps the earlier candidate on ties.
fn fastest<C: Copy + Send + Sync>(
    candidates: Vec<C>,
    counters: &Counters,
    profile: impl Fn(C) -> KernelProfile + Sync,
) -> C {
    let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
    let cycles: Vec<f64> = candidates
        .par_iter()
        .map(|&c| {
            counters.count_tuner_launch();
            profile(c).cycles
        })
        .collect();
    counters.add_wall(t0.elapsed());
    let mut best = 0;
    for (i, &c) in cycles.iter().enumerate() {
        if c < cycles[best] {
            best = i;
        }
    }
    candidates[best]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_excludes_inexact_and_unbuildable() {
        for v in [1, 2, 4, 8] {
            for s in [0.0, 0.5, 0.95] {
                let c = spmm_candidates(v, s);
                assert!(!c.contains(&SpmmAlgo::BlockedEll));
                assert!(!c.contains(&SpmmAlgo::Auto));
                assert!(c.contains(&SpmmAlgo::Octet));
                assert_eq!(c.contains(&SpmmAlgo::Wmma), v == 8);
                assert_eq!(c.contains(&SpmmAlgo::Dense), 1.0 - s >= DENSE_DENSITY_FLOOR);
            }
            let d = sddmm_candidates(v);
            assert!(!d.contains(&SddmmAlgo::OctetArch));
            assert!(!d.contains(&SddmmAlgo::Auto));
            assert_eq!(d.contains(&SddmmAlgo::Wmma), v == 8);
        }
    }

    #[test]
    fn sweep_expands_octet_into_scheme_points() {
        let points = spmm_sweep_points(4, 0.9);
        let octet: Vec<_> = points
            .iter()
            .filter(|(a, _)| *a == SpmmAlgo::Octet)
            .collect();
        assert!(octet.len() >= 4, "default + >= 3 variants");
        assert_eq!(
            points[0],
            (SpmmAlgo::Octet, Some(crate::spmm::compose::DEFAULT_SCHEME)),
            "default scheme profiles first so ties keep it"
        );
        assert!(octet.iter().all(|(_, s)| s.is_some()));
        // Non-octet candidates carry no scheme.
        assert!(points
            .iter()
            .filter(|(a, _)| *a != SpmmAlgo::Octet)
            .all(|(_, s)| s.is_none()));
    }

    #[test]
    fn scheme_sweep_never_regresses_vs_fixed_kernel_tuning() {
        use vecsparse_formats::gen;
        let gpu = GpuConfig::small();
        let counters = Counters::default();
        for (v, sparsity, seed) in [(4, 0.85, 11), (8, 0.7, 12), (2, 0.5, 13)] {
            let a = gen::random_vector_sparse::<f16>(32, 64, v, sparsity, seed);
            let b = DenseMatrix::<f16>::zeros(64, 64, Layout::RowMajor);
            let (algo, scheme) = tune_spmm(&gpu, &a, 64, &counters);
            // The swept winner must be at least as fast as every
            // fixed-kernel candidate the old tuner could have returned.
            let winner_cycles = match (algo, scheme) {
                (SpmmAlgo::Octet, Some(s)) => profile_spmm_octet_scheme(&gpu, &a, &b, s).cycles,
                (SpmmAlgo::Wmma, _) => profile_spmm_wmma(&gpu, &a, &b).cycles,
                (SpmmAlgo::FpuSubwarp, _) => profile_spmm_fpu(&gpu, &a, &b).cycles,
                (SpmmAlgo::Dense, _) => {
                    let dense = a.to_dense(Layout::RowMajor);
                    profile_dense_gemm(&gpu, &dense, &b).cycles
                }
                _ => unreachable!(),
            };
            let default_octet =
                profile_spmm_octet_scheme(&gpu, &a, &b, crate::spmm::compose::DEFAULT_SCHEME);
            assert!(
                winner_cycles <= default_octet.cycles,
                "v={v}: sweep winner {winner_cycles} worse than default octet {}",
                default_octet.cycles
            );
        }
    }
}
