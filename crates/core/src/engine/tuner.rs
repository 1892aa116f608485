//! Auto-tuner: resolve `Auto` to a concrete kernel by measuring.
//!
//! The tuner runs in two stages:
//!
//! 1. **Analytic gates** ([`spmm_sweep_points`] / [`sddmm_candidates`]):
//!    list only points that can win for the descriptor, so the
//!    expensive profiling stage only touches plausible choices. The SpMM
//!    list, in order: octet at each of its [`octet_schemes`] (the
//!    paper's default, then the 16-vector stride; the stage layer has no
//!    write-out axis, so `tile_k` alone sets the staging), wmma, FPU,
//!    dense. Every point compiles a distinct kernel.
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
//!    * The octet kernel's cyclic load schedule is not swept: it is the
//!      §5.4 ablation of ILP batching, and won 5 of 1,026 measured
//!      ResNet-50 and transformer cells, each by at most 0.11%.
//!    * `SddmmAlgo::OctetArch` is never a candidate: it models the
//!      proposed SWITCH-HMMA architecture, not the stock device the
//!      engine plans for.
//! 2. **Measurement**: profile each surviving point through a plan, as
//!    any caller would (sampled CTA traces — cheap relative to
//!    functional execution), and pick the fewest cycles. The probe plans
//!    are built on a context that shares only the caller's device, so
//!    they stay out of its memoizer, trace and report. Points are
//!    ordered octet-first, default scheme first, and ties keep the
//!    earlier point. The winning scheme travels with the winning
//!    algorithm into the plan.
//!
//! The winner is memoized in the owning [`super::Context`]'s plan cache
//! under the descriptor's key, so a descriptor is tuned at most once per
//! context.

use super::{Context, Counters, PlanKey, SddmmPlan, SpmmPlan};
use crate::api::{SddmmAlgo, SpmmAlgo};
use crate::compose::TilingScheme;
use crate::spmm::compose::octet_schemes;
use rayon::prelude::*;
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::KernelProfile;

/// Minimum density (`1 - sparsity`) at which the dense-GEMM surrogate is
/// worth profiling at all.
pub const DENSE_DENSITY_FLOOR: f64 = 0.4;

/// Candidate SDDMM kernels for a problem with the given V.
pub fn sddmm_candidates(v: usize) -> Vec<SddmmAlgo> {
    let mut c = vec![SddmmAlgo::OctetReg, SddmmAlgo::OctetShfl];
    if v == 8 {
        c.push(SddmmAlgo::Wmma);
    }
    c.push(SddmmAlgo::FpuSubwarp);
    c
}

/// Whether the dense-GEMM surrogate is worth profiling at `sparsity`.
pub(crate) fn dense_is_swept(sparsity: f64) -> bool {
    1.0 - sparsity >= DENSE_DENSITY_FLOOR
}

/// The SpMM points the tuner profiles for a problem with the given V and
/// sparsity. The octet kernel is a [`TilingScheme`] compiler, so it
/// contributes one point per [`octet_schemes`] entry — the paper's
/// default scheme first, so the strict-`<` reduction can never pick a
/// variant that does not beat it outright. The other kernels execute at
/// their default scheme and carry none.
pub fn spmm_sweep_points(v: usize, sparsity: f64) -> Vec<(SpmmAlgo, Option<TilingScheme>)> {
    let mut points: Vec<_> = octet_schemes()
        .into_iter()
        .map(|s| (SpmmAlgo::Octet, Some(s)))
        .collect();
    if v == 8 {
        points.push((SpmmAlgo::Wmma, None));
    }
    points.push((SpmmAlgo::FpuSubwarp, None));
    if dense_is_swept(sparsity) {
        points.push((SpmmAlgo::Dense, None));
    }
    points
}

/// The SpMM sweep point `ctx` plans for the problem `key` over `a`.
pub(super) fn tune_spmm(
    ctx: &Context,
    key: PlanKey,
    a: &VectorSparse<f16>,
) -> (SpmmAlgo, Option<TilingScheme>) {
    let probes = probe_context(ctx);
    let b = DenseMatrix::<f16>::zeros(key.k, key.n, Layout::RowMajor);
    fastest(
        spmm_sweep_points(key.v, a.pattern().sparsity()),
        &ctx.counters,
        |(algo, scheme)| SpmmPlan::build(&probes, key, algo, scheme, a).profile(&b),
    )
}

/// The SDDMM candidate `ctx` plans for the problem `key` over `mask`.
pub(super) fn tune_sddmm(ctx: &Context, key: PlanKey, mask: &SparsityPattern) -> SddmmAlgo {
    let probes = probe_context(ctx);
    let a = DenseMatrix::<f16>::zeros(key.m, key.k, Layout::RowMajor);
    let b = DenseMatrix::<f16>::zeros(key.k, key.n, Layout::ColMajor);
    fastest(sddmm_candidates(key.v), &ctx.counters, |algo| {
        SddmmPlan::build(&probes, key, algo, mask).profile(&a, &b)
    })
}

/// The context a tune builds its probe plans through: the caller's
/// device and nothing else, so probes stay out of the caller's
/// memoizer, trace and [`super::Report`].
fn probe_context(ctx: &Context) -> Context {
    Context::builder().gpu(ctx.gpu.clone()).build()
}

/// The candidate with the fewest profiled cycles. Candidates profile in
/// parallel (each through its own plan), then reduce in candidate order:
/// strict `<` keeps the earlier candidate on ties.
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
    use crate::spmm::compose::DEFAULT_SCHEME;
    use crate::spmm::OctetSpmm;
    use vecsparse_gpu_sim::GpuConfig;

    #[test]
    fn filter_excludes_inexact_and_unbuildable() {
        for v in [1, 2, 4, 8] {
            for s in [0.0, 0.5, 0.95] {
                let c: Vec<SpmmAlgo> = spmm_sweep_points(v, s).into_iter().map(|p| p.0).collect();
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
        let octet = |s| (SpmmAlgo::Octet, Some(s));
        let k16 = TilingScheme {
            tile_k: 16,
            ..DEFAULT_SCHEME
        };
        // The default scheme profiles first so ties keep it.
        assert_eq!(
            spmm_sweep_points(4, 0.9),
            [
                octet(DEFAULT_SCHEME),
                octet(k16),
                (SpmmAlgo::FpuSubwarp, None)
            ]
        );
        assert_eq!(
            spmm_sweep_points(8, 0.5),
            [
                octet(DEFAULT_SCHEME),
                octet(k16),
                (SpmmAlgo::Wmma, None),
                (SpmmAlgo::FpuSubwarp, None),
                (SpmmAlgo::Dense, None),
            ]
        );
    }

    /// No two sweep points compile the same kernel: every pair differs in
    /// algorithm or, for the octet kernel, in listing, staged shared
    /// memory or load schedule. Profiling a duplicate can never change
    /// the strict-`<` pick, so it would only cost tuning time.
    #[test]
    fn every_sweep_point_is_a_distinct_kernel() {
        use vecsparse_formats::gen;
        use vecsparse_gpu_sim::{KernelSpec, MemPool, Mode, Program};
        let b = DenseMatrix::<f16>::zeros(64, 64, Layout::RowMajor);
        for v in [1, 2, 4, 8] {
            for sparsity in [0.3, 0.9] {
                let a = gen::random_vector_sparse::<f16>(32, 64, v, sparsity, 5);
                let mut seen = Vec::new();
                for (algo, scheme) in spmm_sweep_points(v, sparsity) {
                    let octet = scheme.map(|s| {
                        let mut mem = MemPool::new();
                        let k = OctetSpmm::with_scheme(&mut mem, &a, &b, Mode::Performance, s);
                        let listing = k.program().map(Program::listing_hash);
                        (listing, k.launch_config().smem_elems, s.load)
                    });
                    let kernel = (algo, octet);
                    assert!(
                        !seen.contains(&kernel),
                        "V={v} S={sparsity}: {kernel:?} is swept twice"
                    );
                    seen.push(kernel);
                }
            }
        }
    }

    /// One `Auto` SpMM plan profiles each sweep point once.
    #[test]
    fn auto_plan_launches_one_probe_per_point() {
        use vecsparse_formats::gen;
        for (v, sparsity, launches) in [(4, 0.9, 3), (8, 0.5, 5)] {
            let ctx = Context::builder().gpu(GpuConfig::small()).build();
            let a = gen::random_vector_sparse::<f16>(32, 64, v, sparsity, 6);
            ctx.plan_spmm(&a, 64, SpmmAlgo::Auto);
            assert_eq!(ctx.stats().tuner_launches, launches, "V={v} S={sparsity}");
        }
    }

    #[test]
    fn scheme_sweep_never_regresses_vs_fixed_kernel_tuning() {
        use vecsparse_formats::gen;
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        for (v, sparsity, seed) in [(4, 0.85, 11), (8, 0.7, 12), (2, 0.5, 13)] {
            let a = gen::random_vector_sparse::<f16>(32, 64, v, sparsity, seed);
            let b = DenseMatrix::<f16>::zeros(64, 64, Layout::RowMajor);
            // The swept winner must be at least as fast as every
            // fixed-kernel candidate the old tuner could have returned.
            let winner = ctx.plan_spmm(&a, 64, SpmmAlgo::Auto).profile(&b).cycles;
            let default_octet = ctx.plan_spmm(&a, 64, SpmmAlgo::Octet).profile(&b).cycles;
            assert!(
                winner <= default_octet,
                "v={v}: sweep winner {winner} worse than default octet {default_octet}"
            );
        }
    }
}
