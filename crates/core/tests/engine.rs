//! Integration tests for the engine's plan/cache/tuner workflow: cache
//! hit/miss accounting, bit-identity of planned execution against the
//! scalar references for every algorithm (including `Auto`), batch
//! semantics, and the cached-plan performance claim against the legacy
//! throwaway-context-per-element batch path.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use vecsparse::engine::Context;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, reference, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, TraceSink};

/// Strategy shared with `tests/properties.rs`: plausible small problems
/// with rows divisible by V.
fn vs_params() -> impl Strategy<Value = (usize, usize, usize, f64, u64)> {
    (
        1usize..4,
        1usize..4,
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0.2f64..0.95,
        any::<u64>(),
    )
        .prop_map(|(brm, cm, v, s, seed)| (brm * 8.max(v), cm * 16, v, s, seed))
        .prop_map(|(rows, cols, v, s, seed)| (rows.div_ceil(v) * v, cols, v, s, seed))
}

#[test]
fn one_shot_auto_goes_through_the_plan_cache() {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 9);
    let b = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 10);
    let _ = ctx.spmm(&a, &b, SpmmAlgo::Auto);
    let first = ctx.stats();
    assert_eq!(first.cache_misses, 1);
    assert!(first.tuner_launches >= 2, "tuner profiled candidates");
    // Same descriptor again: answered from the cache, no new launches.
    let _ = ctx.spmm(&a, &b, SpmmAlgo::Auto);
    let second = ctx.stats();
    assert_eq!(second.cache_hits, 1);
    assert_eq!(second.tuner_launches, first.tuner_launches);
    // A different sparsity bucket is a different problem: re-tune.
    let a2 = gen::random_vector_sparse::<f16>(32, 64, 4, 0.4, 9);
    let _ = ctx.spmm(&a2, &b, SpmmAlgo::Auto);
    assert_eq!(ctx.stats().cache_misses, 2);
}

#[test]
fn sddmm_auto_caches_per_descriptor_too() {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let mask = gen::random_pattern(32, 48, 4, 0.7, 11);
    let a = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 12);
    let b = gen::random_dense::<f16>(32, 48, Layout::ColMajor, 13);
    let got = ctx.sddmm(&a, &b, &mask, SddmmAlgo::Auto);
    assert_eq!(ctx.stats().cache_misses, 1);
    let again = ctx.sddmm(&a, &b, &mask, SddmmAlgo::Auto);
    assert_eq!(ctx.stats().cache_hits, 1);
    assert_eq!(got.values(), again.values());
    let want = reference::sddmm(&a, &b, &mask);
    assert_eq!(got.values(), want.values());
}

/// The two contexts the batch tests run under: an untraced one, whose
/// batches fan out across workers, and a traced one, whose batches run
/// sequentially.
fn batch_contexts() -> [Context; 2] {
    [
        Context::builder().gpu(GpuConfig::small()).build(),
        Context::builder()
            .gpu(GpuConfig::small())
            .telemetry(Arc::new(TraceSink::enabled(1 << 16)))
            .build(),
    ]
}

#[test]
fn spmm_batch_matches_sequential_runs() {
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 20);
    let batch: Vec<_> = (0..6u64)
        .map(|i| gen::random_dense::<f16>(64, 40, Layout::RowMajor, 21 + i))
        .collect();
    for ctx in batch_contexts() {
        let plan = ctx.plan_spmm(&a, 40, SpmmAlgo::Octet);
        let batched = plan.run_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (b, got) in batch.iter().zip(&batched) {
            assert_eq!(got.max_abs_diff(&plan.run(b)), 0.0);
            assert_eq!(got.max_abs_diff(&reference::spmm_vs(&a, b)), 0.0);
        }
    }
}

#[test]
fn sddmm_batch_matches_sequential_runs() {
    let mask = gen::random_pattern(32, 48, 4, 0.6, 30);
    let a_batch: Vec<_> = (0..4u64)
        .map(|i| gen::random_dense::<f16>(32, 32, Layout::RowMajor, 31 + i))
        .collect();
    let b_batch: Vec<_> = (0..4u64)
        .map(|i| gen::random_dense::<f16>(32, 48, Layout::ColMajor, 41 + i))
        .collect();
    for ctx in batch_contexts() {
        let plan = ctx.plan_sddmm(&mask, 32, SddmmAlgo::OctetReg);
        let batched = plan.run_batch(&a_batch, &b_batch);
        assert_eq!(batched.len(), a_batch.len());
        for ((a, b), got) in a_batch.iter().zip(&b_batch).zip(&batched) {
            assert_eq!(got.values(), plan.run(a, b).values());
            assert_eq!(got.values(), reference::sddmm(a, b, &mask).values());
        }
    }
}

/// The ISSUE's headline perf claim: re-executing a cached plan over a
/// 16-element batch launches the tuner zero times and beats the legacy
/// batch path (the removed `batch::spmm_batch`, inlined here: a fresh
/// throwaway context per element, re-planning, re-encoding and
/// re-tuning each time) by at least 2x host wall time.
#[test]
fn cached_plan_batch_beats_legacy_batch() {
    let a = gen::random_vector_sparse::<f16>(64, 128, 4, 0.9, 50);
    let batch: Vec<_> = (0..16u64)
        .map(|i| gen::random_dense::<f16>(128, 64, Layout::RowMajor, 51 + i))
        .collect();

    let ctx = Context::builder().build();
    let plan = ctx.plan_spmm(&a, 64, SpmmAlgo::Auto);
    let warm = plan.run_batch(&batch); // first run: already staged + tuned
    let launches_before = ctx.stats().tuner_launches;

    let t0 = Instant::now();
    let cached = plan.run_batch(&batch);
    let cached_time = t0.elapsed();
    assert_eq!(
        ctx.stats().tuner_launches,
        launches_before,
        "second batch run must not tune"
    );

    let t1 = Instant::now();
    let legacy: Vec<_> = batch
        .iter()
        .map(|b| {
            Context::builder()
                .build()
                .plan_spmm(&a, b.cols(), SpmmAlgo::Auto)
                .run(b)
        })
        .collect();
    let legacy_time = t1.elapsed();

    for ((w, c), l) in warm.iter().zip(&cached).zip(&legacy) {
        assert_eq!(w.max_abs_diff(c), 0.0);
        assert_eq!(w.max_abs_diff(l), 0.0);
    }
    assert!(
        legacy_time >= cached_time * 2,
        "deprecated batch path ({legacy_time:?}) should be at least 2x slower \
         than cached-plan re-execution ({cached_time:?})"
    );
}

/// Acceptance criterion: `SpmmAlgo::Auto` never profiles worse than the
/// worst fixed algorithm on (scaled-down) Fig. 17 sweep shapes.
#[test]
fn auto_never_profiles_worse_than_worst_fixed() {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let shapes: &[(usize, usize, usize, f64)] = &[
        (64, 128, 2, 0.7),
        (64, 128, 4, 0.9),
        (64, 128, 8, 0.9),
        (128, 64, 4, 0.5),
        (64, 64, 4, 0.98),
    ];
    for &(m, k, v, s) in shapes {
        let a = gen::random_vector_sparse::<f16>(m, k, v, s, 60);
        let b = gen::random_dense::<f16>(k, 64, Layout::RowMajor, 61);
        let auto = ctx.profile_spmm(&a, &b, SpmmAlgo::Auto);
        let worst = [
            SpmmAlgo::Octet,
            SpmmAlgo::Wmma,
            SpmmAlgo::FpuSubwarp,
            SpmmAlgo::Dense,
        ]
        .into_iter()
        .map(|algo| ctx.profile_spmm(&a, &b, algo).cycles)
        .fold(0.0f64, f64::max);
        assert!(
            auto.cycles <= worst,
            "shape ({m},{k},V={v},s={s}): auto {} cycles vs worst fixed {worst}",
            auto.cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A plan's `run` is bit-identical to the scalar reference for every
    /// numerically exact SpMM algorithm, including `Auto` (BlockedEll is
    /// a structural surrogate, not an exact kernel — see DESIGN.md).
    #[test]
    fn spmm_plan_matches_reference_for_every_algo((rows, cols, v, s, seed) in vs_params()) {
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 48, Layout::RowMajor, seed ^ 1);
        let want = reference::spmm_vs(&a, &b);
        for algo in [
            SpmmAlgo::Octet,
            SpmmAlgo::Wmma,
            SpmmAlgo::FpuSubwarp,
            SpmmAlgo::Dense,
            SpmmAlgo::Auto,
        ] {
            let plan = ctx.plan_spmm(&a, 48, algo);
            prop_assert_eq!(plan.run(&b).max_abs_diff(&want), 0.0, "{:?}", algo);
        }
    }

    /// Same bit-identity for every SDDMM algorithm, including `Auto`.
    #[test]
    fn sddmm_plan_matches_reference_for_every_algo((rows, cols, v, s, seed) in vs_params()) {
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let mask = gen::random_pattern(rows, cols, v, s, seed);
        let a = gen::random_dense::<f16>(rows, 32, Layout::RowMajor, seed ^ 2);
        let b = gen::random_dense::<f16>(32, cols, Layout::ColMajor, seed ^ 3);
        let want = reference::sddmm(&a, &b, &mask);
        for algo in [
            SddmmAlgo::OctetReg,
            SddmmAlgo::OctetShfl,
            SddmmAlgo::OctetArch,
            SddmmAlgo::FpuSubwarp,
            SddmmAlgo::Wmma,
            SddmmAlgo::Auto,
        ] {
            let plan = ctx.plan_sddmm(&mask, 32, algo);
            let got = plan.run(&a, &b);
            prop_assert_eq!(got.values(), want.values(), "{:?}", algo);
        }
    }
}
