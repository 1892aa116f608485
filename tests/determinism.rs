//! Tier-1 determinism gate for the parallel simulation pipeline.
//!
//! The phase-split wave pipeline, the thread-pool shim, and the engine's
//! batch fan-out all promise the same contract: thread count is a
//! throughput knob, never an observable. Every simulated artifact —
//! functional kernel outputs, performance-model profiles, precision
//! certificates, and the launch-level Perfetto timeline — must be
//! bit-identical whether the simulator runs on 1, 2, 4, or 8 workers.

mod common;
#[path = "common/stack.rs"]
mod stack;

use proptest::prelude::*;
use stack::spmm_stack;
use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::registry::{self, KernelId, Shape};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{Backend, GpuConfig, Launch, Mode, WaveMemo};
use vecsparse_telemetry::{perfetto, TraceSink, DEFAULT_CAPACITY};

/// Everything one full pass of the stack produces, in comparable form.
struct Snapshot {
    spmm_out: DenseMatrix<f16>,
    spmm_batch: Vec<DenseMatrix<f16>>,
    sddmm_vals: Vec<f16>,
    profile_csv: String,
    cycles: f64,
    certificates: String,
    trace_json: String,
}

fn snapshot() -> Snapshot {
    snapshot_with(false)
}

fn snapshot_with(memoize: bool) -> Snapshot {
    let gpu = GpuConfig::small();
    let ctx = if memoize {
        Context::builder().gpu(gpu.clone()).memoization().build()
    } else {
        Context::builder().gpu(gpu.clone()).build()
    };

    // SpMM: functional single run + batch fan-out + performance profile.
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 11);
    let b = gen::random_dense::<f16>(64, 48, Layout::RowMajor, 12);
    let plan = ctx.plan_spmm(&a, 48, SpmmAlgo::Auto);
    let spmm_out = plan.run(&b);
    let batch: Vec<DenseMatrix<f16>> = (0..5)
        .map(|i| gen::random_dense::<f16>(64, 48, Layout::RowMajor, 100 + i))
        .collect();
    let spmm_batch = plan.run_batch(&batch);
    let profile = plan.profile(&b);
    // Under memoization, profile again: the compared artifacts then come
    // from the replay path, not the initial honest simulation.
    let profile = if memoize { plan.profile(&b) } else { profile };

    // SDDMM through the same context.
    let mask = gen::random_vector_sparse::<f16>(32, 48, 4, 0.7, 13)
        .pattern()
        .clone();
    let ad = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 14);
    let bd = gen::random_dense::<f16>(64, 48, Layout::ColMajor, 15);
    let sddmm_out: VectorSparse<f16> = ctx.plan_sddmm(&mask, 64, SddmmAlgo::OctetReg).run(&ad, &bd);

    // Launch-level Perfetto timeline: spans carry simulated ticks, so
    // the exported document must be byte-stable. (Engine-level spans are
    // wall-clock and are deliberately not part of this gate.)
    let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
    let trace_json = registry::with_kernel(
        KernelId::SpmmOctet,
        &Shape::default(),
        Mode::Performance,
        |mem, kernel| {
            Launch::new(&mut *mem, kernel)
                .gpu(&gpu)
                .performance()
                .traced(&sink)
                .run();
            perfetto::export_json(&sink)
        },
    );

    Snapshot {
        spmm_out,
        spmm_batch,
        sddmm_vals: sddmm_out.values().to_vec(),
        profile_csv: profile.csv_row(),
        cycles: profile.cycles,
        certificates: format!("{:?}", ctx.report().certificates),
        trace_json,
    }
}

#[test]
fn all_artifacts_bit_identical_across_thread_counts() {
    let width = common::width();
    width.set(1);
    let baseline = snapshot();
    for threads in [2usize, 4, 8] {
        width.set(threads);
        let got = snapshot();
        assert_eq!(
            got.spmm_out, baseline.spmm_out,
            "functional SpMM output diverged at {threads} threads"
        );
        assert_eq!(
            got.spmm_batch, baseline.spmm_batch,
            "batched SpMM outputs diverged at {threads} threads"
        );
        assert_eq!(
            got.sddmm_vals, baseline.sddmm_vals,
            "SDDMM values diverged at {threads} threads"
        );
        assert_eq!(
            got.cycles, baseline.cycles,
            "profile cycles diverged at {threads} threads"
        );
        assert_eq!(
            got.profile_csv, baseline.profile_csv,
            "profile counters diverged at {threads} threads"
        );
        assert_eq!(
            got.certificates, baseline.certificates,
            "report certificates diverged at {threads} threads"
        );
        assert_eq!(
            got.trace_json, baseline.trace_json,
            "perfetto timeline bytes diverged at {threads} threads"
        );
    }
    width.set(1);
}

/// The full suite with memoization enabled: memoized artifacts must
/// match the honest single-thread baseline at every worker count.
#[test]
fn memoized_artifacts_match_honest_baseline_across_thread_counts() {
    let width = common::width();
    width.set(1);
    let baseline = snapshot();
    for threads in [1usize, 2, 4, 8] {
        width.set(threads);
        let got = snapshot_with(true);
        assert_eq!(
            got.spmm_out, baseline.spmm_out,
            "memoized SpMM output diverged at {threads} threads"
        );
        assert_eq!(
            got.spmm_batch, baseline.spmm_batch,
            "memoized batch outputs diverged at {threads} threads"
        );
        assert_eq!(
            got.sddmm_vals, baseline.sddmm_vals,
            "memoized SDDMM values diverged at {threads} threads"
        );
        assert_eq!(
            got.cycles, baseline.cycles,
            "replayed profile cycles diverged at {threads} threads"
        );
        assert_eq!(
            got.profile_csv, baseline.profile_csv,
            "replayed profile counters diverged at {threads} threads"
        );
        assert_eq!(
            got.certificates, baseline.certificates,
            "certificates diverged under memoization at {threads} threads"
        );
        assert_eq!(
            got.trace_json, baseline.trace_json,
            "perfetto timeline diverged under memoization at {threads} threads"
        );
    }
    width.set(1);
}

#[test]
fn batch_fan_out_matches_sequential_runs() {
    let width = common::width();
    width.set(4);
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let a = gen::random_vector_sparse::<f16>(16, 32, 4, 0.75, 21);
    let plan = ctx.plan_spmm(&a, 32, SpmmAlgo::Octet);
    let batch: Vec<DenseMatrix<f16>> = (0..7)
        .map(|i| gen::random_dense::<f16>(32, 32, Layout::RowMajor, 200 + i))
        .collect();
    let fanned = plan.run_batch(&batch);
    let sequential: Vec<DenseMatrix<f16>> = batch.iter().map(|b| plan.run(b)).collect();
    assert_eq!(fanned, sequential);
    width.set(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any grid shape and sparsity, octet or dense, at any worker count:
    /// four engine stacks produce the bits of a plain one-thread stack.
    /// A plain stack; a memoized one, whose first profile simulates and
    /// whose later two are launch hits; one whose every simulated wave
    /// is re-timed with the tick scheduler (an auditing memo, which also
    /// declines both hits, re-simulates and checks them against the
    /// cached profile); and one on the native backend. Octet runs
    /// one-warp CTAs; dense is the multi-warp kernel whose waves park
    /// warps at barriers.
    #[test]
    fn grid_shape_times_threads_matches_sequential(
        mb in 1usize..4,
        k_blocks in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        v in prop_oneof![Just(2usize), Just(4), Just(8)],
        sparsity in prop_oneof![Just(0.5f64), Just(0.7), Just(0.9), Just(0.98)],
        algo in prop_oneof![Just(SpmmAlgo::Octet), Just(SpmmAlgo::Dense)],
        threads in 1usize..=8,
        seed in 0u64..500,
    ) {
        let width = common::width();
        let a = gen::random_vector_sparse::<f16>(mb * v * 4, k_blocks * 32, v, sparsity, seed);
        let at = format!("{algo:?} at {threads} threads, sparsity {sparsity}");
        let stack = |builder| spmm_stack(builder, algo, &a, n, seed);
        width.set(1);
        let (plain, memo) = stack(Context::builder());
        prop_assert!(memo.is_none());

        width.set(threads);
        let (got, _) = stack(Context::builder());
        prop_assert_eq!(&got, &plain, "plain, {}", at);

        let (got, memo) = stack(Context::builder().memoization());
        prop_assert_eq!(&got, &plain, "memoized, {}", at);
        let memo = memo.expect("memoizing context");
        prop_assert_eq!((memo.launch_misses, memo.launch_hits), (1, 2), "{}", at);

        let audit = Arc::new(WaveMemo::with_audit(1));
        let (got, memo) = stack(Context::builder().shared_memoization(audit));
        prop_assert_eq!(&got, &plain, "audited, {}", at);
        let memo = memo.expect("auditing context");
        prop_assert_eq!(
            (memo.launch_misses, memo.audits, memo.launch_hits),
            (1, 2, 0),
            "{}",
            at
        );

        let (got, _) = stack(Context::builder().backend(Backend::Native));
        prop_assert_eq!(&got, &plain, "native, {}", at);
        width.set(1);
    }
}
