//! Tier-1 determinism gate for the parallel simulation pipeline.
//!
//! The phase-split wave pipeline, the thread-pool shim, and the engine's
//! batch fan-out all promise the same contract: thread count is a
//! throughput knob, never an observable. Every simulated artifact —
//! functional kernel outputs, performance-model profiles, precision
//! certificates, and the launch-level Perfetto timeline — must be
//! bit-identical whether the simulator runs on 1, 2, 4, or 8 workers.

mod common;

use common::set_threads;
use proptest::prelude::*;
use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::registry::{self, KernelId, Shape};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, Launch, Mode};
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
    set_threads(1);
    let baseline = snapshot();
    for threads in [2usize, 4, 8] {
        set_threads(threads);
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
    set_threads(1);
}

/// The full suite with memoization enabled: memoized artifacts must
/// match the honest single-thread baseline at every worker count.
#[test]
fn memoized_artifacts_match_honest_baseline_across_thread_counts() {
    set_threads(1);
    let baseline = snapshot();
    for threads in [1usize, 2, 4, 8] {
        set_threads(threads);
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
    set_threads(1);
}

#[test]
fn batch_fan_out_matches_sequential_runs() {
    set_threads(4);
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let a = gen::random_vector_sparse::<f16>(16, 32, 4, 0.75, 21);
    let plan = ctx.plan_spmm(&a, 32, SpmmAlgo::Octet);
    let batch: Vec<DenseMatrix<f16>> = (0..7)
        .map(|i| gen::random_dense::<f16>(32, 32, Layout::RowMajor, 200 + i))
        .collect();
    let fanned = plan.run_batch(&batch);
    let sequential: Vec<DenseMatrix<f16>> = batch.iter().map(|b| plan.run(b)).collect();
    assert_eq!(fanned, sequential);
    set_threads(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any grid shape at any worker count produces the same bits and the
    /// same cycle estimate as the sequential simulator.
    #[test]
    fn grid_shape_times_threads_matches_sequential(
        mb in 1usize..4,
        k_blocks in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        v in prop_oneof![Just(2usize), Just(4), Just(8)],
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        let m = mb * v * 4;
        let k = k_blocks * 32;
        let a = gen::random_vector_sparse::<f16>(m, k, v, 0.7, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);

        set_threads(1);
        let ctx1 = Context::builder().gpu(GpuConfig::small()).build();
        let plan1 = ctx1.plan_spmm(&a, n, SpmmAlgo::Octet);
        let out_seq = plan1.run(&b);
        let cycles_seq = plan1.profile(&b).cycles;

        set_threads(threads);
        let ctx2 = Context::builder().gpu(GpuConfig::small()).build();
        let plan2 = ctx2.plan_spmm(&a, n, SpmmAlgo::Octet);
        let out_par = plan2.run(&b);
        let cycles_par = plan2.profile(&b).cycles;
        set_threads(1);

        prop_assert_eq!(out_par, out_seq);
        prop_assert_eq!(cycles_par, cycles_seq);
    }
}
