//! Tier-1 soundness gate for certified wave memoization.
//!
//! Memoization must be *invisible*: every simulated artifact — functional
//! outputs, performance profiles, Perfetto timelines — produced with
//! `--memoize` semantics must be bit-identical to the honest simulation,
//! at any worker-thread count. Kernels whose wave equivalence cannot be
//! proven must never receive a signature, and therefore can never be
//! memoized at all.

use proptest::prelude::*;
use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::registry::{self, KernelId, Shape};
use vecsparse::SpmmAlgo;
use vecsparse_certify::{certify, ProofFailure, WaveVerdict};
use vecsparse_formats::{gen, DenseMatrix, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, ElemWidth, GpuConfig, KernelSpec, Launch, LaunchConfig, MemPool, Mode,
    Program, Site, WVec, WaveMemo, NO_LANES,
};
use vecsparse_telemetry::{perfetto, TraceSink, DEFAULT_CAPACITY};

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("thread-pool shim accepts reconfiguration");
}

/// One engine pass: functional run, repeated profiles, a small batch.
struct Artifacts {
    out: DenseMatrix<f16>,
    batch: Vec<DenseMatrix<f16>>,
    profile_csv: Vec<String>,
    cycles: Vec<f64>,
}

fn run_stack(
    memoize: bool,
    m: usize,
    k: usize,
    n: usize,
    v: usize,
    sparsity: f64,
    seed: u64,
) -> Artifacts {
    let ctx = if memoize {
        Context::builder()
            .gpu(GpuConfig::small())
            .memoization()
            .build()
    } else {
        Context::builder().gpu(GpuConfig::small()).build()
    };
    let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
    let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);
    let plan = ctx.plan_spmm(&a, n, SpmmAlgo::Octet);
    let out = plan.run(&b);
    let batch: Vec<DenseMatrix<f16>> = (0..3)
        .map(|i| gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 10 + i))
        .collect();
    let batch = plan.run_batch(&batch);
    // Repeated profiles: under memoization the 2nd/3rd replay from cache.
    let profiles: Vec<_> = (0..3).map(|_| plan.profile(&b)).collect();
    if memoize {
        let stats = ctx.memo_stats().expect("memoizing context reports stats");
        assert!(
            stats.launch_hits + stats.wave_hits > 0,
            "repeated profiles of one plan must hit the memoizer"
        );
    } else {
        assert!(ctx.memo_stats().is_none());
    }
    Artifacts {
        out,
        batch,
        profile_csv: profiles.iter().map(|p| p.csv_row()).collect(),
        cycles: profiles.iter().map(|p| p.cycles).collect(),
    }
}

#[test]
fn memoization_is_invisible_at_one_and_four_threads() {
    set_threads(1);
    let plain = run_stack(false, 32, 64, 48, 4, 0.8, 31);
    for threads in [1usize, 4] {
        set_threads(threads);
        let memo = run_stack(true, 32, 64, 48, 4, 0.8, 31);
        assert_eq!(
            memo.out, plain.out,
            "functional output at {threads} threads"
        );
        assert_eq!(
            memo.batch, plain.batch,
            "batch outputs at {threads} threads"
        );
        assert_eq!(
            memo.profile_csv, plain.profile_csv,
            "profile counters at {threads} threads"
        );
        assert_eq!(memo.cycles, plain.cycles, "cycles at {threads} threads");
    }
    set_threads(1);
}

/// Traced replay: the Perfetto timeline of (simulate, replay) must be
/// byte-identical to (simulate, simulate) — the recorded `TraceShard` is
/// replayed with the same wave base times the scheduler would produce.
#[test]
fn traced_replay_timeline_is_bit_identical() {
    set_threads(1);
    let gpu = GpuConfig::small();
    let shape = Shape::default();

    let honest = registry::with_kernel(
        KernelId::SpmmOctet,
        &shape,
        Mode::Performance,
        |mem, kernel| {
            let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
            for _ in 0..2 {
                Launch::new(&mut *mem, kernel)
                    .gpu(&gpu)
                    .performance()
                    .traced(&sink)
                    .run();
            }
            perfetto::export_json(&sink)
        },
    );

    let (memoized, stats) = registry::with_kernel(
        KernelId::SpmmOctet,
        &shape,
        Mode::Performance,
        |mem, kernel| {
            let cert = certify(&*mem, kernel);
            let sig = cert
                .launch_sig(Fingerprint::default())
                .expect("registry kernels are provable");
            let memo = WaveMemo::with_audit(0);
            let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
            for _ in 0..2 {
                Launch::new(&mut *mem, kernel)
                    .gpu(&gpu)
                    .performance()
                    .traced(&sink)
                    .memo(&memo, sig)
                    .run();
            }
            (perfetto::export_json(&sink), memo.stats())
        },
    );

    assert!(
        stats.wave_hits > 0,
        "second traced launch must replay waves"
    );
    assert_eq!(memoized, honest, "replayed timeline bytes diverged");
    set_threads(1);
}

// A gather whose load addresses come from operand values: the canonical
// kernel that must be NotProvable and therefore never memoizable.
struct ValueGather {
    indices: BufferId,
    data: BufferId,
    output: BufferId,
    sites: (Site, Site),
    static_len: u32,
}

impl ValueGather {
    fn stage(mem: &mut MemPool) -> Self {
        let idx: Vec<f32> = (0..256).map(|i| ((i * 5) % 32) as f32).collect();
        let indices = mem.alloc_init(ElemWidth::B32, idx);
        let data = mem.alloc_ghost(ElemWidth::B32, 32);
        let output = mem.alloc_ghost(ElemWidth::B32, 256);
        let mut p = Program::new();
        let sites = (p.site("ldg", 0), p.site("stg", 0));
        ValueGather {
            indices,
            data,
            output,
            sites,
            static_len: p.static_len(),
        }
    }
}

impl KernelSpec for ValueGather {
    fn name(&self) -> String {
        "test-value-gather".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: 8,
            warps_per_cta: 1,
            regs_per_thread: 32,
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: self.static_len,
        }
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let cta_id = cta.cta_id;
        let mut w = cta.warp(0);
        let mut offs = NO_LANES;
        for (l, o) in offs.iter_mut().enumerate() {
            *o = w.read(self.indices, cta_id * 32 + l) as u32;
        }
        let v = w.ldg(self.sites.0, self.data, &offs, 1, &[]);
        let mut store_offs = NO_LANES;
        for (l, o) in store_offs.iter_mut().enumerate() {
            *o = (cta_id * 32 + l) as u32;
        }
        let mut out = WVec::zeros(1);
        out.set_tok(v.tok());
        w.stg(self.sites.1, self.output, &store_offs, &out, &[v.tok()]);
    }
}

#[test]
fn data_dependent_kernel_is_not_provable_and_never_memoized() {
    let mut mem = MemPool::new();
    let kernel = ValueGather::stage(&mut mem);
    let cert = certify(&mem, &kernel);
    assert!(
        matches!(
            cert.verdict,
            WaveVerdict::NotProvable(ProofFailure::ValueDependentTrace { .. })
        ),
        "expected value-dependent failure, got {:?}",
        cert.verdict
    );
    // No verdict, no signature — and without a signature the launch path
    // cannot consult the memoizer at all.
    assert!(cert.launch_sig(Fingerprint::default()).is_none());
    let memo = WaveMemo::with_audit(0);
    let sink = TraceSink::disabled();
    let gpu = GpuConfig::small();
    let sig = cert.launch_sig(Fingerprint::default());
    for _ in 0..3 {
        Launch::new(&mut mem, &kernel)
            .gpu(&gpu)
            .performance()
            .traced(&sink)
            .memo_opt(sig.map(|s| (&memo, s)))
            .run();
    }
    let stats = memo.stats();
    assert_eq!(stats.wave_hits, 0, "unprovable kernel must never hit");
    assert_eq!(stats.wave_misses, 0, "unprovable kernel must never probe");
    assert_eq!(stats.launch_hits + stats.launch_misses, 0);
    assert_eq!(stats.wave_entries, 0, "nothing may be inserted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// DLMC-like grid: random shapes and sparsities — memoized profiles,
    /// outputs, and batches bit-identical to the plain engine at 1 and 4
    /// worker threads.
    #[test]
    fn dlmc_like_grid_memoization_is_invisible(
        mb in 1usize..4,
        k_blocks in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        v in prop_oneof![Just(2usize), Just(4), Just(8)],
        sparsity in prop_oneof![Just(0.5f64), Just(0.7), Just(0.9), Just(0.98)],
        threads in prop_oneof![Just(1usize), Just(4)],
        seed in 0u64..300,
    ) {
        let m = mb * v * 4;
        let k = k_blocks * 32;
        set_threads(1);
        let plain = run_stack(false, m, k, n, v, sparsity, seed);
        set_threads(threads);
        let memo = run_stack(true, m, k, n, v, sparsity, seed);
        set_threads(1);
        prop_assert_eq!(memo.out, plain.out);
        prop_assert_eq!(memo.batch, plain.batch);
        prop_assert_eq!(memo.profile_csv, plain.profile_csv);
        prop_assert_eq!(memo.cycles, plain.cycles);
    }
}
