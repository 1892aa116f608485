//! Tier-1 soundness gate for certified launch memoization.
//!
//! Memoization must be *invisible*: every simulated artifact — functional
//! outputs, performance profiles, Perfetto timelines — produced with
//! `--memoize` semantics must be bit-identical to the honest simulation,
//! at any worker-thread count. Kernels whose wave equivalence cannot be
//! proven must never receive a signature, and therefore can never be
//! memoized at all.

mod common;
#[path = "common/stack.rs"]
mod stack;

use proptest::prelude::*;
use stack::spmm_stack;
use std::sync::Arc;
use vecsparse::engine::{Context, ContextBuilder, SddmmPlan, SpmmPlan};
use vecsparse::registry::{self, KernelId, Shape};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_certify::{certify, ProofFailure, WaveVerdict};
use vecsparse_formats::{gen, DenseMatrix, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{
    Backend, BufferId, CtaCtx, ElemWidth, GpuConfig, KernelSpec, Launch, LaunchConfig, MemPool,
    MemoStats, Mode, Program, Site, WVec, WaveMemo, NO_LANES,
};
use vecsparse_telemetry::{perfetto, EventKind, TraceSink, DEFAULT_CAPACITY};

/// An octet plan's run, three-element batch and three profiles on a
/// memoizing context equal a plain one-thread context's, at 1 and 4
/// threads: the first profile simulates, the later two are launch hits.
#[test]
fn memoization_is_invisible_at_one_and_four_threads() {
    let width = common::width();
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 31);
    let stack = |builder| spmm_stack(builder, SpmmAlgo::Octet, &a, 48, 31);
    width.set(1);
    let (plain, memo) = stack(Context::builder());
    assert!(memo.is_none());
    for threads in [1usize, 4] {
        width.set(threads);
        let (got, memo) = stack(Context::builder().memoization());
        assert_eq!(got, plain, "at {threads} threads");
        let memo = memo.expect("memoizing context");
        assert_eq!(
            (memo.launch_misses, memo.launch_hits),
            (1, 2),
            "at {threads} threads"
        );
    }
    width.set(1);
}

/// The engine's ten fixed plan algorithms.
#[derive(Clone, Copy, Debug)]
enum PlanAlgo {
    Spmm(SpmmAlgo),
    Sddmm(SddmmAlgo),
}

const PLAN_ALGOS: [PlanAlgo; 10] = [
    PlanAlgo::Spmm(SpmmAlgo::Octet),
    PlanAlgo::Spmm(SpmmAlgo::Wmma),
    PlanAlgo::Spmm(SpmmAlgo::FpuSubwarp),
    PlanAlgo::Spmm(SpmmAlgo::BlockedEll),
    PlanAlgo::Spmm(SpmmAlgo::Dense),
    PlanAlgo::Sddmm(SddmmAlgo::OctetReg),
    PlanAlgo::Sddmm(SddmmAlgo::OctetShfl),
    PlanAlgo::Sddmm(SddmmAlgo::OctetArch),
    PlanAlgo::Sddmm(SddmmAlgo::FpuSubwarp),
    PlanAlgo::Sddmm(SddmmAlgo::Wmma),
];

fn profile_bits(p: &vecsparse_gpu_sim::KernelProfile) -> (String, u64) {
    (p.csv_row(), p.cycles.to_bits())
}

/// The shape class every [`AnyPlan`] is built at: `(m, k, n, v, sparsity)`.
const CALL_SHAPE: (usize, usize, usize, usize, f64) = (32, 64, 48, 4, 0.7);

/// A plan of either operation at [`CALL_SHAPE`]. Value operand `i` is
/// drawn from a fixed seed, so any two plans can be fed the same inputs.
enum AnyPlan {
    Spmm(SpmmPlan),
    Sddmm(SddmmPlan),
}

fn spmm_rhs(i: u64) -> DenseMatrix<f16> {
    let (_, k, n, _, _) = CALL_SHAPE;
    gen::random_dense::<f16>(k, n, Layout::RowMajor, 100 + i)
}

fn sddmm_operands(i: u64) -> (DenseMatrix<f16>, DenseMatrix<f16>) {
    let (m, k, n, _, _) = CALL_SHAPE;
    (
        gen::random_dense::<f16>(m, k, Layout::RowMajor, 200 + i),
        gen::random_dense::<f16>(k, n, Layout::ColMajor, 300 + i),
    )
}

fn bits(values: &[f16]) -> Vec<u16> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl AnyPlan {
    /// The `algo` plan through `ctx` over the structure drawn from `seed`.
    fn build(ctx: &Context, algo: PlanAlgo, seed: u64) -> AnyPlan {
        let (m, k, n, v, sparsity) = CALL_SHAPE;
        match algo {
            PlanAlgo::Spmm(algo) => {
                let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
                AnyPlan::Spmm(ctx.plan_spmm(&a, n, algo))
            }
            PlanAlgo::Sddmm(algo) => {
                let mask = gen::random_pattern(m, n, v, sparsity, seed);
                AnyPlan::Sddmm(ctx.plan_sddmm(&mask, k, algo))
            }
        }
    }

    /// The profile on value operand 0, as `profile_bits`.
    fn profile(&self) -> (String, u64) {
        profile_bits(&match self {
            AnyPlan::Spmm(plan) => plan.profile(&spmm_rhs(0)),
            AnyPlan::Sddmm(plan) => {
                let (a, b) = sddmm_operands(0);
                plan.profile(&a, &b)
            }
        })
    }

    /// Output bits of a run on each value operand in `inputs`: one
    /// `run_batch` when `batch`, else one `run` each.
    fn run(&self, inputs: std::ops::Range<u64>, batch: bool) -> Vec<Vec<u16>> {
        match self {
            AnyPlan::Spmm(plan) => {
                let rhs: Vec<_> = inputs.map(spmm_rhs).collect();
                let outs = match batch {
                    true => plan.run_batch(&rhs),
                    false => rhs.iter().map(|b| plan.run(b)).collect(),
                };
                outs.iter().map(|c| bits(c.data())).collect()
            }
            AnyPlan::Sddmm(plan) => {
                let (a, b): (Vec<_>, Vec<_>) = inputs.map(sddmm_operands).unzip();
                let outs = match batch {
                    true => plan.run_batch(&a, &b),
                    false => a.iter().zip(&b).map(|(a, b)| plan.run(a, b)).collect(),
                };
                outs.iter().map(|c| bits(c.values())).collect()
            }
        }
    }
}

/// One plan's profiles and outputs in call order.
#[derive(Debug, PartialEq)]
struct PlanArtifacts {
    /// `csv_row` and cycle bits of each profile.
    profiles: Vec<(String, u64)>,
    /// Bits of each output.
    outputs: Vec<Vec<u16>>,
}

/// Drive one `algo` plan through profile → run → profile → run_batch →
/// run on `backend`, so its first profile meets address-only operand and
/// output buffers and its last run a pool a batch has left. Every output
/// must equal a fresh plan's single run on the same input, and every
/// profile a fresh plan's profile. Then profile a plan over a second
/// structure of the same shape class. Under memoization the repeated
/// profile must be a launch hit (the plan's cached structure hash plus
/// its staged layout reproduce its key) and the second structure's first
/// profile a launch miss.
fn plan_stack(memoize: bool, algo: PlanAlgo, backend: Backend) -> PlanArtifacts {
    let builder = || {
        let builder = Context::builder().gpu(GpuConfig::small()).backend(backend);
        match memoize {
            true => builder.memoization(),
            false => builder,
        }
    };
    let ctx = builder().build();
    let launches = || {
        ctx.memo_stats()
            .map_or((0, 0), |s| (s.launch_hits, s.launch_misses))
    };
    let fresh = || AnyPlan::build(&builder().build(), algo, 41);

    let plan = AnyPlan::build(&ctx, algo, 41);
    let mut profiles = vec![plan.profile()];
    let mut outputs = plan.run(0..1, false);
    let (hits, misses) = launches();
    profiles.push(plan.profile());
    if memoize {
        assert_eq!(
            launches(),
            (hits + 1, misses),
            "{algo:?}: repeated profile must hit"
        );
    }
    outputs.extend(plan.run(1..4, true));
    outputs.extend(plan.run(4..5, false));
    let want = fresh().profile();
    for (i, profile) in profiles.iter().enumerate() {
        assert_eq!(profile, &want, "{algo:?} on {backend:?}: profile {i}");
    }
    for (i, out) in (0..).zip(&outputs) {
        let want = fresh().run(i..i + 1, false);
        assert_eq!(out, &want[0], "{algo:?} on {backend:?}: output {i}");
    }

    let (hits, misses) = launches();
    profiles.push(AnyPlan::build(&ctx, algo, 44).profile());
    if memoize {
        assert_eq!(
            launches(),
            (hits, misses + 1),
            "{algo:?}: a new structure must miss"
        );
    }
    PlanArtifacts { profiles, outputs }
}

/// Every plan algorithm, interleaving its calls in the order that
/// exercises lazy staging, returns the same profiles and outputs memoized
/// or not, at 1 and 4 threads, on both backends.
#[test]
fn plan_memoization_is_invisible_at_one_and_four_threads() {
    let width = common::width();
    for algo in PLAN_ALGOS {
        width.set(1);
        let honest = plan_stack(false, algo, Backend::Simulated);
        for backend in [Backend::Simulated, Backend::Native] {
            for threads in [1usize, 4] {
                width.set(threads);
                let memo = plan_stack(true, algo, backend);
                assert_eq!(memo, honest, "{algo:?} on {backend:?} at {threads} threads");
            }
        }
        width.set(1);
        let native = plan_stack(false, algo, Backend::Native);
        assert_eq!(native, honest, "{algo:?} on the native backend");
    }
    width.set(1);
}

/// `k` profiles of one `algo` plan built through a small-GPU context
/// from `builder`, as `profile_bits`, and the context.
fn repeated_profiles(
    builder: ContextBuilder,
    algo: PlanAlgo,
    k: usize,
) -> (Vec<(String, u64)>, Context) {
    let ctx = builder.gpu(GpuConfig::small()).build();
    let (m, inner, n, v, sparsity) = (32, 64, 48, 4, 0.8);
    let profiles = match algo {
        PlanAlgo::Spmm(algo) => {
            let a = gen::random_vector_sparse::<f16>(m, inner, v, sparsity, 71);
            let b = gen::random_dense::<f16>(inner, n, Layout::RowMajor, 72);
            let plan = ctx.plan_spmm(&a, n, algo);
            (0..k).map(|_| profile_bits(&plan.profile(&b))).collect()
        }
        PlanAlgo::Sddmm(algo) => {
            let mask = gen::random_pattern(m, n, v, sparsity, 73);
            let a = gen::random_dense::<f16>(m, inner, Layout::RowMajor, 74);
            let b = gen::random_dense::<f16>(inner, n, Layout::ColMajor, 75);
            let plan = ctx.plan_sddmm(&mask, inner, algo);
            (0..k)
                .map(|_| profile_bits(&plan.profile(&a, &b)))
                .collect()
        }
    };
    (profiles, ctx)
}

/// A memoized plan simulates its first profile and answers every later
/// one with one launch-level lookup, bit-identical to honest simulation.
/// A traced context never consults the memo: every traced profile
/// records its kernel span and probes nothing. An auditing memo at
/// period 1 declines every hit: each repeated profile probes once,
/// re-simulates and is checked against the cached profile.
#[test]
fn repeated_plan_profiles_are_one_launch_lookup_each() {
    let width = common::width();
    const K: usize = 4;
    for threads in [1usize, 4] {
        width.set(threads);
        for algo in PLAN_ALGOS {
            let at = format!("{algo:?} at {threads} threads");
            let (honest, _) = repeated_profiles(Context::builder(), algo, K);

            let (memo, ctx) = repeated_profiles(Context::builder().memoization(), algo, K);
            assert_eq!(memo, honest, "{at}");
            let s = ctx.memo_stats().expect("memoizing context");
            assert_eq!(
                (s.launch_misses, s.launch_hits),
                (1, K as u64 - 1),
                "{at}: one full launch, then one probe per profile"
            );

            let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
            let (traced, ctx) = repeated_profiles(
                Context::builder()
                    .telemetry(Arc::clone(&sink))
                    .memoization(),
                algo,
                K,
            );
            assert_eq!(traced, honest, "{at}, traced");
            let s = ctx.memo_stats().expect("memoizing context");
            assert_eq!((s.launch_misses, s.launch_hits), (0, 0), "{at}, traced");
            let kernel_spans = sink
                .events()
                .iter()
                .filter(|e| e.cat == "kernel" && matches!(e.kind, EventKind::Span))
                .count();
            assert_eq!(kernel_spans, K, "{at}: every traced profile simulates");

            let (audited, ctx) = repeated_profiles(
                Context::builder().shared_memoization(Arc::new(WaveMemo::with_audit(1))),
                algo,
                K,
            );
            assert_eq!(audited, honest, "{at}, audited");
            let s = ctx.memo_stats().expect("memoizing context");
            assert_eq!(
                (s.launch_misses, s.audits, s.launch_hits),
                (1, K as u64 - 1, 0),
                "{at}: one miss, then every repeated profile audited"
            );
        }
    }
    width.set(1);
}

/// A traced launch never consults the memo: the Perfetto timeline of two
/// traced memoized launches is byte-identical to two traced plain ones,
/// and the memo sees no probe.
#[test]
fn traced_memoized_timeline_is_bit_identical() {
    let width = common::width();
    width.set(1);
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
                    .memo(Some((&memo, sig)))
                    .run();
            }
            (perfetto::export_json(&sink), memo.stats())
        },
    );

    assert_eq!(
        stats,
        MemoStats::default(),
        "a traced launch probed the memo"
    );
    assert_eq!(memoized, honest, "memoized timeline bytes diverged");
    width.set(1);
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
            .memo(sig.map(|s| (&memo, s)))
            .run();
    }
    assert_eq!(
        memo.stats(),
        MemoStats::default(),
        "unprovable kernel must never probe the memo"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// DLMC-like grid: random shapes and sparsities. An octet plan's
    /// outputs, batch and profiles on a memoizing context equal a plain
    /// one-thread context's at 1 and 4 threads.
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
        let width = common::width();
        let a = gen::random_vector_sparse::<f16>(mb * v * 4, k_blocks * 32, v, sparsity, seed);
        let stack = |builder| spmm_stack(builder, SpmmAlgo::Octet, &a, n, seed);
        width.set(1);
        let (plain, memo) = stack(Context::builder());
        prop_assert!(memo.is_none());
        width.set(threads);
        let (got, memo) = stack(Context::builder().memoization());
        prop_assert_eq!(&got, &plain, "at {} threads", threads);
        let memo = memo.expect("memoizing context");
        prop_assert_eq!((memo.launch_misses, memo.launch_hits), (1, 2));
        width.set(1);
    }
}
