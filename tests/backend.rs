//! Tier-1 backend gate: [`Backend::Native`] is bit-identical to the
//! simulated functional path.
//!
//! Three promises are pinned here. First, coverage: every registry
//! kernel has a native lowering, and a `Backend::Native` launch engages
//! it (the [`LaunchOutput::native`] flag rules out a silent fallback).
//! Second, identity: after a native and a simulated launch of the same
//! staged kernel, the *entire memory pool* — every buffer, not just the
//! output — matches bit for bit, at 1 and at 4 worker threads, across a
//! shape grid spanning every vector length — and, for every SpMM kernel,
//! on a right-hand side holding a `+Inf` row and a NaN row, where the
//! lowerings must skip exactly the exact-zero A terms their simulated
//! paths skip; and, for the half SDDMM kernels, on products that
//! overflow binary16. Third, scheme soundness:
//! every octet [`TilingScheme`] point a caller can compile (the tuner's
//! sweep and the ablation's cyclic schedule) stays sanitizer-clean,
//! wave-provable, shard-certified, and native-exact — the same gauntlet
//! the default scheme passes.
//!
//! [`Backend::Native`]: vecsparse_gpu_sim::Backend
//! [`LaunchOutput::native`]: vecsparse_gpu_sim::LaunchOutput
//! [`TilingScheme`]: vecsparse::compose::TilingScheme

mod common;

use vecsparse::compose::{LoadStrategy, TilingScheme};
use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse::sddmm::{FpuSubwarpSddmm, OctetSddmm, OctetVariant, WmmaSddmm};
use vecsparse::spmm::compose::{octet_schemes, DEFAULT_SCHEME};
use vecsparse::spmm::{
    BlockedEllSpmm, CsrScalarSpmm, DenseGemm, FpuSubwarpSpmm, OctetSpmm, WmmaSpmm,
};
use vecsparse_certify::{analyze, certify};
use vecsparse_formats::{gen, reference, BlockedEll, DenseMatrix, Layout, VectorSparse, ELL_PAD};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{Backend, GpuConfig, KernelSpec, Launch, MemPool, Mode};
use vecsparse_sanitizer::sanitize_clean;

/// Whole-pool bit comparison of every stored element at its buffer's own
/// width (binary16 bits for B16, `f32` bits for B32) — so a NaN payload
/// or a `-0.0`/`+0.0` swap counts as divergence even though `==` would
/// not.
fn assert_pools_identical(sim: &MemPool, native: &MemPool, what: &str) {
    let sim_bufs: Vec<_> = sim.buffer_ids().collect();
    let nat_bufs: Vec<_> = native.buffer_ids().collect();
    assert_eq!(sim_bufs.len(), nat_bufs.len(), "{what}: buffer count");
    for (&s, &n) in sim_bufs.iter().zip(&nat_bufs) {
        let buf = s.index();
        assert_eq!(sim.width(s), native.width(n), "{what}: buffer {buf} width");
        let (a, b) = (sim.bits(s), native.bits(n));
        assert_eq!(a.len(), b.len(), "{what}: buffer {buf} length");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x, y,
                "{what}: buffer {buf} elem {i}: simulated {x:#x}, native {y:#x}"
            );
        }
    }
}

/// Launch `kernel` once per backend on copies of the same staged pool and
/// demand bit-identical pools plus an engaged native path. Returns the
/// simulated pool.
fn assert_backends_agree(mem: &mut MemPool, kernel: &dyn KernelSpec, what: &str) -> MemPool {
    let mut sim = mem.clone();
    let sim_out = Launch::new(&mut sim, kernel).run();
    assert!(!sim_out.native, "{what}: default backend must simulate");
    let out = Launch::new(mem, kernel).backend(Backend::Native).run();
    assert!(out.native, "{what}: native lowering missing or refused");
    assert_pools_identical(&sim, mem, what);
    sim
}

/// Stage `id` at `shape`, run one launch per backend, and demand
/// bit-identical pools plus an engaged native path.
fn assert_native_matches(id: KernelId, shape: &Shape, what: &str) {
    registry::with_kernel(id, shape, Mode::Functional, |mem, kernel| {
        assert_backends_agree(mem, kernel, what);
    });
}

/// Sweep-style shapes friendly to every kernel: m a multiple of 16 (so
/// every V in {1, 2, 4, 8} divides it), n and k multiples of 32.
fn shape_grid() -> Vec<Shape> {
    vec![
        Shape::default(),
        Shape {
            m: 48,
            n: 32,
            k: 32,
            v: 1,
            sparsity: 0.3,
            seed: 7,
        },
        Shape {
            m: 16,
            n: 64,
            k: 32,
            v: 2,
            sparsity: 0.9,
            seed: 11,
        },
        Shape {
            m: 64,
            n: 32,
            k: 64,
            v: 8,
            sparsity: 0.5,
            seed: 23,
        },
    ]
}

/// The ISSUE's headline acceptance gate: `Backend::Native` is
/// bit-identical for the full registry across the shape grid, at 1 and
/// at 4 worker threads. Thread count exercises the two paths'
/// *different* determinism arguments — the simulator buffers CTA writes
/// and applies them in grid order, the native executor is sequential by
/// construction — and the gate pins that they land on the same bits.
#[test]
fn native_backend_bit_identical_for_full_registry() {
    let width = common::width();
    for threads in [1usize, 4] {
        width.set(threads);
        for shape in shape_grid() {
            for id in ALL_KERNELS {
                let what = format!(
                    "{} at m={} n={} k={} v={} ({threads} threads)",
                    id.label(),
                    shape.m,
                    shape.n,
                    shape.k,
                    shape.v
                );
                assert_native_matches(id, &shape, &what);
            }
        }
    }
    width.set(1);
}

/// Every SpMM registry kernel on a right-hand side with one `+Inf` row
/// and one NaN row, whole-pool bit-identical at 1 and 4 threads. An
/// exact-zero A value meeting a non-finite row makes a NaN only in a
/// lowering that keeps the term, so each lowering must skip exactly the
/// terms its simulated path skips (wmma, Blocked-ELL and dense skip them;
/// octet, FPU and CSR skip none). Every block row of A stores such a zero.
#[test]
fn native_matches_simulated_on_non_finite_rhs() {
    let width = common::width();
    let (m, k, n, v, sparsity, seed) = (64, 128, 32, 4, 0.9, 41);
    // Row 0 is +Inf so a lowering that read B for a padding slot (column
    // index 0) would show it.
    let (inf_row, nan_row) = (0, k / 2);
    let finite = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed);
    let b = DenseMatrix::from_fn(k, n, Layout::RowMajor, |r, c| match r {
        _ if r == inf_row => f16::INFINITY,
        _ if r == nan_row => f16::NAN,
        _ => finite.get(r, c),
    });
    // Even block rows meet the +Inf row and odd ones the NaN row, through
    // one stored vector whose first lane is an exact zero and whose other
    // lanes are 0.5; the other non-finite column is left out.
    let meets = |br: usize| match br % 2 {
        0 => (inf_row, nan_row),
        _ => (nan_row, inf_row),
    };
    let lane = |r: usize| f16::from_f32(if r.is_multiple_of(v) { 0.0 } else { 0.5 });
    let mut dense =
        gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed ^ 0xA).to_dense(Layout::RowMajor);
    for r in 0..m {
        let (hit, miss) = meets(r / v);
        *dense.get_mut(r, hit) = lane(r);
        *dense.get_mut(r, miss) = f16::ZERO;
    }
    let vs = VectorSparse::from_dense(&dense, v);
    let csr = vs.to_csr();
    // Blocked-ELL (block = V) the same way: the hit block column takes a
    // slot, with the lanes above in its first column; the missed one pads.
    let ell = gen::random_blocked_ell::<f16>(m, k, v, sparsity, seed ^ 0xE);
    let bpr = ell.blocks_per_row();
    let mut block_cols = ell.block_col_idx().to_vec();
    let mut values = ell.values().to_vec();
    for br in 0..m / v {
        let (hit, miss) = meets(br);
        let (hit, miss) = ((hit / v) as u32, (miss / v) as u32);
        let slots = &mut block_cols[br * bpr..(br + 1) * bpr];
        let slot = slots.iter().position(|&c| c == hit).unwrap_or(0);
        slots[slot] = hit;
        for (s, c) in slots.iter_mut().enumerate() {
            let block = &mut values[(br * bpr + s) * v * v..(br * bpr + s + 1) * v * v];
            if *c == miss {
                *c = ELL_PAD;
                block.fill(f16::ZERO);
            } else if s == slot {
                for r in 0..v {
                    block[r * v] = lane(r);
                }
            }
        }
    }
    let ell = BlockedEll::new(m, k, v, bpr * v, block_cols, values);
    let spmm_ids = ALL_KERNELS
        .into_iter()
        .filter(|id| id.label().starts_with("spmm-"));
    let f = Mode::Functional;
    for threads in [1usize, 4] {
        width.set(threads);
        for id in spmm_ids.clone() {
            let what = format!("{} on a non-finite B ({threads} threads)", id.label());
            let mem = &mut MemPool::new();
            let sim = match id {
                KernelId::SpmmDense => {
                    let kernel = DenseGemm::new(mem, &dense, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SpmmCsrScalar => {
                    let kernel = CsrScalarSpmm::new(mem, &csr, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SpmmBlockedEll => {
                    let kernel = BlockedEllSpmm::new(mem, &ell, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SpmmFpuSubwarp => {
                    let kernel = FpuSubwarpSpmm::new(mem, &vs, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SpmmWmma => {
                    let kernel = WmmaSpmm::new(mem, &vs, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SpmmOctet => {
                    let kernel = OctetSpmm::new(mem, &vs, &b, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                other => unreachable!("{other:?} is not an SpMM kernel"),
            };
            // The case bites: some outputs are infinite and some NaN.
            let out = sim.buffer_ids().last().expect("output buffer");
            let vals = sim.contents::<f16>(out);
            assert_eq!(vals.len(), m * n, "{what}: last buffer is the output");
            assert!(
                vals.iter().any(|x| x.is_infinite()),
                "{what}: no Inf output"
            );
            assert!(vals.iter().any(|x| x.is_nan()), "{what}: no NaN output");
        }
    }
    width.set(1);
}

/// The half SDDMM kernels on operands whose products overflow binary16
/// (`|a·b|` up to 2^18), whole-pool bit-identical at 1 and 4 threads.
/// The FPU lowering must then take the general HMUL rounding, which
/// rounds those products to infinity as the simulated path does (and a
/// dot meeting both signs of infinity reads NaN).
#[test]
fn sddmm_native_matches_simulated_when_products_overflow_binary16() {
    let width = common::width();
    let (m, k, n, v) = (32, 64, 32, 4);
    let big = |x: DenseMatrix<f16>| {
        DenseMatrix::from_fn(x.rows(), x.cols(), x.layout(), |r, c| {
            f16::from_f32(x.get(r, c).to_f32() * 256.0)
        })
    };
    let a = big(gen::random_dense::<f16>(m, k, Layout::RowMajor, 51));
    let b = big(gen::random_dense::<f16>(k, n, Layout::ColMajor, 52));
    let mask = gen::random_pattern(m, n, v, 0.5, 53);
    let f = Mode::Functional;
    for threads in [1usize, 4] {
        width.set(threads);
        for id in [
            KernelId::SddmmOctetReg,
            KernelId::SddmmOctetShfl,
            KernelId::SddmmOctetArch,
            KernelId::SddmmWmma,
            KernelId::SddmmFpuSubwarp,
        ] {
            let what = format!("{} on overflowing products ({threads} threads)", id.label());
            let mem = &mut MemPool::new();
            let sim = match id {
                KernelId::SddmmWmma => {
                    let kernel = WmmaSddmm::new(mem, &a, &b, &mask, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                KernelId::SddmmFpuSubwarp => {
                    let kernel = FpuSubwarpSddmm::new(mem, &a, &b, &mask, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
                octet => {
                    let variant = match octet {
                        KernelId::SddmmOctetReg => OctetVariant::Reg,
                        KernelId::SddmmOctetShfl => OctetVariant::Shfl,
                        _ => OctetVariant::Arch,
                    };
                    let kernel = OctetSddmm::new(mem, &a, &b, &mask, variant, f);
                    assert_backends_agree(mem, &kernel, &what)
                }
            };
            let out = sim.buffer_ids().last().expect("output buffer");
            assert!(
                sim.contents::<f16>(out).iter().any(|x| !x.is_finite()),
                "{what}: every output finite"
            );
        }
    }
    width.set(1);
}

/// A native *request* outside plain functional execution falls back to
/// the warp model and says so: performance simulation still profiles,
/// and the output's `native` flag stays honest.
#[test]
fn native_request_outside_functional_mode_simulates() {
    let gpu = GpuConfig::small();
    registry::with_kernel(
        KernelId::SpmmOctet,
        &Shape::default(),
        Mode::Performance,
        |mem, kernel| {
            let out = Launch::new(mem, kernel)
                .gpu(&gpu)
                .performance()
                .backend(Backend::Native)
                .run();
            assert!(!out.native, "performance mode needs the warp model");
            assert!(out.profile.is_some(), "fallback must still profile");
        },
    );
}

/// The public wmma and FPU SDDMM kernels accept any vector length, but
/// the V-lane dots have lanes only for V in {1, 2, 4, 8}: a native
/// request at V = 16 falls back to the simulated path and says so.
#[test]
fn native_request_for_other_vector_length_simulates() {
    let (m, k, n, v) = (32, 64, 32, 16);
    let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, 5);
    let b = gen::random_dense::<f16>(k, n, Layout::ColMajor, 6);
    let mask = gen::random_pattern(m, n, v, 0.5, 7);
    let mem = &mut MemPool::new();
    let wmma = WmmaSddmm::new(mem, &a, &b, &mask, Mode::Functional);
    let fpu = FpuSubwarpSddmm::new(mem, &a, &b, &mask, Mode::Functional);
    for kernel in [&wmma as &dyn KernelSpec, &fpu] {
        let mut sim = mem.clone();
        Launch::new(&mut sim, kernel).run();
        let out = Launch::new(mem, kernel).backend(Backend::Native).run();
        assert!(!out.native, "V = {v} has no native lowering");
        assert_pools_identical(&sim, mem, "simulated fallback at V = 16");
    }
}

/// Every octet scheme point a caller can compile passes the full
/// certification gauntlet the default scheme passes: sanitizer-clean,
/// wave-provable, shard-certified, reference-exact, and
/// native-bit-identical. The tuner may pick either swept point and the
/// ablation compiles the cyclic one; none may be second-class.
#[test]
fn swept_octet_schemes_stay_certified_and_native_exact() {
    let gpu = GpuConfig::small();
    let a = gen::random_vector_sparse::<f16>(32, 128, 4, 0.8, 31);
    let b = gen::random_dense::<f16>(128, 64, Layout::RowMajor, 32);
    let want = reference::spmm_vs(&a, &b);
    let k16 = TilingScheme {
        tile_k: 16,
        ..DEFAULT_SCHEME
    };
    let cyclic = TilingScheme {
        load: LoadStrategy::SyncBufferCyclic,
        ..DEFAULT_SCHEME
    };
    assert_eq!(octet_schemes(), [DEFAULT_SCHEME, k16], "the swept points");
    for scheme in [DEFAULT_SCHEME, k16, cyclic] {
        let label = scheme.label();
        let mut mem = MemPool::new();
        let kernel = OctetSpmm::with_scheme(&mut mem, &a, &b, Mode::Functional, scheme);

        sanitize_clean(&gpu, &mem, &kernel);
        let wave = certify(&mem, &kernel);
        assert!(wave.is_provable(), "{label}: wave certification failed");
        let shard = analyze(&mem, &kernel);
        assert!(shard.is_shardable(), "{label}: {}", shard.summary());

        let mut sim = mem.clone();
        let sim_out = Launch::new(&mut sim, &kernel).run();
        assert!(!sim_out.native);
        let out = Launch::new(&mut mem, &kernel)
            .backend(Backend::Native)
            .run();
        assert!(out.native, "{label}: native lowering refused");
        assert_pools_identical(&sim, &mem, &label);

        let got = kernel.result(&mem);
        assert_eq!(
            got.max_abs_diff(&want),
            0.0,
            "{label}: diverged from reference"
        );
    }
}
