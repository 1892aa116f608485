//! Shared sweep drivers used by several figure binaries.

use std::collections::HashMap;

use vecsparse::engine::Context;
use vecsparse::spmm::{BlockedEllSpmm, DenseGemm};
use vecsparse::util::profile;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_dlmc::{Benchmark, LayerShape};
use vecsparse_formats::{gen, DenseMatrix, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, KernelProfile};

use crate::rhs_for;

/// One measured SpMM cell of the Fig. 17 grid.
#[derive(Clone, Debug)]
pub struct SpmmCell {
    pub shape: LayerShape,
    pub v: usize,
    pub n: usize,
    pub sparsity: f64,
    /// Speedup over cublasHgemm for (fpu, blocked-ELL, mma).
    pub fpu: f64,
    pub ell: f64,
    pub mma: f64,
}

/// Profile the dense baseline once per (shape, n) and reuse it across
/// sparsities and grains (the dense problem does not depend on them).
pub struct DenseCache {
    gpu: GpuConfig,
    cache: HashMap<(usize, usize, usize), f64>, // lint: hash-ok — keyed lookup only, never iterated
}

impl DenseCache {
    /// Empty cache on a device.
    pub fn new(gpu: &GpuConfig) -> Self {
        DenseCache {
            gpu: gpu.clone(),
            cache: HashMap::new(), // lint: hash-ok (see field)
        }
    }

    /// Cycles of cublasHgemm(sim) for an `m × k × n` problem.
    pub fn hgemm_cycles(&mut self, m: usize, k: usize, n: usize) -> f64 {
        *self.cache.entry((m, k, n)).or_insert_with(|| {
            let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, 0xD1);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, 0xD2);
            profile(&self.gpu, |mem, mode| DenseGemm::new(mem, &a, &b, mode)).cycles
        })
    }

    /// Cycles of cublasSgemm(sim).
    pub fn sgemm_cycles(&mut self, m: usize, k: usize, n: usize) -> f64 {
        *self.cache.entry((m | 1 << 60, k, n)).or_insert_with(|| {
            let a = gen::random_dense::<f32>(m, k, Layout::RowMajor, 0xD1);
            let b = gen::random_dense::<f32>(k, n, Layout::RowMajor, 0xD2);
            profile(&self.gpu, |mem, mode| DenseGemm::new(mem, &a, &b, mode)).cycles
        })
    }
}

/// Run the Fig. 17 SpMM sweep for one benchmark and RHS width.
pub fn spmm_cell(ctx: &Context, dense: &mut DenseCache, bench: &Benchmark, n: usize) -> SpmmCell {
    let b = rhs_for(bench, n);
    let base = dense.hgemm_cycles(bench.rows(), bench.cols(), n);
    let fpu = ctx
        .profile_spmm(&bench.matrix, &b, SpmmAlgo::FpuSubwarp)
        .cycles;
    // DLMC's Blocked-ELL twin rounds rows and columns up to the block: a
    // different surrogate from a `BlockedEll` plan's, so it launches
    // outside the engine.
    let ell_matrix = bench.blocked_ell_twin();
    let ell = profile(ctx.gpu(), |mem, mode| {
        BlockedEllSpmm::new(mem, &ell_matrix, &b, mode)
    })
    .cycles;
    let mma = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::Octet).cycles;
    SpmmCell {
        shape: bench.shape,
        v: bench.v,
        n,
        sparsity: bench.sparsity,
        fpu: base / fpu,
        ell: base / ell,
        mma: base / mma,
    }
}

/// One measured SDDMM cell of the Fig. 19 grid.
#[derive(Clone, Debug)]
pub struct SddmmCell {
    pub shape: LayerShape,
    pub v: usize,
    pub k: usize,
    pub sparsity: f64,
    /// Speedup over cublasHgemm for each implementation.
    pub fpu: f64,
    pub wmma: f64,
    pub mma_reg: f64,
    pub mma_shfl: f64,
    pub mma_arch: f64,
}

/// Run the Fig. 19 SDDMM sweep for one benchmark and inner dimension.
///
/// The benchmark's sparse structure becomes the output mask
/// (`M × N = shape`), and the dense inputs are `M × k` and `k × N`.
pub fn sddmm_cell(ctx: &Context, dense: &mut DenseCache, bench: &Benchmark, k: usize) -> SddmmCell {
    let mask = bench.mask();
    let m = mask.rows();
    let n = mask.cols();
    let a: DenseMatrix<f16> = gen::random_dense(m, k, Layout::RowMajor, 0xA1);
    let bt: DenseMatrix<f16> = gen::random_dense(k, n, Layout::ColMajor, 0xA2);
    // Dense baseline computes the full M×N product.
    let base = dense.hgemm_cycles(m, k, n);
    let speedup = |algo| base / ctx.profile_sddmm(&a, &bt, &mask, algo).cycles;
    SddmmCell {
        shape: bench.shape,
        v: bench.v,
        k,
        sparsity: bench.sparsity,
        fpu: speedup(SddmmAlgo::FpuSubwarp),
        wmma: speedup(SddmmAlgo::Wmma),
        mma_reg: speedup(SddmmAlgo::OctetReg),
        mma_shfl: speedup(SddmmAlgo::OctetShfl),
        mma_arch: speedup(SddmmAlgo::OctetArch),
    }
}

/// The §3/§7 profiling problem: `A(2048×1024) × B(1024×256)` at 90%
/// sparsity with grain `v`.
pub fn profiling_benchmark(v: usize) -> Benchmark {
    Benchmark::build(
        LayerShape {
            name: "profile_2048x1024",
            rows: 2048,
            cols: 1024,
        },
        v,
        0.9,
    )
}

/// Convenience: collect a (name → profile) set for the Table 2 rows.
pub fn spmm_guideline_profiles(ctx: &Context, v: usize) -> Vec<(String, KernelProfile)> {
    let bench = profiling_benchmark(v);
    let b = rhs_for(&bench, 256);
    let ell = bench.blocked_ell_twin();
    vec![
        (
            "MMA".into(),
            ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::Octet),
        ),
        (
            "CUDA".into(),
            ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::FpuSubwarp),
        ),
        (
            "Blocked-ELL".into(),
            profile(ctx.gpu(), |mem, mode| {
                BlockedEllSpmm::new(mem, &ell, &b, mode)
            }),
        ),
    ]
}

/// Convenience: the Table 3 rows (SDDMM profiling benchmark is
/// `A(2048×256) × B(256×1024)` masked at 90%).
pub fn sddmm_guideline_profiles(ctx: &Context, v: usize) -> Vec<(String, KernelProfile)> {
    let bench = Benchmark::build(
        LayerShape {
            name: "profile_2048x1024_mask",
            rows: 2048,
            cols: 1024,
        },
        v,
        0.9,
    );
    let mask = bench.mask();
    let a: DenseMatrix<f16> = gen::random_dense(mask.rows(), 256, Layout::RowMajor, 0xA1);
    let bt: DenseMatrix<f16> = gen::random_dense(256, mask.cols(), Layout::ColMajor, 0xA2);
    [
        ("MMA", SddmmAlgo::OctetReg),
        ("CUDA", SddmmAlgo::FpuSubwarp),
        ("WMMA", SddmmAlgo::Wmma),
    ]
    .into_iter()
    .map(|(name, algo)| (name.into(), ctx.profile_sddmm(&a, &bt, &mask, algo)))
    .collect()
}
