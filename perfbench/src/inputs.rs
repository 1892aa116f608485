//! Seeded operands on DLMC cells (the `dlmc` layer), and one plan type
//! over both operations so workloads can treat the ten algorithms alike.

use vecsparse::engine::{Context, EngineError, SddmmPlan, SpmmPlan};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_dlmc::{resnet50_shapes, LayerShape};
use vecsparse_formats::{gen, BlockedEll, DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{sig, KernelProfile};

/// RHS width of every SpMM and inner dimension of every SDDMM.
pub const N: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Spmm(SpmmAlgo),
    Sddmm(SddmmAlgo),
}

/// The five SpMM and five SDDMM kernels every kernel workload covers.
pub const ALGOS: [Algo; 10] = [
    Algo::Spmm(SpmmAlgo::Octet),
    Algo::Spmm(SpmmAlgo::Wmma),
    Algo::Spmm(SpmmAlgo::FpuSubwarp),
    Algo::Spmm(SpmmAlgo::BlockedEll),
    Algo::Spmm(SpmmAlgo::Dense),
    Algo::Sddmm(SddmmAlgo::OctetReg),
    Algo::Sddmm(SddmmAlgo::OctetShfl),
    Algo::Sddmm(SddmmAlgo::OctetArch),
    Algo::Sddmm(SddmmAlgo::FpuSubwarp),
    Algo::Sddmm(SddmmAlgo::Wmma),
];

impl Algo {
    pub fn label(self) -> &'static str {
        match self {
            Algo::Spmm(a) => a.label(),
            Algo::Sddmm(a) => a.label(),
        }
    }
}

/// One point of the paper's (layer, V, sparsity) grid.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub shape: LayerShape,
    pub v: usize,
    pub sparsity: f64,
}

/// Every named ResNet-50 layer at each sparsity, grain `v`.
pub fn cells(names: &[&str], v: usize, sparsities: &[f64]) -> Vec<Cell> {
    let shapes = resnet50_shapes();
    let mut out = Vec::new();
    for &sparsity in sparsities {
        for name in names {
            let shape = *shapes
                .iter()
                .find(|s| s.name == *name)
                .unwrap_or_else(|| panic!("unknown DLMC layer {name}"));
            out.push(Cell { shape, v, sparsity });
        }
    }
    out
}

/// A (cell, algorithm) pair of a kernel workload's list.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub cell: usize,
    pub algo: Algo,
}

/// Every algorithm on every cell, cell-major.
pub fn pairs(cells: usize) -> Vec<Pair> {
    (0..cells)
        .flat_map(|cell| ALGOS.map(|algo| Pair { cell, algo }))
        .collect()
}

/// SplitMix64 of `seed` mixed with a stream id: independent, reproducible
/// sub-seeds for every operand of a run.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The operands of one cell: the sparse matrix (also the SDDMM mask) and
/// the dense inputs of both operations.
pub struct Operands {
    pub a: VectorSparse<f16>,
    /// SpMM RHS, `cols × N` row-major.
    pub b: DenseMatrix<f16>,
    /// SDDMM left operand, `rows × N` row-major.
    pub lhs: DenseMatrix<f16>,
    /// SDDMM right operand, `N × cols` column-major.
    pub rhs: DenseMatrix<f16>,
}

impl Operands {
    /// Operands of `cell`, drawn from the run seed and the cell's index.
    pub fn generate(cell: &Cell, seed: u64, index: u64) -> Operands {
        let rows = cell.shape.rows.div_ceil(cell.v.max(8)) * cell.v.max(8);
        let cols = cell.shape.cols.div_ceil(8) * 8;
        let s = |k: u64| mix(seed, index * 8 + k);
        Operands {
            a: gen::random_vector_sparse(rows, cols, cell.v, cell.sparsity, s(0)),
            b: gen::random_dense(cols, N, Layout::RowMajor, s(1)),
            lhs: gen::random_dense(rows, N, Layout::RowMajor, s(2)),
            rhs: gen::random_dense(N, cols, Layout::ColMajor, s(3)),
        }
    }

    pub fn mask(&self) -> &SparsityPattern {
        self.a.pattern()
    }

    /// Useful flops of one call: 2·nnz·N (SpMM) or 2·nnz·K with K = N (SDDMM).
    pub fn useful_flops(&self) -> u64 {
        2 * self.a.pattern().nnz() as u64 * N as u64
    }
}

/// The matrix `SpmmAlgo::BlockedEll` multiplies in place of `a`: the
/// engine's Blocked-ELL surrogate, which shares `a`'s shape and sparsity
/// but not its structure (the paper's Fig. 16 construction). It is seeded
/// by an FNV-1a hash of `a`'s pattern, column indices then row pointers.
pub fn ell_surrogate(a: &VectorSparse<f16>) -> BlockedEll<f16> {
    let p = a.pattern();
    let h = sig::fnv1a_u32s(sig::FNV_OFFSET, p.col_idx().iter().copied());
    let h = sig::fnv1a_u32s(h, p.row_ptr().iter().map(|&r| r as u32));
    gen::random_blocked_ell(p.rows(), p.cols(), p.v().max(2), p.sparsity(), h)
}

/// A planned SpMM or SDDMM. Plans are built once per pair and kept in a
/// `Vec`, so the size gap between the variants is not worth a box on every
/// timed call.
#[allow(clippy::large_enum_variant)]
pub enum Plan {
    Spmm(SpmmPlan),
    Sddmm(SddmmPlan),
}

/// A functional output: dense for SpMM, the mask's structure for SDDMM.
pub enum Output {
    Dense(DenseMatrix<f16>),
    Sparse(VectorSparse<f16>),
}

impl Output {
    pub fn values(&self) -> &[f16] {
        match self {
            Output::Dense(m) => m.data(),
            Output::Sparse(m) => m.values(),
        }
    }
}

impl Plan {
    pub fn build(ctx: &Context, ops: &Operands, algo: Algo) -> Result<Plan, EngineError> {
        Ok(match algo {
            Algo::Spmm(a) => Plan::Spmm(ctx.try_plan_spmm(&ops.a, N, a)?),
            Algo::Sddmm(a) => Plan::Sddmm(ctx.try_plan_sddmm(ops.mask(), N, a)?),
        })
    }

    pub fn profile(&self, ops: &Operands) -> Result<KernelProfile, EngineError> {
        match self {
            Plan::Spmm(p) => p.try_profile(&ops.b),
            Plan::Sddmm(p) => p.try_profile(&ops.lhs, &ops.rhs),
        }
    }

    pub fn run(&self, ops: &Operands) -> Result<Output, EngineError> {
        match self {
            Plan::Spmm(p) => p.try_run(&ops.b).map(Output::Dense),
            Plan::Sddmm(p) => p.try_run(&ops.lhs, &ops.rhs).map(Output::Sparse),
        }
    }
}
