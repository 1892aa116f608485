//! Kernel registry: build any shipped kernel behind `&dyn KernelSpec`.
//!
//! External tooling (the `vecsparse-sanitizer` crate, its `vsan` binary,
//! property tests) needs to construct *every* kernel in this crate for a
//! given problem shape without naming each concrete type. Three kernels
//! (`CsrScalarSpmm`, `CsrSddmm` and `SparseSoftmax`) still borrow their
//! host-side inputs, so the registry owns the generated matrices for the
//! duration of a callback instead of returning a self-referential bundle:
//! [`with_kernel`] generates the inputs, stages them into a fresh
//! [`MemPool`], builds the kernel, and hands `(&mut MemPool, &dyn
//! KernelSpec)` to the caller.

use crate::sddmm::{CsrSddmm, FpuSubwarpSddmm, OctetSddmm, OctetVariant, WmmaSddmm};
use crate::softmax::{DenseSoftmax, SparseSoftmax};
use crate::spmm::{BlockedEllSpmm, CsrScalarSpmm, DenseGemm, FpuSubwarpSpmm, OctetSpmm, WmmaSpmm};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{KernelSpec, MemPool, Mode};
use vecsparse_precision::KernelModel;

/// Every kernel the crate ships, as a flat id (one per `SpmmAlgo` /
/// `SddmmAlgo` variant plus the kernels the selectors do not cover).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Dense `cublasHgemm` surrogate.
    SpmmDense,
    /// Fine-grained CSR SpMM (`cusparseSpMM` surrogate).
    SpmmCsrScalar,
    /// Blocked-ELL TCU SpMM.
    SpmmBlockedEll,
    /// FPU-based 1-D subwarp-tiling SpMM.
    SpmmFpuSubwarp,
    /// Classic wmma-mapping TCU SpMM.
    SpmmWmma,
    /// The paper's 1-D octet-tiling TCU SpMM.
    SpmmOctet,
    /// Scalar CSR SDDMM (`cusparseSDDMM` surrogate, fp32).
    SddmmCsr,
    /// FPU-based subwarp-tiling SDDMM.
    SddmmFpuSubwarp,
    /// Classic wmma-mapping TCU SDDMM.
    SddmmWmma,
    /// Octet-tiling SDDMM, extra accumulator registers.
    SddmmOctetReg,
    /// Octet-tiling SDDMM, shuffle-based operand switching.
    SddmmOctetShfl,
    /// Octet-tiling SDDMM on the proposed SWITCH-HMMA architecture.
    SddmmOctetArch,
    /// Softmax over the column-vector-sparse encoding.
    SoftmaxSparse,
    /// Dense row-wise softmax baseline.
    SoftmaxDense,
}

/// All kernel ids, in a stable order.
pub const ALL_KERNELS: [KernelId; 14] = [
    KernelId::SpmmDense,
    KernelId::SpmmCsrScalar,
    KernelId::SpmmBlockedEll,
    KernelId::SpmmFpuSubwarp,
    KernelId::SpmmWmma,
    KernelId::SpmmOctet,
    KernelId::SddmmCsr,
    KernelId::SddmmFpuSubwarp,
    KernelId::SddmmWmma,
    KernelId::SddmmOctetReg,
    KernelId::SddmmOctetShfl,
    KernelId::SddmmOctetArch,
    KernelId::SoftmaxSparse,
    KernelId::SoftmaxDense,
];

impl KernelId {
    /// Stable command-line name.
    pub fn label(self) -> &'static str {
        match self {
            KernelId::SpmmDense => "spmm-dense",
            KernelId::SpmmCsrScalar => "spmm-csr",
            KernelId::SpmmBlockedEll => "spmm-blocked-ell",
            KernelId::SpmmFpuSubwarp => "spmm-fpu",
            KernelId::SpmmWmma => "spmm-wmma",
            KernelId::SpmmOctet => "spmm-octet",
            KernelId::SddmmCsr => "sddmm-csr",
            KernelId::SddmmFpuSubwarp => "sddmm-fpu",
            KernelId::SddmmWmma => "sddmm-wmma",
            KernelId::SddmmOctetReg => "sddmm-octet-reg",
            KernelId::SddmmOctetShfl => "sddmm-octet-shfl",
            KernelId::SddmmOctetArch => "sddmm-octet-arch",
            KernelId::SoftmaxSparse => "softmax-sparse",
            KernelId::SoftmaxDense => "softmax-dense",
        }
    }

    /// Parse a command-line name produced by [`KernelId::label`].
    pub fn parse(s: &str) -> Option<KernelId> {
        ALL_KERNELS.into_iter().find(|k| k.label() == s)
    }
}

/// Problem shape for a registry build: `C[m×n] = A[m×k] · B[k×n]` for the
/// SpMM/SDDMM kernels (the SDDMM mask is `m×n`), `m×n` scores for the
/// softmax kernels. `sparsity` is the zero fraction, `v` the column-vector
/// length (1, 2, 4, or 8).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub v: usize,
    pub sparsity: f64,
    pub seed: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            m: 32,
            n: 64,
            k: 64,
            v: 4,
            sparsity: 0.75,
            seed: 1,
        }
    }
}

/// The numerical model of `id` at `shape`, for the precision analyzer.
///
/// Derived from the kernel's default [`crate::compose::TilingScheme`]:
/// the scheme's tile component fixes the arithmetic (exact fp16×fp16
/// products with fp32 accumulation for the mma and scalar components,
/// binary16-rounded products for the FPU subwarp chain, the row
/// composition `exp(x−max)/Σexp` for softmax) and its `out_bits` the
/// store width — see [`crate::compose::model_from_scheme`].
pub fn model_for(id: KernelId, shape: &Shape) -> KernelModel {
    crate::compose::model_from_scheme(&crate::compose::scheme_for(id), shape.k, shape.n)
}

/// Generate inputs for `id` at `shape`, stage them into a fresh pool,
/// build the kernel in `mode`, and run `f` on the result. The pool is
/// mutable, so `f` can launch the kernel (e.g. fp64 shadow execution,
/// which applies global writes) as well as inspect it.
///
/// # Panics
/// Panics if the shape violates a kernel's constructor contract (e.g. a
/// `v` outside {1, 2, 4, 8}).
pub fn with_kernel<R>(
    id: KernelId,
    shape: &Shape,
    mode: Mode,
    f: impl FnOnce(&mut MemPool, &dyn KernelSpec) -> R,
) -> R {
    let mut mem = MemPool::new();
    let Shape {
        m,
        n,
        k,
        v,
        sparsity,
        seed,
    } = *shape;
    match id {
        KernelId::SpmmDense => {
            let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = DenseGemm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SpmmCsrScalar => {
            let a = gen::random_csr::<f16>(m, k, sparsity, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = CsrScalarSpmm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SpmmBlockedEll => {
            let a = gen::random_blocked_ell::<f16>(m, k, v.max(2), sparsity, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = BlockedEllSpmm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SpmmFpuSubwarp => {
            let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = FpuSubwarpSpmm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SpmmWmma => {
            let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = WmmaSpmm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SpmmOctet => {
            let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed ^ 0xB);
            let kern = OctetSpmm::new(&mut mem, &a, &b, mode);
            f(&mut mem, &kern)
        }
        KernelId::SddmmCsr => {
            let a = gen::random_dense::<f32>(m, k, Layout::RowMajor, seed);
            let b = gen::random_dense::<f32>(k, n, Layout::ColMajor, seed ^ 0xB);
            let mask = gen::random_pattern(m, n, 1, sparsity, seed ^ 0xC);
            let kern = CsrSddmm::new(&mut mem, &a, &b, &mask, mode);
            f(&mut mem, &kern)
        }
        KernelId::SddmmFpuSubwarp => {
            let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::ColMajor, seed ^ 0xB);
            let mask = gen::random_pattern(m, n, v, sparsity, seed ^ 0xC);
            let kern = FpuSubwarpSddmm::new(&mut mem, &a, &b, &mask, mode);
            f(&mut mem, &kern)
        }
        KernelId::SddmmWmma => {
            let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::ColMajor, seed ^ 0xB);
            let mask = gen::random_pattern(m, n, v, sparsity, seed ^ 0xC);
            let kern = WmmaSddmm::new(&mut mem, &a, &b, &mask, mode);
            f(&mut mem, &kern)
        }
        KernelId::SddmmOctetReg | KernelId::SddmmOctetShfl | KernelId::SddmmOctetArch => {
            let variant = match id {
                KernelId::SddmmOctetReg => OctetVariant::Reg,
                KernelId::SddmmOctetShfl => OctetVariant::Shfl,
                _ => OctetVariant::Arch,
            };
            let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, seed);
            let b = gen::random_dense::<f16>(k, n, Layout::ColMajor, seed ^ 0xB);
            let mask = gen::random_pattern(m, n, v, sparsity, seed ^ 0xC);
            let kern = OctetSddmm::new(&mut mem, &a, &b, &mask, variant, mode);
            f(&mut mem, &kern)
        }
        KernelId::SoftmaxSparse => {
            let x = gen::random_vector_sparse::<f16>(m, n, v, sparsity, seed);
            let kern = SparseSoftmax::new(&mut mem, &x, mode);
            f(&mut mem, &kern)
        }
        KernelId::SoftmaxDense => {
            let kern = DenseSoftmax::new(&mut mem, m, n, mode);
            if mode == Mode::Functional {
                // Fill the score buffer the way the attention pipeline
                // would, so the value-checking pass sees live data.
                let vals = gen::random_dense::<f16>(m, n, Layout::RowMajor, seed);
                mem.replace(kern.input(), vals.data().iter().copied());
            }
            f(&mut mem, &kern)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for id in ALL_KERNELS {
            assert_eq!(KernelId::parse(id.label()), Some(id));
        }
        assert_eq!(KernelId::parse("nope"), None);
    }

    #[test]
    fn every_kernel_builds_and_exposes_a_program() {
        let shape = Shape::default();
        for id in ALL_KERNELS {
            with_kernel(id, &shape, Mode::Functional, |_mem, kern| {
                let prog = kern.program().expect("kernel should keep its Program");
                assert!(prog.static_len() > 0, "{}", kern.name());
                assert!(
                    kern.launch_config().static_instrs >= prog.static_len(),
                    "{}",
                    kern.name()
                );
            });
        }
    }
}
