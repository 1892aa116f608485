//! A captured SDDMM problem: the mask is the plan's structural operand;
//! the kernel and its buffers are built once, and every run writes both
//! value operands into them.

use super::plan_core::{Kernel, PlanCore};
use super::{pattern_structure_hash, Context, EngineError, OpKind, PlanKey};
use crate::api::SddmmAlgo;
use crate::sddmm::{FpuSubwarpSddmm, OctetSddmm, OctetVariant, SddmmBuffers, WmmaSddmm};
use crate::util::{download_vs, upload_pattern};
use std::iter;
use std::sync::Arc;
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::{Fingerprint, FingerprintHasher};
use vecsparse_gpu_sim::{ElemWidth, KernelProfile, MemPool};

/// A planned SDDMM. Unlike SpMM, both value operands change per run (the
/// mask contributes structure, not values, and its device residency is
/// address-only), so the plan stages every buffer address-only once,
/// builds its kernel over them, and each functional run writes `A`, `B`
/// and a zeroed output before launching.
///
/// Built by [`super::Context::plan_sddmm`].
pub struct SddmmPlan {
    key: PlanKey,
    algo: SddmmAlgo,
    /// The mask, shared with the kernel.
    mask: Arc<SparsityPattern>,
    bufs: SddmmBuffers,
    core: PlanCore,
}

impl SddmmPlan {
    pub(super) fn build(
        ctx: &Context,
        key: PlanKey,
        algo: SddmmAlgo,
        mask: &SparsityPattern,
    ) -> Self {
        assert_ne!(algo, SddmmAlgo::Auto, "algo must be resolved");
        let mask = Arc::new(mask.clone());
        // Every buffer is address-only, in the order each kernel's `new`
        // stages them: A, B, the mask's indices, the output.
        let mut mem = MemPool::new();
        let bufs = SddmmBuffers {
            a: mem.alloc_ghost(ElemWidth::B16, key.m * key.k),
            b: mem.alloc_ghost(ElemWidth::B16, key.k * key.n),
            idx: upload_pattern(&mut mem, &mask),
            out: mem.alloc_ghost(ElemWidth::B16, mask.nnz()),
        };
        let shared = Arc::clone(&mask);
        let kernel: Kernel = match algo {
            SddmmAlgo::FpuSubwarp => {
                Box::new(FpuSubwarpSddmm::<f16>::from_staged(shared, key.k, bufs))
            }
            SddmmAlgo::Wmma => Box::new(WmmaSddmm::from_staged(shared, key.k, bufs)),
            octet => {
                let variant = match octet {
                    SddmmAlgo::OctetReg => OctetVariant::Reg,
                    SddmmAlgo::OctetShfl => OctetVariant::Shfl,
                    _ => OctetVariant::Arch,
                };
                Box::new(OctetSddmm::from_staged(shared, key.k, bufs, variant))
            }
        };
        SddmmPlan {
            key,
            algo,
            mask,
            bufs,
            core: PlanCore::new(ctx, OpKind::Sddmm, algo.label(), mem, kernel, None),
        }
    }

    /// The concrete algorithm the plan executes (never `Auto`).
    pub fn algo(&self) -> SddmmAlgo {
        self.algo
    }

    fn check_operands(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
    ) -> Result<(), EngineError> {
        if a.rows() != self.key.m {
            return Err(EngineError::DimensionMismatch {
                what: "A rows",
                expected: self.key.m,
                got: a.rows(),
            });
        }
        if a.cols() != self.key.k {
            return Err(EngineError::DimensionMismatch {
                what: "A cols",
                expected: self.key.k,
                got: a.cols(),
            });
        }
        if b.rows() != self.key.k {
            return Err(EngineError::DimensionMismatch {
                what: "B rows",
                expected: self.key.k,
                got: b.rows(),
            });
        }
        if b.cols() != self.key.n {
            return Err(EngineError::DimensionMismatch {
                what: "B cols",
                expected: self.key.n,
                got: b.cols(),
            });
        }
        if a.layout() != Layout::RowMajor {
            return Err(EngineError::LayoutMismatch {
                what: "A",
                expected: "row-major",
                got: "column-major",
            });
        }
        if b.layout() != Layout::ColMajor {
            return Err(EngineError::LayoutMismatch {
                what: "B",
                expected: "column-major",
                got: "row-major",
            });
        }
        Ok(())
    }

    /// Write a functional run's binary16 values into `mem`, copied as
    /// they are: the checked operands and a zeroed output.
    fn stage(&self, mem: &mut MemPool, a: &DenseMatrix<f16>, b: &DenseMatrix<f16>) {
        mem.replace(self.bufs.a, a.data().iter().copied());
        mem.replace(self.bufs.b, b.data().iter().copied());
        mem.replace(self.bufs.out, iter::repeat_n(f16::ZERO, self.mask.nnz()));
    }

    fn read(&self, mem: &MemPool) -> VectorSparse<f16> {
        download_vs(mem, self.bufs.out, &self.mask)
    }

    /// The memoization operand fingerprint: operation, algorithm,
    /// descriptor, mask structure and the staged pool layout. Taken once
    /// per plan, by its first memoized profile.
    fn operand_fp(&self, mem: &MemPool) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_bytes(b"sddmm");
        h.write_bytes(self.algo.label().as_bytes());
        for d in [self.key.m, self.key.n, self.key.k, self.key.v] {
            h.write_u64(d as u64);
        }
        h.write_u64(pattern_structure_hash(&self.mask));
        h.write_u64(mem.layout_hash());
        h.finish()
    }

    /// Run the planned SDDMM on one `(A, B)` pair.
    pub fn try_run(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
    ) -> Result<VectorSparse<f16>, EngineError> {
        self.check_operands(a, b)?;
        Ok(self
            .core
            .run(|mem| self.stage(mem, a, b), |mem| self.read(mem)))
    }

    /// Infallible [`SddmmPlan::try_run`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message if the operands do not
    /// match the plan's `m × k` / `k × n` row-major / column-major
    /// shapes.
    pub fn run(&self, a: &DenseMatrix<f16>, b: &DenseMatrix<f16>) -> VectorSparse<f16> {
        self.try_run(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Profile the planned SDDMM (sampled performance model). Under
    /// memoization, every profile after the plan's first is one memo
    /// lookup.
    pub fn try_profile(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
    ) -> Result<KernelProfile, EngineError> {
        self.check_operands(a, b)?;
        Ok(self.core.profile(|mem| self.operand_fp(mem)))
    }

    /// Infallible [`SddmmPlan::try_profile`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message on operand mismatch.
    pub fn profile(&self, a: &DenseMatrix<f16>, b: &DenseMatrix<f16>) -> KernelProfile {
        self.try_profile(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run every `(A, B)` pair, returning outputs in order. Pairs fan
    /// out across rayon workers, each owning a private clone of the
    /// plan's device state; results are bit-identical to calling
    /// [`try_run`](SddmmPlan::try_run) sequentially, traced or not.
    pub fn try_run_batch(
        &self,
        a_batch: &[DenseMatrix<f16>],
        b_batch: &[DenseMatrix<f16>],
    ) -> Result<Vec<VectorSparse<f16>>, EngineError> {
        if a_batch.len() != b_batch.len() {
            return Err(EngineError::BatchLengthMismatch {
                a: a_batch.len(),
                b: b_batch.len(),
            });
        }
        for (a, b) in a_batch.iter().zip(b_batch) {
            self.check_operands(a, b)?;
        }
        self.core.run_batch(
            a_batch.len(),
            |mem, i| self.stage(mem, &a_batch[i], &b_batch[i]),
            |mem| self.read(mem),
        )
    }

    /// Infallible [`SddmmPlan::try_run_batch`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message on an empty batch,
    /// mismatched batch lengths, or any operand mismatch.
    pub fn run_batch(
        &self,
        a_batch: &[DenseMatrix<f16>],
        b_batch: &[DenseMatrix<f16>],
    ) -> Vec<VectorSparse<f16>> {
        self.try_run_batch(a_batch, b_batch)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::materialised_halves;
    use super::*;
    use vecsparse_formats::gen;
    use vecsparse_gpu_sim::{Backend, GpuConfig};

    /// A plan that has only profiled holds no host values in its pool:
    /// both operands and the output stay address-only until the first
    /// functional run writes them, at 2 host bytes per binary16 element.
    #[test]
    fn profile_only_plan_holds_no_values() {
        let mask = gen::random_pattern(32, 48, 4, 0.6, 1);
        let a = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 2);
        let b = gen::random_dense::<f16>(64, 48, Layout::ColMajor, 3);
        for backend in [Backend::Simulated, Backend::Native] {
            let ctx = Context::builder()
                .gpu(GpuConfig::small())
                .backend(backend)
                .build();
            for algo in [
                SddmmAlgo::OctetReg,
                SddmmAlgo::OctetShfl,
                SddmmAlgo::OctetArch,
                SddmmAlgo::FpuSubwarp,
                SddmmAlgo::Wmma,
            ] {
                let plan = ctx.plan_sddmm(&mask, 64, algo);
                let values = || materialised_halves(&plan.core.primary());
                plan.profile(&a, &b);
                assert_eq!(values(), 0, "{algo:?} after a profile");
                plan.run(&a, &b);
                assert_eq!(
                    values(),
                    32 * 64 + 64 * 48 + mask.nnz(),
                    "{algo:?} after a run"
                );
            }
        }
    }
}
