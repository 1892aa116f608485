//! A captured SDDMM problem: the mask is the plan's structural operand;
//! the pool's address space is recycled across runs.

use super::plan_core::{Launched, PlanCore};
use super::{pattern_structure_hash, Context, EngineError, OpKind, PlanKey};
use crate::api::SddmmAlgo;
use crate::sddmm::{FpuSubwarpSddmm, OctetSddmm, OctetVariant, WmmaSddmm};
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::{Fingerprint, FingerprintHasher};
use vecsparse_gpu_sim::{KernelProfile, MemPool, Mode, PoolMark};

#[derive(Clone)]
struct SddmmState {
    mem: MemPool,
    base: PoolMark,
}

/// A planned SDDMM. Unlike SpMM, both value operands change per run (the
/// mask contributes structure, not values, and its device residency is
/// address-only), so the plan's reuse is the pool itself: every run
/// rewinds the arena to the plan's base mark instead of growing a fresh
/// allocation.
///
/// Built by [`super::Context::plan_sddmm`].
pub struct SddmmPlan {
    key: PlanKey,
    algo: SddmmAlgo,
    mask: SparsityPattern,
    core: PlanCore<SddmmState>,
}

impl SddmmPlan {
    pub(super) fn build(
        ctx: &Context,
        key: PlanKey,
        algo: SddmmAlgo,
        mask: &SparsityPattern,
    ) -> Self {
        assert_ne!(algo, SddmmAlgo::Auto, "algo must be resolved");
        let mem = MemPool::new();
        let base = mem.mark();
        SddmmPlan {
            key,
            algo,
            mask: mask.clone(),
            core: PlanCore::new(ctx, OpKind::Sddmm, algo.label(), SddmmState { mem, base }),
        }
    }

    /// The concrete algorithm the plan executes (never `Auto`).
    pub fn algo(&self) -> SddmmAlgo {
        self.algo
    }

    /// The mask the plan captured.
    pub fn mask(&self) -> &SparsityPattern {
        &self.mask
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

    /// Check the operands, rewind `state` to the base mark, stage and
    /// launch.
    fn execute(
        &self,
        state: &mut SddmmState,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
        mode: Mode,
    ) -> Result<Launched<VectorSparse<f16>>, EngineError> {
        self.check_operands(a, b)?;
        state.mem.release_to(state.base);
        let mem = &mut state.mem;
        let fp = |mem: &MemPool| self.operand_fp(mem);
        Ok(match self.algo {
            SddmmAlgo::OctetReg | SddmmAlgo::OctetShfl | SddmmAlgo::OctetArch => {
                let variant = match self.algo {
                    SddmmAlgo::OctetReg => OctetVariant::Reg,
                    SddmmAlgo::OctetShfl => OctetVariant::Shfl,
                    _ => OctetVariant::Arch,
                };
                let kernel = OctetSddmm::new(mem, a, b, &self.mask, variant, mode);
                self.core
                    .launch(mem, &kernel, mode, fp, |m| kernel.result(m))
            }
            SddmmAlgo::FpuSubwarp => {
                let kernel = FpuSubwarpSddmm::new(mem, a, b, &self.mask, mode);
                self.core
                    .launch(mem, &kernel, mode, fp, |m| kernel.result(m))
            }
            SddmmAlgo::Wmma => {
                let kernel = WmmaSddmm::new(mem, a, b, &self.mask, mode);
                self.core
                    .launch(mem, &kernel, mode, fp, |m| kernel.result(m))
            }
            SddmmAlgo::Auto => {
                return Err(EngineError::Internal {
                    what: "Auto algorithm survived plan build",
                })
            }
        })
    }

    /// The memoization operand fingerprint: mask structure, descriptor
    /// and post-staging pool layout. Unlike SpMM the pool is restaged per
    /// run, so it is taken at launch — the rewind discipline makes it
    /// identical across runs of one plan.
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
        self.core.run(|state, mode| self.execute(state, a, b, mode))
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

    /// Profile the planned SDDMM (sampled performance model).
    pub fn try_profile(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
    ) -> Result<KernelProfile, EngineError> {
        self.core
            .profile(|state, mode| self.execute(state, a, b, mode))
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
    /// [`try_run`](SddmmPlan::try_run) sequentially. When the context is
    /// tracing, the batch runs sequentially instead so the recorded
    /// timeline stays deterministic.
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
        self.core.run_batch(a_batch.len(), |state, mode, i| {
            self.execute(state, &a_batch[i], &b_batch[i], mode)
        })
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
