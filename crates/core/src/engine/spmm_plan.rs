//! A captured SpMM problem: encode, stage and build the kernel once, run
//! many times.

use super::plan_core::{Kernel, PlanCore};
use super::{ell_twin, pattern_structure_hash, Context, EngineError, OpKind, PlanKey};
use crate::api::SpmmAlgo;
use crate::compose::TilingScheme;
use crate::spmm::{BlockedEllSpmm, DenseGemm, FpuSubwarpSpmm, OctetSpmm, WmmaSpmm};
use crate::util::{download_dense, upload_ell, upload_vs, EllBuffers, VsBuffers};
use std::iter;
use vecsparse_formats::{BlockedEll, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::{Fingerprint, FingerprintHasher};
use vecsparse_gpu_sim::{BufferId, ElemWidth, KernelProfile, MemPool, Mode};

/// The staged sparse operand: its device buffers and, for Blocked-ELL,
/// the surrogate whose values they receive.
enum Staged {
    Vs(VsBuffers),
    Ell(EllBuffers, BlockedEll<f16>),
    /// The row-major dense image of `A`.
    Dense(BufferId),
}

impl Staged {
    /// The buffer that receives the operand's values.
    fn values(&self) -> BufferId {
        match self {
            Staged::Vs(bufs) => bufs.values,
            Staged::Ell(bufs, _) => bufs.values,
            Staged::Dense(buf) => *buf,
        }
    }
}

/// A planned SpMM: the sparse operand is encoded and staged in the plan's
/// private [`MemPool`] and the kernel is built once over the staged
/// buffers; each [`run`](SpmmPlan::run) only writes the RHS values and a
/// zeroed output into their buffers and launches.
///
/// Built by [`super::Context::plan_spmm`].
pub struct SpmmPlan {
    key: PlanKey,
    algo: SpmmAlgo,
    /// Tiling-scheme point the tuner selected for a scheme-compiled
    /// kernel (`None`: the kernel's default scheme).
    scheme: Option<TilingScheme>,
    a: VectorSparse<f16>,
    staged: Staged,
    b_buf: BufferId,
    out_buf: BufferId,
    core: PlanCore,
}

impl SpmmPlan {
    pub(super) fn build(
        ctx: &Context,
        key: PlanKey,
        algo: SpmmAlgo,
        scheme: Option<TilingScheme>,
        a: &VectorSparse<f16>,
    ) -> Self {
        assert_ne!(algo, SpmmAlgo::Auto, "algo must be resolved");
        let a = a.clone();
        let (m, k, n) = (key.m, key.k, key.n);
        // Every buffer is address-only, in the order each kernel's `new`
        // stages them: A, B, the output.
        let mut mem = MemPool::new();
        let staged = match algo {
            SpmmAlgo::BlockedEll => {
                let ell = ell_twin(&a);
                Staged::Ell(upload_ell(&mut mem, &ell, Mode::Performance), ell)
            }
            SpmmAlgo::Dense => Staged::Dense(mem.alloc_ghost(ElemWidth::B16, m * k)),
            _ => Staged::Vs(upload_vs(&mut mem, &a, Mode::Performance)),
        };
        let b_buf = mem.alloc_ghost(ElemWidth::B16, k * n);
        let out_buf = mem.alloc_ghost(ElemWidth::B16, m * n);
        // Only the octet SpMM compiles from a scheme today; other
        // algorithms execute at their fixed default point.
        let scheme = scheme.filter(|_| algo == SpmmAlgo::Octet);
        let kernel = |mode: Mode| -> Kernel {
            match &staged {
                Staged::Ell(bufs, ell) => {
                    Box::new(BlockedEllSpmm::from_staged(ell, n, *bufs, b_buf, out_buf))
                }
                Staged::Dense(a_buf) => Box::new(DenseGemm::<f16>::from_staged(
                    m, k, n, *a_buf, b_buf, out_buf, mode,
                )),
                Staged::Vs(bufs) => {
                    let pattern = a.shared_pattern();
                    match algo {
                        SpmmAlgo::Wmma => {
                            Box::new(WmmaSpmm::from_staged(pattern, n, *bufs, b_buf, out_buf))
                        }
                        SpmmAlgo::FpuSubwarp => Box::new(FpuSubwarpSpmm::<f16>::from_staged(
                            pattern, n, *bufs, b_buf, out_buf,
                        )),
                        _ => Box::new(OctetSpmm::from_staged(
                            pattern,
                            n,
                            *bufs,
                            b_buf,
                            out_buf,
                            scheme.unwrap_or(crate::spmm::compose::DEFAULT_SCHEME),
                        )),
                    }
                }
            }
        };
        SpmmPlan {
            core: PlanCore::new(
                ctx,
                OpKind::Spmm,
                algo.label(),
                mem,
                kernel(Mode::Functional),
                (algo == SpmmAlgo::Dense).then(|| kernel(Mode::Performance)),
            ),
            key,
            algo,
            scheme,
            a,
            staged,
            b_buf,
            out_buf,
        }
    }

    /// The memoization operand fingerprint of the plan staged in `mem`:
    /// everything the signature must cover beyond the certificate
    /// (operation, algorithm, scheme, descriptor, the full pattern
    /// structure and the staged pool layout). Taken once per plan, by
    /// its first memoized profile.
    fn operand_fp(&self, mem: &MemPool) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_bytes(b"spmm");
        h.write_bytes(self.algo.label().as_bytes());
        // The scheme changes the compiled program, so it must enter the
        // memo fingerprint. A fixed-algorithm plan and a tuned plan that
        // landed on the default scheme hash identically.
        h.write_bytes(
            self.scheme
                .unwrap_or(crate::spmm::compose::DEFAULT_SCHEME)
                .label()
                .as_bytes(),
        );
        for d in [self.key.m, self.key.k, self.key.n, self.key.v] {
            h.write_u64(d as u64);
        }
        h.write_u64(pattern_structure_hash(self.a.pattern()));
        h.write_u64(mem.layout_hash());
        h.finish()
    }

    /// The concrete algorithm the plan executes (never `Auto`).
    pub fn algo(&self) -> SpmmAlgo {
        self.algo
    }

    /// Label of the effective tiling scheme the plan executes (the
    /// algorithm's default scheme when the tuner did not sweep).
    pub fn scheme_label(&self) -> String {
        match self.scheme {
            Some(s) => s.label(),
            None => crate::registry::KernelId::parse(self.algo.label())
                .map(|id| crate::compose::scheme_for(id).label())
                .unwrap_or_else(|| "default".into()),
        }
    }

    fn check_rhs(&self, b: &DenseMatrix<f16>) -> Result<(), EngineError> {
        if b.rows() != self.key.k {
            return Err(EngineError::DimensionMismatch {
                what: "RHS rows",
                expected: self.key.k,
                got: b.rows(),
            });
        }
        if b.cols() != self.key.n {
            return Err(EngineError::DimensionMismatch {
                what: "RHS cols",
                expected: self.key.n,
                got: b.cols(),
            });
        }
        if b.layout() != Layout::RowMajor {
            return Err(EngineError::LayoutMismatch {
                what: "RHS",
                expected: "row-major",
                got: "column-major",
            });
        }
        Ok(())
    }

    /// Write a functional run's binary16 values into `mem`, copied as
    /// they are: the checked `b`, a zeroed output and, while its buffer
    /// is still address-only (the pool's first run), the sparse operand,
    /// so a plan that only profiles holds no values.
    fn stage(&self, mem: &mut MemPool, b: &DenseMatrix<f16>) {
        if mem.contents::<f16>(self.staged.values()).is_empty() {
            match &self.staged {
                Staged::Vs(bufs) => mem.replace(bufs.values, self.a.values().iter().copied()),
                Staged::Ell(bufs, ell) => mem.replace(bufs.values, ell.values().iter().copied()),
                Staged::Dense(buf) => {
                    let image = self.a.to_dense(Layout::RowMajor);
                    mem.replace(*buf, image.data().iter().copied())
                }
            }
        }
        mem.replace(self.b_buf, b.data().iter().copied());
        mem.replace(
            self.out_buf,
            iter::repeat_n(f16::ZERO, self.key.m * self.key.n),
        );
    }

    fn read(&self, mem: &MemPool) -> DenseMatrix<f16> {
        download_dense(mem, self.out_buf, self.key.m, self.key.n)
    }

    /// Run the planned SpMM on one RHS.
    pub fn try_run(&self, b: &DenseMatrix<f16>) -> Result<DenseMatrix<f16>, EngineError> {
        self.check_rhs(b)?;
        Ok(self
            .core
            .run(|mem| self.stage(mem, b), |mem| self.read(mem)))
    }

    /// Infallible [`SpmmPlan::try_run`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message if `b` does not match the
    /// plan's `k × n` row-major shape.
    pub fn run(&self, b: &DenseMatrix<f16>) -> DenseMatrix<f16> {
        self.try_run(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Profile the planned SpMM (sampled performance model). Under
    /// memoization, every profile after the plan's first is one memo
    /// lookup.
    pub fn try_profile(&self, b: &DenseMatrix<f16>) -> Result<KernelProfile, EngineError> {
        self.check_rhs(b)?;
        Ok(self.core.profile(|mem| self.operand_fp(mem)))
    }

    /// Infallible [`SpmmPlan::try_profile`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message on RHS shape mismatch.
    pub fn profile(&self, b: &DenseMatrix<f16>) -> KernelProfile {
        self.try_profile(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run every RHS in the batch, returning outputs in order. Elements
    /// fan out across rayon workers, each owning a private clone of the
    /// staged device state; results are bit-identical to calling
    /// [`try_run`](SpmmPlan::try_run) sequentially, traced or not.
    pub fn try_run_batch(
        &self,
        batch: &[DenseMatrix<f16>],
    ) -> Result<Vec<DenseMatrix<f16>>, EngineError> {
        for b in batch {
            self.check_rhs(b)?;
        }
        self.core.run_batch(
            batch.len(),
            |mem, i| self.stage(mem, &batch[i]),
            |mem| self.read(mem),
        )
    }

    /// Infallible [`SpmmPlan::try_run_batch`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message on an empty batch or any
    /// shape mismatch.
    pub fn run_batch(&self, batch: &[DenseMatrix<f16>]) -> Vec<DenseMatrix<f16>> {
        self.try_run_batch(batch).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::materialised_halves;
    use super::*;
    use vecsparse_formats::gen;
    use vecsparse_gpu_sim::{Backend, GpuConfig};

    /// A plan that has only profiled holds no host values in its pool:
    /// the operand, the RHS and the output stay address-only until the
    /// first functional run writes them, at 2 host bytes per binary16
    /// element.
    #[test]
    fn profile_only_plan_holds_no_values() {
        let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.6, 1);
        let b = gen::random_dense::<f16>(64, 48, Layout::RowMajor, 2);
        for backend in [Backend::Simulated, Backend::Native] {
            let ctx = Context::builder()
                .gpu(GpuConfig::small())
                .backend(backend)
                .build();
            for algo in [
                SpmmAlgo::Octet,
                SpmmAlgo::Wmma,
                SpmmAlgo::FpuSubwarp,
                SpmmAlgo::BlockedEll,
                SpmmAlgo::Dense,
            ] {
                let plan = ctx.plan_spmm(&a, 48, algo);
                let values = || materialised_halves(&plan.core.primary());
                plan.profile(&b);
                assert_eq!(values(), 0, "{algo:?} after a profile");
                plan.run(&b);
                assert!(values() >= 64 * 48 + 32 * 48, "{algo:?} after a run");
            }
        }
    }
}
