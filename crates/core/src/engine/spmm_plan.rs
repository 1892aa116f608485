//! A captured SpMM problem: encode once, stage once, run many times.

use super::plan_core::{Launched, PlanCore};
use super::{ell_twin, pattern_structure_hash, Context, EngineError, OpKind, PlanKey};
use crate::api::SpmmAlgo;
use crate::compose::TilingScheme;
use crate::spmm::{BlockedEllSpmm, DenseGemm, FpuSubwarpSpmm, OctetSpmm, WmmaSpmm};
use crate::util::{download_dense, upload_ell, upload_vs, EllBuffers, VsBuffers};
use vecsparse_formats::{BlockedEll, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::{Fingerprint, FingerprintHasher};
use vecsparse_gpu_sim::{BufferId, ElemWidth, KernelProfile, KernelSpec, MemPool, Mode};

/// Device-side handles of the staged sparse operand.
#[derive(Clone, Copy)]
enum Staged {
    Vs(VsBuffers),
    Ell(EllBuffers),
    Dense(BufferId),
}

/// Mutable per-plan device state: the pool plus the reusable RHS and
/// output buffers.
#[derive(Clone)]
struct PlanState {
    mem: MemPool,
    staged: Staged,
    /// Whether the staged operand's *values* have been materialised.
    /// Structure arrays are address-only in every mode (kernels read
    /// structure host-side), so plans stage values lazily: a plan that
    /// only ever profiles never pays the host→device value conversion.
    resident: bool,
    b_buf: BufferId,
    out_buf: BufferId,
}

/// A planned SpMM: the sparse operand is encoded and resident in the
/// plan's private [`MemPool`]; each [`run`](SpmmPlan::run) only writes
/// the RHS values into the staged buffer and launches.
///
/// Built by [`super::Context::plan_spmm`].
pub struct SpmmPlan {
    key: PlanKey,
    algo: SpmmAlgo,
    /// Tiling-scheme point the tuner selected for a scheme-compiled
    /// kernel (`None`: the kernel's default scheme).
    scheme: Option<TilingScheme>,
    a: VectorSparse<f16>,
    /// Blocked-ELL surrogate, derived once (fixes the old per-call
    /// re-encoding in `api::ell_equivalent`). Only for `BlockedEll`.
    ell: Option<BlockedEll<f16>>,
    /// Densified twin, derived once. Only for `Dense`.
    dense: Option<DenseMatrix<f16>>,
    /// Fingerprint of everything the memoization signature must cover
    /// beyond the certificate: operation, algorithm, descriptor, the full
    /// pattern structure, and the staged pool layout.
    operand_fp: Fingerprint,
    core: PlanCore<PlanState>,
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
        let mut mem = MemPool::new();
        // Address-only staging throughout: operand values are only read
        // by functional launches, so `execute` materialises them lazily
        // and profile-only plans skip the conversion entirely.
        let (staged, ell, dense) = match algo {
            SpmmAlgo::BlockedEll => {
                let ell = ell_twin(&a);
                let bufs = upload_ell(&mut mem, &ell, Mode::Performance);
                (Staged::Ell(bufs), Some(ell), None)
            }
            SpmmAlgo::Dense => {
                let dense = a.to_dense(Layout::RowMajor);
                let buf = mem.alloc_ghost(ElemWidth::B16, dense.data().len());
                (Staged::Dense(buf), None, Some(dense))
            }
            _ => (
                Staged::Vs(upload_vs(&mut mem, &a, Mode::Performance)),
                None,
                None,
            ),
        };
        let b_buf = mem.alloc_zeroed(ElemWidth::B16, key.k * key.n);
        let out_buf = mem.alloc_zeroed(ElemWidth::B16, key.m * key.n);
        // Only the octet SpMM compiles from a scheme today; other
        // algorithms execute at their fixed default point.
        let scheme = if algo == SpmmAlgo::Octet {
            scheme
        } else {
            None
        };
        let operand_fp = {
            let mut h = FingerprintHasher::new();
            h.write_bytes(b"spmm");
            h.write_bytes(algo.label().as_bytes());
            // The scheme changes the compiled program, so it must enter
            // the memo fingerprint. A fixed-algorithm plan and a tuned
            // plan that landed on the default scheme hash identically.
            h.write_bytes(
                scheme
                    .unwrap_or(crate::spmm::compose::DEFAULT_SCHEME)
                    .label()
                    .as_bytes(),
            );
            for d in [key.m, key.k, key.n, key.v] {
                h.write_u64(d as u64);
            }
            h.write_u64(pattern_structure_hash(a.pattern()));
            h.write_u64(mem.layout_hash());
            h.finish()
        };
        let state = PlanState {
            mem,
            staged,
            resident: false,
            b_buf,
            out_buf,
        };
        SpmmPlan {
            key,
            algo,
            scheme,
            a,
            ell,
            dense,
            operand_fp,
            core: PlanCore::new(ctx, OpKind::Spmm, algo.label(), state),
        }
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

    /// Check `b`, stage it into `state` and launch.
    fn execute(
        &self,
        state: &mut PlanState,
        b: &DenseMatrix<f16>,
        mode: Mode,
    ) -> Result<Launched<DenseMatrix<f16>>, EngineError> {
        self.check_rhs(b)?;
        let PlanState {
            mem,
            staged,
            resident,
            b_buf,
            out_buf,
        } = state;
        if mode == Mode::Functional {
            if !*resident {
                // Deferred host→device copy of the operand values. The
                // dense twin scatters only stored vectors into a zero
                // image: untouched `f16` zeros convert to the `+0.0` a
                // fresh image already holds, so the bits match a
                // full-image conversion.
                match staged {
                    Staged::Vs(bufs) => mem.materialize(
                        bufs.values,
                        self.a.values().iter().map(|v| v.to_f32()).collect(),
                    ),
                    Staged::Ell(bufs) => {
                        let ell = self.ell.as_ref().ok_or(EngineError::UnstagedBuffer {
                            what: "blocked-ell twin",
                        })?;
                        mem.materialize(
                            bufs.values,
                            ell.values().iter().map(|v| v.to_f32()).collect(),
                        );
                    }
                    Staged::Dense(buf) => mem.materialize(*buf, self.a.to_f32_image()),
                }
                *resident = true;
            }
            mem.replace(*b_buf, b.data().iter().map(|v| v.to_f32()));
            mem.fill(*out_buf, 0.0);
        }
        let kernel: Box<dyn KernelSpec> = match (self.algo, staged) {
            (SpmmAlgo::Octet, Staged::Vs(bufs)) => Box::new(OctetSpmm::from_staged_scheme(
                &self.a,
                b,
                *bufs,
                *b_buf,
                *out_buf,
                self.scheme.unwrap_or(crate::spmm::compose::DEFAULT_SCHEME),
            )),
            (SpmmAlgo::Wmma, Staged::Vs(bufs)) => {
                Box::new(WmmaSpmm::from_staged(&self.a, b, *bufs, *b_buf, *out_buf))
            }
            (SpmmAlgo::FpuSubwarp, Staged::Vs(bufs)) => Box::new(FpuSubwarpSpmm::from_staged(
                &self.a, b, *bufs, *b_buf, *out_buf,
            )),
            (SpmmAlgo::BlockedEll, Staged::Ell(bufs)) => {
                let ell = self.ell.as_ref().ok_or(EngineError::UnstagedBuffer {
                    what: "blocked-ell twin",
                })?;
                Box::new(BlockedEllSpmm::from_staged(
                    ell,
                    b,
                    EllBuffers {
                        values: bufs.values,
                        block_col_idx: bufs.block_col_idx,
                    },
                    *b_buf,
                    *out_buf,
                ))
            }
            (SpmmAlgo::Dense, Staged::Dense(a_buf)) => {
                let dense = self.dense.as_ref().ok_or(EngineError::UnstagedBuffer {
                    what: "densified twin",
                })?;
                Box::new(DenseGemm::from_staged(
                    dense, b, *a_buf, *b_buf, *out_buf, mode,
                ))
            }
            _ => {
                return Err(EngineError::UnstagedBuffer {
                    what: "sparse operand encoding for the planned algorithm",
                })
            }
        };
        let (m, n, out_buf) = (self.key.m, self.key.n, *out_buf);
        Ok(self.core.launch(
            mem,
            kernel.as_ref(),
            mode,
            |_| self.operand_fp,
            |mem| download_dense(mem, out_buf, m, n),
        ))
    }

    /// Run the planned SpMM on one RHS.
    pub fn try_run(&self, b: &DenseMatrix<f16>) -> Result<DenseMatrix<f16>, EngineError> {
        self.core.run(|state, mode| self.execute(state, b, mode))
    }

    /// Infallible [`SpmmPlan::try_run`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message if `b` does not match the
    /// plan's `k × n` row-major shape.
    pub fn run(&self, b: &DenseMatrix<f16>) -> DenseMatrix<f16> {
        self.try_run(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Profile the planned SpMM (sampled performance model).
    pub fn try_profile(&self, b: &DenseMatrix<f16>) -> Result<KernelProfile, EngineError> {
        self.core
            .profile(|state, mode| self.execute(state, b, mode))
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
    /// [`try_run`](SpmmPlan::try_run) sequentially. When the context is
    /// tracing, the batch runs sequentially instead so the recorded
    /// timeline stays deterministic.
    pub fn try_run_batch(
        &self,
        batch: &[DenseMatrix<f16>],
    ) -> Result<Vec<DenseMatrix<f16>>, EngineError> {
        for b in batch {
            self.check_rhs(b)?;
        }
        self.core.run_batch(batch.len(), |state, mode, i| {
            self.execute(state, &batch[i], mode)
        })
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
