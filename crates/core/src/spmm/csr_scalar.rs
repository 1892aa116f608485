//! Fine-grained CSR SpMM — a surrogate for `cusparseSpMM` on a CSR input
//! (the "cusparse" series of Fig. 4).
//!
//! Row-split design: each CTA (one warp) produces one output row, walking
//! the row's scalar nonzeros. Every nonzero needs its own index/value
//! loads (narrow requests) and a gathered `B` row, so data reuse is
//! minimal and load chains dominate — the reason the fine-grained kernel
//! only pays off towards 95%+ sparsity and falls behind `cublasHgemm`
//! under half precision (§3.1).

use crate::compose::scheme_for;
use crate::native::{self, Contract};
use crate::registry::KernelId;
use crate::util::{download_dense, lanes, upload_csr, upload_dense, width_of, CsrBuffers};
use vecsparse_formats::{Csr, DenseMatrix, Layout, Scalar};
use vecsparse_fp16::{f16, hmul_fadd};
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, InstrKind, KernelProfile, KernelSpec, Launch, LaunchConfig,
    MemPool, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The fine-grained CSR SpMM kernel, generic over precision.
pub struct CsrScalarSpmm<'m, T: Scalar> {
    a: &'m Csr<T>,
    b: &'m DenseMatrix<T>,
    bufs: CsrBuffers,
    b_buf: BufferId,
    out_buf: BufferId,
    sites: Sites,
    prog: Program,
    static_len: u32,
}

struct Sites {
    ld_rowptr: Site,
    ld_idx: Site,
    ld_val: Site,
    ldg_b: Site,
    math: Site,
    addr: Site,
    stg: Site,
}

impl<'m, T: Scalar> CsrScalarSpmm<'m, T> {
    /// Stage inputs.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn new(mem: &mut MemPool, a: &'m Csr<T>, b: &'m DenseMatrix<T>, mode: Mode) -> Self {
        assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
        assert_eq!(b.layout(), Layout::RowMajor);
        let bufs = upload_csr(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<T>(), a.rows() * b.cols()),
            Mode::Performance => mem.alloc_ghost(width_of::<T>(), a.rows() * b.cols()),
        };
        let mut p = Program::new();
        let sites = Sites {
            ld_rowptr: p.site("ld_rowptr", 0),
            ld_idx: p.site("ld_idx", 0),
            ld_val: p.site("ld_val", 0),
            ldg_b: p.site("ldg_b", 0),
            math: p.site("math", 0),
            addr: p.site("addr", 0),
            stg: p.site("stg", 0),
        };
        // Rolled inner loop: a compact program (the kernel's problem is
        // memory behaviour, not instruction supply).
        let static_len = p.static_len() + 60;
        CsrScalarSpmm {
            a,
            b,
            bufs,
            b_buf,
            out_buf,
            sites,
            prog: p,
            static_len,
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<T> {
        download_dense(mem, self.out_buf, self.a.rows(), self.b.cols())
    }
}

impl<T: Scalar> KernelSpec for CsrScalarSpmm<'_, T> {
    fn name(&self) -> String {
        format!("spmm-csr({})", T::NAME)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.a.rows(),
            warps_per_cta: 1,
            regs_per_thread: 48,
            smem_elems: 0,
            smem_elem_bytes: T::bytes() as u64,
            static_instrs: self.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        // One CTA per scalar row; the output slice of row r is C[r, ..].
        super::block_row_shard_layout(
            self.out_buf,
            self.a.rows(),
            1,
            self.a.rows(),
            self.b.cols(),
            1,
        )
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let row = cta.cta_id;
        let n = self.b.cols();
        let functional = cta.mode == Mode::Functional;
        let half = T::BITS == 16;
        let s = &self.sites;
        let cols_per_lane = n.div_ceil(32).max(1);
        let epl = cols_per_lane.min(128 / T::BITS as usize);
        let range = self.a.row_range(row);

        let mut acc = vec![0.0f32; n];
        let mut w = cta.warp(0);
        let rp = lanes(|l| if l < 2 { Some(row + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.row_ptr, &rp, 1, &[]).tok();
        let mut math_tok = Tok::NONE;

        for i in range.clone() {
            let col = self.a.col_idx()[i] as usize;
            // Scalar index + value loads: one narrow request each.
            let one = lanes(|l| if l == 0 { Some(i) } else { None });
            let idx_tok = w.ldg(s.ld_idx, self.bufs.col_idx, &one, 1, &[rp_tok]).tok();
            let val = w.ldg(s.ld_val, self.bufs.values, &one, 1, &[rp_tok]);
            let addr_tok = w.int_ops(s.addr, 2, &[idx_tok]);
            // Gather the B row across lanes.
            let mut b_tok = Tok::NONE;
            for part in 0..cols_per_lane.div_ceil(epl) {
                let offs = lanes(|l| {
                    let c = l * cols_per_lane + part * epl;
                    if c < n {
                        Some(col * n + c)
                    } else {
                        None
                    }
                });
                b_tok = w.ldg(s.ldg_b, self.b_buf, &offs, epl, &[addr_tok]).tok();
            }
            let kind = if half {
                InstrKind::Hfma2
            } else {
                InstrKind::Ffma
            };
            let per_lane_macs = cols_per_lane as u32;
            math_tok = w.math(
                s.math,
                kind,
                (per_lane_macs / if half { 2 } else { 1 }).max(1),
                &[b_tok, val.tok(), math_tok],
            );

            if functional {
                let a_val = w.mem().read(self.bufs.values, i);
                for c in 0..n {
                    let b_val = w.mem().read(self.b_buf, col * n + c);
                    acc[c] = if half {
                        hmul_fadd(f16::from_f32(a_val), f16::from_f32(b_val), acc[c])
                    } else {
                        acc[c] + a_val * b_val
                    };
                }
            }
        }

        for part in 0..cols_per_lane.div_ceil(epl) {
            let offs = lanes(|l| {
                let c = l * cols_per_lane + part * epl;
                if c < n {
                    Some(row * n + c)
                } else {
                    None
                }
            });
            let mut vals = WVec::zeros(epl);
            if functional {
                for l in 0..32 {
                    for e in 0..epl {
                        let c = l * cols_per_lane + part * epl + e;
                        if c < n {
                            vals.set(l, e, T::from_f32(acc[c]).to_f32());
                        }
                    }
                }
            } else {
                vals = WVec::ghost(epl, math_tok);
            }
            w.stg(s.stg, self.out_buf, &offs, &vals, &[math_tok]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // The row's scalar nonzeros in ascending order.
        let ([values, b], out) = ctx.split([self.bufs.values, self.b_buf], self.out_buf);
        let col_idx = self.a.col_idx();
        let c = Contract::of(scheme_for(KernelId::SpmmCsrScalar).tile, T::BITS);
        native::spmm_rows(out, b, self.b.cols(), c, |row| {
            self.a
                .row_range(row)
                .map(|i| (values[i], col_idx[i] as usize))
        });
        true
    }
}

/// Functional fine-grained CSR SpMM.
pub fn spmm_csr<T: Scalar>(gpu: &GpuConfig, a: &Csr<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut mem = MemPool::new();
    let kernel = CsrScalarSpmm::new(&mut mem, a, b, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the fine-grained CSR SpMM kernel.
pub fn profile_spmm_csr<T: Scalar>(
    gpu: &GpuConfig,
    a: &Csr<T>,
    b: &DenseMatrix<T>,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = CsrScalarSpmm::new(&mut mem, a, b, Mode::Performance);
    Launch::new(&mut mem, &kernel)
        .gpu(gpu)
        .performance()
        .run()
        .profile
        .expect("profile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::{gen, reference};

    #[test]
    fn matches_reference_half() {
        let gpu = GpuConfig::small();
        let a = gen::random_csr::<f16>(16, 64, 0.8, 1);
        let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 2);
        let got = spmm_csr(&gpu, &a, &b);
        let want = reference::spmm_csr(&a, &b);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn matches_reference_single() {
        let gpu = GpuConfig::small();
        let a = gen::random_csr::<f32>(16, 64, 0.9, 3);
        let b = gen::random_dense::<f32>(64, 96, Layout::RowMajor, 4);
        let got = spmm_csr(&gpu, &a, &b);
        let want = reference::spmm_csr(&a, &b);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn sparser_is_faster() {
        let gpu = GpuConfig::small();
        let b = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 5);
        let dense_ish = gen::random_csr::<f16>(512, 512, 0.5, 6);
        let sparse = gen::random_csr::<f16>(512, 512, 0.98, 7);
        let pd = profile_spmm_csr(&gpu, &dense_ish, &b);
        let ps = profile_spmm_csr(&gpu, &sparse, &b);
        assert!(
            ps.cycles * 4.0 < pd.cycles,
            "{} vs {}",
            ps.cycles,
            pd.cycles
        );
    }
}
