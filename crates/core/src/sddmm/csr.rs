//! Fine-grained SDDMM — a surrogate for `cusparseSDDMM` (scalar CSR mask,
//! single or higher precision only, matching the real API's restriction).
//!
//! One warp per output row; for each nonzero the lanes split the K
//! dimension, accumulate partial dot products with FFMA, and reduce with
//! five shuffle rounds. Simple and compact, but every nonzero pays a full
//! warp reduction — fine at 95%+ sparsity, hopeless below.

use super::vector_tiles;
use crate::compose::scheme_for;
use crate::native::{self, Contract, Grouping};
use crate::registry::KernelId;
use crate::util::{lanes, upload_dense, upload_pattern, width_of, VsBuffers};
use vecsparse_formats::{DenseMatrix, Layout, Scalar, SparsityPattern, VectorSparse};
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, InstrKind, KernelProfile, KernelSpec, Launch, LaunchConfig,
    MemPool, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The fine-grained SDDMM kernel (single precision, like cuSPARSE's).
pub struct CsrSddmm<'m> {
    a: &'m DenseMatrix<f32>,
    b: &'m DenseMatrix<f32>,
    mask: &'m SparsityPattern,
    a_buf: BufferId,
    b_buf: BufferId,
    idx: VsBuffers,
    out_buf: BufferId,
    tiles: Vec<(usize, usize, usize)>,
    sites: [Site; 6],
    prog: Program,
    static_len: u32,
}

impl<'m> CsrSddmm<'m> {
    /// Stage inputs. The mask must be scalar-grained (V = 1), matching
    /// `cusparseSDDMM`.
    ///
    /// # Panics
    /// Panics on shape/layout mismatch or V ≠ 1.
    pub fn new(
        mem: &mut MemPool,
        a: &'m DenseMatrix<f32>,
        b: &'m DenseMatrix<f32>,
        mask: &'m SparsityPattern,
        mode: Mode,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SDDMM inner dimension mismatch");
        assert_eq!(mask.v(), 1, "cusparseSDDMM supports fine-grained masks");
        assert_eq!(a.layout(), Layout::RowMajor);
        assert_eq!(b.layout(), Layout::ColMajor);
        let a_buf = upload_dense(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let idx = upload_pattern(mem, mask, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<f32>(), mask.nnz()),
            Mode::Performance => mem.alloc_ghost(width_of::<f32>(), mask.nnz()),
        };
        let tiles = vector_tiles(mask, usize::MAX);
        let mut p = Program::new();
        let sites = [
            p.site("ld_idx", 0),
            p.site("ldg_a", 0),
            p.site("ldg_b", 0),
            p.site("math", 0),
            // Shuffle + add of each butterfly round sit at adjacent pcs.
            p.site_span("red", 0, 2),
            p.site("stg", 0),
        ];
        let static_len = p.static_len() + 69;
        CsrSddmm {
            a,
            b,
            mask,
            a_buf,
            b_buf,
            idx,
            out_buf,
            tiles,
            sites,
            prog: p,
            static_len,
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> VectorSparse<f32> {
        let data = mem.contents(self.out_buf);
        VectorSparse::new(
            self.mask.clone(),
            data.iter().map(|&x| f32::from_f32(x)).collect(),
        )
    }
}

impl KernelSpec for CsrSddmm<'_> {
    fn name(&self) -> String {
        "sddmm-csr(single)".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.tiles.len().max(1),
            warps_per_cta: 1,
            regs_per_thread: 40,
            smem_elems: 0,
            smem_elem_bytes: 4,
            static_instrs: self.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        super::tile_shard_layout(self.out_buf, self.mask, &self.tiles)
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let (row, start, len) = self.tiles[cta.cta_id];
        let k_total = self.a.cols();
        debug_assert_eq!(k_total, self.b.rows());
        let functional = cta.mode == Mode::Functional;
        let [ld_idx, ldg_a, ldg_b, math, red, stg] = self.sites;
        let k_per_lane = k_total.div_ceil(32).max(1);
        let epl = k_per_lane.min(4);

        let mut w = cta.warp(0);
        if len == 0 {
            return;
        }
        let ci = lanes(|l| if l < len { Some(start + l) } else { None });
        let ci_tok = w.ldg(ld_idx, self.idx.col_idx, &ci, 1, &[]).tok();

        // A row is loaded once and cached across the row's nonzeros.
        let a_offs = lanes(|l| {
            let k = l * k_per_lane;
            if k < k_total {
                Some(row * k_total + k)
            } else {
                None
            }
        });
        let a_tok = w.ldg(ldg_a, self.a_buf, &a_offs, epl, &[]).tok();

        let mut out_vals = vec![0.0f32; len];
        let mut red_tok = Tok::NONE;
        for (j, out) in out_vals.iter_mut().enumerate() {
            let col = self.mask.col_idx()[start + j] as usize;
            let offs = lanes(|l| {
                let k = l * k_per_lane;
                if k < k_total {
                    Some(col * k_total + k)
                } else {
                    None
                }
            });
            let b_tok = w.ldg(ldg_b, self.b_buf, &offs, epl, &[ci_tok]).tok();
            let m = w.math(math, InstrKind::Ffma, k_per_lane as u32, &[a_tok, b_tok]);
            // Five butterfly rounds reduce the 32 partials.
            let mut t = m;
            for round in 0..5 {
                let g = WVec::ghost(1, t);
                let sh = w.shfl(red, &g, |l| l ^ (1 << round), &[t]);
                t = w.math(Site(red.0 + 1), InstrKind::Ffma, 1, &[sh.tok()]);
            }
            red_tok = t;
            if functional {
                let mut sum = 0.0f32;
                for k in 0..k_total {
                    sum += w.mem().read(self.a_buf, row * k_total + k)
                        * w.mem().read(self.b_buf, col * k_total + k);
                }
                *out = sum;
            }
        }

        for st in 0..len.div_ceil(32) {
            let offs = lanes(|l| {
                let flat = st * 32 + l;
                if flat < len {
                    Some(start + flat)
                } else {
                    None
                }
            });
            let mut vals = WVec::zeros(1);
            if functional {
                for l in 0..32 {
                    let flat = st * 32 + l;
                    if flat < len {
                        vals.set(l, 0, out_vals[flat]);
                    }
                }
            } else {
                vals = WVec::ghost(1, red_tok);
            }
            w.stg(stg, self.out_buf, &offs, &vals, &[red_tok]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Flat ascending-k dots, stored as raw f32.
        let (ab, out) = ctx.split([self.a_buf, self.b_buf], self.out_buf);
        let s = scheme_for(KernelId::SddmmCsr);
        let c = Contract::of(s.tile, s.out_bits);
        native::sddmm_vectors(out, ab, self.a.cols(), self.mask, c, Grouping::Flat)
    }
}

/// Functional fine-grained SDDMM.
pub fn sddmm_csr(
    gpu: &GpuConfig,
    a: &DenseMatrix<f32>,
    b: &DenseMatrix<f32>,
    mask: &SparsityPattern,
) -> VectorSparse<f32> {
    let mut mem = MemPool::new();
    let kernel = CsrSddmm::new(&mut mem, a, b, mask, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the fine-grained SDDMM kernel.
pub fn profile_sddmm_csr(
    gpu: &GpuConfig,
    a: &DenseMatrix<f32>,
    b: &DenseMatrix<f32>,
    mask: &SparsityPattern,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = CsrSddmm::new(&mut mem, a, b, mask, Mode::Performance);
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
    fn matches_reference() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f32>(16, 64, Layout::RowMajor, 1);
        let b = gen::random_dense::<f32>(64, 48, Layout::ColMajor, 2);
        let mask = gen::random_pattern(16, 48, 1, 0.8, 3);
        let got = sddmm_csr(&gpu, &a, &b, &mask);
        let want = reference::sddmm(&a, &b, &mask);
        for (g, wv) in got.values().iter().zip(want.values()) {
            assert!((g - wv).abs() < 1e-4);
        }
    }

    #[test]
    fn shuffle_heavy_per_nonzero() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f32>(64, 64, Layout::RowMajor, 4);
        let b = gen::random_dense::<f32>(64, 256, Layout::ColMajor, 5);
        let mask = gen::random_pattern(64, 256, 1, 0.9, 6);
        let p = profile_sddmm_csr(&gpu, &a, &b, &mask);
        // Five shuffles per nonzero.
        assert_eq!(p.instrs.shfl, 5 * mask.nnz() as u64);
    }
}
