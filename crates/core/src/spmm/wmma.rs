//! TCU-based 1-D Warp Tiling SpMM — the intermediate design of §5.2.
//!
//! Same CTA/warp tiling as the octet kernel (one warp per `V × 64` output
//! tile, maximising grid size) but mapped to the TCU with the classic
//! `wmma.m8n32k16` fragment layout. Its §5.2 pathologies, all modelled:
//!
//! * the RHS fragment's register layout only admits **LDG.64** loads in a
//!   64-byte-coalesced pattern (half the transaction efficiency of the
//!   octet kernel's LDG.128), or a shared-memory round trip — guideline V
//!   vs IV, pick your poison (this implementation loads direct, as the
//!   paper's analysis assumes);
//! * `TileK` must be a multiple of **16** (the wmma k), so residue
//!   handling pads up to 15 dummy vectors with full HMMA cost;
//! * when V < 8 the `(V×16)·(16×32)` product still executes as a full
//!   `(8×16)·(16×32)` wmma — wasted computation.
//!
//! The paper uses cuSPARSE Blocked-ELL as its measured TCU baseline and
//! describes this design analytically; it is included here to make the
//! §5 design-space comparison (fpu → wmma → octet) runnable.

use crate::compose::{scheme_for, TilingScheme};
use crate::native::{self, Contract};
use crate::registry::KernelId;
use crate::util::{download_dense, lanes, upload_dense, upload_vs, width_of, VsBuffers};
use vecsparse_formats::{DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, KernelProfile, KernelSpec, Launch, LaunchConfig, MemPool,
    MmaFlavor, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The kernel's named default point in the tiling space.
const SCHEME: TilingScheme = scheme_for(KernelId::SpmmWmma);
/// Output tile width (as in the octet kernel).
const TILE_N: usize = SCHEME.tile_n;
/// Nonzero vectors per wmma step (the k of `wmma.m8n32k16`).
const WMMA_K: usize = SCHEME.tile_k;

/// The §5.2 warp-tiling SpMM kernel.
pub struct WmmaSpmm<'m> {
    a: &'m VectorSparse<f16>,
    b: &'m DenseMatrix<f16>,
    bufs: VsBuffers,
    b_buf: BufferId,
    out_buf: BufferId,
    sites: Sites,
    prog: Program,
    static_len: u32,
}

struct Sites {
    ld_rowptr: Site,
    ld_colidx: Site,
    ld_avals: Site,
    ldg_b: [Site; 8],
    wmma: [Site; 2],
    addr: Site,
    stg: Site,
}

impl<'m> WmmaSpmm<'m> {
    /// Stage inputs.
    ///
    /// # Panics
    /// Panics on shape mismatch or unsupported V.
    pub fn new(
        mem: &mut MemPool,
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        mode: Mode,
    ) -> Self {
        let bufs = upload_vs(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<f16>(), a.rows() * b.cols()),
            Mode::Performance => mem.alloc_ghost(width_of::<f16>(), a.rows() * b.cols()),
        };
        Self::from_staged(a, b, bufs, b_buf, out_buf)
    }

    /// Build the kernel over operands already staged in a pool (the
    /// engine's plan path).
    ///
    /// # Panics
    /// Panics on shape mismatch or unsupported V.
    pub fn from_staged(
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        bufs: VsBuffers,
        b_buf: BufferId,
        out_buf: BufferId,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
        assert_eq!(b.layout(), Layout::RowMajor);
        assert!(matches!(a.v(), 1 | 2 | 4 | 8));
        let mut p = Program::new();
        let ld_rowptr = p.site("ld_rowptr", 0);
        let ld_colidx = p.site("ld_colidx", 0);
        let ld_avals = p.site("ld_avals", 0);
        let mut ldg_b = [Site(0); 8];
        for (i, s) in ldg_b.iter_mut().enumerate() {
            *s = p.site("ldg_b", i as u32);
        }
        // Two wmma.m8n32k16 per step (64 output columns), 16 HMMA each.
        let wmma = [p.site_span("wmma", 0, 16), p.site_span("wmma", 16, 16)];
        let addr = p.site("addr", 0);
        let stg = p.site("stg", 0);
        let static_len = p.static_len() + 60;
        WmmaSpmm {
            a,
            b,
            bufs,
            b_buf,
            out_buf,
            sites: Sites {
                ld_rowptr,
                ld_colidx,
                ld_avals,
                ldg_b,
                wmma,
                addr,
                stg,
            },
            prog: p,
            static_len,
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<f16> {
        download_dense(mem, self.out_buf, self.a.rows(), self.b.cols())
    }

    fn n_chunks(&self) -> usize {
        self.b.cols().div_ceil(TILE_N)
    }
}

impl KernelSpec for WmmaSpmm<'_> {
    fn name(&self) -> String {
        format!("spmm-wmma(V={})", self.a.v())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.a.pattern().block_rows() * self.n_chunks(),
            warps_per_cta: 1,
            regs_per_thread: 56,
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: self.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        super::block_row_shard_layout(
            self.out_buf,
            self.a.pattern().block_rows(),
            self.a.v(),
            self.a.rows(),
            self.b.cols(),
            self.n_chunks(),
        )
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let v_len = self.a.v();
        let p = self.a.pattern();
        let n = self.b.cols();
        let chunks = self.n_chunks();
        let br = cta.cta_id / chunks;
        let n0 = (cta.cta_id % chunks) * TILE_N;
        let tn = TILE_N.min(n - n0);
        let range = p.block_row_range(br);
        let functional = cta.mode == Mode::Functional;
        let shadow = functional && cta.shadow_exec;
        let s = &self.sites;

        let mut acc = vec![0.0f32; v_len * TILE_N];
        let mut acc64 = vec![0.0f64; if shadow { v_len * TILE_N } else { 0 }];
        let mut w = cta.warp(0);

        let rp = lanes(|l| if l < 2 { Some(br + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.row_ptr, &rp, 1, &[]).tok();
        let mut acc_tok = Tok::NONE;

        // TileK is quantised to 16: the final partial step pays the full
        // wmma cost for its padding vectors (§5.2's residue overhead).
        let mut i = range.start;
        while i < range.end {
            let real = (range.end - i).min(WMMA_K);
            let ci = lanes(|l| if l < real { Some(i + l) } else { None });
            let ci_tok = w
                .ldg(s.ld_colidx, self.bufs.col_idx, &ci, 1, &[rp_tok])
                .tok();
            let av = lanes(|l| {
                if l < real {
                    Some((i + l) * v_len)
                } else {
                    None
                }
            });
            let avals = w.ldg(s.ld_avals, self.bufs.values, &av, v_len, &[ci_tok]);
            w.int_ops(s.addr, 4, &[ci_tok]);

            // RHS fragment: 16 vectors × 64 columns of B. The classic
            // layout maps each row of the fragment to 8 threads holding
            // 4 registers each, so the widest load is LDG.64 and the
            // access is 64-byte coalesced (guideline V violated).
            let mut b_tok = Tok::NONE;
            for (kstep, &site) in (0..WMMA_K).zip(s.ldg_b.iter().cycle()) {
                if kstep >= real {
                    break;
                }
                let col = p.col_idx()[i + kstep] as usize;
                for part in 0..2 {
                    let offs = lanes(|l| {
                        if l < 16 {
                            let c = n0 + part * 32 + (l % 8) * 4;
                            if c < n && l < 8 {
                                Some(col * n + c)
                            } else {
                                None
                            }
                        } else {
                            None
                        }
                    });
                    b_tok = w.ldg(site, self.b_buf, &offs, 4, &[ci_tok]).tok();
                }
            }

            // Two wmma.m8n32k16 cover the 64 output columns; each runs as
            // 16 HMMA regardless of V (wasted rows when V < 8) and
            // regardless of padding (wasted k when real < 16).
            for &site in &s.wmma {
                let a_frag = WVec::ghost(4, avals.tok());
                let b_frag = WVec::ghost(4, b_tok);
                for sub in 0..4u32 {
                    let mut frag = WVec::ghost(8, acc_tok);
                    acc_tok = w.mma_m8n8k4(
                        Site(site.0 + sub * 4),
                        &a_frag,
                        &b_frag,
                        &mut frag,
                        MmaFlavor::Standard,
                    );
                }
            }

            if functional {
                for kstep in 0..real {
                    let col = p.col_idx()[i + kstep] as usize;
                    for e in 0..v_len {
                        let a_val = w.read(self.bufs.values, (i + kstep) * v_len + e);
                        if a_val == 0.0 {
                            continue;
                        }
                        for c in 0..tn {
                            let b_val = w.read(self.b_buf, col * n + n0 + c);
                            acc[e * TILE_N + c] += a_val * b_val;
                            if shadow {
                                acc64[e * TILE_N + c] += f64::from(a_val) * f64::from(b_val);
                            }
                        }
                    }
                }
            }
            i += real;
        }

        let row_base = br * v_len;
        for r in 0..v_len {
            if row_base + r >= self.a.rows() {
                break;
            }
            if functional {
                let vals: Vec<f32> = (0..tn)
                    .map(|c| f16::from_f32(acc[r * TILE_N + c]).to_f32())
                    .collect();
                let shadows: Vec<f64> = if shadow {
                    (0..tn).map(|c| acc64[r * TILE_N + c]).collect()
                } else {
                    Vec::new()
                };
                crate::util::store_row_segment(
                    &mut w,
                    s.stg,
                    self.out_buf,
                    row_base + r,
                    n,
                    n0,
                    tn,
                    &vals,
                    &shadows,
                    8,
                    Tok::NONE,
                );
            } else {
                crate::util::store_row_segment(
                    &mut w,
                    s.stg,
                    self.out_buf,
                    row_base + r,
                    n,
                    n0,
                    tn,
                    &[],
                    &[],
                    8,
                    acc_tok,
                );
            }
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Ascending k-steps into one f32 accumulator; the functional
        // path skips exact-zero A values.
        let ([values, b], out) = ctx.split([self.bufs.values, self.b_buf], self.out_buf);
        let c = Contract::of(SCHEME.tile, SCHEME.out_bits).skipping_zero_a();
        native::spmm_vector_sparse(out, b, self.b.cols(), c, self.a.pattern(), values);
        true
    }
}

/// Functional §5.2 warp-tiling SpMM.
pub fn spmm_wmma(gpu: &GpuConfig, a: &VectorSparse<f16>, b: &DenseMatrix<f16>) -> DenseMatrix<f16> {
    let mut mem = MemPool::new();
    let kernel = WmmaSpmm::new(&mut mem, a, b, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the §5.2 warp-tiling SpMM.
pub fn profile_spmm_wmma(
    gpu: &GpuConfig,
    a: &VectorSparse<f16>,
    b: &DenseMatrix<f16>,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = WmmaSpmm::new(&mut mem, a, b, Mode::Performance);
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
    use crate::spmm::{profile_spmm_fpu, profile_spmm_octet};
    use vecsparse_formats::{gen, reference};

    #[test]
    fn matches_reference() {
        let gpu = GpuConfig::small();
        for v in [2usize, 4, 8] {
            let a = gen::random_vector_sparse::<f16>(32, 64, v, 0.6, v as u64);
            let b = gen::random_dense::<f16>(64, 128, Layout::RowMajor, 9);
            let got = spmm_wmma(&gpu, &a, &b);
            let want = reference::spmm_vs(&a, &b);
            assert_eq!(got.max_abs_diff(&want), 0.0, "V={v}");
        }
    }

    #[test]
    fn residue_padding_is_handled() {
        // 19 vectors per row: one full wmma step + one padded.
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(16, 128, 4, 1.0 - 19.0 / 128.0, 3);
        let b = gen::random_dense::<f16>(128, 64, Layout::RowMajor, 4);
        let got = spmm_wmma(&gpu, &a, &b);
        assert_eq!(got.max_abs_diff(&reference::spmm_vs(&a, &b)), 0.0);
    }

    #[test]
    fn design_space_ordering_of_section5() {
        // The §5 narrative: fpu < wmma < octet at the profiling shape.
        let gpu = GpuConfig::default();
        let a = gen::random_vector_sparse::<f16>(1024, 1024, 4, 0.9, 5);
        let b = gen::random_dense::<f16>(1024, 256, Layout::RowMajor, 6);
        let octet = profile_spmm_octet(&gpu, &a, &b);
        let wmma = profile_spmm_wmma(&gpu, &a, &b);
        let fpu = profile_spmm_fpu(&gpu, &a, &b);
        assert!(
            octet.cycles < wmma.cycles,
            "octet {} wmma {}",
            octet.cycles,
            wmma.cycles
        );
        assert!(
            wmma.cycles < fpu.cycles,
            "wmma {} fpu {}",
            wmma.cycles,
            fpu.cycles
        );
        // The wmma design's loads are at best 64B coalesced: fewer sectors
        // per request than the octet kernel's LDG.128 pattern.
        assert!(
            wmma.l1.sectors_per_request() < octet.l1.sectors_per_request(),
            "wmma {} octet {}",
            wmma.l1.sectors_per_request(),
            octet.l1.sectors_per_request()
        );
    }
}
