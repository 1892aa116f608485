//! TCU-based 1-D Warp Tiling SDDMM — the classic-mapping baseline of §6.2.
//!
//! Same warp tile as the octet kernel (`(V×64)·(64×TILE_N)`), but mapped
//! to the TCU through `wmma.m8n32k16` with the stock fragment layout.
//! Consequences the paper measures: fragments must be coalesced through
//! **shared memory** (direct loads would be 16-byte coalesced), the LHS
//! fragment is replicated four times across thread groups (extra
//! registers), `TILE_N` is quantised to 32 (residue tiles compute
//! padding), and a `(V×16)·(16×32)` product is executed even when V < 8
//! (wasted HMMA work). Its stall signature is shared-memory pressure
//! ("Short Scoreboard", Table 3).

use super::vector_tiles;
use crate::compose::{scheme_for, TilingScheme};
use crate::native::{self, Contract, Grouping};
use crate::registry::KernelId;
use crate::util::{lanes, upload_dense, upload_pattern, width_of, VsBuffers};
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, KernelProfile, KernelSpec, Launch, LaunchConfig, MemPool,
    MmaFlavor, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The kernel's named default point in the tiling space.
const SCHEME: TilingScheme = scheme_for(KernelId::SddmmWmma);
/// Output vectors per tile (quantised: partial tiles pay for all 32).
const TILE_N: usize = SCHEME.tile_n;
/// K-stride per step.
const TILE_K: usize = SCHEME.tile_k;

/// The wmma (classic TCU mapping) SDDMM baseline.
pub struct WmmaSddmm<'m> {
    a: &'m DenseMatrix<f16>,
    b: &'m DenseMatrix<f16>,
    mask: &'m SparsityPattern,
    a_buf: BufferId,
    b_buf: BufferId,
    idx: VsBuffers,
    out_buf: BufferId,
    tiles: Vec<(usize, usize, usize)>,
    sites: Sites,
    prog: Program,
    static_len: u32,
}

struct Sites {
    ld_idx: Site,
    ldg_a: Site,
    sts_a: Site,
    lds_a: [Site; 4],
    ldg_b: [Site; 4],
    sts_b: [Site; 4],
    lds_b: [Site; 4],
    wmma: [Site; 4],
    addr: Site,
    stg: Site,
}

impl<'m> WmmaSddmm<'m> {
    /// Stage inputs.
    ///
    /// # Panics
    /// Panics on shape/layout mismatch.
    pub fn new(
        mem: &mut MemPool,
        a: &'m DenseMatrix<f16>,
        b: &'m DenseMatrix<f16>,
        mask: &'m SparsityPattern,
        mode: Mode,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SDDMM inner dimension mismatch");
        assert_eq!(a.rows(), mask.rows());
        assert_eq!(b.cols(), mask.cols());
        assert_eq!(a.layout(), Layout::RowMajor);
        assert_eq!(b.layout(), Layout::ColMajor);
        let a_buf = upload_dense(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let idx = upload_pattern(mem, mask, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<f16>(), mask.nnz()),
            Mode::Performance => mem.alloc_ghost(width_of::<f16>(), mask.nnz()),
        };
        let tiles = vector_tiles(mask, TILE_N);

        let mut p = Program::new();
        let sites = Sites {
            ld_idx: p.site("ld_idx", 0),
            ldg_a: p.site("ldg_a", 0),
            sts_a: p.site("sts_a", 0),
            lds_a: [
                p.site("lds_a", 0),
                p.site("lds_a", 1),
                p.site("lds_a", 2),
                p.site("lds_a", 3),
            ],
            ldg_b: [
                p.site("ldg_b", 0),
                p.site("ldg_b", 1),
                p.site("ldg_b", 2),
                p.site("ldg_b", 3),
            ],
            sts_b: [
                p.site("sts_b", 0),
                p.site("sts_b", 1),
                p.site("sts_b", 2),
                p.site("sts_b", 3),
            ],
            lds_b: [
                p.site("lds_b", 0),
                p.site("lds_b", 1),
                p.site("lds_b", 2),
                p.site("lds_b", 3),
            ],
            wmma: [
                p.site_span("wmma", 0, 16),
                p.site_span("wmma", 16, 16),
                p.site_span("wmma", 32, 16),
                p.site_span("wmma", 48, 16),
            ],
            addr: p.site("addr", 0),
            stg: p.site("stg", 0),
        };
        // The wmma spans reserve their 16 HMMA slots each; the tail pad
        // models the predication/residue copies.
        let static_len = p.static_len() + 60;

        WmmaSddmm {
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
    pub fn result(&self, mem: &MemPool) -> VectorSparse<f16> {
        crate::util::download_vs(mem, self.out_buf, self.mask)
    }
}

impl KernelSpec for WmmaSddmm<'_> {
    fn name(&self) -> String {
        format!("sddmm-wmma(V={})", self.mask.v())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.tiles.len().max(1),
            warps_per_cta: 1,
            // The LHS fragment is replicated 4×: extra registers.
            regs_per_thread: 88,
            // Staged A (V×64) and B (64×32) slabs.
            smem_elems: self.mask.v() * TILE_K + TILE_K * TILE_N,
            smem_elem_bytes: 2,
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
        let (br, start, len) = self.tiles[cta.cta_id];
        let v_len = self.mask.v();
        let k_total = self.a.cols();
        debug_assert_eq!(k_total, self.b.rows());
        let functional = cta.mode == Mode::Functional;
        let s = &self.sites;
        let row_base = br * v_len;

        let mut w = cta.warp(0);
        if len == 0 {
            return;
        }
        let ci = lanes(|l| if l < len { Some(start + l) } else { None });
        let ci_tok = w.ldg(s.ld_idx, self.idx.col_idx, &ci, 1, &[]).tok();
        w.int_ops(s.addr, 4, &[ci_tok]);

        let cols: Vec<usize> = (0..len)
            .map(|j| self.mask.col_idx()[start + j] as usize)
            .collect();
        let mut acc = vec![0.0f32; TILE_N * v_len];
        let mut acc_tok = Tok::NONE;

        for k0 in (0..k_total).step_by(TILE_K) {
            let ks = TILE_K.min(k_total - k0);
            // A slab through shared memory (coalescing the 16B-coalesced
            // direct pattern).
            let a_offs = lanes(|l| {
                let flat = l * 8;
                let r = flat / TILE_K;
                let k = flat % TILE_K;
                if r < v_len && k < ks {
                    Some((row_base + r) * k_total + k0 + k)
                } else {
                    None
                }
            });
            let av = w.ldg(s.ldg_a, self.a_buf, &a_offs, 8, &[]);
            let a_smem = lanes(|l| Some((l * 8) % (v_len * TILE_K)));
            w.sts(s.sts_a, &a_smem, &av, &[]);
            // The fragment is read back once per wmma (4 copies).
            let mut a_frag_tok = Tok::NONE;
            for &site in &s.lds_a {
                a_frag_tok = w
                    .lds(
                        site,
                        &lanes(|l| Some(l * 4 % (v_len * TILE_K).max(1))),
                        4,
                        &[],
                    )
                    .tok();
            }
            // B slab: 32 gathered columns × 64 k through shared memory.
            let mut b_frag_tok = Tok::NONE;
            for part in 0..4usize {
                let offs = lanes(|l| {
                    let flat = part * 256 + l * 8;
                    let c = flat / TILE_K;
                    let k = flat % TILE_K;
                    if c < len && k < ks {
                        Some(cols[c] * k_total + k0 + k)
                    } else if c < TILE_N && k < ks && !cols.is_empty() {
                        // Residue quantisation: padding columns still
                        // load (the kernel computes a full 32-wide tile).
                        Some(cols[c % cols.len()] * k_total + k0 + k)
                    } else {
                        None
                    }
                });
                let v = w.ldg(s.ldg_b[part], self.b_buf, &offs, 8, &[ci_tok]);
                let b_smem = lanes(|l| {
                    Some((v_len * TILE_K + part * 256 + l * 8) % (v_len * TILE_K + TILE_K * TILE_N))
                });
                w.sts(s.sts_b[part], &b_smem, &v, &[]);
                b_frag_tok = w
                    .lds(
                        s.lds_b[part],
                        &lanes(|l| Some(l * 8 % (TILE_K * TILE_N))),
                        8,
                        &[],
                    )
                    .tok();
            }

            // Four wmma.m8n32k16 = 64 HMMA per K-stride, always full-width.
            for &site in &s.wmma {
                let a_frag = WVec::ghost(4, a_frag_tok);
                let b_frag = WVec::ghost(4, b_frag_tok);
                for _ in 0..4 {
                    let mut frag = WVec::ghost(8, acc_tok);
                    acc_tok = w.mma_m8n8k4(site, &a_frag, &b_frag, &mut frag, MmaFlavor::Standard);
                }
            }

            if functional {
                for (c, &col) in cols.iter().enumerate() {
                    for r in 0..v_len {
                        let mut sum = 0.0f32;
                        for k in 0..ks {
                            sum += w.mem().read(self.a_buf, (row_base + r) * k_total + k0 + k)
                                * w.mem().read(self.b_buf, col * k_total + k0 + k);
                        }
                        acc[c * v_len + r] += sum;
                    }
                }
            }
        }

        // Store len × V values.
        let total = len * v_len;
        let epl = v_len.min(8);
        let per_store = 32 * epl;
        for st in 0..total.div_ceil(per_store) {
            let offs = lanes(|l| {
                let flat = st * per_store + l * epl;
                if flat < total {
                    Some(start * v_len + flat)
                } else {
                    None
                }
            });
            let mut vals = WVec::zeros(epl);
            if functional {
                for l in 0..32 {
                    for e in 0..epl {
                        let flat = st * per_store + l * epl + e;
                        if flat < total {
                            vals.set(l, e, f16::from_f32(acc[flat]).to_f32());
                        }
                    }
                }
            } else {
                vals = WVec::ghost(epl, acc_tok);
            }
            w.stg(s.stg, self.out_buf, &offs, &vals, &[acc_tok]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Each K-stride reduces into a fresh fragment, added in order.
        let (ab, out) = ctx.split([self.a_buf, self.b_buf], self.out_buf);
        let c = Contract::of(SCHEME.tile, SCHEME.out_bits);
        let g = Grouping::Chunks(TILE_K);
        native::sddmm_vectors(out, ab, self.a.cols(), self.mask, c, g)
    }
}

/// Functional wmma SDDMM.
pub fn sddmm_wmma(
    gpu: &GpuConfig,
    a: &DenseMatrix<f16>,
    b: &DenseMatrix<f16>,
    mask: &SparsityPattern,
) -> VectorSparse<f16> {
    let mut mem = MemPool::new();
    let kernel = WmmaSddmm::new(&mut mem, a, b, mask, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the wmma SDDMM kernel.
pub fn profile_sddmm_wmma(
    gpu: &GpuConfig,
    a: &DenseMatrix<f16>,
    b: &DenseMatrix<f16>,
    mask: &SparsityPattern,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = WmmaSddmm::new(&mut mem, a, b, mask, Mode::Performance);
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
        let a = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 1);
        let b = gen::random_dense::<f16>(64, 96, Layout::ColMajor, 2);
        let mask = gen::random_pattern(32, 96, 4, 0.75, 3);
        let got = sddmm_wmma(&gpu, &a, &b, &mask);
        let want = reference::sddmm(&a, &b, &mask);
        for (g, wv) in got.values().iter().zip(want.values()) {
            assert_eq!(g, wv);
        }
    }

    #[test]
    fn shared_memory_pipe_is_busy() {
        // §6.2's pathology: heavy shared traffic ⇒ short-scoreboard stalls.
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 4);
        let b = gen::random_dense::<f16>(256, 512, Layout::ColMajor, 5);
        let mask = gen::random_pattern(256, 512, 8, 0.9, 6);
        let p = profile_sddmm_wmma(&gpu, &a, &b, &mask);
        assert!(p.instrs.lds > 0 && p.instrs.sts > 0);
        assert!(
            p.stalls.pct_short_scoreboard() > 1.0,
            "short scoreboard {}",
            p.stalls.pct_short_scoreboard()
        );
    }
}
