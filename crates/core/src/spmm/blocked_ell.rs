//! Blocked-ELL SpMM — a surrogate for cuSPARSE's TCU-based structured
//! kernel, reproducing the §3.2 inefficiency profile at small block sizes.
//!
//! Each CTA (one warp) produces a `block × 128` output stripe. Every
//! nonzero block is fed to the TCU as a full wmma k-slab of 16
//! (wmma.m8n32k16), so a block narrower than 16 columns pays for padding:
//! with block size 4 three quarters of every multiplication are wasted. Both the block values and the
//! gathered `B` rows take a **global → shared → register** round trip even
//! though they are barely reused (violating guideline IV), every block
//! needs its own integer address computation (IMAD/IADD3 chains,
//! guideline III), and the unrolled group body makes the program overflow
//! the 768-entry L0 instruction cache (guideline I) — yielding the
//! "No Instruction" / "Wait" / "Short Scoreboard" stall signature of
//! Table 1.

use crate::compose::{scheme_for, TilingScheme};
use crate::native::{self, Contract};
use crate::registry::KernelId;
use crate::util::{download_dense, lanes, upload_dense, upload_ell, width_of, EllBuffers};
use vecsparse_formats::{BlockedEll, DenseMatrix, Layout, ELL_PAD};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, KernelProfile, KernelSpec, Launch, LaunchConfig, MemPool,
    MmaFlavor, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The kernel's named default point in the tiling space.
const SCHEME: TilingScheme = scheme_for(KernelId::SpmmBlockedEll);
/// Output tile width per CTA.
const TILE_N: usize = SCHEME.tile_n;

/// The Blocked-ELL SpMM kernel (half precision; cuSPARSE supports fp16
/// Blocked-ELL via `cusparseSpMM`).
pub struct BlockedEllSpmm<'m> {
    a: &'m BlockedEll<f16>,
    b: &'m DenseMatrix<f16>,
    bufs: EllBuffers,
    b_buf: BufferId,
    out_buf: BufferId,
    sites: Sites,
    prog: Program,
    static_len: u32,
}

struct Sites {
    ld_idx: Site,
    ldg_blk: Site,
    sts_blk: Site,
    lds_blk: Site,
    ldg_b: [Site; 8],
    sts_b: [Site; 8],
    lds_b: [Site; 8],
    mma: Vec<Site>,
    addr: Vec<Site>,
    bar: Site,
    stg: Site,
    /// Static instructions in one unrolled copy of the slot-group body.
    /// The compiler unrolls the ELL loop `PHASES`-fold, so consecutive
    /// groups execute at PC offsets `phase * phase_pcs` — which is what
    /// overflows the L0 instruction cache at small block sizes.
    phase_pcs: u32,
}

/// Unroll factor of the slot-group loop: the real kernel's SASS shrinks
/// as blocks grow (fewer specialised copies are needed), so the factor is
/// derived from the block size — block 4 lands near the paper's ≈4600
/// lines, block 16 fits the L0 cache.
fn phases(block: usize) -> u32 {
    (96 / block as u32).clamp(6, 24)
}

impl<'m> BlockedEllSpmm<'m> {
    /// Stage inputs and build the static program.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn new(
        mem: &mut MemPool,
        a: &'m BlockedEll<f16>,
        b: &'m DenseMatrix<f16>,
        mode: Mode,
    ) -> Self {
        let bufs = upload_ell(mem, a, mode);
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
    /// Panics on shape mismatch.
    pub fn from_staged(
        a: &'m BlockedEll<f16>,
        b: &'m DenseMatrix<f16>,
        bufs: EllBuffers,
        b_buf: BufferId,
        out_buf: BufferId,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
        assert_eq!(b.layout(), Layout::RowMajor);

        let block = a.block();
        let group = 1usize;
        let mut p = Program::new();
        let ld_idx = p.site("ld_idx", 0);
        let ldg_blk = p.site("ldg_blk", 0);
        let sts_blk = p.site("sts_blk", 0);
        let lds_blk = p.site("lds_blk", 0);
        let mut ldg_b = [Site(0); 8];
        let mut sts_b = [Site(0); 8];
        let mut lds_b = [Site(0); 8];
        for i in 0..8u32 {
            ldg_b[i as usize] = p.site("ldg_b", i);
            sts_b[i as usize] = p.site("sts_b", i);
            lds_b[i as usize] = p.site("lds_b", i);
        }
        // 4 wmma per group, 16 HMMA each: reserve 64 static HMMA slots.
        let mma: Vec<Site> = (0..4usize)
            .map(|i| {
                let base = p.site("wmma", (i * 16) as u32);
                for k in 1..16u32 {
                    p.site("wmma", (i * 16) as u32 + k);
                }
                base
            })
            .collect();
        // Per-block addressing in the unrolled group body: the real SASS
        // spends ≈27% of its instructions on IMAD/IADD3 tile-address math
        // (§3.2), roughly 48 static slots per block.
        let addr: Vec<Site> = (0..(group as u32 * 48))
            .map(|i| p.site("addr", i))
            .collect();
        let bar = p.site("bar", 0);
        let stg = p.site("stg", 0);

        // One unrolled copy of the group body; the executed PC stream
        // rotates over PHASES copies plus a residue clone, matching the
        // several-thousand-line SASS the paper measured (≈4600 lines at
        // block size 4; larger blocks need fewer specialised copies).
        let phase_pcs = p.static_len();
        let static_len = phase_pcs * phases(block);

        BlockedEllSpmm {
            a,
            b,
            bufs,
            b_buf,
            out_buf,
            sites: Sites {
                ld_idx,
                ldg_blk,
                sts_blk,
                lds_blk,
                ldg_b,
                sts_b,
                lds_b,
                mma,
                addr,
                bar,
                stg,
                phase_pcs,
            },
            prog: p,
            static_len,
        }
    }

    /// Output buffer id.
    pub fn output(&self) -> BufferId {
        self.out_buf
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<f16> {
        download_dense(mem, self.out_buf, self.a.rows(), self.b.cols())
    }

    fn n_chunks(&self) -> usize {
        self.b.cols().div_ceil(TILE_N)
    }
}

impl KernelSpec for BlockedEllSpmm<'_> {
    fn name(&self) -> String {
        format!("spmm-blocked-ell(b={})", self.a.block())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.a.block_rows() * self.n_chunks(),
            warps_per_cta: 1,
            regs_per_thread: 96,
            // Staged: one k-slab of B (16 × 128) plus a block group.
            smem_elems: 16 * TILE_N + 16 * self.a.block(),
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
            self.a.block_rows(),
            self.a.block(),
            self.a.rows(),
            self.b.cols(),
            self.n_chunks(),
        )
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let block = self.a.block();
        // One wmma k-slab (k = 16) per nonzero block: a block narrower
        // than 16 still pays the full slab — the padding waste behind
        // Fig. 6's small-block collapse.
        let group = 1;
        let n = self.b.cols();
        let chunks = self.n_chunks();
        let br = cta.cta_id / chunks;
        let n0 = (cta.cta_id % chunks) * TILE_N;
        let tn = TILE_N.min(n - n0);
        let functional = cta.mode == Mode::Functional;
        let bpr = self.a.blocks_per_row();
        let s = &self.sites;

        let shadow = functional && cta.shadow_exec;
        let cta_id = cta.cta_id;
        let mut acc = vec![0.0f32; block * tn];
        let mut acc64 = vec![0.0f64; if shadow { block * tn } else { 0 }];
        let mut w = cta.warp(0);

        // Double-buffering: the wmma batch of group i consumes fragments
        // staged while group i-1 computed, so loads overlap compute.
        let mut prev_blk_tok = Tok::NONE;
        let mut prev_b_tok = Tok::NONE;
        // Last accumulator token; the epilogue store depends on it.
        let mut mma_tok = Tok::NONE;
        let mut slot = 0;
        let mut group_idx = 0u32;
        while slot < bpr {
            let g = group.min(bpr - slot);
            // The compiler unrolls the group loop: consecutive groups run
            // at rotated PC offsets, exercising the whole static program.
            // CTAs resident on one scheduler sit at different offsets of
            // the unrolled program (they desynchronise on memory), so the
            // phase is staggered by CTA id: the warps' combined fetch
            // working set is what overflows the L0 cache.
            let phase = ((group_idx + cta_id as u32) % phases(block)) * s.phase_pcs;
            group_idx += 1;
            let ph = |site: Site| Site(site.0 + phase);
            // Load the group's block-column indices.
            let ci = lanes(|l| {
                if l < g {
                    Some(br * bpr + slot + l)
                } else {
                    None
                }
            });
            let ci_tok = w
                .ldg(ph(s.ld_idx), self.bufs.block_col_idx, &ci, 1, &[])
                .tok();
            // Heavy per-block address arithmetic, dependency-chained.
            let mut addr_tok = ci_tok;
            // Executed address math is ~12 IMADs per block; the remaining
            // static slots model predication and residue specialisations.
            for (ai, &site) in s.addr.iter().take(g * 48).enumerate() {
                if ai % 48 == 0 {
                    addr_tok = w.int_ops_unrolled(ph(site), 12, &[addr_tok]);
                }
            }
            // Block values: g × block × block halves → shared → regs.
            let bb = block * block;
            let blk_off = lanes(|l| {
                let total = g * bb;
                let per_lane = total.div_ceil(32).max(1);
                if l * per_lane < total {
                    Some((br * bpr + slot) * bb + l * per_lane)
                } else {
                    None
                }
            });
            let per_lane_blk = (g * bb).div_ceil(32).clamp(1, 8);
            let blk = w.ldg(
                ph(s.ldg_blk),
                self.bufs.values,
                &blk_off,
                per_lane_blk,
                &[addr_tok],
            );
            // Shared staging region for block values sits after the B slab.
            let blk_smem = lanes(|l| {
                if l * per_lane_blk < g * bb {
                    Some(16 * TILE_N + (l * per_lane_blk) % (16 * block))
                } else {
                    None
                }
            });
            w.sts(ph(s.sts_blk), &blk_smem, &blk, &[]);

            // B rows for the k-slab: for each block in the group, `block`
            // rows of 128 halves, gathered then staged through shared.
            for (j, pair) in (0..g).zip(0..8usize) {
                let bc = self.a.block_col(br, slot + j);
                for r_chunk in 0..(block * TILE_N).div_ceil(256) {
                    let offs = lanes(|l| {
                        if bc == ELL_PAD {
                            return None;
                        }
                        let flat = r_chunk * 256 + l * 8;
                        let r = flat / TILE_N;
                        let c = flat % TILE_N;
                        if r < block && n0 + c < n {
                            Some((bc as usize * block + r) * n + n0 + c)
                        } else {
                            None
                        }
                    });
                    let v = w.ldg(ph(s.ldg_b[pair]), self.b_buf, &offs, 8, &[addr_tok]);
                    let smem_offs = lanes(|l| {
                        let flat = (j * block * TILE_N + r_chunk * 256 + l * 8) % (16 * TILE_N);
                        Some(flat)
                    });
                    w.sts(ph(s.sts_b[pair]), &smem_offs, &v, &[]);
                }
                let _ = pair;
            }
            w.bar_sync(ph(s.bar));

            // Four wmma.m8n32k16 per group (TILE_N = 4 × 32), 16 HMMA
            // each; fragments come from shared.
            for (mi, &site) in s.mma.iter().enumerate() {
                // Fragment loads from shared memory happen in the compute
                // phase (only the global->shared staging is
                // double-buffered), so the wmma waits on LDS latency.
                let blk_frag_tok = w
                    .lds(ph(s.lds_blk), &blk_smem, per_lane_blk, &[prev_blk_tok])
                    .tok();
                let b_frag_tok = w
                    .lds(
                        ph(s.lds_b[mi.min(7)]),
                        &lanes(|l| Some(l * 8 % (16 * TILE_N))),
                        8,
                        &[prev_b_tok],
                    )
                    .tok();
                let a_frag = WVec::ghost(4, blk_frag_tok);
                let b_frag = WVec::ghost(4, b_frag_tok);
                for sub in 0..4u32 {
                    let mut acc_frag = WVec::ghost(8, mma_tok);
                    mma_tok = w.mma_m8n8k4(
                        Site(ph(site).0 + sub * 4),
                        &a_frag,
                        &b_frag,
                        &mut acc_frag,
                        MmaFlavor::Standard,
                    );
                }
            }

            if functional {
                for j in 0..g {
                    let bc = self.a.block_col(br, slot + j);
                    if bc == ELL_PAD {
                        continue;
                    }
                    let vals = self.a.block_values(br, slot + j);
                    for r in 0..block {
                        for kk in 0..block {
                            let a_val = vals[r * block + kk].to_f32();
                            if a_val == 0.0 {
                                continue;
                            }
                            let kr = bc as usize * block + kk;
                            for c in 0..tn {
                                let b_val = w.mem().read(self.b_buf, kr * n + n0 + c);
                                acc[r * tn + c] += a_val * b_val;
                                if shadow {
                                    acc64[r * tn + c] += f64::from(a_val) * f64::from(b_val);
                                }
                            }
                        }
                    }
                }
            }
            prev_blk_tok = blk.tok();
            prev_b_tok = addr_tok;
            slot += g;
        }

        // Store the block × TILE_N stripe row-safely.
        let row_base = br * block;
        for r in 0..block {
            if row_base + r >= self.a.rows() {
                break;
            }
            if functional {
                let vals: Vec<f32> = (0..tn)
                    .map(|c| f16::from_f32(acc[r * tn + c]).to_f32())
                    .collect();
                let shadows: Vec<f64> = if shadow {
                    (0..tn).map(|c| acc64[r * tn + c]).collect()
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
                    mma_tok,
                );
            }
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Ascending slots, ascending `kk` within a block, skipping padding
        // blocks and, like the functional path, exact-zero A values.
        let block = self.a.block();
        let ([b], out) = ctx.split([self.b_buf], self.out_buf);
        let c = Contract::of(SCHEME.tile, SCHEME.out_bits).skipping_zero_a();
        native::spmm_rows(out, b, self.b.cols(), c, |row| {
            let (br, r) = (row / block, row % block);
            (0..self.a.blocks_per_row())
                .filter(move |&slot| self.a.block_col(br, slot) != ELL_PAD)
                .flat_map(move |slot| {
                    let bc = self.a.block_col(br, slot) as usize;
                    let vals = &self.a.block_values(br, slot)[r * block..(r + 1) * block];
                    vals.iter()
                        .zip(bc * block..)
                        .map(|(x, kr)| (x.to_f32(), kr))
                })
        });
        true
    }
}

/// Functional Blocked-ELL SpMM.
pub fn spmm_blocked_ell(
    gpu: &GpuConfig,
    a: &BlockedEll<f16>,
    b: &DenseMatrix<f16>,
) -> DenseMatrix<f16> {
    let mut mem = MemPool::new();
    let kernel = BlockedEllSpmm::new(&mut mem, a, b, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the Blocked-ELL SpMM kernel.
pub fn profile_spmm_blocked_ell(
    gpu: &GpuConfig,
    a: &BlockedEll<f16>,
    b: &DenseMatrix<f16>,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = BlockedEllSpmm::new(&mut mem, a, b, Mode::Performance);
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

    fn check(m: usize, k: usize, n: usize, block: usize, sparsity: f64, seed: u64) {
        let gpu = GpuConfig::small();
        let a = gen::random_blocked_ell::<f16>(m, k, block, sparsity, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);
        let got = spmm_blocked_ell(&gpu, &a, &b);
        let want = reference::gemm(&a.to_dense(Layout::RowMajor), &b);
        assert_eq!(got.max_abs_diff(&want), 0.0, "block={block}");
    }

    #[test]
    fn matches_reference_block4() {
        check(32, 64, 128, 4, 0.75, 1);
    }

    #[test]
    fn matches_reference_block8() {
        check(32, 64, 128, 8, 0.5, 2);
    }

    #[test]
    fn matches_reference_block16() {
        check(64, 64, 256, 16, 0.5, 3);
    }

    #[test]
    fn small_blocks_overflow_icache() {
        let gpu = GpuConfig::small();
        let b = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 4);
        let a4 = gen::random_blocked_ell::<f16>(512, 512, 4, 0.9, 5);
        let p4 = profile_spmm_blocked_ell(&gpu, &a4, &b);
        assert!(p4.static_instrs > 768 * 2, "static {}", p4.static_instrs);
        // Table 1's signature: "No Instruction" and "Wait" are both
        // material, and both dominate "Short Scoreboard".
        let ni = p4.stalls.pct_no_instruction();
        let wait = p4.stalls.pct_wait();
        let short = p4.stalls.pct_short_scoreboard();
        assert!(ni > 5.0, "no-instruction {ni}");
        assert!(wait > 5.0, "wait {wait}");
        assert!(ni > short && wait > short, "short {short}");
    }

    #[test]
    fn bigger_blocks_are_faster_per_nonzero() {
        // Fig. 6's core effect: block 16 beats block 4 at the same
        // sparsity and problem size.
        let gpu = GpuConfig::small();
        let b = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 6);
        let a4 = gen::random_blocked_ell::<f16>(512, 512, 4, 0.9, 7);
        let a16 = gen::random_blocked_ell::<f16>(512, 512, 16, 0.9, 8);
        let p4 = profile_spmm_blocked_ell(&gpu, &a4, &b);
        let p16 = profile_spmm_blocked_ell(&gpu, &a16, &b);
        assert!(
            p16.cycles < p4.cycles,
            "block16 {} vs block4 {}",
            p16.cycles,
            p4.cycles
        );
    }
}
