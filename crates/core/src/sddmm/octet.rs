//! TCU-based 1-D Octet Tiling SDDMM — the paper's §6.3 contribution.
//!
//! Each CTA (one warp) computes up to `tile_n = 32` nonzero output
//! vectors of one block row, walking K in strides of 64. The LHS/RHS
//! roles are switched (as in the SpMM kernel) so each sub-step computes
//! an `(8×64)·(64×V)` tile: eight gathered `B` columns against the
//! block row's `V` `A`-rows. Both fragments load straight to registers
//! with LDG.128 — each 64-element row/column splits into eight 8-half
//! sub-vectors across lanes, 128-byte coalesced (guidelines IV & V).
//!
//! The k dimension is spread across the four octets (16 each), so every
//! output has four octet-partial sums that are combined with warp
//! shuffles and FADDs when K is exhausted — the reduction the paper
//! measures at 29.5% of instructions for V = 8, K = 64.
//!
//! The tiling above is the kernel's registry
//! [`crate::compose::TilingScheme`], a compile-time constant: the listing
//! (index prologue, two-register A and B fragment loads, `tile_k / 16`
//! mma slices per sub-step, the cross-octet shuffle/FADD reduction and
//! the vector store) is fixed, and the [`crate::tile`] marshal maps both
//! operands' loaded lane layouts onto the mma fragment convention.
//!
//! The "inverted pattern" of source operands between thread groups is
//! resolved three ways, matching the paper's variants:
//!
//! * [`OctetVariant::Reg`] — accumulate steps 2&3 into a second register
//!   set (more registers, lower occupancy);
//! * [`OctetVariant::Shfl`] — shuffle source operands before each mma
//!   (extra SHFL instructions);
//! * [`OctetVariant::Arch`] — the proposed `HMMA...SWITCH` instruction
//!   (Fig. 15): the TCU's operand multiplexers switch the thread-group
//!   sources, no extra registers or shuffles.

use super::{vector_tiles, SddmmBuffers};
use crate::compose::{scheme_for, TilingScheme};
use crate::listing::{Listing, ListingCache};
use crate::native::{self, Contract, Grouping};
use crate::registry::KernelId;
use crate::tile::{marshal_sddmm_frag, octet_lane};
use crate::util::lanes;
use std::sync::Arc;
use vecsparse_formats::{DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    CtaCtx, InstrKind, KernelSpec, LaunchConfig, MemPool, MmaFlavor, Mode, NativeCtx, Program,
    Site, Tok, WVec,
};

/// The kernel's named point in the tiling space, shared by the reg, shfl
/// and arch variants (they differ in operand routing, not tiling).
const SCHEME: TilingScheme = scheme_for(KernelId::SddmmOctetReg);
/// Sub-step rounds per tile: `tile_n / sub_warp`.
const SUBS: usize = SCHEME.tile_n / SCHEME.sub_warp;
/// Octet k-slices per stride: `tile_k / 16`.
const M_SLICES: usize = SCHEME.tile_k / 16;

/// The listing's sites: `mma[sub][m]` covers sub-step `sub` and octet
/// k-slice `m`.
struct Sites {
    ld_rowptr: Site,
    ld_colidx: Site,
    ldg_a: [Site; 2],
    ldg_b: [Site; 2],
    mma: [[Site; M_SLICES]; SUBS],
    shfl_sw: Site,
    red_shfl: Site,
    red_fadd: Site,
    addr: Site,
    stg: Site,
}

/// The process-wide listing (it reads no input).
static LISTINGS: ListingCache<(), Sites> = ListingCache::new();

fn listing() -> Listing<Sites> {
    let mut p = Program::new();
    let sites = Sites {
        ld_rowptr: p.site("ld_rowptr", 0),
        ld_colidx: p.site("ld_colidx", 0),
        ldg_a: [p.site("ldg_a", 0), p.site("ldg_a", 1)],
        ldg_b: [p.site("ldg_b", 0), p.site("ldg_b", 1)],
        // Each mma spans its 4 static HMMA slots.
        mma: std::array::from_fn(|sub| {
            std::array::from_fn(|m| p.site_span("mma", (sub * 4 * M_SLICES + m * 4) as u32, 4))
        }),
        shfl_sw: p.site("shfl_sw", 0),
        red_shfl: p.site("red_shfl", 0),
        red_fadd: p.site("red_fadd", 0),
        addr: p.site("addr", 0),
        stg: p.site("stg", 0),
    };
    // Modest scalar prologue on top of the registered sites.
    let static_len = p.static_len() + 48;
    Listing {
        prog: p,
        sites,
        static_len,
    }
}

/// How the inverted source-operand pattern is handled (§6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OctetVariant {
    /// Extra accumulator registers ("mma (reg)").
    Reg,
    /// Warp shuffles before each mma ("mma (shfl)").
    Shfl,
    /// The proposed SWITCH HMMA extension ("mma (arch)").
    Arch,
}

impl OctetVariant {
    fn label(self) -> &'static str {
        match self {
            OctetVariant::Reg => "reg",
            OctetVariant::Shfl => "shfl",
            OctetVariant::Arch => "arch",
        }
    }
}

/// The octet-tiling SDDMM kernel.
pub struct OctetSddmm {
    /// The mask, walked on the host.
    mask: Arc<SparsityPattern>,
    /// The inner dimension: columns of `A`, rows of `B`.
    k: usize,
    variant: OctetVariant,
    bufs: SddmmBuffers,
    tiles: Vec<(usize, usize, usize)>,
    listing: Arc<Listing<Sites>>,
}

impl OctetSddmm {
    /// Stage inputs.
    ///
    /// # Panics
    /// Panics on shape/layout mismatch or unsupported V.
    pub fn new(
        mem: &mut MemPool,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
        mask: &SparsityPattern,
        variant: OctetVariant,
        mode: Mode,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SDDMM inner dimension mismatch");
        assert_eq!(a.rows(), mask.rows(), "mask rows");
        assert_eq!(b.cols(), mask.cols(), "mask cols");
        assert_eq!(a.layout(), Layout::RowMajor, "A must be row-major");
        assert_eq!(b.layout(), Layout::ColMajor, "B must be column-major");
        assert!(matches!(mask.v(), 1 | 2 | 4 | 8));
        let bufs = SddmmBuffers::upload(mem, a, b, mask, mode);
        Self::from_staged(Arc::new(mask.clone()), a.cols(), bufs, variant)
    }

    /// Build the kernel over buffers already staged for `mask` and inner
    /// dimension `k` (the engine's plan path; the caller has checked the
    /// shapes).
    pub(crate) fn from_staged(
        mask: Arc<SparsityPattern>,
        k: usize,
        bufs: SddmmBuffers,
        variant: OctetVariant,
    ) -> Self {
        let tiles = vector_tiles(&mask, SCHEME.tile_n);
        OctetSddmm {
            mask,
            k,
            variant,
            bufs,
            tiles,
            listing: LISTINGS.get((), listing),
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> VectorSparse<f16> {
        crate::util::download_vs(mem, self.bufs.out, &self.mask)
    }

    fn flavor(&self) -> MmaFlavor {
        match self.variant {
            OctetVariant::Arch => MmaFlavor::Switch,
            _ => MmaFlavor::Standard,
        }
    }
}

impl KernelSpec for OctetSddmm {
    fn name(&self) -> String {
        format!("sddmm-octet-{}(V={})", self.variant.label(), self.mask.v())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.tiles.len().max(1),
            warps_per_cta: 1,
            regs_per_thread: match self.variant {
                OctetVariant::Reg => 96,
                OctetVariant::Shfl => 72,
                OctetVariant::Arch => 64,
            },
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: self.listing.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.listing.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        super::tile_shard_layout(self.bufs.out, &self.mask, &self.tiles)
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let (br, start, len) = self.tiles[cta.cta_id];
        let v_len = self.mask.v();
        let k_total = self.k;
        let n = self.mask.cols();
        let tile_k = SCHEME.tile_k;
        let sub_n = SCHEME.sub_warp;
        let functional = cta.mode == Mode::Functional;
        let shadow = functional && cta.shadow_exec;
        let switch = self.variant == OctetVariant::Arch;
        let flavor = self.flavor();
        let s = &self.listing.sites;
        let row_base = br * v_len;

        let mut w = cta.warp(0);
        let rp = lanes(|l| if l < 2 { Some(br + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.idx.row_ptr, &rp, 1, &[]).tok();
        if len == 0 {
            return;
        }
        let ci = lanes(|l| if l < len { Some(start + l) } else { None });
        let ci_tok = w
            .ldg(s.ld_colidx, self.bufs.idx.col_idx, &ci, 1, &[rp_tok])
            .tok();
        w.int_ops(s.addr, 4, &[ci_tok]);

        // Per sub-step octet-partial accumulators (functional): indexed
        // [sub][octet][col 0..8][row 0..v].
        let subs = len.div_ceil(sub_n);
        let mut partials = vec![0.0f32; subs * 4 * sub_n * v_len];
        // fp64 twins of the partials, fed by the mma shadow pass.
        let mut partials64 = vec![0.0f64; if shadow { subs * 4 * sub_n * v_len } else { 0 }];
        // Trace accumulators per sub-step.
        let mut acc_frags: Vec<WVec> = (0..subs)
            .map(|_| {
                if functional {
                    WVec::zeros(8)
                } else {
                    WVec::ghost(8, Tok::NONE)
                }
            })
            .collect();

        for k0 in (0..k_total).step_by(tile_k) {
            let ks = tile_k.min(k_total - k0);
            // ① A rows: V × 64 halves straight to registers.
            let mut a_loaded = [WVec::zeros(8), WVec::zeros(8)];
            let a_parts = (v_len * tile_k).div_ceil(256);
            let mut a_tok = Tok::NONE;
            for (part, slot) in (0..a_parts).zip(0..2usize) {
                let offs = lanes(|l| {
                    let flat = part * 256 + l * 8;
                    let r = flat / tile_k;
                    let k = flat % tile_k;
                    if r < v_len && k < ks {
                        Some((row_base + r) * k_total + k0 + k)
                    } else {
                        None
                    }
                });
                a_loaded[slot] = w.ldg(s.ldg_a[slot], self.bufs.a, &offs, 8, &[rp_tok]);
                a_tok = a_loaded[slot].tok();
            }

            for sub in 0..subs {
                let cols: Vec<usize> = (0..sub_n.min(len - sub * sub_n))
                    .map(|j| self.mask.col_idx()[start + sub * sub_n + j] as usize)
                    .collect();
                // ③ gathered B columns: 8 × 64 halves to registers.
                let mut b_loaded = [WVec::zeros(8), WVec::zeros(8)];
                let mut b_tok = Tok::NONE;
                for slot in 0..2usize {
                    let offs = lanes(|l| {
                        let flat = slot * 256 + l * 8;
                        let c = flat / tile_k;
                        let k = flat % tile_k;
                        if c < cols.len() && k < ks && cols[c] < n {
                            Some(cols[c] * k_total + k0 + k)
                        } else {
                            None
                        }
                    });
                    b_loaded[slot] = w.ldg(s.ldg_b[slot], self.bufs.b, &offs, 8, &[ci_tok]);
                    b_tok = b_loaded[slot].tok();
                }
                if self.variant == OctetVariant::Shfl {
                    // High-group switch done in software: shuffle the
                    // operand registers between groups before the mmas.
                    let g = WVec::ghost(1, b_tok);
                    b_tok = w.shfl(s.shfl_sw, &g, |l| l ^ 16, &[a_tok, b_tok]).tok();
                    let g2 = WVec::ghost(1, b_tok);
                    b_tok = w.shfl(s.shfl_sw, &g2, |l| l ^ 16, &[b_tok]).tok();
                }

                for m in 0..M_SLICES {
                    let a_frag = marshal_sddmm_frag(
                        &b_loaded,
                        cols.len(),
                        tile_k,
                        k0,
                        m,
                        self.k,
                        switch,
                        b_tok,
                    );
                    let b_frag =
                        marshal_sddmm_frag(&a_loaded, v_len, tile_k, k0, m, self.k, switch, a_tok);
                    let site = s.mma[sub][m];
                    if functional {
                        // Compute octet partials directly with the TCU
                        // model, then fold into the host-side partial
                        // array (each octet owns a k-slice).
                        let mut acc = WVec::zeros(8);
                        w.mma_m8n8k4(site, &a_frag, &b_frag, &mut acc, flavor);
                        for o in 0..4 {
                            for g in 0..2 {
                                for t in 0..4 {
                                    let c = 4 * g + t;
                                    if c >= cols.len() {
                                        continue;
                                    }
                                    for r in 0..v_len {
                                        let base = ((sub * 4 + o) * sub_n + c) * v_len + r;
                                        // With SWITCH, writeback targets
                                        // the same acc positions.
                                        let lane = octet_lane(o, g, t);
                                        partials[base] += acc.get(lane, r);
                                        if shadow {
                                            partials64[base] += acc.get_shadow(lane, r);
                                        }
                                    }
                                }
                            }
                        }
                    } else {
                        w.mma_m8n8k4(site, &a_frag, &b_frag, &mut acc_frags[sub], flavor);
                    }
                }
                if self.variant == OctetVariant::Reg && !functional {
                    // The second accumulator set is merged with FADDs.
                    w.math(
                        s.red_fadd,
                        InstrKind::Ffma,
                        v_len as u32,
                        &[acc_frags[sub].tok()],
                    );
                }
            }
        }

        // Cross-octet reduction: two shuffle+add rounds per sub-step.
        let mut red_tok = Tok::NONE;
        for sub in 0..subs {
            let g = WVec::ghost(1, acc_frags[sub].tok());
            let t1 = w.shfl(s.red_shfl, &g, |l| (l + 8) % 32, &[acc_frags[sub].tok()]);
            let f1 = w.math(s.red_fadd, InstrKind::Ffma, v_len as u32, &[t1.tok()]);
            let g2 = WVec::ghost(1, f1);
            let t2 = w.shfl(s.red_shfl, &g2, |l| (l + 4) % 32, &[f1]);
            red_tok = w.math(s.red_fadd, InstrKind::Ffma, v_len as u32, &[t2.tok()]);
        }

        // Store: len vectors × V halves, contiguous in the CVSE layout.
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
                        if flat >= total {
                            continue;
                        }
                        let vec_j = flat / v_len;
                        let r = flat % v_len;
                        let sub = vec_j / sub_n;
                        let c = vec_j % sub_n;
                        let sum: f32 = (0..4)
                            .map(|o| partials[((sub * 4 + o) * sub_n + c) * v_len + r])
                            .sum();
                        vals.set(l, e, f16::from_f32(sum).to_f32());
                        if shadow {
                            let sum64: f64 = (0..4)
                                .map(|o| partials64[((sub * 4 + o) * sub_n + c) * v_len + r])
                                .sum();
                            vals.set_shadow(l, e, sum64);
                        }
                    }
                }
            } else {
                vals = WVec::ghost(epl, red_tok);
            }
            w.stg(s.stg, self.bufs.out, &offs, &vals, &[red_tok]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // All three routing variants share the fragment groupings.
        let (ab, out) = ctx.split::<f16, 2>([self.bufs.a, self.bufs.b], self.bufs.out);
        let c = Contract::of(SCHEME.tile, SCHEME.out_bits);
        let g = Grouping::Octet(SCHEME.tile_k);
        native::sddmm_vectors(out, ab, self.k, &self.mask, c, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{profile, run};
    use vecsparse_formats::{gen, reference};
    use vecsparse_gpu_sim::GpuConfig;

    fn check(variant: OctetVariant, m: usize, k: usize, n: usize, v: usize, s: f64, seed: u64) {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(m, k, Layout::RowMajor, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::ColMajor, seed + 1);
        let mask = gen::random_pattern(m, n, v, s, seed + 2);
        let got = run(
            &gpu,
            |mem, mode| OctetSddmm::new(mem, &a, &b, &mask, variant, mode),
            OctetSddmm::result,
        );
        let want = reference::sddmm(&a, &b, &mask);
        for (g, wv) in got.values().iter().zip(want.values()) {
            assert_eq!(g, wv, "variant {variant:?} V={v}");
        }
    }

    #[test]
    fn reg_variant_matches_reference() {
        check(OctetVariant::Reg, 32, 64, 64, 4, 0.7, 1);
    }

    #[test]
    fn shfl_variant_matches_reference() {
        check(OctetVariant::Shfl, 32, 128, 64, 8, 0.8, 2);
    }

    #[test]
    fn arch_variant_matches_reference() {
        check(OctetVariant::Arch, 32, 64, 64, 4, 0.7, 3);
        check(OctetVariant::Arch, 16, 128, 96, 8, 0.75, 4);
    }

    #[test]
    fn small_v_matches_reference() {
        check(OctetVariant::Reg, 16, 64, 64, 1, 0.5, 5);
        check(OctetVariant::Arch, 16, 64, 64, 2, 0.6, 6);
    }

    #[test]
    fn k_residue_matches_reference() {
        // K = 96 exercises a partial final 64-stride.
        check(OctetVariant::Reg, 16, 96, 64, 4, 0.7, 7);
    }

    #[test]
    fn listing_is_a_four_by_four_mma_table() {
        let l = LISTINGS.get((), listing);
        assert_eq!((SUBS, M_SLICES), (4, 4));
        assert_eq!(l.sites.mma[SUBS - 1][M_SLICES - 1].0 + 4, l.sites.shfl_sw.0);
        assert_eq!(l.static_len, l.prog.static_len() + 48);
    }

    #[test]
    fn arch_uses_fewer_registers_than_reg() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 8);
        let b = gen::random_dense::<f16>(256, 512, Layout::ColMajor, 9);
        let mask = gen::random_pattern(256, 512, 8, 0.9, 10);
        let pr = profile(&gpu, |mem, mode| {
            OctetSddmm::new(mem, &a, &b, &mask, OctetVariant::Reg, mode)
        });
        let pa = profile(&gpu, |mem, mode| {
            OctetSddmm::new(mem, &a, &b, &mask, OctetVariant::Arch, mode)
        });
        let ps = profile(&gpu, |mem, mode| {
            OctetSddmm::new(mem, &a, &b, &mask, OctetVariant::Shfl, mode)
        });
        // 33% fewer registers (§7.3.2) and fewer instructions than shfl.
        assert!(f64::from(pa.regs_per_thread) <= 0.67 * f64::from(pr.regs_per_thread));
        assert!(pa.instrs.shfl < ps.instrs.shfl);
        // arch is the fastest of the three.
        assert!(pa.cycles <= pr.cycles * 1.01);
        assert!(pa.cycles <= ps.cycles * 1.01);
    }
}
