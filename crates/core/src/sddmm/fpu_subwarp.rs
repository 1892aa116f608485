//! FPU-based 1-D Subwarp Tiling SDDMM — the Sputnik-derived baseline of
//! §6.1, extended to the column-vector sparse encoding.
//!
//! Each CTA holds one 8-thread subwarp computing up to `TILE_N` nonzero
//! output vectors of a block row. Per 64-deep K stride the subwarp loads
//! the `V` A-rows and each gathered B-column with LDG.128 (8 consecutive
//! halves per thread — 128-byte coalesced, guidelines IV & V), then each
//! thread accumulates its `V × TILE_N` partial-sum slice with HMUL/FADD
//! chains; subwarp-wide shuffles reduce the per-thread partials at the
//! end. The per-thread partial-sum array is the §6.1 pathology: at
//! `V = 8, TILE_N = 32` it alone would need 256 registers (spilling), so
//! the tuned configuration uses `TILE_N = 16` and still pays in
//! occupancy.

use super::{vector_tiles, SddmmBuffers};
use crate::compose::{scheme_for, TilingScheme};
use crate::listing::{Listing, ListingCache};
use crate::native::{self, Contract, Grouping};
use crate::registry::KernelId;
use crate::util::lanes;
use std::marker::PhantomData;
use std::sync::Arc;
use vecsparse_formats::{DenseMatrix, Layout, Scalar, SparsityPattern, VectorSparse};
use vecsparse_fp16::{f16, hmul_fadd};
use vecsparse_gpu_sim::{
    CtaCtx, InstrKind, KernelSpec, LaunchConfig, MemPool, Mode, NativeCtx, Program, Site, Tok, WVec,
};

/// The kernel's named default point in the tiling space.
const SCHEME: TilingScheme = scheme_for(KernelId::SddmmFpuSubwarp);
/// Active threads per subwarp.
const SUBWARP: usize = SCHEME.sub_warp;
/// Nonzero output vectors per tile (tuned down from 32 to avoid register
/// spilling, §6.1).
const TILE_N: usize = SCHEME.tile_n;
/// K-stride per step.
const TILE_K: usize = SCHEME.tile_k;

/// The FPU subwarp-tiling SDDMM kernel, generic over precision.
pub struct FpuSubwarpSddmm<T: Scalar> {
    /// The mask, walked on the host.
    mask: Arc<SparsityPattern>,
    /// The inner dimension: columns of `A`, rows of `B`.
    k: usize,
    bufs: SddmmBuffers,
    tiles: Vec<(usize, usize, usize)>,
    listing: Arc<Listing<Sites>>,
    precision: PhantomData<T>,
}

struct Sites {
    ld_idx: Site,
    ldg_a: Site,
    ldg_b: Vec<Site>,
    math: Vec<Site>,
    addr: Vec<Site>,
    red: Site,
    stg: Site,
}

/// The process-wide listings, keyed by V.
static LISTINGS: ListingCache<usize, Sites> = ListingCache::new();

/// The listing at vector length `v`, the only input it reads.
fn listing(v: usize) -> Listing<Sites> {
    let mut p = Program::new();
    let ld_idx = p.site("ld_idx", 0);
    let ldg_a = p.site("ldg_a", 0);
    let mut ldg_b = Vec::new();
    let mut math = Vec::new();
    let mut addr = Vec::new();
    // Fully unrolled over the TILE_N vectors and the per-thread V×8
    // products — the §6.1 program-size pathology.
    for j in 0..TILE_N as u32 {
        ldg_b.push(p.site("ldg_b", j));
        for mi in 0..(v as u32 * 4).max(1) {
            math.push(p.site("math", j * 64 + mi));
        }
        for ai in 0..(v as u32 * 2).max(2) {
            addr.push(p.site("addr", j * 32 + ai));
        }
    }
    // Shuffle + add of each butterfly round sit at adjacent pcs.
    let red = p.site_span("red", 0, 2);
    let stg = p.site("stg", 0);
    let static_len = p.static_len() * 2 + 58;
    Listing {
        prog: p,
        sites: Sites {
            ld_idx,
            ldg_a,
            ldg_b,
            math,
            addr,
            red,
            stg,
        },
        static_len,
    }
}

impl<T: Scalar> FpuSubwarpSddmm<T> {
    /// Stage inputs.
    ///
    /// # Panics
    /// Panics on shape/layout mismatch.
    pub fn new(
        mem: &mut MemPool,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        mask: &SparsityPattern,
        mode: Mode,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SDDMM inner dimension mismatch");
        assert_eq!(a.rows(), mask.rows());
        assert_eq!(b.cols(), mask.cols());
        assert_eq!(a.layout(), Layout::RowMajor);
        assert_eq!(b.layout(), Layout::ColMajor);
        let bufs = SddmmBuffers::upload(mem, a, b, mask, mode);
        Self::from_staged(Arc::new(mask.clone()), a.cols(), bufs)
    }

    /// Build the kernel over buffers already staged for `mask` and inner
    /// dimension `k` (the engine's plan path; the caller has checked the
    /// shapes).
    pub(crate) fn from_staged(mask: Arc<SparsityPattern>, k: usize, bufs: SddmmBuffers) -> Self {
        let tiles = vector_tiles(&mask, TILE_N);
        let v = mask.v();
        FpuSubwarpSddmm {
            mask,
            k,
            bufs,
            tiles,
            listing: LISTINGS.get(v, || listing(v)),
            precision: PhantomData,
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> VectorSparse<T> {
        crate::util::download_vs(mem, self.bufs.out, &self.mask)
    }
}

impl<T: Scalar> KernelSpec for FpuSubwarpSddmm<T> {
    fn name(&self) -> String {
        format!("sddmm-fpu-subwarp(V={},{})", self.mask.v(), T::NAME)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.tiles.len().max(1),
            warps_per_cta: 1,
            // V × TILE_N partial sums per thread, plus operands — the
            // §6.1 occupancy cost.
            regs_per_thread: (self.mask.v() * TILE_N) as u32 + 40,
            smem_elems: 0,
            smem_elem_bytes: T::bytes() as u64,
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
        let functional = cta.mode == Mode::Functional;
        let half = T::BITS == 16;
        let s = &self.listing.sites;
        let row_base = br * v_len;
        let epl = if half { 8 } else { 4 };

        let mut w = cta.warp(0);
        if len == 0 {
            return;
        }
        let ci = lanes(|l| if l < len { Some(start + l) } else { None });
        let ci_tok = w.ldg(s.ld_idx, self.bufs.idx.col_idx, &ci, 1, &[]).tok();

        let mut acc = vec![0.0f32; len * v_len];
        let mut math_tok = Tok::NONE;
        let mut addr_tok = ci_tok;

        for k0 in (0..k_total).step_by(TILE_K) {
            let ks = TILE_K.min(k_total - k0);
            // A rows: V rows × 64, each row split over the 8 lanes.
            for r in 0..v_len {
                for part in 0..(ks.div_ceil(SUBWARP * epl)) {
                    let offs = lanes(|l| {
                        if l < SUBWARP {
                            let k = (part * SUBWARP + l) * epl;
                            if k < ks {
                                Some((row_base + r) * k_total + k0 + k)
                            } else {
                                None
                            }
                        } else {
                            None
                        }
                    });
                    w.ldg(s.ldg_a, self.bufs.a, &offs, epl, &[]);
                }
            }
            for (j, &col_site) in (0..len).zip(s.ldg_b.iter().cycle()) {
                let col = self.mask.col_idx()[start + j] as usize;
                addr_tok = w.int_ops(
                    s.addr[(j * v_len * 2) % s.addr.len()],
                    (v_len as u32 * 2).max(2),
                    &[addr_tok],
                );
                // Gathered B column: 64 consecutive halves over 8 lanes.
                let mut b_tok = Tok::NONE;
                for part in 0..(ks.div_ceil(SUBWARP * epl)) {
                    let offs = lanes(|l| {
                        if l < SUBWARP {
                            let k = (part * SUBWARP + l) * epl;
                            if k < ks {
                                Some(col * k_total + k0 + k)
                            } else {
                                None
                            }
                        } else {
                            None
                        }
                    });
                    b_tok = w.ldg(col_site, self.bufs.b, &offs, epl, &[addr_tok]).tok();
                }
                // Per-thread math: V × 8 MACs, accumulator-chained.
                let kind = if half {
                    InstrKind::Hfma2
                } else {
                    InstrKind::Ffma
                };
                let count = ((v_len * SUBWARP) / if half { 2 } else { 1 }).max(1) as u32;
                let m1 = w.math(
                    s.math[(j * v_len * 4) % s.math.len()],
                    kind,
                    count / 2 + 1,
                    &[b_tok, math_tok],
                );
                math_tok = w.math(
                    s.math[(j * v_len * 4 + 1) % s.math.len()],
                    InstrKind::Ffma,
                    count / 2,
                    &[m1, math_tok],
                );
                if math_tok == Tok::NONE {
                    math_tok = m1;
                }

                if functional {
                    for r in 0..v_len {
                        for k in 0..ks {
                            let av = w.read(self.bufs.a, (row_base + r) * k_total + k0 + k);
                            let bv = w.read(self.bufs.b, col * k_total + k0 + k);
                            acc[j * v_len + r] = if half {
                                hmul_fadd(f16::from_f32(av), f16::from_f32(bv), acc[j * v_len + r])
                            } else {
                                acc[j * v_len + r] + av * bv
                            };
                        }
                    }
                }
            }
        }

        // Subwarp reduction: log2(8) = 3 shuffle+add rounds.
        let mut red_tok = math_tok;
        for round in 0..3 {
            let g = WVec::ghost(1, red_tok);
            let sh = w.shfl(s.red, &g, |l| l ^ (1 << round), &[red_tok]);
            red_tok = w.math(
                Site(s.red.0 + 1),
                InstrKind::Ffma,
                v_len as u32,
                &[sh.tok()],
            );
        }

        // Store the tile's values.
        let total = len * v_len;
        let per_store = 32;
        for st in 0..total.div_ceil(per_store) {
            let offs = lanes(|l| {
                let flat = st * per_store + l;
                if flat < total {
                    Some(start * v_len + flat)
                } else {
                    None
                }
            });
            let mut vals = WVec::zeros(1);
            if functional {
                for l in 0..32 {
                    let flat = st * per_store + l;
                    if flat < total {
                        vals.set(l, 0, T::from_f32(acc[flat]).to_f32());
                    }
                }
            } else {
                vals = WVec::ghost(1, red_tok);
            }
            w.stg(s.stg, self.bufs.out, &offs, &vals, &[red_tok]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // One HMUL/FADD chain in ascending k across the K-strides.
        let (ab, out) = ctx.split::<T, 2>([self.bufs.a, self.bufs.b], self.bufs.out);
        let c = Contract::of(SCHEME.tile, T::BITS);
        native::sddmm_vectors(out, ab, self.k, &self.mask, c, Grouping::Flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{profile, run};
    use vecsparse_formats::{gen, reference};
    use vecsparse_gpu_sim::GpuConfig;

    #[test]
    fn matches_reference_half() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(16, 64, Layout::RowMajor, 1);
        let b = gen::random_dense::<f16>(64, 64, Layout::ColMajor, 2);
        let mask = gen::random_pattern(16, 64, 4, 0.6, 3);
        let got = run(
            &gpu,
            |mem, mode| FpuSubwarpSddmm::new(mem, &a, &b, &mask, mode),
            FpuSubwarpSddmm::result,
        );
        let want = reference::sddmm(&a, &b, &mask);
        for (g, wv) in got.values().iter().zip(want.values()) {
            assert_eq!(g, wv);
        }
    }

    #[test]
    fn matches_reference_single() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f32>(16, 96, Layout::RowMajor, 4);
        let b = gen::random_dense::<f32>(96, 64, Layout::ColMajor, 5);
        let mask = gen::random_pattern(16, 64, 8, 0.8, 6);
        let got = run(
            &gpu,
            |mem, mode| FpuSubwarpSddmm::new(mem, &a, &b, &mask, mode),
            FpuSubwarpSddmm::result,
        );
        let want = reference::sddmm(&a, &b, &mask);
        for (g, wv) in got.values().iter().zip(want.values()) {
            assert!((g.to_f32() - wv.to_f32()).abs() < 1e-4);
        }
    }

    #[test]
    fn register_pressure_lowers_occupancy() {
        let gpu = GpuConfig::default();
        let a = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 7);
        let b = gen::random_dense::<f16>(256, 512, Layout::ColMajor, 8);
        let mask = gen::random_pattern(256, 512, 8, 0.9, 9);
        let p = profile(&gpu, |mem, mode| {
            FpuSubwarpSddmm::new(mem, &a, &b, &mask, mode)
        });
        // V=8 × TILE_N=16 partials ⇒ 168 regs/thread: occupancy-limited.
        assert!(p.regs_per_thread >= 160);
        assert!(p.ctas_per_sm <= 16, "ctas/SM {}", p.ctas_per_sm);
    }
}
