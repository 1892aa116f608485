//! Dense GEMM baselines: surrogates for `cublasSgemm` (FPU) and
//! `cublasHgemm` (Tensor Core).
//!
//! Classic CTA-tiled GEMM with shared-memory staging and double buffering:
//! a `TILE_M × TILE_N` CTA tile advanced over K in `KSTEP` slices by eight
//! warps. The half-precision variant computes warp tiles on the TCU
//! (wmma-style, 16 HMMA per 16×32×16 fragment product); the single
//! precision variant uses FFMA. This is the "dense counterpart" every
//! speedup in the paper is measured against.

use crate::compose::{scheme_for, TilingScheme};
use crate::listing::{Listing, ListingCache};
use crate::native::{self, Contract};
use crate::registry::KernelId;
use crate::util::{alloc_output, download_dense, lanes, upload_dense};
use std::marker::PhantomData;
use std::sync::Arc;
use vecsparse_formats::{DenseMatrix, Layout, Scalar};
use vecsparse_gpu_sim::{
    BufferId, InstrKind, KernelSpec, LaunchConfig, MemPool, Mode, NativeCtx, Program, Site, WVec,
};

/// The kernel's named default point in the tiling space (`tile_n` is the
/// large-problem CTA tile width; small problems shrink adaptively).
const SCHEME: TilingScheme = scheme_for(KernelId::SpmmDense);
/// Warps per CTA.
const CTA_WARPS: usize = 8;
/// K-slice depth per shared-memory stage (in elements).
const KSTEP: usize = SCHEME.tile_k;

/// Dense GEMM kernel (`C = A · B`, all row-major).
pub struct DenseGemm<T: Scalar> {
    /// Rows of `A` and of the output.
    m: usize,
    /// Columns of `A`, rows of `B`.
    k: usize,
    /// Columns of `B` and of the output.
    n: usize,
    a_buf: BufferId,
    b_buf: BufferId,
    out_buf: BufferId,
    tile_m: usize,
    tile_n: usize,
    /// Split-K factor: small/skinny problems are split along K across
    /// CTAs so the machine stays occupied, as a tuned BLAS does. The
    /// cross-split reduction is assumed fused (its traffic is negligible
    /// at these sizes). Performance mode only; the functional path keeps
    /// one CTA per output tile.
    split_k: usize,
    listing: Arc<Listing<Sites>>,
    precision: PhantomData<T>,
}

struct Sites {
    ldg_a: [Site; 2],
    ldg_b: [Site; 2],
    sts: [Site; 4],
    bar: Site,
    lds_a: [Site; 4],
    lds_b: [Site; 2],
    mma: Vec<Site>,
    fma: Vec<Site>,
    addr: Site,
    stg: Site,
    loopb: Site,
}

/// The process-wide listings, keyed by the unrolled HMMA and FFMA counts
/// (tile shape and precision reach the listing only through them).
static LISTINGS: ListingCache<(usize, usize), Sites> = ListingCache::new();

/// The listing with `mma_count` HMMA and `fma_count` FFMA sites.
fn listing((mma_count, fma_count): (usize, usize)) -> Listing<Sites> {
    let mut p = Program::new();
    let sites = Sites {
        ldg_a: [p.site("ldg_a", 0), p.site("ldg_a", 1)],
        ldg_b: [p.site("ldg_b", 0), p.site("ldg_b", 1)],
        sts: [
            p.site("sts", 0),
            p.site("sts", 1),
            p.site("sts", 2),
            p.site("sts", 3),
        ],
        bar: p.site("bar", 0),
        lds_a: [
            p.site("lds_a", 0),
            p.site("lds_a", 1),
            p.site("lds_a", 2),
            p.site("lds_a", 3),
        ],
        lds_b: [p.site("lds_b", 0), p.site("lds_b", 1)],
        mma: (0..mma_count as u32 * 4)
            .step_by(4)
            .map(|i| p.site_span("hmma", i, 4))
            .collect(),
        fma: (0..fma_count as u32).map(|i| p.site("ffma", i)).collect(),
        addr: p.site("addr", 0),
        stg: p.site("stg", 0),
        loopb: p.site("loop", 0),
    };
    // HMMA sites reserve their 4 static steps via `site_span`.
    let static_len = p.static_len();
    Listing {
        prog: p,
        sites,
        static_len,
    }
}

impl<T: Scalar> DenseGemm<T> {
    /// Stage inputs and allocate the output buffer.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or layouts are not
    /// row-major (`cublas*gemm` on row-major tensors, as the paper uses).
    pub fn new(mem: &mut MemPool, a: &DenseMatrix<T>, b: &DenseMatrix<T>, mode: Mode) -> Self {
        assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
        assert_eq!(a.layout(), Layout::RowMajor);
        assert_eq!(b.layout(), Layout::RowMajor);
        let a_buf = upload_dense(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let out_buf = alloc_output::<T>(mem, a.rows() * b.cols(), mode);
        Self::from_staged(a.rows(), a.cols(), b.cols(), a_buf, b_buf, out_buf, mode)
    }

    /// Build the kernel over buffers already staged for an `m × k` `A`
    /// and a `k × n` `B` (the engine's plan path; the caller has checked
    /// the shapes). `mode` still picks the split-K policy.
    pub(crate) fn from_staged(
        m: usize,
        k: usize,
        n: usize,
        a_buf: BufferId,
        b_buf: BufferId,
        out_buf: BufferId,
        mode: Mode,
    ) -> Self {
        // Adapt the tile to small problems the way a tuned BLAS would.
        let tile_m = if m >= 128 { 128 } else { 64.min(m.max(16)) };
        let tile_n = if n >= SCHEME.tile_n {
            SCHEME.tile_n
        } else {
            64.min(n.max(16))
        };
        let base_grid = m.div_ceil(tile_m) * n.div_ceil(tile_n);
        let k_slices = k.div_ceil(KSTEP).max(1);
        let split_k = match mode {
            Mode::Functional => 1,
            // Real BLAS split-K factors stay small (the reduction pass and
            // partial-sum traffic grow with the factor; each split already
            // pays its own store traffic in this model).
            Mode::Performance => (160usize.div_ceil(base_grid)).clamp(1, 8).min(k_slices),
        };

        let tensor = T::BITS == 16;
        let mma_count = if tensor {
            // Per warp per 16-k fragment group: warp tile (tile_m/2 ×
            // tile_n/4), in 16×32 wmma units ⇒ (tile_m/2/16)*(tile_n/4/32)
            // wmma, 16 HMMA each; unrolled in SASS.
            let wm = (tile_m / 2 / 16).max(1);
            let wn = (tile_n / 4 / 32).max(1);
            wm * wn * 16
        } else {
            0
        };
        let fma_count = if tensor { 0 } else { 64 };
        let key = (mma_count, fma_count);

        DenseGemm {
            m,
            k,
            n,
            a_buf,
            b_buf,
            out_buf,
            tile_m,
            tile_n,
            split_k,
            listing: LISTINGS.get(key, || listing(key)),
            precision: PhantomData,
        }
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<T> {
        download_dense(mem, self.out_buf, self.m, self.n)
    }

    fn grid_dims(&self) -> (usize, usize) {
        (self.m.div_ceil(self.tile_m), self.n.div_ceil(self.tile_n))
    }
}

impl<T: Scalar> KernelSpec for DenseGemm<T> {
    fn name(&self) -> String {
        if T::BITS == 16 {
            "cublasHgemm(sim)".into()
        } else {
            "cublasSgemm(sim)".into()
        }
    }

    fn launch_config(&self) -> LaunchConfig {
        let (gm, gn) = self.grid_dims();
        // Shared: double-buffered A (tile_m × KSTEP) + B (KSTEP × tile_n).
        let smem_elems = 2 * (self.tile_m * KSTEP + KSTEP * self.tile_n);
        LaunchConfig {
            grid: gm * gn * self.split_k,
            warps_per_cta: CTA_WARPS,
            regs_per_thread: if T::BITS == 16 { 120 } else { 128 },
            smem_elems,
            smem_elem_bytes: T::bytes() as u64,
            static_instrs: self.listing.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.listing.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        // Row blocks are M-tiles. Split-K replicas of a tile declare the
        // same row block, so a performance-mode kernel (split_k > 1)
        // honestly fails the write-disjointness obligation — the
        // cross-split reduction is fused and not shard-safe.
        let (gm, gn) = self.grid_dims();
        let (m, n) = (self.m, self.n);
        if gm == 0 || gn == 0 {
            return None;
        }
        Some(vecsparse_gpu_sim::ShardLayout {
            out: self.out_buf,
            rows: gm,
            row_starts: (0..=gm)
                .map(|r| ((r * self.tile_m).min(m) * n) as u32)
                .collect(),
            cta_rows: (0..gm * gn * self.split_k)
                .map(|c| {
                    let tr = ((c % (gm * gn)) / gn) as u32;
                    (tr, tr + 1)
                })
                .collect(),
        })
    }

    fn run_cta(&self, cta: &mut vecsparse_gpu_sim::CtaCtx<'_>) {
        let (gm, gn) = self.grid_dims();
        let tile_id = cta.cta_id % (gm * gn);
        let split = cta.cta_id / (gm * gn);
        let m0 = (tile_id / gn) * self.tile_m;
        let n0 = (tile_id % gn) * self.tile_n;
        let (m, n, k) = (self.m, self.n, self.k);
        let tm = self.tile_m.min(m - m0);
        let tn = self.tile_n.min(n - n0);

        match cta.mode {
            Mode::Functional => self.run_functional(cta, m0, n0, tm, tn, k, n),
            Mode::Performance => {
                // Each split handles a contiguous K slice.
                let per = k.div_ceil(self.split_k);
                let k_lo = split * per;
                let k_hi = (k_lo + per).min(k);
                self.run_performance(cta, m0, n0, k_lo, k_hi, n, k);
            }
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Functional mode never splits K: one ascending-l reduction that
        // skips exact-zero A values, rounded once at store (the F2F).
        let k = self.k;
        let ([a, b], out) = ctx.split::<T, 2>([self.a_buf, self.b_buf], self.out_buf);
        let c = Contract::of(SCHEME.tile, T::BITS).skipping_zero_a();
        native::spmm_rows(out, b, self.n, c, |row| {
            a[row * k..(row + 1) * k].iter().copied().zip(0..k)
        });
        true
    }
}

impl<T: Scalar> DenseGemm<T> {
    /// Functional path: compute the CTA tile directly and store it through
    /// traced-store-compatible warp stores (the performance path emits the
    /// matching instruction stream).
    #[allow(clippy::too_many_arguments)] // Tile geometry is clearer flat.
    fn run_functional(
        &self,
        cta: &mut vecsparse_gpu_sim::CtaCtx<'_>,
        m0: usize,
        n0: usize,
        tm: usize,
        tn: usize,
        k: usize,
        n: usize,
    ) {
        let shadow = cta.shadow_exec;
        let mut tile = vec![0.0f32; tm * tn];
        // fp64 twin of the tile for shadow execution; empty when off.
        let mut tile64 = vec![0.0f64; if shadow { tm * tn } else { 0 }];
        for r in 0..tm {
            for l in 0..k {
                let av = cta.read(self.a_buf, (m0 + r) * k + l);
                if av == 0.0 {
                    continue;
                }
                for c in 0..tn {
                    let bv = cta.read(self.b_buf, l * n + n0 + c);
                    tile[r * tn + c] += av * bv;
                    if shadow {
                        tile64[r * tn + c] += f64::from(av) * f64::from(bv);
                    }
                }
            }
        }
        // Round to the element grid exactly once, like the real kernel's
        // final F2F on store.
        let round = |v: f32| T::from_f32(v).to_f32();
        // Store row by row: 32 lanes × up to 4 elements per store.
        let stg = self.listing.sites.stg;
        for r in 0..tm {
            let mut c = 0;
            while c < tn {
                let chunk = (tn - c).min(128);
                let epl = chunk.div_ceil(32).min(4);
                let active = chunk.div_ceil(epl);
                let mut v = WVec::zeros(epl);
                for lane in 0..active {
                    for e in 0..epl {
                        let cc = c + lane * epl + e;
                        if cc < tn {
                            v.set(lane, e, round(tile[r * tn + cc]));
                            if shadow {
                                v.set_shadow(lane, e, tile64[r * tn + cc]);
                            }
                        }
                    }
                }
                let offs = lanes(|l| {
                    if l < active && c + l * epl < tn {
                        Some((m0 + r) * n + n0 + c + l * epl)
                    } else {
                        None
                    }
                });
                cta.warp(r % CTA_WARPS)
                    .stg(stg, self.out_buf, &offs, &v, &[]);
                c += chunk;
            }
        }
    }

    /// Performance path: emit the instruction stream of the tiled kernel
    /// over the K slice `k_lo..k_hi` (`k_stride` is the full row pitch).
    #[allow(clippy::too_many_arguments)]
    fn run_performance(
        &self,
        cta: &mut vecsparse_gpu_sim::CtaCtx<'_>,
        m0: usize,
        n0: usize,
        k_lo: usize,
        k_hi: usize,
        n: usize,
        k_stride: usize,
    ) {
        let s = &self.listing.sites;
        let tensor = T::BITS == 16;
        let tile_m = self.tile_m;
        let tile_n = self.tile_n;
        let rows_per_warp = tile_m / CTA_WARPS;
        let k = k_stride;
        // Last accumulator token per warp; the epilogue store depends on it.
        let mut acc_toks = [vecsparse_gpu_sim::Tok::NONE; CTA_WARPS];

        for k0 in (k_lo..k_hi).step_by(KSTEP) {
            let ks = KSTEP.min(k_hi - k0);
            // Stage A and B slices through shared memory, each warp
            // loading its share with the widest loads that fit.
            for w in 0..CTA_WARPS {
                let mut warp = cta.warp(w);
                // A: rows_per_warp rows × ks elements (row-major); the
                // widest loads that fit, with enough parts to cover the
                // whole slab at either precision.
                let epl_a = 128 / T::BITS as usize; // LDG.128
                let a_parts = (rows_per_warp * ks).div_ceil(32 * epl_a);
                for i in 0..a_parts {
                    let site = s.ldg_a[i % s.ldg_a.len()];
                    let offs = lanes(|l| {
                        let flat = (i * 32 + l) * epl_a;
                        let r = flat / ks.max(1);
                        let c = flat % ks.max(1);
                        // Rows past the matrix edge are predicated off.
                        if r < rows_per_warp && c < ks && m0 + w * rows_per_warp + r < self.m {
                            Some((m0 + w * rows_per_warp + r) * k + k0 + c)
                        } else {
                            None
                        }
                    });
                    let v = warp.ldg(site, self.a_buf, &offs, epl_a, &[]);
                    // Each warp stages its own rows_per_warp × KSTEP slab;
                    // overlapping another warp's slab would be a race.
                    let slab = rows_per_warp * KSTEP;
                    let smem = lanes(|l| Some(w * slab + ((i * 32 + l) * epl_a) % slab.max(1)));
                    warp.sts(s.sts[i % 2], &smem, &v, &[]);
                }
                // B: ks × tile_n, each warp takes ks/CTA_WARPS rows
                // (at least one).
                let brows = (ks / CTA_WARPS).max(1);
                let b_parts = (brows * tile_n).div_ceil(32 * epl_a);
                for i in 0..b_parts {
                    let site = s.ldg_b[i % s.ldg_b.len()];
                    let offs = lanes(|l| {
                        let flat = (i * 32 + l) * epl_a;
                        let r = flat / tile_n;
                        let c = flat % tile_n;
                        if r < brows && c < tile_n && n0 + c < n {
                            Some((k0 + w * brows + r).min(k - 1) * n + n0 + c)
                        } else {
                            None
                        }
                    });
                    let v = warp.ldg(site, self.b_buf, &offs, epl_a, &[]);
                    // B slab rows w*brows..(w+1)*brows of the staged slice.
                    let slab = brows * tile_n;
                    let smem = lanes(|l| {
                        Some(tile_m * KSTEP + w * slab + ((i * 32 + l) * epl_a) % slab.max(1))
                    });
                    warp.sts(s.sts[2 + i % 2], &smem, &v, &[]);
                }
                warp.bar_sync(s.bar);
            }
            // Compute phase: per warp, fragments from shared + math.
            for w in 0..CTA_WARPS {
                let mut warp = cta.warp(w);
                let mut frag_toks = [vecsparse_gpu_sim::Tok::NONE; 6];
                for (i, &site) in s.lds_a.iter().enumerate() {
                    let offs = lanes(|l| Some((w * 512 + i * 32 + l) * 8 % (tile_m * KSTEP)));
                    let v = warp.lds(site, &offs, 8, &[]);
                    frag_toks[i] = v.tok();
                }
                for (i, &site) in s.lds_b.iter().enumerate() {
                    let offs =
                        lanes(|l| Some(tile_m * KSTEP + (i * 32 + l) * 8 % (KSTEP * tile_n)));
                    let v = warp.lds(site, &offs, 8, &[]);
                    frag_toks[4 + i] = v.tok();
                }
                if tensor {
                    // Two 16-k fragment groups per KSTEP.
                    for _g in 0..(ks.div_ceil(16)) {
                        let mut a = WVec::ghost(4, frag_toks[0]);
                        let b = WVec::ghost(4, frag_toks[4]);
                        for &site in &s.mma {
                            let mut acc = WVec::ghost(8, acc_toks[w]);
                            acc_toks[w] = warp.mma_m8n8k4(
                                site,
                                &a,
                                &b,
                                &mut acc,
                                vecsparse_gpu_sim::MmaFlavor::Standard,
                            );
                            a = WVec::ghost(4, frag_toks[0]);
                        }
                    }
                } else {
                    // FFMA: 64 outputs per thread per k.
                    for _kk in 0..ks {
                        acc_toks[w] = warp.math(
                            s.fma[0],
                            InstrKind::Ffma,
                            s.fma.len() as u32,
                            &[frag_toks[0], frag_toks[4]],
                        );
                    }
                }
                warp.int_ops(s.addr, 4, &[]);
                warp.misc(s.loopb, 1);
                warp.bar_sync(s.bar);
            }
        }
        // Epilogue: store the tile.
        for w in 0..CTA_WARPS {
            let mut warp = cta.warp(w);
            let epl = (128 / T::BITS as usize).min(4);
            for r in 0..rows_per_warp {
                if m0 + w * rows_per_warp + r >= self.m {
                    break;
                }
                let offs = lanes(|l| {
                    let c = l * epl;
                    if c < tile_n && n0 + c < n {
                        Some((m0 + w * rows_per_warp + r) * n + n0 + c)
                    } else {
                        None
                    }
                });
                let v = WVec::ghost(epl, acc_toks[w]);
                warp.stg(s.stg, self.out_buf, &offs, &v, &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{profile, run};
    use vecsparse_formats::{gen, reference};
    use vecsparse_fp16::f16;
    use vecsparse_gpu_sim::GpuConfig;

    #[test]
    fn functional_matches_reference_f32() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f32>(96, 48, Layout::RowMajor, 1);
        let b = gen::random_dense::<f32>(48, 80, Layout::RowMajor, 2);
        let got = run(
            &gpu,
            |mem, mode| DenseGemm::new(mem, &a, &b, mode),
            DenseGemm::result,
        );
        let want = reference::gemm(&a, &b);
        assert!(
            got.max_abs_diff(&want) < 1e-4,
            "diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn functional_matches_reference_f16() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 3);
        let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 4);
        let got = run(
            &gpu,
            |mem, mode| DenseGemm::new(mem, &a, &b, mode),
            DenseGemm::result,
        );
        let want = reference::gemm(&a, &b);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn profile_has_tcu_traffic_for_half() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 5);
        let b = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 6);
        let p = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a, &b, mode));
        assert!(p.instrs.hmma > 0);
        assert_eq!(p.instrs.ffma, 0);
        assert!(p.cycles > 0.0);
    }

    #[test]
    fn profile_uses_fpu_for_single() {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f32>(256, 256, Layout::RowMajor, 5);
        let b = gen::random_dense::<f32>(256, 256, Layout::RowMajor, 6);
        let p = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a, &b, mode));
        assert_eq!(p.instrs.hmma, 0);
        assert!(p.instrs.ffma > 0);
    }

    #[test]
    fn half_is_faster_than_single() {
        // The heart of §3: HGEMM beats SGEMM via the TCU.
        let gpu = GpuConfig::small();
        let ah = gen::random_dense::<f16>(512, 512, Layout::RowMajor, 7);
        let bh = gen::random_dense::<f16>(512, 512, Layout::RowMajor, 8);
        let ph = profile(&gpu, |mem, mode| DenseGemm::new(mem, &ah, &bh, mode));
        let as_ = gen::random_dense::<f32>(512, 512, Layout::RowMajor, 7);
        let bs = gen::random_dense::<f32>(512, 512, Layout::RowMajor, 8);
        let ps = profile(&gpu, |mem, mode| DenseGemm::new(mem, &as_, &bs, mode));
        assert!(
            ph.cycles * 2.0 < ps.cycles,
            "hgemm {} vs sgemm {}",
            ph.cycles,
            ps.cycles
        );
    }
}
