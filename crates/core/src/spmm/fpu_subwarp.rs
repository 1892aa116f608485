//! FPU-based 1-D Subwarp Tiling SpMM — the Sputnik-derived baseline of
//! §5.1, extended to the column-vector sparse encoding.
//!
//! Each CTA holds one subwarp of 8 threads handling a `(V×TileK)·(TileK×64)`
//! 1-D tile (`#Subwarp = 1` is the tuning the paper found best: it
//! maximises grid size at the cost of shorter vector loads). The subwarp
//! stages the LHS vectors through shared memory, then per nonzero vector
//! loads a 64-wide row fragment of `B` (8 consecutive halves per thread —
//! a 128-byte transaction across the 8 active lanes) and accumulates
//! `V × 8` products per thread with HMUL/FADD sequences (half) or FFMA
//! (single).
//!
//! Its pathologies are the paper's §5.1 analysis: the fully-unrolled
//! V × TileK × TileN loop nest produces a several-thousand-line program
//! that thrashes the L0 instruction cache ("No Instruction"), the
//! per-vector integer address arithmetic stalls on fixed-latency
//! dependencies ("Wait"), and the FPU math pipe bounds throughput.

use crate::compose::{scheme_for, TilingScheme};
use crate::native::{self, Contract};
use crate::registry::KernelId;
use crate::util::{download_dense, lanes, upload_dense, upload_vs, width_of, VsBuffers};
use vecsparse_formats::{DenseMatrix, Layout, Scalar, VectorSparse};
use vecsparse_fp16::{f16, hmul_fadd};
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, InstrKind, KernelProfile, KernelSpec, Launch, LaunchConfig,
    MemPool, Mode, NativeCtx, Program, Site, Tok,
};

/// The kernel's named default point in the tiling space.
const SCHEME: TilingScheme = scheme_for(KernelId::SpmmFpuSubwarp);
/// Active threads per subwarp.
const SUBWARP: usize = SCHEME.sub_warp;
/// Output tile width.
const TILE_N: usize = SCHEME.tile_n;
/// Nonzero vectors per shared-memory stride.
const TILE_K: usize = SCHEME.tile_k;
/// Output columns per thread.
const COLS_PER_THREAD: usize = TILE_N / SUBWARP;

/// The FPU subwarp-tiling SpMM kernel, generic over precision.
pub struct FpuSubwarpSpmm<'m, T: Scalar> {
    a: &'m VectorSparse<T>,
    b: &'m DenseMatrix<T>,
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
    sts_avals: Site,
    /// Per unrolled vector: shared LHS load, B row load, math, addressing.
    lds_a: Vec<Site>,
    ldg_b: Vec<Site>,
    math: Vec<Site>,
    addr: Vec<Site>,
    stg: Site,
}

impl<'m, T: Scalar> FpuSubwarpSpmm<'m, T> {
    /// Stage inputs and build the static program.
    ///
    /// # Panics
    /// Panics on shape mismatch or unsupported V.
    pub fn new(
        mem: &mut MemPool,
        a: &'m VectorSparse<T>,
        b: &'m DenseMatrix<T>,
        mode: Mode,
    ) -> Self {
        let bufs = upload_vs(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<T>(), a.rows() * b.cols()),
            Mode::Performance => mem.alloc_ghost(width_of::<T>(), a.rows() * b.cols()),
        };
        Self::from_staged(a, b, bufs, b_buf, out_buf)
    }

    /// Build the kernel over operands already staged in a pool (the
    /// engine's plan path).
    ///
    /// # Panics
    /// Panics on shape mismatch or unsupported V.
    pub fn from_staged(
        a: &'m VectorSparse<T>,
        b: &'m DenseMatrix<T>,
        bufs: VsBuffers,
        b_buf: BufferId,
        out_buf: BufferId,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
        assert_eq!(b.layout(), Layout::RowMajor);
        assert!(matches!(a.v(), 1 | 2 | 4 | 8));

        let v = a.v();
        let mut p = Program::new();
        let ld_rowptr = p.site("ld_rowptr", 0);
        let ld_colidx = p.site("ld_colidx", 0);
        let ld_avals = p.site("ld_avals", 0);
        let sts_avals = p.site("sts_avals", 0);
        let mut lds_a = Vec::new();
        let mut ldg_b = Vec::new();
        let mut math = Vec::new();
        let mut addr = Vec::new();
        // The inner loops over V, TileK and the per-thread columns are
        // fully unrolled (the compiler must know register indices at
        // compile time, §5.1), so every vector iteration owns static
        // instruction slots.
        let math_per_vec = v * COLS_PER_THREAD / 2; // paired half2/FFMA
        let addr_per_vec = v * 2;
        for j in 0..TILE_K as u32 {
            lds_a.push(p.site("lds_a", j));
            ldg_b.push(p.site("ldg_b", j));
            for m in 0..math_per_vec as u32 {
                math.push(p.site("math", j * 64 + m));
            }
            for i in 0..addr_per_vec as u32 {
                addr.push(p.site("addr", j * 64 + i));
            }
        }
        let stg = p.site("stg", 0);
        // The residue loop is a second unrolled copy of the body.
        let static_len = p.static_len() * 2 + 40;

        FpuSubwarpSpmm {
            a,
            b,
            bufs,
            b_buf,
            out_buf,
            sites: Sites {
                ld_rowptr,
                ld_colidx,
                ld_avals,
                sts_avals,
                lds_a,
                ldg_b,
                math,
                addr,
                stg,
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
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<T> {
        download_dense(mem, self.out_buf, self.a.rows(), self.b.cols())
    }

    fn n_chunks(&self) -> usize {
        self.b.cols().div_ceil(TILE_N)
    }
}

impl<T: Scalar> KernelSpec for FpuSubwarpSpmm<'_, T> {
    fn name(&self) -> String {
        format!("spmm-fpu-subwarp(V={},{})", self.a.v(), T::NAME)
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.a.pattern().block_rows() * self.n_chunks(),
            warps_per_cta: 1,
            // V × 8 f32 accumulators per thread plus operands.
            regs_per_thread: (self.a.v() as u32 * COLS_PER_THREAD as u32) + 32,
            smem_elems: TILE_K * self.a.v(),
            smem_elem_bytes: T::bytes() as u64,
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
        let v = self.a.v();
        let p = self.a.pattern();
        let n = self.b.cols();
        let k = self.b.rows();
        let chunks = self.n_chunks();
        let br = cta.cta_id / chunks;
        let n0 = (cta.cta_id % chunks) * TILE_N;
        let range = p.block_row_range(br);
        let functional = cta.mode == Mode::Functional;
        let shadow = functional && cta.shadow_exec;
        let s = &self.sites;
        let half = T::BITS == 16;
        // Vector width of a B-row fragment load per thread: 8 halves is
        // one LDG.128; 8 floats needs two LDG.128.
        let b_loads = if half { 1 } else { 2 };
        let epl_b = if half { 8 } else { 4 };

        // Functional accumulator for the V×64 tile (f32, rounded at store)
        // plus its fp64 shadow twin (empty when shadow execution is off).
        let mut acc = vec![0.0f32; v * TILE_N];
        let mut acc64 = vec![0.0f64; if shadow { v * TILE_N } else { 0 }];

        let mut w = cta.warp(0);
        let rp = lanes(|l| if l < 2 { Some(br + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.row_ptr, &rp, 1, &[]).tok();
        let mut addr_tok = w.int_ops(s.addr[0], 2, &[rp_tok]);
        // Last accumulator token; the epilogue store depends on it.
        let mut math_tok = Tok::NONE;

        let mut i = range.start;
        while i < range.end {
            let stride = (range.end - i).min(TILE_K);
            // Stage indices and LHS vectors (8 active lanes share the
            // work: shorter vector loads than the octet kernel's).
            let ci = lanes(|l| {
                if l < SUBWARP {
                    let idx = i + l * stride.div_ceil(SUBWARP);
                    if idx < range.end {
                        Some(idx)
                    } else {
                        None
                    }
                } else {
                    None
                }
            });
            let ci_tok = w
                .ldg(
                    s.ld_colidx,
                    self.bufs.col_idx,
                    &ci,
                    stride.div_ceil(SUBWARP).min(4),
                    &[],
                )
                .tok();
            let per_lane_vals = (stride * v).div_ceil(SUBWARP);
            let epl_a = per_lane_vals
                .min(128 / T::BITS as usize)
                .min(stride * v)
                .max(1);
            let av = lanes(|l| {
                if l < SUBWARP && l * per_lane_vals < stride * v {
                    // Clamp the tail lane so the vector load stays inside
                    // this stride's values.
                    Some(i * v + (l * per_lane_vals).min(stride * v - epl_a))
                } else {
                    None
                }
            });
            let avals = w.ldg(s.ld_avals, self.bufs.values, &av, epl_a, &[ci_tok]);
            let sts_off = lanes(|l| if l < SUBWARP { Some(l * epl_a) } else { None });
            w.sts(s.sts_avals, &sts_off, &avals, &[]);

            for j in 0..stride {
                let vec_idx = i + j;
                let col = p.col_idx()[vec_idx] as usize;
                debug_assert!(col < k);
                // Broadcast the vector's V values from shared memory.
                let lds_off = lanes(|l| if l < SUBWARP { Some(j * v) } else { None });
                let a_frag = w.lds(s.lds_a[j % TILE_K], &lds_off, v, &[]);
                let _ = &a_frag;
                // Address arithmetic for this vector's B row (unrolled:
                // distinct static instructions per vector iteration).
                addr_tok = w.int_ops_unrolled(
                    s.addr[(j % TILE_K) * (v * 2).max(1) % s.addr.len()],
                    (v * 2) as u32,
                    &[ci_tok, addr_tok],
                );
                // B row fragment: 8 lanes × 8 elements.
                let mut b_tok = Tok::NONE;
                for bl in 0..b_loads {
                    let offs = lanes(|l| {
                        if l < SUBWARP {
                            let c = n0 + l * COLS_PER_THREAD + bl * epl_b;
                            if c < n {
                                Some(col * n + c)
                            } else {
                                None
                            }
                        } else {
                            None
                        }
                    });
                    b_tok = w
                        .ldg(s.ldg_b[j % TILE_K], self.b_buf, &offs, epl_b, &[addr_tok])
                        .tok();
                }
                // Math: V × 8 MACs per thread, issued as paired
                // HMUL2/FADD (half) or FFMA (single); the accumulator
                // chains across vectors.
                let math_per_vec = (v * COLS_PER_THREAD / 2).max(1) as u32;
                let kind = if half {
                    InstrKind::Hfma2
                } else {
                    InstrKind::Ffma
                };
                let base_site =
                    s.math[(j % TILE_K) * (v * COLS_PER_THREAD / 2).max(1) % s.math.len()];
                // Two unrolled halves filling exactly the math_per_vec
                // slots this vector group reserved.
                let n1 = math_per_vec.div_ceil(2);
                let t1 = w.math_unrolled(base_site, kind, n1, &[b_tok, math_tok]);
                let t2 = w.math_unrolled(
                    Site(base_site.0 + n1),
                    InstrKind::Ffma,
                    math_per_vec / 2,
                    &[t1, math_tok],
                );
                math_tok = if t2 == Tok::NONE { t1 } else { t2 };

                if functional {
                    for e in 0..v {
                        let a_val = T::from_f32(w.mem().read(self.bufs.values, vec_idx * v + e));
                        for c in 0..TILE_N.min(n - n0) {
                            let b_val = T::from_f32(w.mem().read(self.b_buf, col * n + n0 + c));
                            acc[e * TILE_N + c] = if half {
                                hmul_fadd(
                                    f16::from_f32(a_val.to_f32()),
                                    f16::from_f32(b_val.to_f32()),
                                    acc[e * TILE_N + c],
                                )
                            } else {
                                acc[e * TILE_N + c] + a_val.to_f32() * b_val.to_f32()
                            };
                            if shadow {
                                acc64[e * TILE_N + c] +=
                                    f64::from(a_val.to_f32()) * f64::from(b_val.to_f32());
                            }
                        }
                    }
                }
            }
            i += stride;
        }

        // Store the V×64 tile row-safely (residue chunks never cross the
        // row end).
        let row_base = br * v;
        let tn = TILE_N.min(n - n0);
        for r in 0..v {
            if row_base + r >= self.a.rows() {
                break;
            }
            if functional {
                let vals: Vec<f32> = (0..tn)
                    .map(|c| T::from_f32(acc[r * TILE_N + c]).to_f32())
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
                    epl_b,
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
                    epl_b,
                    math_tok,
                );
            }
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Ascending-j HMUL/FADD chain across strides (the paper's §4).
        let ([values, b], out) = ctx.split([self.bufs.values, self.b_buf], self.out_buf);
        let c = Contract::of(SCHEME.tile, T::BITS);
        native::spmm_vector_sparse(out, b, self.b.cols(), c, self.a.pattern(), values);
        true
    }
}

/// Functional FPU subwarp SpMM.
pub fn spmm_fpu<T: Scalar>(
    gpu: &GpuConfig,
    a: &VectorSparse<T>,
    b: &DenseMatrix<T>,
) -> DenseMatrix<T> {
    let mut mem = MemPool::new();
    let kernel = FpuSubwarpSpmm::new(&mut mem, a, b, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the FPU subwarp SpMM kernel.
pub fn profile_spmm_fpu<T: Scalar>(
    gpu: &GpuConfig,
    a: &VectorSparse<T>,
    b: &DenseMatrix<T>,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = FpuSubwarpSpmm::new(&mut mem, a, b, Mode::Performance);
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

    fn check_f16(m: usize, k: usize, n: usize, v: usize, sparsity: f64, seed: u64) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);
        let got = spmm_fpu(&gpu, &a, &b);
        let want = reference::spmm_vs(&a, &b);
        assert_eq!(got.max_abs_diff(&want), 0.0, "V={v}");
    }

    #[test]
    fn matches_reference_all_v_half() {
        for (i, v) in [1usize, 2, 4, 8].into_iter().enumerate() {
            check_f16(16, 64, 64, v, 0.5, 10 + i as u64);
        }
    }

    #[test]
    fn matches_reference_single() {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f32>(16, 64, 4, 0.6, 20);
        let b = gen::random_dense::<f32>(64, 128, Layout::RowMajor, 21);
        let got = spmm_fpu(&gpu, &a, &b);
        let want = reference::spmm_vs(&a, &b);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn residue_path() {
        check_f16(8, 256, 64, 4, 1.0 - 35.0 / 256.0, 30);
    }

    #[test]
    fn program_is_bloated_and_fpu_bound() {
        // The §5.1 analysis: huge static program, no TCU usage.
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(256, 256, 4, 0.9, 40);
        let b = gen::random_dense::<f16>(256, 64, Layout::RowMajor, 41);
        let p = profile_spmm_fpu(&gpu, &a, &b);
        assert!(p.static_instrs > 768, "static {}", p.static_instrs);
        assert_eq!(p.instrs.hmma, 0);
        assert!(p.instrs.hfma2 > 0);
        assert!(p.stalls.pct_no_instruction() > 1.0);
    }

    #[test]
    fn grid_matches_table2() {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(2048, 256, 4, 0.9, 50);
        let b = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 51);
        let p = profile_spmm_fpu(&gpu, &a, &b);
        assert_eq!(p.grid, 2048); // 512 block rows × 4 column chunks.
    }
}
