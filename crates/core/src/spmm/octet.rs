//! TCU-based 1-D Octet Tiling SpMM — the paper's §5.3 contribution.
//!
//! Tiling: each CTA is a single warp producing a `V × 64` output tile
//! (`tile_n = 64`, the smallest width that fills a 128-byte transaction);
//! the grid is `⌈M/V⌉ × ⌈N/64⌉` thread blocks, maximising TLP
//! (guideline II). The warp walks the block row's nonzero vectors in
//! strides of `stage_k` vectors; each 4-vector step computes a
//! `(64×4)·(4×V)` sub-tile — the LHS/RHS roles are **switched** so the
//! B-matrix fragment feeds the TCU's Mat_a buffers and the tiny `4 × V`
//! A-vector fragment feeds Mat_b, putting V on the output's horizontal
//! axis. One step costs two `mma.m8n8k4` (rows 0–31 and 32–63 of the
//! transposed output), i.e. eight HMMA instructions.
//!
//! Memory pattern (guidelines IV & V): the B fragment (few-reuse data)
//! goes straight to registers with one LDG.128 per thread — each of the
//! four nonzero columns' 64 consecutive halves split across eight lanes,
//! four 128-byte coalesced transactions per step. The A vectors (reused
//! across the 64 output columns) are staged through shared memory once
//! per stride. Within a stride, all loads issue before a
//! `__threadfence_block()` and the mma batch (the §5.4 ILP trick).
//!
//! The kernel is one point in the composer's tiling-configuration space
//! ([`crate::compose::TilingScheme`]): the stage geometry and load
//! schedule above are the default scheme, and
//! [`super::compose::octet_schemes`] names the non-default points the
//! Auto tuner sweeps. The functional path routes real values through
//! the same loads and [`vecsparse_gpu_sim::tcu`] octet semantics; the
//! [`crate::tile`] marshals map the loaded lane layout onto the
//! simulator's canonical mma fragment convention.

use super::compose::{compile_octet, OctetSites, DEFAULT_SCHEME};
use crate::compose::{LoadStrategy, TilingScheme};
use crate::native::{self, Contract};
use crate::tile::{marshal_spmm_mat_a, marshal_spmm_mat_b, octet_lane};
use crate::util::{lanes, upload_dense, upload_vs, width_of, VsBuffers};
use vecsparse_formats::{DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, GpuConfig, KernelProfile, KernelSpec, Launch, LaunchConfig, MemPool,
    MmaFlavor, Mode, NativeCtx, Program, Tok, WVec,
};

/// The octet-tiling SpMM kernel.
pub struct OctetSpmm<'m> {
    a: &'m VectorSparse<f16>,
    b: &'m DenseMatrix<f16>,
    bufs: VsBuffers,
    b_buf: BufferId,
    out_buf: BufferId,
    /// Execute only HMMA steps 0–1 when V ≤ 4 (the paper's future-work
    /// SASS optimisation, §7.1.3; off by default to match the evaluated
    /// kernels).
    truncate_hmma: bool,
    /// The tiling-configuration point this instance was compiled at.
    scheme: TilingScheme,
    sites: OctetSites,
    prog: Program,
    static_len: u32,
}

impl<'m> OctetSpmm<'m> {
    /// Stage inputs; `mode` decides whether values are materialised.
    ///
    /// # Panics
    /// Panics if shapes disagree, `B` is not row-major, or V > 8.
    pub fn new(
        mem: &mut MemPool,
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        mode: Mode,
    ) -> Self {
        Self::with_scheme(mem, a, b, mode, DEFAULT_SCHEME)
    }

    /// Stage inputs and compile at an explicit tiling scheme — the
    /// tuner's scheme-sweep path.
    ///
    /// # Panics
    /// Panics if shapes disagree, `B` is not row-major, V > 8, or the
    /// scheme's staging window is invalid for the octet listing.
    pub fn with_scheme(
        mem: &mut MemPool,
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        mode: Mode,
        scheme: TilingScheme,
    ) -> Self {
        let bufs = upload_vs(mem, a, mode);
        let b_buf = upload_dense(mem, b, mode);
        let out_buf = match mode {
            Mode::Functional => mem.alloc_zeroed(width_of::<f16>(), a.rows() * b.cols()),
            Mode::Performance => mem.alloc_ghost(width_of::<f16>(), a.rows() * b.cols()),
        };
        Self::from_staged_scheme(a, b, bufs, b_buf, out_buf, scheme)
    }

    /// Build the kernel over operands **already staged** in a pool —
    /// the engine's plan path, which uploads the sparse operand once and
    /// reuses its buffers across launches. Compiles the default scheme.
    ///
    /// # Panics
    /// Panics if shapes disagree, `B` is not row-major, or V > 8.
    pub fn from_staged(
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        bufs: VsBuffers,
        b_buf: BufferId,
        out_buf: BufferId,
    ) -> Self {
        Self::from_staged_scheme(a, b, bufs, b_buf, out_buf, DEFAULT_SCHEME)
    }

    /// [`Self::from_staged`] at an explicit tiling scheme — the plan
    /// path once the tuner has picked a non-default point.
    ///
    /// # Panics
    /// Panics if shapes disagree, `B` is not row-major, V > 8, or the
    /// scheme's staging window is invalid for the octet listing.
    pub fn from_staged_scheme(
        a: &'m VectorSparse<f16>,
        b: &'m DenseMatrix<f16>,
        bufs: VsBuffers,
        b_buf: BufferId,
        out_buf: BufferId,
        scheme: TilingScheme,
    ) -> Self {
        assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
        assert_eq!(b.layout(), Layout::RowMajor, "B must be row-major");
        assert!(
            matches!(a.v(), 1 | 2 | 4 | 8),
            "column vector length must be 1, 2, 4, or 8"
        );

        let (prog, sites, static_len) = compile_octet(&scheme);

        OctetSpmm {
            a,
            b,
            bufs,
            b_buf,
            out_buf,
            truncate_hmma: false,
            scheme,
            sites,
            prog,
            static_len,
        }
    }

    /// Enable the redundant-HMMA removal ablation (V ≤ 4 only).
    pub fn with_truncated_hmma(mut self, on: bool) -> Self {
        self.truncate_hmma = on && self.a.v() <= 4;
        self
    }

    /// Toggle the §5.4 ILP batching (on by default; off interleaves each
    /// step's load with its mma, modelling the compiler's register
    /// reuse). Sugar for moving the scheme between
    /// [`LoadStrategy::SyncFullOrdered`] and
    /// [`LoadStrategy::SyncBufferCyclic`] — the program's site table is
    /// schedule-independent, so no recompile is needed.
    pub fn with_ilp_batching(mut self, on: bool) -> Self {
        self.scheme.load = if on {
            LoadStrategy::SyncFullOrdered
        } else {
            LoadStrategy::SyncBufferCyclic
        };
        self
    }

    /// The tiling-configuration point this instance runs at.
    pub fn scheme(&self) -> &TilingScheme {
        &self.scheme
    }

    /// Output buffer id.
    pub fn output(&self) -> BufferId {
        self.out_buf
    }

    /// Download the functional result.
    pub fn result(&self, mem: &MemPool) -> DenseMatrix<f16> {
        crate::util::download_dense(mem, self.out_buf, self.a.rows(), self.b.cols())
    }

    fn n_chunks(&self) -> usize {
        self.b.cols().div_ceil(self.scheme.tile_n)
    }

    fn flavor(&self) -> MmaFlavor {
        if self.truncate_hmma {
            MmaFlavor::Truncated
        } else {
            MmaFlavor::Standard
        }
    }
}

impl KernelSpec for OctetSpmm<'_> {
    fn name(&self) -> String {
        format!("spmm-octet(V={})", self.a.v())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.a.pattern().block_rows() * self.n_chunks(),
            warps_per_cta: 1,
            // Two 8-wide f32 accumulators, the B fragment, A fragment and
            // index registers.
            regs_per_thread: 40,
            // Staged A vectors: stage_k × V halves.
            smem_elems: self.scheme.stage_k() * self.a.v(),
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
        let tile_n = self.scheme.tile_n;
        let stage_k = self.scheme.stage_k();
        let chunks = self.n_chunks();
        let br = cta.cta_id / chunks;
        let n0 = (cta.cta_id % chunks) * tile_n;
        let range = p.block_row_range(br);
        let row_ptr_base = br;
        let flavor = self.flavor();
        let functional = cta.mode == Mode::Functional;
        let s = &self.sites;

        let mut w = cta.warp(0);

        // Row pointers (two 32-bit loads in one request).
        let rp = lanes(|l| if l < 2 { Some(row_ptr_base + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.row_ptr, &rp, 1, &[]).tok();
        w.int_ops(s.addr, 2, &[rp_tok]);

        // Two mma accumulator fragments: transposed-output rows 0-31, 32-63.
        let mut acc = if functional {
            [WVec::zeros(8), WVec::zeros(8)]
        } else {
            [WVec::ghost(8, Tok::NONE), WVec::ghost(8, Tok::NONE)]
        };

        let mut i = range.start;
        while i < range.end {
            let stride = (range.end - i).min(stage_k);
            let full = stride == stage_k && self.scheme.load == LoadStrategy::SyncFullOrdered;

            // Stage this stride's column indices and A vectors.
            let ci = lanes(|l| if l < stride { Some(i + l) } else { None });
            let ci_tok = w.ldg(s.ld_colidx, self.bufs.col_idx, &ci, 1, &[]).tok();
            let av = lanes(|l| {
                if l < stride {
                    Some((i + l) * v_len)
                } else {
                    None
                }
            });
            let avals = w.ldg(s.ld_avals, self.bufs.values, &av, v_len, &[ci_tok]);
            let sts_off = lanes(|l| if l < stride { Some(l * v_len) } else { None });
            w.sts(s.sts_avals, &sts_off, &avals, &[]);

            let steps = stride.div_ceil(4);
            // Batched loads, fence, batched mma (ILP; only for full
            // strides under the ordered load schedule — the residue and
            // the cyclic schedule interleave, §5.4).
            let mut b_frags: Vec<WVec> = Vec::with_capacity(steps);
            let mut a_frag_toks: Vec<Tok> = Vec::with_capacity(steps);
            for step in 0..steps {
                let base = i + step * 4;
                // B fragment: lane 8j+c loads B[col_j][n0+8c..8c+8].
                let offs = lanes(|l| {
                    let j = l / 8;
                    let c = l % 8;
                    let vec_idx = base + j;
                    if vec_idx < range.end && n0 + 8 * c < n {
                        let col = p.col_idx()[vec_idx] as usize;
                        Some(col * n + n0 + 8 * c)
                    } else {
                        None
                    }
                });
                w.int_ops(s.addr, 1, &[ci_tok]);
                let loaded = w.ldg(s.ldg_b[step], self.b_buf, &offs, 8, &[ci_tok]);
                // Shared A fragment for this step (4 vectors × V halves).
                let lds_off = lanes(|l| {
                    let rel = step * 4 * v_len + l * v_len;
                    if l < 4 && (step * 4 + l) < stride {
                        Some(rel)
                    } else {
                        None
                    }
                });
                let a_tok = w.lds(s.lds_a[step], &lds_off, v_len, &[]).tok();
                b_frags.push(loaded);
                a_frag_toks.push(a_tok);
                if !full {
                    // Residue/cyclic path: interleave load and compute.
                    self.step_mma(
                        &mut w,
                        step,
                        &b_frags[step],
                        &avals,
                        a_frag_toks[step],
                        v_len,
                        &mut acc,
                        flavor,
                    );
                }
            }
            if full {
                w.fence(s.fence);
                for step in 0..steps {
                    self.step_mma(
                        &mut w,
                        step,
                        &b_frags[step],
                        &avals,
                        a_frag_toks[step],
                        v_len,
                        &mut acc,
                        flavor,
                    );
                }
            }
            i += stride;
        }

        // Epilogue: shuffle-reorganise and vector stores (row-safe: a
        // residue chunk never lets a vector store cross the row end).
        let row_base = br * v_len;
        let tn = tile_n.min(n - n0);
        if functional {
            // Extract from the accumulator fragments and round once. The
            // shadow twins were maintained by the mma shadow pass; mirror
            // the extraction so the stores carry them too.
            let shadow = w.shadow_exec();
            let mut tile = vec![0.0f32; v_len * tile_n];
            let mut tile64 = vec![0.0f64; if shadow { v_len * tile_n } else { 0 }];
            for (half, frag) in acc.iter().enumerate() {
                for o in 0..4 {
                    for g in 0..2 {
                        for t in 0..4 {
                            let nrow = 32 * half + 8 * o + 4 * g + t;
                            for col in 0..v_len {
                                tile[col * tile_n + nrow] = frag.get(octet_lane(o, g, t), col);
                                if shadow {
                                    tile64[col * tile_n + nrow] =
                                        frag.get_shadow(octet_lane(o, g, t), col);
                                }
                            }
                        }
                    }
                }
            }
            let shuffled = w.shfl(s.shfl_out, &acc[0], |l| l, &[]);
            drop(shuffled);
            for r in 0..v_len {
                if row_base + r >= self.a.rows() {
                    break;
                }
                let vals: Vec<f32> = (0..tn)
                    .map(|c| f16::from_f32(tile[r * tile_n + c]).to_f32())
                    .collect();
                let shadows: Vec<f64> = if shadow {
                    (0..tn).map(|c| tile64[r * tile_n + c]).collect()
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
            }
        } else {
            // Four shuffles reorganise the fragments for vector stores.
            let shfl_tok = {
                let g = WVec::ghost(1, acc[1].tok());
                let mut t = Tok::NONE;
                for _ in 0..4 {
                    t = w
                        .shfl(s.shfl_out, &g, |l| l ^ 16, &[acc[0].tok(), acc[1].tok()])
                        .tok();
                }
                t
            };
            for r in 0..v_len {
                if row_base + r >= self.a.rows() {
                    break;
                }
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
                    shfl_tok,
                );
            }
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // The truncated-HMMA ablation drops redundant fragment slots;
        // keep it on the simulated path rather than re-proving the
        // equivalence here.
        if self.truncate_hmma {
            return false;
        }
        let ([values, b], out) = ctx.split([self.bufs.values, self.b_buf], self.out_buf);
        let c = Contract::of(self.scheme.tile, self.scheme.out_bits);
        native::spmm_vector_sparse(out, b, self.b.cols(), c, self.a.pattern(), values);
        true
    }
}

impl OctetSpmm<'_> {
    #[allow(clippy::too_many_arguments)]
    fn step_mma(
        &self,
        w: &mut vecsparse_gpu_sim::WarpCtx<'_, '_>,
        step: usize,
        loaded_b: &WVec,
        staged_a: &WVec,
        a_tok: Tok,
        v_len: usize,
        acc: &mut [WVec; 2],
        flavor: MmaFlavor,
    ) {
        let steps = self.sites.steps();
        let b_frag =
            marshal_spmm_mat_b(staged_a, step % steps, v_len, self.scheme.stage_k(), a_tok);
        for (sel, acc_frag) in acc.iter_mut().enumerate() {
            let a_frag = marshal_spmm_mat_a(loaded_b, sel);
            w.mma_m8n8k4(
                self.sites.mma[step % steps][sel],
                &a_frag,
                &b_frag,
                acc_frag,
                flavor,
            );
        }
    }
}

/// Functional octet SpMM.
pub fn spmm_octet(
    gpu: &GpuConfig,
    a: &VectorSparse<f16>,
    b: &DenseMatrix<f16>,
) -> DenseMatrix<f16> {
    let mut mem = MemPool::new();
    let kernel = OctetSpmm::new(&mut mem, a, b, Mode::Functional);
    Launch::new(&mut mem, &kernel).gpu(gpu).run();
    kernel.result(&mem)
}

/// Profile the octet SpMM kernel at the default scheme.
pub fn profile_spmm_octet(
    gpu: &GpuConfig,
    a: &VectorSparse<f16>,
    b: &DenseMatrix<f16>,
) -> KernelProfile {
    profile_spmm_octet_scheme(gpu, a, b, DEFAULT_SCHEME)
}

/// Profile the octet SpMM kernel at an explicit tiling scheme — the
/// Auto tuner's scheme-sweep probe.
pub fn profile_spmm_octet_scheme(
    gpu: &GpuConfig,
    a: &VectorSparse<f16>,
    b: &DenseMatrix<f16>,
    scheme: TilingScheme,
) -> KernelProfile {
    let mut mem = MemPool::new();
    let kernel = OctetSpmm::with_scheme(&mut mem, a, b, Mode::Performance, scheme);
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

    fn check(m: usize, k: usize, n: usize, v: usize, sparsity: f64, seed: u64) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
        let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);
        let got = spmm_octet(&gpu, &a, &b);
        let want = reference::spmm_vs(&a, &b);
        assert_eq!(
            got.max_abs_diff(&want),
            0.0,
            "mismatch at V={v} {m}x{k}x{n} S={sparsity}"
        );
    }

    #[test]
    fn matches_reference_v4() {
        check(32, 64, 64, 4, 0.5, 1);
    }

    #[test]
    fn matches_reference_v8() {
        check(32, 64, 128, 8, 0.7, 2);
    }

    #[test]
    fn matches_reference_v2() {
        check(16, 48, 64, 2, 0.6, 3);
    }

    #[test]
    fn matches_reference_v1() {
        check(8, 32, 64, 1, 0.5, 4);
    }

    #[test]
    fn matches_reference_with_residue() {
        // 33 nonzero vectors per row exercise the interleaved residue path
        // (stride of 32 + residue of 1).
        check(16, 256, 64, 4, 1.0 - 33.0 / 256.0, 5);
    }

    #[test]
    fn handles_multiple_n_chunks() {
        check(16, 64, 192, 4, 0.5, 6);
    }

    #[test]
    fn truncated_flavor_still_correct_for_small_v() {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(16, 64, 4, 0.5, 7);
        let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 8);
        let mut mem = MemPool::new();
        let kernel = OctetSpmm::new(&mut mem, &a, &b, Mode::Functional).with_truncated_hmma(true);
        Launch::new(&mut mem, &kernel).gpu(&gpu).run();
        let got = kernel.result(&mem);
        let want = reference::spmm_vs(&a, &b);
        assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// Every tuner-swept scheme point computes the same bits as the
    /// default — the composer changes schedule and staging, never the
    /// reduction order seen by any one output element.
    #[test]
    fn all_swept_schemes_match_reference() {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(16, 256, 4, 1.0 - 33.0 / 256.0, 13);
        let b = gen::random_dense::<f16>(256, 96, Layout::RowMajor, 14);
        let want = reference::spmm_vs(&a, &b);
        for scheme in super::super::compose::octet_schemes() {
            let mut mem = MemPool::new();
            let kernel = OctetSpmm::with_scheme(&mut mem, &a, &b, Mode::Functional, scheme);
            Launch::new(&mut mem, &kernel).gpu(&gpu).run();
            let got = kernel.result(&mem);
            assert_eq!(got.max_abs_diff(&want), 0.0, "scheme {}", scheme.label());
        }
    }

    #[test]
    fn profile_hmma_count_matches_formula() {
        // Per CTA: ceil(nnz_row / 4) steps × 2 mma × 4 HMMA.
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(64, 256, 4, 0.9, 9);
        let b = gen::random_dense::<f16>(256, 64, Layout::RowMajor, 10);
        let p = profile_spmm_octet(&gpu, &a, &b);
        let nnz_row = 26; // round(256 * 0.1)
        let expected = (64 / 4) * (nnz_row as u64).div_ceil(4) * 8;
        assert_eq!(p.instrs.hmma, expected);
        // Static program stays far below the 768-entry L0 capacity.
        assert!(p.static_instrs < 600, "static {}", p.static_instrs);
    }

    #[test]
    fn grid_matches_paper_formula() {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(2048, 256, 4, 0.9, 11);
        let b = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 12);
        let p = profile_spmm_octet(&gpu, &a, &b);
        // ⌈M/V⌉ × ⌈N/64⌉ = 512 × 4 = 2048 thread blocks (Table 2).
        assert_eq!(p.grid, 2048);
    }
}

#[cfg(test)]
mod trace_shape_tests {
    use super::*;
    use vecsparse_formats::gen;

    /// Closed-form check of the octet kernel's memory-instruction counts:
    /// per CTA, one LDG.128 B-fragment load per 4-vector step plus the
    /// per-stride index/value staging.
    #[test]
    fn ldg_count_matches_formula() {
        let gpu = GpuConfig::small();
        // 64 nonzero vectors per block row: exactly 2 strides of 32.
        let a = gen::random_vector_sparse::<f16>(64, 256, 4, 0.75, 21);
        let b = gen::random_dense::<f16>(256, 64, Layout::RowMajor, 22);
        let p = profile_spmm_octet(&gpu, &a, &b);
        let ctas = 64 / 4; // block rows × one N chunk
        let nnz_row = 64u64;
        let strides = nnz_row / 32;
        // Per CTA: 1 row-ptr load + per stride (col-idx + A-values) +
        // per step (nnz_row / 4) one B load.
        let expected = ctas as u64 * (1 + strides * 2 + nnz_row / 4);
        assert_eq!(p.instrs.ldg, expected);
    }

    /// The §5.4 ILP structure: in a full stride, every B load issues
    /// before the first mma (verified through the trace ordering).
    #[test]
    fn loads_precede_mmas_within_stride() {
        use vecsparse_gpu_sim::{CtaCtx, InstrKind, MemPool};
        let a = gen::random_vector_sparse::<f16>(8, 512, 4, 0.75, 23);
        let b = gen::random_dense::<f16>(512, 64, Layout::RowMajor, 24);
        let mut mem = MemPool::new();
        let kernel = OctetSpmm::new(&mut mem, &a, &b, Mode::Performance);
        let mut cta = CtaCtx::new(0, Mode::Performance, &mem, 1, 32 * 4, 2);
        kernel.run_cta(&mut cta);
        // Inspect the first full stride: between the A-value staging and
        // the first HMMA there must be 8 B loads (32 vectors / 4).
        let (traces, _) = cta.finish();
        let instrs = &traces[0].instrs;
        let first_hmma = instrs
            .iter()
            .position(|i| matches!(i.kind, InstrKind::Hmma))
            .expect("kernel issues HMMA");
        let ldg128_before = instrs[..first_hmma]
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Ldg { bits: 128 }))
            .count();
        assert!(
            ldg128_before >= 8,
            "only {ldg128_before} wide loads before mma"
        );
        // And a fence separates the batches.
        assert!(instrs[..first_hmma]
            .iter()
            .any(|i| matches!(i.kind, InstrKind::Fence)));
    }
}
