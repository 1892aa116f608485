//! Softmax kernels: dense row-wise softmax and the custom softmax over the
//! column-vector sparse encoding (§7.4 — the attention pipeline's middle
//! stage, where sparsity shrinks both the data and the exponential count).

use crate::native;
use crate::util::{alloc_output, lanes, upload_vs, VsBuffers};
use vecsparse_formats::VectorSparse;
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{
    BufferId, CtaCtx, InstrKind, KernelSpec, LaunchConfig, MemPool, Mode, NativeCtx, Program, Site,
    Tok, WVec,
};

/// Sparse softmax over a vector-sparse matrix: each *scalar row's* stored
/// entries are softmax-normalised (absent entries are `-inf`, masked
/// attention semantics). One CTA (warp) per block row.
pub struct SparseSoftmax<'m> {
    x: &'m VectorSparse<f16>,
    bufs: VsBuffers,
    out_buf: BufferId,
    sites: Sites,
    prog: Program,
    static_len: u32,
}

struct Sites {
    ld_rowptr: Site,
    ldg: Site,
    maxred: Site,
    exp: Site,
    sumred: Site,
    div: Site,
    stg: Site,
}

impl<'m> SparseSoftmax<'m> {
    /// Stage the input.
    pub fn new(mem: &mut MemPool, x: &'m VectorSparse<f16>, mode: Mode) -> Self {
        let bufs = upload_vs(mem, x, mode);
        let out_buf = alloc_output::<f16>(mem, x.values().len(), mode);
        let mut p = Program::new();
        let sites = Sites {
            ld_rowptr: p.site("ld_rowptr", 0),
            ldg: p.site("ldg", 0),
            maxred: p.site("maxred", 0),
            exp: p.site("exp", 0),
            sumred: p.site("sumred", 0),
            div: p.site("div", 0),
            stg: p.site("stg", 0),
        };
        let static_len = p.static_len() + 50;
        SparseSoftmax {
            x,
            bufs,
            out_buf,
            sites,
            prog: p,
            static_len,
        }
    }

    /// Download the functional result (same pattern as the input).
    pub fn result(&self, mem: &MemPool) -> VectorSparse<f16> {
        crate::util::download_vs(mem, self.out_buf, &self.x.shared_pattern())
    }
}

impl KernelSpec for SparseSoftmax<'_> {
    fn name(&self) -> String {
        format!("softmax-vs(V={})", self.x.v())
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.x.pattern().block_rows().max(1),
            warps_per_cta: 1,
            regs_per_thread: 40,
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: self.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        let p = self.x.pattern();
        if p.block_rows() == 0 {
            return None;
        }
        let v = p.v();
        Some(vecsparse_gpu_sim::ShardLayout {
            out: self.out_buf,
            rows: p.block_rows(),
            row_starts: p.row_ptr().iter().map(|&i| (i * v) as u32).collect(),
            cta_rows: (0..p.block_rows() as u32).map(|r| (r, r + 1)).collect(),
        })
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let p = self.x.pattern();
        let v = p.v();
        let br = cta.cta_id;
        let range = p.block_row_range(br);
        let functional = cta.mode == Mode::Functional;
        let shadow = functional && cta.shadow_exec;
        let s = &self.sites;
        let mut w = cta.warp(0);

        let rp = lanes(|l| if l < 2 { Some(br + l) } else { None });
        let rp_tok = w.ldg(s.ld_rowptr, self.bufs.row_ptr, &rp, 1, &[]).tok();

        // Walk the row's values in 32-lane × V chunks: load, exp, reduce.
        let nvec = range.len();
        let epl = v.min(8);
        let mut red_tok = Tok::NONE;
        let mut maxv = vec![f32::NEG_INFINITY; v];
        let mut denom = vec![0.0f32; v];
        // fp64 twin of the denominator (the max itself is an exact
        // comparison, so it needs no twin).
        let mut denom64 = vec![0.0f64; v];
        for chunk in 0..nvec.div_ceil(32) {
            let offs = lanes(|l| {
                let i = chunk * 32 + l;
                if i < nvec {
                    Some((range.start + i) * v)
                } else {
                    None
                }
            });
            let vals = w.ldg(s.ldg, self.bufs.values, &offs, epl, &[rp_tok]);
            // Max reduction (5 shuffle steps) then exp (MUFU on the FP32
            // pipe) then sum reduction.
            let t = w.shfl(s.maxred, &vals, |l| l ^ 1, &[]).tok();
            let e = w.math(s.exp, InstrKind::Ffma, (epl as u32).max(1), &[t]);
            red_tok = w.shfl(s.sumred, &WVec::ghost(1, e), |l| l ^ 1, &[e]).tok();

            if functional {
                for i in (chunk * 32)..((chunk * 32 + 32).min(nvec)) {
                    for e in 0..v {
                        let x = w.read(self.bufs.values, (range.start + i) * v + e);
                        maxv[e] = maxv[e].max(x);
                    }
                }
            }
        }
        if functional {
            for i in range.clone() {
                for e in 0..v {
                    let x = w.read(self.bufs.values, i * v + e);
                    denom[e] += (x - maxv[e]).exp();
                    if shadow {
                        denom64[e] += (f64::from(x) - f64::from(maxv[e])).exp();
                    }
                }
            }
        }
        // Normalise and store.
        for chunk in 0..nvec.div_ceil(32) {
            let offs = lanes(|l| {
                let i = chunk * 32 + l;
                if i < nvec {
                    Some((range.start + i) * v)
                } else {
                    None
                }
            });
            let d = w.math(s.div, InstrKind::Ffma, (epl as u32).max(1), &[red_tok]);
            let mut vals = WVec::zeros(epl);
            if functional {
                for l in 0..32 {
                    let i = chunk * 32 + l;
                    if i >= nvec {
                        continue;
                    }
                    for e in 0..v.min(epl) {
                        let x = w.read(self.bufs.values, (range.start + i) * v + e);
                        let y = (x - maxv[e]).exp() / denom[e];
                        vals.set(l, e, f16::from_f32(y).to_f32());
                        if shadow {
                            let y64 = (f64::from(x) - f64::from(maxv[e])).exp() / denom64[e];
                            vals.set_shadow(l, e, y64);
                        }
                    }
                }
            } else {
                vals = WVec::ghost(epl, d);
            }
            w.stg(s.stg, self.out_buf, &offs, &vals, &[d]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        // Scalar row `e` of each block row.
        let p = self.x.pattern();
        let v = p.v();
        let ([vals], out) = ctx.split::<f16, 1>([self.bufs.values], self.out_buf);
        let rows = (0..p.block_rows())
            .flat_map(|br| (0..v).map(move |e| p.block_row_range(br).map(move |i| i * v + e)));
        native::softmax_rows(vals, out, rows);
        true
    }
}

/// A dense row-wise softmax kernel (the baseline's middle stage): one warp
/// per row over an `l × l` score matrix.
pub struct DenseSoftmax {
    rows: usize,
    cols: usize,
    in_buf: BufferId,
    out_buf: BufferId,
    sites: [Site; 4],
    prog: Program,
    static_len: u32,
}

impl DenseSoftmax {
    /// Allocate for an existing score buffer.
    pub fn new(mem: &mut MemPool, rows: usize, cols: usize, mode: Mode) -> Self {
        let in_buf = alloc_output::<f16>(mem, rows * cols, mode);
        let out_buf = alloc_output::<f16>(mem, rows * cols, mode);
        let mut p = Program::new();
        let sites = [
            p.site("ldg", 0),
            p.site("exp", 0),
            p.site("red", 0),
            p.site("stg", 0),
        ];
        DenseSoftmax {
            rows,
            cols,
            in_buf,
            out_buf,
            sites,
            static_len: p.static_len() + 40,
            prog: p,
        }
    }

    /// Input buffer (fill before a functional launch).
    pub fn input(&self) -> BufferId {
        self.in_buf
    }

    /// Output buffer.
    pub fn output(&self) -> BufferId {
        self.out_buf
    }
}

impl KernelSpec for DenseSoftmax {
    fn name(&self) -> String {
        "softmax-dense".into()
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.rows,
            warps_per_cta: 1,
            regs_per_thread: 32,
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: self.static_len,
        }
    }

    fn program(&self) -> Option<&Program> {
        Some(&self.prog)
    }

    fn shard_layout(&self) -> Option<vecsparse_gpu_sim::ShardLayout> {
        Some(vecsparse_gpu_sim::ShardLayout {
            out: self.out_buf,
            rows: self.rows,
            row_starts: (0..=self.rows).map(|r| (r * self.cols) as u32).collect(),
            cta_rows: (0..self.rows as u32).map(|r| (r, r + 1)).collect(),
        })
    }

    fn run_cta(&self, cta: &mut CtaCtx<'_>) {
        let row = cta.cta_id;
        let n = self.cols;
        let functional = cta.mode == Mode::Functional;
        let shadow = functional && cta.shadow_exec;
        let [ldg, exp, red, stg] = self.sites;
        let mut w = cta.warp(0);

        let mut maxv = f32::NEG_INFINITY;
        let mut denom = 0.0f32;
        let mut denom64 = 0.0f64;
        if functional {
            for c in 0..n {
                maxv = maxv.max(w.read(self.in_buf, row * n + c));
            }
            for c in 0..n {
                let x = w.read(self.in_buf, row * n + c);
                denom += (x - maxv).exp();
                if shadow {
                    denom64 += (f64::from(x) - f64::from(maxv)).exp();
                }
            }
        }
        let mut red_tok = Tok::NONE;
        for chunk in 0..n.div_ceil(256) {
            let offs = lanes(|l| {
                let c = chunk * 256 + l * 8;
                if c < n {
                    Some(row * n + c)
                } else {
                    None
                }
            });
            let vals = w.ldg(ldg, self.in_buf, &offs, 8, &[]);
            let e = w.math(exp, InstrKind::Ffma, 8, &[vals.tok(), red_tok]);
            red_tok = w.shfl(red, &WVec::ghost(1, e), |l| l ^ 1, &[e]).tok();
        }
        for chunk in 0..n.div_ceil(256) {
            let offs = lanes(|l| {
                let c = chunk * 256 + l * 8;
                if c < n {
                    Some(row * n + c)
                } else {
                    None
                }
            });
            let d = w.math(exp, InstrKind::Ffma, 8, &[red_tok]);
            let mut vals = WVec::zeros(8);
            if functional {
                for l in 0..32 {
                    for e in 0..8 {
                        let c = chunk * 256 + l * 8 + e;
                        if c < n {
                            let x = w.read(self.in_buf, row * n + c);
                            vals.set(l, e, f16::from_f32((x - maxv).exp() / denom).to_f32());
                            if shadow {
                                let y64 = (f64::from(x) - f64::from(maxv)).exp() / denom64;
                                vals.set_shadow(l, e, y64);
                            }
                        }
                    }
                }
            } else {
                vals = WVec::ghost(8, d);
            }
            w.stg(stg, self.out_buf, &offs, &vals, &[d]);
        }
    }

    fn run_native(&self, ctx: &mut NativeCtx<'_>) -> bool {
        let n = self.cols;
        let ([x], out) = ctx.split::<f16, 1>([self.in_buf], self.out_buf);
        native::softmax_rows(x, out, (0..self.rows).map(|row| row * n..(row + 1) * n));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{profile, run};
    use vecsparse_formats::{gen, reference};
    use vecsparse_gpu_sim::GpuConfig;

    #[test]
    fn sparse_softmax_matches_reference() {
        let gpu = GpuConfig::small();
        let x = gen::random_vector_sparse::<f16>(32, 64, 4, 0.75, 1);
        let got = run(
            &gpu,
            |mem, mode| SparseSoftmax::new(mem, &x, mode),
            SparseSoftmax::result,
        );
        let want = reference::softmax_vs(&x);
        for (g, w) in got.values().iter().zip(want.values()) {
            assert!((g.to_f32() - w.to_f32()).abs() < 2e-3, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn sparse_softmax_rows_sum_to_one() {
        let gpu = GpuConfig::small();
        let x = gen::random_vector_sparse::<f16>(16, 128, 8, 0.9, 2);
        let s = run(
            &gpu,
            |mem, mode| SparseSoftmax::new(mem, &x, mode),
            SparseSoftmax::result,
        );
        let p = s.pattern();
        for br in 0..p.block_rows() {
            for e in 0..p.v() {
                let sum: f32 = p
                    .block_row_range(br)
                    .map(|i| s.values()[i * p.v() + e].to_f32())
                    .sum();
                assert!((sum - 1.0).abs() < 0.02, "row {} sum {sum}", br * p.v() + e);
            }
        }
    }

    #[test]
    fn sparse_profile_scales_with_density() {
        let gpu = GpuConfig::small();
        let dense_ish = gen::random_vector_sparse::<f16>(512, 512, 8, 0.5, 3);
        let sparse = gen::random_vector_sparse::<f16>(512, 512, 8, 0.95, 4);
        let pd = profile(&gpu, |mem, mode| SparseSoftmax::new(mem, &dense_ish, mode));
        let ps = profile(&gpu, |mem, mode| SparseSoftmax::new(mem, &sparse, mode));
        assert!(ps.cycles < pd.cycles);
    }
}
