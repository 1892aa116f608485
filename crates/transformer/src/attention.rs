//! Sparse self-attention on the vecsparse kernels.

use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::softmax::{DenseSoftmax, SparseSoftmax};
use vecsparse::spmm::DenseGemm;
use vecsparse::util::{profile, run};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, reference, DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, TraceSink};

/// Shape of one attention layer instance.
#[derive(Clone, Copy, Debug)]
pub struct AttentionConfig {
    /// Sequence length `l`.
    pub seq_len: usize,
    /// Per-head feature dimension `k`.
    pub head_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Mask sparsity (fraction of pruned entries).
    pub sparsity: f64,
    /// Column-vector grain of the mask (8 in the paper).
    pub v: usize,
    /// Width of the dense diagonal band (256 in the paper).
    pub band: usize,
}

impl AttentionConfig {
    /// The paper's LRA setup: l=4000 (rounded to 4096 for alignment),
    /// 4 heads of 64, 90% sparsity, band 256, 8×1 vectors.
    pub fn paper_lra() -> Self {
        AttentionConfig {
            seq_len: 4096,
            head_dim: 64,
            heads: 4,
            sparsity: 0.9,
            v: 8,
            band: 256,
        }
    }

    /// The band+random attention mask (§7.4).
    pub fn mask(&self, seed: u64) -> SparsityPattern {
        gen::banded_random_pattern(self.seq_len, self.v, self.band, self.sparsity, seed)
    }
}

/// Functional sparse attention for one head, computed **through the
/// kernels** on the engine: octet SDDMM → sparse softmax → octet SpMM.
///
/// `q`, `k`, `v` are `l × head_dim` row-major. Scores are scaled by
/// `1/√head_dim` before the softmax (applied on the sparse values, as the
/// paper's custom softmax kernel does).
///
/// # Panics
/// Panics on shape mismatches.
pub fn sparse_attention_head(
    ctx: &Context,
    q: &DenseMatrix<f16>,
    k: &DenseMatrix<f16>,
    v: &DenseMatrix<f16>,
    mask: &SparsityPattern,
) -> DenseMatrix<f16> {
    let head_dim = q.cols();
    assert_eq!(k.cols(), head_dim);
    assert_eq!(v.cols(), head_dim);

    // SDDMM wants B = Kᵀ in column-major, which shares K's row-major
    // bytes: re-tag via transpose + layout conversion.
    let kt = k.transpose().to_layout(Layout::ColMajor);
    let scores = ctx.sddmm(q, &kt, mask, SddmmAlgo::OctetArch);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let scaled = VectorSparse::new(
        mask.clone(),
        scores
            .values()
            .iter()
            .map(|x| f16::from_f32(x.to_f32() * scale))
            .collect(),
    );
    let attn = run(
        ctx.gpu(),
        |mem, mode| SparseSoftmax::new(mem, &scaled, mode),
        SparseSoftmax::result,
    );
    ctx.spmm(&attn, v, SpmmAlgo::Octet)
}

/// Dense reference attention (masked, f32 accumulation) for validation.
pub fn dense_attention_reference(
    q: &DenseMatrix<f16>,
    k: &DenseMatrix<f16>,
    v: &DenseMatrix<f16>,
    mask: &SparsityPattern,
) -> DenseMatrix<f16> {
    let head_dim = q.cols();
    let kt = k.transpose().to_layout(Layout::ColMajor);
    let scores = reference::sddmm(q, &kt, mask);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let scaled = VectorSparse::new(
        mask.clone(),
        scores
            .values()
            .iter()
            .map(|x| f16::from_f32(x.to_f32() * scale))
            .collect(),
    );
    let attn = reference::softmax_vs(&scaled);
    reference::spmm_vs(&attn, v)
}

/// Cycle-model latency breakdown of one attention layer (all heads),
/// mirroring Fig. 20's stacks: `QKᵀ∘C`, `Softmax`, `A·V`, `Others`
/// (input/output projections).
#[derive(Clone, Copy, Debug, Default)]
pub struct AttentionLatency {
    /// Cycles in the score computation (SDDMM or dense GEMM).
    pub qk: f64,
    /// Cycles in the softmax.
    pub softmax: f64,
    /// Cycles in the value aggregation (SpMM or dense GEMM).
    pub av: f64,
    /// Cycles in the four projection GEMMs.
    pub others: f64,
}

impl AttentionLatency {
    /// Total layer cycles.
    pub fn total(&self) -> f64 {
        self.qk + self.softmax + self.av + self.others
    }
}

/// Latency of the **sparse** attention layer using the vecsparse kernels,
/// profiled through an engine context on `gpu`.
pub fn sparse_attention_latency(gpu: &GpuConfig, cfg: &AttentionConfig) -> AttentionLatency {
    sparse_attention_latency_traced(gpu, cfg, Arc::new(TraceSink::disabled()))
}

/// [`sparse_attention_latency`] with the profiling context recording into
/// `sink`: every plan/tune/stage span and the per-scheduler kernel
/// timelines of the QK SDDMM and AV SpMM land in the trace.
pub fn sparse_attention_latency_traced(
    gpu: &GpuConfig,
    cfg: &AttentionConfig,
    sink: Arc<TraceSink>,
) -> AttentionLatency {
    let ctx = Context::builder().gpu(gpu.clone()).telemetry(sink).build();
    let l = cfg.seq_len;
    let d = cfg.head_dim;
    let mask = cfg.mask(0x7A);
    // Representative operand structures; values are irrelevant in
    // performance mode.
    let q = gen::random_dense::<f16>(l, d, Layout::RowMajor, 1);
    let kt = gen::random_dense::<f16>(d, l, Layout::ColMajor, 2);
    let v = gen::random_dense::<f16>(l, d, Layout::RowMajor, 3);
    let attn = gen::fill_pattern::<f16>(mask.clone(), 4);

    let heads = cfg.heads as f64;
    let qk = ctx
        .plan_sddmm(&mask, d, SddmmAlgo::OctetArch)
        .profile(&q, &kt);
    let sm = profile(gpu, |mem, mode| SparseSoftmax::new(mem, &attn, mode));
    let av = ctx.plan_spmm(&attn, d, SpmmAlgo::Octet).profile(&v);
    AttentionLatency {
        qk: qk.cycles * heads,
        softmax: sm.cycles * heads,
        av: av.cycles * heads,
        others: projection_cycles(gpu, cfg),
    }
}

/// Latency of the **dense** attention layer (`cublasHgemm` + dense
/// softmax) at the same shape.
pub fn dense_attention_latency(gpu: &GpuConfig, cfg: &AttentionConfig) -> AttentionLatency {
    let l = cfg.seq_len;
    let d = cfg.head_dim;
    let heads = cfg.heads as f64;
    let q = gen::random_dense::<f16>(l, d, Layout::RowMajor, 1);
    let kt = gen::random_dense::<f16>(d, l, Layout::RowMajor, 2);
    let scores = gen::random_dense::<f16>(l, l, Layout::RowMajor, 3);
    let v = gen::random_dense::<f16>(l, d, Layout::RowMajor, 4);

    let qk = profile(gpu, |mem, mode| DenseGemm::new(mem, &q, &kt, mode));
    // Dense softmax kernel over the l×l score matrix.
    let sm = profile(gpu, |mem, mode| DenseSoftmax::new(mem, l, l, mode));
    let av = profile(gpu, |mem, mode| DenseGemm::new(mem, &scores, &v, mode));
    AttentionLatency {
        qk: qk.cycles * heads,
        softmax: sm.cycles * heads,
        av: av.cycles * heads,
        others: projection_cycles(gpu, cfg),
    }
}

/// The four projection GEMMs (`l × d_model` by `d_model × d_model`),
/// identical for sparse and dense attention.
fn projection_cycles(gpu: &GpuConfig, cfg: &AttentionConfig) -> f64 {
    let d_model = cfg.head_dim * cfg.heads;
    let x = gen::random_dense::<f16>(cfg.seq_len, d_model, Layout::RowMajor, 5);
    let w = gen::random_dense::<f16>(d_model, d_model, Layout::RowMajor, 6);
    profile(gpu, |mem, mode| DenseGemm::new(mem, &x, &w, mode)).cycles * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_attention_matches_reference() {
        let gpu = GpuConfig::small();
        let cfg = AttentionConfig {
            seq_len: 64,
            head_dim: 32,
            heads: 1,
            sparsity: 0.7,
            v: 8,
            band: 16,
        };
        let mask = cfg.mask(11);
        let q = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 1);
        let k = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 2);
        let v = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 3);
        let ctx = Context::builder().gpu(gpu.clone()).build();
        let got = sparse_attention_head(&ctx, &q, &k, &v, &mask);
        let want = dense_attention_reference(&q, &k, &v, &mask);
        // Softmax goes through exp(); allow a few half-precision ulps.
        assert!(
            got.max_abs_diff(&want) < 5e-3,
            "diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn sparse_layer_beats_dense_at_high_sparsity() {
        let gpu = GpuConfig::small();
        let cfg = AttentionConfig {
            seq_len: 1024,
            head_dim: 64,
            heads: 4,
            sparsity: 0.95,
            v: 8,
            band: 64,
        };
        let sparse = sparse_attention_latency(&gpu, &cfg);
        let dense = dense_attention_latency(&gpu, &cfg);
        assert!(
            sparse.total() < dense.total(),
            "sparse {} dense {}",
            sparse.total(),
            dense.total()
        );
        // Softmax and AV shrink the most (Fig. 20's observation).
        assert!(sparse.softmax < dense.softmax);
        assert!(sparse.av < dense.av);
        // Projections are identical.
        assert!((sparse.others - dense.others).abs() < 1e-6);
    }
}
