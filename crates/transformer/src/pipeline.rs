//! A full multi-head, multi-layer transformer encoder stack executed on
//! the vecsparse kernels — the inference engine behind Table 4's
//! throughput row, runnable functionally end to end.
//!
//! Each encoder layer is: Q/K/V projections → per-head sparse attention
//! (SDDMM → sparse softmax → SpMM on the kernels) → output projection →
//! residual → two-layer FFN with ReLU → residual. Projections and FFN
//! run through the dense GEMM kernel so that *every* matrix operation of
//! the forward pass goes through the simulated GPU.

use crate::attention::{sparse_attention_head_planned, AttentionConfig};
use vecsparse::engine::{Context, SddmmPlan};
use vecsparse::spmm::DenseGemm;
use vecsparse::util::run;
use vecsparse::SddmmAlgo;
use vecsparse_formats::{gen, DenseMatrix, Layout, SparsityPattern};
use vecsparse_fp16::f16;

/// Weights of one encoder layer (all `f16`, row-major).
pub struct LayerWeights {
    /// Q/K/V projection matrices, `d_model × d_model`.
    pub wq: DenseMatrix<f16>,
    /// Key projection.
    pub wk: DenseMatrix<f16>,
    /// Value projection.
    pub wv: DenseMatrix<f16>,
    /// Output projection.
    pub wo: DenseMatrix<f16>,
    /// FFN expansion, `d_model × d_ff`.
    pub w1: DenseMatrix<f16>,
    /// FFN contraction, `d_ff × d_model`.
    pub w2: DenseMatrix<f16>,
}

impl LayerWeights {
    /// Random weights for a layer of width `d_model` (FFN 2×).
    pub fn random(d_model: usize, seed: u64) -> LayerWeights {
        let r = |rows, cols, s| gen::random_dense::<f16>(rows, cols, Layout::RowMajor, s);
        LayerWeights {
            wq: r(d_model, d_model, seed),
            wk: r(d_model, d_model, seed + 1),
            wv: r(d_model, d_model, seed + 2),
            wo: r(d_model, d_model, seed + 3),
            w1: r(d_model, 2 * d_model, seed + 4),
            w2: r(2 * d_model, d_model, seed + 5),
        }
    }
}

/// A sparse transformer encoder stack.
pub struct SparseEncoder {
    /// Shape of the attention layers.
    pub cfg: AttentionConfig,
    /// Shared attention mask (fixed, as in the paper).
    pub mask: SparsityPattern,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

impl SparseEncoder {
    /// Build a stack of `n_layers` random layers.
    pub fn random(cfg: AttentionConfig, n_layers: usize, seed: u64) -> SparseEncoder {
        let mask = cfg.mask(seed);
        let d_model = cfg.head_dim * cfg.heads;
        let layers = (0..n_layers)
            .map(|i| LayerWeights::random(d_model, seed + 100 * i as u64))
            .collect();
        SparseEncoder { cfg, mask, layers }
    }

    /// Run the stack on an `l × d_model` input, entirely on the kernels
    /// via the engine `ctx`. The shared attention mask is planned **once**
    /// and the plan reused across every head of every layer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn forward(&self, ctx: &Context, x: &DenseMatrix<f16>) -> DenseMatrix<f16> {
        let d_model = self.cfg.head_dim * self.cfg.heads;
        assert_eq!(x.cols(), d_model, "input width mismatch");
        assert_eq!(x.rows(), self.cfg.seq_len, "sequence length mismatch");
        let sddmm = ctx.plan_sddmm(&self.mask, self.cfg.head_dim, SddmmAlgo::OctetArch);
        let mut h = x.clone();
        for layer in &self.layers {
            h = self.layer_forward(ctx, &sddmm, &h, layer);
        }
        h
    }

    fn layer_forward(
        &self,
        ctx: &Context,
        sddmm: &SddmmPlan,
        x: &DenseMatrix<f16>,
        w: &LayerWeights,
    ) -> DenseMatrix<f16> {
        let l = self.cfg.seq_len;
        let d = self.cfg.head_dim;
        let heads = self.cfg.heads;
        let d_model = d * heads;
        let gemm = |a: &DenseMatrix<f16>, b: &DenseMatrix<f16>| {
            run(
                ctx.gpu(),
                |mem, mode| DenseGemm::new(mem, a, b, mode),
                DenseGemm::result,
            )
        };

        // Projections through the dense GEMM kernel.
        let q = gemm(x, &w.wq);
        let k = gemm(x, &w.wk);
        let v = gemm(x, &w.wv);

        // Per-head sparse attention against the shared mask plan.
        let mut concat = DenseMatrix::zeros(l, d_model, Layout::RowMajor);
        for head in 0..heads {
            let slice = |m: &DenseMatrix<f16>| {
                DenseMatrix::from_fn(l, d, Layout::RowMajor, |r, c| m.get(r, head * d + c))
            };
            let out = sparse_attention_head_planned(ctx, sddmm, &slice(&q), &slice(&k), &slice(&v));
            for r in 0..l {
                for c in 0..d {
                    *concat.get_mut(r, head * d + c) = out.get(r, c);
                }
            }
        }
        let attn_out = gemm(&concat, &w.wo);

        // Residual 1.
        let mut h = DenseMatrix::zeros(l, d_model, Layout::RowMajor);
        for r in 0..l {
            for c in 0..d_model {
                *h.get_mut(r, c) =
                    f16::from_f32(x.get(r, c).to_f32() + attn_out.get(r, c).to_f32());
            }
        }

        // FFN with ReLU + residual 2.
        let mut mid = gemm(&h, &w.w1);
        for v in mid.data_mut() {
            if v.to_f32() < 0.0 {
                *v = f16::ZERO;
            }
        }
        let ffn = gemm(&mid, &w.w2);
        let mut out = DenseMatrix::zeros(l, d_model, Layout::RowMajor);
        for r in 0..l {
            for c in 0..d_model {
                *out.get_mut(r, c) = f16::from_f32(h.get(r, c).to_f32() + ffn.get(r, c).to_f32());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::dense_attention_reference;
    use vecsparse_formats::reference;

    fn small_cfg() -> AttentionConfig {
        AttentionConfig {
            seq_len: 32,
            head_dim: 16,
            heads: 2,
            sparsity: 0.6,
            v: 8,
            band: 8,
        }
    }

    /// A host-side reference of one encoder layer for validation.
    fn layer_reference(
        enc: &SparseEncoder,
        x: &DenseMatrix<f16>,
        w: &LayerWeights,
    ) -> DenseMatrix<f16> {
        let l = enc.cfg.seq_len;
        let d = enc.cfg.head_dim;
        let heads = enc.cfg.heads;
        let d_model = d * heads;
        let q = reference::gemm(x, &w.wq);
        let k = reference::gemm(x, &w.wk);
        let v = reference::gemm(x, &w.wv);
        let mut concat = DenseMatrix::zeros(l, d_model, Layout::RowMajor);
        for head in 0..heads {
            let slice = |m: &DenseMatrix<f16>| {
                DenseMatrix::from_fn(l, d, Layout::RowMajor, |r, c| m.get(r, head * d + c))
            };
            let out = dense_attention_reference(&slice(&q), &slice(&k), &slice(&v), &enc.mask);
            for r in 0..l {
                for c in 0..d {
                    *concat.get_mut(r, head * d + c) = out.get(r, c);
                }
            }
        }
        let attn_out = reference::gemm(&concat, &w.wo);
        let mut h = DenseMatrix::zeros(l, d_model, Layout::RowMajor);
        for r in 0..l {
            for c in 0..d_model {
                *h.get_mut(r, c) =
                    f16::from_f32(x.get(r, c).to_f32() + attn_out.get(r, c).to_f32());
            }
        }
        let mut mid = reference::gemm(&h, &w.w1);
        for v in mid.data_mut() {
            if v.to_f32() < 0.0 {
                *v = f16::ZERO;
            }
        }
        let ffn = reference::gemm(&mid, &w.w2);
        DenseMatrix::from_fn(l, d_model, Layout::RowMajor, |r, c| {
            f16::from_f32(h.get(r, c).to_f32() + ffn.get(r, c).to_f32())
        })
    }

    #[test]
    fn one_layer_matches_reference() {
        let ctx = Context::builder()
            .gpu(vecsparse_gpu_sim::GpuConfig::small())
            .build();
        let enc = SparseEncoder::random(small_cfg(), 1, 7);
        let x = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 8);
        let got = enc.forward(&ctx, &x);
        let want = layer_reference(&enc, &x, &enc.layers[0]);
        // Attention's softmax introduces a few half-ulps; GEMMs are exact.
        // Values grow with d_model so bound the relative error.
        let mut worst: f32 = 0.0;
        for r in 0..32 {
            for c in 0..32 {
                let g = got.get(r, c).to_f32();
                let w = want.get(r, c).to_f32();
                worst = worst.max((g - w).abs() / w.abs().max(1.0));
            }
        }
        assert!(worst < 5e-2, "relative diff {worst}");
    }

    #[test]
    fn stack_composes() {
        let ctx = Context::builder()
            .gpu(vecsparse_gpu_sim::GpuConfig::small())
            .build();
        let enc = SparseEncoder::random(small_cfg(), 2, 9);
        let x = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 10);
        let y = enc.forward(&ctx, &x);
        assert_eq!((y.rows(), y.cols()), (32, 32));
        // A second run is deterministic, and the mask plan was built once
        // per forward pass (never re-tuned: the algorithm is fixed).
        let y2 = enc.forward(&ctx, &x);
        assert_eq!(y.max_abs_diff(&y2), 0.0);
        assert_eq!(ctx.stats().tuner_launches, 0);
        // 2 forwards × (1 mask plan + 2 layers × 2 heads × 1 SpMM plan).
        assert_eq!(ctx.stats().plans_built as usize, 2 * (1 + 2 * 2));
    }

    #[test]
    fn traced_forward_records_engine_spans() {
        use std::sync::Arc;
        use vecsparse_gpu_sim::TraceSink;

        let sink = Arc::new(TraceSink::enabled(1 << 16));
        let ctx = Context::builder()
            .gpu(vecsparse_gpu_sim::GpuConfig::small())
            .telemetry(Arc::clone(&sink))
            .build();
        let enc = SparseEncoder::random(small_cfg(), 1, 7);
        let x = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 8);
        enc.forward(&ctx, &x);

        let events = sink.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        // One mask plan, with its staging span.
        assert_eq!(count("plan sddmm"), 1);
        assert_eq!(count("stage sddmm"), 1);
        // Per-head attention: one SDDMM and one SpMM run each, 2 heads.
        assert_eq!(count("run sddmm"), 2);
        assert_eq!(count("run spmm"), 2);
        // The engine track is named so the Perfetto export labels it.
        assert!(sink
            .process_names()
            .iter()
            .any(|(pid, name)| *pid == 0 && name == "engine"));
        // An untraced context records nothing (zero-overhead default).
        let quiet = Context::builder()
            .gpu(vecsparse_gpu_sim::GpuConfig::small())
            .build();
        enc.forward(&quiet, &x);
        assert!(quiet.sink().events().is_empty());
    }
}
