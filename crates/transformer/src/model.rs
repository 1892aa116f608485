//! A small trainable transformer — the accuracy surrogate for Table 4.
//!
//! The paper fine-tunes a 4-layer transformer on Long-Range Arena
//! byte-level text classification and reports that the 8×1 vector-sparse
//! attention mask costs ≈0.1% accuracy versus dense attention, and that
//! post-training fp16 quantisation costs ≈0.03%. Neither the LRA data nor
//! a GPU training stack is available here, so this module reproduces the
//! *claim* on a synthetic long-sequence classification task (which token
//! of a pair occurs more often — evidence spread across the whole
//! sequence, like byte-level text classification) trained **with the same
//! band+random vector-sparse mask** the kernels execute.
//!
//! Everything is pure Rust: forward pass, manual backpropagation, SGD.
//! Evaluation modes:
//!
//! * dense-f32 — full attention, single precision (the baseline);
//! * dense-f16 — weights and boundary activations rounded to binary16;
//! * sparse-f16 — the band+random CVSE mask plus f16 rounding, i.e. the
//!   configuration the vecsparse kernels execute.

use rand::prelude::*;
use rand::rngs::StdRng;
use vecsparse_formats::SparsityPattern;
use vecsparse_fp16::f16;

/// Vocabulary size (tokens 0..=13 are data, 14 reserved, 15 padding).
pub const VOCAB: usize = 16;

/// A tiny row-major matrix (f32) with just the ops backprop needs.
#[derive(Clone, Debug)]
pub struct Mat {
    /// Rows.
    pub r: usize,
    /// Cols.
    pub c: usize,
    /// Row-major data.
    pub d: Vec<f32>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(r: usize, c: usize) -> Mat {
        Mat {
            r,
            c,
            d: vec![0.0; r * c],
        }
    }

    /// Xavier-ish random init.
    pub fn randn(r: usize, c: usize, rng: &mut StdRng) -> Mat {
        let scale = (2.0 / (r + c) as f32).sqrt();
        Mat {
            r,
            c,
            d: (0..r * c)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect(),
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.d[i * self.c + j]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        &mut self.d[i * self.c + j]
    }

    /// `self · other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.c, other.r);
        let mut out = Mat::zeros(self.r, other.c);
        for i in 0..self.r {
            for k in 0..self.c {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.c {
                    *out.at_mut(i, j) += a * other.at(k, j);
                }
            }
        }
        out
    }

    /// `selfᵀ · other`.
    pub fn t_matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.r, other.r);
        let mut out = Mat::zeros(self.c, other.c);
        for k in 0..self.r {
            for i in 0..self.c {
                let a = self.at(k, i);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.c {
                    *out.at_mut(i, j) += a * other.at(k, j);
                }
            }
        }
        out
    }

    /// `self · otherᵀ`.
    pub fn matmul_t(&self, other: &Mat) -> Mat {
        assert_eq!(self.c, other.c);
        let mut out = Mat::zeros(self.r, other.r);
        for i in 0..self.r {
            for j in 0..other.r {
                let mut s = 0.0;
                for k in 0..self.c {
                    s += self.at(i, k) * other.at(j, k);
                }
                *out.at_mut(i, j) = s;
            }
        }
        out
    }

    /// Elementwise `self += other * scale`.
    pub fn add_scaled(&mut self, other: &Mat, scale: f32) {
        debug_assert_eq!(self.d.len(), other.d.len());
        for (a, b) in self.d.iter_mut().zip(&other.d) {
            *a += b * scale;
        }
    }

    /// Round every entry to the binary16 grid.
    pub fn quantise_f16(&mut self) {
        for v in &mut self.d {
            *v = f16::from_f32(*v).to_f32();
        }
    }
}

/// One generated example.
#[derive(Clone, Debug)]
pub struct Example {
    /// Token ids, length `seq_len`.
    pub tokens: Vec<usize>,
    /// Class label (0/1).
    pub label: usize,
}

/// The synthetic long-sequence classification task.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticTask {
    /// Sequence length.
    pub seq_len: usize,
}

impl SyntheticTask {
    /// Generate one example: random tokens; the label says whether token
    /// `3` or token `5` occurs more often (ties are broken by flipping
    /// one occurrence). Long-range evidence is spread over the whole
    /// sequence — the same regime as LRA byte-level classification — and
    /// is available through banded-plus-random sparse attention.
    pub fn sample(&self, rng: &mut StdRng) -> Example {
        let mut tokens: Vec<usize> = (0..self.seq_len).map(|_| rng.gen_range(0..14)).collect();
        let c3 = tokens.iter().filter(|&&t| t == 3).count();
        let c5 = tokens.iter().filter(|&&t| t == 5).count();
        if c3 == c5 {
            // Break the tie deterministically in favour of a random side.
            let side = if rng.gen::<bool>() { 3 } else { 5 };
            if let Some(slot) = tokens.iter_mut().find(|t| **t != 3 && **t != 5) {
                *slot = side;
            }
        }
        let c3 = tokens.iter().filter(|&&t| t == 3).count();
        let c5 = tokens.iter().filter(|&&t| t == 5).count();
        let label = usize::from(c3 > c5);
        Example { tokens, label }
    }

    /// A batch of examples.
    pub fn batch(&self, n: usize, rng: &mut StdRng) -> Vec<Example> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Evaluation / training numerics mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalMode {
    /// Dense attention, f32.
    DenseSingle,
    /// Dense attention, f16-rounded weights and activations.
    DenseHalf,
    /// Vector-sparse masked attention, f16-rounded.
    SparseHalf,
}

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// SGD steps.
    pub steps: usize,
    /// Examples per step.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 300,
            batch: 8,
            lr: 0.25,
            seed: 7,
        }
    }
}

/// A one-layer, one-head transformer classifier (kept minimal so the
/// hand-written backward pass stays auditable).
pub struct TinyTransformer {
    /// Sequence length.
    pub seq_len: usize,
    /// Model width.
    pub d: usize,
    emb: Mat,
    pos: Mat,
    wq: Mat,
    wk: Mat,
    wv: Mat,
    w1: Mat,
    w2: Mat,
    wc: Mat,
    /// Optional attention mask (None = dense attention).
    pub mask: Option<SparsityPattern>,
}

struct Forward {
    x: Mat,         // L×D input embeddings
    q: Mat,         // L×D
    k: Mat,         // L×D
    v: Mat,         // L×D
    attn: Mat,      // L×L post-softmax (masked entries zero)
    ctx: Mat,       // L×D attention output (+residual applied later)
    h1: Mat,        // L×F post-relu
    pool: Vec<f32>, // D mean-pooled
    logits: [f32; 2],
    probs: [f32; 2],
}

impl TinyTransformer {
    /// Fresh random model.
    pub fn new(seq_len: usize, d: usize, seed: u64) -> TinyTransformer {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = 2 * d;
        TinyTransformer {
            seq_len,
            d,
            emb: Mat::randn(VOCAB, d, &mut rng),
            pos: Mat::randn(seq_len, d, &mut rng),
            wq: Mat::randn(d, d, &mut rng),
            wk: Mat::randn(d, d, &mut rng),
            wv: Mat::randn(d, d, &mut rng),
            w1: Mat::randn(d, f, &mut rng),
            w2: Mat::randn(f, d, &mut rng),
            wc: Mat::randn(d, 2, &mut rng),
            mask: None,
        }
    }

    /// Copy all trainable parameters from another model (same shape).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn clone_weights_from(&mut self, other: &TinyTransformer) {
        assert_eq!(self.seq_len, other.seq_len);
        assert_eq!(self.d, other.d);
        self.emb = other.emb.clone();
        self.pos = other.pos.clone();
        self.wq = other.wq.clone();
        self.wk = other.wk.clone();
        self.wv = other.wv.clone();
        self.w1 = other.w1.clone();
        self.w2 = other.w2.clone();
        self.wc = other.wc.clone();
    }

    /// Quantise all parameters to the f16 grid (post-training, as the
    /// paper does: "directly quantize the weights and activations to half
    /// without finetuning").
    pub fn quantise_f16(&mut self) {
        for m in [
            &mut self.emb,
            &mut self.pos,
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.w1,
            &mut self.w2,
            &mut self.wc,
        ] {
            m.quantise_f16();
        }
    }

    fn round_if(m: &mut Mat, half: bool) {
        if half {
            m.quantise_f16();
        }
    }

    fn forward(&self, ex: &Example, mode: EvalMode) -> Forward {
        let l = self.seq_len;
        let d = self.d;
        let half = mode != EvalMode::DenseSingle;
        let masked = mode == EvalMode::SparseHalf;

        let mut x = Mat::zeros(l, d);
        for (i, &t) in ex.tokens.iter().enumerate() {
            for j in 0..d {
                *x.at_mut(i, j) = self.emb.at(t, j) + self.pos.at(i, j);
            }
        }
        Self::round_if(&mut x, half);

        let mut q = x.matmul(&self.wq);
        let mut k = x.matmul(&self.wk);
        let mut v = x.matmul(&self.wv);
        Self::round_if(&mut q, half);
        Self::round_if(&mut k, half);
        Self::round_if(&mut v, half);

        // Scores with optional vector-sparse mask; masked-out = -inf.
        let scale = 1.0 / (d as f32).sqrt();
        let mut scores = q.matmul_t(&k);
        for s in &mut scores.d {
            *s *= scale;
        }
        if masked {
            let mask = self.mask.as_ref().expect("sparse eval needs a mask");
            for i in 0..l {
                for j in 0..l {
                    if !mask.contains(i, j) {
                        *scores.at_mut(i, j) = f32::NEG_INFINITY;
                    }
                }
            }
        }
        // Row softmax.
        let mut attn = Mat::zeros(l, l);
        for i in 0..l {
            let mut mx = f32::NEG_INFINITY;
            for j in 0..l {
                mx = mx.max(scores.at(i, j));
            }
            let mut denom = 0.0;
            for j in 0..l {
                denom += (scores.at(i, j) - mx).exp();
            }
            for j in 0..l {
                *attn.at_mut(i, j) = (scores.at(i, j) - mx).exp() / denom;
            }
        }
        Self::round_if(&mut attn, half);

        let mut ctx = attn.matmul(&v);
        // Residual.
        for i in 0..l * d {
            ctx.d[i] += x.d[i];
        }
        Self::round_if(&mut ctx, half);

        // FFN with relu + residual.
        let mut h1 = ctx.matmul(&self.w1);
        for h in &mut h1.d {
            *h = h.max(0.0);
        }
        Self::round_if(&mut h1, half);
        let mut h2 = h1.matmul(&self.w2);
        for i in 0..l * d {
            h2.d[i] += ctx.d[i];
        }
        Self::round_if(&mut h2, half);

        // Mean pool + classifier.
        let mut pool = vec![0.0f32; d];
        for i in 0..l {
            for j in 0..d {
                pool[j] += h2.at(i, j) / l as f32;
            }
        }
        let mut logits = [0.0f32; 2];
        for c in 0..2 {
            for j in 0..d {
                logits[c] += pool[j] * self.wc.at(j, c);
            }
        }
        let mx = logits[0].max(logits[1]);
        let e0 = (logits[0] - mx).exp();
        let e1 = (logits[1] - mx).exp();
        let probs = [e0 / (e0 + e1), e1 / (e0 + e1)];

        Forward {
            x,
            q,
            k,
            v,
            attn,
            ctx,
            h1,
            pool,
            logits,
            probs,
        }
    }

    /// Predicted class under the given mode.
    pub fn predict(&self, ex: &Example, mode: EvalMode) -> usize {
        let f = self.forward(ex, mode);
        usize::from(f.logits[1] > f.logits[0])
    }

    /// Accuracy over a dataset.
    pub fn accuracy(&self, data: &[Example], mode: EvalMode) -> f64 {
        let correct = data
            .iter()
            .filter(|ex| self.predict(ex, mode) == ex.label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// One SGD step over a batch (dense-f32 training, optionally with the
    /// sparse mask applied — the paper trains *with* the fixed mask).
    ///
    /// Returns the mean cross-entropy loss.
    pub fn train_step(&mut self, batch: &[Example], lr: f32, masked: bool) -> f32 {
        let l = self.seq_len;
        let d = self.d;
        let f = 2 * d;
        let mode = if masked && self.mask.is_some() {
            // Masked training still runs in f32.
            EvalMode::SparseHalf
        } else {
            EvalMode::DenseSingle
        };
        // Gradient accumulators.
        let mut g_emb = Mat::zeros(VOCAB, d);
        let mut g_pos = Mat::zeros(l, d);
        let mut g_wq = Mat::zeros(d, d);
        let mut g_wk = Mat::zeros(d, d);
        let mut g_wv = Mat::zeros(d, d);
        let mut g_w1 = Mat::zeros(d, f);
        let mut g_w2 = Mat::zeros(f, d);
        let mut g_wc = Mat::zeros(d, 2);
        let mut loss_sum = 0.0f32;

        for ex in batch {
            // Forward in f32 (ignore rounding during training).
            let fwd = self.forward(
                ex,
                if mode == EvalMode::SparseHalf {
                    EvalMode::SparseHalf
                } else {
                    EvalMode::DenseSingle
                },
            );
            loss_sum += -(fwd.probs[ex.label].max(1e-9)).ln();

            // dLogits.
            let mut dlogits = [fwd.probs[0], fwd.probs[1]];
            dlogits[ex.label] -= 1.0;
            // Classifier grads.
            for j in 0..d {
                for c in 0..2 {
                    *g_wc.at_mut(j, c) += fwd.pool[j] * dlogits[c];
                }
            }
            // dPool.
            let mut dpool = vec![0.0f32; d];
            for j in 0..d {
                for c in 0..2 {
                    dpool[j] += self.wc.at(j, c) * dlogits[c];
                }
            }
            // dH2 (mean pool).
            let mut dh2 = Mat::zeros(l, d);
            for i in 0..l {
                for j in 0..d {
                    *dh2.at_mut(i, j) = dpool[j] / l as f32;
                }
            }
            // FFN backward: h2 = relu(ctx·W1)·W2 + ctx.
            let dh1_pre = dh2.matmul_t(&self.w2); // L×F
            let mut dh1 = dh1_pre;
            for (g, h) in dh1.d.iter_mut().zip(&fwd.h1.d) {
                if *h <= 0.0 {
                    *g = 0.0;
                }
            }
            g_w2.add_scaled(&fwd.h1.t_matmul(&dh2), 1.0);
            g_w1.add_scaled(&fwd.ctx.t_matmul(&dh1), 1.0);
            let mut dctx = dh1.matmul_t(&self.w1);
            dctx.add_scaled(&dh2, 1.0); // Residual.

            // Attention backward: ctx = attn·v + x.
            let dv = fwd.attn.t_matmul(&dctx); // L×D
            let dattn = dctx.matmul_t(&fwd.v); // L×L
                                               // Softmax backward per row.
            let mut dscores = Mat::zeros(l, l);
            for i in 0..l {
                let mut dot = 0.0;
                for j in 0..l {
                    dot += dattn.at(i, j) * fwd.attn.at(i, j);
                }
                for j in 0..l {
                    let a = fwd.attn.at(i, j);
                    *dscores.at_mut(i, j) = a * (dattn.at(i, j) - dot);
                }
            }
            let scale = 1.0 / (d as f32).sqrt();
            for s in &mut dscores.d {
                *s *= scale;
            }
            let dq = dscores.matmul(&fwd.k);
            let dk = dscores.t_matmul(&fwd.q);
            g_wq.add_scaled(&fwd.x.t_matmul(&dq), 1.0);
            g_wk.add_scaled(&fwd.x.t_matmul(&dk), 1.0);
            g_wv.add_scaled(&fwd.x.t_matmul(&dv), 1.0);

            // dX: through q/k/v projections, residuals.
            let mut dx = dq.matmul_t(&self.wq);
            dx.add_scaled(&dk.matmul_t(&self.wk), 1.0);
            dx.add_scaled(&dv.matmul_t(&self.wv), 1.0);
            dx.add_scaled(&dctx, 1.0); // Residual into attention block.

            // Embedding grads.
            for (i, &t) in ex.tokens.iter().enumerate() {
                for j in 0..d {
                    *g_emb.at_mut(t, j) += dx.at(i, j);
                    *g_pos.at_mut(i, j) += dx.at(i, j);
                }
            }
        }

        let step = -lr / batch.len() as f32;
        self.emb.add_scaled(&g_emb, step);
        self.pos.add_scaled(&g_pos, step);
        self.wq.add_scaled(&g_wq, step);
        self.wk.add_scaled(&g_wk, step);
        self.wv.add_scaled(&g_wv, step);
        self.w1.add_scaled(&g_w1, step);
        self.w2.add_scaled(&g_w2, step);
        self.wc.add_scaled(&g_wc, step);
        loss_sum / batch.len() as f32
    }

    /// Train to convergence on the synthetic task; returns the final
    /// training loss.
    pub fn train(&mut self, task: &SyntheticTask, cfg: &TrainConfig, masked: bool) -> f32 {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut loss = f32::INFINITY;
        for _ in 0..cfg.steps {
            let batch = task.batch(cfg.batch, &mut rng);
            loss = self.train_step(&batch, cfg.lr, masked);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::gen;

    fn mask_for(seq: usize) -> SparsityPattern {
        gen::banded_random_pattern(seq, 8, 16, 0.7, 3)
    }

    #[test]
    fn task_labels_are_balanced() {
        let task = SyntheticTask { seq_len: 64 };
        let mut rng = StdRng::seed_from_u64(1);
        let data = task.batch(400, &mut rng);
        let ones = data.iter().filter(|e| e.label == 1).count();
        assert!((120..280).contains(&ones), "ones {ones}");
    }

    #[test]
    fn training_reduces_loss() {
        let task = SyntheticTask { seq_len: 32 };
        let mut model = TinyTransformer::new(32, 16, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let batch = task.batch(8, &mut rng);
        let first = model.train_step(&batch, 0.2, false);
        for _ in 0..30 {
            let b = task.batch(8, &mut rng);
            model.train_step(&b, 0.2, false);
        }
        let last = model.train_step(&batch, 0.0, false);
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn quantised_model_agrees_with_f32_mostly() {
        let task = SyntheticTask { seq_len: 32 };
        let mut model = TinyTransformer::new(32, 16, 6);
        model.mask = Some(gen::banded_random_pattern(32, 8, 16, 0.5, 4));
        let cfg = TrainConfig {
            steps: 60,
            ..TrainConfig::default()
        };
        model.train(&task, &cfg, false);
        let mut rng = StdRng::seed_from_u64(9);
        let test = task.batch(100, &mut rng);
        let mut q = TinyTransformer::new(32, 16, 6);
        q.clone_weights_from(&model);
        q.mask = model.mask.clone();
        q.quantise_f16();
        let a32 = model.accuracy(&test, EvalMode::DenseSingle);
        let a16 = q.accuracy(&test, EvalMode::DenseHalf);
        assert!((a32 - a16).abs() < 0.1, "f32 {a32} vs f16 {a16}");
    }

    #[test]
    fn masked_training_learns_the_task() {
        let seq = 48;
        let task = SyntheticTask { seq_len: seq };
        let mut model = TinyTransformer::new(seq, 24, 11);
        model.mask = Some(mask_for(seq));
        let cfg = TrainConfig {
            steps: 250,
            batch: 8,
            lr: 0.3,
            seed: 13,
        };
        model.train(&task, &cfg, true);
        let mut rng = StdRng::seed_from_u64(21);
        let test = task.batch(200, &mut rng);
        let acc = model.accuracy(&test, EvalMode::SparseHalf);
        assert!(acc > 0.7, "accuracy {acc}");
    }
}
