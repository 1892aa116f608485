//! # vecsparse-transformer
//!
//! The paper's §7.4 application: **sparse transformer inference** built on
//! the vecsparse kernels. The self-attention layer
//!
//! ```text
//! A = Softmax((QKᵀ ∘ C) / √k),   Attention(Q, K, V) = A·V
//! ```
//!
//! becomes SDDMM → sparse softmax → SpMM when the mask `C` is sparse.
//! This crate provides:
//!
//! * [`attention`] — functional single-head attention through the actual
//!   kernels (validated against a dense reference) and the cycle-model
//!   latency breakdown behind Fig. 20;
//! * [`memory`] — the peak-memory accounting behind Table 4;
//! * [`model`] — a small trainable transformer (pure-Rust forward and
//!   backward) used as the accuracy surrogate for Table 4: the real paper
//!   trains on Long-Range Arena byte-level text classification, which is
//!   substituted by a synthetic long-sequence classification task whose
//!   solution requires attention inside the same band+random 8×1
//!   vector-sparse mask (see DESIGN.md §1).

#![forbid(unsafe_code)]
// Kernel and backprop code index several parallel arrays in lock-step;
// iterator-zip rewrites of those loops hurt readability, so the indexed
// form is kept deliberately.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod attention;
pub mod memory;
pub mod model;

pub use attention::{
    dense_attention_reference, sparse_attention_head, AttentionConfig, AttentionLatency,
};
pub use memory::{attention_peak_memory, MemoryReport, Precision};
pub use model::{SyntheticTask, TinyTransformer, TrainConfig};
