//! # vecsparse
//!
//! Tensor-core-style SpMM and SDDMM kernels for **column-vector structured
//! sparsity under reduced precision** — a Rust reproduction of the SC '21
//! paper "Efficient Tensor Core-Based GPU Kernels for Structured Sparsity
//! under Reduced Precision" on the `vecsparse-gpu-sim` Volta substrate.
//!
//! The crate implements the paper's contribution and **every baseline it
//! compares against**, all as kernels on the simulated GPU:
//!
//! | family | kernel | paper section |
//! |---|---|---|
//! | SpMM | [`spmm::OctetSpmm`] — TCU-based 1-D Octet Tiling | §5.3 (contribution) |
//! | SpMM | [`spmm::WmmaSpmm`] — TCU 1-D warp tiling (classic mapping) | §5.2 |
//! | SpMM | [`spmm::FpuSubwarpSpmm`] — FPU 1-D subwarp tiling (Sputnik-extended) | §5.1 |
//! | SpMM | [`spmm::BlockedEllSpmm`] — cuSPARSE Blocked-ELL TCU surrogate | §3.2 |
//! | SpMM | [`spmm::CsrScalarSpmm`] — fine-grained CSR (cuSPARSE surrogate) | §2.3 |
//! | SpMM | [`spmm::DenseGemm`] — cublasSgemm / cublasHgemm surrogates | baseline |
//! | SDDMM | [`sddmm::OctetSddmm`] — TCU 1-D Octet Tiling (reg / shfl / arch) | §6.3 (contribution) |
//! | SDDMM | [`sddmm::FpuSubwarpSddmm`] — FPU 1-D subwarp tiling | §6.1 |
//! | SDDMM | [`sddmm::WmmaSddmm`] — classic TCU 1-D warp tiling | §6.2 |
//! | SDDMM | [`sddmm::CsrSddmm`] — fine-grained SDDMM (cuSPARSE surrogate) | §2.3 |
//! | misc | [`softmax`] — dense and column-vector-sparse softmax | §7.4 |
//!
//! Every kernel runs **functionally** (bit-checked against the scalar
//! references in `vecsparse-formats`) and in **performance mode** (a
//! [`vecsparse_gpu_sim::KernelProfile`] with cycles, stall breakdown and
//! memory counters). The entry point is the [`engine`]: create a
//! [`engine::Context`], plan the problem once, run it many times.
//!
//! ```
//! use vecsparse::engine::Context;
//! use vecsparse::SpmmAlgo;
//! use vecsparse_formats::{gen, Layout};
//! use vecsparse_fp16::f16;
//!
//! // A 64x128 sparse matrix with 4x1 column vectors at 80% sparsity.
//! let ctx = Context::builder().build();
//! let a = gen::random_vector_sparse::<f16>(64, 128, 4, 0.8, 7);
//! let plan = ctx.plan_spmm(&a, 64, SpmmAlgo::Auto); // tuned + cached
//! let b = gen::random_dense::<f16>(128, 64, Layout::RowMajor, 8);
//! let c = plan.run(&b);
//! assert_eq!(c.rows(), 64);
//! ```
//!
//! The pre-engine free-function entry points (`api::spmm` and friends,
//! `batch::spmm_batch`) have been removed; [`api`] now carries only the
//! algorithm selectors.

#![forbid(unsafe_code)]
// Kernel and backprop code index several parallel arrays in lock-step;
// iterator-zip rewrites of those loops hurt readability, so the indexed
// form is kept deliberately.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod api;
pub mod compose;
pub mod engine;
mod native;
pub mod registry;
pub mod sddmm;
pub mod softmax;
pub mod spmm;
pub mod tile;
pub mod util;

pub use api::{SddmmAlgo, SpmmAlgo};
pub use engine::{Context, SddmmPlan, SpmmPlan};
