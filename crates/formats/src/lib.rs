//! Matrix containers and reference operations for vecsparse.
//!
//! This crate provides every storage format the paper's kernels consume:
//!
//! * [`DenseMatrix`] — row- or column-major dense matrices over [`Scalar`]
//!   elements (`f32` for single precision, [`vecsparse_fp16::f16`] for half).
//! * [`Csr`] — classic compressed sparse row, used by the fine-grained
//!   baselines (Sputnik, cuSPARSE CSR SpMM).
//! * [`VectorSparse`] / [`SparsityPattern`] — the paper's
//!   **column-vector sparse encoding** (§4): CSR where every index addresses
//!   a nonzero V×1 column vector stored contiguously.
//! * [`BlockedEll`] — the Blocked-ELL format cuSPARSE's TCU SpMM consumes.
//!
//! plus structure generators ([`gen`]) and scalar **reference
//! implementations** (<code>reference</code>) of SpMM, SDDMM, and sparse softmax used
//! as ground truth by the kernel test-suites.

#![forbid(unsafe_code)]

mod blocked_ell;
mod csr;
mod cvse;
mod dense;
pub mod gen;
pub mod reference;
mod scalar;
pub mod smtx;
pub mod square_block;

pub use blocked_ell::{BlockedEll, ELL_PAD};
pub use csr::Csr;
pub use cvse::{SparsityPattern, VectorSparse};
pub use dense::{DenseMatrix, Layout};
pub use scalar::Scalar;
