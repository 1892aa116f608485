//! # vecsparse-precision
//!
//! Two-sided numerical analysis for the simulated reduced-precision
//! kernels, in the spirit of what a `compute-sanitizer`-style tool would
//! do for fp16 tensor-core code:
//!
//! * **Static** ([`analyze()`]): an abstract interpreter over a kernel's
//!   registered [`Program`](vecsparse_gpu_sim::Program) sites. Each site
//!   carries an interval of reachable values plus a propagated worst-case
//!   absolute error versus exact arithmetic. The walk emits per-site
//!   diagnostics — f16 overflow risk, subnormal flush-to-zero,
//!   catastrophic cancellation, over-long f16 accumulation chains — and a
//!   per-kernel [`Certificate`]: a closed-form worst-case error bound
//!   built from the kernel's [`KernelModel`] (reduction length, input
//!   range, accumulator precisions, output width).
//!
//! * **Dynamic** ([`shadow_run`]): opt-in fp64 shadow execution threaded
//!   through the simulator. Twin f64 values ride alongside the working
//!   f32/f16 computation (which stays bit-identical — the twin never
//!   feeds back) and every twinned global store records `|stored −
//!   shadow|` per site.
//!
//! The two sides meet in [`check_soundness`]: the static bound must
//! dominate every dynamic observation. `bound < observed` is not a kernel
//! bug — it is a soundness bug in the analyzer itself, and fails loudly.
//!
//! [`fixtures::all_fixtures`] provides one deliberately broken miniature
//! kernel per lint so CI can pin each diagnostic to the exact site that
//! should trigger it.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod domain;
pub mod fixtures;
pub mod shadow;

pub use analyze::{
    analyze, Analysis, Certificate, KernelModel, PrecisionDiag, PrecisionLint, SiteState,
};
pub use domain::{gamma, half_ulp16, AbsVal, Interval, F16_MAX, F16_MIN_NORMAL, U16, U32};
pub use fixtures::{all_fixtures, PrecisionFixture};
pub use shadow::{check_soundness, shadow_run, ShadowReport};
