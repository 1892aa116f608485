//! # vecsparse-certify
//!
//! Static certificates over a kernel's performance-mode traces — the
//! analyses that turn wave memoization and row-split sharding from
//! heuristics into certified transformations. Both are passes over the
//! simulator's one trace capture
//! ([`vecsparse_gpu_sim::capture`](vecsparse_gpu_sim::capture())), which
//! hands back each CTA's warp traces together with the number of operand
//! values that CTA read.
//!
//! ## Wave equivalence ([`wave`])
//!
//! The simulator times every SM wave against cold private caches, so a
//! wave's timing artifacts are a pure function of (machine config, L1
//! geometry, the wave's traces). [`certify`] proves, per kernel, that
//! every timing-relevant input to the scheduler — the PC issue
//! sequence, the address/sector stream per memory site, bank-conflict
//! degrees, the TCU op mix — is fully determined by (program, operand
//! structure, pool layout, CTA id) and never by operand *values*. The
//! proof obligations, each checked over a sampled set of CTAs:
//!
//! 1. **Value independence** — the captured CTA made zero
//!    [`CtaCtx::read`](vecsparse_gpu_sim::CtaCtx::read) calls (counted by
//!    the CTA context itself). A kernel that reads a value to compute an
//!    address or a loop bound is data-dependent and gets
//!    [`ProofFailure::ValueDependentTrace`].
//! 2. **Reproducibility** — a second capture of the same CTAs equals the
//!    first, record for record. Hidden state (RNG, wall clock,
//!    interior-mutable counters) surfaces as
//!    [`ProofFailure::NonReproducibleTrace`].
//! 3. **Def-use well-formedness** — every dependency token points at an
//!    earlier instruction in its warp's stream, so the scheduler's
//!    scoreboard walk is itself structurally determined.
//!
//! A passing kernel receives a [`WaveCertificate`] whose
//! [`launch_sig`](WaveCertificate::launch_sig) composes the program
//! hash, the 128-bit dual-FNV fingerprint of the sampled traces, and a
//! caller-supplied operand fingerprint into the
//! [`LaunchSig`](vecsparse_gpu_sim::LaunchSig) that keys the memoizer.
//! Kernels that fail any obligation get [`WaveVerdict::NotProvable`],
//! produce no signature, and are simply simulated the honest way —
//! exemption, not error. The dynamic backstop lives in the memoizer
//! itself: `VECSPARSE_AUDIT=n` re-simulates every n-th memoized wave and
//! asserts bit-identity.
//!
//! ## Memory footprints ([`shard`])
//!
//! [`analyze`] captures every CTA of a staged kernel with per-lane
//! detail, refuses it if any CTA read an operand value
//! ([`ShardFailure::ValueDependentTrace`]), and abstracts the accesses
//! into **strided-interval sets per memory region**: for each buffer and
//! access kind, the per-CTA byte footprint is compressed into
//! affine-in-CTA-index range expressions ([`AffineGroup`], viewable as
//! [`StridedInterval`]s). Over that domain it discharges three
//! obligations:
//!
//! 1. **Write/write disjointness** — no two CTAs write a common byte
//!    ([`ShardFailure::WriteOverlap`] otherwise).
//! 2. **Slice containment** — every CTA's writes land inside the output
//!    slice of the row blocks it declares via
//!    [`ShardLayout`](vecsparse_gpu_sim::ShardLayout)
//!    ([`ShardFailure::OutOfSliceWrite`] otherwise).
//! 3. **Read invariance** — no CTA reads a byte any CTA writes
//!    ([`ShardFailure::ReadWriteAlias`] otherwise).
//!
//! A kernel passing all three receives a [`FootprintCertificate`] with
//! [`ShardVerdict::Shardable`], from which — and *only* from which — a
//! typed [`ShardPlan`] can be minted with
//! [`FootprintCertificate::shard_plan`]. [`launch_sharded`] runs a
//! certified N-way row split as independent launches on cloned device
//! pools and merges the slices — bit-identical to the unsharded
//! reference by obligations 1–3. One advisory lint rides along:
//! [`ShardLint::SectorFalseSharing`] fires when a shard boundary falls
//! inside a 32-byte L2 sector.
//!
//! ## Fixtures
//!
//! [`wave::all_fixtures`] and [`shard::all_fixtures`] provide miniature
//! kernels that *must* fail each obligation (plus the controls), so CI
//! can pin every verdict to the exact failure that should trigger it.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod shard;
pub mod wave;

pub use fixtures::Fixture;
pub use shard::{
    analyze, launch_sharded, AccessKind, AffineGroup, FootprintCertificate, RegionFootprint, Shard,
    ShardFailure, ShardLint, ShardPlan, ShardVerdict, Span, StridedInterval,
};
pub use wave::{certify, ProofFailure, WaveCertificate, WaveVerdict};
