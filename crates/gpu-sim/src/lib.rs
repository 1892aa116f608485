//! A Volta-like GPU substrate for the vecsparse kernels.
//!
//! This crate stands in for the V100 the paper ran on. It provides:
//!
//! * a **functional model** — warp-wide execution of the instruction subset
//!   the kernels need (vector global/shared memory ops, FPU math, warp
//!   shuffle, and the Tensor Core `mma.m8n8k4` with its four HMMA steps and
//!   octet operand buffers, including the paper's proposed `SWITCH`
//!   extension from Fig. 15), and
//! * a **performance model** — every warp operation also emits a trace
//!   instruction carrying a static PC, dependency tokens, and real memory
//!   sector addresses. Traces drive an L0 instruction cache, sectored
//!   L1/L2 caches, and a per-SM warp-scheduler discrete-event simulation
//!   that reports cycles and Nsight-style counters: pipeline-stall
//!   breakdown ("No Instruction" / "Wait" / "Short Scoreboard" / ...),
//!   Sectors/Req, bytes moved L2→L1, pipe utilisation, and more.
//!
//! Kernels are written once against [`WarpCtx`] and run in either
//! [`Mode::Functional`] (values are computed; used for correctness tests)
//! or [`Mode::Performance`] (values are skipped; traces are generated for a
//! sampled set of CTAs and extrapolated; used for the paper's figures).
//!
//! The model is deliberately *mechanistic*, not cycle-exact: every effect
//! the paper uses to explain kernel performance (§3's profiling and the
//! five guidelines) is represented by first-class machinery, so relative
//! performance emerges from the same causes as on real hardware.

// Kernel and backprop code index several parallel arrays in lock-step;
// iterator-zip rewrites of those loops hurt readability, so the indexed
// form is kept deliberately.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]
#![forbid(unsafe_code)]

mod cache;
mod capture;
mod config;
mod icache;
mod launch;
mod mem;
mod memo;
mod profile;
mod program;
mod sched;
mod sched_event;
mod shard;
pub mod sig;
mod tcu;
mod trace;
mod warp;
mod wvec;

pub use cache::{
    line_of_sector, replay_l2, sector_of_byte, CacheStats, L2Op, L2Port, RecordingL2, SectorCache,
    LINE_BYTES, SECTORS_PER_LINE, SECTOR_BYTES,
};
pub use capture::{capture, sample_ctas, CtaCapture, SAMPLE_CTAS};
pub use config::{GpuConfig, Timing};
pub use launch::{Backend, KernelSpec, Launch, LaunchConfig, LaunchOutput, Mode, TimingMode};
pub use mem::{BufferId, ElemWidth, MemPool, NativeCtx, PoolMark};
pub use memo::{LaunchSig, MemoStats, WaveArtifacts, WaveDecision, WaveMemo};
pub use profile::{InstrCounts, KernelProfile, PipeUtil, Roofline, StallBreakdown};
// Telemetry types appear in this crate's API (`launch_traced`); re-export
// them so downstream crates need no direct dependency for common use.
pub use program::{Program, Site};
pub use sched::{simulate_wave, WaveObs, WaveResult};
pub use sched_event::{simulate_wave_event, simulate_wave_event_with_stats, EventStats};
pub use shard::ShardLayout;
pub use tcu::{
    execute_mma, execute_mma_shadow, mma_m8n8k4_reference, pack_a_fragment, pack_b_fragment,
    unpack_acc, MmaFlavor, OCTETS, OCTET_SIZE,
};
pub use trace::{AccessDetail, InstrKind, MemAccess, Pipe, Tok, TraceInstr, WarpTrace};
pub use vecsparse_telemetry::{ArgValue, EventKind, TraceEvent, TraceSink, Track};
pub use warp::{
    bank_conflict_degree, CtaCtx, LaneOffsets, SanEvent, SanEventKind, ShadowObs, SharedMem,
    WarpCtx, NO_LANES,
};
pub use wvec::WVec;

/// Number of lanes in a warp.
pub const WARP_SIZE: usize = 32;
/// Lanes per thread group (quarter of an octet).
pub const THREAD_GROUP: usize = 4;
/// Largest finite binary16 value; finite f32 values beyond this overflow
/// to ±Inf when stored through a 16-bit element.
pub const F16_MAX: f32 = 65504.0;
