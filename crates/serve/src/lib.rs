//! # vecsparse-serve
//!
//! Async multi-tenant serving layer over the vecsparse engine: the
//! ROADMAP's "production-scale service" front-end, turning the paper's
//! kernels from a library call into measured serving capacity.
//!
//! * **Submission API** — [`ServeConfig`]/[`TenantSpec`] builders
//!   configure a [`Server`]; per-tenant [`Client`]s submit
//!   [`JobRequest`]s and get future-style [`JobHandle`]s back
//!   (`std`-only: a `Mutex` + `Condvar` oneshot, no async runtime).
//! * **Batching** — same-shape requests (same resident operand, free
//!   dimension, and algorithm) coalesce across tenants into one engine
//!   plan and one `run_batch` dispatch, riding the engine's batch
//!   fan-out and thread-pool shim.
//! * **Sharding** — requests route to a cache shard by shape class;
//!   each shard owns one engine `Context` (plan cache), and worker `w`
//!   serves shard `w % shards`.
//! * **Fairness & admission** — weighted round-robin anchoring with
//!   per-tenant queue-depth limits ([`ServeError::QueueFull`] is
//!   backpressure); every backlogged tenant anchors a batch each
//!   rotation, so no tenant starves.
//! * **SLOs & telemetry** — per-tenant p50/p99/mean latency, queue
//!   depth and plan-cache hit ratio in the final [`ServeReport`]; with
//!   a [`TraceSink`](vecsparse_telemetry::TraceSink) attached, every
//!   served request records a `"serve"` span whose duration is exactly
//!   the latency the report accounts.
//! * **Saturation** — [`saturation_curve`] turns simulated kernel
//!   cycle counts into a deterministic offered-load-vs-p99 curve
//!   (monotone by construction; see the module docs).
//!
//! ```
//! use std::sync::Arc;
//! use vecsparse::SpmmAlgo;
//! use vecsparse_formats::{gen, Layout};
//! use vecsparse_fp16::f16;
//! use vecsparse_gpu_sim::GpuConfig;
//! use vecsparse_serve::{JobRequest, ServeConfig, Server, TenantSpec};
//!
//! let server = Server::start(
//!     ServeConfig::builder()
//!         .workers(2)
//!         .max_batch(4)
//!         .gpu(GpuConfig::small())
//!         .tenant(TenantSpec::new("interactive").weight(4).slo_p99_ms(250.0))
//!         .tenant(TenantSpec::new("bulk"))
//!         .build(),
//! );
//! let weights = Arc::new(gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 1));
//! let client = server.client("interactive").unwrap();
//! let handles: Vec<_> = (0..4u64)
//!     .map(|i| {
//!         client
//!             .submit(JobRequest::Spmm {
//!                 a: Arc::clone(&weights),
//!                 b: gen::random_dense::<f16>(64, 32, Layout::RowMajor, 2 + i),
//!                 algo: SpmmAlgo::Auto,
//!             })
//!             .unwrap()
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.wait().unwrap().into_spmm().unwrap().rows(), 32);
//! }
//! let report = server.finish();
//! assert_eq!(report.served(), 4);
//! assert!(report.tenants[0].slo_met().unwrap());
//! ```

#![forbid(unsafe_code)]

mod config;
mod error;
mod job;
mod queue;
mod saturation;
mod server;
mod stats;

pub use config::{ServeConfig, ServeConfigBuilder, TenantSpec};
pub use error::ServeError;
pub use job::{JobHandle, JobOutput, JobRequest};
pub use saturation::{saturation_curve, service_time_ms, SaturationPoint};
pub use server::{Client, Server};
pub use stats::{ServeReport, TenantReport};
pub use vecsparse_gpu_sim::Backend;
