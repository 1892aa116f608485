//! Server and tenant configuration builders.

use crate::error::ServeError;
use std::sync::Arc;
use vecsparse_gpu_sim::{Backend, GpuConfig};
use vecsparse_telemetry::TraceSink;

/// Admission limit of a tenant whose spec sets no
/// [`TenantSpec::queue_depth`].
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 256;

/// One tenant's contract with the server: identity, fair-share weight,
/// admission limit, and an optional latency SLO.
///
/// ```
/// use vecsparse_serve::TenantSpec;
/// let t = TenantSpec::new("interactive")
///     .weight(4)
///     .queue_depth(64)
///     .slo_p99_ms(50.0);
/// assert_eq!(t.name(), "interactive");
/// ```
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub(crate) name: String,
    pub(crate) weight: u32,
    pub(crate) queue_depth: Option<usize>,
    pub(crate) slo_p99_ms: Option<f64>,
}

impl TenantSpec {
    /// A tenant with weight 1, a queue depth of 256 jobs, and no SLO.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight: 1,
            queue_depth: None,
            slo_p99_ms: None,
        }
    }

    /// Fair-share weight: a weight-`w` tenant may anchor up to `w` jobs
    /// per scheduler visit (must be ≥ 1; validated at `build`).
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Admission limit: submissions beyond this many queued jobs are
    /// rejected with [`ServeError::QueueFull`].
    pub fn queue_depth(mut self, depth: usize) -> TenantSpec {
        self.queue_depth = Some(depth);
        self
    }

    /// Target p99 latency in milliseconds, judged in the final
    /// [`ServeReport`](crate::ServeReport).
    pub fn slo_p99_ms(mut self, ms: f64) -> TenantSpec {
        self.slo_p99_ms = Some(ms);
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Validated server configuration. Construct via [`ServeConfig::builder`].
#[derive(Clone)]
pub struct ServeConfig {
    pub(crate) workers: usize,
    pub(crate) shards: usize,
    pub(crate) max_batch: usize,
    pub(crate) gpu: GpuConfig,
    pub(crate) backend: Backend,
    pub(crate) sink: Option<Arc<TraceSink>>,
    pub(crate) tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// Start building a configuration. Defaults: 2 workers, 1 shard,
    /// max batch 8, default GPU, the [`Backend::Native`] fast path, no
    /// telemetry, no tenants (at least one must be added before `build`).
    /// A tenant's admission limit is its [`TenantSpec::queue_depth`]
    /// (256 when unset).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Plan-cache shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Maximum jobs coalesced into one dispatched batch.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The registered tenants.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Functional execution backend the worker contexts run with.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

/// Builder for [`ServeConfig`] — the same consuming-chain style as
/// `Context::builder()`, one level up the stack.
///
/// ```
/// use vecsparse_serve::{ServeConfig, TenantSpec};
/// let cfg = ServeConfig::builder()
///     .workers(4)
///     .shards(2)
///     .max_batch(8)
///     .tenant(TenantSpec::new("a"))
///     .tenant(TenantSpec::new("b").weight(3))
///     .build();
/// assert_eq!(cfg.workers(), 4);
/// ```
#[derive(Default)]
pub struct ServeConfigBuilder {
    workers: Option<usize>,
    shards: Option<usize>,
    max_batch: Option<usize>,
    gpu: Option<GpuConfig>,
    backend: Option<Backend>,
    sink: Option<Arc<TraceSink>>,
    tenants: Vec<TenantSpec>,
}

impl ServeConfigBuilder {
    /// Worker threads executing batches (default 2).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Number of plan-cache shards (default 1). Worker `w` serves
    /// shard `w % shards`, so `shards` must not exceed `workers`.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Maximum same-shape jobs coalesced into one dispatch (default 8).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = Some(n);
        self
    }

    /// Simulated device every worker context plans for (default: full
    /// V100 shape).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Functional execution backend for every worker context (default
    /// [`Backend::Native`]: serving runs are overwhelmingly functional,
    /// and the native CPU lowering produces bit-identical outputs without
    /// paying per-warp simulation — see DESIGN §2j). Pass
    /// [`Backend::Simulated`] to force honest warp-level simulation,
    /// e.g. for replay diffing.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Does nothing; kept so existing callers still build.
    ///
    /// Memoization only engages on performance launches, and a server
    /// never runs one: it plans, then runs batches functionally, and the
    /// tuner profiles its probe plans on a context of their own. So the
    /// worker contexts carry no memo.
    pub fn memoization(self) -> Self {
        self
    }

    /// Attach a telemetry sink: the server records one span per served
    /// request (`cat = "serve"`, tenant and batch size as args) plus
    /// queue-depth counters, and the worker contexts record their
    /// engine-level spans to the same sink.
    pub fn telemetry(mut self, sink: Arc<TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Register a tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Validate and freeze the configuration.
    pub fn try_build(self) -> Result<ServeConfig, ServeError> {
        let workers = self.workers.unwrap_or(2);
        let shards = self.shards.unwrap_or(1);
        let max_batch = self.max_batch.unwrap_or(8);
        if workers == 0 {
            return Err(ServeError::InvalidConfig {
                what: "workers must be >= 1",
            });
        }
        if shards == 0 || shards > workers {
            return Err(ServeError::InvalidConfig {
                what: "shards must be in 1..=workers",
            });
        }
        if max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                what: "max_batch must be >= 1",
            });
        }
        if self.tenants.is_empty() {
            return Err(ServeError::InvalidConfig {
                what: "at least one tenant must be registered",
            });
        }
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(ServeError::InvalidConfig {
                    what: "tenant weight must be >= 1",
                });
            }
            if self.tenants.iter().filter(|o| o.name == t.name).count() > 1 {
                return Err(ServeError::InvalidConfig {
                    what: "tenant names must be unique",
                });
            }
        }
        Ok(ServeConfig {
            workers,
            shards,
            max_batch,
            gpu: self.gpu.unwrap_or_default(),
            backend: self.backend.unwrap_or(Backend::Native),
            sink: self.sink,
            tenants: self.tenants,
        })
    }

    /// Infallible [`ServeConfigBuilder::try_build`].
    ///
    /// # Panics
    /// Panics with the [`ServeError`] message on an invalid
    /// configuration.
    pub fn build(self) -> ServeConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_invariants() {
        let no_tenants = ServeConfig::builder().try_build();
        assert!(matches!(
            no_tenants,
            Err(ServeError::InvalidConfig { what }) if what.contains("tenant")
        ));
        let bad_shards = ServeConfig::builder()
            .workers(2)
            .shards(3)
            .tenant(TenantSpec::new("a"))
            .try_build();
        assert!(matches!(bad_shards, Err(ServeError::InvalidConfig { .. })));
        let dup = ServeConfig::builder()
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("a"))
            .try_build();
        assert!(matches!(dup, Err(ServeError::InvalidConfig { .. })));
        let zero_weight = ServeConfig::builder()
            .tenant(TenantSpec::new("a").weight(0))
            .try_build();
        assert!(matches!(zero_weight, Err(ServeError::InvalidConfig { .. })));
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::builder()
            .tenant(TenantSpec::new("only"))
            .build();
        assert_eq!(cfg.workers(), 2);
        assert_eq!(cfg.shards(), 1);
        assert_eq!(cfg.max_batch(), 8);
        assert_eq!(cfg.tenants().len(), 1);
        assert_eq!(cfg.backend(), Backend::Native, "serving defaults native");
    }
}
