//! The vecsparse execution engine: a cuSPARSE-style handle / plan API.
//!
//! The paper's kernels are meant to be launched the way `cusparseSpMM` is:
//! create a handle, describe the problem once, then execute it many times:
//!
//! * [`Context`] — the handle. Owns the simulated device, the auto-tuner,
//!   and a **plan cache** keyed by problem shape and sparsity, so a
//!   tuning decision made once is reused by every later plan with the
//!   same descriptor.
//! * [`SpmmPlan`] / [`SddmmPlan`] — a captured problem. A plan clones the
//!   structural operand (the sparse matrix for SpMM, the mask for SDDMM),
//!   derives any secondary encoding **once** (the Blocked-ELL surrogate),
//!   stages every buffer address-only into a private
//!   [`vecsparse_gpu_sim::MemPool`] and builds its kernel over them. A
//!   profile only launches; a functional run writes the value operands
//!   and a zeroed output into the staged buffers (the sparse operand's
//!   values once per device state) and launches, for single problems or
//!   whole batches.
//! * [`SpmmAlgo::Auto`] / [`SddmmAlgo::Auto`] — algorithm selection by
//!   measurement. The [`tuner`] analytically pre-filters the candidate
//!   kernels for a descriptor, profiles the survivors on the simulated
//!   GPU, and memoizes the winner in the context's plan cache.
//!
//! ```
//! use vecsparse::engine::Context;
//! use vecsparse::SpmmAlgo;
//! use vecsparse_formats::{gen, Layout};
//! use vecsparse_fp16::f16;
//!
//! let ctx = Context::builder().build();
//! let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.75, 1);
//! let plan = ctx.plan_spmm(&a, 64, SpmmAlgo::Auto); // tunes once
//! let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 2);
//! let c = plan.run(&b);            // reuses the staged operand
//! let c2 = plan.run(&b);           // zero re-encoding, zero re-tuning
//! assert_eq!(c.max_abs_diff(&c2), 0.0);
//! ```

mod error;
mod plan_core;
mod report;
mod sddmm_plan;
mod spmm_plan;
pub mod tuner;

pub use error::EngineError;
pub use report::{AlgoReport, Report};
pub use sddmm_plan::SddmmPlan;
pub use spmm_plan::SpmmPlan;

use crate::api::{SddmmAlgo, SpmmAlgo};
use crate::compose::TilingScheme;
use crate::registry::{self, KernelId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use vecsparse_certify::WaveCertificate;
use vecsparse_formats::{gen, BlockedEll, DenseMatrix, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig;
use vecsparse_gpu_sim::{
    Backend, ElemWidth, GpuConfig, KernelProfile, MemoStats, TraceSink, Track, WaveMemo,
};
use vecsparse_precision::Certificate;

/// Device memory of the modeled V100, in bytes. A problem whose
/// caller-sized buffers need more is refused with
/// [`EngineError::OutOfDeviceMemory`] before anything is allocated.
/// A plan's pool holds every buffer at its device width, so this also
/// bounds the host bytes a functional run materialises.
pub(crate) const DEVICE_MEMORY_BYTES: u64 = 16 << 30;

/// The operation a plan executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum OpKind {
    /// Sparse × dense matrix multiply.
    Spmm,
    /// Sampled dense × dense matrix multiply.
    Sddmm,
}

/// The engine-track span names of one operation.
struct SpanNames {
    plan: &'static str,
    tune: &'static str,
    stage: &'static str,
    run: &'static str,
    profile: &'static str,
}

impl OpKind {
    fn spans(self) -> &'static SpanNames {
        match self {
            OpKind::Spmm => &SpanNames {
                plan: "plan spmm",
                tune: "tune spmm",
                stage: "stage spmm",
                run: "run spmm",
                profile: "run spmm (profile)",
            },
            OpKind::Sddmm => &SpanNames {
                plan: "plan sddmm",
                tune: "tune sddmm",
                stage: "stage sddmm",
                run: "run sddmm",
                profile: "run sddmm (profile)",
            },
        }
    }
}

/// A problem's descriptor and plan-cache key: everything the tuner's
/// decision depends on. Two problems with the same key get the same
/// algorithm without re-tuning; a plan checks its operands against the
/// dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    op: OpKind,
    /// Output rows.
    m: usize,
    /// Inner dimension.
    k: usize,
    /// Output columns (SpMM RHS width / SDDMM mask columns).
    n: usize,
    /// Column-vector length of the structural operand.
    v: usize,
    /// Sparsity of the structural operand, bucketed by
    /// [`sig::sparsity_bucket`].
    sparsity_bucket: u32,
}

impl PlanKey {
    /// The key of an `op` problem over the structural operand `p` (SpMM's
    /// sparse matrix, SDDMM's mask) whose remaining dimension — SpMM's
    /// RHS width `n`, SDDMM's inner dimension `k` — is `free`. Every
    /// dimension must be positive: no kernel launches an empty grid.
    fn new(op: OpKind, p: &SparsityPattern, free: usize) -> Result<PlanKey, EngineError> {
        let (k, n) = match op {
            OpKind::Spmm => (p.cols(), free),
            OpKind::Sddmm => (free, p.cols()),
        };
        let names = match op {
            OpKind::Spmm => ["m (rows of A)", "k (columns of A)", "n (RHS columns)"],
            OpKind::Sddmm => ["m (mask rows)", "k (inner dimension)", "n (mask columns)"],
        };
        if let Some((_, what)) = [p.rows(), k, n]
            .into_iter()
            .zip(names)
            .find(|&(d, _)| d == 0)
        {
            return Err(EngineError::EmptyDimension { what });
        }
        if !matches!(p.v(), 1 | 2 | 4 | 8) {
            return Err(EngineError::UnsupportedV { v: p.v() });
        }
        Ok(PlanKey {
            op,
            m: p.rows(),
            k,
            n,
            v: p.v(),
            sparsity_bucket: sig::sparsity_bucket(p.sparsity()),
        })
    }

    /// Refuse a problem whose caller-sized buffers do not fit in
    /// [`DEVICE_MEMORY_BYTES`]: SpMM's k × n RHS and m × n output, plus
    /// the m × k dense image of A when `dense_a`; SDDMM's m × k and
    /// k × n operands, which the tuner also builds as host zeros. The
    /// count is checked arithmetic and runs before any allocation, so an
    /// over-large request is an error instead of an aborted process. The
    /// pool stores these buffers as binary16, so the same bound covers
    /// the host bytes a run writes into them.
    fn check_fits(&self, dense_a: bool) -> Result<(), EngineError> {
        let (m, k, n) = (self.m, self.k, self.n);
        let buffers: &[(usize, usize)] = match self.op {
            OpKind::Spmm if dense_a => &[(k, n), (m, n), (m, k)],
            OpKind::Spmm => &[(k, n), (m, n)],
            OpKind::Sddmm => &[(m, k), (k, n)],
        };
        let needed = buffers.iter().try_fold(0u64, |sum, &(rows, cols)| {
            (rows as u64)
                .checked_mul(cols as u64)?
                .checked_mul(ElemWidth::B16.bytes())?
                .checked_add(sum)
        });
        match needed {
            Some(needed) if needed <= DEVICE_MEMORY_BYTES => Ok(()),
            _ => Err(EngineError::OutOfDeviceMemory {
                needed: needed.unwrap_or(u64::MAX),
                capacity: DEVICE_MEMORY_BYTES,
            }),
        }
    }
}

/// A resolved algorithm: what a plan executes and the plan cache holds.
#[derive(Clone, Copy, Debug)]
enum Choice {
    /// An SpMM algorithm plus, when the tuner picked a scheme-compiled
    /// kernel, the winning [`TilingScheme`] point.
    Spmm(SpmmAlgo, Option<TilingScheme>),
    Sddmm(SddmmAlgo),
}

impl Choice {
    fn label(self) -> &'static str {
        match self {
            Choice::Spmm(algo, _) => algo.label(),
            Choice::Sddmm(algo) => algo.label(),
        }
    }
}

/// Counter snapshot for cache/tuner observability (and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidate kernels the tuner profiled (0 when every `Auto` plan hit
    /// the cache and for fixed-algorithm plans).
    pub tuner_launches: u64,
    /// `Auto` resolutions answered from the plan cache.
    pub cache_hits: u64,
    /// `Auto` resolutions that had to tune.
    pub cache_misses: u64,
    /// Plans built through this context.
    pub plans_built: u64,
}

impl EngineStats {
    /// Fold another snapshot into this one — how `vecsparse-serve`
    /// aggregates the per-worker shard contexts into one fleet view.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.tuner_launches += other.tuner_launches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.plans_built += other.plans_built;
    }
}

/// One algorithm's run, profile and cycle tallies, shared by every plan
/// of that algorithm on a context (and kept by the context after its
/// plans drop). Recording is lock-free: relaxed counters plus a
/// compare-and-swap f64 sum, so a memoized profile only bumps them.
#[derive(Debug, Default)]
pub(crate) struct AlgoCell {
    runs: AtomicU64,
    profiles: AtomicU64,
    /// Total profiled cycles, as `f64` bits.
    cycles: AtomicU64,
}

impl AlgoCell {
    pub(crate) fn record_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_profile(&self, cycles: f64) {
        self.profiles.fetch_add(1, Ordering::Relaxed);
        let add = |bits| Some((f64::from_bits(bits) + cycles).to_bits());
        let _ = self
            .cycles
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    tuner_launches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    plans_built: AtomicU64,
    /// Wall-clock nanoseconds spent inside engine execution entry points
    /// (runs, simulated profiles, batches, tuning regions; memo answers
    /// are not timed). Batch fan-out counts the region once, not per
    /// element, so this stays a wall time even when elements run
    /// concurrently.
    wall_nanos: AtomicU64,
    /// Per-algorithm run/profile/cycle tallies for [`Report`]; each plan
    /// fetches its algorithm's cell once.
    algos: Mutex<HashMap<&'static str, Arc<AlgoCell>>>, // lint: hash-ok — snapshot sorts by label
    /// Worst-case precision certificate per planned algorithm (the widest
    /// bound over every descriptor planned through this context).
    certs: Mutex<HashMap<&'static str, Certificate>>, // lint: hash-ok — snapshot sorts by label
    /// Latest wave-equivalence certificate per planned algorithm
    /// (surfaced in [`Report`]).
    wave_certs: Mutex<HashMap<&'static str, WaveCertificate>>, // lint: hash-ok — snapshot sorts by label
}

impl Counters {
    pub(crate) fn count_tuner_launch(&self) {
        self.tuner_launches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_wall(&self, dur: std::time::Duration) {
        self.wall_nanos
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn wall_nanos(&self) -> u64 {
        self.wall_nanos.load(Ordering::Relaxed)
    }

    // lint: hash-ok (see field)
    fn algos_lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, Arc<AlgoCell>>> {
        self.algos.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tally cell of the algorithm `label`.
    pub(crate) fn algo_cell(&self, label: &'static str) -> Arc<AlgoCell> {
        Arc::clone(self.algos_lock().entry(label).or_default())
    }

    /// Every algorithm that ran or profiled, sorted by label.
    pub(crate) fn algo_snapshot(&self) -> Vec<AlgoReport> {
        let mut v: Vec<_> = self
            .algos_lock()
            .iter()
            .map(|(&algo, cell)| AlgoReport {
                algo,
                runs: cell.runs.load(Ordering::Relaxed),
                profiles: cell.profiles.load(Ordering::Relaxed),
                total_cycles: f64::from_bits(cell.cycles.load(Ordering::Relaxed)),
            })
            .filter(|a| a.runs + a.profiles > 0)
            .collect();
        v.sort_by_key(|a| a.algo);
        v
    }

    // lint: hash-ok (see field)
    fn certs_lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, Certificate>> {
        self.certs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keep the loosest (largest-bound) certificate seen per algorithm,
    /// so the report stays sound over every descriptor planned.
    pub(crate) fn record_certificate(&self, label: &'static str, cert: Certificate) {
        let mut certs = self.certs_lock();
        match certs.get(label) {
            Some(old) if old.abs_error_bound >= cert.abs_error_bound => {}
            _ => {
                certs.insert(label, cert);
            }
        }
    }

    pub(crate) fn cert_snapshot(&self) -> Vec<Certificate> {
        let mut v: Vec<_> = self.certs_lock().values().cloned().collect();
        v.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        v
    }

    // lint: hash-ok (see field)
    fn wave_certs_lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, WaveCertificate>> {
        self.wave_certs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn wave_cert_snapshot(&self) -> Vec<(&'static str, WaveCertificate)> {
        let mut v: Vec<_> = self
            .wave_certs_lock()
            .iter()
            .map(|(k, c)| (*k, c.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// The engine handle: simulated device + auto-tuner + plan cache.
///
/// A `Context` is cheap to create but meant to be long-lived: the plan
/// cache and tuning statistics live on it, so sharing one context across
/// a pipeline is what turns repeated problems into cache hits. Construct
/// via [`Context::builder`].
pub struct Context {
    gpu: GpuConfig,
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    cache: Mutex<HashMap<PlanKey, Choice>>,
    counters: Arc<Counters>,
    sink: Arc<TraceSink>,
    /// Certified launch memoizer shared by every plan built through this
    /// context (None: every performance launch simulates honestly).
    memo: Option<Arc<WaveMemo>>,
    /// Which engine executes functional launches planned through this
    /// context: the warp-accurate simulator or the native CPU fast path
    /// (bit-identical outputs; the tier-1 backend gate enforces it).
    backend: Backend,
}

impl Default for Context {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`Context`], its single construction path. Every knob is
/// optional and composable:
///
/// ```
/// use vecsparse::engine::Context;
/// use vecsparse_gpu_sim::GpuConfig;
///
/// let ctx = Context::builder()
///     .gpu(GpuConfig::small())
///     .memoization()
///     .build();
/// assert!(ctx.memo_stats().is_some());
/// ```
#[derive(Default)]
pub struct ContextBuilder {
    gpu: Option<GpuConfig>,
    sink: Option<Arc<TraceSink>>,
    memo: Option<Arc<WaveMemo>>,
    backend: Backend,
}

impl ContextBuilder {
    /// Plan for a specific simulated device (default: full V100 shape).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Attach a telemetry sink. Every plan build, tune, stage and run
    /// through the built context records engine-level spans to `sink`,
    /// and performance launches record their per-scheduler kernel
    /// timelines beneath them. Default: a disabled sink (zero
    /// perturbation).
    pub fn telemetry(mut self, sink: Arc<TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enable certified memoization: untraced performance launches of
    /// kernels whose wave equivalence [`certify`] proves are keyed by
    /// their structural signature, simulated once per class, and answered
    /// from the cached profile on every later launch in the class.
    /// Functional runs, traced launches and unprovable kernels are
    /// unaffected. `VECSPARSE_AUDIT=n` declines every n-th launch hit,
    /// re-simulates it and asserts the profile bit-identical to the
    /// cached one.
    ///
    /// [`certify`]: vecsparse_certify::certify
    pub fn memoization(mut self) -> Self {
        self.memo = Some(Arc::new(WaveMemo::new()));
        self
    }

    /// Enable memoization against an **externally owned** memoizer, such
    /// as a test's `WaveMemo::with_audit(n)` that audits regardless of
    /// the environment. Several contexts built with clones of the same
    /// `Arc` share one profile cache. Soundness is unaffected: the memo
    /// key already covers machine config, program, operand structure,
    /// and pool layout.
    pub fn shared_memoization(mut self, memo: Arc<WaveMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Select the functional execution backend for every plan built
    /// through the context: [`Backend::Simulated`] (default) runs the
    /// warp-accurate simulator; [`Backend::Native`] runs each kernel's
    /// native CPU lowering directly — bit-identical outputs, no per-warp
    /// machinery — and falls back to the simulator for kernels without a
    /// lowering. Performance launches (profiles, tuning) always simulate:
    /// cycle estimates only exist on the simulated machine.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Construct the handle.
    pub fn build(self) -> Context {
        let sink = self.sink.unwrap_or_else(|| Arc::new(TraceSink::disabled()));
        if sink.is_enabled() {
            sink.name_process(Track::ENGINE.pid, "engine");
            sink.name_thread(Track::ENGINE, "engine");
        }
        Context {
            gpu: self.gpu.unwrap_or_default(),
            cache: Mutex::new(HashMap::new()), // lint: hash-ok (see field)
            counters: Arc::new(Counters::default()),
            sink,
            memo: self.memo,
            backend: self.backend,
        }
    }
}

impl Context {
    /// Start building a handle: device, telemetry, and memoization are
    /// chained onto the returned [`ContextBuilder`].
    pub fn builder() -> ContextBuilder {
        ContextBuilder::default()
    }

    /// Memoizer counters, when memoization is enabled.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// The simulated device this context plans for.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The telemetry sink this context records to (disabled by default).
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    // lint: hash-ok (see field)
    fn cache_lock(&self) -> std::sync::MutexGuard<'_, HashMap<PlanKey, Choice>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the cache/tuner counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            tuner_launches: self.counters.tuner_launches.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            plans_built: self.counters.plans_built.load(Ordering::Relaxed),
        }
    }

    /// Aggregate everything this context observed — cache behaviour,
    /// tuner activity, per-algorithm run counts and cycles, trace-sink
    /// occupancy — into a [`Report`].
    pub fn report(&self) -> Report {
        Report {
            stats: self.stats(),
            algos: self.counters.algo_snapshot(),
            certificates: self.counters.cert_snapshot(),
            wave_certificates: self.counters.wave_cert_snapshot(),
            memo: self.memo_stats(),
            cached_plans: self.cache_lock().len(),
            trace_events: self.sink.events().len(),
            trace_dropped: self.sink.dropped(),
            threads: rayon::current_num_threads(),
            wall_ms: self.counters.wall_nanos() as f64 / 1e6,
        }
    }

    /// Capture an SpMM problem `C[m×n] = A[m×k] · B[k×n]` as a plan.
    ///
    /// The sparse operand is encoded and staged **now**; `n` is the RHS
    /// width every later [`SpmmPlan::run`] must match. With
    /// [`SpmmAlgo::Auto`] the algorithm is resolved through the plan
    /// cache, tuning at most once per descriptor.
    pub fn try_plan_spmm(
        &self,
        a: &VectorSparse<f16>,
        n: usize,
        algo: SpmmAlgo,
    ) -> Result<SpmmPlan, EngineError> {
        let key = PlanKey::new(OpKind::Spmm, a.pattern(), n)?;
        let dense_a = algo == SpmmAlgo::Dense
            || (algo == SpmmAlgo::Auto && tuner::dense_is_swept(a.pattern().sparsity()));
        key.check_fits(dense_a)?;
        Ok(self.plan(
            key,
            || match algo {
                SpmmAlgo::Auto => self.tuned(key, || {
                    let (algo, scheme) = tuner::tune_spmm(self, key, a);
                    Choice::Spmm(algo, scheme)
                }),
                // A fixed algorithm executes at its default scheme point.
                fixed => Choice::Spmm(fixed, None),
            },
            |choice| match choice {
                Choice::Spmm(algo, scheme) => SpmmPlan::build(self, key, algo, scheme, a),
                Choice::Sddmm(_) => unreachable!("an SpMM key caches SpMM choices"),
            },
        ))
    }

    /// Infallible [`Context::try_plan_spmm`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message if a dimension is zero,
    /// the operand's V is unsupported, or the problem does not fit in
    /// the modeled V100's 16 GiB of device memory.
    pub fn plan_spmm(&self, a: &VectorSparse<f16>, n: usize, algo: SpmmAlgo) -> SpmmPlan {
        self.try_plan_spmm(a, n, algo)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Capture an SDDMM problem `C = (A[m×k] · B[k×n]) ∘ mask` as a plan.
    ///
    /// The mask is the structural operand shared by every run; `k` is the
    /// inner dimension every later [`SddmmPlan::run`] must match.
    pub fn try_plan_sddmm(
        &self,
        mask: &SparsityPattern,
        k: usize,
        algo: SddmmAlgo,
    ) -> Result<SddmmPlan, EngineError> {
        let key = PlanKey::new(OpKind::Sddmm, mask, k)?;
        key.check_fits(false)?;
        Ok(self.plan(
            key,
            || match algo {
                SddmmAlgo::Auto => {
                    self.tuned(key, || Choice::Sddmm(tuner::tune_sddmm(self, key, mask)))
                }
                fixed => Choice::Sddmm(fixed),
            },
            |choice| match choice {
                Choice::Sddmm(algo) => SddmmPlan::build(self, key, algo, mask),
                Choice::Spmm(..) => unreachable!("an SDDMM key caches SDDMM choices"),
            },
        ))
    }

    /// Infallible [`Context::try_plan_sddmm`].
    ///
    /// # Panics
    /// Panics with the [`EngineError`] message if a dimension is zero,
    /// the mask's V is unsupported, or the problem does not fit in
    /// the modeled V100's 16 GiB of device memory.
    pub fn plan_sddmm(&self, mask: &SparsityPattern, k: usize, algo: SddmmAlgo) -> SddmmPlan {
        self.try_plan_sddmm(mask, k, algo)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// One-shot SpMM through the engine: plan, run, discard. Algorithm
    /// selection still goes through the plan cache, so repeated one-shots
    /// at the same descriptor tune only once.
    pub fn spmm(
        &self,
        a: &VectorSparse<f16>,
        b: &DenseMatrix<f16>,
        algo: SpmmAlgo,
    ) -> DenseMatrix<f16> {
        self.plan_spmm(a, b.cols(), algo).run(b)
    }

    /// One-shot SpMM profile through the engine.
    pub fn profile_spmm(
        &self,
        a: &VectorSparse<f16>,
        b: &DenseMatrix<f16>,
        algo: SpmmAlgo,
    ) -> KernelProfile {
        self.plan_spmm(a, b.cols(), algo).profile(b)
    }

    /// One-shot SDDMM through the engine.
    pub fn sddmm(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
        mask: &SparsityPattern,
        algo: SddmmAlgo,
    ) -> VectorSparse<f16> {
        self.plan_sddmm(mask, a.cols(), algo).run(a, b)
    }

    /// One-shot SDDMM profile through the engine.
    pub fn profile_sddmm(
        &self,
        a: &DenseMatrix<f16>,
        b: &DenseMatrix<f16>,
        mask: &SparsityPattern,
        algo: SddmmAlgo,
    ) -> KernelProfile {
        self.plan_sddmm(mask, a.cols(), algo).profile(a, b)
    }

    /// The plan prologue both operations share: open the plan span,
    /// `resolve` the algorithm, record its precision certificate, then
    /// `stage` the plan under the stage span.
    fn plan<P>(
        &self,
        key: PlanKey,
        resolve: impl FnOnce() -> Choice,
        stage: impl FnOnce(Choice) -> P,
    ) -> P {
        let spans = key.op.spans();
        let mut plan_span = self.sink.span(Track::ENGINE, spans.plan, "engine");
        for (name, dim) in [("m", key.m), ("k", key.k), ("n", key.n), ("v", key.v)] {
            plan_span.arg(name, dim);
        }
        let choice = resolve();
        plan_span.arg("algo", choice.label());
        if let Choice::Spmm(_, Some(scheme)) = choice {
            plan_span.arg("scheme", scheme.label());
        }
        // Algorithm labels coincide with registry labels, so the
        // certificate lookup is a parse; sparsity does not enter the
        // error model.
        if let Some(id) = KernelId::parse(choice.label()) {
            let shape = registry::Shape {
                m: key.m,
                n: key.n,
                k: key.k,
                v: key.v,
                sparsity: 0.0,
                seed: 0,
            };
            let cert = registry::model_for(id, &shape).certificate(choice.label());
            self.counters.record_certificate(choice.label(), cert);
        }
        let plan = {
            let _stage = self.sink.span(Track::ENGINE, spans.stage, "engine");
            stage(choice)
        };
        self.counters.plans_built.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// The plan cache's choice for `key`, running `tune` under the tune
    /// span on a miss.
    fn tuned(&self, key: PlanKey, tune: impl FnOnce() -> Choice) -> Choice {
        if let Some(choice) = self.cache_lock().get(&key).copied() {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return choice;
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let choice = {
            let mut tune_span = self.sink.span(Track::ENGINE, key.op.spans().tune, "engine");
            let choice = tune();
            tune_span.arg("winner", choice.label());
            if let Choice::Spmm(_, Some(scheme)) = choice {
                tune_span.arg("scheme", scheme.label());
            }
            choice
        };
        self.cache_lock().insert(key, choice);
        choice
    }
}

/// Deterministic Blocked-ELL surrogate of a vector-sparse matrix (the
/// Fig. 16 construction: the Blocked-ELL benchmark shares shape and
/// sparsity, not exact structure).
///
/// The seed hashes the **full pattern structure**, so two distinct
/// problems with equal nonzero counts get distinct surrogates. A plan
/// computes this once and reuses it across all of its runs.
pub(crate) fn ell_twin(a: &VectorSparse<f16>) -> BlockedEll<f16> {
    let p = a.pattern();
    let block = p.v().max(2); // Blocked-ELL needs square blocks ≥ 2.
    let h = pattern_structure_hash(p);
    gen::random_blocked_ell::<f16>(p.rows(), p.cols(), block, p.sparsity(), h)
}

/// FNV-1a over a pattern's full structure (column indices then row
/// pointers), via the shared [`sig`] module — the same hash seeds the
/// Blocked-ELL twin and feeds the memoizer's operand fingerprints, so
/// "same structure" means the same thing everywhere.
pub(crate) fn pattern_structure_hash(p: &SparsityPattern) -> u64 {
    let h = sig::fnv1a_u32s(sig::FNV_OFFSET, p.col_idx().iter().copied());
    sig::fnv1a_u32s(h, p.row_ptr().iter().map(|&r| r as u32))
}

/// The binary16 elements `mem` holds values for, asserting that every
/// materialised buffer is binary16 and takes exactly its device bytes on
/// the host (2 per element, that buffer's share of
/// [`MemPool::allocated_bytes`](vecsparse_gpu_sim::MemPool::allocated_bytes)).
#[cfg(test)]
fn materialised_halves(mem: &vecsparse_gpu_sim::MemPool) -> usize {
    mem.buffer_ids()
        .filter(|&id| mem.host_bytes(id) > 0)
        .map(|id| {
            let what = format!("buffer {}", id.index());
            assert_eq!(mem.width(id), ElemWidth::B16, "{what} width");
            assert_eq!(
                mem.host_bytes(id),
                2 * mem.len(id) as u64,
                "{what} host bytes"
            );
            mem.len(id)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::{gen, reference, Layout};

    #[test]
    fn fixed_algo_plan_never_tunes() {
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let a = gen::random_vector_sparse::<f16>(16, 32, 4, 0.6, 1);
        let b = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 2);
        let plan = ctx.plan_spmm(&a, 64, SpmmAlgo::Octet);
        let got = plan.run(&b);
        assert_eq!(got.max_abs_diff(&reference::spmm_vs(&a, &b)), 0.0);
        let s = ctx.stats();
        assert_eq!(s.tuner_launches, 0);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.plans_built, 1);
    }

    #[test]
    fn auto_tunes_once_per_descriptor() {
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 3);
        let p1 = ctx.plan_spmm(&a, 64, SpmmAlgo::Auto);
        let after_first = ctx.stats();
        assert_eq!(after_first.cache_misses, 1);
        assert!(after_first.tuner_launches >= 2, "tuner profiled candidates");
        // Same descriptor (different values, same structure class): hit.
        let a2 = gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 4);
        let p2 = ctx.plan_spmm(&a2, 64, SpmmAlgo::Auto);
        let after_second = ctx.stats();
        assert_eq!(after_second.cache_hits, 1);
        assert_eq!(after_second.tuner_launches, after_first.tuner_launches);
        assert_eq!(p1.algo(), p2.algo());
    }

    #[test]
    fn different_sparsity_retunes() {
        let ctx = Context::builder().gpu(GpuConfig::small()).build();
        let sparse = gen::random_vector_sparse::<f16>(32, 64, 4, 0.9, 5);
        let dense_ish = gen::random_vector_sparse::<f16>(32, 64, 4, 0.3, 6);
        let _ = ctx.plan_spmm(&sparse, 64, SpmmAlgo::Auto);
        let _ = ctx.plan_spmm(&dense_ish, 64, SpmmAlgo::Auto);
        assert_eq!(ctx.stats().cache_misses, 2, "distinct sparsity buckets");
    }

    /// A problem whose buffers do not fit in the device's memory is
    /// refused with a typed error before anything is allocated or tuned,
    /// under a fixed algorithm and under `Auto`, on both backends. The
    /// SpMM probe's m × n output alone is 128 GiB of binary16.
    #[test]
    fn oversized_problems_are_refused_before_allocation() {
        let a = gen::random_vector_sparse::<f16>(1 << 20, 64, 8, 0.99, 1);
        let mask = gen::random_pattern(64, 64, 4, 0.5, 2);
        let refused = |got: Result<(), EngineError>, needed: u64, what: &str| match got {
            Err(EngineError::OutOfDeviceMemory {
                needed: n,
                capacity,
            }) => {
                assert_eq!((n, capacity), (needed, DEVICE_MEMORY_BYTES), "{what}")
            }
            other => panic!("{what}: expected OutOfDeviceMemory, got {other:?}"),
        };
        for backend in [Backend::Simulated, Backend::Native] {
            let ctx = Context::builder().backend(backend).build();
            // RHS k × n and output m × n; `Dense` adds the m × k image
            // of A, which `Auto` does not probe at 99% sparsity.
            for (algo, dense_a) in [
                (SpmmAlgo::Octet, 0),
                (SpmmAlgo::Auto, 0),
                (SpmmAlgo::Dense, 64 << 20),
            ] {
                let got = ctx.try_plan_spmm(&a, 1 << 16, algo).map(drop);
                refused(
                    got,
                    ((64 << 16) + (1 << 36) + dense_a) * 2,
                    &format!("{algo:?}"),
                );
            }
            for (algo, k, needed) in [
                (SddmmAlgo::Auto, 1 << 40, 1 << 48),
                (SddmmAlgo::OctetReg, 1 << 40, 1 << 48),
                (SddmmAlgo::Auto, usize::MAX, u64::MAX),
            ] {
                let got = ctx.try_plan_sddmm(&mask, k, algo).map(drop);
                refused(got, needed, &format!("{algo:?} k={k}"));
            }
            assert_eq!(
                ctx.stats(),
                EngineStats::default(),
                "nothing tuned or built"
            );
        }
        // The bound is inclusive: 2 × 2^33 bytes is exactly 16 GiB.
        let key = |n| PlanKey {
            op: OpKind::Sddmm,
            m: 1 << 32,
            k: 1,
            n,
            v: 1,
            sparsity_bucket: 0,
        };
        assert_eq!(key(1 << 32).check_fits(false), Ok(()));
        refused(
            key((1 << 32) + 1).check_fits(false),
            (1 << 34) + 2,
            "one more column",
        );
    }

    #[test]
    fn ell_twin_is_deterministic_and_structure_sensitive() {
        let a = gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 7);
        let t1 = ell_twin(&a);
        let t2 = ell_twin(&a);
        assert_eq!(
            t1.block_col_idx(),
            t2.block_col_idx(),
            "same problem, same twin"
        );
        // A different structure with the same shape/nnz gets its own twin
        // (the old nnz-only seed collapsed these).
        let b = gen::random_vector_sparse::<f16>(16, 32, 4, 0.5, 8);
        if a.pattern().col_idx() != b.pattern().col_idx() {
            let t3 = ell_twin(&b);
            assert_ne!(t1.block_col_idx(), t3.block_col_idx());
        }
    }
}
