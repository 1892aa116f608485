//! The vecsparse execution engine: a cuSPARSE-style handle / plan API.
//!
//! The paper's kernels are meant to be launched the way `cusparseSpMM` is:
//! create a handle, describe the problem once, then execute it many times.
//! The original free functions in [`crate::api`] re-encode the sparse
//! operand, re-stage memory, and re-select the algorithm on *every* call.
//! This module introduces the stateful workflow:
//!
//! * [`Context`] — the handle. Owns the simulated device, the auto-tuner,
//!   and a **plan cache** keyed by problem shape and sparsity, so a
//!   tuning decision made once is reused by every later plan with the
//!   same descriptor.
//! * [`SpmmPlan`] / [`SddmmPlan`] — a captured problem. A plan clones the
//!   structural operand (the sparse matrix for SpMM, the mask for SDDMM),
//!   derives any secondary encodings **once** (the Blocked-ELL surrogate,
//!   the densified twin), stages everything into a private
//!   [`vecsparse_gpu_sim::MemPool`], and then executes single problems or
//!   whole batches against those staged buffers — the only per-run
//!   traffic is the RHS values and the output.
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
use vecsparse_formats::{gen, BlockedEll, DenseMatrix, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::sig::{self, Fingerprint};
use vecsparse_gpu_sim::{
    Backend, GpuConfig, KernelProfile, LaunchSig, MemoStats, TraceSink, Track, WaveMemo,
};
use vecsparse_precision::Certificate;
use vecsparse_waveprove::WaveCertificate;

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
    /// RHS width `n`, SDDMM's inner dimension `k` — is `free`.
    fn new(op: OpKind, p: &SparsityPattern, free: usize) -> Result<PlanKey, EngineError> {
        if free == 0 {
            return Err(EngineError::EmptyDimension {
                what: match op {
                    OpKind::Spmm => "n (RHS columns)",
                    OpKind::Sddmm => "k (inner dimension)",
                },
            });
        }
        if !matches!(p.v(), 1 | 2 | 4 | 8) {
            return Err(EngineError::UnsupportedV { v: p.v() });
        }
        let (k, n) = match op {
            OpKind::Spmm => (p.cols(), free),
            OpKind::Sddmm => (free, p.cols()),
        };
        Ok(PlanKey {
            op,
            m: p.rows(),
            k,
            n,
            v: p.v(),
            sparsity_bucket: sig::sparsity_bucket(p.sparsity()),
        })
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

/// Per-algorithm aggregate, keyed by the kernel label.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AlgoAgg {
    pub(crate) runs: u64,
    pub(crate) profiles: u64,
    pub(crate) cycles: f64,
}

#[derive(Default)]
pub(crate) struct Counters {
    tuner_launches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    plans_built: AtomicU64,
    /// Wall-clock nanoseconds spent inside engine execution entry points
    /// (runs, profiles, batches, tuning regions). Batch fan-out counts
    /// the region once, not per element, so this stays a wall time even
    /// when elements run concurrently.
    wall_nanos: AtomicU64,
    /// Per-algorithm run/profile/cycle aggregation for [`Report`].
    algos: Mutex<HashMap<&'static str, AlgoAgg>>, // lint: hash-ok — snapshot sorts by label
    /// Worst-case precision certificate per planned algorithm (the widest
    /// bound over every descriptor planned through this context).
    certs: Mutex<HashMap<&'static str, Certificate>>, // lint: hash-ok — snapshot sorts by label
    /// Latest wave-equivalence certificate per planned algorithm
    /// (surfaced in [`Report`]).
    wave_certs: Mutex<HashMap<&'static str, WaveCertificate>>, // lint: hash-ok — snapshot sorts by label
    /// Memoization-signature cache keyed by (algorithm, operand
    /// fingerprint): repeated plans over the same operand structure reuse
    /// one certification instead of re-proving per plan. `None` records a
    /// NotProvable verdict, so unprovable kernels are not re-certified
    /// either.
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    launch_sigs: Mutex<HashMap<(&'static str, Fingerprint), Option<LaunchSig>>>,
    /// Whether performance launches run the shardprove footprint
    /// analyzer (set once at build via
    /// [`ContextBuilder::shard_certification`]).
    shard_certs_enabled: std::sync::atomic::AtomicBool,
    /// Memory-footprint certificate summary per planned algorithm,
    /// recorded on the first performance launch of each algorithm when
    /// shard certification is enabled.
    shard_certs: Mutex<HashMap<&'static str, String>>, // lint: hash-ok — snapshot sorts by label
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
    fn algos_lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, AlgoAgg>> {
        self.algos.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn record_run(&self, label: &'static str) {
        self.algos_lock().entry(label).or_default().runs += 1;
    }

    pub(crate) fn record_profile(&self, label: &'static str, cycles: f64) {
        let mut algos = self.algos_lock();
        let agg = algos.entry(label).or_default();
        agg.profiles += 1;
        agg.cycles += cycles;
    }

    pub(crate) fn algo_snapshot(&self) -> Vec<(&'static str, AlgoAgg)> {
        let mut v: Vec<_> = self.algos_lock().iter().map(|(k, a)| (*k, *a)).collect();
        v.sort_by_key(|(k, _)| *k);
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

    /// Resolve the memoization signature for `(label, operand_fp)`,
    /// certifying wave equivalence at most once per key: plans rebuilt
    /// over the same operand structure (a `--repeat` sweep) hit the cache
    /// instead of re-proving. `certify` runs outside the lock; concurrent
    /// first-probes may both certify, which is benign (same verdict).
    pub(crate) fn launch_sig_for(
        &self,
        label: &'static str,
        operand_fp: Fingerprint,
        certify: impl FnOnce() -> WaveCertificate,
    ) -> Option<LaunchSig> {
        {
            let sigs = self
                .launch_sigs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(sig) = sigs.get(&(label, operand_fp)) {
                return *sig;
            }
        }
        let cert = certify();
        let sig = cert.launch_sig(operand_fp);
        self.wave_certs_lock().insert(label, cert);
        self.launch_sigs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((label, operand_fp), sig);
        sig
    }

    // lint: hash-ok (see field)
    fn shard_certs_lock(&self) -> std::sync::MutexGuard<'_, HashMap<&'static str, String>> {
        self.shard_certs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn set_shard_certification(&self, enabled: bool) {
        self.shard_certs_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether a shard certificate for `label` still needs to be derived:
    /// certification is enabled and no launch of this algorithm has
    /// recorded one yet (the footprint depends only on operand structure,
    /// which is fixed per plan label within a context).
    pub(crate) fn shard_cert_wanted(&self, label: &'static str) -> bool {
        self.shard_certs_enabled.load(Ordering::Relaxed)
            && !self.shard_certs_lock().contains_key(label)
    }

    pub(crate) fn record_shard_cert(&self, label: &'static str, summary: String) {
        self.shard_certs_lock().insert(label, summary);
    }

    pub(crate) fn shard_cert_snapshot(&self) -> Vec<(&'static str, String)> {
        let mut v: Vec<_> = self
            .shard_certs_lock()
            .iter()
            .map(|(k, s)| (*k, s.clone()))
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
    /// Certified wave memoizer shared by every plan built through this
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

/// Builder for [`Context`] — the single construction path that replaced
/// the PR-2 constructor family (`new` / `with_gpu` / `with_telemetry` /
/// `with_memoization`). Every knob is optional and composable:
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
///
/// See DESIGN.md §2b for the migration table from the deprecated
/// constructors.
#[derive(Default)]
pub struct ContextBuilder {
    gpu: Option<GpuConfig>,
    sink: Option<Arc<TraceSink>>,
    memo: Option<Arc<WaveMemo>>,
    shard_certs: bool,
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

    /// Enable certified wave memoization: performance launches of kernels
    /// whose wave equivalence [`certify`] proves are keyed by their
    /// structural signature, simulated once per class, and replayed on
    /// every later launch in the class. Functional runs and unprovable
    /// kernels are unaffected. `VECSPARSE_AUDIT=n` re-simulates every
    /// n-th memoized wave and asserts bit-identical timing.
    ///
    /// [`certify`]: vecsparse_waveprove::certify
    pub fn memoization(mut self) -> Self {
        self.memo = Some(Arc::new(WaveMemo::new()));
        self
    }

    /// Enable memoization against an **externally owned** wave memoizer.
    /// Several contexts built with clones of the same `Arc` share one
    /// wave-artifact cache — the mechanism `vecsparse-serve` uses to let
    /// every worker context of a shard replay waves any of them
    /// simulated. Soundness is unaffected: the memo key already covers
    /// machine config, program, operand structure, and pool layout.
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

    /// Enable static shard certification: the first performance launch of
    /// each planned algorithm runs the `shardprove` footprint analyzer
    /// over the staged pool and records the certificate verdict in
    /// [`Context::report`] (`shard_certificates`). The analysis is purely
    /// static (functional re-trace of the staged kernel), so enabling it
    /// never perturbs results or timing. Default: off.
    pub fn shard_certification(mut self) -> Self {
        self.shard_certs = true;
        self
    }

    /// Construct the handle.
    pub fn build(self) -> Context {
        let sink = self.sink.unwrap_or_else(|| Arc::new(TraceSink::disabled()));
        if sink.is_enabled() {
            sink.name_process(Track::ENGINE.pid, "engine");
            sink.name_thread(Track::ENGINE, "engine");
        }
        let counters = Arc::new(Counters::default());
        counters.set_shard_certification(self.shard_certs);
        Context {
            gpu: self.gpu.unwrap_or_default(),
            cache: Mutex::new(HashMap::new()), // lint: hash-ok (see field)
            counters,
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
            algos: self
                .counters
                .algo_snapshot()
                .into_iter()
                .map(|(label, agg)| AlgoReport {
                    algo: label,
                    runs: agg.runs,
                    profiles: agg.profiles,
                    total_cycles: agg.cycles,
                })
                .collect(),
            certificates: self.counters.cert_snapshot(),
            wave_certificates: self.counters.wave_cert_snapshot(),
            shard_certificates: self.counters.shard_cert_snapshot(),
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
        Ok(self.plan(
            key,
            || match algo {
                SpmmAlgo::Auto => self.tuned(key, || {
                    let (algo, scheme) = tuner::tune_spmm(&self.gpu, a, n, &self.counters);
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
    /// Panics with the [`EngineError`] message if `n == 0` or the
    /// operand's V is unsupported.
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
        Ok(self.plan(
            key,
            || match algo {
                SddmmAlgo::Auto => self.tuned(key, || {
                    Choice::Sddmm(tuner::tune_sddmm(&self.gpu, mask, k, &self.counters))
                }),
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
    /// Panics with the [`EngineError`] message if `k == 0` or the mask's
    /// V is unsupported.
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
/// The seed hashes the **full pattern structure**, fixing the PR-2 bug
/// where the old `api::ell_equivalent` seeded only by `nnz`: two distinct
/// problems with equal nonzero counts shared one surrogate, and every
/// call paid for a fresh re-encoding. A plan computes this once and
/// reuses it across all of its runs.
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
