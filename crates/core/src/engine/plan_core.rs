//! The machinery every plan shares: the plan's kernel, certified
//! launches, the primary-plus-spares device-state pool, the timed and
//! spanned run and profile wrappers, and the batch fan-out.

use super::{AlgoCell, Context, Counters, EngineError, OpKind};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use vecsparse_certify::certify;
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{
    Backend, GpuConfig, KernelProfile, KernelSpec, Launch, LaunchSig, MemPool, TraceSink, Track,
    WaveMemo,
};

/// A kernel a plan builds once and launches on every call.
pub(super) type Kernel = Box<dyn KernelSpec + Send>;

/// A plan's execution core: its kernel, built once over the buffers of
/// its staged pool. Single runs and profiles lock the primary pool;
/// batched runs check clones out of a spare pool so rayon workers each
/// own private device state and genuinely run concurrently. Built by the
/// owning plan through its context.
pub(super) struct PlanCore {
    op: OpKind,
    /// Label of the concrete algorithm the plan executes.
    label: &'static str,
    /// The context's run/profile tallies for `label`.
    algo: Arc<AlgoCell>,
    gpu: GpuConfig,
    /// The kernel every functional launch runs.
    kernel: Kernel,
    /// `Dense` only: its performance instance, since split-K applies to
    /// performance launches only. Every other plan profiles `kernel`.
    perf_kernel: Option<Kernel>,
    state: Mutex<MemPool>,
    /// Checked-in clones of the primary pool for batched fan-out. A
    /// plan's `stage` must rewrite every value a previous run left in a
    /// clone.
    spares: Mutex<Vec<MemPool>>,
    sink: Arc<TraceSink>,
    counters: Arc<Counters>,
    /// Context-wide launch memoizer (None: honest simulation only).
    memo: Option<Arc<WaveMemo>>,
    /// Functional execution backend inherited from the context.
    backend: Backend,
    /// The plan's memoization signature, certified by its first
    /// memoized profile (`None` inside: the kernel is not provably
    /// wave-equivalent and never memoizes).
    launch_sig: OnceLock<Option<LaunchSig>>,
    /// The launch-level memo key the plan's first untraced memoized
    /// profile was cached under. Every input of the key is a plan
    /// constant, so later profiles are answered by one probe under it.
    launch_key: OnceLock<Fingerprint>,
}

impl PlanCore {
    /// The core of a plan built through `ctx` that executes `label` with
    /// `kernel` (and `perf_kernel`, if any) over the staged pool `mem`:
    /// device, telemetry, memoizer and backend are the context's.
    pub(super) fn new(
        ctx: &Context,
        op: OpKind,
        label: &'static str,
        mem: MemPool,
        kernel: Kernel,
        perf_kernel: Option<Kernel>,
    ) -> Self {
        PlanCore {
            op,
            label,
            algo: ctx.counters.algo_cell(label),
            gpu: ctx.gpu.clone(),
            kernel,
            perf_kernel,
            state: Mutex::new(mem),
            spares: Mutex::new(Vec::new()),
            sink: Arc::clone(&ctx.sink),
            counters: Arc::clone(&ctx.counters),
            memo: ctx.memo.clone(),
            backend: ctx.backend,
            launch_sig: OnceLock::new(),
            launch_key: OnceLock::new(),
        }
    }

    pub(super) fn primary(&self) -> MutexGuard<'_, MemPool> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn spares(&self) -> MutexGuard<'_, Vec<MemPool>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write a functional run's values into `mem` with `stage`, launch
    /// the plan's kernel and read the output back with `read`.
    fn run_in<R>(
        &self,
        mem: &mut MemPool,
        stage: impl FnOnce(&mut MemPool),
        read: impl FnOnce(&MemPool) -> R,
    ) -> R {
        stage(mem);
        Launch::new(mem, self.kernel.as_ref())
            .backend(self.backend)
            .run();
        read(mem)
    }

    /// Run the plan once on the primary pool: `stage` writes the run's
    /// values and `read` reads its output back.
    pub(super) fn run<R>(
        &self,
        stage: impl FnOnce(&mut MemPool),
        read: impl FnOnce(&MemPool) -> R,
    ) -> R {
        let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
        let mut span = self.sink.span(Track::ENGINE, self.op.spans().run, "engine");
        span.arg("algo", self.label);
        let out = self.run_in(&mut self.primary(), stage, read);
        self.algo.record_run();
        self.counters.add_wall(t0.elapsed());
        out
    }

    /// Profile the plan once on the primary pool, or answer from the memo
    /// under the plan's launch key without executing anything. The caller
    /// has checked the operands. A memo answer opens no span and is not
    /// timed: a traced context never gets one, and the memo counts it.
    pub(super) fn profile(
        &self,
        operand_fp: impl FnOnce(&MemPool) -> Fingerprint,
    ) -> KernelProfile {
        if let Some(profile) = self.memoized_profile() {
            self.algo.record_profile(profile.cycles);
            return profile;
        }
        let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
        let mut span = self
            .sink
            .span(Track::ENGINE, self.op.spans().profile, "engine");
        span.arg("algo", self.label);
        let profile = self.simulate(&mut self.primary(), operand_fp);
        self.algo.record_profile(profile.cycles);
        self.counters.add_wall(t0.elapsed());
        profile
    }

    /// Launch the plan's performance kernel against `mem` and keep the
    /// memo key its profile was cached under. The launch goes through the
    /// memoizer when the context memoizes and the kernel is certified
    /// wave-equivalent. The plan certifies at most once, on its first
    /// memoized profile, and records the certificate for
    /// [`super::Report::wave_certificates`]; `operand_fp` fingerprints
    /// everything the signature must cover beyond the certificate and is
    /// taken only then.
    fn simulate(
        &self,
        mem: &mut MemPool,
        operand_fp: impl FnOnce(&MemPool) -> Fingerprint,
    ) -> KernelProfile {
        let kernel = self.perf_kernel.as_ref().unwrap_or(&self.kernel).as_ref();
        let memo = self.memo.as_deref().and_then(|memo| {
            let sig = self.launch_sig.get_or_init(|| {
                let cert = certify(mem, kernel);
                let sig = cert.launch_sig(operand_fp(mem));
                self.counters.wave_certs_lock().insert(self.label, cert);
                sig
            });
            sig.map(|sig| (memo, sig))
        });
        let out = Launch::new(mem, kernel)
            .gpu(&self.gpu)
            .performance()
            .traced(&self.sink)
            .memo(memo)
            .run();
        if let Some(key) = out.launch_key {
            let _ = self.launch_key.set(key);
        }
        out.profile.expect("performance launch returns a profile")
    }

    /// The profile cached under the plan's launch key: `None` until a
    /// memoized profile left a key, and whenever the probe declines (a
    /// traced context). An auditing memo skips this shortcut, so each
    /// profile probes the memo once, inside its full, timed launch.
    fn memoized_profile(&self) -> Option<KernelProfile> {
        let key = *self.launch_key.get()?;
        let memo = self.memo.as_ref().filter(|m| m.audit_every() == 0)?;
        memo.probe_launch(key, self.sink.is_enabled())
    }

    /// Run elements `0..len`, returning outputs in order, under one run
    /// span that carries the batch length: `stage` writes element `i`'s
    /// values and `read` reads its output back. Elements fan out across
    /// rayon workers, each checking a spare pool out (or cloning the
    /// primary), running without the primary lock and checking the pool
    /// back in; results are bit-identical to sequential
    /// [`PlanCore::run`] calls. Functional launches record no events, so
    /// a traced batch fans out the same way.
    pub(super) fn run_batch<R: Send>(
        &self,
        len: usize,
        stage: impl Fn(&mut MemPool, usize) + Sync,
        read: impl Fn(&MemPool) -> R + Sync,
    ) -> Result<Vec<R>, EngineError> {
        if len == 0 {
            return Err(EngineError::EmptyBatch);
        }
        let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
        let mut span = self.sink.span(Track::ENGINE, self.op.spans().run, "engine");
        span.arg("algo", self.label);
        span.arg("batch", len);
        let out = (0..len)
            .into_par_iter()
            .map(|i| {
                let spare = self.spares().pop();
                let mut mem = spare.unwrap_or_else(|| self.primary().clone());
                let out = self.run_in(&mut mem, |mem| stage(mem, i), &read);
                self.spares().push(mem);
                self.algo.record_run();
                out
            })
            .collect();
        self.counters.add_wall(t0.elapsed());
        Ok(out)
    }
}
