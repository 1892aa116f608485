//! The machinery every plan shares: certified launches, the
//! primary-plus-spares device-state pool, the timed and spanned run and
//! profile wrappers, and the batch fan-out.

use super::{AlgoCell, Context, Counters, EngineError, OpKind};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use vecsparse_certify::certify;
use vecsparse_gpu_sim::sig::Fingerprint;
use vecsparse_gpu_sim::{
    Backend, GpuConfig, KernelProfile, KernelSpec, Launch, MemPool, Mode, TraceSink, Track,
    WaveMemo,
};

/// What one launch produced: the read-back output of a functional
/// launch, or the profile of a performance launch.
pub(super) struct Launched<R> {
    output: Option<R>,
    profile: Option<KernelProfile>,
}

impl<R> Launched<R> {
    fn output(self) -> Result<R, EngineError> {
        self.output.ok_or(EngineError::Internal {
            what: "functional launch read no output back",
        })
    }

    fn profile(self) -> Result<KernelProfile, EngineError> {
        self.profile.ok_or(EngineError::Internal {
            what: "performance launch returned no profile",
        })
    }
}

/// A plan's execution core over its per-plan device state `S`. Single
/// runs lock the primary state; batched runs check clones out of a spare
/// pool so rayon workers each own private device state and genuinely run
/// concurrently. Built by the owning context.
pub(super) struct PlanCore<S> {
    op: OpKind,
    /// Label of the concrete algorithm the plan executes.
    label: &'static str,
    /// The context's run/profile tallies for `label`.
    algo: Arc<AlgoCell>,
    gpu: GpuConfig,
    state: Mutex<S>,
    /// Checked-in clones of the primary state for batched fan-out. A
    /// plan's execute step must rewrite every value a previous run left
    /// in a clone before launching.
    spares: Mutex<Vec<S>>,
    sink: Arc<TraceSink>,
    counters: Arc<Counters>,
    /// Context-wide launch memoizer (None: honest simulation only).
    memo: Option<Arc<WaveMemo>>,
    /// Functional execution backend inherited from the context.
    backend: Backend,
    /// The launch-level memo key the plan's first untraced memoized
    /// profile was cached under. Every input of the key is a plan
    /// constant, so later profiles are answered by one probe under it.
    launch_key: OnceLock<Fingerprint>,
}

impl<S: Clone + Send> PlanCore<S> {
    /// The core of a plan built through `ctx` that executes `label` over
    /// the staged `state`: device, telemetry, memoizer and backend are the
    /// context's.
    pub(super) fn new(ctx: &Context, op: OpKind, label: &'static str, state: S) -> Self {
        PlanCore {
            op,
            label,
            algo: ctx.counters.algo_cell(label),
            gpu: ctx.gpu.clone(),
            state: Mutex::new(state),
            spares: Mutex::new(Vec::new()),
            sink: Arc::clone(&ctx.sink),
            counters: Arc::clone(&ctx.counters),
            memo: ctx.memo.clone(),
            backend: ctx.backend,
            launch_key: OnceLock::new(),
        }
    }

    /// Launch `kernel` against `mem`, then read the output back with
    /// `read` (functional) or return the profile (performance).
    ///
    /// A performance launch goes through the memoizer when the context
    /// memoizes and the kernel's wave equivalence is certified (proved at
    /// most once per (algorithm, operand) by the context's signature
    /// cache); `operand_fp` fingerprints everything the signature must
    /// cover beyond the certificate and is only taken then. Everything
    /// else simulates honestly. The first launch whose profile the memo
    /// caches leaves its key on the plan for [`PlanCore::profile`].
    pub(super) fn launch<R>(
        &self,
        mem: &mut MemPool,
        kernel: &dyn KernelSpec,
        mode: Mode,
        operand_fp: impl FnOnce(&MemPool) -> Fingerprint,
        read: impl FnOnce(&MemPool) -> R,
    ) -> Launched<R> {
        let memo = match &self.memo {
            Some(m) if mode == Mode::Performance => self
                .counters
                .launch_sig_for(self.label, operand_fp(mem), || certify(mem, kernel))
                .map(|sig| (m.as_ref(), sig)),
            _ => None,
        };
        let out = Launch::new(mem, kernel)
            .gpu(&self.gpu)
            .mode(mode)
            .traced(&self.sink)
            .memo(memo)
            .backend(self.backend)
            .run();
        if let Some(key) = out.launch_key {
            let _ = self.launch_key.set(key);
        }
        Launched {
            output: (mode == Mode::Functional).then(|| read(mem)),
            profile: out.profile,
        }
    }

    pub(super) fn primary(&self) -> MutexGuard<'_, S> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn spares(&self) -> MutexGuard<'_, Vec<S>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `exec` once on the primary state, functionally.
    pub(super) fn run<R>(
        &self,
        exec: impl FnOnce(&mut S, Mode) -> Launched<R>,
    ) -> Result<R, EngineError> {
        let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
        let mut span = self.sink.span(Track::ENGINE, self.op.spans().run, "engine");
        span.arg("algo", self.label);
        let out = exec(&mut self.primary(), Mode::Functional).output()?;
        self.algo.record_run();
        self.counters.add_wall(t0.elapsed());
        Ok(out)
    }

    /// Profile `exec` once on the primary state, or answer from the memo
    /// under the plan's launch key without executing anything. The caller
    /// has checked the operands. A memo answer opens no span and is not
    /// timed: a traced context never gets one, and the memo counts it.
    pub(super) fn profile<R>(
        &self,
        exec: impl FnOnce(&mut S, Mode) -> Launched<R>,
    ) -> Result<KernelProfile, EngineError> {
        if let Some(profile) = self.memoized_profile() {
            self.algo.record_profile(profile.cycles);
            return Ok(profile);
        }
        let t0 = std::time::Instant::now(); // lint: hash-ok — engine wall bookkeeping only
        let mut span = self
            .sink
            .span(Track::ENGINE, self.op.spans().profile, "engine");
        span.arg("algo", self.label);
        let profile = exec(&mut self.primary(), Mode::Performance).profile()?;
        self.algo.record_profile(profile.cycles);
        self.counters.add_wall(t0.elapsed());
        Ok(profile)
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

    /// Run `exec` on elements `0..len` functionally, returning outputs in
    /// order, under one run span that carries the batch length. Elements
    /// fan out across rayon workers, each checking a spare state out of
    /// the pool (or cloning the primary), running without the primary
    /// lock and checking the state back in; results are bit-identical to
    /// sequential [`PlanCore::run`] calls. Functional launches record no
    /// events, so a traced batch fans out the same way.
    pub(super) fn run_batch<R: Send>(
        &self,
        len: usize,
        exec: impl Fn(&mut S, Mode, usize) -> Launched<R> + Sync,
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
                let mut state = spare.unwrap_or_else(|| self.primary().clone());
                let out = exec(&mut state, Mode::Functional, i);
                self.spares().push(state);
                let out = out.output()?;
                self.algo.record_run();
                Ok(out)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        self.counters.add_wall(t0.elapsed());
        out
    }
}
