//! Kernel launch machinery: functional execution and performance
//! simulation with occupancy-aware wave sampling and extrapolation.

use crate::cache::{replay_l2, CacheStats, RecordingL2, SectorCache};
use crate::config::GpuConfig;
use crate::mem::MemPool;
use crate::memo::{LaunchSig, WaveArtifacts, WaveDecision, WaveMemo};
use crate::profile::{HotPc, InstrCounts, KernelProfile, PipeUtil, StallBreakdown};
use crate::sched::{simulate_wave, WaveObs};
use crate::sched_event::simulate_wave_event;
use crate::sig::FingerprintHasher;
use crate::trace::WarpTrace;
use crate::warp::{CtaCtx, ShadowObs};
use crate::WARP_SIZE;
use rayon::prelude::*;
use std::sync::Arc;
use vecsparse_telemetry::{ArgValue, TraceSink, Track};

/// Execution mode of a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Compute real values; no timing. Used by correctness tests and the
    /// end-to-end transformer.
    Functional,
    /// Skip values; generate traces for a sampled set of CTAs and build a
    /// [`KernelProfile`].
    Performance,
}

/// How the performance simulation advances time. Both modes produce
/// bit-identical profiles, traces, and memo artifacts; the choice is
/// purely a wall-clock trade, so every launch uses the event scheduler
/// and the tick scheduler is the reference it is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TimingMode {
    /// Reference tick scheduler (`sched.rs`): every warp's readiness is
    /// recomputed from the live scoreboards each round. Tests select it
    /// as the oracle, and `VECSPARSE_AUDIT=n` re-times every n-th event
    /// wave with it.
    Tick,
    /// Event-driven scheduler (`sched_event.rs`): the clock jumps to
    /// cached next-event times, dropping back to tick-exact stepping
    /// inside contended (barrier) windows. Several times faster on
    /// untraced waves; results are bit-identical by construction and
    /// cross-checked at runtime under `VECSPARSE_AUDIT=n`.
    #[default]
    Event,
}

/// Which engine executes a *functional* launch.
///
/// Performance launches always simulate — the whole point of a profile is
/// the warp-level machine model. Functional launches, by contrast, only
/// need the kernels' arithmetic, and [`Backend::Native`] runs it directly
/// on the host (see [`crate::NativeCtx`]): no warps, no traces, an order
/// of magnitude less bookkeeping per value. Outputs are bit-identical
/// between the two backends; the tier-1 backend gate enforces it for the
/// whole kernel registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Warp-accurate functional simulation (the reference path).
    #[default]
    Simulated,
    /// Direct host execution of the kernel's functional semantics.
    /// Kernels without a native lowering fall back to [`Backend::Simulated`].
    Native,
}

impl Backend {
    /// Stable lowercase label, as used by `--backend` and sweep JSON.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Native => "native",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = &'static str;

    /// Parse a `--backend` flag value (a [`Backend::label`]).
    fn from_str(s: &str) -> Result<Backend, Self::Err> {
        match s {
            "simulated" => Ok(Backend::Simulated),
            "native" => Ok(Backend::Native),
            _ => Err("expected simulated or native"),
        }
    }
}

/// Static launch description a kernel provides.
#[derive(Clone, Debug)]
pub struct LaunchConfig {
    /// Number of CTAs (thread blocks).
    pub grid: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
    /// Registers per thread (occupancy input; ≤ 255 on real hardware).
    pub regs_per_thread: u32,
    /// Shared memory elements per CTA.
    pub smem_elems: usize,
    /// Width of a shared-memory element in bytes.
    pub smem_elem_bytes: u64,
    /// Static program size in instructions ("SASS lines").
    pub static_instrs: u32,
}

impl LaunchConfig {
    /// Resident CTAs per SM under the machine's occupancy rules.
    pub fn ctas_per_sm(&self, cfg: &GpuConfig) -> usize {
        let by_cta_limit = cfg.max_ctas_per_sm;
        let warp_capacity = cfg.max_warps_per_scheduler * cfg.schedulers_per_sm;
        let by_warps = warp_capacity / self.warps_per_cta.max(1);
        let regs_per_cta = self.regs_per_thread as usize * WARP_SIZE * self.warps_per_cta;
        let by_regs = (cfg.regs_per_sm as usize)
            .checked_div(regs_per_cta)
            .unwrap_or(usize::MAX);
        let smem_bytes = self.smem_elems as u64 * self.smem_elem_bytes;
        let by_smem = (cfg.max_smem_per_sm as u64)
            .checked_div(smem_bytes)
            .map_or(usize::MAX, |x| x as usize);
        by_cta_limit.min(by_warps).min(by_regs).min(by_smem).max(1)
    }
}

/// A kernel: a launch shape plus the per-CTA body.
pub trait KernelSpec: Sync {
    /// Human-readable kernel name for reports.
    fn name(&self) -> String;
    /// Launch configuration.
    fn launch_config(&self) -> LaunchConfig;
    /// Execute one CTA (both modes go through this body).
    fn run_cta(&self, cta: &mut CtaCtx<'_>);
    /// The static-instruction registry, when the kernel keeps it around.
    /// Lets diagnostics (profiler hot spots, sanitizer findings) render pcs
    /// as `name[instance]` instead of bare numbers.
    fn program(&self) -> Option<&crate::program::Program> {
        None
    }
    /// The kernel's declared output-row decomposition for shard
    /// certification. `None` (the default) means the kernel publishes no
    /// layout and the shardprove analyzer can never certify it.
    fn shard_layout(&self) -> Option<crate::shard::ShardLayout> {
        None
    }
    /// Execute the kernel's functional semantics directly on the host
    /// ([`Backend::Native`]): write bit-identical outputs through `ctx`
    /// and return `true`. The default returns `false` without touching
    /// the pool, which makes the launch fall back to the simulated
    /// functional path.
    fn run_native(&self, ctx: &mut crate::NativeCtx<'_>) -> bool {
        let _ = ctx;
        false
    }
}

/// What a launch returns.
pub struct LaunchOutput {
    /// Performance profile (None in functional mode).
    pub profile: Option<KernelProfile>,
    /// Per-site fp64 shadow-execution observations, folded across CTAs
    /// and sorted by pc. Empty unless the launch was built with
    /// [`Launch::shadow`].
    pub shadow: Vec<ShadowObs>,
    /// True when the functional launch ran on the native CPU backend.
    /// A [`Backend::Native`] request can still come back `false` — the
    /// kernel lacks a native lowering, or the launch needed the warp
    /// model (performance, shadow, CTA subset). The tier-1 backend gate
    /// asserts this so a silent fallback cannot masquerade as coverage.
    pub native: bool,
}

/// Composable kernel launch: the one entry point for every way a kernel
/// can run.
///
/// ```text
/// Launch::new(&mut mem, &kernel)        // functional, default GPU
///     .gpu(&cfg)                        // machine to simulate
///     .performance()                    // or .mode(Mode::Performance)
///     .timing(TimingMode::Tick)         // reference scheduler (default: event)
///     .traced(&sink)                    // telemetry sink
///     .memo(&memo, sig)                 // certified wave memoization
///     .run()
/// ```
///
/// In [`Mode::Functional`], every CTA executes (in parallel over host
/// threads) and buffered global writes are applied to `mem`. With
/// [`Launch::shadow`], CTAs additionally run the fp64 shadow twin and the
/// folded per-site error observations come back in
/// [`LaunchOutput::shadow`] (the working f32/f16 results are
/// bit-identical — the twin never feeds back).
///
/// In [`Mode::Performance`], the simulation runs as a three-phase
/// pipeline: traces are generated for `sim_sms × ctas_per_sm ×
/// sim_waves` CTAs sampled evenly across the grid (parallel), each SM
/// wave is timed with its own L1 and a recording L2 (parallel), and the
/// recorded L2 sector traffic is replayed into the shared device L2 in
/// canonical wave order (sequential) before counters are extrapolated
/// to the full grid. Results are bit-identical at any thread count and
/// in either [`TimingMode`]. The final cycle estimate is the maximum of
/// the issue-model cycles and the DRAM/L2 bandwidth lower bounds.
///
/// With an enabled sink ([`Launch::traced`]), the launch claims a fresh
/// process id on the timeline and records a kernel-wide span (tid 0,
/// with grid/cycle/roofline args) over per-scheduler tracks (tid
/// `s + 1`) carrying every simulated issue and attributed stall; the
/// sink's virtual clock advances by the simulated wave cycles.
///
/// With a memo ([`Launch::memo`]), the performance simulation consults
/// it before doing any work: whole launches whose signature class was
/// simulated before replay the cached profile, and within a fresh launch
/// each SM wave whose class is cached replays recorded
/// timing/span/L2-op artifacts instead of re-simulating. The caller is
/// responsible for passing a signature only for kernels holding a
/// `Provable` wave-equivalence certificate — the signature *is* the
/// proof carrier. Functional launches ignore the memo. Memo keys do not
/// include the [`TimingMode`]: both modes produce identical artifacts,
/// so a cache is shareable across them.
pub struct Launch<'a, K: KernelSpec + ?Sized> {
    mem: &'a mut MemPool,
    kernel: &'a K,
    gpu: Option<&'a GpuConfig>,
    mode: Mode,
    timing: TimingMode,
    sink: Option<&'a TraceSink>,
    memo: Option<(&'a WaveMemo, LaunchSig)>,
    shadow: bool,
    ctas: Option<Vec<usize>>,
    backend: Backend,
}

impl<'a, K: KernelSpec + ?Sized> Launch<'a, K> {
    /// A functional launch of `kernel` against `mem` on the default GPU.
    pub fn new(mem: &'a mut MemPool, kernel: &'a K) -> Launch<'a, K> {
        Launch {
            mem,
            kernel,
            gpu: None,
            mode: Mode::Functional,
            timing: TimingMode::default(),
            sink: None,
            memo: None,
            shadow: false,
            ctas: None,
            backend: Backend::default(),
        }
    }

    /// Machine configuration to simulate (performance mode only).
    pub fn gpu(mut self, cfg: &'a GpuConfig) -> Launch<'a, K> {
        self.gpu = Some(cfg);
        self
    }

    /// Execution mode.
    pub fn mode(mut self, mode: Mode) -> Launch<'a, K> {
        self.mode = mode;
        self
    }

    /// Shorthand for `.mode(Mode::Performance)`.
    pub fn performance(self) -> Launch<'a, K> {
        self.mode(Mode::Performance)
    }

    /// How the performance simulation advances time (default
    /// [`TimingMode::Event`]; [`TimingMode::Tick`] is the reference).
    pub fn timing(mut self, timing: TimingMode) -> Launch<'a, K> {
        self.timing = timing;
        self
    }

    /// Record telemetry into `sink`.
    pub fn traced(mut self, sink: &'a TraceSink) -> Launch<'a, K> {
        self.sink = Some(sink);
        self
    }

    /// Consult (and fill) a certified wave memo under `sig`.
    pub fn memo(mut self, memo: &'a WaveMemo, sig: LaunchSig) -> Launch<'a, K> {
        self.memo = Some((memo, sig));
        self
    }

    /// [`Launch::memo`], tolerating an uncertified (`None`) signature.
    pub fn memo_opt(mut self, memo: Option<(&'a WaveMemo, LaunchSig)>) -> Launch<'a, K> {
        self.memo = memo;
        self
    }

    /// Restrict functional execution to the given CTA subset — a
    /// certified shard's grid. Only the listed CTAs run (in parallel, as
    /// usual), and only their buffered writes are applied, in subset
    /// order. Functional mode only; shard soundness is established by a
    /// shardprove `FootprintCertificate`, not by this method.
    pub fn ctas(mut self, ctas: Vec<usize>) -> Launch<'a, K> {
        self.ctas = Some(ctas);
        self
    }

    /// Run the fp64 shadow twin alongside functional execution and
    /// return per-site error observations in [`LaunchOutput::shadow`].
    /// Forces functional execution; the mode is ignored.
    pub fn shadow(mut self) -> Launch<'a, K> {
        self.shadow = true;
        self
    }

    /// Which engine executes a functional launch. [`Backend::Native`]
    /// only applies to plain functional runs — performance simulation,
    /// shadow execution and CTA-subset launches need the warp model and
    /// always simulate, as does a kernel without a native lowering.
    pub fn backend(mut self, backend: Backend) -> Launch<'a, K> {
        self.backend = backend;
        self
    }

    /// Execute the launch.
    pub fn run(self) -> LaunchOutput {
        let lc = self.kernel.launch_config();
        assert!(lc.grid > 0, "empty grid");
        if let Some(ctas) = &self.ctas {
            assert!(
                self.mode == Mode::Functional && !self.shadow,
                "CTA-subset launches are functional-only"
            );
            assert!(
                ctas.iter().all(|&c| c < lc.grid),
                "CTA subset exceeds the grid"
            );
        }
        if self.shadow {
            let shadow = run_shadow(self.mem, self.kernel, &lc);
            return LaunchOutput {
                profile: None,
                shadow,
                native: false,
            };
        }
        match self.mode {
            Mode::Functional => {
                let native = self.backend == Backend::Native
                    && self.ctas.is_none()
                    && self.kernel.run_native(&mut crate::NativeCtx::new(self.mem));
                if !native {
                    run_functional(self.mem, self.kernel, &lc, self.ctas.as_deref());
                }
                LaunchOutput {
                    profile: None,
                    shadow: Vec::new(),
                    native,
                }
            }
            Mode::Performance => {
                let default_gpu;
                let cfg = match self.gpu {
                    Some(cfg) => cfg,
                    None => {
                        default_gpu = GpuConfig::default();
                        &default_gpu
                    }
                };
                let sink = match self.sink {
                    Some(sink) => sink,
                    None => TraceSink::noop(),
                };
                let profile = simulate(
                    cfg,
                    self.mem,
                    self.kernel,
                    &lc,
                    sink,
                    self.memo,
                    self.timing,
                );
                LaunchOutput {
                    profile: Some(profile),
                    shadow: Vec::new(),
                    native: false,
                }
            }
        }
    }
}

fn run_functional<K: KernelSpec + ?Sized>(
    mem: &mut MemPool,
    kernel: &K,
    lc: &LaunchConfig,
    ctas: Option<&[usize]>,
) {
    let ids: Vec<usize> = match ctas {
        Some(subset) => subset.to_vec(),
        None => (0..lc.grid).collect(),
    };
    let results: Vec<_> = ids
        .into_par_iter()
        .map(|cta_id| {
            let mut cta = CtaCtx::new(
                cta_id,
                Mode::Functional,
                mem,
                lc.warps_per_cta,
                lc.smem_elems,
                lc.smem_elem_bytes,
            );
            kernel.run_cta(&mut cta);
            let (_, writes) = cta.finish();
            writes
        })
        .collect();
    for writes in results {
        for (buf, idx, v) in writes {
            mem.write(buf, idx as usize, v);
        }
    }
}

fn run_shadow<K: KernelSpec + ?Sized>(
    mem: &mut MemPool,
    kernel: &K,
    lc: &LaunchConfig,
) -> Vec<ShadowObs> {
    let results: Vec<_> = (0..lc.grid)
        .into_par_iter()
        .map(|cta_id| {
            let mut cta = CtaCtx::new(
                cta_id,
                Mode::Functional,
                mem,
                lc.warps_per_cta,
                lc.smem_elems,
                lc.smem_elem_bytes,
            );
            cta.shadow_exec = true;
            kernel.run_cta(&mut cta);
            let obs = cta.take_shadow_obs();
            let (_, writes) = cta.finish();
            (writes, obs)
        })
        .collect();
    let mut folded: Vec<ShadowObs> = Vec::new();
    for (writes, obs) in results {
        for (buf, idx, v) in writes {
            mem.write(buf, idx as usize, v);
        }
        for o in obs {
            match folded.iter_mut().find(|f| f.pc == o.pc) {
                Some(f) => f.merge(&o),
                None => folded.push(o),
            }
        }
    }
    folded.sort_by_key(|o| o.pc);
    folded
}

/// Memo key for one SM wave (or, with the full sample list, one launch):
/// the certified launch signature plus every other input the per-wave
/// timing phase consumes — machine config, launch geometry, the L1
/// carve-out, and the sampled CTA ids.
fn wave_key(
    sig: LaunchSig,
    cfg: &GpuConfig,
    lc: &LaunchConfig,
    l1_cache_bytes: usize,
    ctas: &[usize],
) -> crate::sig::Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_fingerprint(sig.0);
    h.write_u64(cfg.config_hash());
    h.write_u64(lc.grid as u64);
    h.write_u64(lc.warps_per_cta as u64);
    h.write_u64(lc.regs_per_thread as u64);
    h.write_u64(lc.smem_elems as u64);
    h.write_u64(lc.smem_elem_bytes);
    h.write_u64(lc.static_instrs as u64);
    h.write_u64(l1_cache_bytes as u64);
    h.write_u64(ctas.len() as u64);
    for &c in ctas {
        h.write_u64(c as u64);
    }
    h.finish()
}

fn simulate<K: KernelSpec + ?Sized>(
    cfg: &GpuConfig,
    mem: &MemPool,
    kernel: &K,
    lc: &LaunchConfig,
    sink: &TraceSink,
    memo: Option<(&WaveMemo, LaunchSig)>,
    timing: TimingMode,
) -> KernelProfile {
    let ctas_per_sm = lc.ctas_per_sm(cfg);

    // `VECSPARSE_AUDIT=n` also guards the event scheduler: every n-th
    // simulated wave (by canonical index, so selection is independent of
    // worker count) is re-timed with the tick scheduler and must match
    // bit for bit.
    let audit_every = match memo {
        Some((m, _)) => m.audit_every(),
        None => WaveMemo::env_audit_period(),
    };

    // How many CTAs would be resident machine-wide in one wave, and how
    // many waves the grid takes.
    let wave_ctas_machine = (ctas_per_sm * cfg.num_sms).min(lc.grid);
    let total_waves = lc.grid.div_ceil(wave_ctas_machine);
    // Residency actually achieved in a (possibly partial) wave.
    let resident_per_sm = ctas_per_sm.min(lc.grid.div_ceil(cfg.num_sms)).max(1);

    // Sample CTAs evenly: sim_sms SMs × resident CTAs × sim_waves waves.
    let sim_waves = cfg.sim_waves.min(total_waves).max(1);
    let want = (cfg.sim_sms * resident_per_sm * sim_waves).min(lc.grid);
    let stride = (lc.grid as f64 / want as f64).max(1.0);
    let sample_ids: Vec<usize> = (0..want)
        .map(|i| ((i as f64 * stride) as usize).min(lc.grid - 1))
        .collect();

    let smem_bytes = lc.smem_elems as u64 * lc.smem_elem_bytes;
    let l1_cache_bytes = (cfg.l1_bytes as u64)
        .saturating_sub(smem_bytes.min(cfg.max_smem_per_sm as u64))
        .max(16 * 1024) as usize;
    // Round down to a valid geometry.
    let l1_cache_bytes = (l1_cache_bytes / (128 * cfg.l1_ways)) * (128 * cfg.l1_ways);

    let tracing = sink.is_enabled();

    // Launch-level fast path: a certified launch whose whole signature
    // class was simulated before replays the cached profile outright
    // (skipped while tracing — the profile cache carries no telemetry —
    // and while auditing, so audits reach the wave level).
    let launch_key = memo.map(|(_, sig)| wave_key(sig, cfg, lc, l1_cache_bytes, &sample_ids));
    if let (Some((m, _)), Some(key)) = (memo, launch_key) {
        if let Some(profile) = m.probe_launch(key, tracing) {
            return profile;
        }
    }

    let wave_ranges: Vec<(usize, usize)> = (0..sample_ids.len())
        .step_by(resident_per_sm)
        .map(|start| (start, (start + resident_per_sm).min(sample_ids.len())))
        .collect();

    // Phase 0 — memo probes, sequential and in canonical wave order, so
    // audit selection (every n-th memoized wave under VECSPARSE_AUDIT)
    // is independent of worker count.
    let decisions: Vec<(crate::sig::Fingerprint, WaveDecision)> = wave_ranges
        .iter()
        .map(|&(start, end)| match memo {
            Some((m, sig)) => {
                let key = wave_key(sig, cfg, lc, l1_cache_bytes, &sample_ids[start..end]);
                (key, m.probe(key, tracing))
            }
            None => (crate::sig::Fingerprint::default(), WaveDecision::Fresh),
        })
        .collect();

    // Phase 1 — trace generation, in parallel (each CTA is independent).
    // Only CTAs belonging to waves that actually simulate (fresh or
    // audited) generate traces; replayed waves skip the kernel body
    // entirely — that skip is where the memoized speedup comes from.
    let mut cta_needs_trace = vec![false; sample_ids.len()];
    for (&(start, end), (_, decision)) in wave_ranges.iter().zip(&decisions) {
        if !matches!(decision, WaveDecision::Replay(_)) {
            for slot in &mut cta_needs_trace[start..end] {
                *slot = true;
            }
        }
    }
    let traces: Vec<Option<Vec<WarpTrace>>> = (0..sample_ids.len())
        .into_par_iter()
        .map(|i| {
            cta_needs_trace[i].then(|| {
                let mut cta = CtaCtx::new(
                    sample_ids[i],
                    Mode::Performance,
                    mem,
                    lc.warps_per_cta,
                    lc.smem_elems,
                    lc.smem_elem_bytes,
                );
                cta.reserve_traces(lc.static_instrs as usize);
                kernel.run_cta(&mut cta);
                let (t, _) = cta.finish();
                t
            })
        })
        .collect();

    // Telemetry: claim a process-track group for this launch and name
    // one thread track per scheduler. Waves run back to back on the
    // timeline starting at the current virtual time.
    let launch_base = sink.now();
    let pid = if tracing { sink.next_pid() } else { 0 };
    if tracing {
        sink.name_process(pid, kernel.name());
        sink.name_thread(Track { pid, tid: 0 }, "kernel");
        for s in 0..cfg.schedulers_per_sm {
            sink.name_thread(
                Track {
                    pid,
                    tid: s as u32 + 1,
                },
                format!("SM scheduler {s}"),
            );
        }
    }

    // Phase 2 — per-wave timing, in parallel. Each simulated wave owns a
    // fresh L1 (each wave runs on "its own" SM slot, as before) and a
    // private *recording* L2: latency decisions come from the wave-local
    // cache (cold at wave start, so timing is independent of wave order
    // and of every other wave), while the wave's L2-bound sector traffic
    // is captured in an op log. Telemetry, when on, is buffered into a
    // wave-local shard at wave-relative ticks. The cold-start discipline
    // is also what makes the artifacts *replayable*: a wave's outputs
    // depend only on (config, L1 geometry, its own traces), so memoized
    // waves reuse the cached [`WaveArtifacts`] verbatim, and audited
    // waves re-simulate and must match them bit for bit.
    let wave_sims: Vec<Arc<WaveArtifacts>> = (0..wave_ranges.len())
        .into_par_iter()
        .map(|w| {
            let (start, end) = wave_ranges[w];
            let (key, decision) = &decisions[w];
            if let WaveDecision::Replay(cached) = decision {
                return cached.clone();
            }
            let wave: Vec<&[WarpTrace]> = traces[start..end]
                .iter()
                .map(|t| t.as_deref().expect("simulated wave has traces"))
                .collect();
            let mut l1 = SectorCache::new(l1_cache_bytes.max(128 * cfg.l1_ways), cfg.l1_ways);
            let mut l2 = RecordingL2::new(cfg.l2_bytes, cfg.l2_ways);
            let obs = tracing.then(WaveObs::new);
            let result = match timing {
                TimingMode::Tick => simulate_wave(cfg, &wave, &mut l1, &mut l2, obs.as_ref()),
                TimingMode::Event => {
                    simulate_wave_event(cfg, &wave, &mut l1, &mut l2, obs.as_ref())
                }
            };
            let fresh = Arc::new(WaveArtifacts {
                result,
                ctas: wave.len(),
                l1_stats: l1.stats,
                l2_ops: l2.into_ops(),
                shard: obs.map(WaveObs::into_shard),
            });
            if timing == TimingMode::Event && audit_every > 0 && (w as u64 + 1) % audit_every == 0 {
                let mut l1t = SectorCache::new(l1_cache_bytes.max(128 * cfg.l1_ways), cfg.l1_ways);
                let mut l2t = RecordingL2::new(cfg.l2_bytes, cfg.l2_ways);
                let tick = simulate_wave(cfg, &wave, &mut l1t, &mut l2t, None);
                assert!(
                    fresh.result == tick
                        && fresh.l1_stats == l1t.stats
                        && fresh.l2_ops == l2t.into_ops(),
                    "VECSPARSE_AUDIT: event-timed SM wave {w} of kernel {:?} is not \
                     bit-identical to its tick re-simulation",
                    kernel.name()
                );
            }
            match (decision, memo) {
                (WaveDecision::Audit(cached), _) => {
                    WaveMemo::assert_audit_identical(cached, &fresh, &kernel.name());
                    cached.clone()
                }
                (WaveDecision::Fresh, Some((m, _))) => {
                    m.insert_wave(*key, fresh.clone());
                    fresh
                }
                _ => fresh,
            }
        })
        .collect();

    // Phase 3 — sequential replay and merge, in canonical wave order.
    // The shared L2 sees every wave's recorded sector traffic in the
    // same order a sequential simulation would apply it, so the
    // device-wide CacheStats (and the DRAM/L2 bandwidth bounds below)
    // retain cross-wave reuse; telemetry shards are rebased onto the
    // sink back to back, so the exported trace has one deterministic
    // layout at any thread count.
    let mut l2 = SectorCache::new(cfg.l2_bytes, cfg.l2_ways);
    let mut l1_stats = CacheStats::default();
    let mut stalls = StallBreakdown::default();
    let mut instrs = InstrCounts::default();
    let mut pipe_busy: Vec<(crate::trace::Pipe, u64)> = Vec::new();
    let mut wave_cycles: Vec<u64> = Vec::new();
    let mut pc_issues: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for (wave_idx, ws) in wave_sims.iter().enumerate() {
        let r = &ws.result;
        replay_l2(&ws.l2_ops, &mut l2);
        let wave_base = launch_base + wave_cycles.iter().sum::<u64>();
        if tracing {
            if let Some(shard) = &ws.shard {
                sink.merge_shard(pid, wave_base, shard.clone());
            }
            sink.span_at(
                Track { pid, tid: 0 },
                format!("wave {wave_idx}"),
                "wave",
                wave_base,
                r.cycles.max(1),
                vec![("ctas", ArgValue::U64(ws.ctas as u64))],
            );
        }
        wave_cycles.push(r.cycles);
        stalls.merge(&r.stalls);
        instrs.merge(&r.instrs);
        for (pc, n) in &r.pc_issues {
            *pc_issues.entry(*pc).or_insert(0) += n;
        }
        l1_stats.merge(&ws.l1_stats);
        if pipe_busy.is_empty() {
            pipe_busy = r.pipe_busy.clone();
        } else {
            for &(p, b) in &r.pipe_busy {
                if let Some(e) = pipe_busy.iter_mut().find(|(q, _)| *q == p) {
                    e.1 += b;
                }
            }
        }
    }

    let sim_ctas = sample_ids.len().max(1);
    let scale = lc.grid as f64 / sim_ctas as f64;

    // Issue-model cycles: average SM-wave time × waves the grid needs.
    let avg_wave = wave_cycles.iter().sum::<u64>() as f64 / wave_cycles.len().max(1) as f64;
    let sm_waves_total = lc.grid as f64 / (cfg.num_sms as f64 * resident_per_sm as f64);
    let issue_cycles = avg_wave * sm_waves_total.max(1.0);

    // Bandwidth lower bounds from extrapolated traffic.
    let l1s = l1_stats.scaled(scale);
    let l2s = l2.stats.scaled(scale);
    let bytes_l2_l1 = (l1s.sectors_missed + l1s.sectors_stored) * 32;
    let dram_bytes = (l2s.sectors_missed + l2s.sectors_stored) * 32;
    let l2_cycles = bytes_l2_l1 as f64 / cfg.l2_bytes_per_cycle;
    let dram_cycles = dram_bytes as f64 / cfg.dram_bytes_per_cycle;

    let cycles = issue_cycles.max(l2_cycles).max(dram_cycles);

    // Pipe utilisation: busy cycles per scheduler over simulated time.
    let sim_time: f64 = wave_cycles.iter().sum::<u64>() as f64;
    let mut pipes: Vec<PipeUtil> = pipe_busy
        .iter()
        .map(|&(p, b)| PipeUtil {
            pipe: p,
            utilisation: if sim_time > 0.0 {
                (b as f64 / (sim_time * cfg.schedulers_per_sm as f64)).min(1.0)
            } else {
                0.0
            },
        })
        .collect();
    pipes.sort_by(|a, b| b.utilisation.partial_cmp(&a.utilisation).unwrap());

    let warps_per_scheduler =
        resident_per_sm as f64 * lc.warps_per_cta as f64 / cfg.schedulers_per_sm as f64;

    // Hottest static instructions, labelled through the kernel's program
    // listing when it kept one.
    let mut hot: Vec<(u32, u64)> = pc_issues.into_iter().collect();
    hot.sort_by_key(|&(pc, n)| (std::cmp::Reverse(n), pc));
    let hot_pcs: Vec<HotPc> = hot
        .into_iter()
        .take(8)
        .map(|(pc, n)| HotPc {
            pc,
            issued: (n as f64 * scale).round() as u64,
            label: kernel
                .program()
                .map_or_else(|| format!("pc{pc}"), |p| p.describe(pc)),
        })
        .collect();

    let profile = KernelProfile {
        name: kernel.name(),
        grid: lc.grid,
        ctas_per_sm,
        warps_per_scheduler,
        regs_per_thread: lc.regs_per_thread,
        static_instrs: lc.static_instrs,
        cycles,
        issue_cycles,
        dram_cycles,
        l2_cycles,
        instrs: instrs.scaled(scale),
        stalls,
        l1: l1s,
        l2: l2s,
        pipes,
        hot_pcs,
    };

    if let (Some((m, _)), Some(key)) = (memo, launch_key) {
        if !tracing {
            m.insert_launch(key, profile.clone());
        }
    }

    if tracing {
        // Kernel-wide span over the simulated waves, carrying the
        // extrapolated estimate and the roofline point as args, plus a
        // roofline counter sample for the counter-track view.
        let sim_time_ticks = wave_cycles.iter().sum::<u64>().max(1);
        let roof = profile.roofline();
        sink.span_at(
            Track { pid, tid: 0 },
            kernel.name(),
            "kernel",
            launch_base,
            sim_time_ticks,
            vec![
                ("grid", ArgValue::U64(lc.grid as u64)),
                ("cycles", ArgValue::F64(cycles)),
                ("issue_cycles", ArgValue::F64(issue_cycles)),
                ("dram_cycles", ArgValue::F64(dram_cycles)),
                ("scale", ArgValue::F64(scale)),
                ("flops", ArgValue::U64(roof.flops)),
                ("dram_bytes", ArgValue::U64(roof.bytes)),
                ("intensity", ArgValue::F64(roof.intensity())),
            ],
        );
        sink.advance_to(launch_base + sim_time_ticks);
        sink.counter(
            Track { pid, tid: 0 },
            "roofline",
            "kernel",
            vec![
                ("flops", ArgValue::U64(roof.flops)),
                ("dram_bytes", ArgValue::U64(roof.bytes)),
            ],
        );
    }

    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::ElemWidth;
    use crate::program::Program;
    use crate::warp::NO_LANES;
    use crate::BufferId;

    /// A toy kernel: each CTA's single warp loads 32 elements and stores
    /// them doubled.
    struct DoubleKernel {
        input: BufferId,
        output: BufferId,
        grid: usize,
        sites: (
            crate::program::Site,
            crate::program::Site,
            crate::program::Site,
        ),
        static_len: u32,
    }

    impl DoubleKernel {
        fn new(input: BufferId, output: BufferId, grid: usize) -> Self {
            let mut p = Program::new();
            let s = (p.site("ldg", 0), p.site("fma", 0), p.site("stg", 0));
            DoubleKernel {
                input,
                output,
                grid,
                sites: s,
                static_len: p.static_len(),
            }
        }
    }

    impl KernelSpec for DoubleKernel {
        fn name(&self) -> String {
            "double".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid: self.grid,
                warps_per_cta: 1,
                regs_per_thread: 32,
                smem_elems: 0,
                smem_elem_bytes: 2,
                static_instrs: self.static_len,
            }
        }

        fn run_cta(&self, cta: &mut CtaCtx<'_>) {
            let cta_id = cta.cta_id;
            let mut w = cta.warp(0);
            let mut offs = NO_LANES;
            for (l, o) in offs.iter_mut().enumerate() {
                *o = (cta_id * 32 + l) as u32;
            }
            let v = w.ldg(self.sites.0, self.input, &offs, 1, &[]);
            let t = w.math(self.sites.1, crate::trace::InstrKind::Ffma, 1, &[v.tok()]);
            let mut out = crate::wvec::WVec::zeros(1);
            for l in 0..32 {
                out.set(l, 0, v.get(l, 0) * 2.0);
            }
            out.set_tok(t);
            w.stg(self.sites.2, self.output, &offs, &out, &[t]);
        }

        fn run_native(&self, ctx: &mut crate::NativeCtx<'_>) -> bool {
            let ([input], out) = ctx.split([self.input], self.output);
            for (o, &x) in out.iter_mut().zip(input).take(self.grid * 32) {
                *o = x * 2.0;
            }
            true
        }
    }

    #[test]
    fn functional_launch_computes_values() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_init(ElemWidth::B32, (0..128).map(|i| i as f32).collect());
        let output = mem.alloc_zeroed(ElemWidth::B32, 128);
        let k = DoubleKernel::new(input, output, 4);
        let out = Launch::new(&mut mem, &k).gpu(&cfg).run();
        assert!(out.profile.is_none());
        assert!(out.shadow.is_empty());
        for i in 0..128 {
            assert_eq!(mem.read(output, i), 2.0 * i as f32, "index {i}");
        }
    }

    #[test]
    fn native_backend_matches_simulated_and_perf_still_simulates() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_init(ElemWidth::B32, (0..128).map(|i| i as f32 - 7.5).collect());
        let sim_out = mem.alloc_zeroed(ElemWidth::B32, 128);
        let nat_out = mem.alloc_zeroed(ElemWidth::B32, 128);
        let ks = DoubleKernel::new(input, sim_out, 4);
        Launch::new(&mut mem, &ks).gpu(&cfg).run();
        let kn = DoubleKernel::new(input, nat_out, 4);
        Launch::new(&mut mem, &kn)
            .gpu(&cfg)
            .backend(Backend::Native)
            .run();
        for i in 0..128 {
            assert_eq!(
                mem.read(sim_out, i).to_bits(),
                mem.read(nat_out, i).to_bits(),
                "index {i}"
            );
        }
        // A performance launch ignores the backend: it must simulate.
        let out = Launch::new(&mut mem, &kn)
            .gpu(&cfg)
            .performance()
            .backend(Backend::Native)
            .run();
        assert!(out.profile.is_some());
    }

    /// A kernel without a native lowering silently falls back to the
    /// simulated functional path under `Backend::Native`.
    #[test]
    fn native_backend_falls_back_without_lowering() {
        struct NoNative(DoubleKernel);
        impl KernelSpec for NoNative {
            fn name(&self) -> String {
                self.0.name()
            }
            fn launch_config(&self) -> LaunchConfig {
                self.0.launch_config()
            }
            fn run_cta(&self, cta: &mut CtaCtx<'_>) {
                self.0.run_cta(cta)
            }
        }
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_init(ElemWidth::B32, (0..64).map(|i| i as f32).collect());
        let output = mem.alloc_zeroed(ElemWidth::B32, 64);
        let k = NoNative(DoubleKernel::new(input, output, 2));
        Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .backend(Backend::Native)
            .run();
        for i in 0..64 {
            assert_eq!(mem.read(output, i), 2.0 * i as f32, "index {i}");
        }
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [Backend::Simulated, Backend::Native] {
            assert_eq!(b.label().parse(), Ok(b));
        }
        assert!("cuda".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Simulated);
    }

    #[test]
    fn performance_launch_profiles() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 32 * 1024);
        let output = mem.alloc_ghost(ElemWidth::B32, 32 * 1024);
        let k = DoubleKernel::new(input, output, 1024);
        let out = Launch::new(&mut mem, &k).gpu(&cfg).performance().run();
        let p = out.profile.unwrap();
        assert_eq!(p.grid, 1024);
        assert!(p.cycles > 0.0);
        // One LDG + one FFMA + one STG per CTA, grid-wide.
        assert_eq!(p.instrs.ldg, 1024);
        assert_eq!(p.instrs.ffma, 1024);
        assert_eq!(p.instrs.stg, 1024);
        // 32 lanes × 4B consecutive = 4 sectors per request.
        assert!((p.l1.sectors_per_request() - 4.0).abs() < 0.5);
    }

    #[test]
    fn occupancy_limits_apply() {
        let cfg = GpuConfig::default();
        let lc = LaunchConfig {
            grid: 10_000,
            warps_per_cta: 1,
            regs_per_thread: 255,
            smem_elems: 0,
            smem_elem_bytes: 2,
            static_instrs: 100,
        };
        // 255 regs × 32 threads = 8160 regs per CTA → 65536/8160 = 8.
        assert_eq!(lc.ctas_per_sm(&cfg), 8);

        let lc2 = LaunchConfig {
            regs_per_thread: 32,
            ..lc.clone()
        };
        // Warp capacity: 64 warps / 1 = 64, CTA cap 32 wins.
        assert_eq!(lc2.ctas_per_sm(&cfg), 32);

        let lc3 = LaunchConfig {
            smem_elems: 24 * 1024,
            smem_elem_bytes: 2,
            regs_per_thread: 32,
            ..lc
        };
        // 48 KiB shared per CTA → 96/48 = 2 CTAs.
        assert_eq!(lc3.ctas_per_sm(&cfg), 2);
    }

    #[test]
    fn traced_launch_matches_instr_counts_and_names_scheduler_tracks() {
        // num_sms=1 with grid=4 single-warp CTAs: every CTA is sampled,
        // so `scale == 1` and the grid-wide counters equal the recorded
        // per-instruction events exactly.
        let cfg = GpuConfig {
            num_sms: 1,
            sim_sms: 1,
            sim_waves: 2,
            ..GpuConfig::default()
        };
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 1024);
        let output = mem.alloc_ghost(ElemWidth::B32, 1024);
        let k = DoubleKernel::new(input, output, 4);
        let sink = TraceSink::enabled(1 << 16);
        let out = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .traced(&sink)
            .run();
        let p = out.profile.unwrap();

        let events = sink.events();
        let issues = events.iter().filter(|e| e.cat == "issue").count() as u64;
        assert_eq!(issues, p.instrs.total(), "one issue span per instruction");

        // One named thread track per scheduler, plus the kernel track.
        let threads = sink.thread_names();
        let sched_tracks = threads
            .iter()
            .filter(|(_, n)| n.starts_with("SM scheduler"))
            .count();
        assert_eq!(sched_tracks, cfg.schedulers_per_sm);
        assert!(threads.iter().any(|(t, n)| t.tid == 0 && n == "kernel"));

        // The kernel-wide span exists, spans the waves, and carries the
        // roofline args.
        let kspan = events
            .iter()
            .find(|e| e.cat == "kernel" && e.name == "double")
            .expect("kernel span");
        assert!(kspan.args.iter().any(|(k, _)| *k == "flops"));
        assert!(kspan.args.iter().any(|(k, _)| *k == "intensity"));
        for e in &events {
            assert!(
                e.ts >= kspan.ts && e.ts + e.dur <= kspan.ts + kspan.dur,
                "event {} outside kernel span",
                e.name
            );
        }
        // The launch advanced the virtual clock over the simulated waves.
        assert_eq!(sink.now(), kspan.ts + kspan.dur);
    }

    #[test]
    fn disabled_sink_cycles_are_bit_identical() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let output = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let k = DoubleKernel::new(input, output, 1024);
        let plain = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .run()
            .profile
            .unwrap();
        let disabled = TraceSink::disabled();
        let traced_off = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .traced(&disabled)
            .run()
            .profile
            .unwrap();
        let enabled = TraceSink::enabled(1 << 16);
        let traced_on = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .traced(&enabled)
            .run()
            .profile
            .unwrap();
        // Recording never feeds back into the timing model: identical
        // cycle estimates whether the sink is absent, disabled or live.
        assert_eq!(plain.cycles.to_bits(), traced_off.cycles.to_bits());
        assert_eq!(plain.cycles.to_bits(), traced_on.cycles.to_bits());
        assert_eq!(plain.instrs, traced_on.instrs);
        assert!(disabled.events().is_empty());
        assert!(!enabled.events().is_empty());
    }

    #[test]
    fn event_timing_profile_is_bit_identical() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let output = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let k = DoubleKernel::new(input, output, 1024);
        let tick = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .timing(TimingMode::Tick)
            .run()
            .profile
            .unwrap();
        let event = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .run()
            .profile
            .unwrap();
        assert_eq!(tick.cycles.to_bits(), event.cycles.to_bits());
        assert_eq!(tick.instrs, event.instrs);
        assert_eq!(tick.stalls, event.stalls);
        assert_eq!(tick.hot_pcs, event.hot_pcs);
    }

    #[test]
    fn event_audit_cross_checks_every_wave() {
        // An audit period of 1 re-times every event wave with the tick
        // scheduler inside the launch itself; any divergence panics.
        let cfg = GpuConfig::small();
        let memo = WaveMemo::with_audit(1);
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let output = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let k = DoubleKernel::new(input, output, 512);
        let audited = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .memo(&memo, LaunchSig(crate::sig::Fingerprint::default()))
            .run()
            .profile
            .unwrap();
        let plain = Launch::new(&mut mem, &k)
            .gpu(&cfg)
            .performance()
            .run()
            .profile
            .unwrap();
        assert_eq!(audited.cycles.to_bits(), plain.cycles.to_bits());
    }

    #[test]
    fn bigger_grid_costs_more_cycles() {
        let cfg = GpuConfig::small();
        let mut mem = MemPool::new();
        let input = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let output = mem.alloc_ghost(ElemWidth::B32, 1 << 20);
        let small = DoubleKernel::new(input, output, 256);
        let big = DoubleKernel::new(input, output, 4096);
        let ps = Launch::new(&mut mem, &small)
            .gpu(&cfg)
            .performance()
            .run()
            .profile
            .unwrap();
        let pb = Launch::new(&mut mem, &big)
            .gpu(&cfg)
            .performance()
            .run()
            .profile
            .unwrap();
        assert!(
            pb.cycles > 2.0 * ps.cycles,
            "{} vs {}",
            pb.cycles,
            ps.cycles
        );
    }
}
