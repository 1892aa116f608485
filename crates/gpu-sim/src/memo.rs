//! Certified wave memoization.
//!
//! The performance simulator's phase-split pipeline (see `launch.rs`)
//! makes every per-wave timing artifact a pure function of (machine
//! config, L1 geometry, the wave's traces): each wave is timed against a
//! cold private L1 and a recording L2, so no state leaks between waves.
//! When a kernel additionally carries a wave-equivalence certificate —
//! a static proof (computed by `vecsparse-certify`) that its
//! performance-mode traces are a pure function of (program, operand
//! structure, pool layout, CTA id), never of operand *values* — the
//! traces themselves are determined by a small structural signature.
//! Composing the two: the whole wave artifact is determined by
//! [`LaunchSig`] + machine config + launch geometry + the wave's CTA
//! ids, *without generating any traces*. That is the key this module
//! caches under, which is what lets a cache hit skip both trace
//! generation and cycle-accurate scheduling.
//!
//! Soundness backstops:
//!
//! * The signature is a 128-bit dual-stream FNV fingerprint
//!   ([`crate::sig`]); both lanes must collide for two distinct wave
//!   classes to alias.
//! * **Audit mode** (`VECSPARSE_AUDIT=n`): every n-th memoized wave is
//!   re-simulated from scratch and asserted bit-identical to its cached
//!   artifact. A mismatch is not a kernel bug — it is a soundness bug
//!   in the prover or the memo key, and it fails loudly (panics), the
//!   same contract `vecsparse-precision` applies to its certificates.
//!
//! Audit selection counts memoized waves in the sequential probe phase
//! (launch.rs phase 0), so which waves get audited is independent of
//! worker count — the determinism suite holds with auditing on.

use std::collections::HashMap; // lint: hash-ok — keyed lookup/insert only, never iterated.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::{CacheStats, L2Op};
use crate::profile::KernelProfile;
use crate::sched::WaveResult;
use crate::sig::Fingerprint;
use vecsparse_telemetry::TraceShard;

/// A certified launch signature: the structural identity of a launch,
/// produced by composing a `vecsparse-certify` wave certificate with the
/// operand-structure fingerprint and pool layout. Only launches whose
/// kernel holds a `Provable` certificate may carry one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchSig(pub Fingerprint);

/// Everything phase 2 produces for one SM wave — the replayable artifact.
#[derive(Debug)]
pub struct WaveArtifacts {
    /// Timing result of the wave's discrete-event simulation.
    pub result: WaveResult,
    /// CTAs resident in the wave.
    pub ctas: usize,
    /// The wave-private L1's counters.
    pub l1_stats: CacheStats,
    /// Recorded L2-bound sector traffic, replayed into the shared L2 in
    /// canonical wave order by phase 3.
    pub l2_ops: Vec<L2Op>,
    /// Wave-relative telemetry spans, when the wave was simulated under
    /// an enabled sink. `None` entries are upgraded (re-simulated) the
    /// first time a traced launch needs them.
    pub shard: Option<TraceShard>,
}

/// What the probe phase decided for one wave.
pub enum WaveDecision {
    /// No usable cache entry: simulate, then insert.
    Fresh,
    /// Replay the cached artifact.
    Replay(Arc<WaveArtifacts>),
    /// Replay, but also re-simulate and assert bit-identity (audit mode).
    Audit(Arc<WaveArtifacts>),
}

/// Memoization counters, surfaced in `Report` and the sweep JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoStats {
    /// Wave probes answered from the cache.
    pub wave_hits: u64,
    /// Wave probes that had to simulate (includes first-seen waves and
    /// shard upgrades).
    pub wave_misses: u64,
    /// Memoized waves re-simulated and verified by audit mode.
    pub audits: u64,
    /// Whole launches answered from the launch-level profile cache
    /// (tracing off, audit off).
    pub launch_hits: u64,
    /// Launch-level probes that missed.
    pub launch_misses: u64,
    /// Distinct wave classes resident in the cache.
    pub wave_entries: u64,
}

impl MemoStats {
    /// Fold another snapshot into this one. `vecsparse-serve` shards one
    /// memoizer per cache shard and merges the shard counters into a
    /// fleet-wide view; `wave_entries` sums because shards never share
    /// entries.
    pub fn absorb(&mut self, other: &MemoStats) {
        self.wave_hits += other.wave_hits;
        self.wave_misses += other.wave_misses;
        self.audits += other.audits;
        self.launch_hits += other.launch_hits;
        self.launch_misses += other.launch_misses;
        self.wave_entries += other.wave_entries;
    }

    /// Hit fraction over all wave + launch probes (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.wave_hits + self.launch_hits;
        let total = hits + self.wave_misses + self.launch_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The wave-artifact cache. One per engine context; shared by every plan
/// the context builds. Grows monotonically (entries are never evicted —
/// a sweep's working set is bounded by its distinct wave classes).
pub struct WaveMemo {
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    waves: Mutex<HashMap<Fingerprint, Arc<WaveArtifacts>>>,
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    launches: Mutex<HashMap<Fingerprint, KernelProfile>>,
    /// Audit period: re-simulate every n-th memoized wave. 0 = off.
    audit_every: u64,
    /// Memoized-wave counter driving audit selection (probe order).
    audit_clock: AtomicU64,
    wave_hits: AtomicU64,
    wave_misses: AtomicU64,
    audits: AtomicU64,
    launch_hits: AtomicU64,
    launch_misses: AtomicU64,
}

impl Default for WaveMemo {
    fn default() -> Self {
        WaveMemo::new()
    }
}

impl WaveMemo {
    /// A memo with the audit period taken from `VECSPARSE_AUDIT` (unset,
    /// empty, `0`, or unparsable → auditing off).
    pub fn new() -> Self {
        WaveMemo::with_audit(WaveMemo::env_audit_period())
    }

    /// The `VECSPARSE_AUDIT` period from the environment (0 = off). Also
    /// consulted by memo-less event-timed launches, which cross-check
    /// every n-th wave against a tick re-simulation at the same period.
    pub fn env_audit_period() -> u64 {
        std::env::var("VECSPARSE_AUDIT")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    }

    /// A memo auditing every `audit_every`-th memoized wave (0 = off).
    pub fn with_audit(audit_every: u64) -> Self {
        WaveMemo {
            waves: Mutex::new(HashMap::new()),    // lint: hash-ok
            launches: Mutex::new(HashMap::new()), // lint: hash-ok
            audit_every,
            audit_clock: AtomicU64::new(0),
            wave_hits: AtomicU64::new(0),
            wave_misses: AtomicU64::new(0),
            audits: AtomicU64::new(0),
            launch_hits: AtomicU64::new(0),
            launch_misses: AtomicU64::new(0),
        }
    }

    /// The configured audit period (0 = off).
    pub fn audit_every(&self) -> u64 {
        self.audit_every
    }

    /// Probe the wave cache. Called sequentially, in canonical wave
    /// order, from launch phase 0 — which is what makes audit selection
    /// (and therefore the whole artifact stream) independent of worker
    /// count. `need_shard` marks a traced launch: an entry without a
    /// telemetry shard cannot serve it and is treated as a miss so the
    /// re-simulation upgrades the entry.
    pub fn probe(&self, key: Fingerprint, need_shard: bool) -> WaveDecision {
        let entry = {
            let waves = self.waves.lock().unwrap();
            waves.get(&key).cloned()
        };
        match entry {
            Some(a) if !(need_shard && a.shard.is_none()) => {
                self.wave_hits.fetch_add(1, Ordering::Relaxed);
                if self.audit_every > 0 {
                    let n = self.audit_clock.fetch_add(1, Ordering::Relaxed) + 1;
                    if n % self.audit_every == 0 {
                        self.audits.fetch_add(1, Ordering::Relaxed);
                        return WaveDecision::Audit(a);
                    }
                }
                WaveDecision::Replay(a)
            }
            _ => {
                self.wave_misses.fetch_add(1, Ordering::Relaxed);
                WaveDecision::Fresh
            }
        }
    }

    /// Insert (or upgrade) a freshly simulated wave artifact.
    pub fn insert_wave(&self, key: Fingerprint, artifacts: Arc<WaveArtifacts>) {
        self.waves.lock().unwrap().insert(key, artifacts);
    }

    /// Probe the launch-level profile cache. Disabled while auditing
    /// (audits must reach the wave level) and for traced launches (the
    /// profile cache carries no telemetry).
    pub fn probe_launch(&self, key: Fingerprint, tracing: bool) -> Option<KernelProfile> {
        if tracing || self.audit_every > 0 {
            return None;
        }
        let hit = self.launches.lock().unwrap().get(&key).cloned();
        match &hit {
            Some(_) => self.launch_hits.fetch_add(1, Ordering::Relaxed),
            None => self.launch_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Record a fully simulated launch's profile.
    pub fn insert_launch(&self, key: Fingerprint, profile: KernelProfile) {
        self.launches.lock().unwrap().insert(key, profile);
    }

    /// Verify an audited wave: the re-simulated artifact must be
    /// bit-identical to the cached one.
    ///
    /// # Panics
    /// Panics on any divergence — a divergence means the wave-equivalence
    /// certificate (or the memo key built from it) is unsound, and that
    /// must never be papered over.
    pub fn assert_audit_identical(cached: &WaveArtifacts, fresh: &WaveArtifacts, kernel: &str) {
        assert!(
            cached.result == fresh.result
                && cached.ctas == fresh.ctas
                && cached.l1_stats == fresh.l1_stats
                && cached.l2_ops == fresh.l2_ops,
            "VECSPARSE_AUDIT: memoized wave for kernel {kernel:?} is not \
             bit-identical to its re-simulation — the wave-equivalence \
             certificate or memo key is unsound \
             (cached cycles {}, fresh cycles {})",
            cached.result.cycles,
            fresh.result.cycles,
        );
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            wave_hits: self.wave_hits.load(Ordering::Relaxed),
            wave_misses: self.wave_misses.load(Ordering::Relaxed),
            audits: self.audits.load(Ordering::Relaxed),
            launch_hits: self.launch_hits.load(Ordering::Relaxed),
            launch_misses: self.launch_misses.load(Ordering::Relaxed),
            wave_entries: self.waves.lock().unwrap().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_artifacts(cycles: u64) -> Arc<WaveArtifacts> {
        Arc::new(WaveArtifacts {
            result: WaveResult {
                cycles,
                ..WaveResult::default()
            },
            ctas: 1,
            l1_stats: CacheStats::default(),
            l2_ops: Vec::new(),
            shard: None,
        })
    }

    fn key(n: u64) -> Fingerprint {
        Fingerprint { lo: n, hi: !n }
    }

    #[test]
    fn probe_miss_then_hit() {
        let memo = WaveMemo::with_audit(0);
        assert!(matches!(memo.probe(key(1), false), WaveDecision::Fresh));
        memo.insert_wave(key(1), dummy_artifacts(10));
        match memo.probe(key(1), false) {
            WaveDecision::Replay(a) => assert_eq!(a.result.cycles, 10),
            _ => panic!("expected replay"),
        }
        let s = memo.stats();
        assert_eq!((s.wave_misses, s.wave_hits, s.wave_entries), (1, 1, 1));
    }

    #[test]
    fn traced_probe_rejects_shardless_entry() {
        let memo = WaveMemo::with_audit(0);
        memo.insert_wave(key(2), dummy_artifacts(10));
        assert!(matches!(memo.probe(key(2), true), WaveDecision::Fresh));
        // Untraced probes still hit it.
        assert!(matches!(memo.probe(key(2), false), WaveDecision::Replay(_)));
    }

    #[test]
    fn audit_fires_every_nth_memoized_wave() {
        let memo = WaveMemo::with_audit(2);
        memo.insert_wave(key(3), dummy_artifacts(10));
        let mut audits = 0;
        for _ in 0..6 {
            if matches!(memo.probe(key(3), false), WaveDecision::Audit(_)) {
                audits += 1;
            }
        }
        assert_eq!(audits, 3, "every 2nd hit audits");
        assert_eq!(memo.stats().audits, 3);
    }

    #[test]
    fn audit_disables_launch_cache() {
        let audited = WaveMemo::with_audit(4);
        let plain = WaveMemo::with_audit(0);
        assert!(audited.probe_launch(key(4), false).is_none());
        assert_eq!(audited.stats().launch_misses, 0, "not even counted");
        assert!(plain.probe_launch(key(4), false).is_none());
        assert_eq!(plain.stats().launch_misses, 1);
    }

    #[test]
    #[should_panic(expected = "bit-identical")]
    fn audit_mismatch_panics() {
        let a = dummy_artifacts(10);
        let b = dummy_artifacts(11);
        WaveMemo::assert_audit_identical(&a, &b, "k");
    }

    #[test]
    fn hit_rate_counts_both_levels() {
        let s = MemoStats {
            wave_hits: 3,
            wave_misses: 1,
            launch_hits: 5,
            launch_misses: 1,
            ..MemoStats::default()
        };
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
    }
}
