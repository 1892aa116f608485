//! Certified launch memoization.
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
//! Composing the two: the whole launch profile is determined by
//! [`LaunchSig`] + machine config + launch geometry + the sampled CTA
//! ids, *without generating any traces*. That is the key this module
//! caches whole profiles under, which is what lets a hit skip trace
//! generation, cycle-accurate scheduling and the L2 merge alike.
//!
//! There is one cache level. A per-wave cache would add nothing: a
//! launch's wave keys would be fixed by its launch key (the sampled CTA
//! list depends only on the grid and the machine), so every repeat is
//! answered here before any wave could be probed.
//!
//! Soundness backstops:
//!
//! * The signature is a 128-bit dual-stream FNV fingerprint
//!   ([`crate::sig`]) that absorbs one 64-bit word per step, with every
//!   variable-length part count-prefixed; both lanes must collide for
//!   two distinct launch classes to alias.
//! * **Audit mode** (`VECSPARSE_AUDIT=n`): every n-th launch hit is
//!   declined, so the launch re-simulates, and its fresh profile is
//!   asserted bit-identical to the cached one when it is inserted again.
//!   A mismatch is not a kernel bug — it is a soundness bug in the prover
//!   or the memo key, and it fails loudly (panics), the same contract
//!   `vecsparse-precision` applies to its certificates.
//!
//! Audit selection counts hits in probe order, one probe per launch.

use std::collections::hash_map::Entry;
use std::collections::HashMap; // lint: hash-ok — keyed lookup/insert only, never iterated.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::profile::KernelProfile;
use crate::sig::Fingerprint;

/// A certified launch signature: the structural identity of a launch,
/// produced by composing a `vecsparse-certify` wave certificate with the
/// operand-structure fingerprint and pool layout. Only launches whose
/// kernel holds a `Provable` certificate may carry one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchSig(pub Fingerprint);

/// Memoization counters, surfaced in `Report` and the sweep JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoStats {
    /// Always 0: there is no wave-level cache.
    pub wave_hits: u64,
    /// Always 0: there is no wave-level cache.
    pub wave_misses: u64,
    /// Launch hits declined by audit mode, re-simulated and verified.
    pub audits: u64,
    /// Whole launches answered from the profile cache.
    pub launch_hits: u64,
    /// Launch probes that missed and simulated.
    pub launch_misses: u64,
    /// Always 0: there is no wave-level cache.
    pub wave_entries: u64,
}

impl MemoStats {
    /// Fold another snapshot (say, another context's) into this one.
    pub fn absorb(&mut self, other: &MemoStats) {
        self.audits += other.audits;
        self.launch_hits += other.launch_hits;
        self.launch_misses += other.launch_misses;
    }

    /// Hit fraction over all launch probes (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.launch_hits + self.launch_misses;
        if total == 0 {
            0.0
        } else {
            self.launch_hits as f64 / total as f64
        }
    }
}

/// The launch-profile cache. One per engine context; shared by every
/// plan the context builds. Grows monotonically (entries are never
/// evicted — a sweep's working set is bounded by its distinct launch
/// classes).
pub struct WaveMemo {
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    launches: Mutex<HashMap<Fingerprint, KernelProfile>>,
    /// Audit period: decline every n-th launch hit. 0 = off.
    audit_every: u64,
    /// Launch-hit counter driving audit selection (probe order).
    audit_clock: AtomicU64,
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

    /// A memo auditing every `audit_every`-th launch hit (0 = off).
    pub fn with_audit(audit_every: u64) -> Self {
        WaveMemo {
            launches: Mutex::new(HashMap::new()), // lint: hash-ok
            audit_every,
            audit_clock: AtomicU64::new(0),
            audits: AtomicU64::new(0),
            launch_hits: AtomicU64::new(0),
            launch_misses: AtomicU64::new(0),
        }
    }

    /// The configured audit period (0 = off).
    pub fn audit_every(&self) -> u64 {
        self.audit_every
    }

    /// Probe the profile cache. A traced launch never consults it (the
    /// cache carries no telemetry) and is not counted. Under audit mode
    /// every n-th hit is declined and counted as an audit, not a hit: the
    /// caller simulates and [`WaveMemo::insert_launch`] checks the result.
    pub fn probe_launch(&self, key: Fingerprint, tracing: bool) -> Option<KernelProfile> {
        if tracing {
            return None;
        }
        let Some(profile) = self.launches().get(&key).cloned() else {
            self.launch_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if self.audit_every > 0 {
            let n = self.audit_clock.fetch_add(1, Ordering::Relaxed) + 1;
            if n % self.audit_every == 0 {
                self.audits.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        self.launch_hits.fetch_add(1, Ordering::Relaxed);
        Some(profile)
    }

    /// Record a fully simulated launch's profile.
    ///
    /// # Panics
    /// Panics when `key` is already cached under a profile that is not
    /// bit-identical to `profile` — a divergence means the
    /// wave-equivalence certificate (or the memo key built from it) is
    /// unsound, and that must never be papered over.
    pub fn insert_launch(&self, key: Fingerprint, profile: &KernelProfile) {
        match self.launches().entry(key) {
            Entry::Vacant(e) => {
                e.insert(profile.clone());
            }
            // Float `Debug` prints the shortest round-tripping
            // representation, so equal renderings are equal bits.
            Entry::Occupied(e) => assert!(
                format!("{:?}", e.get()) == format!("{profile:?}"),
                "VECSPARSE_AUDIT: memoized profile for kernel {:?} is not \
                 bit-identical to its re-simulation — the wave-equivalence \
                 certificate or memo key is unsound \
                 (cached cycles {}, fresh cycles {})",
                profile.name,
                e.get().cycles,
                profile.cycles,
            ),
        }
    }

    // lint: hash-ok — keyed lookup/insert only, never iterated.
    fn launches(&self) -> MutexGuard<'_, HashMap<Fingerprint, KernelProfile>> {
        self.launches
            .lock()
            .expect("a thread panicked while holding the launch memo")
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            audits: self.audits.load(Ordering::Relaxed),
            launch_hits: self.launch_hits.load(Ordering::Relaxed),
            launch_misses: self.launch_misses.load(Ordering::Relaxed),
            ..MemoStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::render_tests::sample;

    fn profile(cycles: f64) -> KernelProfile {
        KernelProfile { cycles, ..sample() }
    }

    fn key(n: u64) -> Fingerprint {
        Fingerprint { lo: n, hi: !n }
    }

    #[test]
    fn probe_miss_then_hit() {
        let memo = WaveMemo::with_audit(0);
        assert!(memo.probe_launch(key(1), false).is_none());
        memo.insert_launch(key(1), &profile(10.0));
        let hit = memo.probe_launch(key(1), false).expect("cached");
        assert_eq!(hit.cycles, 10.0);
        // A traced launch never consults the cache, and is not counted.
        assert!(memo.probe_launch(key(1), true).is_none());
        let s = memo.stats();
        assert_eq!((s.launch_misses, s.launch_hits, s.audits), (1, 1, 0));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn audit_declines_every_nth_hit() {
        let memo = WaveMemo::with_audit(2);
        memo.insert_launch(key(3), &profile(10.0));
        let declined = (0..6)
            .filter(|_| memo.probe_launch(key(3), false).is_none())
            .count();
        assert_eq!(declined, 3, "every 2nd hit is declined");
        let s = memo.stats();
        assert_eq!((s.launch_misses, s.launch_hits, s.audits), (0, 3, 3));
    }

    #[test]
    #[should_panic(expected = "bit-identical")]
    fn audit_mismatch_panics() {
        let memo = WaveMemo::with_audit(1);
        memo.insert_launch(key(4), &profile(10.0));
        // The same profile again is fine; a differing one is unsound.
        memo.insert_launch(key(4), &profile(10.0));
        memo.insert_launch(key(4), &profile(11.0));
    }
}
