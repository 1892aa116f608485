//! Sectored set-associative cache model (L1 and L2).
//!
//! NVIDIA caches operate on 128-byte lines split into four 32-byte
//! sectors: a miss fills only the requested sectors, and the profiling
//! counters the paper reads ("L1 missed sectors", "bytes L2→L1",
//! "Sectors/Req") are all sector-granular. The model mirrors that: tags
//! are per-line, validity is per-sector, replacement is LRU within a set.

/// Aggregate counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Warp-level load requests seen.
    pub requests: u64,
    /// Warp-level store requests seen.
    pub store_requests: u64,
    /// 32-byte sectors requested by loads (after intra-warp dedup).
    pub sectors_requested: u64,
    /// Sectors that missed and were filled from the next level.
    pub sectors_missed: u64,
    /// Sectors written through to the next level by stores.
    pub sectors_stored: u64,
}

impl CacheStats {
    /// Sectors per request (the paper's "Sectors/Req" column).
    pub fn sectors_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.sectors_requested as f64 / self.requests as f64
        }
    }

    /// Hit rate over requested sectors.
    pub fn sector_hit_rate(&self) -> f64 {
        if self.sectors_requested == 0 {
            0.0
        } else {
            1.0 - self.sectors_missed as f64 / self.sectors_requested as f64
        }
    }

    /// Accumulate another stats block (used when merging SM shards).
    pub fn merge(&mut self, other: &CacheStats) {
        self.requests += other.requests;
        self.store_requests += other.store_requests;
        self.sectors_requested += other.sectors_requested;
        self.sectors_missed += other.sectors_missed;
        self.sectors_stored += other.sectors_stored;
    }

    /// Scale all counters by `f` (extrapolation from a sampled run).
    pub fn scaled(&self, f: f64) -> CacheStats {
        CacheStats {
            requests: (self.requests as f64 * f) as u64,
            store_requests: (self.store_requests as f64 * f) as u64,
            sectors_requested: (self.sectors_requested as f64 * f) as u64,
            sectors_missed: (self.sectors_missed as f64 * f) as u64,
            sectors_stored: (self.sectors_stored as f64 * f) as u64,
        }
    }
}

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 128;
/// Bytes per L2 sector (the transaction granule on NVIDIA parts).
pub const SECTOR_BYTES: u64 = 32;
/// Sectors per line.
pub const SECTORS_PER_LINE: u64 = LINE_BYTES / SECTOR_BYTES;

/// Convert a byte address to its 32-byte sector address.
///
/// Shared address-classification math: the cache model, the sanitizer's
/// coalescing checker, and the footprint certificate's false-sharing
/// lint all classify addresses through these helpers so the geometry
/// cannot drift.
#[inline]
pub fn sector_of_byte(byte_addr: u64) -> u64 {
    byte_addr / SECTOR_BYTES
}

/// Convert a 32-byte sector address to its 128-byte line address.
#[inline]
pub fn line_of_sector(sector_addr: u64) -> u64 {
    sector_addr / SECTORS_PER_LINE
}

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    sector_valid: u8,
    last_use: u64,
}

const EMPTY_WAY: Way = Way {
    tag: u64::MAX,
    sector_valid: 0,
    last_use: 0,
};

/// A sectored, set-associative, write-through/no-write-allocate cache.
pub struct SectorCache {
    ways: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, else `usize::MAX`: the
    /// set index then reduces to a mask instead of a hardware divide.
    set_mask: usize,
    /// Lemire fastmod constant `u64::MAX / sets + 1` for the
    /// non-power-of-two geometries (e.g. a 6 MiB 16-way L2 has 3072
    /// sets); exact for 32-bit line addresses.
    set_magic: u64,
    storage: Vec<Way>,
    tick: u64,
    /// Running statistics.
    pub stats: CacheStats,
}

/// Outcome of a sector access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectorOutcome {
    /// Sector present in this level.
    Hit,
    /// Sector filled from the next level.
    Miss,
}

impl SectorCache {
    /// Build a cache of `bytes` capacity with `ways` associativity.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let lines = bytes / LINE_BYTES as usize;
        assert!(lines >= ways && lines % ways == 0, "bad cache geometry");
        let sets = lines / ways;
        SectorCache {
            ways,
            sets,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                usize::MAX
            },
            set_magic: (u64::MAX / sets as u64).wrapping_add(1),
            storage: vec![EMPTY_WAY; sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Record a warp-level request comprising `sectors` deduplicated
    /// 32-byte sector addresses. Returns how many sectors missed.
    pub fn access(&mut self, sectors: &[u64]) -> u64 {
        self.stats.requests += 1;
        self.stats.sectors_requested += sectors.len() as u64;
        let mut missed = 0;
        for &s in sectors {
            if self.access_sector(s) == SectorOutcome::Miss {
                missed += 1;
            }
        }
        self.stats.sectors_missed += missed;
        missed
    }

    /// Record a write-through store of the given sectors. The line is not
    /// allocated; sectors already resident are updated in place (they stay
    /// valid), matching NVIDIA's write-through, no-write-allocate L1.
    pub fn store(&mut self, sectors: &[u64]) {
        self.stats.store_requests += 1;
        self.stats.sectors_stored += sectors.len() as u64;
    }

    /// Touch a single sector.
    pub fn access_sector(&mut self, sector_addr: u64) -> SectorOutcome {
        self.tick += 1;
        let line_addr = sector_addr / SECTORS_PER_LINE; // In sector units.
        let sector_in_line = (sector_addr % SECTORS_PER_LINE) as u8;
        let bit = 1u8 << sector_in_line;
        let set = self.set_of(line_addr);
        let base = set * self.ways;
        let ways = &mut self.storage[base..base + self.ways];

        // Look for the tag.
        for w in ways.iter_mut() {
            if w.tag == line_addr {
                w.last_use = self.tick;
                return if w.sector_valid & bit != 0 {
                    SectorOutcome::Hit
                } else {
                    w.sector_valid |= bit;
                    SectorOutcome::Miss
                };
            }
        }

        // Miss: evict LRU way.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.last_use)
            .expect("cache has at least one way");
        victim.tag = line_addr;
        victim.sector_valid = bit;
        victim.last_use = self.tick;
        SectorOutcome::Miss
    }

    /// Map a line address to its set without a hardware divide on the
    /// common paths. All three branches compute exactly
    /// `line_addr % sets`; `set_of` runs once per sector access, which
    /// dominates the memory-path cost of a wave simulation.
    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        if self.set_mask != usize::MAX {
            (line_addr as usize) & self.set_mask
        } else if line_addr <= u64::from(u32::MAX) {
            let low = self.set_magic.wrapping_mul(line_addr);
            ((u128::from(low) * self.sets as u128) >> 64) as usize
        } else {
            (line_addr as usize) % self.sets
        }
    }

    /// Convert a byte address to its sector address.
    #[inline]
    pub fn sector_of(byte_addr: u64) -> u64 {
        sector_of_byte(byte_addr)
    }

    /// Drop all contents but keep statistics.
    pub fn invalidate(&mut self) {
        self.storage.fill(EMPTY_WAY);
    }
}

/// The L2 interface a wave simulation drives. Sequential callers pass
/// the shared [`SectorCache`] directly; the parallel wave pipeline
/// passes a [`RecordingL2`] so the wave's sector traffic can be
/// replayed into the shared L2 afterwards, in canonical wave order.
pub trait L2Port {
    /// Warp-level load request; returns how many sectors missed.
    fn access(&mut self, sectors: &[u64]) -> u64;
    /// Warp-level write-through store request.
    fn store(&mut self, sectors: &[u64]);
}

impl L2Port for SectorCache {
    fn access(&mut self, sectors: &[u64]) -> u64 {
        SectorCache::access(self, sectors)
    }
    fn store(&mut self, sectors: &[u64]) {
        SectorCache::store(self, sectors)
    }
}

/// One recorded L2-bound request from a wave's timing pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L2Op {
    /// A load request (the deduplicated sector addresses).
    Access(Vec<u64>),
    /// A write-through store request.
    Store(Vec<u64>),
}

/// A wave-private L2 stand-in: latency decisions come from a private
/// cache (cold at wave start — each parallel wave is timed as if it
/// were the first on the device, which is what makes per-wave timing
/// order-free), while every request is also appended to an op log. The
/// sequential replay phase applies the logs to the *shared* L2 in wave
/// order, so device-wide `CacheStats` (and the DRAM-traffic roofline
/// derived from them) still see cross-wave reuse, deterministically.
pub struct RecordingL2 {
    cache: SectorCache,
    ops: Vec<L2Op>,
}

impl RecordingL2 {
    /// A recording L2 whose private latency model has the given geometry.
    pub fn new(bytes: usize, ways: usize) -> RecordingL2 {
        RecordingL2 {
            cache: SectorCache::new(bytes, ways),
            ops: Vec::new(),
        }
    }

    /// The recorded request log, in wave-simulation order.
    pub fn into_ops(self) -> Vec<L2Op> {
        self.ops
    }
}

impl L2Port for RecordingL2 {
    fn access(&mut self, sectors: &[u64]) -> u64 {
        self.ops.push(L2Op::Access(sectors.to_vec()));
        self.cache.access(sectors)
    }
    fn store(&mut self, sectors: &[u64]) {
        self.ops.push(L2Op::Store(sectors.to_vec()));
        self.cache.store(sectors)
    }
}

/// Replay a recorded request log into the shared L2.
pub fn replay_l2(ops: &[L2Op], l2: &mut SectorCache) {
    for op in ops {
        match op {
            L2Op::Access(sectors) => {
                l2.access(sectors);
            }
            L2Op::Store(sectors) => l2.store(sectors),
        }
    }
}

/// Split a warp's per-lane byte ranges into deduplicated sector addresses
/// — the coalescer. Each `(addr, bytes)` pair is one lane's access.
pub fn coalesce(accesses: impl Iterator<Item = (u64, u64)>) -> Vec<u64> {
    let mut sectors: Vec<u64> = Vec::with_capacity(32);
    for (addr, bytes) in accesses {
        if bytes == 0 {
            continue;
        }
        let first = addr / SECTOR_BYTES;
        let last = (addr + bytes - 1) / SECTOR_BYTES;
        for s in first..=last {
            sectors.push(s);
        }
    }
    sectors.sort_unstable();
    sectors.dedup();
    sectors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_warp_load_is_four_sectors() {
        // 32 lanes × 4B consecutive = 128B = 4 sectors.
        let sectors = coalesce((0..32u64).map(|l| (0x1000 + l * 4, 4)));
        assert_eq!(sectors.len(), 4);
    }

    #[test]
    fn strided_warp_load_touches_many_sectors() {
        // 32 lanes × 4B with 128B stride = 32 distinct sectors.
        let sectors = coalesce((0..32u64).map(|l| (0x1000 + l * 128, 4)));
        assert_eq!(sectors.len(), 32);
    }

    #[test]
    fn ldg128_half_is_sixteen_sectors() {
        // 32 lanes × 16B consecutive = 512B = 16 sectors (the paper's
        // LDG.128 pattern: four 128B transactions).
        let sectors = coalesce((0..32u64).map(|l| (0x2000 + l * 16, 16)));
        assert_eq!(sectors.len(), 16);
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = SectorCache::new(4096, 4);
        let sectors = vec![10, 11, 12, 13];
        assert_eq!(c.access(&sectors), 4);
        assert_eq!(c.access(&sectors), 0);
        assert_eq!(c.stats.sectors_requested, 8);
        assert_eq!(c.stats.sectors_missed, 4);
        assert!((c.stats.sector_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sector_fill_is_partial() {
        let mut c = SectorCache::new(4096, 4);
        // Touch sector 0 of a line; sector 1 of the same line still misses.
        assert_eq!(c.access_sector(0), SectorOutcome::Miss);
        assert_eq!(c.access_sector(1), SectorOutcome::Miss);
        assert_eq!(c.access_sector(0), SectorOutcome::Hit);
        assert_eq!(c.access_sector(1), SectorOutcome::Hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways, capacity 2 lines per set. Three conflicting lines.
        let lines = 8; // 1 KiB, 2 ways => 4 sets.
        let mut c = SectorCache::new(lines * 128, 2);
        let sets = 4u64;
        let a = 0; // sector addr of line 0, set 0
        let b = sets * 4 * 4; // a line mapping to the same set
        let d = 2 * sets * 4 * 4;
        assert_eq!(c.access_sector(a), SectorOutcome::Miss);
        assert_eq!(c.access_sector(b), SectorOutcome::Miss);
        assert_eq!(c.access_sector(a), SectorOutcome::Hit);
        // d evicts b (LRU), not a.
        assert_eq!(c.access_sector(d), SectorOutcome::Miss);
        assert_eq!(c.access_sector(a), SectorOutcome::Hit);
        assert_eq!(c.access_sector(b), SectorOutcome::Miss);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SectorCache::new(4096, 4); // 32 lines = 128 sectors.
        let big: Vec<u64> = (0..512).collect();
        for _ in 0..3 {
            for chunk in big.chunks(4) {
                c.access(chunk);
            }
        }
        // Streaming over 4x the capacity: essentially everything misses.
        assert!(c.stats.sector_hit_rate() < 0.05);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn merge_and_scale_are_consistent() {
        let mut a = CacheStats {
            requests: 10,
            store_requests: 2,
            sectors_requested: 40,
            sectors_missed: 8,
            sectors_stored: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.requests, 20);
        assert_eq!(a.sectors_missed, 16);
        let s = a.scaled(0.5);
        assert_eq!(s.requests, b.requests);
        assert_eq!(s.sectors_stored, b.sectors_stored);
        assert!((s.sectors_per_request() - b.sectors_per_request()).abs() < 1e-12);
    }

    #[test]
    fn invalidate_keeps_stats() {
        let mut c = SectorCache::new(4096, 4);
        c.access(&[1, 2, 3]);
        let before = c.stats;
        c.invalidate();
        assert_eq!(c.stats, before);
        // After invalidation everything misses again.
        assert_eq!(c.access(&[1, 2, 3]), 3);
    }

    #[test]
    fn recorded_replay_matches_direct_access() {
        // Driving a shared L2 directly and replaying a RecordingL2's op
        // log produce identical stats and identical cache state.
        let requests: Vec<Vec<u64>> = vec![
            (0..4).collect(),
            (2..8).collect(),
            vec![100, 101],
            (0..4).collect(),
        ];
        let mut direct = SectorCache::new(4096, 4);
        for r in &requests {
            direct.access(r);
        }
        direct.store(&[7, 8]);

        let mut rec = RecordingL2::new(4096, 4);
        for r in &requests {
            L2Port::access(&mut rec, r);
        }
        L2Port::store(&mut rec, &[7, 8]);
        let mut replayed = SectorCache::new(4096, 4);
        replay_l2(&rec.into_ops(), &mut replayed);

        assert_eq!(replayed.stats, direct.stats);
        // Same resident sectors afterwards: probe both.
        assert_eq!(replayed.access(&[0, 1, 2, 3]), direct.access(&[0, 1, 2, 3]));
    }

    #[test]
    fn set_of_matches_modulo_across_geometries() {
        // Power-of-two (mask path), non-power-of-two (fastmod path), and
        // the degenerate single-set cache all reduce exactly like `%`.
        for (bytes, ways) in [
            (128 * 1024, 8),
            (6 * 1024 * 1024, 16),
            (4096, 4),
            (128 * 3, 3),
            (128, 1),
        ] {
            let c = SectorCache::new(bytes, ways);
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for _ in 0..10_000 {
                x = x.wrapping_mul(0xd130_2b97_9af6_b617).wrapping_add(1);
                for line in [x >> 32, x & 0xffff_ffff, u64::from(u32::MAX)] {
                    assert_eq!(
                        c.set_of(line),
                        (line as usize) % c.sets,
                        "line {line} sets {}",
                        c.sets
                    );
                }
            }
        }
    }

    #[test]
    fn coalesce_handles_unaligned_spans() {
        // A 6-byte access straddling a sector boundary touches 2 sectors.
        let s = coalesce(std::iter::once((30u64, 6u64)));
        assert_eq!(s, vec![0, 1]);
        // Zero-length accesses are dropped.
        assert!(coalesce(std::iter::once((64u64, 0u64))).is_empty());
    }
}
