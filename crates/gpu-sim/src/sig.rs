//! Shared structure-hash primitives.
//!
//! Three consumers key work off "the structure of an operand": the
//! engine's plan cache (sparsity bucketing in `PlanKey`), the engine's
//! deterministic twin generation (`ell_twin` hashes a sparsity pattern
//! into a seed), and the launch memoizer (a [`Fingerprint`] over program,
//! operands and pool layout gates profile reuse). They used to carry
//! separate FNV loops; divergence between them would silently split or —
//! worse — *alias* memo classes. This module is the single definition
//! all three use.
//!
//! Every hash here is FNV-1a over 64-bit words: [`fnv1a_word`] absorbs a
//! whole word in one xor-multiply step, so a key costs one step per
//! field, not one per byte. Two hash shapes are built on it:
//!
//! * [`fnv1a_u32s`] — a single stream over `u32` items, each widened to
//!   one word (the historical `ell_twin` formulation; twin structures
//!   generated before and after the refactor are identical).
//! * [`Fingerprint`] / [`FingerprintHasher`] — a 128-bit dual-stream
//!   FNV-1a for memo keys, where a 64-bit birthday bound is too thin to
//!   hang a soundness claim on. The two streams share the FNV prime and
//!   the word step but start from independent bases, so a collision
//!   requires both lanes to collide on the same input pair. Each
//!   `write_u64`/`write_u32` is one word step per stream, the framing of
//!   [`fnv1a_u32s`]; byte strings are length-prefixed.
//!
//! For a fixed state the step is a bijection of the word, and for a
//! fixed word a bijection of the state, so two word streams of equal
//! length that differ in one word always hash apart in both lanes.
//! Differences in several words can cancel (a word step carries each
//! bit difference only upward), which is why callers prefix every
//! variable-length part with its count and memo soundness also rests on
//! audit mode (see `memo`).

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis for the second fingerprint stream (low 64 bits of the
/// FNV-1a 128-bit offset basis) — independent of [`FNV_OFFSET`].
pub const FNV_OFFSET_ALT: u64 = 0x6c62_272e_07bb_0142;

/// One FNV-1a step over a whole 64-bit word: the step every hash in
/// this module (and every structure hash built on it) shares.
#[inline]
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Single-stream FNV-1a over a sequence of `u32` items, folding each
/// item in as one 64-bit word (the historical `ell_twin` formulation).
pub fn fnv1a_u32s(seed: u64, items: impl IntoIterator<Item = u32>) -> u64 {
    items
        .into_iter()
        .fold(seed, |h, c| fnv1a_word(h, u64::from(c)))
}

/// How many buckets the plan cache quantises sparsity into. Within one
/// bucket, tuning decisions (and memo classes derived from the bucket)
/// are considered shape-equivalent.
pub const SPARSITY_BUCKETS: f64 = 64.0;

/// Quantise a sparsity fraction into its plan-cache bucket.
pub fn sparsity_bucket(sparsity: f64) -> u32 {
    (sparsity * SPARSITY_BUCKETS).round() as u32
}

/// A 128-bit structure fingerprint: two independent 64-bit FNV-1a
/// streams over the same input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Stream seeded from [`FNV_OFFSET`].
    pub lo: u64,
    /// Stream seeded from [`FNV_OFFSET_ALT`].
    pub hi: u64,
}

impl Fingerprint {
    /// Render as a fixed-width hex pair for reports and JSON.
    pub fn render(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Incremental dual-stream FNV-1a hasher producing a [`Fingerprint`].
#[derive(Clone, Debug)]
pub struct FingerprintHasher {
    lo: u64,
    hi: u64,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    /// Fresh hasher at the two offset bases.
    pub fn new() -> Self {
        FingerprintHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_ALT,
        }
    }

    /// Absorb a `u64` as one word step per stream.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.lo = fnv1a_word(self.lo, v);
        self.hi = fnv1a_word(self.hi, v);
    }

    /// Absorb a `u32`, widened to one word (matches [`fnv1a_u32s`] item
    /// framing).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Absorb a byte slice, one word per byte, length-prefixed so
    /// adjacent fields can't alias across a boundary shift.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// Absorb another fingerprint (e.g. compose a launch signature from
    /// a certificate fingerprint plus an operand fingerprint).
    pub fn write_fingerprint(&mut self, f: Fingerprint) {
        self.write_u64(f.lo);
        self.write_u64(f.hi);
    }

    /// Finish both streams.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_u32s_matches_manual_loop() {
        // The exact loop `engine::ell_twin` used before the refactor.
        let cols = [3u32, 1, 4, 1, 5];
        let rows = [0u32, 2, 5];
        let mut h = FNV_OFFSET;
        for &c in cols.iter().chain(rows.iter()) {
            h = (h ^ c as u64).wrapping_mul(FNV_PRIME);
        }
        let got = fnv1a_u32s(fnv1a_u32s(FNV_OFFSET, cols), rows);
        assert_eq!(got, h);
    }

    #[test]
    fn fingerprint_lo_stream_matches_fnv1a_u32s_framing() {
        let items = [0u32, 7, u32::MAX, 0x8000_0000, 42];
        let mut h = FingerprintHasher::new();
        for &v in &items {
            h.write_u32(v);
        }
        assert_eq!(h.finish().lo, fnv1a_u32s(FNV_OFFSET, items));
    }

    #[test]
    fn sparsity_buckets_quantise() {
        assert_eq!(sparsity_bucket(0.0), 0);
        assert_eq!(sparsity_bucket(1.0), 64);
        assert_eq!(sparsity_bucket(0.75), 48);
        // Within one bucket width, values collapse.
        assert_eq!(sparsity_bucket(0.750), sparsity_bucket(0.7501));
    }

    #[test]
    fn fingerprint_streams_are_independent_and_sensitive() {
        let mut a = FingerprintHasher::new();
        a.write_u64(42);
        let fa = a.finish();
        assert_ne!(fa.lo, fa.hi, "streams must not mirror each other");

        let mut b = FingerprintHasher::new();
        b.write_u64(43);
        let fb = b.finish();
        assert_ne!(fa, fb);

        // Length prefixing keeps boundary shifts distinct.
        let mut c = FingerprintHasher::new();
        c.write_bytes(b"ab");
        c.write_bytes(b"c");
        let mut d = FingerprintHasher::new();
        d.write_bytes(b"a");
        d.write_bytes(b"bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let run = || {
            let mut h = FingerprintHasher::new();
            h.write_bytes(b"kernel");
            h.write_u64(0xdead_beef);
            h.write_u32(7);
            h.finish()
        };
        assert_eq!(run(), run());
    }
}
