//! Offline stand-in for the subset of `rand` 0.8 this workspace uses.
//!
//! Deterministic xoshiro256** generators behind the familiar trait surface:
//! [`Rng::gen`], [`Rng::gen_range`], [`SeedableRng::seed_from_u64`], and
//! [`seq::SliceRandom::shuffle`]. Statistical quality is more than adequate
//! for test-data generation; cryptographic use is out of scope.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;

    /// Seed from OS entropy in real `rand`; here, a fixed seed keeps the
    /// whole workspace deterministic.
    fn from_entropy() -> Self {
        Self::seed_from_u64(0x5EED_CAFE_F00D_D00D)
    }
}

/// High-level sampling interface, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Sample a value of `T` from its standard distribution
    /// (`[0, 1)` for floats, uniform bits for integers, fair coin for bool).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Sample a bool that is true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types sampleable from the standard distribution.
pub trait Standard: Sized {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        // 24 uniform mantissa bits in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types sampleable uniformly from a range.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)`; `hi > lo`.
    fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`; `hi >= lo`.
    fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
            }
        }
    )*};
}

uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u: $t = Standard::sample_standard(rng);
                lo + u * (hi - lo)
            }
            #[inline]
            fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                Self::sample_half_open(rng, lo, hi)
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** — the default deterministic generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Same generator; `rand` distinguishes them only by speed/quality.
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into four nonzero words.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: i32 = rng.gen_range(-16..=16);
            assert!((-16..=16).contains(&v));
            let u: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&u));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn standard_floats_are_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 32 elements left them in order");
    }
}
