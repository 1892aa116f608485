//! Bit-exact IEEE 754 binary16 storage type.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// IEEE 754 binary16 floating point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// Conversions use round-to-nearest-even, matching hardware `F2F` behaviour.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct f16(u16);

impl PartialEq for f16 {
    /// IEEE semantics: NaN compares unequal to everything (including
    /// itself) and +0.0 == -0.0, matching `f32`.
    #[inline]
    fn eq(&self, other: &f16) -> bool {
        self.to_f32() == other.to_f32()
    }
}

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl f16 {
    /// Positive zero.
    pub const ZERO: f16 = f16(0);
    /// Negative zero.
    pub const NEG_ZERO: f16 = f16(SIGN_MASK);
    /// One.
    pub const ONE: f16 = f16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: f16 = f16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: f16 = f16(EXP_MASK);
    /// Negative infinity.
    pub const NEG_INFINITY: f16 = f16(SIGN_MASK | EXP_MASK);
    /// A canonical quiet NaN.
    pub const NAN: f16 = f16(0x7E00);
    /// Largest finite value, 65504.
    ///
    /// ```
    /// use vecsparse_fp16::f16;
    /// assert_eq!(f16::MAX.to_f32(), 65504.0);
    /// assert!(f16::from_f32(65520.0).is_infinite()); // Past MAX + ulp/2.
    /// ```
    pub const MAX: f16 = f16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: f16 = f16(0xFBFF);
    /// Smallest positive normal value, 2^-14; anything smaller is flushed
    /// or represented subnormally.
    ///
    /// ```
    /// use vecsparse_fp16::f16;
    /// assert_eq!(f16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
    /// assert!(f16::from_f32(2.0f32.powi(-15)).is_subnormal());
    /// ```
    pub const MIN_POSITIVE: f16 = f16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: f16 = f16(0x0001);
    /// Machine epsilon, 2^-10: the gap between 1.0 and the next
    /// representable value.
    ///
    /// ```
    /// use vecsparse_fp16::f16;
    /// assert_eq!(f16::EPSILON.to_f32(), 2.0f32.powi(-10));
    /// assert_eq!(f16::EPSILON.to_f32(), f16::ONE.ulp());
    /// ```
    pub const EPSILON: f16 = f16(0x1400);

    /// Reinterpret raw bits as an `f16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> f16 {
        f16(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even.
    ///
    /// Overflow saturates to infinity (IEEE default), underflow produces
    /// subnormals or signed zero. NaNs are preserved as quiet NaNs.
    ///
    /// Branch-free: all four result classes are computed and one is
    /// selected, so loops over it vectorize.
    #[inline]
    pub fn from_f32(value: f32) -> f16 {
        let bits = value.to_bits();
        let sign = (bits >> 16) as u16 & SIGN_MASK;
        let mag = bits & 0x7FFF_FFFF;
        // Normal result: rebias the exponent by 127 - 15, then round the
        // 13 dropped mantissa bits to nearest even by adding 0xFFF plus
        // the kept mantissa's odd bit. A carry into the exponent is the
        // next binade, or infinity past 65504.
        let normal = mag
            .wrapping_sub(112 << 23)
            .wrapping_add(0x0FFF + ((mag >> 13) & 1))
            >> 13;
        // Subnormal result (|x| < 2^-14): 0.5 has an f32 ulp of 2^-24,
        // binary16's subnormal spacing, so adding it rounds |x| to that
        // grid with the FPU's ties-to-even; the sum's low bits are then
        // the binary16 magnitude (a carry to 0x400 is the smallest normal).
        let subnormal = (f32::from_bits(mag) + 0.5)
            .to_bits()
            .wrapping_sub(0x3F00_0000);
        // NaN: quiet, keeping the top ten payload bits.
        let nan = 0x7E00 | ((mag >> 13) & 0x03FF);
        let out = if mag > 0x7F80_0000 {
            nan
        } else if mag >= 0x4780_0000 {
            u32::from(EXP_MASK) // |x| >= 2^16 and infinity.
        } else if mag >= 0x3880_0000 {
            normal
        } else {
            subnormal
        };
        f16(sign | out as u16)
    }

    /// Convert to `f32` exactly (every binary16 value is representable).
    ///
    /// Branch-free: a normal half widens by rebiasing its exponent in
    /// place, a subnormal one is its mantissa times 2^-24 (an integer
    /// conversion and one exact multiply, so no f32 denormal ever reaches
    /// the FPU, where it would cost a microcode assist), and infinities
    /// and NaNs (payload kept, quiet bit set) are selected instead.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let sign = (h & u32::from(SIGN_MASK)) << 16;
        let mag = h & 0x7FFF;
        let normal = (mag << 13) + ((127 - 15) << 23);
        let subnormal = (mag as f32 * f32::from_bits((127 - 24) << 23)).to_bits();
        let man = mag & u32::from(MAN_MASK);
        let special = 0x7F80_0000 | (man << 13) | (u32::from(man != 0) << 22);
        let out = if mag >= u32::from(EXP_MASK) {
            special
        } else if mag < 0x0400 {
            subnormal
        } else {
            normal
        };
        f32::from_bits(sign | out)
    }

    /// Convert from `f64` with a **single** round-to-nearest-even.
    ///
    /// Rounding through `f32` first would round twice, which disagrees
    /// with a direct conversion for values that sit within half an f32
    /// ulp of an f16 rounding boundary (e.g. `1 + 2^-11 + 2^-40` rounds
    /// to `1 + 2^-10` directly but collapses to the tie `1 + 2^-11` in
    /// `f32` and then ties-to-even down to `1.0`).
    pub fn from_f64(value: f64) -> f16 {
        let bits = value.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let man = bits & 0x000F_FFFF_FFFF_FFFF;

        if exp == 0x7FF {
            // Infinity or NaN.
            return if man == 0 {
                f16(sign | EXP_MASK)
            } else {
                // Quiet NaN; keep the top mantissa bits for debuggability.
                f16(sign | EXP_MASK | 0x0200 | ((man >> 42) as u16 & MAN_MASK))
            };
        }

        let unbiased = exp - 1023;
        let half_exp = unbiased + 15;

        if half_exp >= 0x1F {
            // Overflow to infinity.
            return f16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            // Subnormal or zero; f64 subnormals land here too (their
            // half_exp is hugely negative, far below the -10 cutoff).
            if half_exp < -10 {
                return f16(sign);
            }
            let full_man = man | (1u64 << 52);
            // Shift so that 10 mantissa bits remain for half_exp == 0,
            // one fewer for each step below.
            let shift = (43 - half_exp) as u32;
            let halfway = 1u64 << (shift - 1);
            let mut half_man = (full_man >> shift) as u16;
            let rem = full_man & ((1u64 << shift) - 1);
            if rem > halfway || (rem == halfway && (half_man & 1) == 1) {
                half_man += 1; // May carry into the exponent; that is correct.
            }
            return f16(sign | half_man);
        }

        // Normal number: round the 52-bit mantissa to 10 bits.
        let mut out = sign | ((half_exp as u16) << 10) | ((man >> 42) as u16);
        let rem = man & ((1u64 << 42) - 1);
        let halfway = 1u64 << 41;
        if rem > halfway || (rem == halfway && (out & 1) == 1) {
            // Round up; carry may overflow into the exponent and even to
            // infinity, both of which are correct IEEE behaviour.
            out = out.wrapping_add(1);
        }
        f16(out)
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// True if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) == 0
    }

    /// True if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// True if the value is subnormal.
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & MAN_MASK) != 0
    }

    /// True for +0.0 and -0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// Sign bit set (note: true for -0.0 and NaNs with the sign bit).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> f16 {
        f16(self.0 & !SIGN_MASK)
    }

    /// One unit in the last place: the gap between this value and the
    /// next representable binary16 value of larger magnitude, exactly as
    /// `f32`. Zero and subnormals report the subnormal spacing `2^-24`;
    /// infinities and NaNs report `f32::NAN`. A store that rounds to
    /// nearest is therefore off by at most `self.ulp() / 2.0`.
    ///
    /// # Examples
    /// ```
    /// use vecsparse_fp16::f16;
    /// assert_eq!(f16::ONE.ulp(), f16::EPSILON.to_f32());
    /// assert_eq!(f16::from_f32(1000.0).ulp(), 0.5);
    /// assert_eq!(f16::MAX.ulp(), 32.0);
    /// assert_eq!(f16::ZERO.ulp(), f16::MIN_POSITIVE_SUBNORMAL.to_f32());
    /// assert!(f16::INFINITY.ulp().is_nan());
    /// ```
    #[inline]
    pub fn ulp(self) -> f32 {
        if !self.is_finite() {
            return f32::NAN;
        }
        let exp = (self.0 & EXP_MASK) >> 10;
        if exp == 0 {
            // Subnormal spacing (also the gap above ±0).
            2.0f32.powi(-24)
        } else {
            2.0f32.powi(i32::from(exp) - 15 - 10)
        }
    }

    /// IEEE minimum (NaN-propagating like `f32::min` semantics).
    #[inline]
    pub fn min(self, other: f16) -> f16 {
        f16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// IEEE maximum.
    #[inline]
    pub fn max(self, other: f16) -> f16 {
        f16::from_f32(self.to_f32().max(other.to_f32()))
    }
}

impl From<f32> for f16 {
    #[inline]
    fn from(v: f32) -> f16 {
        f16::from_f32(v)
    }
}

impl From<f16> for f32 {
    #[inline]
    fn from(v: f16) -> f32 {
        v.to_f32()
    }
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for f16 {
    #[inline]
    fn partial_cmp(&self, other: &f16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for f16 {
            type Output = f16;
            #[inline]
            fn $method(self, rhs: f16) -> f16 {
                f16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl AddAssign for f16 {
    #[inline]
    fn add_assign(&mut self, rhs: f16) {
        *self = *self + rhs;
    }
}

impl MulAssign for f16 {
    #[inline]
    fn mul_assign(&mut self, rhs: f16) {
        *self = *self * rhs;
    }
}

impl Neg for f16 {
    type Output = f16;
    #[inline]
    fn neg(self) -> f16 {
        f16(self.0 ^ SIGN_MASK)
    }
}

impl Sum for f16 {
    fn sum<I: Iterator<Item = f16>>(iter: I) -> f16 {
        // Accumulate in f32 like the kernels do; round once at the end.
        f16::from_f32(iter.map(f16::to_f32).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, 65504.0, -65504.0] {
            assert_eq!(f16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn constants_match_bits() {
        assert_eq!(f16::ONE.to_f32(), 1.0);
        assert_eq!(f16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert_eq!(f16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(f16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(f16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(f16::from_f32(65520.0).is_infinite());
        assert!(f16::from_f32(1e9).is_infinite());
        assert!(f16::from_f32(-1e9).is_infinite());
        assert!(f16::from_f32(-1e9).is_sign_negative());
        // 65504 + half an ulp rounds to max, not infinity.
        assert_eq!(f16::from_f32(65503.0), f16::MAX);
    }

    #[test]
    fn underflow_to_subnormal_and_zero() {
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(tiny), f16::MIN_POSITIVE_SUBNORMAL);
        // Below half of the smallest subnormal rounds to zero.
        assert!(f16::from_f32(tiny / 4.0).is_zero());
        // Exactly half rounds to even (zero).
        assert!(f16::from_f32(tiny / 2.0).is_zero());
        // Just above half rounds up to the subnormal.
        assert_eq!(
            f16::from_f32(tiny / 2.0 + tiny / 8.0),
            f16::MIN_POSITIVE_SUBNORMAL
        );
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties to even
        // picks 1.0 (even mantissa).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(halfway), f16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even
        // picks 1+2^-9 (mantissa 0b10).
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(halfway_up).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn nan_handling() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!(f16::NAN.to_f32().is_nan());
        assert!(f16::NAN != f16::NAN);
    }

    #[test]
    fn signed_zero() {
        assert!(f16::from_f32(-0.0).is_zero());
        assert!(f16::from_f32(-0.0).is_sign_negative());
        assert_eq!(f16::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn subnormal_to_f32_roundtrip() {
        for bits in 1u16..0x0400 {
            let h = f16::from_bits(bits);
            assert!(h.is_subnormal());
            assert_eq!(f16::from_f32(h.to_f32()), h, "bits {bits:#06x}");
        }
    }

    #[test]
    fn exhaustive_finite_roundtrip() {
        // Every finite f16 must roundtrip exactly through f32.
        for bits in 0u16..=0xFFFF {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                assert!(f16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    f16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn from_f64_rounds_once() {
        // 1 + 2^-11 + 2^-40: strictly above the f16 tie point, so direct
        // conversion rounds up to 1 + 2^-10. Via f32 the tail 2^-40 is
        // lost first, leaving the exact tie 1 + 2^-11 which then rounds
        // to even — i.e. down to 1.0. The classic double-rounding bug.
        let v = 1.0 + 2.0f64.powi(-11) + 2.0f64.powi(-40);
        assert_eq!(f16::from_f32(v as f32), f16::ONE, "double rounding");
        assert_eq!(f16::from_f64(v).to_f32(), 1.0 + 2.0f32.powi(-10));

        // Same shape one binade up, and with a negative sign.
        let v2 = 2.0 + 2.0f64.powi(-10) + 2.0f64.powi(-39);
        assert_eq!(f16::from_f64(v2).to_f32(), 2.0 + 2.0f32.powi(-9));
        assert_eq!(f16::from_f64(-v2).to_f32(), -(2.0 + 2.0f32.powi(-9)));

        // Subnormal boundary: half of the smallest subnormal plus the
        // smallest f64 tail at that magnitude (2^-77, the last mantissa
        // bit — far below f32's half-ulp 2^-49 there, so an f32 detour
        // collapses it back onto the tie). Must round up, not to zero.
        let tiny = 2.0f64.powi(-25) + 2.0f64.powi(-77);
        assert_eq!(f16::from_f64(tiny), f16::MIN_POSITIVE_SUBNORMAL);
        // The exact halfway ties to even (zero).
        assert!(f16::from_f64(2.0f64.powi(-25)).is_zero());
    }

    #[test]
    fn from_f64_special_values() {
        assert!(f16::from_f64(f64::NAN).is_nan());
        assert!(f16::from_f64(f64::INFINITY).is_infinite());
        assert!(f16::from_f64(f64::NEG_INFINITY).is_sign_negative());
        assert!(f16::from_f64(1e300).is_infinite());
        assert!(f16::from_f64(-1e300).is_sign_negative());
        assert!(f16::from_f64(f64::MIN_POSITIVE).is_zero()); // Deep underflow.
        assert!(f16::from_f64(-0.0).is_zero());
        assert!(f16::from_f64(-0.0).is_sign_negative());
        // Overflow by rounding: halfway between MAX and the next step.
        assert!(f16::from_f64(65520.0).is_infinite());
        assert_eq!(f16::from_f64(65519.999), f16::MAX);
    }

    #[test]
    fn from_f64_agrees_with_from_f32_on_f32_inputs() {
        // On values already exactly representable in f32 the two paths
        // are the same single rounding; check across every f16 plus
        // perturbations that exercise each rounding case.
        for bits in 0u16..=0xFFFF {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let w = h.to_f32();
            for delta in [0.0f32, 2.0f32.powi(-26), -(2.0f32.powi(-26))] {
                let x = w + delta;
                assert_eq!(
                    f16::from_f64(f64::from(x)).to_bits(),
                    f16::from_f32(x).to_bits(),
                    "bits {bits:#06x} delta {delta:e}"
                );
            }
        }
    }

    #[test]
    fn ulp_spacing_is_consistent() {
        for bits in 0u16..0x7C00 {
            let h = f16::from_bits(bits);
            let next = f16::from_bits(bits + 1);
            if next.is_infinite() {
                continue;
            }
            assert_eq!(next.to_f32() - h.to_f32(), h.ulp(), "bits {bits:#06x}");
        }
    }

    #[test]
    fn arithmetic_basics() {
        let a = f16::from_f32(1.5);
        let b = f16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn sum_accumulates_in_f32() {
        // 1024 + 1 overflows half-precision addition granularity: in pure
        // f16 the ones would be absorbed, in f32 accumulation they are not.
        let vals = std::iter::once(f16::from_f32(1024.0)).chain(std::iter::repeat_n(f16::ONE, 512));
        let total: f16 = vals.sum();
        assert_eq!(total.to_f32(), 1536.0);
    }
}
