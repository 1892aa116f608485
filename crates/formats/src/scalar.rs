//! Element trait abstracting over the two precisions the paper evaluates.

use core::fmt::Debug;
use vecsparse_fp16::f16;

/// A matrix element: either single precision (`f32`) or half precision
/// ([`f16`](vecsparse_fp16::f16)).
///
/// The trait carries just enough surface for the containers, generators and
/// reference implementations: lossless-ish conversion through `f32` (the
/// accumulation precision used by both the FPU and TCU datapaths) and the
/// operand width in bits, which the memory model uses to size transactions.
pub trait Scalar: Copy + Default + PartialEq + Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Storage width in bits (16 or 32).
    const BITS: u32;
    /// Short name used in reports ("half" / "single").
    const NAME: &'static str;

    /// Convert from the f32 accumulation domain (rounding if needed).
    fn from_f32(v: f32) -> Self;
    /// Widen to the f32 accumulation domain (exact).
    fn to_f32(self) -> f32;
    /// Exact zero of either sign, tested on the stored bits (no widening).
    fn is_zero(self) -> bool;

    /// Storage width in bytes.
    #[inline]
    fn bytes() -> usize {
        (Self::BITS / 8) as usize
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const BITS: u32 = 32;
    const NAME: &'static str = "single";

    #[inline]
    fn from_f32(v: f32) -> f32 {
        v
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0.0
    }
}

impl Scalar for f16 {
    const ZERO: f16 = f16::ZERO;
    const BITS: u32 = 16;
    const NAME: &'static str = "half";

    #[inline]
    fn from_f32(v: f32) -> f16 {
        f16::from_f32(v)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        f16::to_f32(self)
    }

    #[inline]
    fn is_zero(self) -> bool {
        f16::is_zero(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(<f32 as Scalar>::bytes(), 4);
        assert_eq!(<f16 as Scalar>::bytes(), 2);
    }

    #[test]
    fn zero_tests_see_both_signs_only() {
        assert!(Scalar::is_zero(f16::NEG_ZERO) && Scalar::is_zero(-0.0f32));
        assert!(!Scalar::is_zero(f16::MIN_POSITIVE_SUBNORMAL) && !Scalar::is_zero(f32::NAN));
    }

    #[test]
    fn conversion_roundtrip() {
        assert_eq!(<f32 as Scalar>::from_f32(1.25).to_f32(), 1.25);
        assert_eq!(<f16 as Scalar>::from_f32(1.25).to_f32(), 1.25);
    }
}
