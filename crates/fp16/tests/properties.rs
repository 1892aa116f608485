//! Property-based tests of the binary16 implementation.

use proptest::prelude::*;
use vecsparse_fp16::{f16, hmul_fadd};

proptest! {
    /// from_f32 is monotone on finite inputs (order-preserving rounding).
    #[test]
    fn conversion_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hlo, hhi) = (f16::from_f32(lo), f16::from_f32(hi));
        prop_assert!(hlo.to_f32() <= hhi.to_f32());
    }

    /// Roundtripping through f32 is idempotent: a second conversion
    /// changes no bit, NaN payloads included.
    #[test]
    fn double_rounding_is_stable(x in any::<f32>()) {
        let once = f16::from_f32(x);
        let twice = f16::from_f32(once.to_f32());
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// The rounding error of a finite conversion is at most half an ulp
    /// of the result's binade (for normals).
    #[test]
    fn rounding_error_is_bounded(x in -60000.0f32..60000.0) {
        let h = f16::from_f32(x);
        let y = h.to_f32();
        let exp = y.abs().max(f32::MIN_POSITIVE).log2().floor();
        let ulp = 2.0f32.powf(exp - 10.0);
        // Subnormal ulp floor.
        let ulp = ulp.max(2.0f32.powi(-24));
        prop_assert!((x - y).abs() <= ulp / 2.0 + 1e-12, "x {x} y {y} ulp {ulp}");
    }

    /// Negation is exact (a sign-bit flip).
    #[test]
    fn negation_is_exact(x in -60000.0f32..60000.0) {
        let h = f16::from_f32(x);
        prop_assert_eq!((-h).to_f32(), -h.to_f32());
    }

    /// abs never increases the bit pattern's magnitude interpretation.
    #[test]
    fn abs_is_nonnegative(x in any::<f32>()) {
        let h = f16::from_f32(x);
        if !h.is_nan() {
            prop_assert!(h.abs().to_f32() >= 0.0 || h.abs().to_f32().is_nan());
        }
    }

    /// Addition commutes bit-exactly (both orders round identically).
    #[test]
    fn addition_commutes(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let (x, y) = (f16::from_f32(a), f16::from_f32(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
    }

    /// hmul_fadd equals the widened computation with one intermediate
    /// rounding of the product.
    #[test]
    fn hmul_fadd_semantics(a in -16.0f32..16.0, b in -16.0f32..16.0, acc in -100.0f32..100.0) {
        let (ha, hb) = (f16::from_f32(a), f16::from_f32(b));
        let got = hmul_fadd(ha, hb, acc);
        let want = acc + f16::from_f32(ha.to_f32() * hb.to_f32()).to_f32();
        prop_assert_eq!(got, want);
    }

    /// Comparisons agree with f32 comparisons of the rounded values.
    #[test]
    fn ordering_matches_f32(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (x, y) = (f16::from_f32(a), f16::from_f32(b));
        prop_assert_eq!(x.partial_cmp(&y), x.to_f32().partial_cmp(&y.to_f32()));
    }
}
