//! Software IEEE 754 binary16 ("half precision") arithmetic.
//!
//! The vecsparse workspace simulates Volta-generation GPU kernels, whose
//! native operand type is fp16 with fp32 accumulation (the Tensor Core
//! contract). The Rust ecosystem crates allowed in this workspace do not
//! include a half-precision type, so this crate provides one from scratch:
//!
//! * <code>f16</code> — a bit-exact binary16 storage type with round-to-nearest-even
//!   conversions to and from `f32`;
//! * [`hmul_fadd`] and [`round_to_f16_grid`] — the FPU baselines' HMUL
//!   rounding, shared by the simulated and native kernels.
//!
//! Arithmetic on `f16` is performed by converting to `f32`, operating, and
//! rounding back, which matches how scalar half arithmetic behaves on real
//! hardware when intermediate precision is single (HFMA with `.f32`
//! accumulate). The Tensor Core model in `vecsparse-gpu-sim` keeps
//! accumulators in `f32` and only rounds on the final store, exactly like
//! `mma.m8n8k4.f32.f16.f16.f32`.

#![forbid(unsafe_code)]

mod half_type;

pub use half_type::f16;

/// `acc + HMUL(a, b)`: the FPU baselines' `HMUL` (half multiply) then
/// `FADD` (single-precision add). The product of two binary16 values is
/// exact in f32, so rounding it to binary16 once is the whole HMUL.
#[inline]
pub fn hmul_fadd(a: f16, b: f16, acc: f32) -> f32 {
    acc + round_to_f16_grid(a.to_f32() * b.to_f32())
}

/// Round `x` to binary16 and widen it back: bit for bit
/// `f16::from_f32(x).to_f32()` on every `f32` input, NaN payloads
/// included. Selects rather than branches, so a loop over it vectorizes.
#[inline]
pub fn round_to_f16_grid(x: f32) -> f32 {
    let bits = x.to_bits();
    let mag = bits & 0x7FFF_FFFF;
    // From 65520 up everything overflows to infinity, except NaN, which
    // stays quiet with the ten payload bits binary16 has room for.
    let big = match mag > 0x7F80_0000 {
        true => (bits & 0xFFFF_E000) | 0x0040_0000,
        false => (bits & 0x8000_0000) | 0x7F80_0000,
    };
    let small = round_to_f16_grid_in_range(x).to_bits();
    f32::from_bits(if mag >= 0x477F_F000 { big } else { small })
}

/// [`round_to_f16_grid`] for `|x| < 65520`, bit for bit (unspecified for
/// NaN, infinities and overflow). With `2^E` the binade of `x` clamped to
/// binary16's smallest normal one, `1.5 · 2^(E+13)` has an f32 ulp of
/// `2^(E-10)`, binary16's spacing in binade `E`: adding it rounds `x` to
/// the grid with the FPU's own ties-to-even, and subtracting it is exact.
#[inline]
pub fn round_to_f16_grid_in_range(x: f32) -> f32 {
    const MIN_NORMAL: f32 = 1.0 / 16384.0;
    let bits = x.to_bits();
    let binade = f32::from_bits(bits & 0x7F80_0000);
    // A compare-and-select, which vectorizes as a plain `maxps`.
    let binade = if binade > MIN_NORMAL {
        binade
    } else {
        MIN_NORMAL
    };
    // Times 1.5 · 2^13; a result of zero gets the sign of `x` back.
    let magic = binade * 12288.0;
    f32::from_bits(((x + magic) - magic).to_bits() | (bits & 0x8000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmul_fadd_rounds_product_to_half() {
        // Pick operands whose product is not representable in f16.
        let a = f16::from_f32(0.1);
        let b = f16::from_f32(3.0);
        let exact = a.to_f32() * b.to_f32();
        let rounded = f16::from_f32(exact).to_f32();
        assert_ne!(exact, rounded, "test needs a product that rounds");
        assert_eq!(hmul_fadd(a, b, 0.0), rounded);
    }
}
