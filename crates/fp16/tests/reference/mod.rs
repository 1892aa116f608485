//! The reference binary16 conversions: the straightforward per-class
//! bodies `f16::from_f32`/`f16::to_f32` had before they became
//! branch-free selects. Every conversion test compares the library
//! against these, bit for bit, and the grid-rounding helpers'
//! correctness argument (DESIGN §2j) rests on them.

use vecsparse_fp16::f16;

/// `f32` → binary16 with round-to-nearest-even: overflow saturates to
/// infinity, underflow gives subnormals or a signed zero, and a NaN stays
/// a quiet NaN with its top ten payload bits.
pub fn from_f32(value: f32) -> f16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN.
        return if man == 0 {
            f16::from_bits(sign | 0x7C00)
        } else {
            f16::from_bits(sign | 0x7C00 | 0x0200 | ((man >> 13) as u16 & 0x03FF))
        };
    }

    let half_exp = exp - 127 + 15;
    if half_exp >= 0x1F {
        // Overflow to infinity.
        return f16::from_bits(sign | 0x7C00);
    }

    if half_exp <= 0 {
        // Subnormal or zero: make the implicit leading 1 explicit before
        // shifting it below the representable range.
        if half_exp < -10 {
            return f16::from_bits(sign);
        }
        let full_man = man | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let halfway = 1u32 << (shift - 1);
        let mut half_man = (full_man >> shift) as u16;
        let rem = full_man & ((1u32 << shift) - 1);
        if rem > halfway || (rem == halfway && (half_man & 1) == 1) {
            half_man += 1; // May carry into the exponent; that is correct.
        }
        return f16::from_bits(sign | half_man);
    }

    // Normal number: round the 23-bit mantissa to 10 bits; a carry may
    // reach the exponent and even infinity, both correct.
    let mut out = sign | ((half_exp as u16) << 10) | ((man >> 13) as u16);
    let rem = man & 0x1FFF;
    if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
        out = out.wrapping_add(1);
    }
    f16::from_bits(out)
}

/// Binary16 → `f32`, exact: subnormals normalise around their highest set
/// bit, and a NaN widens quiet with its payload kept.
pub fn to_f32(h: f16) -> f32 {
    let h = h.to_bits();
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h & 0x7C00) >> 10;
    let man = u32::from(h & 0x03FF);

    let bits = match exp {
        0 if man == 0 => sign, // Signed zero.
        0 => {
            // Subnormal: man * 2^-24 = 1.f * 2^(p-24) for p the top set bit.
            let p = 31 - man.leading_zeros();
            sign | ((103 + p) << 23) | ((man << (23 - p)) & 0x007F_FFFF)
        }
        0x1F if man == 0 => sign | 0x7F80_0000,   // Infinity.
        0x1F => sign | 0x7FC0_0000 | (man << 13), // NaN.
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// Every sign, exponent and top-10-mantissa pattern crossed with the
/// low-13-bit patterns that decide a normal-range rounding: exact, just
/// above exact, just below the tie, the tie, just above the tie, and the
/// largest remainder.
pub fn rounding_classes() -> impl Iterator<Item = f32> {
    (0u32..1 << 19).flat_map(|high| {
        [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF].map(|low| f32::from_bits(high << 13 | low))
    })
}

/// The edges the rounding classes do not reach: signed zeros and
/// infinities, binary16's subnormal range with its ties, f32
/// subnormals, the overflow edge, and NaN payloads of either sign.
pub fn edges() -> Vec<f32> {
    let mut edges = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY];
    // The binary16 subnormal range, its rounding ties and its top edge.
    let tiny = 2.0f32.powi(-24);
    for i in 0..=2048 {
        let x = i as f32 * tiny / 2.0;
        edges.extend([x, -x, x.next_up(), x.next_down()]);
    }
    edges.extend([2.0f32.powi(-14), 2.0f32.powi(-25), 2.0f32.powi(-26)]);
    // f32 subnormals all flush to a signed zero.
    edges.extend([f32::from_bits(1), f32::from_bits(0x007F_FFFF)]);
    // The overflow edge: 65504 is binary16's largest finite value and
    // 65520 the tie that rounds to infinity.
    for x in [65504.0f32, 65519.0, 65520.0, 65536.0, f32::MAX] {
        edges.extend([x, -x, x.next_up(), x.next_down()]);
    }
    // NaN payloads, quiet and signalling, of either sign.
    for payload in [
        1,
        0x1FFF,
        0x2000,
        0x0020_0000,
        0x003F_FFFF,
        0x0040_0000,
        0x007F_FFFF,
    ] {
        let nan = 0x7F80_0000 | payload;
        edges.extend([f32::from_bits(nan), f32::from_bits(nan | 0x8000_0000)]);
    }
    edges
}
