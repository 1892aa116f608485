//! `round_to_f16_grid` against the reference conversion pair
//! `f16::from_f32(x).to_f32()`, bit for bit, and
//! `round_to_f16_grid_in_range` against it on its domain `|x| < 65520`.

use vecsparse_fp16::{f16, round_to_f16_grid, round_to_f16_grid_in_range};

fn assert_matches(x: f32) {
    let want = f16::from_f32(x).to_f32().to_bits();
    let got = round_to_f16_grid(x).to_bits();
    assert_eq!(got, want, "input {:#010x} ({x:e})", x.to_bits());
    if x.abs() < 65520.0 {
        let fast = round_to_f16_grid_in_range(x).to_bits();
        assert_eq!(fast, want, "in-range input {:#010x} ({x:e})", x.to_bits());
    }
}

/// Every sign, exponent and top-10-mantissa pattern crossed with the
/// low-13-bit patterns that decide a normal-range rounding: exact, just
/// above exact, just below the tie, the tie, just above the tie, and the
/// largest remainder.
#[test]
fn matches_conversion_on_every_rounding_class() {
    for high in 0u32..1 << 19 {
        for low in [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF] {
            assert_matches(f32::from_bits(high << 13 | low));
        }
    }
}

#[test]
fn matches_conversion_on_edges() {
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
    for x in edges {
        assert_matches(x);
    }
}

/// Every `f32` bit pattern (about 30 s at release).
#[test]
#[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
fn matches_conversion_on_all_inputs() {
    for bits in 0..=u32::MAX {
        assert_matches(f32::from_bits(bits));
    }
}
