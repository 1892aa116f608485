//! `round_to_f16_grid` against the reference conversion pair
//! `from_f32(x)` then `to_f32` (see `reference/`), bit for bit, and
//! `round_to_f16_grid_in_range` against it on its domain `|x| < 65520`.

mod reference;

use vecsparse_fp16::{round_to_f16_grid, round_to_f16_grid_in_range};

fn assert_matches(x: f32) {
    let want = reference::to_f32(reference::from_f32(x)).to_bits();
    let got = round_to_f16_grid(x).to_bits();
    assert_eq!(got, want, "input {:#010x} ({x:e})", x.to_bits());
    if x.abs() < 65520.0 {
        let fast = round_to_f16_grid_in_range(x).to_bits();
        assert_eq!(fast, want, "in-range input {:#010x} ({x:e})", x.to_bits());
    }
}

#[test]
fn matches_conversion_on_every_rounding_class() {
    reference::rounding_classes().for_each(assert_matches);
}

#[test]
fn matches_conversion_on_edges() {
    reference::edges().into_iter().for_each(assert_matches);
}

/// Every `f32` bit pattern (about 30 s at release).
#[test]
#[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
fn matches_conversion_on_all_inputs() {
    for bits in 0..=u32::MAX {
        assert_matches(f32::from_bits(bits));
    }
}
