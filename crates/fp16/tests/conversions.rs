//! `f16::to_f32` and `f16::from_f32` against the reference conversions
//! in `reference/`, bit for bit: `to_f32` on every binary16 value,
//! `from_f32` on every rounding class and edge (and, ignored by default,
//! on every `f32` bit pattern); and the round trip `from_f32(to_f32(h))`
//! on every binary16 value.

mod reference;

use vecsparse_fp16::f16;

fn assert_from_f32_matches(x: f32) {
    let want = reference::from_f32(x).to_bits();
    let got = f16::from_f32(x).to_bits();
    assert_eq!(
        got,
        want,
        "input {:#010x} ({x:e}): got {got:#06x}, want {want:#06x}",
        x.to_bits()
    );
}

#[test]
fn to_f32_matches_reference_on_every_half() {
    for bits in 0..=u16::MAX {
        let h = f16::from_bits(bits);
        let want = reference::to_f32(h).to_bits();
        let got = h.to_f32().to_bits();
        assert_eq!(
            got, want,
            "half {bits:#06x}: got {got:#010x}, want {want:#010x}"
        );
    }
}

/// Every binary16 value but a signalling NaN survives widening and
/// narrowing bit for bit, and a signalling NaN comes back quieted. No
/// `from_f32` result is a signalling NaN, so with the 2^32 sweeps of
/// `from_f32` (below) and of `round_to_f16_grid` (`round_grid.rs`)
/// against the reference conversions this proves
/// `from_f32(round_to_f16_grid(x)) == from_f32(x)` for every `f32` `x`:
/// a store may narrow once where the simulated path rounds to the grid
/// and then narrows.
#[test]
fn every_half_round_trips_through_f32_bit_for_bit() {
    for bits in 0..=u16::MAX {
        let h = f16::from_bits(bits);
        let quiet = match h.is_nan() {
            true => bits | 0x0200,
            false => bits,
        };
        let back = f16::from_f32(h.to_f32()).to_bits();
        assert_eq!(back, quiet, "half {bits:#06x}: back as {back:#06x}");
    }
}

#[test]
fn from_f32_matches_reference_on_every_rounding_class() {
    reference::rounding_classes().for_each(assert_from_f32_matches);
}

#[test]
fn from_f32_matches_reference_on_edges() {
    reference::edges()
        .into_iter()
        .for_each(assert_from_f32_matches);
}

/// Every `f32` bit pattern (tens of seconds at release).
#[test]
#[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
fn from_f32_matches_reference_on_all_inputs() {
    for bits in 0..=u32::MAX {
        assert_from_f32_matches(f32::from_bits(bits));
    }
}
