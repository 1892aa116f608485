//! Functional model of the Volta Tensor Core `mma.m8n8k4` operation.
//!
//! A warp drives two TCUs; each TCU is controlled by two octets. Octet
//! `o ∈ {0,1,2,3}` pairs thread group `o` (the **low group**, lanes
//! `4o..4o+4`) with thread group `o+4` (the **high group**, lanes
//! `16+4o..16+4o+4`). Per octet, `mma.m8n8k4` computes an
//! `(8×4)·(4×8) + (8×8)` matrix multiply-accumulate in four HMMA steps
//! (Fig. 2 of the paper):
//!
//! | step | output rows | output cols | Mat_b source |
//! |------|-------------|-------------|--------------|
//! | 0    | 0..4 (low)  | 0..4        | low group    |
//! | 1    | 4..8 (high) | 0..4        | low group    |
//! | 2    | 0..4 (low)  | 4..8        | high group   |
//! | 3    | 4..8 (high) | 4..8        | high group   |
//!
//! Register conventions (per octet):
//! * `a` (4 elems/lane): low-group lane `t` holds A row `t`; high-group
//!   lane `t` holds A row `4+t`.
//! * `b` (4 elems/lane): low-group lane `c` holds B column `c`; high-group
//!   lane `c` holds B column `4+c`.
//! * `acc`/`d` (8 elems/lane): low-group lane `t` holds D row `t`;
//!   high-group lane `t` holds D row `4+t`.
//!
//! The [`MmaFlavor::Switch`] variant implements the paper's proposed
//! `HMMA.884.*.SWITCH` extension (Fig. 15): a pair of multiplexers
//! exchanges which thread group's registers feed the two Mat_a buffers,
//! and the Mat_b select signal is XOR-ed with the switch bit. Writeback is
//! unchanged. [`MmaFlavor::Truncated`] executes only steps 0–1 — the
//! "remove redundant HMMA when V ≤ 4" optimisation the paper leaves to a
//! future SASS assembler (§7.1.3).

use crate::wvec::WVec;
use crate::WARP_SIZE;

/// Number of octets in a warp.
pub const OCTETS: usize = 4;
/// Lanes per octet (two thread groups).
pub const OCTET_SIZE: usize = 8;

/// Variant of the `mma.m8n8k4` execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmaFlavor {
    /// Stock Volta behaviour: four HMMA steps.
    Standard,
    /// Proposed architecture extension: operand sources of the low/high
    /// thread groups are switched inside the TCU (four HMMA steps).
    Switch,
    /// Only steps 0 and 1 execute (columns 4..8 untouched): two HMMA
    /// steps. Models removing redundant HMMAs when V ≤ 4.
    Truncated,
    /// Switch and truncated combined.
    SwitchTruncated,
}

impl MmaFlavor {
    /// Number of HMMA instructions this flavor issues.
    pub fn hmma_count(self) -> usize {
        match self {
            MmaFlavor::Standard | MmaFlavor::Switch => 4,
            MmaFlavor::Truncated | MmaFlavor::SwitchTruncated => 2,
        }
    }

    /// True when operand sources are switched between low/high groups.
    pub fn switched(self) -> bool {
        matches!(self, MmaFlavor::Switch | MmaFlavor::SwitchTruncated)
    }
}

/// Lane id of thread `t` (0..4) in the low (`group_sel = 0`) or high
/// (`group_sel = 1`) thread group of octet `o`.
#[inline]
pub(crate) fn octet_lane(o: usize, group_sel: usize, t: usize) -> usize {
    debug_assert!(o < OCTETS && group_sel < 2 && t < 4);
    group_sel * 16 + 4 * o + t
}

/// Execute `mma.m8n8k4` functionally over all four octets.
///
/// `a` and `b` carry 4 elements per lane, `acc` carries 8. Multiplication
/// is fp16 × fp16 with fp32 accumulation: operands are assumed already on
/// the binary16 grid (they were rounded at load time), so the product is
/// computed in f32 exactly as the TCU's four-element dot-product units do.
///
/// # Panics
/// Panics if operand shapes are wrong.
pub fn execute_mma(a: &WVec, b: &WVec, acc: &mut WVec, flavor: MmaFlavor) {
    assert_eq!(a.elems_per_lane(), 4, "Mat_a fragment must be 4 elems/lane");
    assert_eq!(b.elems_per_lane(), 4, "Mat_b fragment must be 4 elems/lane");
    assert_eq!(acc.elems_per_lane(), 8, "Acc fragment must be 8 elems/lane");
    if acc.is_ghost() {
        return; // Performance mode: no values to compute.
    }

    let steps: &[usize] = match flavor {
        MmaFlavor::Standard | MmaFlavor::Switch => &[0, 1, 2, 3],
        MmaFlavor::Truncated | MmaFlavor::SwitchTruncated => &[0, 1],
    };
    let switched = flavor.switched();
    // Lane `l`'s values sit at `[epl·l, epl·(l + 1))` of the lane-major
    // data; a ghost operand reads as zeros, as `WVec::get` does.
    const ZEROS: [f32; WARP_SIZE * 4] = [0.0; WARP_SIZE * 4];
    let a = if a.is_ghost() { &ZEROS[..] } else { a.data() };
    let b = if b.is_ghost() { &ZEROS[..] } else { b.data() };
    let acc = acc.data_mut();

    for o in 0..OCTETS {
        for &step in steps {
            let row_half = step & 1; // 0: rows 0..4 (low acc), 1: rows 4..8.
            let col_half = step >> 1; // 0: cols 0..4, 1: cols 4..8.

            // Which group's registers feed the Mat_a / Mat_b buffers.
            let a_group = if switched { 1 - row_half } else { row_half };
            let b_group = if switched { 1 - col_half } else { col_half };

            for t in 0..4 {
                let acc_row = 8 * octet_lane(o, row_half, t) + col_half * 4;
                let a_row = &a[4 * octet_lane(o, a_group, t)..][..4];
                for c in 0..4 {
                    let b_row = &b[4 * octet_lane(o, b_group, c)..][..4];
                    let mut sum = acc[acc_row + c];
                    for (x, y) in a_row.iter().zip(b_row) {
                        sum += x * y;
                    }
                    acc[acc_row + c] = sum;
                }
            }
        }
    }
}

/// fp64 shadow twin of [`execute_mma`]: the same octet/step walk, but the
/// dot products accumulate in f64 into `acc`'s shadow storage. Operand
/// shadows come from [`WVec::get_shadow`], whose f32-widening fallback is
/// exact for loaded (binary16-grid) fragments, so the twin tracks what an
/// infinitely-precise accumulator would have produced from the same
/// inputs. Called *in addition to* `execute_mma` when shadow execution is
/// on; it never touches the working f32 values.
///
/// # Panics
/// Panics if operand shapes are wrong.
pub fn execute_mma_shadow(a: &WVec, b: &WVec, acc: &mut WVec, flavor: MmaFlavor) {
    assert_eq!(a.elems_per_lane(), 4, "Mat_a fragment must be 4 elems/lane");
    assert_eq!(b.elems_per_lane(), 4, "Mat_b fragment must be 4 elems/lane");
    assert_eq!(acc.elems_per_lane(), 8, "Acc fragment must be 8 elems/lane");
    if acc.is_ghost() {
        return;
    }

    let steps: &[usize] = match flavor {
        MmaFlavor::Standard | MmaFlavor::Switch => &[0, 1, 2, 3],
        MmaFlavor::Truncated | MmaFlavor::SwitchTruncated => &[0, 1],
    };
    let switched = flavor.switched();

    for o in 0..OCTETS {
        for &step in steps {
            let row_half = step & 1;
            let col_half = step >> 1;
            let a_group = if switched { 1 - row_half } else { row_half };
            let b_group = if switched { 1 - col_half } else { col_half };

            for t in 0..4 {
                let acc_lane = octet_lane(o, row_half, t);
                let a_lane = octet_lane(o, a_group, t);
                for c in 0..4 {
                    let b_lane = octet_lane(o, b_group, c);
                    let mut sum = acc.get_shadow(acc_lane, col_half * 4 + c);
                    for k in 0..4 {
                        sum += a.get_shadow(a_lane, k) * b.get_shadow(b_lane, k);
                    }
                    acc.set_shadow(acc_lane, col_half * 4 + c, sum);
                }
            }
        }
    }
}

/// Host-side reference: per octet, `D = A·B + C` with dense `8×4`, `4×8`,
/// and `8×8` operands. Used by tests to validate [`execute_mma`]'s
/// register distribution.
pub fn mma_m8n8k4_reference(
    a: &[[f32; 4]; 8],
    b: &[[f32; 8]; 4],
    c: &[[f32; 8]; 8],
) -> [[f32; 8]; 8] {
    let mut d = *c;
    for r in 0..8 {
        for col in 0..8 {
            for k in 0..4 {
                d[r][col] += a[r][k] * b[k][col];
            }
        }
    }
    d
}

/// Pack a dense per-octet `A[8][4]` into the warp-level `a` fragment
/// convention (all four octets receive the same matrix; handy in tests).
pub fn pack_a_fragment(a: &[[f32; 4]; 8]) -> WVec {
    let mut w = WVec::zeros(4);
    for o in 0..OCTETS {
        for g in 0..2 {
            for t in 0..4 {
                let lane = octet_lane(o, g, t);
                for k in 0..4 {
                    w.set(lane, k, a[g * 4 + t][k]);
                }
            }
        }
    }
    w
}

/// Pack a dense per-octet `B[4][8]` into the warp-level `b` fragment.
pub fn pack_b_fragment(b: &[[f32; 8]; 4]) -> WVec {
    let mut w = WVec::zeros(4);
    for o in 0..OCTETS {
        for g in 0..2 {
            for c in 0..4 {
                let lane = octet_lane(o, g, c);
                for k in 0..4 {
                    w.set(lane, k, b[k][g * 4 + c]);
                }
            }
        }
    }
    w
}

/// Unpack the accumulator fragment of octet `o` into a dense `8×8`.
pub fn unpack_acc(acc: &WVec, o: usize) -> [[f32; 8]; 8] {
    let mut d = [[0.0f32; 8]; 8];
    for g in 0..2 {
        for t in 0..4 {
            let lane = octet_lane(o, g, t);
            for c in 0..8 {
                d[g * 4 + t][c] = acc.get(lane, c);
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    type Operands = ([[f32; 4]; 8], [[f32; 8]; 4], [[f32; 8]; 8]);

    fn test_operands() -> Operands {
        let mut a = [[0.0f32; 4]; 8];
        let mut b = [[0.0f32; 8]; 4];
        let mut c = [[0.0f32; 8]; 8];
        for r in 0..8 {
            for k in 0..4 {
                a[r][k] = (r * 4 + k) as f32 * 0.125;
            }
        }
        for k in 0..4 {
            for col in 0..8 {
                b[k][col] = 1.0 - (k * 8 + col) as f32 * 0.0625;
            }
        }
        for r in 0..8 {
            for col in 0..8 {
                c[r][col] = ((r + col) % 3) as f32;
            }
        }
        (a, b, c)
    }

    #[test]
    fn standard_mma_matches_reference() {
        let (a, b, c) = test_operands();
        let wa = pack_a_fragment(&a);
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::zeros(8);
        for o in 0..OCTETS {
            for g in 0..2 {
                for t in 0..4 {
                    let lane = octet_lane(o, g, t);
                    for col in 0..8 {
                        acc.set(lane, col, c[g * 4 + t][col]);
                    }
                }
            }
        }
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Standard);
        let want = mma_m8n8k4_reference(&a, &b, &c);
        for o in 0..OCTETS {
            assert_eq!(unpack_acc(&acc, o), want, "octet {o}");
        }
    }

    #[test]
    fn truncated_mma_computes_only_left_half() {
        let (a, b, c) = test_operands();
        let wa = pack_a_fragment(&a);
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::zeros(8);
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Truncated);
        let want = mma_m8n8k4_reference(&a, &b, &c);
        let d = unpack_acc(&acc, 0);
        for r in 0..8 {
            for col in 0..4 {
                // c was zero in acc here, so subtract it from the reference.
                assert_eq!(d[r][col], want[r][col] - c[r][col], "({r},{col})");
            }
            for col in 4..8 {
                assert_eq!(d[r][col], 0.0, "right half must be untouched");
            }
        }
    }

    #[test]
    fn switch_mma_swaps_group_operands() {
        // With SWITCH, the low accumulator rows receive high-group A rows
        // and the Mat_b selection is inverted. Equivalent reference: swap
        // the A row halves and the B column halves, then compare writeback
        // positions unchanged.
        let (a, b, _) = test_operands();
        let wa = pack_a_fragment(&a);
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::zeros(8);
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Switch);

        // Build the equivalent dense computation.
        let mut a_sw = [[0.0f32; 4]; 8];
        for r in 0..8 {
            a_sw[r] = a[(r + 4) % 8]; // Row halves exchanged.
        }
        let mut b_sw = [[0.0f32; 8]; 4];
        for k in 0..4 {
            for col in 0..8 {
                b_sw[k][col] = b[k][(col + 4) % 8]; // Column halves exchanged.
            }
        }
        let want = mma_m8n8k4_reference(&a_sw, &b_sw, &[[0.0; 8]; 8]);
        assert_eq!(unpack_acc(&acc, 0), want);
    }

    #[test]
    fn octets_are_independent() {
        // Give octet 0 different data from the others; outputs must differ.
        let (a, b, _) = test_operands();
        let mut wa = pack_a_fragment(&a);
        // Zero octet 2's A operands (lanes 8..12 and 24..28).
        for g in 0..2 {
            for t in 0..4 {
                let lane = octet_lane(2, g, t);
                for k in 0..4 {
                    wa.set(lane, k, 0.0);
                }
            }
        }
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::zeros(8);
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Standard);
        let d0 = unpack_acc(&acc, 0);
        let d2 = unpack_acc(&acc, 2);
        assert_ne!(d0, d2);
        assert_eq!(d2, [[0.0; 8]; 8]);
    }

    #[test]
    fn hmma_counts() {
        assert_eq!(MmaFlavor::Standard.hmma_count(), 4);
        assert_eq!(MmaFlavor::Switch.hmma_count(), 4);
        assert_eq!(MmaFlavor::Truncated.hmma_count(), 2);
        assert!(MmaFlavor::SwitchTruncated.switched());
    }

    #[test]
    fn shadow_mma_tracks_f64_reference() {
        let (a, b, c) = test_operands();
        let wa = pack_a_fragment(&a);
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::zeros(8);
        for o in 0..OCTETS {
            for g in 0..2 {
                for t in 0..4 {
                    let lane = octet_lane(o, g, t);
                    for col in 0..8 {
                        acc.set(lane, col, c[g * 4 + t][col]);
                    }
                }
            }
        }
        // Shadow before the working pass, as the warp context does.
        execute_mma_shadow(&wa, &wb, &mut acc, MmaFlavor::Standard);
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Standard);
        // The test operands are exact in both f32 and f64, so the twin
        // must agree bit-for-bit with the widened functional result.
        for o in 0..OCTETS {
            for g in 0..2 {
                for t in 0..4 {
                    let lane = octet_lane(o, g, t);
                    for col in 0..8 {
                        assert_eq!(
                            acc.get_shadow(lane, col),
                            f64::from(acc.get(lane, col)),
                            "octet {o} lane {lane} col {col}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_acc_is_noop() {
        let (a, b, _) = test_operands();
        let wa = pack_a_fragment(&a);
        let wb = pack_b_fragment(&b);
        let mut acc = WVec::ghost(8, crate::trace::Tok::NONE);
        execute_mma(&wa, &wb, &mut acc, MmaFlavor::Standard);
        assert!(acc.is_ghost());
    }
}
