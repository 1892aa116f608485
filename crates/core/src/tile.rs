//! Tile layer of the kernel composer: the octet fragment wiring shared
//! by the SpMM and SDDMM mma kernels.
//!
//! The simulator's `mma.m8n8k4` model expects operands in the canonical
//! Volta fragment convention — lane `(o, g, t)` of octet `o`, thread
//! group `g`, thread `t` holds a fixed slice of the `8×4`/`4×8` tile.
//! The kernels load operands in *coalescing-friendly* lane layouts
//! instead (guidelines IV & V), so each mma is preceded by a marshal
//! step mapping the loaded layout onto the fragment convention —
//! standing in for the operand-bus wiring the paper's mapping is
//! designed around. Those marshals used to be duplicated per kernel;
//! this module is the single copy, parameterised by the stage-layer
//! geometry ([`crate::compose::TilingScheme`]) where the kernels differ.

use vecsparse_gpu_sim::{Tok, WVec};

/// Lane of thread `t` in group `g` (0 = low, 1 = high) of octet `o` —
/// the Volta HMMA lane mapping every fragment convention builds on.
#[inline]
pub fn octet_lane(o: usize, g: usize, t: usize) -> usize {
    g * 16 + 4 * o + t
}

/// Marshal the SpMM B fragment loaded by `ldg_b` (lane `8j + c` holds
/// the 8 halves `B[col_j][n0 + 8c .. 8c+8]`) into one of the two mma
/// Mat_a fragments: `a_sel = 0` covers transposed-output rows 0–31,
/// `a_sel = 1` covers rows 32–63.
pub fn marshal_spmm_mat_a(loaded: &WVec, a_sel: usize) -> WVec {
    if loaded.is_ghost() {
        return WVec::ghost(4, loaded.tok());
    }
    let mut a = WVec::zeros(4);
    for o in 0..4 {
        for g in 0..2 {
            for t in 0..4 {
                let n_local = 32 * a_sel + 8 * o + 4 * g + t;
                for j in 0..4 {
                    let v = loaded.get(8 * j + n_local / 8, n_local % 8);
                    a.set(octet_lane(o, g, t), j, v);
                }
            }
        }
    }
    a.set_tok(loaded.tok());
    a
}

/// Marshal the SpMM A-vector fragment (vectors `4·step ..` of the
/// stride's shared-memory stage, where the staged load holds vector `s`
/// in lane `s`, elements `0..V`) into the mma Mat_b fragment: lane `c`
/// of each group holds output column `4g + c`'s four k-values.
/// `tile_k` bounds the staged window (the stage layer's
/// [`crate::compose::TilingScheme::tile_k`]).
pub fn marshal_spmm_mat_b(
    staged: &WVec,
    step: usize,
    v_len: usize,
    tile_k: usize,
    tok: Tok,
) -> WVec {
    if staged.is_ghost() {
        return WVec::ghost(4, tok);
    }
    let mut b = WVec::zeros(4);
    for o in 0..4 {
        for g in 0..2 {
            for c in 0..4 {
                let col = 4 * g + c;
                if col >= v_len {
                    continue;
                }
                for k in 0..4 {
                    let vec_idx = step * 4 + k;
                    if vec_idx < tile_k {
                        b.set(octet_lane(o, g, c), k, staged.get(vec_idx, col));
                    }
                }
            }
        }
    }
    b.set_tok(tok);
    b
}

/// Marshal one SDDMM operand fragment for octet k-slice `m` at stride
/// base `k0`. The two SDDMM operands use the *same* loaded layout — a
/// `limit × tile_k` half-matrix flattened across two 8-element register
/// vectors (lane `l` of part `li` holds halves `256·li + 8l ..+8`) —
/// and differ only in `limit` (columns of the gathered-B fragment,
/// `V` rows of the A fragment) and the global k bound `k_max`. Lane
/// `(o, g, x)` receives position `4g + x`'s four k-values; with
/// `switch` the groups are pre-swapped so the SWITCH HMMA's in-TCU
/// operand mux restores them.
#[allow(clippy::too_many_arguments)] // Fragment geometry is clearer flat.
pub fn marshal_sddmm_frag(
    loaded: &[WVec; 2],
    limit: usize,
    tile_k: usize,
    k0: usize,
    m: usize,
    k_max: usize,
    switch: bool,
    tok: Tok,
) -> WVec {
    if loaded[0].is_ghost() {
        return WVec::ghost(4, tok);
    }
    let mut f = WVec::zeros(4);
    for o in 0..4 {
        for g in 0..2 {
            for x in 0..4 {
                let pos = 4 * g + x;
                if pos >= limit {
                    continue;
                }
                for kk in 0..4 {
                    let k = 16 * o + 4 * m + kk;
                    if k0 + k >= k_max {
                        continue;
                    }
                    let flat = pos * tile_k + k;
                    let (li, rest) = (flat / 256, flat % 256);
                    let v = loaded[li].get(rest / 8, rest % 8);
                    let lane = if switch {
                        octet_lane(o, 1 - g, x)
                    } else {
                        octet_lane(o, g, x)
                    };
                    f.set(lane, kk, v);
                }
            }
        }
    }
    f.set_tok(tok);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the Volta lane mapping: 4 threads per octet per group, groups
    /// 16 lanes apart, octets 4 lanes apart.
    #[test]
    fn octet_lane_layout_is_pinned() {
        assert_eq!(octet_lane(0, 0, 0), 0);
        assert_eq!(octet_lane(0, 0, 3), 3);
        assert_eq!(octet_lane(1, 0, 0), 4);
        assert_eq!(octet_lane(3, 0, 3), 15);
        assert_eq!(octet_lane(0, 1, 0), 16);
        assert_eq!(octet_lane(3, 1, 3), 31);
        let all: Vec<usize> = (0..2)
            .flat_map(|g| (0..4).flat_map(move |o| (0..4).map(move |t| octet_lane(o, g, t))))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "bijective over warp");
    }

    /// The SpMM Mat_a marshal puts `B[col_j][n_local]` (loaded lane
    /// `8j + n_local/8`, element `n_local%8`) at fragment lane
    /// `(o, g, t)` with `n_local = 32·a_sel + 8o + 4g + t`, element `j`.
    #[test]
    fn spmm_mat_a_marshal_is_pinned() {
        let mut loaded = WVec::zeros(8);
        // Encode (j, flat-half index) so every slot is distinguishable.
        for l in 0..32 {
            for e in 0..8 {
                loaded.set(l, e, (l * 8 + e) as f32);
            }
        }
        let a = marshal_spmm_mat_a(&loaded, 1);
        // Octet 2, high group, thread 3 → n_local = 32 + 16 + 4 + 3 = 55.
        // k-value j sits in loaded lane 8j + 6, element 7.
        for j in 0..4 {
            assert_eq!(a.get(octet_lane(2, 1, 3), j), ((8 * j + 6) * 8 + 7) as f32);
        }
    }

    /// The SpMM Mat_b marshal reads staged vector `4·step + k`, element
    /// `col`, bounded by `tile_k`; out-of-window slots stay 0.0.
    #[test]
    fn spmm_mat_b_marshal_respects_stage_window() {
        let mut staged = WVec::zeros(8);
        for l in 0..32 {
            for e in 0..8 {
                staged.set(l, e, (100 * l + e) as f32);
            }
        }
        let b = marshal_spmm_mat_b(&staged, 3, 8, 16, Tok::NONE);
        // step 3, k=0..4 → vec_idx 12..16, all inside tile_k = 16.
        for g in 0..2 {
            for c in 0..4 {
                let col = 4 * g + c;
                for k in 0..4 {
                    assert_eq!(b.get(octet_lane(0, g, c), k), (100 * (12 + k) + col) as f32);
                }
            }
        }
        // step 4 would read vec_idx 16.. — outside the 16-vector stage.
        let out = marshal_spmm_mat_b(&staged, 4, 8, 16, Tok::NONE);
        for lane in 0..32 {
            for k in 0..4 {
                assert_eq!(out.get(lane, k), 0.0);
            }
        }
    }

    /// The unified SDDMM marshal reproduces both legacy wirings: flat
    /// position `pos·tile_k + (16o + 4m + kk)` split across the two
    /// loaded register vectors, group-swapped under `switch`.
    #[test]
    fn sddmm_frag_marshal_is_pinned() {
        let mut lo = WVec::zeros(8);
        let mut hi = WVec::zeros(8);
        for l in 0..32 {
            for e in 0..8 {
                lo.set(l, e, (l * 8 + e) as f32);
                hi.set(l, e, (256 + l * 8 + e) as f32);
            }
        }
        let loaded = [lo, hi];
        let f = marshal_sddmm_frag(&loaded, 8, 64, 0, 2, 64, false, Tok::NONE);
        // pos = 5 (g=1, x=1), octet 3, m=2, kk=1 → k = 57, flat = 377.
        assert_eq!(f.get(octet_lane(3, 1, 1), 1), 377.0);
        // Same slot with switch: value lands on the low-group lane.
        let fs = marshal_sddmm_frag(&loaded, 8, 64, 0, 2, 64, true, Tok::NONE);
        assert_eq!(fs.get(octet_lane(3, 0, 1), 1), 377.0);
        // k_max clips the trailing k-slice: k0 = 32 with k_max 64 keeps
        // only octets 0 and 1 (k = 16o + .. < 32).
        let clipped = marshal_sddmm_frag(&loaded, 8, 64, 32, 0, 64, false, Tok::NONE);
        assert_eq!(clipped.get(octet_lane(2, 0, 0), 0), 0.0);
        assert_ne!(clipped.get(octet_lane(1, 0, 0), 0), 0.0);
    }
}
