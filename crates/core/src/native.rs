//! Native lowerings (DESIGN §2j). Every registry kernel's `run_native`
//! is one call here naming its operands and its arithmetic [`Contract`]:
//!
//! * [`spmm_rows`], the SpMM row accumulator: each output row adds its
//!   `(A value, B row)` terms, in the simulated kernel's order, into a row
//!   of `n` f32 accumulators over the contiguous B row;
//! * [`sddmm_vectors`], the SDDMM V-lane dots: a block row's V rows of A
//!   are copied k-major once, then each nonzero vector's V dot products
//!   run together against the contiguous B column in the kernel's own
//!   [`Grouping`];
//! * the FPU HMUL rounding [`round_to_f16_grid`], or the cheaper
//!   [`round_to_f16_grid_in_range`] in a call whose operands' magnitudes
//!   bound every product under 65520;
//!
//! plus [`softmax_row`], the row routine of both softmax kernels.

use crate::compose::TileComponent;
use vecsparse_formats::SparsityPattern;
use vecsparse_fp16::{round_to_f16_grid, round_to_f16_grid_in_range};

/// The arithmetic a lowering reproduces, read off what its kernel
/// declares.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Contract {
    /// Round each product to binary16 before the f32 add (the FPU HMUL).
    hmul: bool,
    /// Round each stored result to binary16.
    round_out: bool,
    /// Drop exact-zero A terms, as the simulated functional path does.
    skip_zero_a: bool,
}

impl Contract {
    /// A kernel with tile component `tile` over `bits`-wide elements: in
    /// half precision the FPU tile rounds every product and every tile
    /// rounds its stores; mma and scalar tiles keep products exact.
    pub(crate) const fn of(tile: TileComponent, bits: u32) -> Contract {
        Contract {
            hmul: bits == 16 && matches!(tile, TileComponent::Fpu),
            round_out: bits == 16,
            skip_zero_a: false,
        }
    }

    /// This contract, dropping exact-zero A terms.
    pub(crate) const fn skipping_zero_a(self) -> Contract {
        Contract {
            skip_zero_a: true,
            ..self
        }
    }

    fn store(self, x: f32) -> f32 {
        match self.round_out {
            true => round_to_f16_grid(x),
            false => x,
        }
    }
}

/// SpMM row accumulator: row `row` of the row-major `out` (`n` columns)
/// is `Σ a · B[k, ..]` over the `(a, k)` of `terms(row)`, every element
/// reduced in that order from `+0.0`.
pub(crate) fn spmm_rows<I, T>(out: &mut [f32], b: &[f32], n: usize, c: Contract, terms: T)
where
    I: Iterator<Item = (f32, usize)>,
    T: Fn(usize) -> I,
{
    if n == 0 {
        return;
    }
    let a = (0..out.len() / n).flat_map(&terms).map(|t| t.0);
    let in_range = c.hmul && in_range(a, b);
    for (row, acc) in out.chunks_exact_mut(n).enumerate() {
        acc.fill(0.0);
        for (a, k) in terms(row).filter(|&(a, _)| !(c.skip_zero_a && a == 0.0)) {
            let b_row = &b[k * n..(k + 1) * n];
            match (c.hmul, in_range) {
                (false, _) => axpy(acc, b_row, |x| a * x),
                (true, true) => axpy(acc, b_row, |x| round_to_f16_grid_in_range(a * x)),
                (true, false) => axpy(acc, b_row, |x| round_to_f16_grid(a * x)),
            }
        }
        for o in acc {
            *o = c.store(*o);
        }
    }
}

#[inline(always)]
fn axpy(acc: &mut [f32], b_row: &[f32], term: impl Fn(f32) -> f32) {
    for (o, &x) in acc.iter_mut().zip(b_row) {
        *o += term(x);
    }
}

/// Whether every product of an `a` and a `b` value is under 65520 in
/// magnitude, so its HMUL may take [`round_to_f16_grid_in_range`]. The
/// magnitudes compare as bits, so a NaN or infinite operand answers no.
fn in_range(a: impl Iterator<Item = f32>, b: &[f32]) -> bool {
    let mag = |x: f32| x.to_bits() & 0x7FFF_FFFF;
    let a_max = a.map(mag).max().unwrap_or(0);
    let b_max = b.iter().copied().map(mag).max().unwrap_or(0);
    f32::from_bits(a_max) * f32::from_bits(b_max) < 65520.0
}

/// [`spmm_rows`] over column-vector sparse values: row `br·V + r` walks
/// block row `br`'s vectors `j` in order, term `(values[j·V + r], col_idx[j])`.
pub(crate) fn spmm_vector_sparse(
    out: &mut [f32],
    b: &[f32],
    n: usize,
    c: Contract,
    pattern: &SparsityPattern,
    values: &[f32],
) {
    let (v, col_idx) = (pattern.v(), pattern.col_idx());
    spmm_rows(out, b, n, c, |row| {
        let r = row % v;
        let terms = pattern.block_row_range(row / v);
        terms.map(move |j| (values[j * v + r], col_idx[j] as usize))
    });
}

/// How an SDDMM kernel groups the `k` terms of one dot product.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Grouping {
    /// One ascending chain (FPU, CSR).
    Flat,
    /// Chunks of this many `k`, each summed from `+0.0` and then added to
    /// the total in order (the wmma `TILE_K` strides).
    Chunks(usize),
    /// The octet mma fragments of this `tile_k`: octet `o` adds the fresh
    /// 4-term chunks `k0 + 16o + 4m + (0..4)` in `(k0, m)` order to its
    /// own partial, and the store sums the four partials.
    Octet(usize),
}

/// SDDMM V-lane dots: `out[j·V + r] = A[br·V + r, ..] · B[.., col_idx[j]]`
/// for every nonzero vector `j` (block row `br`) of `mask`, A row-major and
/// B column-major, `k` deep. Returns `false`, writing nothing, for a
/// vector length outside {1, 2, 4, 8}, so the launch simulates instead.
pub(crate) fn sddmm_vectors(
    out: &mut [f32],
    ab: [&[f32]; 2],
    k: usize,
    mask: &SparsityPattern,
    c: Contract,
    g: Grouping,
) -> bool {
    match mask.v() {
        1 => sddmm_lanes::<1>(out, ab, k, mask, c, g),
        2 => sddmm_lanes::<2>(out, ab, k, mask, c, g),
        4 => sddmm_lanes::<4>(out, ab, k, mask, c, g),
        8 => sddmm_lanes::<8>(out, ab, k, mask, c, g),
        _ => return false,
    }
    true
}

fn sddmm_lanes<const V: usize>(
    out: &mut [f32],
    [a, b]: [&[f32]; 2],
    k: usize,
    mask: &SparsityPattern,
    c: Contract,
    g: Grouping,
) {
    let in_range = c.hmul && in_range(a.iter().copied(), b);
    // The block row's V rows of A, k-major: `at[kk·V + r]`.
    let mut at = vec![0.0f32; k * V];
    for br in (0..mask.block_rows()).filter(|&br| !mask.block_row_range(br).is_empty()) {
        for r in 0..V {
            for kk in 0..k {
                at[kk * V + r] = a[(br * V + r) * k + kk];
            }
        }
        for j in mask.block_row_range(br) {
            let col_j = mask.col_idx()[j] as usize;
            let col = &b[col_j * k..(col_j + 1) * k];
            let dots = match (c.hmul, in_range) {
                (false, _) => dots::<V>(&at, col, g, |x, y| x * y),
                (true, true) => dots::<V>(&at, col, g, |x, y| round_to_f16_grid_in_range(x * y)),
                (true, false) => dots::<V>(&at, col, g, |x, y| round_to_f16_grid(x * y)),
            };
            for (o, d) in out[j * V..(j + 1) * V].iter_mut().zip(dots) {
                *o = c.store(d);
            }
        }
    }
}

/// The V dot products of the k-major lanes `at` against `col`, each term
/// `mul(a, b)`, reduced under `g`. Out of line: one call per nonzero
/// vector, and each multiply optimizes better in a copy of its own.
#[inline(never)]
fn dots<const V: usize>(
    at: &[f32],
    col: &[f32],
    g: Grouping,
    mul: impl Fn(f32, f32) -> f32 + Copy,
) -> [f32; V] {
    let k = col.len();
    let add = |acc: &mut [f32; V], d: [f32; V]| {
        for r in 0..V {
            acc[r] += d[r];
        }
    };
    match g {
        Grouping::Flat => dot(at, col, mul),
        Grouping::Chunks(t) => {
            let mut acc = [0.0; V];
            for (ta, tb) in at.chunks(t * V).zip(col.chunks(t)) {
                add(&mut acc, dot(ta, tb, mul));
            }
            acc
        }
        Grouping::Octet(tile_k) => {
            let mut partial = [[0.0f32; V]; 4];
            for k0 in (0..k).step_by(tile_k) {
                for m in 0..tile_k / 16 {
                    for (o, p) in partial.iter_mut().enumerate() {
                        let lo = k0 + 16 * o + 4 * m;
                        let (lo, hi) = (lo.min(k), (lo + 4).min(k));
                        add(p, dot(&at[lo * V..hi * V], &col[lo..hi], mul));
                    }
                }
            }
            std::array::from_fn(|r| partial.iter().map(|p| p[r]).sum())
        }
    }
}

/// One ascending chain per lane from `+0.0`.
#[inline(always)]
fn dot<const V: usize>(at: &[f32], col: &[f32], mul: impl Fn(f32, f32) -> f32) -> [f32; V] {
    let mut acc = [0.0f32; V];
    for (ak, &bk) in at.chunks_exact(V).zip(col) {
        for r in 0..V {
            acc[r] += mul(ak[r], bk);
        }
    }
    acc
}

/// Two-pass softmax of the row at positions `idx` of `x` into the same
/// positions of `out`: exact max, ascending denominator, one binary16
/// round per stored element.
pub(crate) fn softmax_row(x: &[f32], out: &mut [f32], idx: impl Iterator<Item = usize> + Clone) {
    let maxv = idx.clone().fold(f32::NEG_INFINITY, |m, i| m.max(x[i]));
    let denom: f32 = idx.clone().fold(0.0, |d, i| d + (x[i] - maxv).exp());
    for i in idx {
        out[i] = round_to_f16_grid((x[i] - maxv).exp() / denom);
    }
}
