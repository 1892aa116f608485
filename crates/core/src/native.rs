//! Native lowerings (DESIGN §2j). Every registry kernel's `run_native`
//! is one call here naming its operands and its arithmetic [`Contract`]:
//!
//! * [`spmm_rows`], the SpMM row accumulator: each output row adds its
//!   `(A value, B row)` terms, in the simulated kernel's order, into a row
//!   of `n` f32 accumulators over the contiguous B row;
//! * [`sddmm_vectors`], the SDDMM V-lane dots: a block row's V rows of A
//!   are copied k-major (and widened) once, then each nonzero vector's V
//!   dot products run together against the contiguous B column in the
//!   kernel's own [`Grouping`];
//! * the FPU HMUL rounding [`round_to_f16_grid`], or the cheaper
//!   [`round_to_f16_grid_in_range`] for a row (block row, for SDDMM)
//!   whose operands' magnitudes bound every product under 65520;
//!
//! plus [`softmax_rows`], the row routine of both softmax kernels.
//!
//! The operands arrive as stored, binary16 for the half kernels. Each
//! input element is widened to f32 at most once per run: the dense B of
//! SpMM and SDDMM and the softmax input into this thread's reused
//! [`Scratch`], each SpMM A term as its row reads it (after the zero
//! test, which reads the stored bits), SDDMM's A rows inside their
//! k-major copy. No axpy or dot loop converts. Every result is stored
//! with one `T::from_f32`, which for binary16 is bit for bit the
//! simulated path's `round_to_f16_grid` store followed by its narrowing
//! write.

use crate::compose::TileComponent;
use std::cell::RefCell;
use vecsparse_formats::{Scalar, SparsityPattern};
use vecsparse_fp16::{f16, round_to_f16_grid, round_to_f16_grid_in_range};

/// The arithmetic a lowering reproduces, read off what its kernel
/// declares. The store width is the element type's.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Contract {
    /// Round each product to binary16 before the f32 add (the FPU HMUL).
    hmul: bool,
    /// Drop exact-zero A terms, as the simulated functional path does.
    skip_zero_a: bool,
}

impl Contract {
    /// A kernel with tile component `tile` over `bits`-wide elements: in
    /// half precision the FPU tile rounds every product; mma and scalar
    /// tiles keep products exact.
    pub(crate) const fn of(tile: TileComponent, bits: u32) -> Contract {
        Contract {
            hmul: bits == 16 && matches!(tile, TileComponent::Fpu),
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

    /// The largest magnitude in `b` when products are rounded, for the
    /// HMUL's range check; 0 otherwise.
    fn b_max(self, b: &[f32]) -> f32 {
        match self.hmul {
            true => max_mag(b.iter().copied()),
            false => 0.0,
        }
    }
}

/// One thread's f32 working set, reused by every lowering that runs on
/// the thread, so a process holds one per thread rather than one per
/// plan.
#[derive(Default)]
struct Scratch {
    /// The widened dense operand (SpMM's B, SDDMM's B, softmax's input).
    dense: Vec<f32>,
    /// SpMM: one output row's accumulators. SDDMM: the k-major A lanes.
    rows: Vec<f32>,
    /// SpMM with HMUL: one output row's widened `(a, k)` terms.
    terms: Vec<(f32, usize)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// `xs` widened into `buf`, which is cleared first.
fn widen<'b, T: Scalar>(buf: &'b mut Vec<f32>, xs: &[T]) -> &'b [f32] {
    buf.clear();
    buf.extend(xs.iter().map(|x| x.to_f32()));
    buf
}

/// The largest magnitude among `xs`, compared as bits, so a NaN counts
/// above infinity.
fn max_mag(xs: impl Iterator<Item = f32>) -> f32 {
    f32::from_bits(xs.map(|x| x.to_bits() & 0x7FFF_FFFF).max().unwrap_or(0))
}

/// Whether every product of two values bounded by the magnitudes `a` and
/// `b` is under 65520, so its HMUL may take [`round_to_f16_grid_in_range`].
/// A NaN or infinite bound answers no.
fn in_range(a: f32, b: f32) -> bool {
    a * b < 65520.0
}

/// SpMM row accumulator: row `row` of the row-major `out` (`n` columns)
/// is `Σ a · B[k, ..]` over the `(a, k)` of `terms(row)`, every element
/// reduced in that order from `+0.0`.
pub(crate) fn spmm_rows<T, I, F>(out: &mut [T], b: &[T], n: usize, c: Contract, terms: F)
where
    T: Scalar,
    I: Iterator<Item = (T, usize)>,
    F: Fn(usize) -> I,
{
    if n == 0 {
        return;
    }
    SCRATCH.with_borrow_mut(|s| {
        let b = widen(&mut s.dense, b);
        s.rows.resize(n, 0.0);
        accumulate_rows(out, b, &mut s.rows, &mut s.terms, c, terms);
    });
}

/// [`spmm_rows`] over the widened `b`, with `acc` (`n` long) and
/// `row_terms` as scratch. Its own function, so the slices it is handed
/// are known not to alias.
fn accumulate_rows<T, I, F>(
    out: &mut [T],
    b: &[f32],
    acc: &mut [f32],
    row_terms: &mut Vec<(f32, usize)>,
    c: Contract,
    terms: F,
) where
    T: Scalar,
    I: Iterator<Item = (T, usize)>,
    F: Fn(usize) -> I,
{
    let n = acc.len();
    let b_row = |k: usize| &b[k * n..(k + 1) * n];
    let b_max = c.b_max(b);
    for (row, out) in out.chunks_exact_mut(n).enumerate() {
        let terms = terms(row)
            .filter(|&(a, _)| !(c.skip_zero_a && a.is_zero()))
            .map(|(a, k)| (a.to_f32(), k));
        acc.fill(0.0);
        if c.hmul {
            // The HMUL's range check needs the row's largest |a| before
            // its first add, so the row's widened terms are kept.
            row_terms.clear();
            row_terms.extend(terms);
            if in_range(max_mag(row_terms.iter().map(|t| t.0)), b_max) {
                for &(a, k) in row_terms.iter() {
                    axpy(acc, b_row(k), |x| round_to_f16_grid_in_range(a * x));
                }
            } else {
                for &(a, k) in row_terms.iter() {
                    axpy(acc, b_row(k), |x| round_to_f16_grid(a * x));
                }
            }
        } else {
            for (a, k) in terms {
                axpy(acc, b_row(k), |x| a * x);
            }
        }
        for (o, &x) in out.iter_mut().zip(acc.iter()) {
            *o = T::from_f32(x);
        }
    }
}

#[inline(always)]
fn axpy(acc: &mut [f32], b_row: &[f32], term: impl Fn(f32) -> f32) {
    for (o, &x) in acc.iter_mut().zip(b_row) {
        *o += term(x);
    }
}

/// [`spmm_rows`] over column-vector sparse values: row `br·V + r` walks
/// block row `br`'s vectors `j` in order, term `(values[j·V + r], col_idx[j])`.
pub(crate) fn spmm_vector_sparse<T: Scalar>(
    out: &mut [T],
    b: &[T],
    n: usize,
    c: Contract,
    pattern: &SparsityPattern,
    values: &[T],
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
pub(crate) fn sddmm_vectors<T: Scalar>(
    out: &mut [T],
    ab: [&[T]; 2],
    k: usize,
    mask: &SparsityPattern,
    c: Contract,
    g: Grouping,
) -> bool {
    match mask.v() {
        1 => sddmm_lanes::<T, 1>(out, ab, k, mask, c, g),
        2 => sddmm_lanes::<T, 2>(out, ab, k, mask, c, g),
        4 => sddmm_lanes::<T, 4>(out, ab, k, mask, c, g),
        8 => sddmm_lanes::<T, 8>(out, ab, k, mask, c, g),
        _ => return false,
    }
    true
}

fn sddmm_lanes<T: Scalar, const V: usize>(
    out: &mut [T],
    [a, b]: [&[T]; 2],
    k: usize,
    mask: &SparsityPattern,
    c: Contract,
    g: Grouping,
) {
    SCRATCH.with_borrow_mut(|s| {
        let b = widen(&mut s.dense, b);
        let b_max = c.b_max(b);
        // The block row's V rows of A, k-major: `at[kk·V + r]`.
        let at = &mut s.rows;
        at.resize(k * V, 0.0);
        for br in (0..mask.block_rows()).filter(|&br| !mask.block_row_range(br).is_empty()) {
            for r in 0..V {
                for kk in 0..k {
                    at[kk * V + r] = a[(br * V + r) * k + kk].to_f32();
                }
            }
            let in_range = c.hmul && in_range(max_mag(at.iter().copied()), b_max);
            for j in mask.block_row_range(br) {
                let col_j = mask.col_idx()[j] as usize;
                let col = &b[col_j * k..(col_j + 1) * k];
                let dots = match (c.hmul, in_range) {
                    (false, _) => dots::<V>(at, col, g, |x, y| x * y),
                    (true, true) => dots::<V>(at, col, g, |x, y| round_to_f16_grid_in_range(x * y)),
                    (true, false) => dots::<V>(at, col, g, |x, y| round_to_f16_grid(x * y)),
                };
                for (o, d) in out[j * V..(j + 1) * V].iter_mut().zip(dots) {
                    *o = T::from_f32(d);
                }
            }
        }
    });
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

/// Two-pass softmax of every row, each given as the positions `idx` of
/// `x` it covers, into the same positions of `out`: exact max, ascending
/// denominator, one binary16 store per element. `x` is widened once.
pub(crate) fn softmax_rows<R>(x: &[f16], out: &mut [f16], rows: impl Iterator<Item = R>)
where
    R: Iterator<Item = usize> + Clone,
{
    SCRATCH.with_borrow_mut(|s| {
        let x = widen(&mut s.dense, x);
        for idx in rows {
            let maxv = idx.clone().fold(f32::NEG_INFINITY, |m, i| m.max(x[i]));
            let denom: f32 = idx.clone().fold(0.0, |d, i| d + (x[i] - maxv).exp());
            for i in idx {
                out[i] = f16::from_f32((x[i] - maxv).exp() / denom);
            }
        }
    });
}
