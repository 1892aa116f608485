//! Column-vector sparse encoding (CVSE) — the paper's §4 contribution.
//!
//! A sparse `M × K` matrix is viewed as `M / V` *block rows* of height `V`.
//! Every nonzero is a dense `V × 1` column vector inside one block row, and
//! the vectors are indexed exactly like CSR scalars: `row_ptr` over block
//! rows, one `col_idx` entry per nonzero vector, and values stored with the
//! `V` elements of each vector contiguous (so a vector is loadable with one
//! `half2`/`half4`/`float4` vector memory operation).
//!
//! `V = 1` degenerates to plain CSR, which is how the fine-grained baselines
//! are driven through the same code paths.

use crate::{Csr, DenseMatrix, Layout, Scalar};
use std::sync::Arc;

/// The structure (indices only) of a column-vector sparse matrix.
///
/// SDDMM consumes the output structure as a binary mask, so the pattern is
/// its own type that [`VectorSparse`] embeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparsityPattern {
    rows: usize,
    cols: usize,
    v: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl SparsityPattern {
    /// Build from raw CSR-of-vectors arrays.
    ///
    /// `rows` must be a multiple of `v`; `row_ptr` has `rows / v + 1`
    /// entries; every column index must be `< cols`.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn new(rows: usize, cols: usize, v: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Self {
        assert!(v >= 1, "vector length must be positive");
        assert_eq!(rows % v, 0, "rows must be a multiple of the vector length");
        assert_eq!(row_ptr.len(), rows / v + 1, "row_ptr length");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "nnz mismatch");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        assert!(
            col_idx.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        SparsityPattern {
            rows,
            cols,
            v,
            row_ptr,
            col_idx,
        }
    }

    /// Matrix rows (scalar rows, not block rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column vector length V (the grain height).
    #[inline]
    pub fn v(&self) -> usize {
        self.v
    }

    /// Number of block rows (`rows / v`).
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.rows / self.v
    }

    /// Number of nonzero column vectors.
    #[inline]
    pub fn nnz_vectors(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of nonzero scalars (`nnz_vectors * v`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len() * self.v
    }

    /// Fraction of zero entries.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The nonzero-vector index range of block row `br`.
    #[inline]
    pub fn block_row_range(&self, br: usize) -> core::ops::Range<usize> {
        self.row_ptr[br]..self.row_ptr[br + 1]
    }

    /// Row pointer array over block rows.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (one entry per nonzero vector).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// True if the scalar entry `(row, col)` falls inside a stored vector.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        let br = row / self.v;
        self.block_row_range(br)
            .any(|i| self.col_idx[i] as usize == col)
    }

    /// Index-array footprint in bytes (4-byte indices and row pointers).
    pub fn index_bytes(&self) -> usize {
        self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }
}

/// A sparse matrix in column-vector sparse encoding: a [`SparsityPattern`]
/// plus the packed vector values. The pattern is shared: clones, casts and
/// the kernels built over the matrix hold it without copying.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorSparse<T> {
    pattern: Arc<SparsityPattern>,
    /// `pattern.nnz()` values; vector `i` occupies
    /// `values[i * v .. (i + 1) * v]`, element `e` of the vector being the
    /// scalar at row `br * v + e`.
    values: Vec<T>,
}

impl<T: Scalar> VectorSparse<T> {
    /// Pair a pattern with its values.
    ///
    /// # Panics
    /// Panics if `values.len() != pattern.nnz()`.
    pub fn new(pattern: impl Into<Arc<SparsityPattern>>, values: Vec<T>) -> Self {
        let pattern = pattern.into();
        assert_eq!(values.len(), pattern.nnz(), "values length");
        VectorSparse { pattern, values }
    }

    /// Extract nonzero vectors from a dense matrix: a `V × 1` vector is kept
    /// iff any of its elements is nonzero (zeros inside a kept vector are
    /// stored explicitly, exactly like the encoding prescribes).
    pub fn from_dense(dense: &DenseMatrix<T>, v: usize) -> Self {
        assert_eq!(dense.rows() % v, 0, "rows must be a multiple of v");
        let block_rows = dense.rows() / v;
        let mut row_ptr = Vec::with_capacity(block_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for br in 0..block_rows {
            for c in 0..dense.cols() {
                let any = (0..v).any(|e| dense.get(br * v + e, c) != T::ZERO);
                if any {
                    col_idx.push(c as u32);
                    for e in 0..v {
                        values.push(dense.get(br * v + e, c));
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        VectorSparse {
            pattern: Arc::new(SparsityPattern::new(
                dense.rows(),
                dense.cols(),
                v,
                row_ptr,
                col_idx,
            )),
            values,
        }
    }

    /// Materialise as a dense matrix.
    pub fn to_dense(&self, layout: Layout) -> DenseMatrix<T> {
        let p = &self.pattern;
        let mut out = DenseMatrix::zeros(p.rows, p.cols, layout);
        for br in 0..p.block_rows() {
            for i in p.block_row_range(br) {
                let c = p.col_idx[i] as usize;
                for e in 0..p.v {
                    *out.get_mut(br * p.v + e, c) = self.values[i * p.v + e];
                }
            }
        }
        out
    }

    /// The index structure.
    #[inline]
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// The index structure as a shared handle, for holders that outlive
    /// the borrow of `self`.
    #[inline]
    pub fn shared_pattern(&self) -> Arc<SparsityPattern> {
        Arc::clone(&self.pattern)
    }

    /// Packed values (vector-major).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The `V` values of nonzero vector `i`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[T] {
        let v = self.pattern.v;
        &self.values[i * v..(i + 1) * v]
    }

    /// Matrix rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.pattern.rows
    }

    /// Matrix columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.pattern.cols
    }

    /// Column vector length V.
    #[inline]
    pub fn v(&self) -> usize {
        self.pattern.v
    }

    /// Convert values to another precision, sharing the structure.
    pub fn cast<U: Scalar>(&self) -> VectorSparse<U> {
        VectorSparse {
            pattern: self.pattern.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f32(v.to_f32()))
                .collect(),
        }
    }

    /// Total footprint in bytes (values + indices).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * T::bytes() + self.pattern.index_bytes()
    }

    /// Lower to scalar CSR (each vector element becomes one CSR nonzero).
    /// With `v == 1` this is a structural identity; it is how fine-grained
    /// kernels consume vector-sparse data in the tests.
    pub fn to_csr(&self) -> Csr<T> {
        let p = &self.pattern;
        let mut row_ptr = Vec::with_capacity(p.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..p.rows {
            let br = r / p.v;
            let e = r % p.v;
            for i in p.block_row_range(br) {
                col_idx.push(p.col_idx[i]);
                values.push(self.values[i * p.v + e]);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::new(p.rows, p.cols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Fig. 8: a 12-row matrix with V = 4, values
    /// 0..=11 over three block rows with column indices [0,2,6], [3], [1,6].
    fn fig8() -> VectorSparse<f32> {
        let pattern = SparsityPattern::new(12, 8, 4, vec![0, 3, 4, 6], vec![0, 2, 6, 3, 1, 6]);
        // The paper stores csrVal = [0..11] with one value per vector in its
        // illustration; here each vector is 4 elements, so expand: vector i
        // holds [4i, 4i+1, 4i+2, 4i+3] scaled down to the figure's ids.
        let values: Vec<f32> = (0..24).map(|i| i as f32).collect();
        VectorSparse::new(pattern, values)
    }

    #[test]
    fn fig8_structure() {
        let m = fig8();
        assert_eq!(m.pattern().block_rows(), 3);
        assert_eq!(m.pattern().nnz_vectors(), 6);
        assert_eq!(m.pattern().nnz(), 24);
        assert_eq!(m.pattern().row_ptr(), &[0, 3, 4, 6]);
        assert_eq!(m.pattern().col_idx(), &[0, 2, 6, 3, 1, 6]);
    }

    #[test]
    fn dense_roundtrip() {
        let m = fig8();
        let d = m.to_dense(Layout::RowMajor);
        // Vector 3 (block row 1, column 3) holds values 12..16 at rows 4..8.
        assert_eq!(d.get(4, 3), 12.0);
        assert_eq!(d.get(7, 3), 15.0);
        assert_eq!(d.get(4, 0), 0.0);
        let back = VectorSparse::from_dense(&d, 4);
        // from_dense drops the all-zero vector 0 (values 0,1,2,3 include a
        // leading zero but not all-zero), so structure must be preserved.
        assert_eq!(back.pattern(), m.pattern());
    }

    #[test]
    fn from_dense_keeps_vectors_with_any_nonzero() {
        let mut d = DenseMatrix::<f32>::zeros(4, 2, Layout::RowMajor);
        *d.get_mut(2, 1) = 5.0; // One nonzero inside the second half of col 1.
        let m = VectorSparse::from_dense(&d, 2);
        assert_eq!(m.pattern().nnz_vectors(), 1);
        assert_eq!(m.vector(0), &[5.0, 0.0]); // Explicit zero stored.
    }

    #[test]
    fn contains_matches_dense() {
        let m = fig8();
        let d = m.to_dense(Layout::RowMajor);
        for r in 0..12 {
            for c in 0..8 {
                // Pattern containment is at vector granularity: row 0 col 0
                // is inside vector 0 even though its value is 0.0.
                let in_pattern = m.pattern().contains(r, c);
                if d.get(r, c) != 0.0 {
                    assert!(in_pattern, "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn v1_to_csr_is_identity_structure() {
        let d = DenseMatrix::<f32>::from_fn(4, 4, Layout::RowMajor, |r, c| {
            if (r + c) % 3 == 0 {
                (r * 4 + c) as f32 + 1.0
            } else {
                0.0
            }
        });
        let vs = VectorSparse::from_dense(&d, 1);
        let csr = vs.to_csr();
        assert_eq!(csr.to_dense(Layout::RowMajor), d);
        assert_eq!(csr.nnz(), vs.pattern().nnz());
    }

    #[test]
    fn size_accounting() {
        let m = fig8();
        assert_eq!(m.size_bytes(), 24 * 4 + 6 * 4 + 4 * 4);
        let h = m.cast::<vecsparse_fp16::f16>();
        assert_eq!(h.size_bytes(), 24 * 2 + 6 * 4 + 4 * 4);
    }
}
