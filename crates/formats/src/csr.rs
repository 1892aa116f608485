//! Compressed sparse row format (fine-grained sparsity).

use crate::{DenseMatrix, Layout, Scalar};

/// A CSR sparse matrix: the format consumed by the fine-grained baselines
/// (Sputnik with V = 1, cuSPARSE `cusparseSpMM` on CSR input).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the nonzeros of row `r`.
    row_ptr: Vec<usize>,
    /// Column of each nonzero.
    col_idx: Vec<u32>,
    /// Value of each nonzero.
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Build from raw arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone
    /// row pointers, or out-of-range column indices).
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "nnz mismatch");
        assert_eq!(col_idx.len(), values.len(), "values length");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        assert!(
            col_idx.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extract the nonzeros of a dense matrix (exact-zero test).
    pub fn from_dense(dense: &DenseMatrix<T>) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v != T::ZERO {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materialise as a dense matrix.
    pub fn to_dense(&self, layout: Layout) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols, layout);
        for r in 0..self.rows {
            for i in self.row_range(r) {
                *out.get_mut(r, self.col_idx[i] as usize) = self.values[i];
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of zero entries.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The nonzero index range of row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> core::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// Row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Convert every value to another precision, keeping the structure.
    pub fn cast<U: Scalar>(&self) -> Csr<U> {
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f32(v.to_f32()))
                .collect(),
        }
    }

    /// Storage footprint in bytes (values + indices + row pointers, with
    /// 4-byte indices as the kernels use).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * T::bytes() + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f32> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 0 3 0 ]
        Csr::new(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn roundtrip_dense() {
        let m = sample().to_dense(Layout::RowMajor);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        let back = Csr::from_dense(&m);
        assert_eq!(back, sample());
    }

    #[test]
    fn sparsity_and_nnz() {
        let c = sample();
        assert_eq!(c.nnz(), 3);
        assert!((c.sparsity() - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row_ptr must be monotone")]
    fn rejects_bad_row_ptr() {
        let _ = Csr::<f32>::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn rejects_bad_col_idx() {
        let _ = Csr::<f32>::new(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }
}
