//! Dense matrix container with explicit storage layout.

use crate::Scalar;

/// Storage order of a [`DenseMatrix`].
///
/// Mainstream frameworks store tensors row-major; the paper therefore keeps
/// `B` and `C` row-major for SpMM, while the SDDMM RHS is column-major
/// (a transposed row-major matrix, as in self-attention's `QKᵀ`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Consecutive elements of a row are adjacent in memory.
    RowMajor,
    /// Consecutive elements of a column are adjacent in memory.
    ColMajor,
}

/// A dense `rows × cols` matrix over a [`Scalar`] element type.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize, layout: Layout) -> Self {
        DenseMatrix {
            rows,
            cols,
            layout,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a closure evaluated at each `(row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        layout: Layout,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols, layout);
        for r in 0..rows {
            for c in 0..cols {
                *m.get_mut(r, c) = f(r, c);
            }
        }
        m
    }

    /// Build from a row-major slice of `rows * cols` elements.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        DenseMatrix {
            rows,
            cols,
            layout: Layout::RowMajor,
            data,
        }
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

    /// Storage layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Linear index of `(row, col)` in [`Self::data`].
    #[inline]
    pub fn index_of(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        match self.layout {
            Layout::RowMajor => row * self.cols + col,
            Layout::ColMajor => col * self.rows + row,
        }
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.data[self.index_of(row, col)]
    }

    /// Mutable element at `(row, col)`.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut T {
        let idx = self.index_of(row, col);
        &mut self.data[idx]
    }

    /// The backing storage in layout order.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Re-layout into the requested storage order (copying if it differs).
    pub fn to_layout(&self, layout: Layout) -> DenseMatrix<T> {
        if layout == self.layout {
            return self.clone();
        }
        DenseMatrix::from_fn(self.rows, self.cols, layout, |r, c| self.get(r, c))
    }

    /// Mathematical transpose (keeps the layout tag of `self`).
    pub fn transpose(&self) -> DenseMatrix<T> {
        DenseMatrix::from_fn(self.cols, self.rows, self.layout, |r, c| self.get(c, r))
    }

    /// Convert every element to another precision.
    pub fn cast<U: Scalar>(&self) -> DenseMatrix<U> {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            layout: self.layout,
            data: self.data.iter().map(|v| U::from_f32(v.to_f32())).collect(),
        }
    }

    /// Storage footprint in bytes (used by the peak-memory accounting).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * T::bytes()
    }

    /// Max absolute elementwise difference against another matrix, in f32.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix<T>) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f32;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let d = (self.get(r, c).to_f32() - other.get(r, c).to_f32()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_row_major() {
        let m = DenseMatrix::<f32>::from_fn(2, 3, Layout::RowMajor, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn indexing_col_major() {
        let m = DenseMatrix::<f32>::from_fn(2, 3, Layout::ColMajor, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.data(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn relayout_preserves_values() {
        let m = DenseMatrix::<f32>::from_fn(3, 4, Layout::RowMajor, |r, c| (r * 4 + c) as f32);
        let cm = m.to_layout(Layout::ColMajor);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), cm.get(r, c));
            }
        }
    }

    #[test]
    fn transpose_swaps_shape() {
        let m = DenseMatrix::<f32>::from_fn(2, 3, Layout::RowMajor, |r, c| (r + c) as f32);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn cast_to_half_and_back() {
        use vecsparse_fp16::f16;
        let m = DenseMatrix::<f32>::from_fn(2, 2, Layout::RowMajor, |r, c| (r + c) as f32 + 0.5);
        let h: DenseMatrix<f16> = m.cast();
        let back: DenseMatrix<f32> = h.cast();
        assert_eq!(m, back); // All values are exactly representable.
        assert_eq!(h.size_bytes(), m.size_bytes() / 2);
    }
}
