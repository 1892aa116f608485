//! Blocked-ELL format (cuSPARSE's structured-sparse SpMM input).
//!
//! The matrix is divided into square `b × b` blocks. Every block row stores
//! the **same number** of blocks (`ell_cols / b` of them); rows with fewer
//! real nonzero blocks are padded with zero blocks. Column indices form a
//! dense `(rows / b) × (ell_cols / b)` array, and block values are stored
//! densely, row-major inside each block.

use crate::{DenseMatrix, Layout, Scalar};
use std::sync::Arc;

/// A Blocked-ELL sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockedEll<T> {
    rows: usize,
    cols: usize,
    block: usize,
    /// Width of the ELL slab in scalar columns (`blocks_per_row * block`).
    ell_cols: usize,
    /// `(rows / block) * (ell_cols / block)` block-column indices, row-major.
    /// An index of `u32::MAX` marks an explicit padding block. Shared, so
    /// kernels built over the matrix hold it without copying.
    block_col_idx: Arc<[u32]>,
    /// Block values: for block `(br, j)`, element `(r, c)` lives at
    /// `((br * blocks_per_row + j) * block + r) * block + c`.
    values: Vec<T>,
}

/// Sentinel marking an all-zero padding block.
pub const ELL_PAD: u32 = u32::MAX;

impl<T: Scalar> BlockedEll<T> {
    /// Build from raw arrays.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions.
    pub fn new(
        rows: usize,
        cols: usize,
        block: usize,
        ell_cols: usize,
        block_col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert!(block >= 1);
        assert_eq!(rows % block, 0, "rows must be a multiple of block size");
        assert_eq!(cols % block, 0, "cols must be a multiple of block size");
        assert_eq!(ell_cols % block, 0, "ell_cols must be a multiple of block");
        let block_rows = rows / block;
        let bpr = ell_cols / block;
        assert_eq!(block_col_idx.len(), block_rows * bpr, "index array size");
        assert_eq!(
            values.len(),
            block_rows * bpr * block * block,
            "values size"
        );
        assert!(
            block_col_idx
                .iter()
                .all(|&c| c == ELL_PAD || (c as usize) < cols / block),
            "block column index out of range"
        );
        BlockedEll {
            rows,
            cols,
            block,
            ell_cols,
            block_col_idx: block_col_idx.into(),
            values,
        }
    }

    /// Matrix rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Square block edge length.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// ELL slab width in scalar columns.
    #[inline]
    pub fn ell_cols(&self) -> usize {
        self.ell_cols
    }

    /// Blocks stored per block row (including padding blocks).
    #[inline]
    pub fn blocks_per_row(&self) -> usize {
        self.ell_cols / self.block
    }

    /// Number of block rows.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.rows / self.block
    }

    /// Block-column index of slot `(br, j)` (`ELL_PAD` for padding).
    #[inline]
    pub fn block_col(&self, br: usize, j: usize) -> u32 {
        self.block_col_idx[br * self.blocks_per_row() + j]
    }

    /// The dense values of block slot `(br, j)`, row-major `block × block`.
    #[inline]
    pub fn block_values(&self, br: usize, j: usize) -> &[T] {
        let bb = self.block * self.block;
        let base = (br * self.blocks_per_row() + j) * bb;
        &self.values[base..base + bb]
    }

    /// The raw block-column index array.
    #[inline]
    pub fn block_col_idx(&self) -> &[u32] {
        &self.block_col_idx
    }

    /// The block-column index array as a shared handle, for holders that
    /// outlive the borrow of `self`.
    #[inline]
    pub fn shared_block_col_idx(&self) -> Arc<[u32]> {
        Arc::clone(&self.block_col_idx)
    }

    /// The raw value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Stored scalar count including padding.
    #[inline]
    pub fn stored_len(&self) -> usize {
        self.values.len()
    }

    /// Materialise as a dense matrix (padding blocks contribute zeros).
    pub fn to_dense(&self, layout: Layout) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols, layout);
        for br in 0..self.block_rows() {
            for j in 0..self.blocks_per_row() {
                let bc = self.block_col(br, j);
                if bc == ELL_PAD {
                    continue;
                }
                let vals = self.block_values(br, j);
                for r in 0..self.block {
                    for c in 0..self.block {
                        let val = vals[r * self.block + c];
                        let gr = br * self.block + r;
                        let gc = bc as usize * self.block + c;
                        // Padding slots repeat column 0 in some generators;
                        // accumulate would be wrong, so last-writer-wins and
                        // generators guarantee distinct columns per row.
                        *out.get_mut(gr, gc) = val;
                    }
                }
            }
        }
        out
    }

    /// Total footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * T::bytes() + self.block_col_idx.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlockedEll<f32> {
        // 4x4 matrix, block 2, one block per block row.
        // Block row 0 -> block col 1, block row 1 -> padding.
        let values = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        BlockedEll::new(4, 4, 2, 2, vec![1, ELL_PAD], values)
    }

    #[test]
    fn dense_materialisation() {
        let d = sample().to_dense(Layout::RowMajor);
        assert_eq!(d.get(0, 2), 1.0);
        assert_eq!(d.get(0, 3), 2.0);
        assert_eq!(d.get(1, 2), 3.0);
        assert_eq!(d.get(1, 3), 4.0);
        for c in 0..4 {
            assert_eq!(d.get(2, c), 0.0);
            assert_eq!(d.get(3, c), 0.0);
        }
    }

    #[test]
    fn geometry() {
        let e = sample();
        assert_eq!(e.block_rows(), 2);
        assert_eq!(e.blocks_per_row(), 1);
        assert_eq!(e.stored_len(), 8);
        assert_eq!(e.size_bytes(), 8 * 4 + 2 * 4);
    }

    #[test]
    #[should_panic(expected = "block column index out of range")]
    fn rejects_out_of_range_block() {
        let _ = BlockedEll::<f32>::new(2, 2, 2, 2, vec![3], vec![0.0; 4]);
    }
}
