//! Static output layout a kernel publishes for shard certification.
//!
//! A kernel that wants to be provably shardable describes, ahead of any
//! execution, how its output buffer decomposes into *row blocks* and
//! which row blocks each CTA is allowed to write. The footprint
//! certificate checks the kernel's actual traced footprint against this
//! declaration; the declaration alone proves nothing.

use crate::mem::BufferId;

/// A kernel's declared output-row decomposition.
///
/// "Row block" is the kernel's natural row unit: scalar rows for dense
/// GEMM and softmax, vector-sparse block rows (of `v` scalar rows) for
/// the SpMM/SDDMM kernels. Multiple CTAs may map to the same row range
/// (column-split tiles); the ranges need not partition the grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// The output buffer whose element range the row slices partition.
    pub out: BufferId,
    /// Number of row blocks.
    pub rows: usize,
    /// Element offset where each row block's output slice starts;
    /// `row_starts.len() == rows + 1` and the sequence is monotone, so
    /// block `r` owns elements `[row_starts[r], row_starts[r + 1])`.
    pub row_starts: Vec<u32>,
    /// Per-CTA row-block range `[lo, hi)`: the blocks CTA `i` may write.
    pub cta_rows: Vec<(u32, u32)>,
}

impl ShardLayout {
    /// Structural well-formedness against a launch grid: slice table and
    /// CTA map have the right shapes and every range is in bounds.
    pub fn validate(&self, grid: usize) -> Result<(), String> {
        if self.row_starts.len() != self.rows + 1 {
            return Err(format!(
                "row_starts has {} entries for {} rows",
                self.row_starts.len(),
                self.rows
            ));
        }
        if self.row_starts.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_starts is not monotone".to_string());
        }
        if self.cta_rows.len() != grid {
            return Err(format!(
                "cta_rows covers {} CTAs for a grid of {}",
                self.cta_rows.len(),
                grid
            ));
        }
        for (cta, &(lo, hi)) in self.cta_rows.iter().enumerate() {
            if lo > hi || hi as usize > self.rows {
                return Err(format!("cta {cta} maps to bad row range [{lo}, {hi})"));
            }
        }
        Ok(())
    }

    /// Element range `[lo, hi)` of row block `r`'s output slice.
    pub fn slice(&self, r: u32) -> (u32, u32) {
        (self.row_starts[r as usize], self.row_starts[r as usize + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ShardLayout {
        let mut mem = crate::mem::MemPool::new();
        let out = mem.alloc_zeroed(crate::mem::ElemWidth::B32, 12);
        ShardLayout {
            out,
            rows: 3,
            row_starts: vec![0, 4, 8, 12],
            cta_rows: vec![(0, 1), (1, 2), (2, 3)],
        }
    }

    #[test]
    fn well_formed_layout_validates() {
        assert_eq!(layout().validate(3), Ok(()));
        assert_eq!(layout().slice(1), (4, 8));
    }

    #[test]
    fn malformed_layouts_are_rejected() {
        let mut l = layout();
        l.row_starts[2] = 3; // non-monotone
        assert!(l.validate(3).is_err());

        let mut l = layout();
        l.cta_rows[1] = (2, 9); // out of bounds
        assert!(l.validate(3).is_err());

        assert!(layout().validate(5).is_err()); // wrong grid
    }
}
