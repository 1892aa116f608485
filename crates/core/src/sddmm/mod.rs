//! SDDMM kernels: `C = (A · B) ∘ D` where the binary mask `D` (and hence
//! the output) lives in the column-vector sparse encoding. `A` is
//! row-major `M × K`; `B` is column-major `K × N` (a transposed row-major
//! matrix, as in self-attention's `QKᵀ`).

mod csr;
mod fpu_subwarp;
mod octet;
mod wmma;

pub use csr::CsrSddmm;
pub use fpu_subwarp::FpuSubwarpSddmm;
pub use octet::{OctetSddmm, OctetVariant};
pub use wmma::WmmaSddmm;

use crate::util::{alloc_output, upload_dense, upload_pattern, VsBuffers};
use vecsparse_formats::{DenseMatrix, Scalar, SparsityPattern};
use vecsparse_gpu_sim::{BufferId, MemPool, Mode};

/// Device-side handles of one staged SDDMM problem, in allocation order:
/// the dense operands, the mask's index arrays and the output values.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SddmmBuffers {
    pub(crate) a: BufferId,
    pub(crate) b: BufferId,
    pub(crate) idx: VsBuffers,
    pub(crate) out: BufferId,
}

impl SddmmBuffers {
    /// Stage `a`, `b`, the mask's indices and a `T` output; `mode` decides
    /// whether values are materialised.
    pub(crate) fn upload<T: Scalar>(
        mem: &mut MemPool,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        mask: &SparsityPattern,
        mode: Mode,
    ) -> Self {
        SddmmBuffers {
            a: upload_dense(mem, a, mode),
            b: upload_dense(mem, b, mode),
            idx: upload_pattern(mem, mask),
            out: alloc_output::<T>(mem, mask.nnz(), mode),
        }
    }
}

/// Tile lists: each CTA owns one (block row, vector range) chunk of at
/// most `tile` nonzero vectors. Returns `(block_row, start, len)` triples.
pub(crate) fn vector_tiles(
    pattern: &vecsparse_formats::SparsityPattern,
    tile: usize,
) -> Vec<(usize, usize, usize)> {
    let mut tiles = Vec::new();
    for br in 0..pattern.block_rows() {
        let range = pattern.block_row_range(br);
        let mut start = range.start;
        while start < range.end {
            let len = (range.end - start).min(tile);
            tiles.push((br, start, len));
            start += len;
        }
        if range.is_empty() {
            // Keep an empty tile so every block row has a CTA (grid shape
            // stays data-independent for the scheduler).
            tiles.push((br, range.start, 0));
        }
    }
    tiles
}

/// Shard layout for the tile-list SDDMM family: one row block per
/// pattern block row, output slice `[row_ptr[r] · v, row_ptr[r+1] · v)`
/// of the values buffer, and each tile CTA anchored to its block row.
pub(crate) fn tile_shard_layout(
    out: vecsparse_gpu_sim::BufferId,
    pattern: &vecsparse_formats::SparsityPattern,
    tiles: &[(usize, usize, usize)],
) -> Option<vecsparse_gpu_sim::ShardLayout> {
    if tiles.is_empty() {
        return None;
    }
    let v = pattern.v();
    Some(vecsparse_gpu_sim::ShardLayout {
        out,
        rows: pattern.block_rows(),
        row_starts: pattern.row_ptr().iter().map(|&p| (p * v) as u32).collect(),
        cta_rows: tiles
            .iter()
            .map(|&(br, _, _)| (br as u32, br as u32 + 1))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse_formats::gen;

    #[test]
    fn tiles_cover_all_vectors() {
        let p = gen::random_pattern(64, 256, 4, 0.8, 1);
        let tiles = vector_tiles(&p, 32);
        let total: usize = tiles.iter().map(|t| t.2).sum();
        assert_eq!(total, p.nnz_vectors());
        for &(br, start, len) in &tiles {
            let r = p.block_row_range(br);
            assert!(start >= r.start && start + len <= r.end);
            assert!(len <= 32);
        }
    }
}
