//! SpMM kernels: `C = A_sparse · B` with `B`, `C` row-major.

mod blocked_ell;
pub mod compose;
mod csr_scalar;
mod dense;
mod fpu_subwarp;
mod octet;
mod wmma;

pub use blocked_ell::BlockedEllSpmm;
pub use csr_scalar::CsrScalarSpmm;
pub use dense::DenseGemm;
pub use fpu_subwarp::FpuSubwarpSpmm;
pub use octet::OctetSpmm;
pub use wmma::WmmaSpmm;

/// Shard layout for the block-row SpMM family: `block_rows` row blocks
/// of `rows_per_block` scalar rows each (the last possibly ragged at
/// `m`), a dense row-major `m × n` output, and `chunks` CTAs per block
/// row (CTA `c` covers block row `c / chunks`).
pub(crate) fn block_row_shard_layout(
    out: vecsparse_gpu_sim::BufferId,
    block_rows: usize,
    rows_per_block: usize,
    m: usize,
    n: usize,
    chunks: usize,
) -> Option<vecsparse_gpu_sim::ShardLayout> {
    if block_rows == 0 || chunks == 0 {
        return None;
    }
    Some(vecsparse_gpu_sim::ShardLayout {
        out,
        rows: block_rows,
        row_starts: (0..=block_rows)
            .map(|r| ((r * rows_per_block).min(m) * n) as u32)
            .collect(),
        cta_rows: (0..block_rows * chunks)
            .map(|c| ((c / chunks) as u32, (c / chunks) as u32 + 1))
            .collect(),
    })
}
