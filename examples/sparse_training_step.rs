//! §8 Case 1: one training step of a layer with a square-block sparse
//! weight matrix, computed entirely with the vecsparse kernels:
//!
//! ```text
//! forward:   V = W · X           (SpMM)
//! backward:  ∂L/∂X = Wᵀ · ∂L/∂V  (SpMM on the transposed encoding)
//! gradient:  ∂L/∂W = ∂L/∂V · Xᵀ  (SDDMM masked by W's structure)
//! ```
//!
//! Square `V × V` nonzero blocks make both `W` and `Wᵀ` expressible in
//! the column-vector sparse encoding, so the same kernels serve every
//! stage. Results are validated against dense references.
//!
//! ```text
//! cargo run --release --example sparse_training_step
//! ```

use vecsparse::engine::Context;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::square_block::{random_square_block_pattern, transpose_square_block};
use vecsparse_formats::{gen, reference, Layout};
use vecsparse_fp16::f16;

fn main() {
    let ctx = Context::default();
    let (m, k, batch) = (128, 256, 64); // W: m×k, X: k×batch.
    let v = 4;

    // A square-block pruned weight matrix at 85% sparsity.
    let pattern = random_square_block_pattern(m, k, v, 0.85, 1);
    let w = gen::fill_pattern::<f16>(pattern.clone(), 2);
    let x = gen::random_dense::<f16>(k, batch, Layout::RowMajor, 3);
    println!(
        "W: {m}x{k}, {:.0}% sparse, square {v}x{v} blocks; X: {k}x{batch}",
        100.0 * pattern.sparsity()
    );

    // Forward: V = W · X.
    let out = ctx.spmm(&w, &x, SpmmAlgo::Octet);
    let want = reference::spmm_vs(&w, &x);
    println!("forward  SpMM   max|err| = {}", out.max_abs_diff(&want));

    // Backward data gradient: ∂L/∂X = Wᵀ · ∂L/∂V. The transposed weight
    // is again in column-vector sparse encoding thanks to the square
    // blocks — no new kernel needed.
    let wt = transpose_square_block(&w);
    let dv = gen::random_dense::<f16>(m, batch, Layout::RowMajor, 4);
    let dx = ctx.spmm(&wt, &dv, SpmmAlgo::Octet);
    let dx_want = reference::spmm_vs(&wt, &dv);
    println!("backward SpMM   max|err| = {}", dx.max_abs_diff(&dx_want));

    // Weight gradient: ∂L/∂W = ∂L/∂V · Xᵀ, but only at W's nonzeros —
    // exactly an SDDMM with W's pattern as the mask.
    let xt = x.transpose().to_layout(Layout::ColMajor);
    let dw = ctx.sddmm(&dv, &xt, &pattern, SddmmAlgo::OctetArch);
    let dw_want = reference::sddmm(&dv, &xt, &pattern);
    let worst = dw
        .values()
        .iter()
        .zip(dw_want.values())
        .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
        .fold(0.0f32, f32::max);
    println!("gradient SDDMM  max|err| = {worst}");

    println!();
    println!(
        "All three stages of the training step run on the same two sparse\n\
         kernels; the gradient stays inside W's sparsity pattern by\n\
         construction, so the mask never densifies during training."
    );
}
