//! One SpMM plan's outputs and profiles, shared by the differential grid
//! tests; a test file that uses it declares
//! `#[path = "common/stack.rs"] mod stack;`.

use vecsparse::engine::ContextBuilder;
use vecsparse::SpmmAlgo;
use vecsparse_formats::{gen, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, MemoStats};

/// One SpMM plan's outputs and profiles, in comparable form.
#[derive(Debug, PartialEq)]
pub struct Stack {
    out: DenseMatrix<f16>,
    batch: Vec<DenseMatrix<f16>>,
    /// `csv_row` and cycle bits of each profile.
    profiles: Vec<(String, u64)>,
}

/// An `algo` plan over `a` on a small-GPU context from `builder`: one
/// run, a three-element batch, then three profiles. Returns what they
/// produced and the context's memo counters.
pub fn spmm_stack(
    builder: ContextBuilder,
    algo: SpmmAlgo,
    a: &VectorSparse<f16>,
    n: usize,
    seed: u64,
) -> (Stack, Option<MemoStats>) {
    let ctx = builder.gpu(GpuConfig::small()).build();
    let k = a.cols();
    let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);
    let plan = ctx.plan_spmm(a, n, algo);
    let out = plan.run(&b);
    let batch: Vec<DenseMatrix<f16>> = (0..3)
        .map(|i| gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 10 + i))
        .collect();
    let batch = plan.run_batch(&batch);
    let profiles = (0..3)
        .map(|_| {
            let p = plan.profile(&b);
            (p.csv_row(), p.cycles.to_bits())
        })
        .collect();
    (
        Stack {
            out,
            batch,
            profiles,
        },
        ctx.memo_stats(),
    )
}
