//! Load a DLMC-format `.smtx` matrix, apply the paper's Fig. 16
//! benchmark construction, and profile the kernels on it — the workflow
//! for running the reproduction on the *real* Deep Learning Matrix
//! Collection instead of the synthetic suite.
//!
//! ```text
//! cargo run --release --example load_smtx [path/to/matrix.smtx]
//! ```
//!
//! Without an argument, a small example structure is generated inline.

use vecsparse::engine::Context;
use vecsparse::SpmmAlgo;
use vecsparse_formats::smtx::Smtx;
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            // Synthesize a 256-block-row structure and round-trip it
            // through the text format to demonstrate the parser.
            let p = gen::random_pattern(256, 512, 1, 0.9, 7);
            vecsparse_formats::smtx::pattern_to_smtx(&p).to_text()
        }
    };
    let smtx = Smtx::parse(&text)?;
    println!(
        "loaded {}x{} structure, {} nonzeros ({:.1}% sparse)",
        smtx.rows,
        smtx.cols,
        smtx.nnz(),
        100.0 * smtx.sparsity()
    );

    // Fig. 16: the row pointers and column indices become *vector*
    // pointers/indices; each indexed position gets a random V-vector.
    let ctx = Context::builder().gpu(GpuConfig::default()).build();
    let n = 256;
    for v in [2usize, 4, 8] {
        let a = smtx.to_vector_sparse::<f16>(v, 11)?;
        let b = gen::random_dense::<f16>(a.cols(), n, Layout::RowMajor, 12);
        let octet = ctx.profile_spmm(&a, &b, SpmmAlgo::Octet);
        let dense = ctx.profile_spmm(&a, &b, SpmmAlgo::Dense);
        println!(
            "  V={v}: A is {}x{}, octet {:.0} cycles, dense {:.0} cycles -> {:.2}x",
            a.rows(),
            a.cols(),
            octet.cycles,
            dense.cycles,
            dense.cycles / octet.cycles
        );
    }
    Ok(())
}
