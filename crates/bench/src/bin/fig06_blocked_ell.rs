//! Figure 6: Blocked-ELL SpMM speedup over cublasHgemm at block sizes
//! {4, 8, 16} across the sparsity grid.
//!
//! The shape to reproduce: block 4 is far below 1.0 nearly everywhere,
//! block 8 crosses over around 90% sparsity, block 16 is comfortably
//! above at high sparsity — motivating the paper's search for practical
//! speedup at *small* grain sizes.

use vecsparse::spmm::BlockedEllSpmm;
use vecsparse::util::profile;
use vecsparse_bench::sweeps::DenseCache;
use vecsparse_bench::{device, f2, geomean, quick_mode, Table};
use vecsparse_dlmc::{representative_shapes, SPARSITIES};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;

fn main() {
    let gpu = device();
    let quick = quick_mode();
    let shapes: Vec<_> = if quick {
        representative_shapes().into_iter().take(2).collect()
    } else {
        representative_shapes()
    };
    let sparsities: &[f64] = if quick { &[0.7, 0.95] } else { &SPARSITIES };
    let n = 256;
    let mut dense = DenseCache::new(&gpu);

    println!("Figure 6 — Blocked-ELL SpMM speedup over cublasHgemm, N={n}");
    println!();
    let mut t = Table::new(vec!["sparsity", "block=4", "block=8", "block=16"]);
    for &s in sparsities {
        let mut cols: [Vec<f64>; 3] = Default::default();
        for shape in &shapes {
            let rows = shape.rows.div_ceil(16) * 16;
            let k = shape.cols.div_ceil(16) * 16;
            let base = dense.hgemm_cycles(rows, k, n);
            let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, 7);
            for (i, block) in [4usize, 8, 16].into_iter().enumerate() {
                let ell = gen::random_blocked_ell::<f16>(rows, k, block, s, 0xE11 ^ block as u64);
                let p = profile(&gpu, |mem, mode| BlockedEllSpmm::new(mem, &ell, &b, mode));
                cols[i].push(base / p.cycles);
            }
        }
        t.row(vec![
            format!("{s:.2}"),
            f2(geomean(&cols[0])),
            f2(geomean(&cols[1])),
            f2(geomean(&cols[2])),
        ]);
    }
    t.print();
    println!();
    println!(
        "Expected shape (paper): block 4 stays below 1x, block 8 needs ≥90% sparsity,\n\
         block 16 achieves clear speedup at high sparsity."
    );
}
