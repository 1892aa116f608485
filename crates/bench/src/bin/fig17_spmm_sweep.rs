//! Figure 17: SpMM speedup over cublasHgemm across the full grid —
//! V ∈ {1, 2, 4, 8} × N ∈ {64, 128, 256} × sparsity grid, comparing the
//! FPU subwarp baseline ("fpu"), cuSPARSE Blocked-ELL ("blocked-ELL") and
//! the octet-tiling kernel ("mma"). Geometric means over the DLMC-style
//! suite, like the paper's solid lines.
//!
//! The shape to reproduce: mma wins everywhere; its crossover with the
//! dense baseline moves from ~80% sparsity at V=2 to ~70% at V=4 and
//! ~50% at V=8 (§7.2.1).

use vecsparse::engine::Context;
use vecsparse_bench::sweeps::{spmm_cell, DenseCache};
use vecsparse_bench::{device, f2, geomean, quick_mode, Table};
use vecsparse_dlmc::{representative_shapes, Benchmark, SPARSITIES};

fn main() {
    let ctx = Context::builder().gpu(device()).build();
    let quick = quick_mode();
    let shapes: Vec<_> = if quick {
        representative_shapes().into_iter().take(2).collect()
    } else {
        representative_shapes()
    };
    let sparsities: &[f64] = if quick { &[0.7, 0.9] } else { &SPARSITIES };
    let vs: &[usize] = if quick { &[4] } else { &[1, 2, 4, 8] };
    let ns: &[usize] = if quick { &[256] } else { &[64, 128, 256] };

    println!("Figure 17 — SpMM speedup over cublasHgemm (geomean over suite)");
    for &v in vs {
        for &n in ns {
            println!();
            println!("V={v}, N={n}");
            let mut dense = DenseCache::new(ctx.gpu());
            let mut t = Table::new(vec!["sparsity", "fpu", "blocked-ELL", "mma"]);
            for &s in sparsities {
                let mut fpu = Vec::new();
                let mut ell = Vec::new();
                let mut mma = Vec::new();
                for shape in &shapes {
                    let bench = Benchmark::build(*shape, v, s);
                    let cell = spmm_cell(&ctx, &mut dense, &bench, n);
                    fpu.push(cell.fpu);
                    ell.push(cell.ell);
                    mma.push(cell.mma);
                }
                t.row(vec![
                    format!("{s:.2}"),
                    f2(geomean(&fpu)),
                    f2(geomean(&ell)),
                    f2(geomean(&mma)),
                ]);
            }
            t.print();
        }
    }
    println!();
    println!(
        "Expected shape (paper): mma > fpu and mma > blocked-ELL throughout;\n\
         mma crosses 1.0 near 80%/70%/50% sparsity for V=2/4/8."
    );
}
