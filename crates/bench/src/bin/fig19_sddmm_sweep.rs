//! Figure 19: SDDMM speedup over cublasHgemm across the grid —
//! V ∈ {1, 2, 4, 8} × K ∈ {64, 128, 256} × sparsity, comparing the FPU
//! subwarp baseline ("fpu"), the classic-mapping TCU baseline ("wmma"),
//! and the three octet variants ("mma (reg)", "mma (shfl)", "mma (arch)").
//!
//! The shape to reproduce: the octet variants beat fpu everywhere and
//! beat wmma except at K = 64 with V = 8 (where the cross-octet
//! SHFL+FADD reduction offsets the tiling advantage), and mma (arch)
//! is consistently the fastest variant.

use vecsparse::engine::Context;
use vecsparse_bench::sweeps::{sddmm_cell, DenseCache};
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
    let sparsities: &[f64] = if quick { &[0.9] } else { &SPARSITIES };
    let vs: &[usize] = if quick { &[8] } else { &[1, 2, 4, 8] };
    let ks: &[usize] = if quick { &[256] } else { &[64, 128, 256] };

    println!("Figure 19 — SDDMM speedup over cublasHgemm (geomean over suite)");
    for &v in vs {
        for &k in ks {
            println!();
            println!("V={v}, K={k}");
            let mut dense = DenseCache::new(ctx.gpu());
            let mut t = Table::new(vec![
                "sparsity",
                "fpu",
                "wmma",
                "mma (reg)",
                "mma (shfl)",
                "mma (arch)",
            ]);
            for &s in sparsities {
                let mut acc: [Vec<f64>; 5] = Default::default();
                for shape in &shapes {
                    let bench = Benchmark::build(*shape, v, s);
                    let cell = sddmm_cell(&ctx, &mut dense, &bench, k);
                    acc[0].push(cell.fpu);
                    acc[1].push(cell.wmma);
                    acc[2].push(cell.mma_reg);
                    acc[3].push(cell.mma_shfl);
                    acc[4].push(cell.mma_arch);
                }
                t.row(vec![
                    format!("{s:.2}"),
                    f2(geomean(&acc[0])),
                    f2(geomean(&acc[1])),
                    f2(geomean(&acc[2])),
                    f2(geomean(&acc[3])),
                    f2(geomean(&acc[4])),
                ]);
            }
            t.print();
        }
    }
    println!();
    println!(
        "Expected shape (paper): mma beats fpu 1.27-3.03x and wmma 0.93-1.44x;\n\
         speedup over the dense baseline appears at >=90% sparsity for V=8, K=256;\n\
         mma (arch) >= mma (reg), mma (shfl)."
    );
}
