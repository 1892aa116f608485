//! Figure 18: total bytes loaded from L2 into L1 — column-vector sparse
//! encoding vs Blocked-ELL — on the profiling problem across sparsities.
//!
//! The claim to reproduce (§4's argument made measurable): data reuse is
//! independent of the block's column count, so the vector-sparse kernel
//! moves no more L2→L1 traffic than the Blocked-ELL kernel, at every
//! sparsity level.

use vecsparse::engine::Context;
use vecsparse::spmm::BlockedEllSpmm;
use vecsparse::util::profile;
use vecsparse::SpmmAlgo;
use vecsparse_bench::{device, quick_mode, Table};
use vecsparse_dlmc::{Benchmark, LayerShape, SPARSITIES};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;

fn main() {
    let ctx = Context::builder().gpu(device()).build();
    let quick = quick_mode();
    let sparsities: &[f64] = if quick { &[0.7, 0.9] } else { &SPARSITIES };
    let vs: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let shape = LayerShape {
        name: "profile_2048x1024",
        rows: 2048,
        cols: 1024,
    };
    let n = 256;
    let b = gen::random_dense::<f16>(1024, n, Layout::RowMajor, 1);

    println!("Figure 18 — bytes L2 -> L1, Blocked-ELL vs vector-sparse (2048x1024x{n})");
    for &v in vs {
        println!();
        println!("V = block = {v}");
        let mut t = Table::new(vec![
            "sparsity",
            "Blocked-ELL (MB)",
            "Vector-Sparse (MB)",
            "ratio",
        ]);
        for &s in sparsities {
            let bench = Benchmark::build(shape, v, s);
            let ell = bench.blocked_ell_twin();
            let pe = profile(ctx.gpu(), |mem, mode| {
                BlockedEllSpmm::new(mem, &ell, &b, mode)
            });
            let pv = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::Octet);
            let mb = |x: u64| x as f64 / 1e6;
            t.row(vec![
                format!("{s:.2}"),
                format!("{:.1}", mb(pe.bytes_l2_to_l1())),
                format!("{:.1}", mb(pv.bytes_l2_to_l1())),
                format!(
                    "{:.2}",
                    pv.bytes_l2_to_l1() as f64 / pe.bytes_l2_to_l1().max(1) as f64
                ),
            ]);
        }
        t.print();
    }
    println!();
    println!("Expected shape (paper): vector-sparse ≤ Blocked-ELL at every sparsity.");
}
