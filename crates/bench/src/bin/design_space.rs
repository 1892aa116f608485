//! The §5 design-space walk: the three SpMM tilings of Fig. 9 measured
//! side by side — FPU 1-D subwarp tiling (memory-access-optimal), TCU 1-D
//! warp tiling (kernel/compute-optimal), and the TCU 1-D octet tiling
//! that achieves all five guidelines at once.

use vecsparse::engine::Context;
use vecsparse::SpmmAlgo;
use vecsparse_bench::{device, pct, Table};
use vecsparse_dlmc::{Benchmark, LayerShape};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;

fn main() {
    let ctx = Context::builder().gpu(device()).build();
    let shape = LayerShape {
        name: "design_space",
        rows: 2048,
        cols: 1024,
    };
    let b = gen::random_dense::<f16>(1024, 256, Layout::RowMajor, 1);

    println!("Section 5 design space on A(2048x1024) x B(1024x256), 90% sparsity");
    for v in [2usize, 4, 8] {
        let bench = Benchmark::build(shape, v, 0.9);
        println!();
        println!("V = {v}");
        let mut t = Table::new(vec![
            "tiling",
            "cycles",
            "vs octet",
            "grid",
            "static",
            "sectors/req",
            "no-instr",
            "wait",
        ]);
        let profile = |algo| ctx.profile_spmm(&bench.matrix, &b, algo);
        let octet = profile(SpmmAlgo::Octet);
        for (name, p) in [
            ("fpu 1-D subwarp (§5.1)", profile(SpmmAlgo::FpuSubwarp)),
            ("tcu 1-D warp (§5.2)", profile(SpmmAlgo::Wmma)),
            ("tcu 1-D octet (§5.3)", octet.clone()),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:.0}", p.cycles),
                format!("{:.2}x", p.cycles / octet.cycles),
                p.grid.to_string(),
                p.static_instrs.to_string(),
                format!("{:.2}", p.l1.sectors_per_request()),
                pct(p.stalls.pct_no_instruction()),
                pct(p.stalls.pct_wait()),
            ]);
        }
        t.print();
    }
    println!();
    println!(
        "Reading: §5.1 wins on coalescing but loses on program size and FPU math;\n\
         §5.2 fixes compute but halves the transaction width (sectors/req);\n\
         §5.3 keeps the §5.2 compute shape at full LDG.128 efficiency."
    );
}
