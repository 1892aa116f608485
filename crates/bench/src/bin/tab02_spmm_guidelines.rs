//! Table 2: the five kernel-design guidelines measured on the three SpMM
//! implementations (MMA = octet tiling, CUDA = FPU subwarp, Blocked-ELL),
//! at V = 4 and V = 8 on the profiling problem.
//!
//! Columns map to guidelines: "No Instruction" → I (program size),
//! "# Thread Block" → II (TLP), "Wait" → III (fixed-latency ops),
//! "Short Scoreboard" → IV (shared-memory use), "Sectors/Req" → V
//! (coalescing/vector width).

use vecsparse::engine::Context;
use vecsparse_bench::sweeps::spmm_guideline_profiles;
use vecsparse_bench::{device, pct, Table};

fn main() {
    let ctx = Context::builder().gpu(device()).build();
    println!("Table 2 — the 5 guidelines across SpMM implementations");
    for v in [4usize, 8] {
        println!();
        println!("SpMM, V={v}  (A 2048x1024, B 1024x256, 90% sparsity)");
        let mut t = Table::new(vec![
            "Kernel",
            "No Instruction",
            "# Thread Block",
            "Wait",
            "Short Scoreboard",
            "Sectors/Req",
            "static instrs",
        ]);
        for (name, p) in spmm_guideline_profiles(&ctx, v) {
            t.row(vec![
                name,
                pct(p.stalls.pct_no_instruction()),
                format!("{}", p.grid),
                pct(p.stalls.pct_wait()),
                pct(p.stalls.pct_short_scoreboard()),
                format!("{:.2}", p.l1.sectors_per_request()),
                format!("{}", p.static_instrs),
            ]);
        }
        t.print();
    }
    println!();
    println!(
        "Expected shape (paper, V=4): MMA 1.1%/2048/4.7%/4.5%/12.56;\n\
         CUDA 11.0%/2048/11.6%/2.6%/4.04; Blocked-ELL 42.6%/1024/21.0%/11.9%/14.92."
    );
}
