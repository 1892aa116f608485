//! Table 3: the five guidelines measured on the three SDDMM
//! implementations (MMA = octet reg, CUDA = FPU subwarp, WMMA = classic
//! TCU mapping), at V = 4 and V = 8 on `A(2048×256) × B(256×1024)`
//! masked at 90% sparsity.

use vecsparse::engine::Context;
use vecsparse_bench::sweeps::sddmm_guideline_profiles;
use vecsparse_bench::{device, pct, Table};

fn main() {
    let ctx = Context::builder().gpu(device()).build();
    println!("Table 3 — the 5 guidelines across SDDMM implementations");
    for v in [4usize, 8] {
        println!();
        println!("SDDMM, V={v}  (A 2048x256, B 256x1024, C 90% sparse)");
        let mut t = Table::new(vec![
            "Kernel",
            "No Instruction",
            "# Thread Block",
            "Wait",
            "Short Scoreboard",
            "Sectors/Req",
            "regs/thread",
        ]);
        for (name, p) in sddmm_guideline_profiles(&ctx, v) {
            t.row(vec![
                name,
                pct(p.stalls.pct_no_instruction()),
                format!("{}", p.grid),
                pct(p.stalls.pct_wait()),
                pct(p.stalls.pct_short_scoreboard()),
                format!("{:.2}", p.l1.sectors_per_request()),
                format!("{}", p.regs_per_thread),
            ]);
        }
        t.print();
    }
    println!();
    println!(
        "Expected shape (paper, V=4): CUDA suffers the most Wait/No-Instruction;\n\
         WMMA is limited by Short Scoreboard (shared memory); MMA is clean on all."
    );
}
