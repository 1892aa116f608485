//! Table 1: top pipeline-stall reasons of the Blocked-ELL SpMM kernel at
//! block size 4 on `A(2048×1024) × B(1024×256)`, 90% sparsity.
//!
//! The shape to reproduce: "No Instruction" (L0 icache overflow) leads,
//! followed by "Wait" (fixed-latency integer address chains) and "Short
//! Scoreboard" (shared-memory round trips).

use vecsparse::spmm::BlockedEllSpmm;
use vecsparse::util::profile;
use vecsparse_bench::{device, pct, Table};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;

fn main() {
    let gpu = device();
    let ell = gen::random_blocked_ell::<f16>(2048, 1024, 4, 0.9, 0xE11);
    let b = gen::random_dense::<f16>(1024, 256, Layout::RowMajor, 1);
    let p = profile(&gpu, |mem, mode| BlockedEllSpmm::new(mem, &ell, &b, mode));

    println!("Table 1 — stall reasons, Blocked-ELL SpMM, block size 4");
    println!("(paper: No Instruction 42.6% | Wait 21.0% | Short Scoreboard 11.9%)");
    println!();
    let mut t = Table::new(vec![
        "Block Size",
        "No Instruction",
        "Wait",
        "Short Scoreboard",
        "Long Scoreboard",
        "static SASS lines",
    ]);
    t.row(vec![
        "4".to_string(),
        pct(p.stalls.pct_no_instruction()),
        pct(p.stalls.pct_wait()),
        pct(p.stalls.pct_short_scoreboard()),
        pct(p.stalls.pct_long_scoreboard()),
        format!("{}", p.static_instrs),
    ]);
    t.print();
}
