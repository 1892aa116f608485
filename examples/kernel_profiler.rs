//! Kernel profiler: an Nsight-style report for every SpMM and SDDMM
//! implementation at one problem shape — the raw material behind the
//! paper's Tables 1–3.
//!
//! ```text
//! cargo run --release --example kernel_profiler
//! ```

use vecsparse::engine::Context;
use vecsparse::spmm::BlockedEllSpmm;
use vecsparse::util::profile;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::KernelProfile;

fn report(p: &KernelProfile) {
    print!("{}", p.render());
    println!();
}
fn main() {
    let ctx = Context::default();

    println!("--- SpMM, A(2048x1024) 90% sparse V=4, B(1024x256) ---\n");
    let a = gen::random_vector_sparse::<f16>(2048, 1024, 4, 0.9, 1);
    let b = gen::random_dense::<f16>(1024, 256, Layout::RowMajor, 2);
    for algo in [SpmmAlgo::Octet, SpmmAlgo::Wmma, SpmmAlgo::FpuSubwarp] {
        report(&ctx.profile_spmm(&a, &b, algo));
    }
    // An explicit Blocked-ELL operand, not the engine's surrogate of `a`.
    let ell = gen::random_blocked_ell::<f16>(2048, 1024, 4, 0.9, 3);
    report(&profile(ctx.gpu(), |mem, mode| {
        BlockedEllSpmm::new(mem, &ell, &b, mode)
    }));

    println!("--- SDDMM, A(2048x256) x B(256x1024), mask 90% sparse V=8 ---\n");
    let q = gen::random_dense::<f16>(2048, 256, Layout::RowMajor, 4);
    let kt = gen::random_dense::<f16>(256, 1024, Layout::ColMajor, 5);
    let mask = gen::random_pattern(2048, 1024, 8, 0.9, 6);
    for algo in [
        SddmmAlgo::OctetReg,
        SddmmAlgo::OctetShfl,
        SddmmAlgo::OctetArch,
        SddmmAlgo::Wmma,
        SddmmAlgo::FpuSubwarp,
    ] {
        report(&ctx.profile_sddmm(&q, &kt, &mask, algo));
    }
}
