//! Figure 5: profiling GEMM vs (fine-grained FPU) SpMM under single and
//! half precision on `A(2048×1024) × B(1024×256)`, 90% sparsity.
//!
//! Reproduced counters: L1 missed sectors, max compute-pipe utilisation,
//! and executed math instructions — the three panels of the figure. The
//! shape to reproduce: halving the precision cuts GEMM's missed sectors
//! far more than SpMM's (data reuse), moves GEMM's bound from the FMA
//! pipe to the tensor pipe, and removes >90% of its math instructions.

use vecsparse::engine::Context;
use vecsparse::spmm::{DenseGemm, FpuSubwarpSpmm};
use vecsparse::util::profile;
use vecsparse::SpmmAlgo;
use vecsparse_bench::sweeps::profiling_benchmark;
use vecsparse_bench::{device, Table};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::Pipe;

fn main() {
    let gpu = device();
    let ctx = Context::builder().gpu(gpu.clone()).build();
    let bench = profiling_benchmark(1);
    let (m, k, n) = (bench.rows(), bench.cols(), 256);

    let a32 = gen::random_dense::<f32>(m, k, Layout::RowMajor, 1);
    let b32 = gen::random_dense::<f32>(k, n, Layout::RowMajor, 2);
    let a16 = a32.cast::<f16>();
    let b16 = b32.cast::<f16>();
    let sp32 = bench.matrix.cast::<f32>();
    let sp16 = bench.matrix.clone();
    let rhs32 = b32.clone();
    let rhs16 = b16.clone();

    let gemm_s = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a32, &b32, mode));
    let gemm_h = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a16, &b16, mode));
    let spmm_s = profile(&gpu, |mem, mode| {
        FpuSubwarpSpmm::new(mem, &sp32, &rhs32, mode)
    });
    let spmm_h = ctx.profile_spmm(&sp16, &rhs16, SpmmAlgo::FpuSubwarp);

    println!("Figure 5 — GEMM vs SpMM (V=1, 90% sparsity), 2048x1024x256");
    println!();
    let mut t = Table::new(vec![
        "kernel",
        "precision",
        "L1 missed sectors",
        "max pipe",
        "pipe util",
        "math instructions",
        "cycles",
    ]);
    for (name, p) in [
        ("GEMM", &gemm_s),
        ("GEMM", &gemm_h),
        ("SpMM", &spmm_s),
        ("SpMM", &spmm_h),
    ] {
        let max_pipe = p
            .pipes
            .iter()
            .find(|u| matches!(u.pipe, Pipe::Fp32 | Pipe::Fp16 | Pipe::Tensor))
            .copied();
        t.row(vec![
            name.to_string(),
            if p.instrs.hfma2 > 0 || p.instrs.hmma > 0 {
                "half".into()
            } else {
                "single".into()
            },
            format!("{}", p.l1.sectors_missed),
            max_pipe.map_or("-".into(), |u| format!("{:?}", u.pipe)),
            max_pipe.map_or("-".into(), |u| format!("{:.1}%", 100.0 * u.utilisation)),
            format!("{}", p.instrs.math()),
            format!("{:.0}", p.cycles),
        ]);
    }
    t.print();

    println!();
    let miss_drop_gemm =
        1.0 - gemm_h.l1.sectors_missed as f64 / gemm_s.l1.sectors_missed.max(1) as f64;
    let miss_drop_spmm =
        1.0 - spmm_h.l1.sectors_missed as f64 / spmm_s.l1.sectors_missed.max(1) as f64;
    let instr_drop_gemm = 1.0 - gemm_h.instrs.math() as f64 / gemm_s.instrs.math().max(1) as f64;
    println!(
        "half precision reduces GEMM missed sectors by {:.1}% vs SpMM's {:.1}% \
         (paper: 77.0% vs 48.8%)",
        100.0 * miss_drop_gemm,
        100.0 * miss_drop_spmm
    );
    println!(
        "half precision removes {:.1}% of GEMM math instructions (paper: 92.3%)",
        100.0 * instr_drop_gemm
    );
}
