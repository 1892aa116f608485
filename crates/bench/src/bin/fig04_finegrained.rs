//! Figure 4: speedup over cuBLAS with fine-grained sparsity (V = 1),
//! Sputnik-style vs cuSPARSE-style kernels, single and half precision,
//! for SpMM and SDDMM across the sparsity grid.
//!
//! The paper's takeaway this must reproduce: under single precision both
//! fine-grained kernels beat SGEMM from ~80% sparsity, but under half
//! precision they only catch cublasHgemm at extreme sparsity (the TCU +
//! data-reuse advantage of the dense kernel).

use vecsparse::engine::Context;
use vecsparse::sddmm::{CsrSddmm, FpuSubwarpSddmm};
use vecsparse::spmm::{CsrScalarSpmm, FpuSubwarpSpmm};
use vecsparse::util::profile;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_bench::sweeps::DenseCache;
use vecsparse_bench::{device, f2, geomean, quick_mode, rhs_for, Table};
use vecsparse_dlmc::{representative_shapes, Benchmark, SPARSITIES};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;

fn main() {
    let gpu = device();
    let ctx = Context::builder().gpu(gpu.clone()).build();
    let quick = quick_mode();
    let shapes: Vec<_> = if quick {
        representative_shapes().into_iter().take(2).collect()
    } else {
        representative_shapes()
    };
    let sparsities: &[f64] = if quick { &[0.7, 0.95] } else { &SPARSITIES };
    let n = 256;
    let mut dense = DenseCache::new(&gpu);

    println!("Figure 4 — fine-grained sparsity (V=1), speedup over cuBLAS, N={n}");
    println!();
    let mut table = Table::new(vec![
        "sparsity",
        "spmm sputnik(single)",
        "spmm cusparse(single)",
        "spmm sputnik(half)",
        "spmm cusparse(half)",
        "sddmm sputnik(single)",
        "sddmm cusparse(single)",
        "sddmm sputnik(half)",
    ]);

    for &s in sparsities {
        let mut cols: [Vec<f64>; 7] = Default::default();
        for shape in &shapes {
            let bench = Benchmark::build(*shape, 1, s);
            let (m, k) = (bench.rows(), bench.cols());
            let b16 = rhs_for(&bench, n);
            let b32 = b16.cast::<f32>();
            let a16 = bench.matrix.clone();
            let a32 = a16.cast::<f32>();

            let sgemm = dense.sgemm_cycles(m, k, n);
            let hgemm = dense.hgemm_cycles(m, k, n);

            // SpMM: the Sputnik-style subwarp kernel and the cuSPARSE
            // CSR kernel, in both precisions.
            let (c32, c16) = (a32.to_csr(), a16.to_csr());
            let fpu32 = profile(&gpu, |mem, mode| FpuSubwarpSpmm::new(mem, &a32, &b32, mode));
            let csr32 = profile(&gpu, |mem, mode| CsrScalarSpmm::new(mem, &c32, &b32, mode));
            let fpu16 = ctx.profile_spmm(&a16, &b16, SpmmAlgo::FpuSubwarp);
            let csr16 = profile(&gpu, |mem, mode| CsrScalarSpmm::new(mem, &c16, &b16, mode));
            cols[0].push(sgemm / fpu32.cycles);
            cols[1].push(sgemm / csr32.cycles);
            cols[2].push(hgemm / fpu16.cycles);
            cols[3].push(hgemm / csr16.cycles);

            // SDDMM on the same structure as mask: dense inputs m×64 and
            // 64×k (the DLMC SDDMM setup uses the layer as the output).
            let kd = 64;
            let mask = bench.mask();
            let q32 = gen::random_dense::<f32>(m, kd, Layout::RowMajor, 3);
            let t32 = gen::random_dense::<f32>(kd, k, Layout::ColMajor, 4);
            let q16 = q32.cast::<f16>();
            let t16 = t32.cast::<f16>();
            let sgemm_dd = dense.sgemm_cycles(m, kd, k);
            let hgemm_dd = dense.hgemm_cycles(m, kd, k);
            let fpu32 = profile(&gpu, |mem, mode| {
                FpuSubwarpSddmm::new(mem, &q32, &t32, &mask, mode)
            });
            let csr32 = profile(&gpu, |mem, mode| {
                CsrSddmm::new(mem, &q32, &t32, &mask, mode)
            });
            let fpu16 = ctx.profile_sddmm(&q16, &t16, &mask, SddmmAlgo::FpuSubwarp);
            cols[4].push(sgemm_dd / fpu32.cycles);
            cols[5].push(sgemm_dd / csr32.cycles);
            cols[6].push(hgemm_dd / fpu16.cycles);
        }
        table.row(vec![
            format!("{s:.2}"),
            f2(geomean(&cols[0])),
            f2(geomean(&cols[1])),
            f2(geomean(&cols[2])),
            f2(geomean(&cols[3])),
            f2(geomean(&cols[4])),
            f2(geomean(&cols[5])),
            f2(geomean(&cols[6])),
        ]);
    }
    table.print();
    println!();
    println!(
        "Expected shape (paper): single-precision kernels cross 1.0 near 80% sparsity;\n\
         half-precision fine-grained kernels stay below 1.0 until ~98%."
    );
}
