//! Sensitivity analysis: how robust are the reproduction's headline
//! conclusions to the simulator's timing constants?
//!
//! Every constant in `Timing::volta()` is a literature-derived estimate,
//! not a measurement of the authors' testbed. This binary perturbs the
//! most influential ones (DRAM bandwidth, L2 latency, icache penalty,
//! tensor-pipe throughput) by ±50–100% and re-measures the V = 4,
//! N = 256 SpMM speedups at 70% and 90% sparsity. The claim that must
//! survive: **octet > blocked-ELL > fpu, and octet ≳ 1× vs dense at 70%
//! and clearly >1× at 90%.**

use vecsparse::engine::Context;
use vecsparse_bench::sweeps::{spmm_cell, DenseCache};
use vecsparse_bench::{f2, geomean, Table};
use vecsparse_dlmc::{representative_shapes, Benchmark};
use vecsparse_gpu_sim::GpuConfig;

fn measure(gpu: &GpuConfig, sparsity: f64) -> (f64, f64, f64) {
    let ctx = Context::builder().gpu(gpu.clone()).build();
    let mut dense = DenseCache::new(gpu);
    let mut fpu = Vec::new();
    let mut ell = Vec::new();
    let mut mma = Vec::new();
    for shape in representative_shapes() {
        let bench = Benchmark::build(shape, 4, sparsity);
        let cell = spmm_cell(&ctx, &mut dense, &bench, 256);
        fpu.push(cell.fpu);
        ell.push(cell.ell);
        mma.push(cell.mma);
    }
    (geomean(&fpu), geomean(&ell), geomean(&mma))
}

fn main() {
    let variants: Vec<(&str, GpuConfig)> = vec![
        ("baseline (Volta constants)", GpuConfig::default()),
        ("DRAM bandwidth x0.5", {
            let mut g = GpuConfig::default();
            g.dram_bytes_per_cycle *= 0.5;
            g
        }),
        ("DRAM bandwidth x2", {
            let mut g = GpuConfig::default();
            g.dram_bytes_per_cycle *= 2.0;
            g
        }),
        ("L2 hit latency x2", {
            let mut g = GpuConfig::default();
            g.timing.l2_hit_latency *= 2;
            g
        }),
        ("DRAM latency x2", {
            let mut g = GpuConfig::default();
            g.timing.dram_latency *= 2;
            g
        }),
        ("icache penalty x2", {
            let mut g = GpuConfig::default();
            g.timing.icache_miss_penalty *= 2;
            g
        }),
        ("icache penalty x0.5", {
            let mut g = GpuConfig::default();
            g.timing.icache_miss_penalty /= 2;
            g
        }),
        ("tensor pipe 2x slower", {
            let mut g = GpuConfig::default();
            g.timing.hmma_issue *= 2;
            g
        }),
        (
            "half the SMs (40)",
            GpuConfig {
                num_sms: 40,
                ..GpuConfig::default()
            },
        ),
    ];

    println!("Sensitivity of SpMM speedups (V=4, N=256, geomean over suite)");
    println!();
    let mut t = Table::new(vec![
        "machine variant",
        "S=0.7 fpu",
        "S=0.7 ell",
        "S=0.7 mma",
        "S=0.9 fpu",
        "S=0.9 ell",
        "S=0.9 mma",
    ]);
    let mut all_hold = true;
    for (name, gpu) in &variants {
        let (f7, e7, m7) = measure(gpu, 0.7);
        let (f9, e9, m9) = measure(gpu, 0.9);
        all_hold &= m7 > e7 && m7 > f7 && m9 > e9 && m9 > f9 && m9 > 1.0 && m7 > 0.8;
        t.row(vec![
            name.to_string(),
            f2(f7),
            f2(e7),
            f2(m7),
            f2(f9),
            f2(e9),
            f2(m9),
        ]);
    }
    t.print();
    println!();
    println!(
        "headline conclusions hold under every perturbation: {}",
        if all_hold {
            "YES"
        } else {
            "NO — inspect the table"
        }
    );
}
