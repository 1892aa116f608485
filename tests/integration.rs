//! Cross-crate integration tests: the whole stack — formats → simulator →
//! kernels → application — exercised together.

use vecsparse::engine::Context;
use vecsparse::softmax::SparseSoftmax;
use vecsparse::spmm::{BlockedEllSpmm, DenseGemm};
use vecsparse::util::{profile, run};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_dlmc::{Benchmark, LayerShape};
use vecsparse_formats::{gen, reference, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::GpuConfig;
use vecsparse_transformer::attention::{dense_attention_reference, sparse_attention_head};
use vecsparse_transformer::memory::{attention_peak_memory, Precision};
use vecsparse_transformer::AttentionConfig;

/// Every SpMM implementation agrees with the scalar reference on a
/// DLMC-style benchmark instance.
#[test]
fn spmm_stack_on_dlmc_benchmark() {
    let bench = Benchmark::build(
        LayerShape {
            name: "it_layer",
            rows: 64,
            cols: 128,
        },
        4,
        0.8,
    );
    let b = gen::random_dense::<f16>(bench.cols(), 64, Layout::RowMajor, 1);
    let want = reference::spmm_vs(&bench.matrix, &b);
    let ctx = Context::builder().build();
    for algo in [
        SpmmAlgo::Octet,
        SpmmAlgo::FpuSubwarp,
        SpmmAlgo::Dense,
        SpmmAlgo::Auto,
    ] {
        let got = ctx.spmm(&bench.matrix, &b, algo);
        assert_eq!(got.max_abs_diff(&want), 0.0, "{algo:?}");
    }
}

/// Every SDDMM implementation agrees with the scalar reference.
#[test]
fn sddmm_stack_agrees() {
    let a = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 2);
    let bt = gen::random_dense::<f16>(64, 96, Layout::ColMajor, 3);
    let mask = gen::random_pattern(32, 96, 8, 0.75, 4);
    let want = reference::sddmm(&a, &bt, &mask);
    let ctx = Context::builder().build();
    for algo in [
        SddmmAlgo::OctetReg,
        SddmmAlgo::OctetShfl,
        SddmmAlgo::OctetArch,
        SddmmAlgo::FpuSubwarp,
        SddmmAlgo::Wmma,
        SddmmAlgo::Auto,
    ] {
        let got = ctx.sddmm(&a, &bt, &mask, algo);
        for (g, w) in got.values().iter().zip(want.values()) {
            assert_eq!(g, w, "{algo:?}");
        }
    }
}

/// The full sparse attention pipeline (SDDMM → softmax → SpMM through the
/// kernels) matches the dense masked reference.
#[test]
fn attention_pipeline_end_to_end() {
    let gpu = GpuConfig::small();
    let cfg = AttentionConfig {
        seq_len: 96,
        head_dim: 32,
        heads: 1,
        sparsity: 0.7,
        v: 8,
        band: 24,
    };
    let mask = cfg.mask(5);
    let q = gen::random_dense::<f16>(96, 32, Layout::RowMajor, 6);
    let k = gen::random_dense::<f16>(96, 32, Layout::RowMajor, 7);
    let v = gen::random_dense::<f16>(96, 32, Layout::RowMajor, 8);
    let got = sparse_attention_head(&Context::builder().gpu(gpu).build(), &q, &k, &v, &mask);
    let want = dense_attention_reference(&q, &k, &v, &mask);
    assert!(
        got.max_abs_diff(&want) < 5e-3,
        "diff {}",
        got.max_abs_diff(&want)
    );
}

/// Sparse softmax composed after SDDMM keeps rows normalised.
#[test]
fn sddmm_then_softmax_rows_sum_to_one() {
    let gpu = GpuConfig::small();
    let a = gen::random_dense::<f16>(32, 64, Layout::RowMajor, 9);
    let bt = gen::random_dense::<f16>(64, 64, Layout::ColMajor, 10);
    let mask = gen::random_pattern(32, 64, 4, 0.8, 11);
    let scores = Context::builder()
        .build()
        .sddmm(&a, &bt, &mask, SddmmAlgo::OctetArch);
    let probs = run(
        &gpu,
        |mem, mode| SparseSoftmax::new(mem, &scores, mode),
        SparseSoftmax::result,
    );
    let p = probs.pattern();
    for br in 0..p.block_rows() {
        for e in 0..p.v() {
            let sum: f32 = p
                .block_row_range(br)
                .map(|i| probs.values()[i * p.v() + e].to_f32())
                .sum();
            assert!((sum - 1.0).abs() < 0.02, "row {}", br * p.v() + e);
        }
    }
}

/// The performance model's headline orderings hold on a mid-size problem:
/// octet > blocked-ELL > fpu at 90% sparsity, and octet beats dense.
#[test]
fn performance_orderings_hold() {
    let gpu = GpuConfig::default();
    let bench = Benchmark::build(
        LayerShape {
            name: "it_big",
            rows: 1024,
            cols: 1024,
        },
        4,
        0.9,
    );
    let b = gen::random_dense::<f16>(bench.cols(), 256, Layout::RowMajor, 12);
    let ctx = Context::builder().gpu(gpu).build();
    let octet = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::Octet);
    let fpu = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::FpuSubwarp);
    let ell = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::BlockedEll);
    let dense = ctx.profile_spmm(&bench.matrix, &b, SpmmAlgo::Dense);
    // The tuner must agree with the headline ordering: Auto resolves to
    // the octet kernel here and never profiles worse than any fixed algo.
    let auto = ctx.plan_spmm(&bench.matrix, 256, SpmmAlgo::Auto);
    assert_eq!(auto.algo(), SpmmAlgo::Octet);
    assert!(
        octet.cycles < ell.cycles,
        "octet {} ell {}",
        octet.cycles,
        ell.cycles
    );
    assert!(
        octet.cycles < fpu.cycles,
        "octet {} fpu {}",
        octet.cycles,
        fpu.cycles
    );
    assert!(
        octet.cycles < dense.cycles,
        "octet {} dense {}",
        octet.cycles,
        dense.cycles
    );
}

/// SDDMM variant ordering: the SWITCH architecture never loses to the
/// software workarounds.
#[test]
fn sddmm_arch_variant_is_best() {
    let gpu = GpuConfig::default();
    let a = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 13);
    let bt = gen::random_dense::<f16>(256, 512, Layout::ColMajor, 14);
    let mask = gen::random_pattern(512, 512, 8, 0.9, 15);
    let ctx = Context::builder().gpu(gpu).build();
    let arch = ctx.profile_sddmm(&a, &bt, &mask, SddmmAlgo::OctetArch);
    let reg = ctx.profile_sddmm(&a, &bt, &mask, SddmmAlgo::OctetReg);
    let shfl = ctx.profile_sddmm(&a, &bt, &mask, SddmmAlgo::OctetShfl);
    assert!(arch.cycles <= reg.cycles * 1.02);
    assert!(arch.cycles <= shfl.cycles * 1.02);
}

/// Table 4's memory claim end-to-end: dense(float) ≈ 2× dense(half) ≫
/// sparse(half).
#[test]
fn transformer_memory_claims() {
    let cfg = AttentionConfig::paper_lra();
    let f32m = attention_peak_memory(&cfg, 8, Precision::Single, false);
    let f16m = attention_peak_memory(&cfg, 8, Precision::Half, false);
    let sp = attention_peak_memory(&cfg, 8, Precision::Half, true);
    assert!(f32m.total_bytes > f16m.total_bytes);
    assert!(f16m.total_bytes > 5 * sp.total_bytes);
}

/// Half precision makes the dense baseline faster (the §3 premise that
/// raises the bar for sparse kernels).
#[test]
fn half_precision_raises_the_bar() {
    let gpu = GpuConfig::default();
    let a16 = gen::random_dense::<f16>(1024, 512, Layout::RowMajor, 16);
    let b16 = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 17);
    let h = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a16, &b16, mode));
    let a32 = a16.cast::<f32>();
    let b32 = b16.cast::<f32>();
    let s = profile(&gpu, |mem, mode| DenseGemm::new(mem, &a32, &b32, mode));
    assert!(h.cycles * 1.5 < s.cycles, "h {} s {}", h.cycles, s.cycles);
}

/// Kernels handle a block row with zero nonzero vectors (empty rows are
/// common in real pruned models).
#[test]
fn empty_block_rows_are_fine() {
    use vecsparse_formats::{SparsityPattern, VectorSparse};
    // Three block rows (V=4): full, empty, one vector.
    let pattern = SparsityPattern::new(12, 16, 4, vec![0, 3, 3, 4], vec![0, 5, 9, 2]);
    let values: Vec<f16> = (0..16).map(|i| f16::from_f32(i as f32 / 8.0)).collect();
    let a = VectorSparse::new(pattern, values);
    let b = gen::random_dense::<f16>(16, 64, Layout::RowMajor, 20);
    let want = reference::spmm_vs(&a, &b);
    let ctx = Context::builder().build();
    let got = ctx.spmm(&a, &b, SpmmAlgo::Octet);
    assert_eq!(got.max_abs_diff(&want), 0.0);
    let got_fpu = ctx.spmm(&a, &b, SpmmAlgo::FpuSubwarp);
    assert_eq!(got_fpu.max_abs_diff(&want), 0.0);
}

/// The octet SpMM masks its stores correctly when N is not a multiple of
/// the 64-wide tile.
#[test]
fn unaligned_rhs_width() {
    let a = gen::random_vector_sparse::<f16>(16, 64, 4, 0.6, 21);
    let ctx = Context::builder().build();
    for n in [40usize, 72, 100] {
        let b = gen::random_dense::<f16>(64, n, Layout::RowMajor, 22);
        let want = reference::spmm_vs(&a, &b);
        let got = ctx.spmm(&a, &b, SpmmAlgo::Octet);
        assert_eq!(got.max_abs_diff(&want), 0.0, "N={n}");
    }
}

/// The dense softmax kernel normalises rows like the reference.
#[test]
fn dense_softmax_kernel() {
    use vecsparse::softmax::DenseSoftmax;
    use vecsparse_gpu_sim::{Launch, MemPool, Mode};
    let gpu = GpuConfig::small();
    let x = gen::random_dense::<f16>(8, 48, Layout::RowMajor, 23);
    let mut mem = MemPool::new();
    let kernel = DenseSoftmax::new(&mut mem, 8, 48, Mode::Functional);
    for (i, v) in x.data().iter().enumerate() {
        mem.write(kernel.input(), i, v.to_f32());
    }
    Launch::new(&mut mem, &kernel).gpu(&gpu).run();
    let want = reference::softmax_dense(&x);
    for r in 0..8 {
        for c in 0..48 {
            let got = mem.read(kernel.output(), r * 48 + c);
            assert!(
                (got - want.get(r, c).to_f32()).abs() < 2e-3,
                "({r},{c}): {got} vs {}",
                want.get(r, c)
            );
        }
    }
}

/// §8 Case 2: a row-sparse (global attention) pattern runs through the
/// standard kernels unchanged.
#[test]
fn row_sparse_case2() {
    use vecsparse_formats::square_block::row_sparse_pattern;
    let pattern = row_sparse_pattern(32, 48, 8, &[0, 2]);
    let a = gen::fill_pattern::<f16>(pattern.clone(), 24);
    let b = gen::random_dense::<f16>(48, 64, Layout::RowMajor, 25);
    let want = reference::spmm_vs(&a, &b);
    let ctx = Context::builder().build();
    let got = ctx.spmm(&a, &b, SpmmAlgo::Octet);
    assert_eq!(got.max_abs_diff(&want), 0.0);
    // And as an SDDMM mask.
    let q = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 26);
    let kt = gen::random_dense::<f16>(32, 48, Layout::ColMajor, 27);
    let got2 = ctx.sddmm(&q, &kt, &pattern, SddmmAlgo::OctetArch);
    let want2 = reference::sddmm(&q, &kt, &pattern);
    for (g, w) in got2.values().iter().zip(want2.values()) {
        assert_eq!(g, w);
    }
}

/// §8 Case 1 end-to-end: forward, data-gradient, and weight-gradient of
/// a square-block layer all agree with dense references.
#[test]
fn square_block_training_step() {
    use vecsparse_formats::square_block::{random_square_block_pattern, transpose_square_block};
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let pattern = random_square_block_pattern(32, 64, 4, 0.75, 28);
    let w = gen::fill_pattern::<f16>(pattern.clone(), 29);
    let x = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 30);
    assert_eq!(
        ctx.spmm(&w, &x, SpmmAlgo::Octet)
            .max_abs_diff(&reference::spmm_vs(&w, &x)),
        0.0
    );
    let wt = transpose_square_block(&w);
    let dv = gen::random_dense::<f16>(32, 32, Layout::RowMajor, 31);
    assert_eq!(
        ctx.spmm(&wt, &dv, SpmmAlgo::Octet)
            .max_abs_diff(&reference::spmm_vs(&wt, &dv)),
        0.0
    );
    let xt = x.transpose().to_layout(Layout::ColMajor);
    let dw = ctx.sddmm(&dv, &xt, &pattern, SddmmAlgo::OctetArch);
    let dw_want = reference::sddmm(&dv, &xt, &pattern);
    for (g, want) in dw.values().iter().zip(dw_want.values()) {
        assert_eq!(g, want);
    }
}

/// All SpMM kernels handle unaligned N (the row-safe residue stores).
#[test]
fn unaligned_rhs_all_kernels() {
    let a = gen::random_vector_sparse::<f16>(16, 64, 4, 0.7, 32);
    let b = gen::random_dense::<f16>(64, 88, Layout::RowMajor, 33);
    let want = reference::spmm_vs(&a, &b);
    let ctx = Context::builder().build();
    for algo in [SpmmAlgo::Octet, SpmmAlgo::FpuSubwarp] {
        let got = ctx.spmm(&a, &b, algo);
        assert_eq!(got.max_abs_diff(&want), 0.0, "{algo:?}");
    }
    // Blocked-ELL at an unaligned width against its own dense image.
    let ell = gen::random_blocked_ell::<f16>(16, 64, 4, 0.7, 34);
    let got = run(
        &GpuConfig::small(),
        |mem, mode| BlockedEllSpmm::new(mem, &ell, &b, mode),
        BlockedEllSpmm::result,
    );
    let ell_want = reference::gemm(&ell.to_dense(Layout::RowMajor), &b);
    assert_eq!(got.max_abs_diff(&ell_want), 0.0);
}

/// Performance-model scaling invariants: doubling the grid roughly
/// doubles extrapolated instruction counts, and cycles grow monotonically
/// once the machine is saturated.
#[test]
fn extrapolation_scales_with_grid() {
    let gpu = GpuConfig::default();
    let b = gen::random_dense::<f16>(256, 256, Layout::RowMajor, 40);
    let small = gen::random_vector_sparse::<f16>(1024, 256, 4, 0.9, 41);
    let big = gen::random_vector_sparse::<f16>(4096, 256, 4, 0.9, 41);
    let ctx = Context::builder().gpu(gpu).build();
    let ps = ctx.profile_spmm(&small, &b, SpmmAlgo::Octet);
    let pb = ctx.profile_spmm(&big, &b, SpmmAlgo::Octet);
    assert_eq!(pb.grid, 4 * ps.grid);
    let ratio = pb.instrs.total() as f64 / ps.instrs.total() as f64;
    assert!((3.0..5.0).contains(&ratio), "instr ratio {ratio}");
    assert!(pb.cycles > ps.cycles);
}

/// Sparser input means fewer cycles and less traffic for the octet kernel
/// (monotonicity of the whole model stack).
#[test]
fn cycles_monotone_in_sparsity() {
    let gpu = GpuConfig::default();
    let b = gen::random_dense::<f16>(512, 256, Layout::RowMajor, 42);
    let ctx = Context::builder().gpu(gpu).build();
    let mut last = f64::INFINITY;
    for s in [0.5, 0.7, 0.9, 0.98] {
        let a = gen::random_vector_sparse::<f16>(1024, 512, 4, s, 43);
        let p = ctx.profile_spmm(&a, &b, SpmmAlgo::Octet);
        assert!(p.cycles < last, "S={s}: {} !< {last}", p.cycles);
        last = p.cycles;
    }
}

/// Attention-layer latency is monotone in mask density.
#[test]
fn attention_latency_monotone() {
    use vecsparse_transformer::attention::sparse_attention_latency;
    let gpu = GpuConfig::default();
    let mut last = f64::INFINITY;
    for s in [0.85, 0.92, 0.97] {
        let cfg = AttentionConfig {
            seq_len: 1024,
            head_dim: 64,
            heads: 2,
            sparsity: s,
            v: 8,
            band: ((1024.0 * (1.0 - s) / 2.0) as usize).max(8),
        };
        let lat = sparse_attention_latency(&gpu, &cfg).total();
        assert!(lat < last, "S={s}: {lat} !< {last}");
        last = lat;
    }
}

/// Quantising a trained model to f16 changes few predictions (the Table 4
/// quantisation-robustness claim at test scale).
#[test]
fn quantisation_is_benign() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vecsparse_transformer::model::{EvalMode, SyntheticTask, TinyTransformer, TrainConfig};
    let task = SyntheticTask { seq_len: 32 };
    let mut model = TinyTransformer::new(32, 16, 44);
    let cfg = TrainConfig {
        steps: 150,
        ..TrainConfig::default()
    };
    model.train(&task, &cfg, false);
    let mut rng = StdRng::seed_from_u64(45);
    let test = task.batch(200, &mut rng);
    let a32 = model.accuracy(&test, EvalMode::DenseSingle);
    let mut q = TinyTransformer::new(32, 16, 44);
    q.clone_weights_from(&model);
    q.quantise_f16();
    let a16 = q.accuracy(&test, EvalMode::DenseHalf);
    assert!((a32 - a16).abs() <= 0.05, "f32 {a32} f16 {a16}");
}
