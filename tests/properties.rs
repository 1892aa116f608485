//! Property-based tests (proptest) over the core data structures and
//! kernel invariants.

use proptest::prelude::*;
use vecsparse::engine::Context;
use vecsparse::softmax::SparseSoftmax;
use vecsparse::util::run;
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, reference, Csr, DenseMatrix, Layout, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::GpuConfig;
use vecsparse_precision::KernelModel;

/// Strategy: a plausible (rows, cols, v, sparsity, seed) tuple with rows
/// divisible by v and everything small enough to run quickly.
fn vs_params() -> impl Strategy<Value = (usize, usize, usize, f64, u64)> {
    (
        1usize..5, // block-row count multiplier
        1usize..5, // column multiplier (×8)
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0.2f64..0.95,
        any::<u64>(),
    )
        .prop_map(|(brm, cm, v, s, seed)| (brm * 8.max(v), cm * 16, v, s, seed))
        .prop_map(|(rows, cols, v, s, seed)| {
            // Ensure rows divisible by v.
            (rows.div_ceil(v) * v, cols, v, s, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Column-vector encoding roundtrips through dense exactly.
    #[test]
    fn cvse_dense_roundtrip((rows, cols, v, s, seed) in vs_params()) {
        let m = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let dense = m.to_dense(Layout::RowMajor);
        let back = VectorSparse::from_dense(&dense, v);
        // Structure may differ only by all-zero vectors the generator
        // created (possible but our generator never emits them: values
        // are nonzero multiples of 1/8... except 0 is in range).
        prop_assert_eq!(back.to_dense(Layout::RowMajor), dense);
    }

    /// Lowering CVSE to CSR preserves the dense image.
    #[test]
    fn cvse_csr_lowering((rows, cols, v, s, seed) in vs_params()) {
        let m = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let csr = m.to_csr();
        prop_assert_eq!(csr.to_dense(Layout::RowMajor), m.to_dense(Layout::RowMajor));
        prop_assert_eq!(csr.nnz(), m.pattern().nnz());
    }

    /// CSR extraction from dense keeps exactly the nonzeros.
    #[test]
    fn csr_from_dense_exact((rows, cols, _v, s, seed) in vs_params()) {
        let m = gen::random_csr::<f32>(rows, cols, s, seed);
        let d = m.to_dense(Layout::RowMajor);
        let back = Csr::from_dense(&d);
        prop_assert_eq!(back.to_dense(Layout::RowMajor), d);
    }

    /// The octet SpMM kernel equals the scalar reference for any
    /// structure (the paper's central functional claim).
    #[test]
    fn octet_spmm_matches_reference((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 64, Layout::RowMajor, seed ^ 1);
        let got = Context::builder().gpu(gpu).build().spmm(&a, &b, SpmmAlgo::Octet);
        let want = reference::spmm_vs(&a, &b);
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// The FPU subwarp kernel equals the reference too.
    #[test]
    fn fpu_spmm_matches_reference((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 64, Layout::RowMajor, seed ^ 2);
        let got = Context::builder().gpu(gpu).build().spmm(&a, &b, SpmmAlgo::FpuSubwarp);
        let want = reference::spmm_vs(&a, &b);
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// SDDMM (arch variant, the SWITCH extension) equals the reference
    /// for any mask structure.
    #[test]
    fn octet_sddmm_matches_reference((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let a = gen::random_dense::<f16>(rows, 64, Layout::RowMajor, seed ^ 3);
        let bt = gen::random_dense::<f16>(64, cols, Layout::ColMajor, seed ^ 4);
        let mask = gen::random_pattern(rows, cols, v, s, seed);
        let got = Context::builder().gpu(gpu).build().sddmm(&a, &bt, &mask, SddmmAlgo::OctetArch);
        let want = reference::sddmm(&a, &bt, &mask);
        for (g, w) in got.values().iter().zip(want.values()) {
            prop_assert_eq!(g, w);
        }
    }

    /// Sparse softmax output rows always sum to one (stored entries).
    #[test]
    fn sparse_softmax_normalised((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let x = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let sm = run(&gpu, |mem, mode| SparseSoftmax::new(mem, &x, mode), SparseSoftmax::result);
        let p = sm.pattern();
        for br in 0..p.block_rows() {
            if p.block_row_range(br).is_empty() {
                continue;
            }
            for e in 0..p.v() {
                let sum: f32 = p
                    .block_row_range(br)
                    .map(|i| sm.values()[i * p.v() + e].to_f32())
                    .sum();
                prop_assert!((sum - 1.0).abs() < 0.03, "sum {}", sum);
            }
        }
    }

    /// The octet SpMM output stays within its static precision
    /// certificate of the exact (all-f64) product — the bound the
    /// analyzer certifies really does dominate real executions.
    #[test]
    fn octet_spmm_within_certificate_of_f64((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 64, Layout::RowMajor, seed ^ 3);
        let got = Context::builder().gpu(gpu).build().spmm(&a, &b, SpmmAlgo::Octet);
        let cert = KernelModel::tcu_reduction(cols).certificate("spmm-octet");
        let ad = a.to_dense(Layout::RowMajor);
        for r in 0..rows {
            for j in 0..64 {
                let mut exact = 0.0f64;
                for l in 0..cols {
                    exact += f64::from(ad.get(r, l).to_f32()) * f64::from(b.get(l, j).to_f32());
                }
                let err = (f64::from(got.get(r, j).to_f32()) - exact).abs();
                prop_assert!(
                    err <= cert.abs_error_bound,
                    "({r},{j}): err {} > bound {}", err, cert.abs_error_bound
                );
            }
        }
    }

    /// Sparse softmax stays within its static certificate of the
    /// all-f64 row softmax over the stored entries.
    #[test]
    fn sparse_softmax_within_certificate_of_f64((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let x = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let got = run(&gpu, |mem, mode| SparseSoftmax::new(mem, &x, mode), SparseSoftmax::result);
        let cert = KernelModel::softmax(cols).certificate("softmax-sparse");
        let p = x.pattern();
        for br in 0..p.block_rows() {
            let range = p.block_row_range(br);
            for e in 0..v {
                let stored = |i: usize| f64::from(x.values()[i * v + e].to_f32());
                let maxv = range.clone().map(stored).fold(f64::NEG_INFINITY, f64::max);
                if maxv == f64::NEG_INFINITY {
                    continue; // Empty scalar row.
                }
                let denom: f64 = range.clone().map(|i| (stored(i) - maxv).exp()).sum();
                for i in range.clone() {
                    let exact = (stored(i) - maxv).exp() / denom;
                    let err = (f64::from(got.values()[i * v + e].to_f32()) - exact).abs();
                    prop_assert!(
                        err <= cert.abs_error_bound,
                        "row {} entry {}: err {} > bound {}",
                        br * v + e, i, err, cert.abs_error_bound
                    );
                }
            }
        }
    }

    /// f16 roundtrip through f32 is exact for every finite value the
    /// generators can produce.
    #[test]
    fn f16_grid_is_stable(q in -64i32..=64) {
        let v = q as f32 / 8.0;
        let h = f16::from_f32(v);
        prop_assert_eq!(h.to_f32(), v);
        prop_assert_eq!(f16::from_f32(h.to_f32()), h);
    }

    /// SpMM is linear in A: scaling all values scales the output.
    #[test]
    fn spmm_scales_linearly((rows, cols, v, s, seed) in vs_params()) {
        let ctx = Context::builder().build();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 32, Layout::RowMajor, seed ^ 5);
        let c1 = ctx.spmm(&a, &b, SpmmAlgo::Octet);
        // Double every value of A (exact in f16 for our range).
        let doubled = VectorSparse::new(
            a.pattern().clone(),
            a.values().iter().map(|x| f16::from_f32(x.to_f32() * 2.0)).collect(),
        );
        let c2 = ctx.spmm(&doubled, &b, SpmmAlgo::Octet);
        for r in 0..c1.rows() {
            for cidx in 0..c1.cols() {
                let x = c1.get(r, cidx).to_f32() * 2.0;
                let y = c2.get(r, cidx).to_f32();
                prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
            }
        }
    }

    /// Dense matrices relayout without value change.
    #[test]
    fn dense_relayout_identity(rows in 1usize..20, cols in 1usize..20, seed in any::<u64>()) {
        let m = gen::random_dense::<f32>(rows, cols, Layout::RowMajor, seed);
        let cm = m.to_layout(Layout::ColMajor);
        let back = cm.to_layout(Layout::RowMajor);
        prop_assert_eq!(m, back);
    }
}

/// Deterministic regression: the DLMC suite builder is stable (structure
/// hashes do not drift between runs).
#[test]
fn dlmc_suite_is_stable() {
    let s1 = vecsparse_dlmc::suite(&[4], &[0.9]);
    let s2 = vecsparse_dlmc::suite(&[4], &[0.9]);
    assert_eq!(s1.len(), s2.len());
    for (a, b) in s1.iter().zip(&s2) {
        assert_eq!(a.matrix, b.matrix);
    }
}

/// The generated benchmarks all have V-aligned rows, as the kernels
/// require.
#[test]
fn dlmc_alignment_invariant() {
    for bench in vecsparse_dlmc::suite(&[2, 4, 8], &[0.5, 0.98]) {
        assert_eq!(bench.rows() % bench.v, 0);
        let d: DenseMatrix<f16> = bench.matrix.to_dense(Layout::RowMajor);
        assert_eq!(d.rows(), bench.rows());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SMTX text roundtrip for arbitrary generated structures.
    #[test]
    fn smtx_text_roundtrip((rows, cols, v, s, seed) in vs_params()) {
        use vecsparse_formats::smtx::{pattern_to_smtx, Smtx};
        let p = gen::random_pattern(rows, cols, v, s, seed);
        let smtx = pattern_to_smtx(&p);
        let again = Smtx::parse(&smtx.to_text()).unwrap();
        prop_assert_eq!(&smtx, &again);
        prop_assert_eq!(again.nnz(), p.nnz_vectors());
        let back = again.to_vector_sparse::<f16>(v, seed).unwrap();
        prop_assert_eq!(back.pattern(), &p);
    }

    /// The §5.2 wmma SpMM matches the reference for any structure.
    #[test]
    fn wmma_spmm_matches_reference((rows, cols, v, s, seed) in vs_params()) {
        let gpu = GpuConfig::small();
        let a = gen::random_vector_sparse::<f16>(rows, cols, v, s, seed);
        let b = gen::random_dense::<f16>(cols, 64, Layout::RowMajor, seed ^ 7);
        let got = Context::builder().gpu(gpu).build().spmm(&a, &b, SpmmAlgo::Wmma);
        let want = reference::spmm_vs(&a, &b);
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }

    /// Square-block transposition keeps kernels exact: SpMM with Wᵀ on the
    /// transposed encoding equals the dense transpose product.
    #[test]
    fn square_block_transpose_spmm(seed in any::<u64>()) {
        use vecsparse_formats::square_block::{random_square_block_pattern, transpose_square_block};
        let gpu = GpuConfig::small();
        let p = random_square_block_pattern(16, 32, 4, 0.6, seed);
        let w = gen::fill_pattern::<f16>(p, seed ^ 1);
        let wt = transpose_square_block(&w);
        let x = gen::random_dense::<f16>(16, 32, Layout::RowMajor, seed ^ 2);
        let got = Context::builder().gpu(gpu).build().spmm(&wt, &x, SpmmAlgo::Octet);
        let want = reference::spmm_vs(&wt, &x);
        prop_assert_eq!(got.max_abs_diff(&want), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shipped kernel stays sanitizer-clean (no deny-level findings)
    /// at arbitrary shapes — bounds, barriers, and def-use integrity must
    /// hold for any tail predication the shape produces, not just the
    /// hand-picked test sizes.
    #[test]
    fn all_kernels_sanitize_clean_at_random_shapes(
        (rows, cols, v, s, seed) in vs_params(),
        n_mult in 1usize..4,
    ) {
        use vecsparse::registry::{self, Shape, ALL_KERNELS};
        use vecsparse_gpu_sim::Mode;
        use vecsparse_sanitizer::sanitize_clean;
        let gpu = GpuConfig::small();
        let shape = Shape {
            m: rows,
            n: n_mult * 32,
            k: cols,
            v,
            sparsity: s,
            seed,
        };
        for id in ALL_KERNELS {
            registry::with_kernel(id, &shape, Mode::Functional, |mem, kernel| {
                sanitize_clean(&gpu, mem, kernel);
            });
        }
    }
}
