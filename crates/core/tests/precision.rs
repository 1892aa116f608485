//! Tier-1 precision gates.
//!
//! Two invariants hold for every kernel in the registry:
//!
//! 1. **Soundness** — the static analyzer's certificate dominates the
//!    error the fp64 shadow execution actually observes. A violation is
//!    a bug in the analyzer's transfer functions, not in the kernel.
//! 2. **Plausibility** — the certified relative error is in the regime
//!    the paper reports for reduced-precision tensor-core kernels
//!    (small multiples of the binary16 rounding unit), not a vacuous
//!    bound.
//!
//! Plus a perturbation-freedom gate: turning shadow execution on must
//! not change a single output bit or a single estimated cycle.

use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse::softmax::SparseSoftmax;
use vecsparse::spmm::OctetSpmm;
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, Launch, MemPool, Mode};
use vecsparse_precision::{analyze, check_soundness, shadow_run};

/// Kernels whose stores carry fp64 twins (the dynamic side observes
/// them); the rest are covered by the static side only.
fn is_twinned(id: KernelId) -> bool {
    matches!(
        id,
        KernelId::SpmmDense
            | KernelId::SpmmBlockedEll
            | KernelId::SpmmFpuSubwarp
            | KernelId::SpmmWmma
            | KernelId::SpmmOctet
            | KernelId::SddmmOctetReg
            | KernelId::SddmmOctetShfl
            | KernelId::SddmmOctetArch
            | KernelId::SoftmaxSparse
            | KernelId::SoftmaxDense
    )
}

#[test]
fn every_registry_kernel_certificate_is_sound_and_plausible() {
    let shape = Shape::default();
    for id in ALL_KERNELS {
        let model = registry::model_for(id, &shape);
        let (analysis, report) =
            registry::with_kernel(id, &shape, Mode::Functional, |mem, kern| {
                let prog = kern.program().expect("registry kernels expose a Program");
                (analyze(id.label(), prog, &model), shadow_run(mem, kern))
            });

        // No real kernel trips a precision lint at the default shape.
        assert!(
            analysis.is_clean(),
            "{}: unexpected lints {:?}",
            id.label(),
            analysis.diags
        );

        let cert = &analysis.certificate;
        assert!(
            cert.abs_error_bound.is_finite() && cert.abs_error_bound > 0.0,
            "{}: degenerate bound {}",
            id.label(),
            cert.abs_error_bound
        );
        // Paper-plausible: binary16 datapaths certify relative error at
        // the scale of a few rounding units, far below 1%.
        assert!(
            cert.rel_error_bound < 1e-2,
            "{}: implausible rel bound {}",
            id.label(),
            cert.rel_error_bound
        );

        if let Err(e) = check_soundness(cert, &report) {
            panic!("{e}");
        }
        assert_eq!(
            report.has_observations(),
            is_twinned(id),
            "{}: twinning mismatch ({} samples)",
            id.label(),
            report.samples
        );
    }
}

#[test]
fn shadow_execution_is_perturbation_free() {
    let gpu = GpuConfig::small();
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.75, 7);
    let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 8);
    let x = gen::random_vector_sparse::<f16>(16, 64, 4, 0.5, 9);

    // SpMM: every output bit identical with shadow execution on vs off.
    let spmm_bits = |shadow: bool| -> Vec<u32> {
        let mut mem = MemPool::new();
        let kern = OctetSpmm::new(&mut mem, &a, &b, Mode::Functional);
        let launch = Launch::new(&mut mem, &kern).gpu(&gpu);
        if shadow { launch.shadow() } else { launch }.run();
        mem.bits(kern.output())
    };
    assert_eq!(spmm_bits(false), spmm_bits(true));

    // Softmax too (the f32 datapath with the trickiest rounding).
    let softmax_bits = |shadow: bool| -> Vec<u16> {
        let mut mem = MemPool::new();
        let kern = SparseSoftmax::new(&mut mem, &x, Mode::Functional);
        let launch = Launch::new(&mut mem, &kern).gpu(&gpu);
        if shadow { launch.shadow() } else { launch }.run();
        kern.result(&mem)
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(softmax_bits(false), softmax_bits(true));

    // Performance estimates are bit-identical whether or not a shadow
    // run happened in the same pool first: the twins leave no residue
    // the performance model can see.
    let cycles = |shadow_first: bool| -> u64 {
        let mut mem = MemPool::new();
        if shadow_first {
            let warm = OctetSpmm::new(&mut mem, &a, &b, Mode::Functional);
            Launch::new(&mut mem, &warm).shadow().run();
        }
        let kern = OctetSpmm::new(&mut mem, &a, &b, Mode::Performance);
        let out = Launch::new(&mut mem, &kern).gpu(&gpu).performance().run();
        out.profile
            .expect("performance launch profiles")
            .cycles
            .to_bits()
    };
    assert_eq!(cycles(false), cycles(true));
}
