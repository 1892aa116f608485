//! Algorithm selectors for the engine's plan API
//! ([`crate::engine::Context::plan_spmm`] and
//! [`crate::engine::Context::plan_sddmm`]).

/// SpMM algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpmmAlgo {
    /// TCU-based 1-D Octet Tiling (the paper's kernel).
    Octet,
    /// TCU-based 1-D Warp Tiling with the classic wmma mapping (§5.2's
    /// intermediate design).
    Wmma,
    /// FPU-based 1-D subwarp tiling (Sputnik-extended).
    FpuSubwarp,
    /// cuSPARSE-style Blocked-ELL TCU kernel with square blocks of the
    /// given edge (the sparse input is re-encoded to Blocked-ELL with the
    /// same sparsity, as in the paper's benchmark construction).
    BlockedEll,
    /// Dense `cublasHgemm` surrogate (densifies the input).
    Dense,
    /// Let the engine's auto-tuner pick among the numerically exact
    /// kernels by profiling them on the simulated GPU (see
    /// [`crate::engine::tuner`]). Decisions are memoized per
    /// [`crate::engine::Context`].
    Auto,
}

impl SpmmAlgo {
    /// Registry-style label ("spmm-octet", ..., or "auto").
    pub fn label(self) -> &'static str {
        match self {
            SpmmAlgo::Octet => "spmm-octet",
            SpmmAlgo::Wmma => "spmm-wmma",
            SpmmAlgo::FpuSubwarp => "spmm-fpu",
            SpmmAlgo::BlockedEll => "spmm-blocked-ell",
            SpmmAlgo::Dense => "spmm-dense",
            SpmmAlgo::Auto => "auto",
        }
    }
}

/// SDDMM algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SddmmAlgo {
    /// TCU-based 1-D Octet Tiling with extra accumulator registers.
    OctetReg,
    /// Octet tiling with shuffle-based operand switching.
    OctetShfl,
    /// Octet tiling on the proposed SWITCH-HMMA architecture.
    OctetArch,
    /// FPU-based 1-D subwarp tiling.
    FpuSubwarp,
    /// Classic TCU warp tiling (wmma).
    Wmma,
    /// Auto-tuned among the stock-hardware kernels (see
    /// [`crate::engine::tuner`]; `OctetArch` is never auto-selected).
    Auto,
}

impl SddmmAlgo {
    /// Registry-style label ("sddmm-octet-reg", ..., or "auto").
    pub fn label(self) -> &'static str {
        match self {
            SddmmAlgo::OctetReg => "sddmm-octet-reg",
            SddmmAlgo::OctetShfl => "sddmm-octet-shfl",
            SddmmAlgo::OctetArch => "sddmm-octet-arch",
            SddmmAlgo::FpuSubwarp => "sddmm-fpu",
            SddmmAlgo::Wmma => "sddmm-wmma",
            SddmmAlgo::Auto => "auto",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Context;
    use vecsparse_formats::{gen, reference, Layout};
    use vecsparse_fp16::f16;

    #[test]
    fn spmm_algos_agree() {
        let ctx = Context::builder().build();
        let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.7, 1);
        let b = gen::random_dense::<f16>(64, 64, Layout::RowMajor, 2);
        let want = reference::spmm_vs(&a, &b);
        for algo in [
            SpmmAlgo::Octet,
            SpmmAlgo::Wmma,
            SpmmAlgo::FpuSubwarp,
            SpmmAlgo::Dense,
            SpmmAlgo::Auto,
        ] {
            let got = ctx.plan_spmm(&a, 64, algo).run(&b);
            assert_eq!(got.max_abs_diff(&want), 0.0, "{algo:?}");
        }
    }

    #[test]
    fn sddmm_algos_agree() {
        let ctx = Context::builder().build();
        let a = gen::random_dense::<f16>(16, 64, Layout::RowMajor, 3);
        let b = gen::random_dense::<f16>(64, 64, Layout::ColMajor, 4);
        let mask = gen::random_pattern(16, 64, 4, 0.75, 5);
        let want = reference::sddmm(&a, &b, &mask);
        for algo in [
            SddmmAlgo::OctetReg,
            SddmmAlgo::OctetShfl,
            SddmmAlgo::OctetArch,
            SddmmAlgo::FpuSubwarp,
            SddmmAlgo::Wmma,
            SddmmAlgo::Auto,
        ] {
            let got = ctx.plan_sddmm(&mask, 64, algo).run(&a, &b);
            for (g, w) in got.values().iter().zip(want.values()) {
                assert_eq!(g, w, "{algo:?}");
            }
        }
    }

    #[test]
    fn labels_match_registry_naming() {
        assert_eq!(SpmmAlgo::Octet.label(), "spmm-octet");
        assert_eq!(SpmmAlgo::Auto.label(), "auto");
        assert_eq!(SddmmAlgo::OctetShfl.label(), "sddmm-octet-shfl");
        assert_eq!(SddmmAlgo::Auto.label(), "auto");
    }
}
