//! `vecsparse-sanitizer`: a `compute-sanitizer`-style static and dynamic
//! checker for the simulated warp kernels in `vecsparse`.
//!
//! Real CUDA kernels get `compute-sanitizer` (memcheck, racecheck,
//! initcheck) and profiler lints; kernels written against the simulated
//! Volta substrate in `vecsparse-gpu-sim` deserve the same. This crate
//! analyses a kernel **without scheduling it**:
//!
//! 1. **Trace phase** (static + address checks). The sampled CTAs are
//!    captured in performance mode with [`CtaCtx::record_detail`] on
//!    (through [`vecsparse_gpu_sim::capture`](capture())), so every
//!    memory instruction carries per-lane offsets. The passes then check
//!    def-use integrity (dangling tokens, unstaged HMMA operands,
//!    uninitialised stores), barrier discipline (divergent `BAR.SYNC`
//!    counts, same-epoch shared conflicts = missing barriers and races),
//!    address bounds (global and shared), layout health (uncoalesced
//!    loads, bank conflicts), and program hygiene (L0-icache overflow,
//!    PC range, PC aliasing between sites).
//! 2. **Value phase** (dynamic checks). The same CTA is re-run in
//!    functional mode with [`CtaCtx::check_values`] on; NaN/Inf flowing
//!    through loads/stores and f16 overflow on 16-bit stores become
//!    diagnostics.
//!
//! Findings are [`Diagnostic`]s with a severity policy: `Deny` findings
//! are correctness bugs and fail [`sanitize_clean`]; `Warn` findings are
//! hazards shipped kernels may deliberately carry (the Blocked-ELL
//! baseline *is* the paper's icache-overflow case study); `Info` findings
//! are observations. The `vsan` binary runs the checker over the kernel
//! registry from the command line.
//!
//! ```
//! use vecsparse::registry::{self, KernelId};
//! use vecsparse_gpu_sim::{GpuConfig, Mode};
//! use vecsparse_sanitizer::{sanitize, SanitizeOptions};
//!
//! let cfg = GpuConfig::small();
//! let report = registry::with_kernel(
//!     KernelId::SpmmOctet,
//!     &registry::Shape::default(),
//!     Mode::Functional,
//!     |mem, kernel| sanitize(&cfg, mem, kernel, &SanitizeOptions::default()),
//! );
//! assert!(report.is_clean(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]

mod diag;
pub mod fixtures;
mod traces;
mod values;

pub use diag::{Category, Diagnostic, Report, Severity};

use vecsparse_gpu_sim::{
    capture, sample_ctas, CtaCtx, GpuConfig, KernelSpec, MemPool, Mode, SAMPLE_CTAS,
};

/// Knobs for one sanitizer run.
#[derive(Clone, Copy, Debug)]
pub struct SanitizeOptions {
    /// How many CTAs of the grid to analyse (evenly spaced, always
    /// including the first and last — edge CTAs carry the tail
    /// predication).
    pub max_ctas: usize,
    /// Run the functional value phase (NaN/Inf/f16-overflow tracing) in
    /// addition to the trace phase.
    pub check_values: bool,
}

impl Default for SanitizeOptions {
    fn default() -> Self {
        SanitizeOptions {
            max_ctas: SAMPLE_CTAS,
            check_values: true,
        }
    }
}

/// Run every sanitizer pass over `kernel` and collect a [`Report`].
///
/// The kernel is *not* scheduled: its `run_cta` is driven directly, once
/// per sampled CTA in performance mode (trace passes) and once in
/// functional mode (value pass). `mem` is the pool the kernel was staged
/// into; it is only read.
pub fn sanitize<K: KernelSpec + ?Sized>(
    cfg: &GpuConfig,
    mem: &MemPool,
    kernel: &K,
    opts: &SanitizeOptions,
) -> Report {
    let lc = kernel.launch_config();
    let mut report = Report {
        kernel: kernel.name(),
        grid: lc.grid,
        ..Report::default()
    };
    let env = traces::Env {
        cfg,
        mem,
        lc: &lc,
        program: kernel.program(),
    };
    traces::check_static(&env, &mut report);
    // The capture fans the sampled CTAs out across workers, and each
    // worker also runs its CTA's functional value phase. The check
    // passes then consume the scans sequentially in CTA order, so the
    // report's diagnostic order is the same at any thread count.
    let sample = sample_ctas(lc.grid, opts.max_ctas);
    let scans = capture(mem, kernel, &sample, true, |scan| {
        let san_events = if opts.check_values {
            let mut cta = CtaCtx::new(
                scan.cta_id,
                Mode::Functional,
                mem,
                lc.warps_per_cta,
                lc.smem_elems,
                lc.smem_elem_bytes,
            );
            cta.check_values = true;
            kernel.run_cta(&mut cta);
            cta.take_san_events()
        } else {
            Vec::new()
        };
        (scan, san_events)
    });
    for (scan, san_events) in &scans {
        report.instrs_checked += scan.traces.iter().map(|t| t.len() as u64).sum::<u64>();
        traces::check_cta(&env, scan.cta_id, &scan.traces, &mut report);
        if opts.check_values {
            values::check_events(kernel.program(), scan.cta_id, san_events, &mut report);
        }
        report.ctas_checked += 1;
    }
    report.rank();
    report
}

/// [`sanitize`] with default options, asserting the result carries no
/// deny-level findings — the `#[test]`-friendly entry point.
///
/// # Panics
/// Panics with the rendered report if any deny-level finding exists.
pub fn sanitize_clean<K: KernelSpec + ?Sized>(
    cfg: &GpuConfig,
    mem: &MemPool,
    kernel: &K,
) -> Report {
    let report = sanitize(cfg, mem, kernel, &SanitizeOptions::default());
    assert!(
        report.is_clean(),
        "sanitizer found deny-level issues in {}:\n{}",
        report.kernel,
        report.render()
    );
    report
}
