//! The static side: an abstract interpreter over a kernel's [`Program`]
//! listing.
//!
//! Every kernel in this workspace is, numerically, one of two shapes —
//! a length-`L` dot-product reduction (SpMM/SDDMM, fp16 operands with
//! fp32 or fp16 accumulation) or a row softmax (`exp(x−max)/Σexp`). The
//! [`KernelModel`] names the shape and its parameters; the interpreter
//! walks the program listing in pc order carrying an [`AbsVal`] per site
//! (interval + worst-case absolute error), raises [`PrecisionLint`]s where
//! a site's abstract state shows a reduced-precision hazard, and emits a
//! [`Certificate`] — the worst-case absolute/relative error of the stored
//! output versus exact arithmetic, from the same transfer functions.

use crate::domain::{gamma, half_ulp16, AbsVal, Interval, F16_MAX, F16_MIN_NORMAL, U16, U32};
use vecsparse_gpu_sim::Program;

/// Numerical shape of a kernel, seeded from the operand encodings and
/// generator statistics (the workspace generators emit values in
/// `[-max_abs_input, max_abs_input]`, on the binary16 grid, so loads are
/// exact).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelModel {
    /// Dot-product length (SpMM/SDDMM: `k`) or row reduction length
    /// (softmax: the row width `n`). An upper bound is sound.
    pub reduction_len: usize,
    /// Largest input magnitude the generators produce.
    pub max_abs_input: f64,
    /// Row-softmax composite (`exp(x−max)/Σexp`) instead of a dot-product
    /// reduction.
    pub softmax: bool,
    /// Per-product rounding unit: `0` when products are kept exactly in
    /// the accumulator precision (the TCU dot-product units), [`U16`] when
    /// each product is rounded to binary16 first (the HMUL+FADD FPU path).
    pub unit_mul: f64,
    /// Accumulation rounding unit ([`U32`] everywhere in this workspace:
    /// even the FPU baselines add in f32).
    pub unit_acc: f64,
    /// Width of the output buffer's elements; 2 means stores round to the
    /// binary16 grid (and can overflow or flush).
    pub out_elem_bytes: u64,
    /// Longest tolerated run of fp16-accumulating sites without an fp32
    /// accumulate step before [`PrecisionLint::LongF16Chain`] fires.
    pub max_f16_chain: u32,
}

impl KernelModel {
    /// A tensor-core dot-product kernel: exact fp16×fp16 products, fp32
    /// accumulation over `k` terms, f16 output.
    pub fn tcu_reduction(k: usize) -> KernelModel {
        KernelModel {
            reduction_len: k.max(1),
            max_abs_input: 2.0,
            softmax: false,
            unit_mul: 0.0,
            unit_acc: U32,
            out_elem_bytes: 2,
            max_f16_chain: 8,
        }
    }

    /// An FPU dot-product kernel: products rounded to binary16 (HMUL)
    /// before fp32 accumulation (FADD), f16 output.
    pub fn fpu_reduction(k: usize) -> KernelModel {
        KernelModel {
            unit_mul: U16,
            ..KernelModel::tcu_reduction(k)
        }
    }

    /// A row softmax over rows of at most `n` elements, f16 output.
    pub fn softmax(n: usize) -> KernelModel {
        KernelModel {
            reduction_len: n.max(1),
            softmax: true,
            ..KernelModel::tcu_reduction(n)
        }
    }

    /// Error of the `exp(x − rowmax)` stage: the subtraction rounds once
    /// in f32 at magnitude ≤ 2·max_abs_input, `exp` on `(-∞, 0]` has
    /// derivative ≤ 1 so it does not amplify, and its own result rounds
    /// once.
    fn exp_err(&self) -> f64 {
        U32 * (2.0 * self.max_abs_input) + U32
    }

    /// Error of the softmax denominator `Σ exp(xᵢ − max)`: `L` terms each
    /// ≤ 1 and each off by [`KernelModel::exp_err`], summed in f32.
    fn denom_err(&self) -> f64 {
        let l = self.reduction_len;
        l as f64 * self.exp_err() + gamma(l, U32) * l as f64
    }

    /// The closed-form certificate this model implies — exactly what
    /// [`analyze`] returns for a listing with no extra fp16-chain error
    /// (true of every real kernel in this workspace). Lets callers that
    /// know the model but have no [`Program`] in hand (the engine's plan
    /// path) still attach a certificate.
    pub fn certificate(&self, kernel: &str) -> Certificate {
        let store = |mag: f64| {
            if self.out_elem_bytes == 2 {
                half_ulp16(mag)
            } else {
                U32 * mag
            }
        };
        let (max_abs_output, err) = if self.softmax {
            // y = exp(x − max)/denom with denom ≥ 1 and y ≤ 1: the
            // quotient inherits at most err_num + err_den + one rounding.
            let y_err = self.exp_err() + self.denom_err() + U32;
            (1.0, y_err + store(1.0))
        } else {
            // |Σ aᵢ·bᵢ| ≤ L·A²; per-product rounding is linear in the
            // magnitude sum, accumulation follows the γ bound.
            let bound = self.reduction_len as f64 * self.max_abs_input * self.max_abs_input;
            let err = self.unit_mul * bound
                + gamma(self.reduction_len, self.unit_acc) * bound
                + store(bound);
            (bound, err)
        };
        Certificate {
            kernel: kernel.to_string(),
            max_abs_output,
            abs_error_bound: err,
            rel_error_bound: err / max_abs_output,
            reduction_len: self.reduction_len,
            stores_f16: self.out_elem_bytes == 2,
        }
    }
}

/// Reduced-precision hazards the static side can prove reachable from the
/// model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionLint {
    /// A finite value beyond ±65504 can reach a 16-bit store: it becomes
    /// ±Inf on hardware.
    Fp16OverflowRisk,
    /// Every value reaching a 16-bit store is subnormal (|v| < 2⁻¹⁴):
    /// flush-to-zero hardware silently produces 0.
    SubnormalFlush,
    /// A subtraction of nearly-equal values with incoming rounding error:
    /// the difference's interval straddles zero, so the relative error is
    /// unbounded.
    CatastrophicCancellation,
    /// More consecutive fp16-accumulating sites than the configured depth
    /// without an fp32 accumulate step — the hazard the TCU's fp32
    /// accumulators exist to avoid.
    LongF16Chain,
}

impl PrecisionLint {
    /// Kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PrecisionLint::Fp16OverflowRisk => "fp16-overflow-risk",
            PrecisionLint::SubnormalFlush => "subnormal-flush",
            PrecisionLint::CatastrophicCancellation => "catastrophic-cancellation",
            PrecisionLint::LongF16Chain => "long-f16-chain",
        }
    }
}

/// One static finding, anchored to a program site.
#[derive(Clone, Debug)]
pub struct PrecisionDiag {
    pub lint: PrecisionLint,
    /// Static pc of the offending site.
    pub pc: u32,
    /// `name[instance]` label of the site.
    pub label: String,
    pub message: String,
}

/// Worst-case error of a kernel's stored output versus exact arithmetic,
/// derived from the model's transfer functions. The dynamic side checks
/// `observed ≤ abs_error_bound`; a violation is a soundness bug in this
/// analyzer, not in the kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    pub kernel: String,
    /// Largest output magnitude the model admits.
    pub max_abs_output: f64,
    /// Worst-case absolute error of any stored element.
    pub abs_error_bound: f64,
    /// `abs_error_bound / max_abs_output`.
    pub rel_error_bound: f64,
    /// Reduction length the bound was derived for.
    pub reduction_len: usize,
    /// True when the output rounds to the binary16 grid.
    pub stores_f16: bool,
}

/// Abstract state of one site after its transfer function ran.
#[derive(Clone, Debug)]
pub struct SiteState {
    pub pc: u32,
    pub label: String,
    /// Interval magnitude of the value carried past this site.
    pub mag: f64,
    /// Worst-case absolute error carried past this site.
    pub err: f64,
}

/// Result of the static analysis of one kernel.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub certificate: Certificate,
    pub diags: Vec<PrecisionDiag>,
    pub sites: Vec<SiteState>,
}

impl Analysis {
    /// True when no lint fired.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Render certificate and findings as a human-readable block.
    pub fn render(&self) -> String {
        let c = &self.certificate;
        let mut out = format!(
            "{}: |out| <= {:.4e}, abs err <= {:.4e}, rel err <= {:.4e} (L={}{})\n",
            c.kernel,
            c.max_abs_output,
            c.abs_error_bound,
            c.rel_error_bound,
            c.reduction_len,
            if c.stores_f16 { ", f16 out" } else { "" },
        );
        for d in &self.diags {
            out.push_str(&format!(
                "  [{}] {} (pc {}): {}\n",
                d.lint.name(),
                d.label,
                d.pc,
                d.message
            ));
        }
        out
    }
}

/// How a site participates in the numerics, decided by its name. The
/// kernels use a stable SASS-flavoured vocabulary (`ldg_b`, `mma`,
/// `sumred`, `stg`, ...), so classification is lexical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SiteClass {
    Load,
    SharedStore,
    Store,
    /// fp16-accumulating math (HFMA/HADD/HMUL chains).
    F16Fma,
    /// fp32 math / accumulate step (FFMA, FADD, the FPU `math` bodies).
    F32Fma,
    /// Tensor-core matrix multiply-accumulate (mma/hmma/wmma).
    Mma,
    Exp,
    Div,
    Sub,
    MaxReduce,
    SumReduce,
    Other,
}

fn classify(name: &str) -> SiteClass {
    if name.starts_with("sts") {
        SiteClass::SharedStore
    } else if name.starts_with("st") {
        SiteClass::Store
    } else if name.starts_with("ld") {
        SiteClass::Load
    } else if name.contains("hfma") || name.contains("hadd") || name.contains("hmul") {
        SiteClass::F16Fma
    } else if name.contains("ffma")
        || name.contains("fadd")
        || name.contains("fma")
        || name.contains("fmul")
        || name.starts_with("math")
    {
        SiteClass::F32Fma
    } else if name.contains("mma") {
        SiteClass::Mma
    } else if name.contains("exp") {
        SiteClass::Exp
    } else if name.contains("div") {
        SiteClass::Div
    } else if name.starts_with("sub") {
        SiteClass::Sub
    } else if name.contains("max") {
        SiteClass::MaxReduce
    } else if name.contains("sum") || name.contains("red") {
        SiteClass::SumReduce
    } else {
        SiteClass::Other
    }
}

/// Run the abstract interpreter over `program` under `model`.
///
/// `kernel` names the certificate. The walk visits sites in pc order
/// (which is registration order — the kernels register sites in dataflow
/// order), so the carried [`AbsVal`] tracks the value stream from loads
/// through the reduction to the output store.
pub fn analyze(kernel: &str, program: &Program, model: &KernelModel) -> Analysis {
    let a = model.max_abs_input;
    let l = model.reduction_len;
    let mut val = AbsVal::exact(a);
    let mut sites = Vec::new();
    let mut diags: Vec<PrecisionDiag> = Vec::new();
    let mut reduction_applied = false;
    let mut f16_chain = 0u32;
    let mut extra_f16_err = 0.0f64;
    let lint = |diags: &mut Vec<PrecisionDiag>, lint, pc, label: &str, message: String| {
        if !diags.iter().any(|d| d.lint == lint && d.pc == pc) {
            diags.push(PrecisionDiag {
                lint,
                pc,
                label: label.to_string(),
                message,
            });
        }
    };

    // The listing gives `(pc, name, instance)`; a site's *span* (how many
    // static instructions it covers — e.g. the 4 HMMA steps of one mma, or
    // an unrolled hfma run) is the gap to the next site's pc.
    let listing = program.listing();
    for (i, &(pc, name, _instance)) in listing.iter().enumerate() {
        let span = listing
            .get(i + 1)
            .map_or(program.static_len(), |&(next_pc, _, _)| next_pc)
            - pc;
        let class = classify(name);
        let label = program.describe(pc);
        match class {
            SiteClass::Load => {
                // Generator values live on the binary16 grid: loads are
                // exact, and f32 carries them exactly.
                val = AbsVal::exact(a);
            }
            SiteClass::Mma | SiteClass::F32Fma | SiteClass::F16Fma if !reduction_applied => {
                reduction_applied = true;
                let bound = l as f64 * a * a;
                let (unit_mul, unit_acc) = if class == SiteClass::F16Fma {
                    (U16, U16)
                } else {
                    (model.unit_mul, model.unit_acc)
                };
                val = AbsVal {
                    iv: Interval::sym(bound),
                    err: unit_mul * bound + gamma(l, unit_acc) * bound,
                };
                if class == SiteClass::F16Fma {
                    f16_chain += span;
                }
            }
            SiteClass::Mma => {} // Folded into the first reduction site.
            SiteClass::F32Fma => {
                // An fp32 accumulate step: breaks any fp16 chain and adds
                // one f32 rounding per static instruction covered.
                f16_chain = 0;
                val.err += f64::from(span) * U32 * val.iv.mag();
            }
            SiteClass::F16Fma => {
                f16_chain += span;
                let e = f64::from(span) * U16 * val.iv.mag();
                val.err += e;
                extra_f16_err += e;
            }
            SiteClass::Exp => {
                if model.softmax {
                    val = AbsVal {
                        iv: Interval::new(0.0, 1.0),
                        err: model.exp_err(),
                    };
                }
            }
            SiteClass::MaxReduce => {
                // Row max of exact inputs: comparisons are exact.
            }
            SiteClass::SumReduce => {
                if model.softmax {
                    // The denominator Σ exp(xᵢ − max) ∈ [1, L].
                    val = AbsVal {
                        iv: Interval::new(1.0, l as f64),
                        err: model.denom_err(),
                    };
                }
            }
            SiteClass::Div => {
                if model.softmax {
                    val = AbsVal {
                        iv: Interval::new(0.0, 1.0),
                        err: model.exp_err() + model.denom_err() + U32,
                    };
                }
            }
            SiteClass::Sub => {
                let diff = val.iv.sub(&val.iv);
                if val.err > 0.0 && diff.contains_zero() {
                    lint(
                        &mut diags,
                        PrecisionLint::CatastrophicCancellation,
                        pc,
                        &label,
                        format!(
                            "difference of values in [{:.3e}, {:.3e}] carrying rounding error \
                             {:.3e} can straddle zero: relative error is unbounded",
                            val.iv.lo, val.iv.hi, val.err
                        ),
                    );
                }
                val = AbsVal {
                    iv: diff,
                    err: 2.0 * val.err + U32 * diff.mag(),
                };
            }
            SiteClass::Store => {
                if model.softmax {
                    // The stored value is the quotient y ∈ [0, 1] whether
                    // or not the division has its own site.
                    val = AbsVal {
                        iv: Interval::new(0.0, 1.0),
                        err: model.exp_err() + model.denom_err() + U32,
                    };
                }
                let mag = val.iv.mag();
                if model.out_elem_bytes == 2 {
                    if mag > F16_MAX {
                        lint(
                            &mut diags,
                            PrecisionLint::Fp16OverflowRisk,
                            pc,
                            &label,
                            format!(
                                "values up to {mag:.4e} can reach this 16-bit store; \
                                 anything past ±65504 becomes ±Inf"
                            ),
                        );
                    } else if mag > 0.0 && mag < F16_MIN_NORMAL {
                        lint(
                            &mut diags,
                            PrecisionLint::SubnormalFlush,
                            pc,
                            &label,
                            format!(
                                "every value reaching this 16-bit store has magnitude \
                                 < 2^-14 ({mag:.4e}): flush-to-zero hardware stores 0"
                            ),
                        );
                    }
                    val.err += half_ulp16(mag);
                }
            }
            SiteClass::SharedStore | SiteClass::Other => {}
        }

        if class == SiteClass::F16Fma && f16_chain > model.max_f16_chain {
            lint(
                &mut diags,
                PrecisionLint::LongF16Chain,
                pc,
                &label,
                format!(
                    "{} consecutive fp16-accumulating instructions without an fp32 \
                     accumulate step (configured depth {}): error grows with U16 per step",
                    f16_chain, model.max_f16_chain
                ),
            );
        }

        sites.push(SiteState {
            pc,
            label,
            mag: val.iv.mag(),
            err: val.err,
        });
    }

    // Certificate: the model's closed-form bound plus any fp16-chain error
    // the walk found on top of it (conservative: the closed form already
    // covers the main reduction).
    let mut certificate = model.certificate(kernel);
    certificate.abs_error_bound += extra_f16_err;
    certificate.rel_error_bound = certificate.abs_error_bound / certificate.max_abs_output;

    Analysis {
        certificate,
        diags,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduction_program() -> Program {
        let mut p = Program::new();
        p.site("ldg_b", 0);
        p.site("lds_a", 0);
        p.site_span("mma", 0, 4);
        p.site("addr", 0);
        p.site("stg", 0);
        p
    }

    #[test]
    fn tcu_reduction_certificate_shape() {
        let p = reduction_program();
        let m = KernelModel::tcu_reduction(64);
        let an = analyze("spmm", &p, &m);
        assert!(an.is_clean(), "{:?}", an.diags);
        let c = &an.certificate;
        assert_eq!(c.max_abs_output, 256.0);
        // Store rounding dominates: half ulp16 at 256 is 0.125.
        assert!(c.abs_error_bound > 0.125 && c.abs_error_bound < 0.13);
        assert!(c.stores_f16);
    }

    #[test]
    fn fpu_reduction_is_worse_than_tcu() {
        let p = reduction_program();
        let tcu = analyze("t", &p, &KernelModel::tcu_reduction(64));
        let fpu = analyze("f", &p, &KernelModel::fpu_reduction(64));
        assert!(fpu.certificate.abs_error_bound > tcu.certificate.abs_error_bound);
    }

    #[test]
    fn softmax_certificate_dominated_by_store_rounding() {
        let mut p = Program::new();
        p.site("ldg", 0);
        p.site("maxred", 0);
        p.site("exp", 0);
        p.site("sumred", 0);
        p.site("div", 0);
        p.site("stg", 0);
        let an = analyze("softmax", &p, &KernelModel::softmax(64));
        assert!(an.is_clean(), "{:?}", an.diags);
        let c = &an.certificate;
        assert_eq!(c.max_abs_output, 1.0);
        // Half ulp16 at 1.0 is 2^-11 ≈ 4.88e-4; the f32 stages add a
        // few 1e-4 on top.
        assert!(c.abs_error_bound > 4.8e-4 && c.abs_error_bound < 2e-3);
    }

    #[test]
    fn bigger_reductions_give_bigger_bounds() {
        let p = reduction_program();
        let small = analyze("s", &p, &KernelModel::tcu_reduction(64));
        let big = analyze("b", &p, &KernelModel::tcu_reduction(1024));
        assert!(big.certificate.abs_error_bound > small.certificate.abs_error_bound);
        assert!(big.certificate.max_abs_output > small.certificate.max_abs_output);
    }

    #[test]
    fn overflow_risk_fires_on_oversized_inputs() {
        let p = reduction_program();
        let m = KernelModel {
            max_abs_input: 48.0,
            ..KernelModel::tcu_reduction(64)
        };
        let an = analyze("hot", &p, &m);
        assert_eq!(an.diags.len(), 1);
        assert_eq!(an.diags[0].lint, PrecisionLint::Fp16OverflowRisk);
    }
}
