//! The wave certificate: proof obligations over sampled CTA captures.

use vecsparse_gpu_sim::sig::{fnv1a_u32s, Fingerprint, FingerprintHasher, FNV_OFFSET};
use vecsparse_gpu_sim::{
    capture, sample_ctas, KernelSpec, LaunchSig, MemPool, Tok, WarpTrace, SAMPLE_CTAS,
};

use crate::fixtures::{Certificate, Expected, Fixture, Kind};

/// Why a kernel's wave equivalence could not be proven.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofFailure {
    /// Performance-mode trace generation read operand values from the
    /// pool — addresses or control flow depend on data.
    ValueDependentTrace {
        /// CTA whose generation read values.
        cta_id: usize,
        /// Number of value reads observed.
        reads: u64,
    },
    /// Two generations of the same CTA's trace differ — the kernel
    /// carries hidden state (RNG, clock, interior-mutable counters).
    NonReproducibleTrace {
        /// CTA whose generations diverged.
        cta_id: usize,
    },
    /// A dependency token points at the consuming instruction or later —
    /// the scoreboard walk is not structurally determined.
    DanglingDependency {
        /// CTA containing the broken token.
        cta_id: usize,
        /// Warp within the CTA.
        warp: usize,
        /// Dynamic instruction index of the consumer.
        index: usize,
    },
}

impl std::fmt::Display for ProofFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofFailure::ValueDependentTrace { cta_id, reads } => write!(
                f,
                "value-dependent trace: CTA {cta_id} read {reads} operand value(s) \
                 during performance-mode trace generation"
            ),
            ProofFailure::NonReproducibleTrace { cta_id } => write!(
                f,
                "non-reproducible trace: CTA {cta_id} generated two different \
                 instruction streams from identical inputs"
            ),
            ProofFailure::DanglingDependency {
                cta_id,
                warp,
                index,
            } => write!(
                f,
                "dangling dependency: CTA {cta_id} warp {warp} instruction {index} \
                 consumes a token at or after its own position"
            ),
        }
    }
}

/// The outcome of certification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveVerdict {
    /// Every obligation held over the sampled CTAs: wave timing is a
    /// pure function of the structural signature.
    Provable,
    /// An obligation failed; the kernel is exempt from memoization.
    NotProvable(ProofFailure),
}

/// A wave-equivalence certificate for one staged kernel.
#[derive(Clone, Debug)]
pub struct WaveCertificate {
    /// Kernel name.
    pub kernel: String,
    /// Grid size at certification time.
    pub grid: usize,
    /// Hash of the kernel's static program listing (or of its name and
    /// static size when it keeps no [`Program`](vecsparse_gpu_sim::Program)).
    pub program_hash: u64,
    /// Dual-FNV fingerprint over every checked CTA's full trace content:
    /// pcs, op kinds, dependency tokens, sector streams, conflict
    /// degrees, active lanes.
    pub trace_fingerprint: Fingerprint,
    /// CTAs checked.
    pub ctas_checked: usize,
    /// Total trace instructions checked.
    pub instrs_checked: u64,
    /// Distinct structural shape classes among checked CTAs (interior
    /// CTAs typically share one; tail CTAs form their own).
    pub cta_classes: usize,
    /// The verdict.
    pub verdict: WaveVerdict,
}

impl WaveCertificate {
    /// True when every obligation held.
    pub fn is_provable(&self) -> bool {
        matches!(self.verdict, WaveVerdict::Provable)
    }

    /// Compose the memoization signature: certificate identity (program
    /// hash + sampled-trace fingerprint) plus a caller-supplied operand
    /// fingerprint covering the *full* operand structure and pool layout
    /// (the certificate only sampled CTAs; the operand fingerprint must
    /// distinguish operands the sample cannot). `None` for unprovable
    /// kernels — they must never be memoized.
    pub fn launch_sig(&self, operand_fp: Fingerprint) -> Option<LaunchSig> {
        if !self.is_provable() {
            return None;
        }
        let mut h = FingerprintHasher::new();
        h.write_u64(self.program_hash);
        h.write_fingerprint(self.trace_fingerprint);
        h.write_fingerprint(operand_fp);
        Some(LaunchSig(h.finish()))
    }

    /// One-line verdict for reports.
    pub fn summary(&self) -> String {
        match &self.verdict {
            WaveVerdict::Provable => format!(
                "provable (sig over {} CTAs / {} instrs, {} class(es))",
                self.ctas_checked, self.instrs_checked, self.cta_classes
            ),
            WaveVerdict::NotProvable(reason) => format!("NOT PROVABLE: {reason}"),
        }
    }

    /// Multi-line rendering for `vsan waveprove`.
    pub fn render(&self) -> String {
        let mut out = format!("== waveprove {} (grid {})\n", self.kernel, self.grid);
        match &self.verdict {
            WaveVerdict::Provable => {
                out.push_str(&format!(
                    "   verdict: PROVABLE — timing inputs determined by structure\n   \
                     program {:016x}, traces {}, {} CTA(s) / {} instr(s), {} shape class(es)\n",
                    self.program_hash,
                    self.trace_fingerprint.render(),
                    self.ctas_checked,
                    self.instrs_checked,
                    self.cta_classes
                ));
            }
            WaveVerdict::NotProvable(reason) => {
                out.push_str(&format!(
                    "   verdict: NOT PROVABLE — {reason}\n   \
                     (kernel is exempt from memoization and always simulated)\n"
                ));
            }
        }
        out
    }
}

fn tok_bits(t: Tok) -> u64 {
    t.index().map_or(u64::MAX, |i| i as u64)
}

/// Dual-FNV fingerprint over the full content of one CTA's traces:
/// everything the wave scheduler reads.
fn trace_fingerprint(traces: &[WarpTrace]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_u64(traces.len() as u64);
    for t in traces {
        h.write_u64(t.instrs.len() as u64);
        for i in &t.instrs {
            h.write_u32(i.pc);
            h.write_bytes(i.kind.mnemonic().as_bytes());
            for d in i.deps {
                h.write_u64(tok_bits(d));
            }
            h.write_u64(tok_bits(i.acc_dep));
            match t.mem_of(i) {
                Some(m) => {
                    h.write_u8(1);
                    h.write_u8(m.global as u8);
                    h.write_u8(m.store as u8);
                    h.write_u8(m.conflict);
                    h.write_u8(m.active_lanes);
                    h.write_u64(m.sectors.len() as u64);
                    for &s in &m.sectors {
                        h.write_u64(s);
                    }
                }
                None => h.write_u8(0),
            }
        }
    }
    h.finish()
}

/// Structural shape class of one CTA: pcs and op kinds only, addresses
/// excluded — interior CTAs of a regular kernel share one class, tail
/// CTAs split off their own.
fn shape_class(traces: &[WarpTrace]) -> u64 {
    let mut h = FNV_OFFSET;
    for t in traces {
        h = fnv1a_u32s(h, [t.instrs.len() as u32]);
        for i in &t.instrs {
            h = fnv1a_u32s(h, [i.pc]);
            h = fnv1a_u32s(h, i.kind.mnemonic().bytes().map(|b| b as u32));
        }
    }
    h
}

/// Certify a staged kernel's wave equivalence.
///
/// `mem` is the pool the kernel was staged into; it is only read. The
/// sampled CTAs are captured twice, and each CTA is checked against the
/// proof obligations in order: its first capture read no values, its
/// second capture equals the first, and its dependency tokens all point
/// backwards. The first failure decides the verdict; a clean pass over
/// every sampled CTA yields [`WaveVerdict::Provable`] and a fingerprint
/// of the first capture that feeds [`WaveCertificate::launch_sig`].
pub fn certify<K: KernelSpec + ?Sized>(mem: &MemPool, kernel: &K) -> WaveCertificate {
    let lc = kernel.launch_config();
    let program_hash = kernel.program().map_or_else(
        || {
            // No listing kept: fall back to name + static size. Weaker
            // identity, but still collision-checked by the trace
            // fingerprint riding alongside it in the signature.
            let name = kernel.name();
            fnv1a_u32s(
                fnv1a_u32s(FNV_OFFSET, name.bytes().map(|b| b as u32)),
                [lc.static_instrs],
            )
        },
        |p| p.listing_hash(),
    );

    let sample = sample_ctas(lc.grid, SAMPLE_CTAS);
    let twice: Vec<usize> = sample.iter().chain(&sample).copied().collect();
    let mut firsts = capture(mem, kernel, &twice, false, |c| c);
    let seconds = firsts.split_off(sample.len());

    let mut fp = FingerprintHasher::new();
    fp.write_u64(program_hash);
    let mut cert = WaveCertificate {
        kernel: kernel.name(),
        grid: lc.grid,
        program_hash,
        trace_fingerprint: Fingerprint::default(),
        ctas_checked: 0,
        instrs_checked: 0,
        cta_classes: 0,
        verdict: WaveVerdict::Provable,
    };
    let mut classes: Vec<u64> = Vec::new();

    for (first, second) in firsts.iter().zip(&seconds) {
        let cta_id = first.cta_id;
        let failure = if first.value_reads > 0 {
            // Obligation 1 — value independence.
            Some(ProofFailure::ValueDependentTrace {
                cta_id,
                reads: first.value_reads,
            })
        } else if first.traces != second.traces {
            // Obligation 2 — reproducibility.
            Some(ProofFailure::NonReproducibleTrace { cta_id })
        } else {
            // Obligation 3 — def-use well-formedness.
            first.traces.iter().enumerate().find_map(|(warp, t)| {
                let (index, _) = t.dangling_deps().next()?;
                Some(ProofFailure::DanglingDependency {
                    cta_id,
                    warp,
                    index,
                })
            })
        };
        if let Some(failure) = failure {
            cert.verdict = WaveVerdict::NotProvable(failure);
            return cert;
        }

        cert.instrs_checked += first
            .traces
            .iter()
            .map(|t| t.instrs.len() as u64)
            .sum::<u64>();
        let class = shape_class(&first.traces);
        if !classes.contains(&class) {
            classes.push(class);
        }
        fp.write_u64(cta_id as u64);
        fp.write_fingerprint(trace_fingerprint(&first.traces));
        cert.ctas_checked += 1;
    }

    cert.cta_classes = classes.len();
    cert.trace_fingerprint = fp.finish();
    cert
}

/// Every wave fixture: the provable control plus one kernel per proof
/// failure.
pub fn all_fixtures() -> Vec<Fixture> {
    use Expected::*;
    Fixture::table(
        Certificate::Wave,
        [
            ("stream-control", Kind::Stream, Provable),
            ("data-dependent-gather", Kind::DataGather, ValueDependent),
            ("drifting-addresses", Kind::Drifting, NonReproducible),
        ],
    )
}
