//! The wave certificate: proof obligations over sampled CTA captures.

use vecsparse_gpu_sim::sig::{fnv1a_u32s, fnv1a_word, Fingerprint, FingerprintHasher, FNV_OFFSET};
use vecsparse_gpu_sim::{
    capture, sample_ctas, InstrKind, KernelSpec, LaunchSig, MemAccess, MemPool, Tok, WarpTrace,
    SAMPLE_CTAS,
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
    /// warp and instruction counts, pcs, op kinds with their access
    /// widths, dependency tokens, memory flags, conflict degrees, active
    /// lanes and sector streams, one word per field.
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

/// Bit of a trace head word that tags an instruction carrying a memory
/// access. The pc fills bits 0..32 and the kind tag bits 32..36.
const MEM_TAG: u64 = 1 << 36;
/// Lowest bit of a memory kind's access width in a head word.
const WIDTH_SHIFT: u32 = 37;
/// Width field value that defers the width to a word of its own, so no
/// width is truncated.
const WIDTH_ESCAPE: u64 = (1 << (64 - WIDTH_SHIFT)) - 1;

/// The head word of one instruction without its memory tag — pc, kind
/// and access width: all the shape class keeps of it. The second value
/// is a width too wide for the head word's field.
fn shape_word(pc: u32, kind: InstrKind) -> (u64, Option<u64>) {
    let (tag, width) = match kind {
        InstrKind::Ffma => (0, 0),
        InstrKind::Hfma2 => (1, 0),
        InstrKind::Hmma => (2, 0),
        InstrKind::Imad => (3, 0),
        InstrKind::Ldg { bits } => (4, bits),
        InstrKind::Stg { bits } => (5, bits),
        InstrKind::Lds { bits } => (6, bits),
        InstrKind::Sts { bits } => (7, bits),
        InstrKind::Shfl => (8, 0),
        InstrKind::Bar => (9, 0),
        InstrKind::Fence => (10, 0),
        InstrKind::Misc => (11, 0),
    };
    let width = u64::from(width);
    let (field, wide) = if width < WIDTH_ESCAPE {
        (width, None)
    } else {
        (WIDTH_ESCAPE, Some(width))
    };
    (u64::from(pc) | tag << 32 | field << WIDTH_SHIFT, wide)
}

fn tok_bits(t: Tok) -> u64 {
    t.index().map_or(u64::from(u32::MAX), |i| i as u64)
}

/// One memory access's header word: the global and store flags, the
/// conflict degree and the active lanes in bits 0..18, the sector count
/// above them.
fn mem_header(m: &MemAccess) -> u64 {
    u64::from(m.global)
        | u64::from(m.store) << 1
        | u64::from(m.conflict) << 2
        | u64::from(m.active_lanes) << 10
        | (m.sectors.len() as u64) << 18
}

/// Absorb the full content of one CTA's traces — everything the wave
/// scheduler reads — into `fp`, one word per field, and return the
/// CTA's structural shape class from the same pass.
///
/// The words, per warp: the instruction count, then per instruction its
/// head word (pc, kind, access width and memory tag; an escaped width
/// follows it), its three dependency tokens and `acc_dep` packed two per
/// word, and for a memory instruction a header word and its sectors.
/// Counts prefix every variable-length part and the tag marks the
/// optional one, so distinct traces give distinct word streams.
///
/// The shape class hashes the instruction counts and head words without
/// the memory tag: pcs, kinds and widths, addresses excluded. Interior
/// CTAs of a regular kernel share one class; tail CTAs split off their
/// own.
fn absorb_cta(fp: &mut FingerprintHasher, traces: &[WarpTrace]) -> u64 {
    let mut class = FNV_OFFSET;
    fp.write_u64(traces.len() as u64);
    for t in traces {
        let len = t.instrs.len() as u64;
        fp.write_u64(len);
        class = fnv1a_word(class, len);
        for i in &t.instrs {
            let mem = t.mem_of(i);
            let (shape, wide) = shape_word(i.pc, i.kind);
            fp.write_u64(shape | if mem.is_some() { MEM_TAG } else { 0 });
            class = fnv1a_word(class, shape);
            if let Some(width) = wide {
                fp.write_u64(width);
                class = fnv1a_word(class, width);
            }
            fp.write_u64(tok_bits(i.deps[0]) | tok_bits(i.deps[1]) << 32);
            fp.write_u64(tok_bits(i.deps[2]) | tok_bits(i.acc_dep) << 32);
            if let Some(m) = mem {
                fp.write_u64(mem_header(m));
                for &s in &m.sectors {
                    fp.write_u64(s);
                }
            }
        }
    }
    class
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
        fp.write_u64(cta_id as u64);
        let class = absorb_cta(&mut fp, &first.traces);
        if !classes.contains(&class) {
            classes.push(class);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use vecsparse::registry::{self, KernelId, Shape};
    use vecsparse_gpu_sim::{Mode, TraceInstr};

    /// CTA 0 of the registry's octet SpMM, captured in performance mode.
    fn octet_cta() -> Vec<WarpTrace> {
        registry::with_kernel(
            KernelId::SpmmOctet,
            &Shape::default(),
            Mode::Performance,
            |mem, kernel| capture(&*mem, kernel, &[0], false, |c| c.traces),
        )
        .remove(0)
    }

    fn hashes(traces: &[WarpTrace]) -> (Fingerprint, u64) {
        let mut fp = FingerprintHasher::new();
        let class = absorb_cta(&mut fp, traces);
        (fp.finish(), class)
    }

    /// Apply `edit` to a copy of `base`: the trace fingerprint must
    /// change, and the shape class must change exactly when
    /// `class_moves`.
    fn check(
        base: &[WarpTrace],
        field: &str,
        class_moves: bool,
        edit: impl FnOnce(&mut Vec<WarpTrace>),
    ) {
        let mut traces = base.to_vec();
        edit(&mut traces);
        assert_ne!(traces, base, "{field}: the edit must change the trace");
        let (base_fp, base_class) = hashes(base);
        let (fp, class) = hashes(&traces);
        assert_ne!(fp, base_fp, "{field}: the trace fingerprint must change");
        assert_eq!(
            class != base_class,
            class_moves,
            "{field}: the shape class {} change",
            if class_moves { "must" } else { "must not" }
        );
    }

    /// `(warp, instruction)` of the first instruction matching `pred`.
    fn find(
        traces: &[WarpTrace],
        pred: impl Fn(&WarpTrace, &TraceInstr) -> bool,
    ) -> (usize, usize) {
        traces
            .iter()
            .enumerate()
            .find_map(|(w, t)| Some((w, t.instrs.iter().position(|i| pred(t, i))?)))
            .expect("the octet SpMM emits every field under test")
    }

    fn access(traces: &mut [WarpTrace], (w, i): (usize, usize)) -> &mut MemAccess {
        let idx = traces[w].instrs[i].mem_idx as usize;
        &mut traces[w].mem[idx]
    }

    #[test]
    fn fingerprint_covers_every_field_and_class_only_structure() {
        let base = octet_cta();
        let real = base
            .iter()
            .flat_map(|t| &t.instrs)
            .flat_map(|i| i.deps)
            .find(|&d| d != Tok::NONE)
            .expect("some instruction consumes another");
        let flip = |t: &mut Tok| *t = if *t == Tok::NONE { real } else { Tok::NONE };
        let plain = find(&base, |t, i| t.mem_of(i).is_none());
        let load = find(&base, |_, i| matches!(i.kind, InstrKind::Ldg { .. }));
        let mem = find(&base, |t, i| {
            t.mem_of(i).is_some_and(|m| !m.sectors.is_empty())
        });

        check(&base, "pc", true, |t| t[0].instrs[0].pc += 1);
        check(&base, "kind", true, |t| {
            let ins = &mut t[plain.0].instrs[plain.1];
            ins.kind = if ins.kind == InstrKind::Misc {
                InstrKind::Imad
            } else {
                InstrKind::Misc
            };
        });
        check(&base, "load width", true, |t| {
            let ins = &mut t[load.0].instrs[load.1];
            if let InstrKind::Ldg { bits } = ins.kind {
                ins.kind = InstrKind::Ldg { bits: bits / 2 };
            }
        });
        for d in 0..3 {
            check(&base, &format!("dependency {d}"), false, |t| {
                flip(&mut t[0].instrs[1].deps[d])
            });
        }
        check(&base, "acc_dep", false, |t| {
            flip(&mut t[0].instrs[1].acc_dep)
        });
        check(&base, "global", false, |t| access(t, mem).global ^= true);
        check(&base, "store", false, |t| access(t, mem).store ^= true);
        check(&base, "conflict", false, |t| access(t, mem).conflict += 1);
        check(&base, "active lanes", false, |t| {
            access(t, mem).active_lanes ^= 1
        });
        check(&base, "sector address", false, |t| {
            access(t, mem).sectors[0] += 32
        });
        check(&base, "sector count", false, |t| {
            let m = access(t, mem);
            let next = m.sectors[m.sectors.len() - 1] + 32;
            m.sectors.push(next);
        });
        check(&base, "memory tag", false, |t| {
            t[mem.0].instrs[mem.1].mem_idx = TraceInstr::NO_MEM
        });
        check(&base, "instruction count", true, |t| {
            t[0].instrs.truncate(1)
        });
        check(&base, "warp count", true, |t| t.push(WarpTrace::default()));
    }
}
