//! Trace instruction records emitted by kernels in performance mode.

use crate::mem::BufferId;
use crate::WARP_SIZE;

/// Execution pipe an instruction issues to. Issue intervals are per pipe,
/// so pipe pressure (e.g. the shared-memory pipe in the WMMA baseline)
/// emerges from the counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pipe {
    /// FP32 FMA units.
    Fp32,
    /// FP16x2 units.
    Fp16,
    /// Tensor cores.
    Tensor,
    /// Integer units (address arithmetic — IMAD/IADD3).
    Int,
    /// Load/store unit for global/local memory.
    Lsu,
    /// Load/store unit for shared memory.
    Shared,
    /// MIO pipe (warp shuffles).
    Mio,
    /// Control flow, barriers, and other cheap instructions.
    Misc,
}

/// All pipes, for iteration in the profiler.
pub const ALL_PIPES: [Pipe; 8] = [
    Pipe::Fp32,
    Pipe::Fp16,
    Pipe::Tensor,
    Pipe::Int,
    Pipe::Lsu,
    Pipe::Shared,
    Pipe::Mio,
    Pipe::Misc,
];

/// Instruction kinds, corresponding to the SASS the paper discusses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// FP32 fused multiply-add (FFMA) or add (FADD).
    Ffma,
    /// Packed half multiply/FMA (HMUL2/HFMA2).
    Hfma2,
    /// One tensor-core step (HMMA.884.F32.F32.STEP*).
    Hmma,
    /// Integer multiply-add / 3-input add (IMAD/IADD3) — address math.
    Imad,
    /// Global memory load (LDG.32/.64/.128 by `bits`).
    Ldg { bits: u32 },
    /// Global memory store (STG).
    Stg { bits: u32 },
    /// Shared memory load (LDS).
    Lds { bits: u32 },
    /// Shared memory store (STS).
    Sts { bits: u32 },
    /// Warp-wide register shuffle (SHFL).
    Shfl,
    /// CTA-wide barrier (BAR.SYNC).
    Bar,
    /// Memory fence / compiler barrier (__threadfence_block).
    Fence,
    /// Branches, predicate setup, and other glue.
    Misc,
}

impl InstrKind {
    /// The pipe this instruction issues to.
    pub fn pipe(self) -> Pipe {
        match self {
            InstrKind::Ffma => Pipe::Fp32,
            InstrKind::Hfma2 => Pipe::Fp16,
            InstrKind::Hmma => Pipe::Tensor,
            InstrKind::Imad => Pipe::Int,
            InstrKind::Ldg { .. } | InstrKind::Stg { .. } => Pipe::Lsu,
            InstrKind::Lds { .. } | InstrKind::Sts { .. } => Pipe::Shared,
            InstrKind::Shfl => Pipe::Mio,
            InstrKind::Bar | InstrKind::Fence | InstrKind::Misc => Pipe::Misc,
        }
    }

    /// True for "math" instructions (Fig. 5's executed-math-instruction
    /// counter: FFMA/HFMA2/HMMA).
    pub fn is_math(self) -> bool {
        matches!(self, InstrKind::Ffma | InstrKind::Hfma2 | InstrKind::Hmma)
    }

    /// SASS-style mnemonic, used as the event name on trace timelines.
    pub fn mnemonic(self) -> &'static str {
        match self {
            InstrKind::Ffma => "FFMA",
            InstrKind::Hfma2 => "HFMA2",
            InstrKind::Hmma => "HMMA.884",
            InstrKind::Imad => "IMAD",
            InstrKind::Ldg { bits: 32 } => "LDG.32",
            InstrKind::Ldg { bits: 64 } => "LDG.64",
            InstrKind::Ldg { .. } => "LDG.128",
            InstrKind::Stg { bits: 32 } => "STG.32",
            InstrKind::Stg { bits: 64 } => "STG.64",
            InstrKind::Stg { .. } => "STG.128",
            InstrKind::Lds { bits: 32 } => "LDS.32",
            InstrKind::Lds { bits: 64 } => "LDS.64",
            InstrKind::Lds { .. } => "LDS.128",
            InstrKind::Sts { bits: 32 } => "STS.32",
            InstrKind::Sts { bits: 64 } => "STS.64",
            InstrKind::Sts { .. } => "STS.128",
            InstrKind::Shfl => "SHFL",
            InstrKind::Bar => "BAR.SYNC",
            InstrKind::Fence => "MEMBAR",
            InstrKind::Misc => "MISC",
        }
    }
}

/// Dependency token: identifies a previously-emitted instruction within the
/// same warp whose result the new instruction consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok(pub(crate) u32);

impl Tok {
    /// A token that never blocks (dependency on warp entry).
    pub const NONE: Tok = Tok(u32::MAX);

    /// The dynamic instruction index this token refers to within its warp's
    /// trace, or `None` for [`Tok::NONE`]. Gives diagnostics (sanitizer,
    /// profiler) a stable way to point back into the instruction stream.
    pub fn index(self) -> Option<usize> {
        if self == Tok::NONE {
            None
        } else {
            Some(self.0 as usize)
        }
    }
}

/// Memory sectors touched by one warp-level memory instruction.
///
/// `global`/`store` mirror the instruction kind for consumers that only
/// see the access (e.g. external trace analyses).
#[derive(Clone, Debug, PartialEq)]
#[allow(dead_code)] // `global`/`store` are part of the public trace record.
pub struct MemAccess {
    /// 32-byte-aligned sector addresses (deduplicated).
    pub sectors: Vec<u64>,
    /// True for global/local space (through L1/L2); false for shared.
    pub global: bool,
    /// True for a store.
    pub store: bool,
    /// Shared-memory bank-conflict degree (1 = conflict-free): the access
    /// occupies the shared pipe `conflict` times as long.
    pub conflict: u8,
    /// Number of active (non-predicated) lanes in the access.
    pub active_lanes: u8,
    /// Per-lane access detail, recorded only when the CTA opts in with
    /// [`crate::CtaCtx::record_detail`] (the sanitizer's trace mode); the
    /// scheduler never reads it.
    pub detail: Option<Box<AccessDetail>>,
}

impl Default for MemAccess {
    fn default() -> Self {
        MemAccess {
            sectors: Vec::new(),
            global: false,
            store: false,
            conflict: 1,
            active_lanes: 0,
            detail: None,
        }
    }
}

/// Per-lane detail of one memory access, for offline analyses that need
/// more than sector addresses (races, bounds, bank layout).
#[derive(Clone, Debug, PartialEq)]
pub struct AccessDetail {
    /// The buffer accessed, for global accesses (`None` for shared).
    pub buf: Option<BufferId>,
    /// Starting element offset per lane; `u32::MAX` = predicated off.
    pub offsets: [u32; WARP_SIZE],
    /// Elements accessed per lane.
    pub epl: u32,
    /// Bytes per element at the accessed location.
    pub elem_bytes: u64,
    /// True shared-memory bank-conflict degree, computed from the offsets
    /// regardless of whether the timing model was told to charge for it
    /// (`conflict` stays 1 unless the kernel opts in).
    pub bank_degree: u8,
}

/// One warp-level instruction in a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceInstr {
    /// Static program counter (site id); drives the L0 icache model.
    pub pc: u32,
    /// Kind (decides pipe, issue interval, latency class).
    pub kind: InstrKind,
    /// Tokens of instructions whose results this one reads.
    pub deps: [Tok; 3],
    /// For HMMA: token of the accumulator producer (forwarded cheaply).
    pub acc_dep: Tok,
    /// Index into the warp's [`WarpTrace::mem`] side table, or
    /// [`TraceInstr::NO_MEM`] for non-memory instructions. Keeping the
    /// access out of line keeps this struct 32 bytes, which matters:
    /// trace generation is the dominant shared cost of a launch and most
    /// instructions carry no access.
    pub mem_idx: u32,
}

impl TraceInstr {
    /// `mem_idx` sentinel for instructions without a memory access.
    pub const NO_MEM: u32 = u32::MAX;
}

/// The full trace of one warp.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarpTrace {
    pub instrs: Vec<TraceInstr>,
    /// Memory accesses, referenced by [`TraceInstr::mem_idx`].
    pub mem: Vec<MemAccess>,
}

impl WarpTrace {
    /// Append an instruction, returning its token.
    pub fn push(&mut self, instr: TraceInstr) -> Tok {
        let tok = Tok(self.instrs.len() as u32);
        self.instrs.push(instr);
        tok
    }

    /// Append a memory access to the side table, returning the index to
    /// store in the owning instruction's `mem_idx`.
    pub fn push_mem(&mut self, access: MemAccess) -> u32 {
        let idx = self.mem.len() as u32;
        self.mem.push(access);
        idx
    }

    /// The memory access of `instr`, if it has one. `NO_MEM` indexes past
    /// the table and naturally yields `None`.
    #[inline]
    pub fn mem_of(&self, instr: &TraceInstr) -> Option<&MemAccess> {
        self.mem.get(instr.mem_idx as usize)
    }

    /// Dependencies that point at or after their consumer, as
    /// `(consumer index, token index)` in instruction order: tokens the
    /// scoreboard walk could never resolve from earlier instructions.
    pub fn dangling_deps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.instrs.iter().enumerate().flat_map(|(i, ins)| {
            ins.deps
                .iter()
                .chain(std::iter::once(&ins.acc_dep))
                .filter_map(move |d| d.index().filter(|&idx| idx >= i).map(|idx| (i, idx)))
        })
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when no instructions have been emitted.
    #[allow(dead_code)] // Symmetry with `len`; used by downstream tooling.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipes_match_kinds() {
        assert_eq!(InstrKind::Hmma.pipe(), Pipe::Tensor);
        assert_eq!(InstrKind::Ldg { bits: 128 }.pipe(), Pipe::Lsu);
        assert_eq!(InstrKind::Sts { bits: 32 }.pipe(), Pipe::Shared);
        assert!(InstrKind::Hmma.is_math());
        assert!(!InstrKind::Shfl.is_math());
    }

    #[test]
    fn trace_tokens_are_sequential() {
        let mut t = WarpTrace::default();
        let a = t.push(TraceInstr {
            pc: 0,
            kind: InstrKind::Misc,
            deps: [Tok::NONE; 3],
            acc_dep: Tok::NONE,
            mem_idx: TraceInstr::NO_MEM,
        });
        let b = t.push(TraceInstr {
            pc: 1,
            kind: InstrKind::Misc,
            deps: [a, Tok::NONE, Tok::NONE],
            acc_dep: Tok::NONE,
            mem_idx: TraceInstr::NO_MEM,
        });
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn dangling_deps_name_self_and_forward_tokens() {
        let instr = |deps, acc_dep| TraceInstr {
            pc: 0,
            kind: InstrKind::Misc,
            deps,
            acc_dep,
            mem_idx: TraceInstr::NO_MEM,
        };
        let mut t = WarpTrace::default();
        let a = t.push(instr([Tok::NONE; 3], Tok::NONE));
        t.push(instr([a, Tok(1), Tok::NONE], Tok::NONE));
        t.push(instr([a; 3], Tok(5)));
        assert_eq!(t.dangling_deps().collect::<Vec<_>>(), [(1, 1), (2, 5)]);
    }
}
