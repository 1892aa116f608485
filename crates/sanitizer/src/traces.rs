//! Performance-trace passes: everything derivable from a kernel's emitted
//! instruction stream plus the per-lane [`AccessDetail`] the sanitizer
//! asks the substrate to record.
//!
//! One CTA is analysed at a time. The passes are:
//!
//! * **def-use** — dangling dependency tokens (a register read whose
//!   producer comes at or after the consumer), HMMA operands no
//!   instruction staged, stores of untracked data;
//! * **barriers** — unequal `BAR.SYNC` counts across warps (the scheduler
//!   would hang) and shared-memory accesses from different warps in the
//!   same barrier epoch that overlap with at least one write (a missing
//!   barrier between producer and consumer phases, or a plain race);
//! * **bounds** — global/shared accesses outside their launch-declared
//!   allocations, and partially out-of-bounds vector stores;
//! * **layout** — uncoalesced global loads (more 128-byte transactions
//!   than a coalesced layout of the same footprint) and shared-memory
//!   bank serialisation;
//! * **program** — trace PCs at or above the declared static length, and
//!   two instruction kinds sharing one static PC (under-reserved sites).

use std::collections::HashMap;

use vecsparse_gpu_sim::{
    AccessDetail, GpuConfig, InstrKind, LaunchConfig, MemAccess, MemPool, Program, Tok, TraceInstr,
    WarpTrace,
};

use crate::diag::{Category, Diagnostic, Report, Severity};

/// Shared context for all trace passes over one kernel.
pub(crate) struct Env<'a> {
    pub cfg: &'a GpuConfig,
    pub mem: &'a MemPool,
    pub lc: &'a LaunchConfig,
    pub program: Option<&'a Program>,
}

impl Env<'_> {
    fn label(&self, pc: u32) -> String {
        self.program.map(|p| p.describe(pc)).unwrap_or_default()
    }

    #[allow(clippy::too_many_arguments)] // A diagnostic's fields, flat.
    fn diag(
        &self,
        category: Category,
        severity: Severity,
        cta: usize,
        warp: usize,
        instr: Option<usize>,
        pc: Option<u32>,
        lane: Option<usize>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            category,
            severity,
            cta,
            warp,
            instr,
            pc,
            label: pc.map(|pc| self.label(pc)).unwrap_or_default(),
            lane,
            message,
            count: 1,
        }
    }
}

/// Kernel-level checks that do not need a trace (run once, reported
/// against CTA 0).
pub(crate) fn check_static(env: &Env<'_>, report: &mut Report) {
    if env.lc.static_instrs as usize > env.cfg.icache_entries {
        report.push(env.diag(
            Category::IcacheOverflow,
            Severity::Warn,
            0,
            0,
            None,
            None,
            None,
            format!(
                "static program of {} instructions exceeds the {}-entry L0 \
                 instruction cache; expect No-Instruction stalls",
                env.lc.static_instrs, env.cfg.icache_entries
            ),
        ));
    }
    if let Some(p) = env.program {
        if p.static_len() > env.lc.static_instrs {
            report.push(env.diag(
                Category::StaticLenMismatch,
                Severity::Deny,
                0,
                0,
                None,
                None,
                None,
                format!(
                    "program registers {} sites but the launch declares only \
                     {} static instructions",
                    p.static_len(),
                    env.lc.static_instrs
                ),
            ));
        }
    }
}

/// All per-CTA trace passes.
pub(crate) fn check_cta(env: &Env<'_>, cta: usize, traces: &[WarpTrace], report: &mut Report) {
    for (w, trace) in traces.iter().enumerate() {
        check_def_use(env, cta, w, trace, report);
        for (i, ins) in trace.instrs.iter().enumerate() {
            if let Some(mem) = trace.mem_of(ins) {
                if let Some(detail) = &mem.detail {
                    check_bounds(env, cta, w, i, ins, mem, detail, report);
                    if mem.global && !mem.store {
                        check_coalescing(env, cta, w, i, ins, mem, detail, report);
                    }
                    if !mem.global {
                        check_banks(env, cta, w, i, ins, detail, report);
                    }
                }
            }
        }
    }
    check_pc_aliasing(env, cta, traces, report);
    check_barriers(env, cta, traces, report);
}

/// Def-use pass over one warp trace, plus the trace-PC range check.
fn check_def_use(env: &Env<'_>, cta: usize, w: usize, trace: &WarpTrace, report: &mut Report) {
    let mut dangling = trace.dangling_deps().peekable();
    for (i, ins) in trace.instrs.iter().enumerate() {
        while let Some((_, idx)) = dangling.next_if(|&(at, _)| at == i) {
            report.push(env.diag(
                Category::DanglingToken,
                Severity::Deny,
                cta,
                w,
                Some(i),
                Some(ins.pc),
                None,
                format!(
                    "dependency token #{idx} has no producer before \
                     instruction #{i} in this warp (cross-warp or \
                     future token)"
                ),
            ));
        }
        let no_deps = ins.deps.iter().all(|&d| d == Tok::NONE);
        match ins.kind {
            InstrKind::Hmma => {
                let a_none = ins.deps[0] == Tok::NONE;
                let b_none = ins.deps[1] == Tok::NONE;
                if a_none && b_none {
                    report.push(
                        env.diag(
                            Category::UninitOperand,
                            Severity::Deny,
                            cta,
                            w,
                            Some(i),
                            Some(ins.pc),
                            None,
                            "HMMA consumes A and B fragments no instruction staged \
                         (uninitialised operand registers)"
                                .into(),
                        ),
                    );
                } else if a_none || b_none {
                    report.push(env.diag(
                        Category::UninitOperand,
                        Severity::Warn,
                        cta,
                        w,
                        Some(i),
                        Some(ins.pc),
                        None,
                        format!(
                            "HMMA {} fragment has no tracked producer",
                            if a_none { "A" } else { "B" }
                        ),
                    ));
                }
            }
            InstrKind::Stg { .. } if no_deps && ins.acc_dep == Tok::NONE => {
                report.push(env.diag(
                    Category::UninitStore,
                    Severity::Deny,
                    cta,
                    w,
                    Some(i),
                    Some(ins.pc),
                    None,
                    "global store of data no instruction produced".into(),
                ));
            }
            InstrKind::Sts { .. } if no_deps && ins.acc_dep == Tok::NONE => {
                report.push(env.diag(
                    Category::UninitStore,
                    Severity::Warn,
                    cta,
                    w,
                    Some(i),
                    Some(ins.pc),
                    None,
                    "shared store of data no instruction produced".into(),
                ));
            }
            _ => {}
        }
        if ins.pc >= env.lc.static_instrs {
            report.push(env.diag(
                Category::StaticLenMismatch,
                Severity::Deny,
                cta,
                w,
                Some(i),
                Some(ins.pc),
                None,
                format!(
                    "trace pc {} is outside the declared static program of \
                     {} instructions",
                    ins.pc, env.lc.static_instrs
                ),
            ));
        }
    }
}

/// Two different instruction kinds sharing one static PC means the program
/// under-reserved slots (e.g. a multi-step HMMA walking over the next
/// site). The icache model then under-counts the true footprint.
fn check_pc_aliasing(env: &Env<'_>, cta: usize, traces: &[WarpTrace], report: &mut Report) {
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    let mut kind_at: HashMap<u32, (std::mem::Discriminant<InstrKind>, InstrKind)> = HashMap::new();
    let mut flagged: Vec<u32> = Vec::new();
    for (w, trace) in traces.iter().enumerate() {
        for (i, ins) in trace.instrs.iter().enumerate() {
            let d = std::mem::discriminant(&ins.kind);
            match kind_at.get(&ins.pc) {
                None => {
                    kind_at.insert(ins.pc, (d, ins.kind));
                }
                Some(&(seen, first)) if seen != d && !flagged.contains(&ins.pc) => {
                    flagged.push(ins.pc);
                    report.push(env.diag(
                        Category::PcAliasing,
                        Severity::Warn,
                        cta,
                        w,
                        Some(i),
                        Some(ins.pc),
                        None,
                        format!(
                            "static pc hosts both {first:?} and {:?}; a site \
                             span is under-reserved",
                            ins.kind
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Barrier-count divergence and same-epoch shared-memory conflicts.
fn check_barriers(env: &Env<'_>, cta: usize, traces: &[WarpTrace], report: &mut Report) {
    if traces.len() < 2 {
        return; // Single-warp CTAs need no barriers.
    }
    let bar_counts: Vec<usize> = traces
        .iter()
        .map(|t| {
            t.instrs
                .iter()
                .filter(|i| matches!(i.kind, InstrKind::Bar))
                .count()
        })
        .collect();
    if bar_counts.windows(2).any(|w| w[0] != w[1]) {
        report.push(env.diag(
            Category::BarrierDivergence,
            Severity::Deny,
            cta,
            0,
            None,
            None,
            None,
            format!(
                "warps execute unequal BAR.SYNC counts {bar_counts:?}; the \
                 CTA would hang at the barrier"
            ),
        ));
    }

    // Same-epoch shared conflicts. For every shared element, track which
    // warps read and wrote it in each epoch; a write alongside any other
    // warp's access is a conflict.
    #[derive(Default)]
    struct ElemState {
        readers: u64,
        writers: u64,
    }
    // lint: hash-ok — keyed lookup/insert only, never iterated.
    let mut state: HashMap<(u32, u32), ElemState> = HashMap::new(); // (epoch, elem)
    for (w, trace) in traces.iter().enumerate() {
        let wbit = 1u64 << (w % 64);
        let mut epoch = 0u32;
        for (i, ins) in trace.instrs.iter().enumerate() {
            if matches!(ins.kind, InstrKind::Bar) {
                epoch += 1;
                continue;
            }
            let Some(mem) = trace.mem_of(ins) else {
                continue;
            };
            if mem.global {
                continue;
            }
            let Some(detail) = &mem.detail else { continue };
            for (lane, &off) in detail.offsets.iter().enumerate() {
                if off == u32::MAX {
                    continue;
                }
                for e in 0..detail.epl {
                    let elem = off + e;
                    let s = state.entry((epoch, elem)).or_default();
                    let others_r = s.readers & !wbit;
                    let others_w = s.writers & !wbit;
                    if mem.store {
                        if others_w != 0 {
                            report.push(env.diag(
                                Category::SharedRace,
                                Severity::Deny,
                                cta,
                                w,
                                Some(i),
                                Some(ins.pc),
                                Some(lane),
                                format!(
                                    "shared element {elem} written by two warps \
                                     in barrier epoch {epoch}"
                                ),
                            ));
                        } else if others_r != 0 {
                            report.push(env.diag(
                                Category::MissingBarrier,
                                Severity::Deny,
                                cta,
                                w,
                                Some(i),
                                Some(ins.pc),
                                Some(lane),
                                format!(
                                    "shared element {elem} read and written by \
                                     different warps in barrier epoch {epoch} \
                                     with no BAR.SYNC between"
                                ),
                            ));
                        }
                        s.writers |= wbit;
                    } else {
                        if others_w != 0 {
                            report.push(env.diag(
                                Category::MissingBarrier,
                                Severity::Deny,
                                cta,
                                w,
                                Some(i),
                                Some(ins.pc),
                                Some(lane),
                                format!(
                                    "shared element {elem} read in the same \
                                     barrier epoch {epoch} another warp wrote it"
                                ),
                            ));
                        }
                        s.readers |= wbit;
                    }
                }
            }
        }
    }
}

/// Global/shared bounds pass over one access.
#[allow(clippy::too_many_arguments)] // Location context is clearer flat.
fn check_bounds(
    env: &Env<'_>,
    cta: usize,
    w: usize,
    i: usize,
    ins: &TraceInstr,
    mem: &MemAccess,
    detail: &AccessDetail,
    report: &mut Report,
) {
    let store = mem.store;
    match detail.buf {
        Some(buf) => {
            let len = env.mem.len(buf) as u64;
            for (lane, &off) in detail.offsets.iter().enumerate() {
                if off == u32::MAX {
                    continue;
                }
                let off = u64::from(off);
                if off >= len {
                    report.push(env.diag(
                        Category::OobGlobal,
                        Severity::Deny,
                        cta,
                        w,
                        Some(i),
                        Some(ins.pc),
                        Some(lane),
                        format!(
                            "{} at element {off} of a {len}-element buffer \
                             (buf #{})",
                            if store { "store" } else { "load" },
                            buf.index(),
                        ),
                    ));
                } else if store && off + u64::from(detail.epl) > len {
                    report.push(env.diag(
                        Category::StoreTail,
                        Severity::Warn,
                        cta,
                        w,
                        Some(i),
                        Some(ins.pc),
                        Some(lane),
                        format!(
                            "vector store of {} elements at {off} runs past \
                             the {len}-element buffer end",
                            detail.epl
                        ),
                    ));
                }
            }
        }
        None => {
            let elems = env.lc.smem_elems as u64;
            for (lane, &off) in detail.offsets.iter().enumerate() {
                if off == u32::MAX {
                    continue;
                }
                let off = u64::from(off);
                if off + u64::from(detail.epl) > elems {
                    report.push(env.diag(
                        Category::OobShared,
                        Severity::Deny,
                        cta,
                        w,
                        Some(i),
                        Some(ins.pc),
                        Some(lane),
                        format!(
                            "shared {} touches elements {off}..{} of a \
                             {elems}-element allocation",
                            if store { "store" } else { "load" },
                            off + u64::from(detail.epl),
                        ),
                    ));
                }
            }
        }
    }
}

/// Uncoalesced-load pass: compare the 128-byte transactions actually
/// touched against what a coalesced layout of the same footprint needs.
#[allow(clippy::too_many_arguments)] // Location context is clearer flat.
fn check_coalescing(
    env: &Env<'_>,
    cta: usize,
    w: usize,
    i: usize,
    ins: &TraceInstr,
    mem: &MemAccess,
    detail: &AccessDetail,
    report: &mut Report,
) {
    let active_lanes = mem.active_lanes;
    if active_lanes < 8 || mem.sectors.is_empty() {
        return; // Scalar/narrow accesses cannot meaningfully coalesce.
    }
    // Sector addresses are 32-byte granules; fold them to 128-byte lines
    // with the simulator's own classification (an earlier revision
    // divided by 128 here, silently treating sectors as byte addresses
    // and collapsing distinct lines together).
    let mut lines: Vec<u64> = mem
        .sectors
        .iter()
        .map(|&s| vecsparse_gpu_sim::line_of_sector(s))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let bytes = u64::from(active_lanes) * u64::from(detail.epl) * detail.elem_bytes;
    let ideal = bytes.div_ceil(vecsparse_gpu_sim::LINE_BYTES).max(1);
    if lines.len() as u64 > 2 * ideal {
        report.push(env.diag(
            Category::Uncoalesced,
            Severity::Warn,
            cta,
            w,
            Some(i),
            Some(ins.pc),
            None,
            format!(
                "load touches {} 128B lines where a coalesced layout needs \
                 {ideal} ({} lanes × {}×{}B)",
                lines.len(),
                active_lanes,
                detail.epl,
                detail.elem_bytes
            ),
        ));
    }
}

/// Shared-memory bank-serialisation pass.
fn check_banks(
    env: &Env<'_>,
    cta: usize,
    w: usize,
    i: usize,
    ins: &TraceInstr,
    detail: &AccessDetail,
    report: &mut Report,
) {
    if detail.bank_degree >= 4 {
        report.push(env.diag(
            Category::BankConflict,
            Severity::Warn,
            cta,
            w,
            Some(i),
            Some(ins.pc),
            None,
            format!(
                "{}-way shared-memory bank conflict serialises the access",
                detail.bank_degree
            ),
        ));
    } else if detail.bank_degree >= 2 {
        report.push(env.diag(
            Category::BankConflict,
            Severity::Info,
            cta,
            w,
            Some(i),
            Some(ins.pc),
            None,
            format!("{}-way shared-memory bank conflict", detail.bank_degree),
        ));
    }
}
