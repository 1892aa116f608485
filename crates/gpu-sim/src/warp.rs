//! The kernel programming interface: per-CTA and per-warp contexts.
//!
//! Kernels are written once against [`WarpCtx`]; every operation both
//! performs the functional effect (in [`Mode::Functional`]) and emits a
//! trace instruction (in [`Mode::Performance`]) so the functional and
//! performance paths can never diverge structurally.

use crate::launch::Mode;
use crate::mem::{BufferId, MemPool};
use crate::program::Site;
use crate::tcu::{execute_mma, execute_mma_shadow, MmaFlavor};
use crate::trace::{AccessDetail, InstrKind, MemAccess, Tok, TraceInstr, WarpTrace};
use crate::wvec::WVec;
use crate::WARP_SIZE;

/// Per-CTA shared memory: element-granular storage with a declared element
/// width used for byte addressing and transaction modelling.
pub struct SharedMem {
    data: Vec<f32>,
    elems: usize,
    elem_bytes: u64,
}

impl SharedMem {
    /// Allocate shared memory of `elems` elements, each `elem_bytes` wide.
    pub fn new(elems: usize, elem_bytes: u64, functional: bool) -> Self {
        SharedMem {
            data: if functional {
                vec![0.0; elems]
            } else {
                Vec::new()
            },
            elems,
            elem_bytes,
        }
    }

    /// Logical capacity in elements (tracked even when the backing values
    /// are ghosts in performance mode).
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// Capacity in bytes (for occupancy accounting).
    pub fn bytes(&self) -> u64 {
        self.elems as u64 * self.elem_bytes
    }

    #[inline]
    fn read(&self, idx: usize) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data[idx]
        }
    }

    #[inline]
    fn write(&mut self, idx: usize, v: f32) {
        if !self.data.is_empty() {
            self.data[idx] = v;
        }
    }
}

/// A value-level observation made while a CTA runs with
/// [`CtaCtx::check_values`] on — the sanitizer's NaN/Inf propagation
/// tracer for the fp16 path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SanEvent {
    /// Warp index within the CTA.
    pub warp: usize,
    /// Static instruction (site) id of the access.
    pub pc: u32,
    /// Lane that carried the offending value.
    pub lane: usize,
    /// What was observed.
    pub kind: SanEventKind,
    /// The offending value.
    pub value: f32,
}

/// Per-site error observation folded while a CTA runs with
/// [`CtaCtx::shadow_exec`] on: the worst absolute deviation between a
/// stored working value and its fp64 shadow twin, across every lane and
/// element stored at that static instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShadowObs {
    /// Static instruction (site) id of the store.
    pub pc: u32,
    /// Number of stored values compared at this site.
    pub samples: u64,
    /// Largest `|working − shadow|` observed.
    pub max_abs_err: f64,
}

impl ShadowObs {
    /// Fold another observation at the same site into this one.
    pub fn merge(&mut self, other: &ShadowObs) {
        debug_assert_eq!(self.pc, other.pc);
        self.samples += other.samples;
        if other.max_abs_err > self.max_abs_err {
            self.max_abs_err = other.max_abs_err;
        }
    }
}

/// Kinds of value-level observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SanEventKind {
    /// A NaN or infinity was loaded from global memory (a propagation
    /// source upstream of this kernel).
    NonFiniteLoaded,
    /// A NaN or infinity was stored to global or shared memory.
    NonFiniteStored,
    /// A finite value outside binary16 range (|v| > 65504) was stored
    /// through a 16-bit element — it becomes ±Inf on real hardware.
    F16Overflow,
}

/// Per-CTA execution state. Kernels run as `run_cta(&mut CtaCtx)` and
/// obtain [`WarpCtx`] handles for each of the CTA's warps; cooperative
/// (multi-warp) kernels interleave their phases explicitly, mirroring the
/// barrier structure of the real code.
pub struct CtaCtx<'a> {
    /// Linear CTA index within the grid.
    pub cta_id: usize,
    /// Execution mode.
    pub mode: Mode,
    /// Model shared-memory bank conflicts (off by default: the kernels'
    /// shared layouts are approximations of padded real layouts, so
    /// conflict degrees computed from them are only meaningful when a
    /// kernel opts in with exact offsets).
    pub model_bank_conflicts: bool,
    /// Record per-lane [`AccessDetail`] on every traced memory access
    /// (performance mode only). Off by default — the sanitizer turns it on
    /// for its analysis runs; the scheduler never reads the detail.
    pub record_detail: bool,
    /// Check values flowing through memory operations (functional mode
    /// only) and record [`SanEvent`]s for NaN/Inf propagation and f16
    /// overflow. Off by default.
    pub check_values: bool,
    /// fp64 shadow execution (functional mode only): tensor-core ops also
    /// maintain f64 twins, shadow-aware kernels thread twins through their
    /// epilogues, and every global store of a twinned value records a
    /// [`ShadowObs`]. Off by default; the working f32/f16 results are
    /// bit-identical either way, and performance mode never looks at it.
    pub shadow_exec: bool,
    mem: &'a MemPool,
    value_reads: u64,
    shared: SharedMem,
    traces: Vec<WarpTrace>,
    pending_writes: Vec<(BufferId, u32, f32)>,
    san_events: Vec<SanEvent>,
    shadow_obs: Vec<ShadowObs>,
}

impl<'a> CtaCtx<'a> {
    /// Create the context for one CTA with `warps` warps and `smem_elems`
    /// shared-memory elements of `smem_elem_bytes` each.
    pub fn new(
        cta_id: usize,
        mode: Mode,
        mem: &'a MemPool,
        warps: usize,
        smem_elems: usize,
        smem_elem_bytes: u64,
    ) -> Self {
        CtaCtx {
            cta_id,
            mode,
            model_bank_conflicts: false,
            record_detail: false,
            check_values: false,
            shadow_exec: false,
            mem,
            value_reads: 0,
            shared: SharedMem::new(smem_elems, smem_elem_bytes, mode == Mode::Functional),
            traces: vec![WarpTrace::default(); warps],
            pending_writes: Vec::new(),
            san_events: Vec::new(),
            shadow_obs: Vec::new(),
        }
    }

    /// Logical shared-memory capacity in elements.
    pub fn smem_elems(&self) -> usize {
        self.shared.elems()
    }

    /// Pre-size each warp's trace with a lower-bound instruction-count
    /// hint (typically the launch's static instruction count). Purely an
    /// allocation hint: traces grow past it amortised as usual.
    pub fn reserve_traces(&mut self, instrs: usize) {
        for t in &mut self.traces {
            t.instrs.reserve(instrs);
            t.mem.reserve(instrs / 4);
        }
    }

    /// Value-level observations recorded so far (see [`CtaCtx::check_values`]).
    pub fn san_events(&self) -> &[SanEvent] {
        &self.san_events
    }

    /// Drain the recorded value-level observations.
    pub fn take_san_events(&mut self) -> Vec<SanEvent> {
        std::mem::take(&mut self.san_events)
    }

    /// Per-site shadow-error observations recorded so far (see
    /// [`CtaCtx::shadow_exec`]), one entry per store site, folded.
    pub fn shadow_obs(&self) -> &[ShadowObs] {
        &self.shadow_obs
    }

    /// Drain the recorded shadow-error observations.
    pub fn take_shadow_obs(&mut self) -> Vec<ShadowObs> {
        std::mem::take(&mut self.shadow_obs)
    }

    /// Number of warps in this CTA.
    pub fn warps(&self) -> usize {
        self.traces.len()
    }

    /// Obtain the context of warp `w`.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn warp(&mut self, w: usize) -> WarpCtx<'_, 'a> {
        assert!(w < self.traces.len(), "warp index out of range");
        WarpCtx { cta: self, w }
    }

    /// Read element `idx` of `buf` on the host (0.0 for ghost buffers):
    /// a kernel's only untraced way to see an operand value. Every call
    /// is counted per CTA, so a performance-mode [`capture`](crate::capture())
    /// can prove a trace never depended on one.
    pub fn read(&mut self, buf: BufferId, idx: usize) -> f32 {
        self.value_reads += 1;
        self.mem.read(buf, idx)
    }

    /// Number of [`CtaCtx::read`] calls this CTA has made.
    pub(crate) fn value_reads(&self) -> u64 {
        self.value_reads
    }

    /// Consume the CTA, returning warp traces and buffered global writes.
    /// Public so tests and external tooling can inspect the instruction
    /// stream a kernel emits.
    pub fn finish(self) -> (Vec<WarpTrace>, Vec<(BufferId, u32, f32)>) {
        (self.traces, self.pending_writes)
    }
}

/// Offsets for a warp memory operation: per-lane starting element index,
/// `u32::MAX` marking an inactive (predicated-off) lane.
pub type LaneOffsets = [u32; WARP_SIZE];

/// Shared-memory bank-conflict degree of a warp access: Volta has 32
/// four-byte banks; lanes touching different words of the same bank
/// serialise. Broadcasts (same word) do not conflict.
pub fn bank_conflict_degree(offsets: &LaneOffsets, elem_bytes: u64) -> u8 {
    let mut words_per_bank: [Vec<u64>; 32] = Default::default();
    for &o in offsets.iter().filter(|&&o| o != u32::MAX) {
        let byte = u64::from(o) * elem_bytes;
        let word = byte / 4;
        let bank = (word % 32) as usize;
        if !words_per_bank[bank].contains(&word) {
            words_per_bank[bank].push(word);
        }
    }
    words_per_bank
        .iter()
        .map(|w| w.len())
        .max()
        .unwrap_or(1)
        .max(1) as u8
}

/// An all-lanes-inactive offset array to build from.
pub const NO_LANES: LaneOffsets = [u32::MAX; WARP_SIZE];

/// The per-warp operation set. All operations are warp-wide (SIMT).
pub struct WarpCtx<'c, 'a> {
    cta: &'c mut CtaCtx<'a>,
    w: usize,
}

impl WarpCtx<'_, '_> {
    /// Execution mode.
    pub fn mode(&self) -> Mode {
        self.cta.mode
    }

    /// Linear CTA index.
    pub fn cta_id(&self) -> usize {
        self.cta.cta_id
    }

    /// This warp's index within its CTA.
    pub fn warp_id(&self) -> usize {
        self.w
    }

    /// [`CtaCtx::read`] while the warp context is borrowed.
    pub fn read(&mut self, buf: BufferId, idx: usize) -> f32 {
        self.cta.read(buf, idx)
    }

    fn functional(&self) -> bool {
        self.cta.mode == Mode::Functional
    }

    /// True when fp64 shadow execution is on (and values are live).
    /// Shadow-aware kernels consult this to decide whether to thread f64
    /// twins through their host-side epilogues.
    pub fn shadow_exec(&self) -> bool {
        self.cta.shadow_exec && self.functional()
    }

    /// Fold one stored-value-vs-shadow comparison into the per-site
    /// observation table.
    fn record_shadow(&mut self, site: Site, working: f32, shadow: f64) {
        let err = (f64::from(working) - shadow).abs();
        let obs = ShadowObs {
            pc: site.0,
            samples: 1,
            max_abs_err: err,
        };
        match self.cta.shadow_obs.iter_mut().find(|o| o.pc == site.0) {
            Some(existing) => existing.merge(&obs),
            None => self.cta.shadow_obs.push(obs),
        }
    }

    fn emit(
        &mut self,
        site: Site,
        kind: InstrKind,
        deps: [Tok; 3],
        acc_dep: Tok,
        mem: Option<MemAccess>,
    ) -> Tok {
        if self.functional() {
            return Tok::NONE;
        }
        let trace = &mut self.cta.traces[self.w];
        let mem_idx = match mem {
            Some(m) => trace.push_mem(m),
            None => TraceInstr::NO_MEM,
        };
        trace.push(TraceInstr {
            pc: site.0,
            kind,
            deps,
            acc_dep,
            mem_idx,
        })
    }

    fn deps3(deps: &[Tok]) -> [Tok; 3] {
        let mut out = [Tok::NONE; 3];
        for (i, &d) in deps.iter().take(3).enumerate() {
            out[i] = d;
        }
        out
    }

    fn active_count(offsets: &LaneOffsets) -> u8 {
        offsets.iter().filter(|&&o| o != u32::MAX).count() as u8
    }

    /// Per-lane detail for the trace, when the CTA opted in.
    fn detail_for(
        &self,
        buf: Option<BufferId>,
        offsets: &LaneOffsets,
        epl: usize,
        elem_bytes: u64,
        shared: bool,
    ) -> Option<Box<AccessDetail>> {
        if !self.cta.record_detail {
            return None;
        }
        let bank_degree = if shared {
            bank_conflict_degree(offsets, elem_bytes)
        } else {
            1
        };
        Some(Box::new(AccessDetail {
            buf,
            offsets: *offsets,
            epl: epl as u32,
            elem_bytes,
            bank_degree,
        }))
    }

    /// Cap on recorded value events per CTA; a kernel drowning in NaNs
    /// does not need every instance reported.
    const SAN_EVENT_CAP: usize = 4096;

    fn check_value(&mut self, site: Site, lane: usize, v: f32, store: bool, elem_bytes: u64) {
        if self.cta.san_events.len() >= Self::SAN_EVENT_CAP {
            return;
        }
        let kind = if v.is_nan() || v.is_infinite() {
            if store {
                SanEventKind::NonFiniteStored
            } else {
                SanEventKind::NonFiniteLoaded
            }
        } else if store && elem_bytes == 2 && v.abs() > crate::F16_MAX {
            SanEventKind::F16Overflow
        } else {
            return;
        };
        self.cta.san_events.push(SanEvent {
            warp: self.w,
            pc: site.0,
            lane,
            kind,
            value: v,
        });
    }

    /// Global vector load: each active lane loads `epl` consecutive
    /// elements of `buf` starting at its offset. The load width per lane is
    /// `epl × element width` (LDG.32/.64/.128 in SASS terms).
    ///
    /// Returns the loaded warp vector. Functional values are read from the
    /// pool; in performance mode the result is a ghost carrying the trace
    /// token, and the access's 32-byte sectors are recorded for the cache
    /// model.
    pub fn ldg(
        &mut self,
        site: Site,
        buf: BufferId,
        offsets: &LaneOffsets,
        epl: usize,
        deps: &[Tok],
    ) -> WVec {
        let width = self.cta.mem.width(buf);
        let bits = (epl as u32) * width.bits();
        debug_assert!(bits <= 128, "vector loads are at most 128 bits per lane");
        if self.functional() {
            let len = self.cta.mem.len(buf);
            let mut out = WVec::zeros(epl);
            for lane in 0..WARP_SIZE {
                let off = offsets[lane];
                if off == u32::MAX {
                    continue;
                }
                for e in 0..epl {
                    // Elements past the buffer end read as zero — the
                    // tail predication a real kernel applies to partial
                    // vector loads at tile edges.
                    let idx = off as usize + e;
                    if idx < len {
                        let v = self.cta.mem.read(buf, idx);
                        out.set(lane, e, v);
                        if self.cta.check_values {
                            self.check_value(site, lane, v, false, 0);
                        }
                    }
                }
            }
            out
        } else {
            let len = self.cta.mem.len(buf) as u64;
            let elem_bytes = width.bytes();
            let sectors =
                crate::cache::coalesce(offsets.iter().filter(|&&o| o != u32::MAX).map(|&o| {
                    let span = (epl as u64).min(len.saturating_sub(u64::from(o)));
                    (self.cta.mem.addr(buf, o as usize), span.max(1) * elem_bytes)
                }));
            let detail = self.detail_for(Some(buf), offsets, epl, elem_bytes, false);
            let tok = self.emit(
                site,
                InstrKind::Ldg { bits },
                Self::deps3(deps),
                Tok::NONE,
                Some(MemAccess {
                    sectors,
                    global: true,
                    store: false,
                    conflict: 1,
                    active_lanes: Self::active_count(offsets),
                    detail,
                }),
            );
            WVec::ghost(epl, tok)
        }
    }

    /// Global vector store of `epl` consecutive elements per active lane.
    /// Functional writes are buffered per CTA and applied after the launch
    /// (CTAs write disjoint regions).
    pub fn stg(
        &mut self,
        site: Site,
        buf: BufferId,
        offsets: &LaneOffsets,
        value: &WVec,
        deps: &[Tok],
    ) {
        let epl = value.elems_per_lane();
        let width = self.cta.mem.width(buf);
        let bits = (epl as u32) * width.bits();
        debug_assert!(bits <= 128);
        if self.functional() {
            let len = self.cta.mem.len(buf);
            let elem_bytes = width.bytes();
            for lane in 0..WARP_SIZE {
                let off = offsets[lane];
                if off == u32::MAX {
                    continue;
                }
                for e in 0..epl {
                    // Tail predication, as in `ldg`.
                    if off as usize + e < len {
                        let v = value.get(lane, e);
                        self.cta.pending_writes.push((buf, off + e as u32, v));
                        if self.cta.check_values {
                            self.check_value(site, lane, v, true, elem_bytes);
                        }
                        if self.cta.shadow_exec && value.has_shadow() {
                            self.record_shadow(site, v, value.get_shadow(lane, e));
                        }
                    }
                }
            }
        } else {
            let elem_bytes = width.bytes();
            let sectors = crate::cache::coalesce(
                offsets
                    .iter()
                    .filter(|&&o| o != u32::MAX)
                    .map(|&o| (self.cta.mem.addr(buf, o as usize), epl as u64 * elem_bytes)),
            );
            let mut deps_full = Self::deps3(deps);
            if deps_full[0] == Tok::NONE {
                deps_full[0] = value.tok();
            }
            let detail = self.detail_for(Some(buf), offsets, epl, elem_bytes, false);
            self.emit(
                site,
                InstrKind::Stg { bits },
                deps_full,
                Tok::NONE,
                Some(MemAccess {
                    sectors,
                    global: true,
                    store: true,
                    conflict: 1,
                    active_lanes: Self::active_count(offsets),
                    detail,
                }),
            );
        }
    }

    /// Shared-memory store: each active lane writes `epl` consecutive
    /// shared elements starting at its offset.
    pub fn sts(&mut self, site: Site, offsets: &LaneOffsets, value: &WVec, deps: &[Tok]) {
        let epl = value.elems_per_lane();
        let bits = (epl as u64 * self.cta.shared.elem_bytes * 8) as u32;
        if self.functional() {
            let elem_bytes = self.cta.shared.elem_bytes;
            for lane in 0..WARP_SIZE {
                let off = offsets[lane];
                if off == u32::MAX {
                    continue;
                }
                for e in 0..epl {
                    let v = value.get(lane, e);
                    self.cta.shared.write(off as usize + e, v);
                    if self.cta.check_values {
                        self.check_value(site, lane, v, true, elem_bytes);
                    }
                }
            }
        } else {
            let mut deps_full = Self::deps3(deps);
            if deps_full[0] == Tok::NONE {
                deps_full[0] = value.tok();
            }
            let conflict = if self.cta.model_bank_conflicts {
                bank_conflict_degree(offsets, self.cta.shared.elem_bytes)
            } else {
                1
            };
            let detail = self.detail_for(None, offsets, epl, self.cta.shared.elem_bytes, true);
            self.emit(
                site,
                InstrKind::Sts { bits },
                deps_full,
                Tok::NONE,
                Some(MemAccess {
                    sectors: Vec::new(),
                    global: false,
                    store: true,
                    conflict,
                    active_lanes: Self::active_count(offsets),
                    detail,
                }),
            );
        }
    }

    /// Shared-memory load of `epl` consecutive elements per active lane.
    pub fn lds(&mut self, site: Site, offsets: &LaneOffsets, epl: usize, deps: &[Tok]) -> WVec {
        let bits = (epl as u64 * self.cta.shared.elem_bytes * 8) as u32;
        if self.functional() {
            let mut out = WVec::zeros(epl);
            for lane in 0..WARP_SIZE {
                let off = offsets[lane];
                if off == u32::MAX {
                    continue;
                }
                for e in 0..epl {
                    out.set(lane, e, self.cta.shared.read(off as usize + e));
                }
            }
            out
        } else {
            let conflict = if self.cta.model_bank_conflicts {
                bank_conflict_degree(offsets, self.cta.shared.elem_bytes)
            } else {
                1
            };
            let detail = self.detail_for(None, offsets, epl, self.cta.shared.elem_bytes, true);
            let tok = self.emit(
                site,
                InstrKind::Lds { bits },
                Self::deps3(deps),
                Tok::NONE,
                Some(MemAccess {
                    sectors: Vec::new(),
                    global: false,
                    store: false,
                    conflict,
                    active_lanes: Self::active_count(offsets),
                    detail,
                }),
            );
            WVec::ghost(epl, tok)
        }
    }

    /// Tensor-core `mma.m8n8k4`: functional octet semantics plus
    /// `flavor.hmma_count()` HMMA trace instructions. Returns the token of
    /// the last HMMA (the accumulator producer).
    pub fn mma_m8n8k4(
        &mut self,
        site: Site,
        a: &WVec,
        b: &WVec,
        acc: &mut WVec,
        flavor: MmaFlavor,
    ) -> Tok {
        if self.functional() {
            if self.cta.shadow_exec {
                // Twin first: its widening fallback must read the
                // accumulator *before* the working pass rounds into it.
                execute_mma_shadow(a, b, acc, flavor);
            }
            execute_mma(a, b, acc, flavor);
            return Tok::NONE;
        }
        let deps = [a.tok(), b.tok(), Tok::NONE];
        let acc_dep = acc.tok();
        let mut last = Tok::NONE;
        for step in 0..flavor.hmma_count() as u32 {
            // Each HMMA step is a distinct static instruction.
            last = self.emit(
                Site(site.0 + step),
                InstrKind::Hmma,
                deps,
                if step == 0 { acc_dep } else { last },
                None,
            );
        }
        acc.set_tok(last);
        last
    }

    /// Emit `count` FPU math instructions (cost only; functional kernels
    /// compute their values directly on the host side of the warp) at a
    /// single static PC — a **rolled** loop body. `kind` must be a math
    /// kind. Returns the token of the last instruction.
    pub fn math(&mut self, site: Site, kind: InstrKind, count: u32, deps: &[Tok]) -> Tok {
        debug_assert!(kind.is_math() || matches!(kind, InstrKind::Misc));
        let mut last = Tok::NONE;
        if self.functional() {
            return last;
        }
        let deps3 = Self::deps3(deps);
        for _ in 0..count {
            last = self.emit(site, kind, deps3, Tok::NONE, None);
        }
        last
    }

    /// Emit `count` math instructions at **consecutive static PCs**
    /// starting at `site` — a fully-unrolled sequence. The distinction
    /// matters to the L0 instruction-cache model: unrolled code occupies
    /// real cache capacity, rolled code does not.
    pub fn math_unrolled(&mut self, site: Site, kind: InstrKind, count: u32, deps: &[Tok]) -> Tok {
        debug_assert!(kind.is_math() || matches!(kind, InstrKind::Misc));
        let mut last = Tok::NONE;
        if self.functional() {
            return last;
        }
        let deps3 = Self::deps3(deps);
        for i in 0..count {
            last = self.emit(Site(site.0 + i), kind, deps3, Tok::NONE, None);
        }
        last
    }

    /// Emit `count` integer (IMAD/IADD3) address-arithmetic instructions
    /// at a single static PC (rolled loop).
    pub fn int_ops(&mut self, site: Site, count: u32, deps: &[Tok]) -> Tok {
        let mut last = Tok::NONE;
        if self.functional() {
            return last;
        }
        let deps3 = Self::deps3(deps);
        for _ in 0..count {
            last = self.emit(site, InstrKind::Imad, deps3, Tok::NONE, None);
        }
        last
    }

    /// Emit `count` integer instructions at consecutive static PCs
    /// (unrolled address arithmetic).
    pub fn int_ops_unrolled(&mut self, site: Site, count: u32, deps: &[Tok]) -> Tok {
        let mut last = Tok::NONE;
        if self.functional() {
            return last;
        }
        let deps3 = Self::deps3(deps);
        for i in 0..count {
            last = self.emit(Site(site.0 + i), InstrKind::Imad, deps3, Tok::NONE, None);
        }
        last
    }

    /// Warp shuffle: lane `l` of the result receives `src` lane
    /// `src_lane(l)`'s values. Models `__shfl_sync` and friends.
    pub fn shfl(
        &mut self,
        site: Site,
        src: &WVec,
        src_lane: impl Fn(usize) -> usize,
        deps: &[Tok],
    ) -> WVec {
        let epl = src.elems_per_lane();
        if self.functional() {
            let mut out = WVec::zeros(epl);
            for lane in 0..WARP_SIZE {
                let s = src_lane(lane);
                debug_assert!(s < WARP_SIZE);
                for e in 0..epl {
                    out.set(lane, e, src.get(s, e));
                }
            }
            out
        } else {
            let mut deps_full = Self::deps3(deps);
            if deps_full[0] == Tok::NONE {
                deps_full[0] = src.tok();
            }
            let tok = self.emit(site, InstrKind::Shfl, deps_full, Tok::NONE, None);
            WVec::ghost(epl, tok)
        }
    }

    /// CTA-wide barrier (BAR.SYNC). In the timing model all warps of the
    /// CTA must reach their barrier before any proceeds; functionally the
    /// kernel's phase structure provides the ordering.
    pub fn bar_sync(&mut self, site: Site) {
        self.emit(site, InstrKind::Bar, [Tok::NONE; 3], Tok::NONE, None);
    }

    /// `__threadfence_block()`-style compiler barrier: the paper inserts
    /// one between the load batch and the mma batch to stop the compiler
    /// from reusing source registers (§5.4, the ILP trick).
    pub fn fence(&mut self, site: Site) {
        self.emit(site, InstrKind::Fence, [Tok::NONE; 3], Tok::NONE, None);
    }

    /// Miscellaneous control instruction (loop branch, predicate setup).
    pub fn misc(&mut self, site: Site, count: u32) {
        if self.functional() {
            return;
        }
        for _ in 0..count {
            self.emit(site, InstrKind::Misc, [Tok::NONE; 3], Tok::NONE, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::ElemWidth;
    use crate::program::Program;

    fn pool_with_data() -> (MemPool, BufferId) {
        let mut pool = MemPool::new();
        let buf = pool.alloc_init(ElemWidth::B16, (0..64).map(|i| i as f32).collect());
        (pool, buf)
    }

    #[test]
    fn functional_ldg_reads_values() {
        let (pool, buf) = pool_with_data();
        let mut cta = CtaCtx::new(0, Mode::Functional, &pool, 1, 0, 2);
        let mut prog = Program::new();
        let site = prog.site("ld", 0);
        let mut offsets = NO_LANES;
        offsets[0] = 4;
        offsets[1] = 8;
        let v = cta.warp(0).ldg(site, buf, &offsets, 2, &[]);
        assert_eq!(v.get(0, 0), 4.0);
        assert_eq!(v.get(0, 1), 5.0);
        assert_eq!(v.get(1, 0), 8.0);
        assert_eq!(v.get(2, 0), 0.0); // Inactive lane.
    }

    #[test]
    fn perf_ldg_traces_sectors() {
        let mut prog = Program::new();
        let site = prog.site("ld", 0);
        // All 32 lanes load 8 halves each, consecutive: 512B = 16 sectors.
        let mut offsets = [0u32; WARP_SIZE];
        for (l, o) in offsets.iter_mut().enumerate() {
            *o = (l * 8) as u32;
        }
        // Need a buffer big enough: 32*8 = 256 elements.
        let mut pool2 = MemPool::new();
        let big = pool2.alloc_ghost(ElemWidth::B16, 256);
        let mut cta2 = CtaCtx::new(0, Mode::Performance, &pool2, 1, 0, 2);
        let v = cta2.warp(0).ldg(site, big, &offsets, 8, &[]);
        assert!(v.is_ghost());
        let (traces, _) = cta2.finish();
        let instr = &traces[0].instrs[0];
        assert_eq!(instr.kind, InstrKind::Ldg { bits: 128 });
        assert_eq!(traces[0].mem_of(instr).unwrap().sectors.len(), 16);
    }

    #[test]
    fn functional_store_buffers_writes() {
        let (pool, _) = pool_with_data();
        let mut pool = pool;
        let out = pool.alloc_zeroed(ElemWidth::B16, 64);
        let mut cta = CtaCtx::new(0, Mode::Functional, &pool, 1, 0, 2);
        let mut prog = Program::new();
        let site = prog.site("st", 0);
        let mut v = WVec::zeros(1);
        v.set(3, 0, 7.5);
        let mut offsets = NO_LANES;
        offsets[3] = 10;
        cta.warp(0).stg(site, out, &offsets, &v, &[]);
        let (_, writes) = cta.finish();
        assert_eq!(writes, vec![(out, 10, 7.5)]);
        pool.apply_writes(out, &[(10, 7.5)]);
        assert_eq!(pool.read(out, 10), 7.5);
    }

    #[test]
    fn shared_memory_roundtrip() {
        let (pool, _) = pool_with_data();
        let mut cta = CtaCtx::new(0, Mode::Functional, &pool, 2, 128, 2);
        let mut prog = Program::new();
        let sts = prog.site("sts", 0);
        let lds = prog.site("lds", 0);
        let mut v = WVec::zeros(2);
        v.set(0, 0, 1.0);
        v.set(0, 1, 2.0);
        let mut off = NO_LANES;
        off[0] = 6;
        cta.warp(0).sts(sts, &off, &v, &[]);
        // Warp 1 reads what warp 0 wrote (cooperative CTA).
        let r = cta.warp(1).lds(lds, &off, 2, &[]);
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(0, 1), 2.0);
    }

    #[test]
    fn shfl_permutes_lanes() {
        let (pool, _) = pool_with_data();
        let mut cta = CtaCtx::new(0, Mode::Functional, &pool, 1, 0, 2);
        let mut prog = Program::new();
        let site = prog.site("shfl", 0);
        let mut v = WVec::zeros(1);
        for lane in 0..WARP_SIZE {
            v.set(lane, 0, lane as f32);
        }
        // Butterfly with mask 16: lane l gets lane l ^ 16.
        let r = cta.warp(0).shfl(site, &v, |l| l ^ 16, &[]);
        assert_eq!(r.get(0, 0), 16.0);
        assert_eq!(r.get(31, 0), 15.0);
    }

    #[test]
    fn perf_mma_emits_hmma_chain() {
        let (pool, _) = pool_with_data();
        let mut cta = CtaCtx::new(0, Mode::Performance, &pool, 1, 0, 2);
        let mut prog = Program::new();
        let site = prog.site("mma", 0);
        let a = WVec::ghost(4, Tok::NONE);
        let b = WVec::ghost(4, Tok::NONE);
        let mut acc = WVec::ghost(8, Tok::NONE);
        cta.warp(0)
            .mma_m8n8k4(site, &a, &b, &mut acc, MmaFlavor::Standard);
        cta.warp(0)
            .mma_m8n8k4(site, &a, &b, &mut acc, MmaFlavor::Truncated);
        let (traces, _) = cta.finish();
        assert_eq!(traces[0].len(), 6); // 4 + 2 HMMA.
        assert!(traces[0].instrs.iter().all(|i| i.kind == InstrKind::Hmma));
        // Second mma's first HMMA carries the acc dependency on the first
        // mma's last HMMA (accumulator chain).
        assert_eq!(traces[0].instrs[4].acc_dep, Tok(3));
    }
}

#[cfg(test)]
mod bank_tests {
    use super::*;

    #[test]
    fn broadcast_does_not_conflict() {
        // All lanes read the same 4-byte word: hardware broadcasts.
        let offs = [0u32; WARP_SIZE];
        assert_eq!(bank_conflict_degree(&offs, 4), 1);
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let mut offs = NO_LANES;
        for (l, o) in offs.iter_mut().enumerate() {
            *o = l as u32;
        }
        assert_eq!(bank_conflict_degree(&offs, 4), 1);
    }

    #[test]
    fn stride_32_words_is_fully_serialised() {
        // Every lane maps to bank 0 with a distinct word: 32-way conflict.
        let mut offs = NO_LANES;
        for (l, o) in offs.iter_mut().enumerate() {
            *o = (l * 32) as u32;
        }
        assert_eq!(bank_conflict_degree(&offs, 4), 32);
    }

    #[test]
    fn half_elements_pair_within_words() {
        // Two consecutive halves share a 4-byte word: stride-2 halves are
        // conflict-free; stride-64 halves (32 words) conflict fully.
        let mut offs = NO_LANES;
        for (l, o) in offs.iter_mut().enumerate() {
            *o = (l * 2) as u32;
        }
        assert_eq!(bank_conflict_degree(&offs, 2), 1);
        for (l, o) in offs.iter_mut().enumerate() {
            *o = (l * 64) as u32;
        }
        assert_eq!(bank_conflict_degree(&offs, 2), 32);
    }
}
