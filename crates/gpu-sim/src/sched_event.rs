//! The production wave scheduler: the event-driven twin of the tick
//! scheduler ([`crate::sched::simulate_wave`]), which stays only as the
//! timing oracle that tests and `VECSPARSE_AUDIT` compare it against.
//!
//! The tick scheduler re-derives every warp's readiness from scratch each
//! round: three scoreboard lookups, the accumulator-forwarding window, and
//! the barrier gate, for every resident warp, every round — plus a
//! heap-allocated scheduler ordering per round and a hash-map L0 with an
//! O(capacity) eviction scan. For stall-free regions (the common case on
//! the tensor-core kernels this simulator exists for) all of that work
//! recomputes values that cannot have changed.
//!
//! `simulate_wave_event` runs the *same* round structure — the global
//! issue order, and therefore every shared L1/L2 access order, is
//! reproduced exactly — but advances through it event-wise: each warp's
//! next-event time (`ready` = max of dependency completions, barrier
//! resume, and its own issue-port serialisation) is computed once when the
//! warp advances to a new instruction and cached until something that can
//! move it actually happens.
//!
//! **Readiness invariant.** Dependency tokens only ever point at *earlier
//! instructions of the same warp* (the wave certificate checks def-use
//! well-formedness, and `simulate_wave` would index out of bounds
//! otherwise), so a warp's readiness changes in only two cases: (a) the
//! warp itself issues, or (b) a barrier release rewrites its `resume_at`.
//! Both sites refresh the cache, so the cached next-event time is always
//! exactly the value the tick scheduler recomputes from the scoreboards.
//! Every round therefore scans the cached readiness in the tick
//! scheduler's round-robin order and picks the same first strict minimum;
//! a warp parked at an unreleased barrier (`resume_at == u64::MAX`) or
//! with an exhausted trace reads `u64::MAX` and can never win. The release
//! refreshes every parked warp of its CTA.
//!
//! **Spans.** A traced wave (an attached [`WaveObs`]) runs the same loop
//! and records, per issue, the attributed stall portions back to back
//! from the cycle after the warp's previous issue — barrier, then the
//! dependency, then `not_selected`, then `no_instruction` — followed by
//! the issue span. The stall spans therefore sum to the wave's
//! [`StallBreakdown`], and there is one issue span per issued
//! instruction (`tests/timing.rs` checks both across the registry).
//!
//! Why the remaining deltas are safe:
//! - The L0 replacement here is an exact LRU list; the tick model's
//!   hash-map + `min_by_key` eviction picks the unique minimum last-use
//!   tick, and ticks strictly increase, so both choose the same victim.
//! - Stall counters are f64 accumulations of integer-valued cycle gaps in
//!   the identical issue order; when a gap is zero the addition is skipped,
//!   which is bitwise invisible (`x + 0.0 == x` for the non-negative
//!   accumulators involved).

use crate::cache::{RecordingL2, SectorCache};
use crate::config::GpuConfig;
use crate::profile::{InstrCounts, StallBreakdown};
use crate::sched::WaveResult;
use crate::trace::{InstrKind, MemAccess, Pipe, Tok, TraceInstr, WarpTrace, ALL_PIPES};
use vecsparse_telemetry::{ArgValue, TraceShard};

/// Telemetry observer for one simulated wave: a worker-local
/// [`TraceShard`] buffering per-scheduler issue and stall spans at
/// wave-relative ticks. The wave doesn't know (and with parallel waves
/// *cannot* know) its absolute start time or the sink's sequence
/// numbering — the launch's sequential merge phase rebases the shard
/// with [`vecsparse_telemetry::TraceSink::merge_shard`].
#[derive(Default)]
pub struct WaveObs {
    shard: TraceShard,
}

impl WaveObs {
    /// A fresh observer for one wave.
    pub fn new() -> WaveObs {
        WaveObs::default()
    }

    /// The buffered spans, wave-relative.
    pub fn into_shard(self) -> TraceShard {
        self.shard
    }

    /// Lay one issue's attributed stall portions back to back on
    /// scheduler `s`'s track from `from` (the cycle after the warp's
    /// previous issue), skipping empty ones.
    fn stalls(&mut self, s: usize, from: u64, portions: [(&'static str, u64); 4]) {
        let mut at = from;
        for (reason, dur) in portions {
            if dur > 0 {
                self.shard
                    .push_span(s as u32 + 1, reason, "stall", at, dur, Vec::new());
                at += dur;
            }
        }
    }

    /// One issued instruction on scheduler `s`'s track, with its pc and
    /// latency, plus sector and L1-miss counts for a global access.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        s: usize,
        instr: &TraceInstr,
        mem: Option<&MemAccess>,
        issue_at: u64,
        interval: u64,
        latency: u64,
        l1_missed: u64,
    ) {
        let mut args: Vec<(&'static str, ArgValue)> = vec![
            ("pc", ArgValue::U64(instr.pc as u64)),
            ("lat", ArgValue::U64(latency)),
        ];
        if let Some(mem) = mem.filter(|m| m.global) {
            args.push(("sectors", ArgValue::U64(mem.sectors.len() as u64)));
            args.push(("l1_missed", ArgValue::U64(l1_missed)));
        }
        self.shard.push_span(
            s as u32 + 1,
            instr.kind.mnemonic(),
            "issue",
            issue_at,
            interval.max(1),
            args,
        );
    }
}

const FETCH_GROUP: u32 = 8;

/// Exact-LRU L0 with O(1) hits: recency is a per-slot timestamp (one
/// store per hit) rather than a linked list, and the O(capacity) victim
/// scan runs only on a miss with a full cache. Timestamps are unique, so
/// the evicted group is the unique least-recently-used one — the same
/// victim [`crate::icache::ICache`]'s `min_by_key` picks (see module
/// docs).
struct FastICache {
    capacity: usize,
    /// group -> slot index + 1 (0 = absent); grown on demand.
    map: Vec<u32>,
    /// Resident fetch groups: `(group, last_use)`.
    slots: Vec<(u32, u64)>,
    tick: u64,
    misses: u64,
    lookups: u64,
}

impl FastICache {
    fn new(entries: usize) -> FastICache {
        FastICache {
            capacity: (entries / FETCH_GROUP as usize).max(1),
            map: Vec::new(),
            slots: Vec::new(),
            tick: 0,
            misses: 0,
            lookups: 0,
        }
    }

    /// Fetch the group containing static instruction `pc`; true on miss.
    fn fetch(&mut self, pc: u32) -> bool {
        self.lookups += 1;
        self.tick += 1;
        let group = (pc / FETCH_GROUP) as usize;
        if group >= self.map.len() {
            self.map.resize(group + 1, 0);
        }
        let slot = self.map[group];
        if slot != 0 {
            self.slots[slot as usize - 1].1 = self.tick;
            return false;
        }
        self.misses += 1;
        if self.slots.len() < self.capacity {
            self.slots.push((group as u32, self.tick));
            self.map[group] = self.slots.len() as u32;
        } else {
            // Evict the least-recently-used group: the unique minimum
            // last-use timestamp.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, t))| t)
                .map(|(i, _)| i)
                .expect("cache has at least one slot");
            self.map[self.slots[victim].0 as usize] = 0;
            self.slots[victim] = (group as u32, self.tick);
            self.map[group] = victim as u32 + 1;
        }
        true
    }
}

struct WarpState<'t> {
    trace: &'t WarpTrace,
    cta: usize,
    next: usize,
    completion: Vec<u64>,
    last_issue: u64,
    resume_at: u64,
    // Event cache for instruction `next`, valid whenever the warp is not
    // parked at a barrier; refreshed on issue and on barrier release.
    ready: u64,
    pipe: usize,
    dep_t: u64,
    dep_reason: Option<InstrKind>,
}

struct BarrierState {
    warps: usize,
    arrived: usize,
}

struct Sched {
    /// Number of warp slots this scheduler round-robins over.
    nw: usize,
    cursor: u64,
    icache: FastICache,
    fetch_free: u64,
    pipe_free: [u64; ALL_PIPES.len()],
    pipe_busy: [u64; ALL_PIPES.len()],
    rr: usize,
    /// Warps whose trace is not yet exhausted.
    live: usize,
}

fn pipe_index(p: Pipe) -> usize {
    ALL_PIPES.iter().position(|&q| q == p).unwrap()
}

/// Branch-free `pipe_index(kind.pipe())`, checked against the scan in a
/// test below — `refresh` runs once per issued instruction.
fn pipe_index_of(kind: InstrKind) -> usize {
    match kind {
        InstrKind::Ffma => 0,
        InstrKind::Hfma2 => 1,
        InstrKind::Hmma => 2,
        InstrKind::Imad => 3,
        InstrKind::Ldg { .. } | InstrKind::Stg { .. } => 4,
        InstrKind::Lds { .. } | InstrKind::Sts { .. } => 5,
        InstrKind::Shfl => 6,
        InstrKind::Bar | InstrKind::Fence | InstrKind::Misc => 7,
    }
}

/// Recompute the event cache for `w`'s next instruction. Must be called
/// after every issue of this warp and whenever a barrier release changes
/// its `resume_at` — the only two events that can move its readiness.
fn refresh(w: &mut WarpState, cfg: &GpuConfig) {
    if w.next >= w.trace.len() {
        return;
    }
    let instr = &w.trace.instrs[w.next];
    let mut ready = w.resume_at.max(w.last_issue + 1);
    let mut dep_t = 0u64;
    let mut dep_reason: Option<InstrKind> = None;
    for &d in &instr.deps {
        if d != Tok::NONE {
            let t = w.completion[d.0 as usize];
            ready = ready.max(t);
            if t > dep_t {
                dep_t = t;
                dep_reason = Some(w.trace.instrs[d.0 as usize].kind);
            }
        }
    }
    if instr.acc_dep != Tok::NONE {
        let t = w.completion[instr.acc_dep.0 as usize];
        let issue_based = t
            .saturating_sub(cfg.timing.hmma_latency)
            .saturating_add(cfg.timing.hmma_acc_forward);
        ready = ready.max(issue_based.min(t));
        if t > dep_t {
            dep_t = t;
            dep_reason = Some(InstrKind::Hmma);
        }
    }
    w.ready = ready;
    w.pipe = pipe_index_of(instr.kind);
    w.dep_t = dep_t;
    w.dep_reason = dep_reason;
}

/// Simulate one SM wave event-wise: the [`WaveResult`] is bit-identical
/// to [`crate::sched::simulate_wave`]'s (see the module docs for the
/// argument).
///
/// `ctas` are the resident thread blocks (each a slice of warp traces).
/// `l1` is this SM's L1; `l2` is the wave's [`RecordingL2`], whose op log
/// the launch replays into the shared device L2 in wave order. When `obs`
/// is set, every issue and attributed stall is buffered as a
/// wave-relative span; timing is unaffected.
pub fn simulate_wave_event(
    cfg: &GpuConfig,
    ctas: &[&[WarpTrace]],
    l1: &mut SectorCache,
    l2: &mut RecordingL2,
    mut obs: Option<&mut WaveObs>,
) -> WaveResult {
    let timing = &cfg.timing;
    let nsched = cfg.schedulers_per_sm;

    // Warps are stored *scheduler-major*: storage index `s * stride +
    // slot` holds the warp the reference assigns to scheduler `s =
    // i % nsched` at round-robin slot `slot = i / nsched` (`i` being the
    // CTA-order warp index). A scheduler's warps are then contiguous —
    // the hot scan-and-issue path needs no slot→warp indirection — and
    // the storage index doubles as the `ready_cache` index. Slot order
    // equals CTA order within a scheduler, so issue order is untouched.
    // Trailing slots of the last schedulers are padded with empty-trace
    // dummies (`cta = usize::MAX`, never matched by a barrier release).
    let empty_trace = WarpTrace::default();
    let flat: Vec<(usize, &WarpTrace)> = ctas
        .iter()
        .enumerate()
        .flat_map(|(cta_idx, cta)| cta.iter().map(move |t| (cta_idx, t)))
        .collect();
    let total = flat.len();
    let stride = total.div_ceil(nsched).max(1);
    let mut warps: Vec<WarpState> = Vec::with_capacity(nsched * stride);
    for x in 0..nsched * stride {
        let (s, slot) = (x / stride, x % stride);
        let i = slot * nsched + s;
        let (cta, trace) = if i < total {
            flat[i]
        } else {
            (usize::MAX, &empty_trace)
        };
        warps.push(WarpState {
            trace,
            cta,
            next: 0,
            completion: Vec::with_capacity(trace.len()),
            last_issue: 0,
            resume_at: 0,
            ready: 0,
            pipe: 0,
            dep_t: 0,
            dep_reason: None,
        });
    }
    let mut barriers: Vec<BarrierState> = ctas
        .iter()
        .map(|cta| BarrierState {
            warps: cta.len(),
            arrived: 0,
        })
        .collect();
    for w in warps.iter_mut() {
        refresh(w, cfg);
    }

    let mut scheds: Vec<Sched> = (0..nsched)
        .map(|s| Sched {
            nw: (total + nsched - 1 - s.min(total.saturating_sub(1))) / nsched,
            cursor: 0,
            icache: FastICache::new(cfg.icache_entries),
            fetch_free: 0,
            pipe_free: [0; ALL_PIPES.len()],
            pipe_busy: [0; ALL_PIPES.len()],
            rr: 0,
            live: 0,
        })
        .collect();
    for (x, w) in warps.iter().enumerate() {
        if !w.trace.is_empty() {
            scheds[x / stride].live += 1;
        }
    }

    let mut intervals = [0u64; ALL_PIPES.len()];
    for (pi, &p) in ALL_PIPES.iter().enumerate() {
        intervals[pi] = timing.issue_interval(p);
    }

    let mut stalls = StallBreakdown::default();
    // Accumulated as an integer and converted once at the end: `n`
    // additions of `1.0` and `n as f64` are the same value exactly for
    // any count this simulator can reach.
    let mut issued: u64 = 0;
    let mut instrs = InstrCounts::default();
    let mut pc_issues: Vec<u64> = Vec::new();
    let mut last_retire: u64 = 0;

    // Dense mirror of each warp's cached readiness, sharing the
    // scheduler-major storage index, so the scan below is a contiguous
    // u64 min-scan instead of chasing `WarpState` structs.
    // `u64::MAX` marks exhausted or parked warps; a schedulable warp can
    // never reach it (readiness is bounded by issue times + latencies).
    let mut ready_cache: Vec<u64> = vec![u64::MAX; nsched * stride];
    for (x, w) in warps.iter().enumerate() {
        if w.next < w.trace.len() {
            ready_cache[x] = w.ready;
        }
    }

    // Scheduler ordering, reused across rounds (insertion sort below is
    // stable, matching the reference's stable `sort_by_key`).
    let mut order: Vec<usize> = Vec::with_capacity(nsched);

    loop {
        let mut progressed = false;
        order.clear();
        for s in 0..nsched {
            if scheds[s].live == 0 {
                continue;
            }
            let mut i = order.len();
            order.push(s);
            while i > 0 && scheds[order[i - 1]].cursor > scheds[s].cursor {
                order[i] = order[i - 1];
                i -= 1;
            }
            order[i] = s;
        }
        if order.is_empty() {
            break;
        }

        for oi in 0..order.len() {
            let s = order[oi];
            let sched = &scheds[s];
            if sched.live == 0 {
                continue;
            }
            let nw = sched.nw;
            // Contiguous min-scan over the readiness mirror in round-robin
            // order from `rr`: the first strict minimum wins, exactly as in
            // the tick scheduler. Exhausted and parked slots sit at
            // `u64::MAX` and can never win.
            let row = &ready_cache[s * stride..s * stride + nw];
            let (tail, head) = row.split_at(sched.rr);
            let mut ready = u64::MAX;
            let mut slot = 0usize;
            for (i, &r) in head.iter().enumerate() {
                if r < ready {
                    ready = r;
                    slot = sched.rr + i;
                }
            }
            for (i, &r) in tail.iter().enumerate() {
                if r < ready {
                    ready = r;
                    slot = i;
                }
            }
            if ready == u64::MAX {
                // All live warps parked at barriers; another scheduler
                // must release them.
                continue;
            }

            let sched = &mut scheds[s];
            let wi = s * stride + slot;
            sched.rr = (slot + 1) % nw;

            let w = &warps[wi];
            let instr = &w.trace.instrs[w.next];
            let pi = w.pipe;
            let pre_issue = ready.max(sched.cursor).max(sched.pipe_free[pi]);

            let icache_miss = sched.icache.fetch(instr.pc);
            let issue_at = if icache_miss {
                let fetch_start = pre_issue.max(sched.fetch_free);
                let done = fetch_start + timing.icache_miss_penalty;
                sched.fetch_free = done;
                done
            } else {
                pre_issue
            };

            // Stall attribution over [last_issue + 1, issue_at). Skipped
            // entirely when the gap is zero: every contribution would be
            // `+= 0.0`, which is bitwise invisible on these non-negative
            // accumulators.
            let base = w.last_issue + 1;
            if issue_at > base {
                let mut remaining = issue_at - base;
                let mut icache = 0;
                if icache_miss {
                    icache = remaining.min(issue_at - pre_issue.min(issue_at));
                    stalls.no_instruction += icache as f64;
                    remaining -= icache;
                }
                let mut barrier = 0;
                if w.resume_at > base {
                    barrier = remaining.min(w.resume_at - base);
                    stalls.barrier += barrier as f64;
                    remaining -= barrier;
                }
                let mut dep = ("wait", 0);
                if w.dep_t > base {
                    let d = remaining.min(w.dep_t - base);
                    match w.dep_reason {
                        Some(InstrKind::Ldg { .. }) => {
                            stalls.long_scoreboard += d as f64;
                            dep = ("long_scoreboard", d);
                        }
                        Some(InstrKind::Lds { .. }) => {
                            stalls.short_scoreboard += d as f64;
                            dep = ("short_scoreboard", d);
                        }
                        Some(_) => {
                            stalls.wait += d as f64;
                            dep = ("wait", d);
                        }
                        None => {}
                    }
                    remaining -= d;
                }
                stalls.not_selected += remaining as f64;
                if let Some(obs) = obs.as_deref_mut() {
                    // Over the gap [base, issue_at): barrier release
                    // first, then the dependency, arbitration, and finally
                    // the fetch (the L0 miss is serviced last, right
                    // before issue).
                    obs.stalls(
                        s,
                        base,
                        [
                            ("barrier", barrier),
                            dep,
                            ("not_selected", remaining),
                            ("no_instruction", icache),
                        ],
                    );
                }
            }
            issued += 1;

            let imem = w.trace.mem_of(instr);
            let mut l1_missed = 0;
            let latency = match instr.kind {
                InstrKind::Ffma | InstrKind::Hfma2 | InstrKind::Imad | InstrKind::Misc => {
                    timing.alu_latency
                }
                InstrKind::Hmma => timing.hmma_latency,
                InstrKind::Shfl => timing.shfl_latency,
                InstrKind::Lds { .. } => timing.lds_latency,
                InstrKind::Sts { .. } => timing.alu_latency,
                InstrKind::Bar | InstrKind::Fence => 1,
                InstrKind::Stg { .. } => {
                    if let Some(mem) = imem {
                        l1.store(&mem.sectors);
                        l2.store(&mem.sectors);
                    }
                    timing.alu_latency
                }
                InstrKind::Ldg { .. } => {
                    let mut lat = timing.l1_hit_latency;
                    if let Some(mem) = imem {
                        l1_missed = l1.access(&mem.sectors);
                        if l1_missed > 0 {
                            // Same L2 re-probe as the tick model.
                            let missed_l2 = l2.access(&mem.sectors[..l1_missed as usize]);
                            lat = if missed_l2 > 0 {
                                timing.dram_latency
                            } else {
                                timing.l2_hit_latency
                            };
                        }
                    }
                    lat
                }
            };

            instrs.bump(instr.kind);
            let pc = instr.pc as usize;
            if pc >= pc_issues.len() {
                pc_issues.resize(pc + 1, 0);
            }
            pc_issues[pc] += 1;
            sched.cursor = issue_at + 1;
            let conflict = imem.map_or(1, |m| if m.global { 1 } else { u64::from(m.conflict) });
            let interval = intervals[pi] * conflict.max(1);
            sched.pipe_free[pi] = issue_at + interval;
            sched.pipe_busy[pi] += interval;
            if let Some(obs) = obs.as_deref_mut() {
                obs.issue(s, instr, imem, issue_at, interval, latency, l1_missed);
            }

            let completion = issue_at + latency;
            last_retire = last_retire.max(completion);

            let is_bar = matches!(instr.kind, InstrKind::Bar);
            let w = &mut warps[wi];
            w.completion.push(completion);
            w.last_issue = issue_at;
            if is_bar {
                w.next += 1;
                let b = &mut barriers[w.cta];
                b.arrived += 1;
                if b.arrived == b.warps {
                    b.arrived = 0;
                    let release = issue_at + 1;
                    let cta = w.cta;
                    if w.next >= w.trace.len() {
                        sched.live -= 1;
                        ready_cache[wi] = u64::MAX;
                    } else {
                        refresh(w, cfg);
                        ready_cache[wi] = w.ready;
                    }
                    for (owi, other) in warps.iter_mut().enumerate() {
                        if other.cta == cta && other.resume_at == u64::MAX {
                            other.resume_at = release;
                            refresh(other, cfg);
                            ready_cache[owi] = if other.next >= other.trace.len() {
                                u64::MAX
                            } else {
                                other.ready
                            };
                        }
                    }
                } else {
                    w.resume_at = u64::MAX;
                    ready_cache[wi] = u64::MAX;
                    if w.next >= w.trace.len() {
                        sched.live -= 1;
                    }
                    // No refresh while parked: the release refreshes.
                }
                progressed = true;
                continue;
            }

            if w.resume_at != u64::MAX && w.resume_at <= issue_at {
                w.resume_at = 0;
            }
            w.next += 1;
            if w.next >= w.trace.len() {
                sched.live -= 1;
                ready_cache[wi] = u64::MAX;
            } else {
                refresh(w, cfg);
                ready_cache[wi] = w.ready;
            }
            progressed = true;
        }

        if !progressed {
            let all_done = warps.iter().all(|w| w.next >= w.trace.len());
            assert!(all_done, "scheduler deadlock: unbalanced barriers");
            break;
        }
    }

    stalls.issued = issued as f64;
    let cycles = last_retire.max(scheds.iter().map(|s| s.cursor).max().unwrap_or(0));
    let mut pipe_busy: Vec<(Pipe, u64)> = ALL_PIPES
        .iter()
        .map(|&p| {
            let pi = pipe_index(p);
            (p, scheds.iter().map(|s| s.pipe_busy[pi]).sum())
        })
        .collect();
    pipe_busy.sort_by_key(|&(_, busy)| std::cmp::Reverse(busy));

    WaveResult {
        cycles,
        stalls,
        instrs,
        pipe_busy,
        pc_issues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, L2Op};
    use crate::icache::ICache;
    use crate::sched::simulate_wave;
    use crate::trace::{MemAccess, TraceInstr};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn instr(pc: u32, kind: InstrKind, deps: [Tok; 3]) -> TraceInstr {
        TraceInstr {
            pc,
            kind,
            deps,
            acc_dep: Tok::NONE,
            mem_idx: TraceInstr::NO_MEM,
        }
    }

    /// What one wave leaves behind: its result, its L1 statistics and
    /// its L2 op log — everything the launch audit compares.
    type Timed = (WaveResult, CacheStats, Vec<L2Op>);

    /// Time `ctas` with the tick oracle and with the event scheduler, each
    /// on fresh caches.
    fn both(cfg: &GpuConfig, ctas: &[&[WarpTrace]]) -> (Timed, Timed) {
        let mut l1 = SectorCache::new(cfg.l1_bytes, cfg.l1_ways);
        let mut l2 = RecordingL2::new(cfg.l2_bytes, cfg.l2_ways);
        let tick = simulate_wave(cfg, ctas, &mut l1, &mut l2);
        let tick = (tick, l1.stats, l2.into_ops());
        let mut l1 = SectorCache::new(cfg.l1_bytes, cfg.l1_ways);
        let mut l2 = RecordingL2::new(cfg.l2_bytes, cfg.l2_ways);
        let event = simulate_wave_event(cfg, ctas, &mut l1, &mut l2, None);
        (tick, (event, l1.stats, l2.into_ops()))
    }

    #[test]
    fn pipe_index_of_matches_scan_for_every_kind() {
        for kind in [
            InstrKind::Ffma,
            InstrKind::Hfma2,
            InstrKind::Hmma,
            InstrKind::Imad,
            InstrKind::Ldg { bits: 128 },
            InstrKind::Stg { bits: 128 },
            InstrKind::Lds { bits: 64 },
            InstrKind::Sts { bits: 64 },
            InstrKind::Shfl,
            InstrKind::Bar,
            InstrKind::Fence,
            InstrKind::Misc,
        ] {
            assert_eq!(pipe_index_of(kind), pipe_index(kind.pipe()), "{kind:?}");
        }
    }

    #[test]
    fn fast_icache_matches_reference_on_thrashing_pattern() {
        let mut reference = ICache::new(768);
        let mut fast = FastICache::new(768);
        // Interleave two loops with a stride pattern so eviction order
        // matters, and check every fetch decision agrees.
        for pass in 0..4u32 {
            for pc in 0..1200u32 {
                let pc = if pc % 3 == 0 {
                    pc * 7 % 1600
                } else {
                    pc + pass
                };
                assert_eq!(reference.fetch(pc), fast.fetch(pc), "pc {pc} pass {pass}");
            }
        }
        assert_eq!(reference.misses, fast.misses);
        assert_eq!(reference.lookups, fast.lookups);
    }

    #[test]
    fn stall_free_chains_match_tick_exactly() {
        let cfg = GpuConfig::small();
        let chain = |seed: u32| {
            let mut t = WarpTrace::default();
            let mut prev = Tok::NONE;
            for i in 0..200 {
                prev = t.push(instr(
                    (seed + i) % 16,
                    InstrKind::Ffma,
                    [prev, Tok::NONE, Tok::NONE],
                ));
            }
            t
        };
        let ctas: Vec<[WarpTrace; 1]> = (0..6).map(|s| [chain(s)]).collect();
        let refs: Vec<&[WarpTrace]> = ctas.iter().map(|c| &c[..]).collect();
        let (tick, event) = both(&cfg, &refs);
        assert_eq!(tick, event);
    }

    #[test]
    fn global_loads_match_tick_exactly() {
        let cfg = GpuConfig::small();
        let mut t = WarpTrace::default();
        for i in 0..50u64 {
            let mem_idx = t.push_mem(MemAccess {
                sectors: vec![i * 4, i * 4 + 1, i * 4 + 2, i * 4 + 3],
                global: true,
                store: false,
                ..MemAccess::default()
            });
            let ld = t.push(TraceInstr {
                pc: (i % 32) as u32,
                kind: InstrKind::Ldg { bits: 128 },
                deps: [Tok::NONE; 3],
                acc_dep: Tok::NONE,
                mem_idx,
            });
            t.push(instr(40, InstrKind::Ffma, [ld, Tok::NONE, Tok::NONE]));
        }
        let cta = [t];
        let (tick, event) = both(&cfg, &[&cta]);
        assert_eq!(tick, event);
    }

    /// One random warp: `bars + 1` segments of up to 24 instructions
    /// separated by barriers, with random intra-warp dependencies (HMMA
    /// accumulator chains included), global loads and stores over a small
    /// sector range (so L1 and L2 both hit and miss) and shared accesses
    /// with bank conflicts. Pcs span either one L0 or several.
    fn random_warp(rng: &mut StdRng, bars: usize, pc_span: u32) -> WarpTrace {
        let mut t = WarpTrace::default();
        let mut last_hmma = Tok::NONE;
        for seg in 0..=bars {
            for _ in 0..rng.gen_range(0..=24) {
                let n = t.len() as u32;
                let mut dep = || {
                    if n > 0 && rng.gen_bool(0.6) {
                        Tok(n - 1 - rng.gen_range(0..n.min(8)))
                    } else {
                        Tok::NONE
                    }
                };
                let deps = [dep(), dep(), dep()];
                let kind = match rng.gen_range(0..10) {
                    0 => InstrKind::Ffma,
                    1 => InstrKind::Hfma2,
                    2 | 3 => InstrKind::Hmma,
                    4 => InstrKind::Imad,
                    5 => InstrKind::Ldg { bits: 128 },
                    6 => InstrKind::Stg { bits: 64 },
                    7 => InstrKind::Lds { bits: 64 },
                    8 => InstrKind::Sts { bits: 32 },
                    _ => [InstrKind::Shfl, InstrKind::Fence, InstrKind::Misc][rng.gen_range(0..3)],
                };
                let mem_idx = match kind {
                    InstrKind::Ldg { .. } | InstrKind::Stg { .. } => {
                        let first = rng.gen_range(0..256u64) * 4;
                        t.push_mem(MemAccess {
                            sectors: (first..first + rng.gen_range(1..=8u64)).collect(),
                            global: true,
                            store: matches!(kind, InstrKind::Stg { .. }),
                            ..MemAccess::default()
                        })
                    }
                    InstrKind::Lds { .. } | InstrKind::Sts { .. } => t.push_mem(MemAccess {
                        store: matches!(kind, InstrKind::Sts { .. }),
                        conflict: rng.gen_range(1..=4),
                        ..MemAccess::default()
                    }),
                    _ => TraceInstr::NO_MEM,
                };
                let acc_dep = if kind == InstrKind::Hmma && rng.gen_bool(0.7) {
                    last_hmma
                } else {
                    Tok::NONE
                };
                let tok = t.push(TraceInstr {
                    pc: rng.gen_range(0..pc_span),
                    kind,
                    deps,
                    acc_dep,
                    mem_idx,
                });
                if kind == InstrKind::Hmma {
                    last_hmma = tok;
                }
            }
            if seg < bars {
                t.push(instr(pc_span, InstrKind::Bar, [Tok::NONE; 3]));
            }
        }
        t
    }

    /// Random multi-warp barrier waves: 1–6 CTAs of 1–8 warps, each CTA
    /// with 0–5 barriers every warp reaches, so most rounds run while some
    /// warp is parked at a barrier. The event scheduler's wave result, L1
    /// statistics and L2 op log must equal the tick oracle's on every
    /// wave.
    #[test]
    fn random_barrier_waves_match_tick() {
        let mut rng = StdRng::seed_from_u64(0xba55);
        let mut barrier_stalls = 0.0;
        for cfg in [GpuConfig::small(), GpuConfig::default()] {
            for wave in 0..100 {
                let pc_span = if rng.gen_bool(0.5) { 64 } else { 2048 };
                let ctas: Vec<Vec<WarpTrace>> = (0..rng.gen_range(1..=6))
                    .map(|_| {
                        let bars = rng.gen_range(0..=5);
                        (0..rng.gen_range(1..=8))
                            .map(|_| random_warp(&mut rng, bars, pc_span))
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[WarpTrace]> = ctas.iter().map(Vec::as_slice).collect();
                let (tick, event) = both(&cfg, &refs);
                assert_eq!(tick, event, "wave {wave} on {} SMs", cfg.num_sms);
                barrier_stalls += tick.0.stalls.barrier;
            }
        }
        assert!(barrier_stalls > 0.0, "no warp ever waited at a barrier");
    }
}
