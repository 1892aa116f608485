//! Per-SM warp-scheduler discrete-event simulation.
//!
//! One "SM wave" is simulated at a time: a set of resident CTAs whose warp
//! traces are interleaved by four scheduler issue ports with loose
//! round-robin arbitration, per-pipe issue intervals, dependency
//! scoreboards, an L0 instruction cache per scheduler, and the L1/L2
//! sector caches for global accesses. The simulation yields cycles plus
//! the stall attribution and cache statistics the profiler reports.

use crate::cache::{RecordingL2, SectorCache};
use crate::config::GpuConfig;
use crate::icache::ICache;
use crate::profile::{InstrCounts, StallBreakdown};
use crate::trace::{InstrKind, Pipe, Tok, WarpTrace, ALL_PIPES};

/// Result of simulating one SM wave.
///
/// `PartialEq` backs the memoizer's audit mode: a re-simulated wave must
/// compare bit-identical to its cached artifact.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WaveResult {
    /// Cycles until the last warp retired its last instruction.
    pub cycles: u64,
    /// Stall attribution in warp cycles.
    pub stalls: StallBreakdown,
    /// Instructions issued (all warps).
    pub instrs: InstrCounts,
    /// Busy cycles per pipe, summed over schedulers.
    pub pipe_busy: Vec<(Pipe, u64)>,
    /// Dynamic issue count per static pc, indexed by pc, for hot-spot
    /// reporting keyed to the program listing. Its length is the highest
    /// issued pc + 1 (empty when nothing issued).
    pub pc_issues: Vec<u64>,
}

struct WarpState<'t> {
    trace: &'t WarpTrace,
    /// CTA this warp belongs to (barrier domain).
    cta: usize,
    /// Next instruction index to issue.
    next: usize,
    /// Completion time of each issued instruction.
    completion: Vec<u64>,
    /// Issue time of the previous instruction.
    last_issue: u64,
    /// Earliest cycle the warp may issue again (set by barrier release).
    resume_at: u64,
}

struct BarrierState {
    /// Warps in the CTA.
    warps: usize,
    /// Arrivals at the current barrier instance.
    arrived: usize,
}

/// Simulate one SM wave with the reference tick scheduler: the timing
/// oracle that [`crate::simulate_wave_event`], the production scheduler,
/// must match bit for bit. The launch's audit (`VECSPARSE_AUDIT`) and
/// the tests call it. Arguments as for `simulate_wave_event`, without
/// the observer: tick records no spans.
pub fn simulate_wave(
    cfg: &GpuConfig,
    ctas: &[&[WarpTrace]],
    l1: &mut SectorCache,
    l2: &mut RecordingL2,
) -> WaveResult {
    let timing = &cfg.timing;
    let nsched = cfg.schedulers_per_sm;

    // Flatten warps, assigning CTAs to schedulers round-robin (all warps
    // of a CTA share a scheduler's L0 in real hardware only per sub-core;
    // we distribute warps round-robin which matches CTA sizes of one warp
    // and spreads cooperative CTAs like the hardware does).
    let mut warps: Vec<WarpState> = Vec::new();
    let mut barriers: Vec<BarrierState> = Vec::new();
    for (cta_idx, cta) in ctas.iter().enumerate() {
        barriers.push(BarrierState {
            warps: cta.len(),
            arrived: 0,
        });
        for trace in cta.iter() {
            warps.push(WarpState {
                trace,
                cta: cta_idx,
                next: 0,
                completion: Vec::with_capacity(trace.len()),
                last_issue: 0,
                resume_at: 0,
            });
        }
    }

    // Scheduler state: assigned warp indices, cursor, icache, pipe budget.
    struct Sched {
        warps: Vec<usize>,
        cursor: u64,
        icache: ICache,
        /// Instruction-fetch port: L0 misses serialise here, which is why
        /// an oversized program starves every warp on the scheduler.
        fetch_free: u64,
        pipe_free: [u64; ALL_PIPES.len()],
        pipe_busy: [u64; ALL_PIPES.len()],
        rr: usize,
        done: bool,
    }
    let mut scheds: Vec<Sched> = (0..nsched)
        .map(|_| Sched {
            warps: Vec::new(),
            cursor: 0,
            icache: ICache::new(cfg.icache_entries),
            fetch_free: 0,
            pipe_free: [0; ALL_PIPES.len()],
            pipe_busy: [0; ALL_PIPES.len()],
            rr: 0,
            done: false,
        })
        .collect();
    for (i, _) in warps.iter().enumerate() {
        scheds[i % nsched].warps.push(i);
    }

    let pipe_index = |p: Pipe| ALL_PIPES.iter().position(|&q| q == p).unwrap();

    let mut stalls = StallBreakdown::default();
    let mut instrs = InstrCounts::default();
    let mut pc_issues: Vec<u64> = Vec::new();
    let mut last_retire: u64 = 0;

    // A warp's next instruction is feasible at `ready_time` =
    // max(dep completions, resume_at, last_issue + 1).
    let dep_time = |w: &WarpState, tok: Tok| -> u64 {
        if tok == Tok::NONE {
            0
        } else {
            w.completion[tok.0 as usize]
        }
    };

    loop {
        // Pick the live scheduler with the smallest cursor.
        let mut progressed = false;
        // Round-robin over schedulers in cursor order.
        let mut order: Vec<usize> = (0..nsched).filter(|&s| !scheds[s].done).collect();
        if order.is_empty() {
            break;
        }
        order.sort_by_key(|&s| scheds[s].cursor);

        for &s in &order {
            // Find a feasible warp for scheduler `s`, preferring loose
            // round-robin among the earliest-ready.
            let sched = &scheds[s];
            let mut best: Option<(u64, usize)> = None; // (ready, warp slot)
            let nw = sched.warps.len();
            let mut all_done = true;
            for k in 0..nw {
                let slot = (sched.rr + k) % nw;
                let wi = sched.warps[slot];
                let w = &warps[wi];
                if w.next >= w.trace.len() {
                    continue;
                }
                all_done = false;
                let instr = &w.trace.instrs[w.next];
                // A warp blocked at an unreleased barrier is infeasible.
                if w.resume_at == u64::MAX {
                    continue;
                }
                let mut ready = w.resume_at.max(w.last_issue + 1);
                for &d in &instr.deps {
                    ready = ready.max(dep_time(w, d));
                }
                if instr.acc_dep != Tok::NONE {
                    // Accumulator forwarding: dependent HMMA may issue
                    // `hmma_acc_forward` after the producer's *issue*.
                    let t = w.completion[instr.acc_dep.0 as usize];
                    let issue_based = t
                        .saturating_sub(cfg.timing.hmma_latency)
                        .saturating_add(cfg.timing.hmma_acc_forward);
                    ready = ready.max(issue_based.min(t));
                }
                match best {
                    None => best = Some((ready, slot)),
                    Some((br, _)) if ready < br => best = Some((ready, slot)),
                    _ => {}
                }
            }
            if all_done {
                scheds[s].done = true;
                continue;
            }
            let Some((ready, slot)) = best else {
                // All warps blocked at barriers; other schedulers must
                // release them.
                continue;
            };

            let sched = &mut scheds[s];
            let wi = sched.warps[slot];
            sched.rr = (slot + 1) % sched.warps.len();

            // Issue time: scheduler port, pipe availability, readiness.
            let w = &warps[wi];
            let instr = &w.trace.instrs[w.next];
            let pi = pipe_index(instr.kind.pipe());
            let pre_issue = ready.max(sched.cursor).max(sched.pipe_free[pi]);

            // Instruction fetch: L0 icache. Misses serialise through the
            // scheduler's fetch port, so a thrashing program starves all
            // resident warps, not just the missing one.
            let icache_miss = sched.icache.fetch(instr.pc);
            let issue_at = if icache_miss {
                let fetch_start = pre_issue.max(sched.fetch_free);
                let done = fetch_start + timing.icache_miss_penalty;
                sched.fetch_free = done;
                done
            } else {
                pre_issue
            };

            // Stall attribution for the gap between when the warp wanted
            // to issue (just after its previous issue) and when it did.
            let base = w.last_issue + 1;
            let mut remaining = issue_at.saturating_sub(base);
            if icache_miss {
                let ic = remaining.min(issue_at - pre_issue.min(issue_at));
                stalls.no_instruction += ic as f64;
                remaining -= ic;
            }
            // Barrier wait portion.
            if w.resume_at > base {
                let b = remaining.min(w.resume_at - base);
                stalls.barrier += b as f64;
                remaining -= b;
            }
            // Dependency portion: attribute to the latest-completing dep.
            let mut dep_reason: Option<InstrKind> = None;
            let mut dep_t = 0;
            for &d in &instr.deps {
                if d != Tok::NONE {
                    let t = w.completion[d.0 as usize];
                    if t > dep_t {
                        dep_t = t;
                        dep_reason = Some(w.trace.instrs[d.0 as usize].kind);
                    }
                }
            }
            if instr.acc_dep != Tok::NONE {
                let t = w.completion[instr.acc_dep.0 as usize];
                if t > dep_t {
                    dep_t = t;
                    dep_reason = Some(InstrKind::Hmma);
                }
            }
            if dep_t > base {
                let d = remaining.min(dep_t - base);
                match dep_reason {
                    Some(InstrKind::Ldg { .. }) => stalls.long_scoreboard += d as f64,
                    Some(InstrKind::Lds { .. }) => stalls.short_scoreboard += d as f64,
                    Some(_) => stalls.wait += d as f64,
                    None => {}
                }
                remaining -= d;
            }
            // Whatever is left: the scheduler or pipe was busy.
            stalls.not_selected += remaining as f64;
            stalls.issued += 1.0;

            // Memory system effects and completion latency.
            let imem = w.trace.mem_of(instr);
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
                        let missed_l1 = l1.access(&mem.sectors);
                        if missed_l1 > 0 {
                            // Approximation: the first `missed_l1` sectors
                            // go to L2; hits there cost L2 latency, misses
                            // DRAM.
                            let missed_l2 = l2.access(&mem.sectors[..missed_l1 as usize]);
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
            // Shared-memory bank conflicts serialise the access: the pipe
            // stays occupied `conflict` times as long.
            let conflict = imem.map_or(1, |m| if m.global { 1 } else { u64::from(m.conflict) });
            let interval = timing.issue_interval(instr.kind.pipe()) * conflict.max(1);
            sched.pipe_free[pi] = issue_at + interval;
            sched.pipe_busy[pi] += interval;

            let completion = issue_at + latency;
            last_retire = last_retire.max(completion);

            // Barrier bookkeeping.
            let w = &mut warps[wi];
            if matches!(instr.kind, InstrKind::Bar) {
                let b = &mut barriers[w.cta];
                b.arrived += 1;
                if b.arrived == b.warps {
                    // Release: all warps of this CTA may resume now.
                    b.arrived = 0;
                    let release = issue_at + 1;
                    let cta = w.cta;
                    w.completion.push(completion);
                    w.last_issue = issue_at;
                    w.next += 1;
                    for other in warps.iter_mut() {
                        if other.cta == cta && other.resume_at == u64::MAX {
                            other.resume_at = release;
                        }
                    }
                    progressed = true;
                    continue;
                } else {
                    // Block until released.
                    w.completion.push(completion);
                    w.last_issue = issue_at;
                    w.next += 1;
                    w.resume_at = u64::MAX;
                    progressed = true;
                    continue;
                }
            }

            w.completion.push(completion);
            w.last_issue = issue_at;
            if w.resume_at != u64::MAX && w.resume_at <= issue_at {
                w.resume_at = 0;
            }
            w.next += 1;
            progressed = true;
        }

        if !progressed {
            // Either everything is done, or we are deadlocked (which is a
            // kernel bug: unbalanced barriers).
            let all_done = warps.iter().all(|w| w.next >= w.trace.len());
            assert!(all_done, "scheduler deadlock: unbalanced barriers");
            break;
        }
    }

    let cycles = last_retire.max(scheds.iter().map(|s| s.cursor).max().unwrap_or(0));
    let mut pipe_busy: Vec<(Pipe, u64)> = ALL_PIPES
        .iter()
        .map(|&p| {
            let pi = ALL_PIPES.iter().position(|&q| q == p).unwrap();
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
    use crate::trace::{MemAccess, TraceInstr};

    fn instr(pc: u32, kind: InstrKind, deps: [Tok; 3]) -> TraceInstr {
        TraceInstr {
            pc,
            kind,
            deps,
            acc_dep: Tok::NONE,
            mem_idx: TraceInstr::NO_MEM,
        }
    }

    fn push_mem_instr(t: &mut WarpTrace, pc: u32, kind: InstrKind, sectors: Vec<u64>) -> Tok {
        let mem_idx = t.push_mem(MemAccess {
            sectors,
            global: true,
            store: matches!(kind, InstrKind::Stg { .. }),
            ..MemAccess::default()
        });
        t.push(TraceInstr {
            pc,
            kind,
            deps: [Tok::NONE; 3],
            acc_dep: Tok::NONE,
            mem_idx,
        })
    }

    fn run(cfg: &GpuConfig, ctas: &[&[WarpTrace]]) -> WaveResult {
        let mut l1 = SectorCache::new(cfg.l1_bytes, cfg.l1_ways);
        let mut l2 = RecordingL2::new(cfg.l2_bytes, cfg.l2_ways);
        simulate_wave(cfg, ctas, &mut l1, &mut l2)
    }

    #[test]
    fn independent_instructions_pipeline() {
        let cfg = GpuConfig::small();
        let mut t = WarpTrace::default();
        for i in 0..100 {
            t.push(instr(i % 4, InstrKind::Ffma, [Tok::NONE; 3]));
        }
        let cta = [t];
        let r = run(&cfg, &[&cta]);
        assert_eq!(r.instrs.ffma, 100);
        // 100 independent FFMA at issue interval 2 ≈ 200 cycles + latency.
        assert!(r.cycles >= 200 && r.cycles < 260, "cycles {}", r.cycles);
    }

    #[test]
    fn dependent_chain_pays_latency() {
        let cfg = GpuConfig::small();
        let mut t = WarpTrace::default();
        let mut prev = Tok::NONE;
        for i in 0..100 {
            prev = t.push(instr(i % 4, InstrKind::Ffma, [prev, Tok::NONE, Tok::NONE]));
        }
        let cta = [t];
        let r = run(&cfg, &[&cta]);
        // Chain of 100 at 4-cycle latency ≈ 400 cycles, and the gaps are
        // attributed to "Wait".
        assert!(r.cycles >= 390, "cycles {}", r.cycles);
        assert!(r.stalls.wait > 250.0, "wait {}", r.stalls.wait);
    }

    #[test]
    fn multiple_warps_hide_latency() {
        let cfg = GpuConfig::small();
        let chain = |seed: u32| {
            let mut t = WarpTrace::default();
            let mut prev = Tok::NONE;
            for i in 0..100 {
                prev = t.push(instr(
                    (seed + i) % 4,
                    InstrKind::Ffma,
                    [prev, Tok::NONE, Tok::NONE],
                ));
            }
            t
        };
        let solo = [chain(0)];
        let solo_r = run(&cfg, &[&solo]);
        // Eight dependent chains on one scheduler-group interleave.
        let ctas: Vec<[WarpTrace; 1]> = (0..8).map(|s| [chain(s)]).collect();
        let refs: Vec<&[WarpTrace]> = ctas.iter().map(|c| &c[..]).collect();
        let multi_r = run(&cfg, &refs);
        // 8x the work in far less than 8x the time.
        assert!(
            multi_r.cycles < 3 * solo_r.cycles,
            "multi {} vs solo {}",
            multi_r.cycles,
            solo_r.cycles
        );
    }

    #[test]
    fn global_load_dependency_is_long_scoreboard() {
        let cfg = GpuConfig::small();
        let mut t = WarpTrace::default();
        let ld = push_mem_instr(&mut t, 0, InstrKind::Ldg { bits: 128 }, vec![1, 2, 3, 4]);
        t.push(instr(1, InstrKind::Ffma, [ld, Tok::NONE, Tok::NONE]));
        let cta = [t];
        let r = run(&cfg, &[&cta]);
        assert!(r.stalls.long_scoreboard > 0.0);
        assert_eq!(r.stalls.short_scoreboard, 0.0);
    }

    #[test]
    fn shared_load_dependency_is_short_scoreboard() {
        let cfg = GpuConfig::small();
        let mut t = WarpTrace::default();
        let mem_idx = t.push_mem(MemAccess {
            sectors: Vec::new(),
            global: false,
            store: false,
            ..MemAccess::default()
        });
        let ld = t.push(TraceInstr {
            pc: 0,
            kind: InstrKind::Lds { bits: 128 },
            deps: [Tok::NONE; 3],
            acc_dep: Tok::NONE,
            mem_idx,
        });
        t.push(instr(1, InstrKind::Ffma, [ld, Tok::NONE, Tok::NONE]));
        let cta = [t];
        let r = run(&cfg, &[&cta]);
        assert!(r.stalls.short_scoreboard > 0.0);
        assert_eq!(r.stalls.long_scoreboard, 0.0);
    }

    #[test]
    fn oversized_program_stalls_on_no_instruction() {
        let cfg = GpuConfig::small();
        // 4000 static instructions looped twice per warp.
        let mut t = WarpTrace::default();
        for _pass in 0..2 {
            for pc in 0..4000 {
                t.push(instr(pc, InstrKind::Ffma, [Tok::NONE; 3]));
            }
        }
        let cta = [t];
        let big = run(&cfg, &[&cta]);

        let mut small_t = WarpTrace::default();
        for _pass in 0..2 {
            for pc in 0..400 {
                for _ in 0..10 {
                    small_t.push(instr(pc, InstrKind::Ffma, [Tok::NONE; 3]));
                }
            }
        }
        let cta2 = [small_t];
        let small = run(&cfg, &[&cta2]);

        // The oversized program is fetch-bound; the fitting one only pays
        // cold misses on its first pass.
        assert!(
            big.stalls.pct_no_instruction() > 40.0,
            "big {}",
            big.stalls.pct_no_instruction()
        );
        assert!(
            small.stalls.pct_no_instruction() < 15.0,
            "small {}",
            small.stalls.pct_no_instruction()
        );
    }

    #[test]
    fn barrier_synchronises_two_warps() {
        let cfg = GpuConfig::small();
        // Warp 0: long work then barrier. Warp 1: barrier immediately,
        // then work. Warp 1's post-barrier work cannot start before warp
        // 0 arrives.
        let mut w0 = WarpTrace::default();
        let mut prev = Tok::NONE;
        for i in 0..50 {
            prev = w0.push(instr(i % 4, InstrKind::Ffma, [prev, Tok::NONE, Tok::NONE]));
        }
        w0.push(instr(60, InstrKind::Bar, [Tok::NONE; 3]));
        let mut w1 = WarpTrace::default();
        w1.push(instr(61, InstrKind::Bar, [Tok::NONE; 3]));
        w1.push(instr(62, InstrKind::Ffma, [Tok::NONE; 3]));
        let cta = [w0, w1];
        let r = run(&cfg, &[&cta]);
        assert!(r.stalls.barrier > 100.0, "barrier {}", r.stalls.barrier);
        // The whole thing takes at least as long as warp 0's chain.
        assert!(r.cycles >= 50 * 4);
    }
}
