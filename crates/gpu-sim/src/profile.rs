//! Nsight-style kernel profile: the counters the paper's evaluation reads.

use crate::cache::CacheStats;
use crate::trace::{InstrKind, Pipe};
use std::sync::Arc;

/// Dynamic instruction counts by category (warp-level instructions,
/// extrapolated to the whole grid).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrCounts {
    pub ffma: u64,
    pub hfma2: u64,
    pub hmma: u64,
    pub imad: u64,
    pub ldg: u64,
    pub stg: u64,
    pub lds: u64,
    pub sts: u64,
    pub shfl: u64,
    pub bar: u64,
    pub misc: u64,
}

impl InstrCounts {
    /// Record one instruction.
    pub fn bump(&mut self, kind: InstrKind) {
        match kind {
            InstrKind::Ffma => self.ffma += 1,
            InstrKind::Hfma2 => self.hfma2 += 1,
            InstrKind::Hmma => self.hmma += 1,
            InstrKind::Imad => self.imad += 1,
            InstrKind::Ldg { .. } => self.ldg += 1,
            InstrKind::Stg { .. } => self.stg += 1,
            InstrKind::Lds { .. } => self.lds += 1,
            InstrKind::Sts { .. } => self.sts += 1,
            InstrKind::Shfl => self.shfl += 1,
            InstrKind::Bar => self.bar += 1,
            InstrKind::Fence | InstrKind::Misc => self.misc += 1,
        }
    }

    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.ffma
            + self.hfma2
            + self.hmma
            + self.imad
            + self.ldg
            + self.stg
            + self.lds
            + self.sts
            + self.shfl
            + self.bar
            + self.misc
    }

    /// Math instructions (Fig. 5's counter).
    pub fn math(&self) -> u64 {
        self.ffma + self.hfma2 + self.hmma
    }

    /// Shared-memory load requests over global load requests — the ratio
    /// §3.2 uses to argue data in shared memory is barely reused.
    pub fn shared_to_global_load_ratio(&self) -> f64 {
        if self.ldg == 0 {
            0.0
        } else {
            self.lds as f64 / self.ldg as f64
        }
    }

    /// Scale all counters by `f` (sample extrapolation).
    pub fn scaled(&self, f: f64) -> InstrCounts {
        let s = |x: u64| (x as f64 * f).round() as u64;
        InstrCounts {
            ffma: s(self.ffma),
            hfma2: s(self.hfma2),
            hmma: s(self.hmma),
            imad: s(self.imad),
            ldg: s(self.ldg),
            stg: s(self.stg),
            lds: s(self.lds),
            sts: s(self.sts),
            shfl: s(self.shfl),
            bar: s(self.bar),
            misc: s(self.misc),
        }
    }

    /// Add another counter block.
    pub fn merge(&mut self, o: &InstrCounts) {
        self.ffma += o.ffma;
        self.hfma2 += o.hfma2;
        self.hmma += o.hmma;
        self.imad += o.imad;
        self.ldg += o.ldg;
        self.stg += o.stg;
        self.lds += o.lds;
        self.sts += o.sts;
        self.shfl += o.shfl;
        self.bar += o.bar;
        self.misc += o.misc;
    }
}

/// Warp-cycle stall attribution, mirroring the Nsight categories the paper
/// quotes in Tables 1–3.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StallBreakdown {
    /// Cycles in which a warp had issued its previous instruction but the
    /// next could not be fetched (L0 instruction-cache miss).
    pub no_instruction: f64,
    /// Waiting on a fixed-latency dependency (ALU/IMAD/HMMA result).
    pub wait: f64,
    /// Waiting on a shared-memory load.
    pub short_scoreboard: f64,
    /// Waiting on a global-memory load.
    pub long_scoreboard: f64,
    /// Waiting at a CTA barrier.
    pub barrier: f64,
    /// Ready but another warp was selected, or the target pipe was busy.
    pub not_selected: f64,
    /// Issue slots actually used (one cycle each).
    pub issued: f64,
}

impl StallBreakdown {
    /// Total accounted warp cycles.
    pub fn total(&self) -> f64 {
        self.no_instruction
            + self.wait
            + self.short_scoreboard
            + self.long_scoreboard
            + self.barrier
            + self.not_selected
            + self.issued
    }

    /// Percentage helpers (of total warp cycles).
    pub fn pct_no_instruction(&self) -> f64 {
        100.0 * self.no_instruction / self.total().max(1.0)
    }
    pub fn pct_wait(&self) -> f64 {
        100.0 * self.wait / self.total().max(1.0)
    }
    pub fn pct_short_scoreboard(&self) -> f64 {
        100.0 * self.short_scoreboard / self.total().max(1.0)
    }
    pub fn pct_long_scoreboard(&self) -> f64 {
        100.0 * self.long_scoreboard / self.total().max(1.0)
    }
    pub fn pct_barrier(&self) -> f64 {
        100.0 * self.barrier / self.total().max(1.0)
    }

    /// Merge another breakdown.
    pub fn merge(&mut self, o: &StallBreakdown) {
        self.no_instruction += o.no_instruction;
        self.wait += o.wait;
        self.short_scoreboard += o.short_scoreboard;
        self.long_scoreboard += o.long_scoreboard;
        self.barrier += o.barrier;
        self.not_selected += o.not_selected;
        self.issued += o.issued;
    }
}

/// Utilisation of one execution pipe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipeUtil {
    pub pipe: Pipe,
    /// Busy fraction of the pipe over the kernel, 0..1.
    pub utilisation: f64,
}

/// One static instruction ranked by dynamic issue count. `label` is the
/// program-listing name (`name[instance]`) when the kernel kept its
/// [`crate::Program`] around, else `pc<N>` — the same stable index the
/// sanitizer's diagnostics use, so hot spots and findings line up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotPc {
    /// Static pc (site id).
    pub pc: u32,
    /// Grid-extrapolated issue count.
    pub issued: u64,
    /// Program-listing label for the pc.
    pub label: String,
}

/// One point on the roofline: useful work against DRAM traffic, derived
/// from a kernel's instruction mix and L2 statistics (Zhang et al.'s
/// framing of memory-bound TCU kernels).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Roofline {
    /// Useful floating-point operations: FFMA counts 2 flops/lane,
    /// HFMA2 4 flops/lane, one HMMA.884 step 128 flops.
    pub flops: u64,
    /// DRAM bytes moved (L2 sector misses + stores, 32 B each).
    pub bytes: u64,
}

impl Roofline {
    /// Achieved arithmetic intensity in flops per DRAM byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// Everything the evaluation section reads about one kernel execution.
///
/// The heap parts (name, pipes, hot pcs) are shared: a memoized profile is
/// handed out and cached by reference-count bumps, never by deep copies.
#[derive(Clone, Debug)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: Arc<str>,
    /// Grid size (number of thread blocks) — guideline II's counter.
    pub grid: usize,
    /// Resident CTAs per SM after the occupancy calculation.
    pub ctas_per_sm: usize,
    /// Average resident warps per scheduler.
    pub warps_per_scheduler: f64,
    /// Registers per thread declared by the kernel.
    pub regs_per_thread: u32,
    /// Static program size in instructions ("SASS lines") — guideline I.
    pub static_instrs: u32,
    /// Estimated execution cycles (max of issue and bandwidth bounds).
    pub cycles: f64,
    /// Cycle estimate from the warp-scheduler simulation alone.
    pub issue_cycles: f64,
    /// Lower bound from DRAM bandwidth.
    pub dram_cycles: f64,
    /// Lower bound from L2→L1 bandwidth.
    pub l2_cycles: f64,
    /// Grid-wide instruction counts.
    pub instrs: InstrCounts,
    /// Warp-cycle stall attribution.
    pub stalls: StallBreakdown,
    /// L1 (per-SM, merged) cache statistics; `sectors_per_request` is the
    /// paper's "Sectors/Req".
    pub l1: CacheStats,
    /// L2 statistics; `sectors_missed * 32` is DRAM read traffic.
    pub l2: CacheStats,
    /// Per-pipe utilisation, sorted descending.
    pub pipes: Arc<[PipeUtil]>,
    /// Hottest static instructions by issue count, sorted descending.
    pub hot_pcs: Arc<[HotPc]>,
}

impl KernelProfile {
    /// Bytes moved from L2 into L1 (Fig. 18's counter).
    pub fn bytes_l2_to_l1(&self) -> u64 {
        self.l1.sectors_missed * 32
    }

    /// Bytes read from DRAM.
    pub fn dram_read_bytes(&self) -> u64 {
        self.l2.sectors_missed * 32
    }

    /// The busiest pipe (Fig. 5's "max compute pipe utilisation" when the
    /// busiest is a math pipe).
    pub fn max_pipe(&self) -> Option<PipeUtil> {
        self.pipes.first().copied()
    }

    /// This execution's roofline point. Lane-width flop weights: a
    /// warp-level FFMA performs 32 × 2 flops, an HFMA2 32 × 4, and one
    /// HMMA.884 step 512 / 4 = 128 (the full m8n8k4 MAC spread over its
    /// four steps; truncated flavours emit fewer steps for less work at
    /// the same per-step rate).
    pub fn roofline(&self) -> Roofline {
        let i = &self.instrs;
        Roofline {
            flops: i.ffma * 64 + i.hfma2 * 128 + i.hmma * 128,
            bytes: (self.l2.sectors_missed + self.l2.sectors_stored) * 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bump_and_total() {
        let mut c = InstrCounts::default();
        c.bump(InstrKind::Hmma);
        c.bump(InstrKind::Hmma);
        c.bump(InstrKind::Ldg { bits: 128 });
        c.bump(InstrKind::Lds { bits: 64 });
        assert_eq!(c.total(), 4);
        assert_eq!(c.math(), 2);
        assert_eq!(c.shared_to_global_load_ratio(), 1.0);
    }

    #[test]
    fn stall_percentages_sum_to_100() {
        let s = StallBreakdown {
            no_instruction: 10.0,
            wait: 20.0,
            short_scoreboard: 5.0,
            long_scoreboard: 40.0,
            barrier: 5.0,
            not_selected: 10.0,
            issued: 10.0,
        };
        let sum = s.pct_no_instruction()
            + s.pct_wait()
            + s.pct_short_scoreboard()
            + s.pct_long_scoreboard()
            + s.pct_barrier();
        assert!(sum < 100.0);
        assert!((s.total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_is_proportional() {
        let c = InstrCounts {
            ffma: 100,
            ldg: 10,
            ..InstrCounts::default()
        };
        let s = c.scaled(2.5);
        assert_eq!(s.ffma, 250);
        assert_eq!(s.ldg, 25);
    }
}

impl KernelProfile {
    /// Render an Nsight-style multi-line text report of this profile.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.name);
        let _ = writeln!(
            out,
            "   cycles {:>12.0}   (issue {:.0} | dram bound {:.0} | l2 bound {:.0})",
            self.cycles, self.issue_cycles, self.dram_cycles, self.l2_cycles
        );
        let _ = writeln!(
            out,
            "   grid {:>6}  ctas/SM {:>2}  warps/sched {:>5.2}  regs/thread {:>3}  static {:>5}",
            self.grid,
            self.ctas_per_sm,
            self.warps_per_scheduler,
            self.regs_per_thread,
            self.static_instrs
        );
        let _ = writeln!(
            out,
            "   stalls: no-instr {:>5.1}%  wait {:>5.1}%  short-sb {:>5.1}%  long-sb {:>5.1}%  barrier {:>4.1}%",
            self.stalls.pct_no_instruction(),
            self.stalls.pct_wait(),
            self.stalls.pct_short_scoreboard(),
            self.stalls.pct_long_scoreboard(),
            self.stalls.pct_barrier()
        );
        let _ = writeln!(
            out,
            "   memory: sectors/req {:>5.2}  L1 miss {:>9}  L2->L1 {:>6.1} MB  dram {:>6.1} MB",
            self.l1.sectors_per_request(),
            self.l1.sectors_missed,
            self.bytes_l2_to_l1() as f64 / 1e6,
            self.dram_read_bytes() as f64 / 1e6
        );
        let i = &self.instrs;
        let _ = writeln!(
            out,
            "   instrs: hmma {} hfma2 {} ffma {} imad {} ldg {} lds {} sts {} shfl {}",
            i.hmma, i.hfma2, i.ffma, i.imad, i.ldg, i.lds, i.sts, i.shfl
        );
        if let Some(top) = self.max_pipe() {
            let _ = writeln!(
                out,
                "   busiest pipe: {:?} at {:.1}%",
                top.pipe,
                100.0 * top.utilisation
            );
        }
        if !self.hot_pcs.is_empty() {
            let hot: Vec<String> = self
                .hot_pcs
                .iter()
                .take(5)
                .map(|h| format!("{} ×{}", h.label, h.issued))
                .collect();
            let _ = writeln!(out, "   hottest: {}", hot.join("  "));
        }
        out
    }

    /// One CSV row of the headline counters (with [`Self::csv_header`]).
    pub fn csv_row(&self) -> String {
        let roof = self.roofline();
        format!(
            "{},{:.0},{},{},{},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{:.4}",
            self.name,
            self.cycles,
            self.grid,
            self.regs_per_thread,
            self.static_instrs,
            self.l1.sectors_per_request(),
            self.stalls.pct_no_instruction(),
            self.stalls.pct_wait(),
            self.stalls.pct_short_scoreboard(),
            self.bytes_l2_to_l1(),
            self.instrs.total(),
            roof.flops,
            roof.bytes,
            roof.intensity(),
        )
    }

    /// Header matching [`Self::csv_row`].
    pub fn csv_header() -> &'static str {
        "name,cycles,grid,regs_per_thread,static_instrs,sectors_per_req,\
         pct_no_instruction,pct_wait,pct_short_scoreboard,bytes_l2_to_l1,instrs_total,\
         flops,dram_bytes,intensity"
    }
}

#[cfg(test)]
pub(crate) mod render_tests {
    use super::*;

    pub(crate) fn sample() -> KernelProfile {
        KernelProfile {
            name: "test-kernel".into(),
            grid: 128,
            ctas_per_sm: 8,
            warps_per_scheduler: 2.0,
            regs_per_thread: 64,
            static_instrs: 300,
            cycles: 1234.0,
            issue_cycles: 1234.0,
            dram_cycles: 100.0,
            l2_cycles: 50.0,
            instrs: InstrCounts {
                hmma: 10,
                ldg: 5,
                ..InstrCounts::default()
            },
            stalls: StallBreakdown {
                issued: 15.0,
                wait: 5.0,
                ..StallBreakdown::default()
            },
            l1: crate::cache::CacheStats::default(),
            l2: crate::cache::CacheStats::default(),
            pipes: Arc::new([]),
            hot_pcs: Arc::new([]),
        }
    }

    #[test]
    fn render_contains_headline_numbers() {
        let r = sample().render();
        assert!(r.contains("test-kernel"));
        assert!(r.contains("1234"));
        assert!(r.contains("grid    128"));
    }

    #[test]
    fn csv_row_matches_header_width() {
        let header_cols = KernelProfile::csv_header().split(',').count();
        let row_cols = sample().csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    fn roofline_weights_flops_and_counts_dram_traffic() {
        let mut p = sample();
        // 10 HMMA steps = 1280 flops; no FFMA/HFMA2 in the sample.
        p.l2.sectors_missed = 3;
        p.l2.sectors_stored = 1;
        let roof = p.roofline();
        assert_eq!(roof.flops, 10 * 128);
        assert_eq!(roof.bytes, 4 * 32);
        assert!((roof.intensity() - 1280.0 / 128.0).abs() < 1e-12);
        // Degenerate case: no traffic reports zero intensity, not NaN.
        p.l2.sectors_missed = 0;
        p.l2.sectors_stored = 0;
        assert_eq!(p.roofline().intensity(), 0.0);
    }
}
