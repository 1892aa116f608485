//! Machine configuration and timing constants.
//!
//! Defaults describe a V100-class Volta part. Latency and throughput
//! numbers follow the microbenchmarking literature the paper cites
//! (Jia et al., "Dissecting the NVIDIA Volta GPU architecture", 2018) and
//! the public V100 datasheet; they are deliberately round numbers — the
//! model targets faithful *relative* behaviour, not cycle-exactness.

use crate::sig::{fnv1a_word, FNV_OFFSET};
use crate::trace::Pipe;

/// Static machine description.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Warp schedulers (sub-cores) per SM.
    pub schedulers_per_sm: usize,
    /// Maximum resident warps per scheduler (Volta: 16).
    pub max_warps_per_scheduler: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// 32-bit registers per SM (Volta: 64K × 4 sub-cores = 256 KiB file,
    /// 65536 registers).
    pub regs_per_sm: u32,
    /// Unified L1/shared capacity per SM in bytes (Volta: 128 KiB).
    pub l1_bytes: usize,
    /// Maximum shared-memory carve-out per SM in bytes (Volta: 96 KiB).
    pub max_smem_per_sm: usize,
    /// L1 cache associativity.
    pub l1_ways: usize,
    /// L2 capacity in bytes shared by all SMs (Volta: 6 MiB).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L0 instruction-cache capacity in instructions per sub-core
    /// (Volta: 12 KiB of 128-bit words = 768 instructions).
    pub icache_entries: usize,
    /// DRAM bandwidth in bytes per core cycle for the whole device
    /// (V100: ~900 GB/s at 1.53 GHz ≈ 588 B/cycle).
    pub dram_bytes_per_cycle: f64,
    /// L2→L1 bandwidth in bytes per core cycle for the whole device
    /// (~2.1 TB/s ≈ 1400 B/cycle).
    pub l2_bytes_per_cycle: f64,
    /// Per-instruction timing table.
    pub timing: Timing,
    /// Number of SMs to simulate in performance mode (results are
    /// extrapolated; the workload is homogeneous across SMs).
    pub sim_sms: usize,
    /// Number of occupancy waves to simulate before extrapolating.
    pub sim_waves: usize,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 80,
            schedulers_per_sm: 4,
            max_warps_per_scheduler: 16,
            max_ctas_per_sm: 32,
            regs_per_sm: 65536,
            l1_bytes: 128 * 1024,
            max_smem_per_sm: 96 * 1024,
            l1_ways: 8,
            l2_bytes: 6 * 1024 * 1024,
            l2_ways: 16,
            icache_entries: 768,
            dram_bytes_per_cycle: 588.0,
            l2_bytes_per_cycle: 1400.0,
            timing: Timing::volta(),
            sim_sms: 4,
            sim_waves: 2,
        }
    }
}

impl GpuConfig {
    /// A scaled-down configuration for fast unit tests.
    pub fn small() -> Self {
        GpuConfig {
            num_sms: 4,
            sim_sms: 2,
            sim_waves: 2,
            ..GpuConfig::default()
        }
    }

    /// FNV-1a hash over every field of the configuration (floats by bit
    /// pattern), one [`fnv1a_word`] step per field. Embedded in
    /// benchmark artifacts so results from different machine models are
    /// never compared as if comparable, and part of every memo key.
    pub fn config_hash(&self) -> u64 {
        let t = &self.timing;
        [
            self.num_sms as u64,
            self.schedulers_per_sm as u64,
            self.max_warps_per_scheduler as u64,
            self.max_ctas_per_sm as u64,
            u64::from(self.regs_per_sm),
            self.l1_bytes as u64,
            self.max_smem_per_sm as u64,
            self.l1_ways as u64,
            self.l2_bytes as u64,
            self.l2_ways as u64,
            self.icache_entries as u64,
            self.dram_bytes_per_cycle.to_bits(),
            self.l2_bytes_per_cycle.to_bits(),
            self.sim_sms as u64,
            self.sim_waves as u64,
            t.fp32_issue,
            t.fp16_issue,
            t.hmma_issue,
            t.int_issue,
            t.ldg_issue,
            t.lds_issue,
            t.shfl_issue,
            t.misc_issue,
            t.alu_latency,
            t.hmma_latency,
            t.hmma_acc_forward,
            t.lds_latency,
            t.l1_hit_latency,
            t.l2_hit_latency,
            t.dram_latency,
            t.shfl_latency,
            t.icache_miss_penalty,
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a_word)
    }
}

/// Issue intervals (reciprocal throughput per scheduler, in cycles) and
/// result latencies (cycles until a dependent instruction may issue).
#[derive(Clone, Debug)]
pub struct Timing {
    /// FP32 FFMA/FADD/FMUL: 16 lanes/scheduler ⇒ 2 cycles per warp instr.
    pub fp32_issue: u64,
    /// FP16x2 HFMA2/HADD2/HMUL2: same rate on the FP16 pipe.
    pub fp16_issue: u64,
    /// HMMA.884 step: 2 TCUs/scheduler at 128 MAC/cycle ⇒ 2 cycles.
    pub hmma_issue: u64,
    /// Integer IMAD/IADD3 on the INT pipe.
    pub int_issue: u64,
    /// Global/local memory instruction through the LSU.
    pub ldg_issue: u64,
    /// Shared-memory instruction through the MIO/LSU pipe. Wide (128-bit)
    /// shared accesses occupy the pipe longer (shared bandwidth is the
    /// WMMA baseline's bottleneck, §6.2).
    pub lds_issue: u64,
    /// Warp shuffle through the MIO pipe.
    pub shfl_issue: u64,
    /// Control/misc (branches, barrier bookkeeping).
    pub misc_issue: u64,

    /// ALU result latency (FFMA → dependent issue).
    pub alu_latency: u64,
    /// HMMA result latency to a non-accumulator consumer.
    pub hmma_latency: u64,
    /// HMMA accumulator forwarding latency (TCU pipelines back-to-back
    /// accumulation into the same registers).
    pub hmma_acc_forward: u64,
    /// Shared-memory load-to-use latency.
    pub lds_latency: u64,
    /// Global load-to-use latency on an L1 hit.
    pub l1_hit_latency: u64,
    /// Global load-to-use latency on an L2 hit.
    pub l2_hit_latency: u64,
    /// Global load-to-use latency from DRAM.
    pub dram_latency: u64,
    /// Warp shuffle latency.
    pub shfl_latency: u64,
    /// Penalty charged when the L0 instruction cache misses.
    pub icache_miss_penalty: u64,
}

impl Timing {
    /// Volta-class defaults.
    pub fn volta() -> Self {
        Timing {
            fp32_issue: 2,
            fp16_issue: 2,
            hmma_issue: 2,
            int_issue: 2,
            ldg_issue: 4,
            lds_issue: 4,
            shfl_issue: 4,
            misc_issue: 1,
            alu_latency: 4,
            hmma_latency: 8,
            hmma_acc_forward: 2,
            lds_latency: 25,
            l1_hit_latency: 30,
            l2_hit_latency: 190,
            dram_latency: 400,
            shfl_latency: 10,
            icache_miss_penalty: 32,
        }
    }

    /// Issue interval for a pipe.
    pub fn issue_interval(&self, pipe: Pipe) -> u64 {
        match pipe {
            Pipe::Fp32 => self.fp32_issue,
            Pipe::Fp16 => self.fp16_issue,
            Pipe::Tensor => self.hmma_issue,
            Pipe::Int => self.int_issue,
            Pipe::Lsu => self.ldg_issue,
            Pipe::Shared => self.lds_issue,
            Pipe::Mio => self.shfl_issue,
            Pipe::Misc => self.misc_issue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_peak_flops_are_consistent() {
        // Sanity-check the issue intervals reproduce the V100 ratios the
        // paper relies on: TCU ≈ 8× FP32 FMA throughput.
        let t = Timing::volta();
        let fp32_mac_per_cycle = 32.0 / t.fp32_issue as f64; // 16
        let hmma_mac_per_cycle = 256.0 / t.hmma_issue as f64; // 128
        assert_eq!(hmma_mac_per_cycle / fp32_mac_per_cycle, 8.0);
        let fp16_mac_per_cycle = 64.0 / t.fp16_issue as f64; // 32
        assert_eq!(hmma_mac_per_cycle / fp16_mac_per_cycle, 4.0);
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let base = GpuConfig::default();
        assert_eq!(base.config_hash(), GpuConfig::default().config_hash());
        assert_ne!(base.config_hash(), GpuConfig::small().config_hash());
        let mut tweaked = GpuConfig::default();
        tweaked.timing.dram_latency += 1;
        assert_ne!(base.config_hash(), tweaked.config_hash());
    }

    #[test]
    fn default_config_is_v100_shaped() {
        let c = GpuConfig::default();
        assert_eq!(c.num_sms * c.schedulers_per_sm, 320);
        assert_eq!(c.icache_entries, 768);
        assert_eq!(c.l2_bytes, 6 << 20);
    }
}
