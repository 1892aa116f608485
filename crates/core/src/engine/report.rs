//! Aggregated per-context metrics: what the engine did and what it cost.

use super::EngineStats;
use vecsparse_certify::WaveCertificate;
use vecsparse_gpu_sim::MemoStats;
use vecsparse_precision::Certificate;

/// Run/profile aggregate for one concrete kernel algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlgoReport {
    /// Kernel label (e.g. `"spmm-octet"`).
    pub algo: &'static str,
    /// Functional runs executed through plans of this algorithm.
    pub runs: u64,
    /// Performance profiles taken.
    pub profiles: u64,
    /// Total estimated cycles over those profiles.
    pub total_cycles: f64,
}

impl AlgoReport {
    /// Mean estimated cycles per profile (0 when never profiled).
    pub fn mean_cycles(&self) -> f64 {
        if self.profiles == 0 {
            0.0
        } else {
            self.total_cycles / self.profiles as f64
        }
    }
}

/// Everything a [`super::Context`] observed, in one snapshot: cache and
/// tuner behaviour, per-algorithm activity, and trace-sink occupancy.
/// Built by [`super::Context::report`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Cache/tuner counters.
    pub stats: EngineStats,
    /// Per-algorithm aggregates, sorted by label.
    pub algos: Vec<AlgoReport>,
    /// Static precision certificates for every kernel planned through this
    /// context, sorted by label. The loosest (largest) bound seen across all
    /// planned problem shapes is retained per kernel.
    pub certificates: Vec<Certificate>,
    /// Wave-equivalence certificates per planned algorithm (the latest
    /// certification per kernel label), sorted by label. Empty unless the
    /// context memoizes.
    pub wave_certificates: Vec<(&'static str, WaveCertificate)>,
    /// Launch-memoizer counters (None when memoization is disabled).
    pub memo: Option<MemoStats>,
    /// Distinct tuning decisions held in the plan cache.
    pub cached_plans: usize,
    /// Events currently retained by the context's trace sink.
    pub trace_events: usize,
    /// Events the sink evicted (ring overflow).
    pub trace_dropped: u64,
    /// Worker threads the engine's parallel regions (tuning, batch
    /// fan-out, wave simulation) use, as configured at snapshot time.
    pub threads: usize,
    /// Wall-clock milliseconds spent inside engine execution entry
    /// points: runs, simulated profiles, batches and tuning. Batch
    /// fan-out is measured at the region boundary, so concurrent
    /// elements count elapsed time once. A profile a plan answers from
    /// the memo is not timed; [`MemoStats::launch_hits`] counts it.
    pub wall_ms: f64,
}

impl Report {
    /// Fraction of `Auto` resolutions answered from the plan cache,
    /// 0..1 (0 when no `Auto` plan was ever requested).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.stats.cache_hits + self.stats.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.cache_hits as f64 / total as f64
        }
    }

    /// Render a human-readable table of the report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(out, "== engine report");
        let _ = writeln!(
            out,
            "   plans built {:>5}   cached decisions {:>4}   cache hit ratio {:>5.1}% ({} hits / {} misses)",
            s.plans_built,
            self.cached_plans,
            100.0 * self.cache_hit_ratio(),
            s.cache_hits,
            s.cache_misses
        );
        let _ = writeln!(
            out,
            "   tuner profiles run {:>4}   trace events {:>7}   dropped {:>5}",
            s.tuner_launches, self.trace_events, self.trace_dropped
        );
        let _ = writeln!(
            out,
            "   threads {:>2}   engine wall time {:>10.3} ms",
            self.threads, self.wall_ms
        );
        if !self.algos.is_empty() {
            let _ = writeln!(
                out,
                "   {:<18} {:>6} {:>9} {:>14} {:>12}",
                "algo", "runs", "profiles", "total cycles", "mean cycles"
            );
            for a in &self.algos {
                let _ = writeln!(
                    out,
                    "   {:<18} {:>6} {:>9} {:>14.0} {:>12.0}",
                    a.algo,
                    a.runs,
                    a.profiles,
                    a.total_cycles,
                    a.mean_cycles()
                );
            }
        }
        if let Some(memo) = &self.memo {
            let _ = writeln!(
                out,
                "   memoizer: launch {} hit / {} miss, {} audits, hit rate {:>5.1}%",
                memo.launch_hits,
                memo.launch_misses,
                memo.audits,
                100.0 * memo.hit_rate()
            );
        }
        if !self.wave_certificates.is_empty() {
            let _ = writeln!(out, "   wave-equivalence certificates:");
            for (label, cert) in &self.wave_certificates {
                let _ = writeln!(out, "   {:<18} {}", label, cert.summary());
            }
        }
        if !self.certificates.is_empty() {
            let _ = writeln!(
                out,
                "   {:<18} {:>12} {:>12} {:>10}",
                "certificate", "abs bound", "rel bound", "max |out|"
            );
            for c in &self.certificates {
                let _ = writeln!(
                    out,
                    "   {:<18} {:>12.3e} {:>12.3e} {:>10.3e}",
                    c.kernel, c.abs_error_bound, c.rel_error_bound, c.max_abs_output
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_render_handle_empty_and_filled() {
        let empty = Report {
            stats: EngineStats::default(),
            algos: Vec::new(),
            certificates: Vec::new(),
            wave_certificates: Vec::new(),
            memo: None,
            cached_plans: 0,
            trace_events: 0,
            trace_dropped: 0,
            threads: 1,
            wall_ms: 0.0,
        };
        assert_eq!(empty.cache_hit_ratio(), 0.0);
        assert!(empty.render().contains("engine report"));
        assert!(empty.render().contains("threads"));

        let filled = Report {
            stats: EngineStats {
                tuner_launches: 4,
                cache_hits: 3,
                cache_misses: 1,
                plans_built: 5,
            },
            algos: vec![AlgoReport {
                algo: "spmm-octet",
                runs: 7,
                profiles: 2,
                total_cycles: 2000.0,
            }],
            certificates: vec![Certificate {
                kernel: "spmm-octet".to_string(),
                max_abs_output: 256.0,
                abs_error_bound: 0.126,
                rel_error_bound: 0.126 / 256.0,
                reduction_len: 64,
                stores_f16: true,
            }],
            wave_certificates: Vec::new(),
            memo: Some(MemoStats {
                audits: 1,
                launch_hits: 4,
                launch_misses: 2,
                ..MemoStats::default()
            }),
            cached_plans: 1,
            trace_events: 42,
            trace_dropped: 0,
            threads: 4,
            wall_ms: 12.5,
        };
        assert_eq!(filled.cache_hit_ratio(), 0.75);
        assert_eq!(filled.algos[0].mean_cycles(), 1000.0);
        let r = filled.render();
        assert!(r.contains("spmm-octet"));
        assert!(r.contains("75.0%"));
        assert!(r.contains("memoizer"), "memo stats render when present");
        assert!(!empty.render().contains("memoizer"));
    }
}
