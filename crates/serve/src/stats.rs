//! Fleet-wide serving report: per-tenant SLO accounting plus the
//! absorbed engine counters of every cache shard.

use vecsparse::engine::EngineStats;

/// Nearest-rank percentile of an **ascending-sorted** latency sample,
/// in the sample's own unit (empty sample → 0).
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One tenant's served-traffic accounting.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Configured fair-share weight.
    pub weight: u32,
    /// Jobs the tenant submitted (admitted + rejected).
    pub submitted: u64,
    /// Jobs served to completion.
    pub served: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Median served latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile served latency, milliseconds.
    pub p99_ms: f64,
    /// Mean served latency, milliseconds.
    pub mean_ms: f64,
    /// Configured p99 SLO, if any.
    pub slo_p99_ms: Option<f64>,
    /// Sum of per-request latencies in microseconds — exactly the sum
    /// of the durations of this tenant's `"serve"` telemetry spans,
    /// which is what lets the tier-1 suite cross-check SLO accounting
    /// against the trace.
    pub total_latency_us: u64,
}

impl TenantReport {
    /// SLO verdict: `None` when no SLO is configured.
    pub fn slo_met(&self) -> Option<bool> {
        self.slo_p99_ms.map(|slo| self.p99_ms <= slo)
    }
}

/// Everything the server observed, snapshotted at shutdown by
/// [`Server::finish`](crate::Server::finish).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-tenant accounting, in registration order.
    pub tenants: Vec<TenantReport>,
    /// Engine counters absorbed across every cache shard's context.
    pub engine: EngineStats,
    /// Batches dispatched.
    pub batches: u64,
    /// Jobs that rode along in a batch beyond its anchor job — the
    /// coalescing win.
    pub coalesced: u64,
    /// Dispatched batches whose plan-and-run panicked; each of their
    /// jobs failed with [`ServeError::WorkerPanicked`].
    ///
    /// [`ServeError::WorkerPanicked`]: crate::ServeError::WorkerPanicked
    pub panicked_batches: u64,
    /// Deepest any shard's queue got.
    pub max_queue_depth: usize,
    /// Per-shard anchor-tenant history (tenant names in batch-selection
    /// order) — the fairness audit trail.
    pub dispatch_logs: Vec<Vec<String>>,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Cache shards the server ran.
    pub shards: usize,
}

impl ServeReport {
    /// Jobs served across all tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// Fraction of `Auto` plan resolutions answered from the shard plan
    /// caches, 0..1.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.engine.cache_hits + self.engine.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.engine.cache_hits as f64 / total as f64
        }
    }

    /// Mean jobs per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served() as f64 / self.batches as f64
        }
    }

    /// Longest gap, in dispatched batches, between two consecutive
    /// anchor selections of `tenant` on any shard — including the run-in
    /// before its first anchor. Small gaps mean the scheduler kept
    /// visiting the tenant; the fairness suite bounds this under skew.
    pub fn max_anchor_gap(&self, tenant: &str) -> usize {
        self.dispatch_logs
            .iter()
            .map(|log| {
                let mut max_gap = 0usize;
                let mut gap = 0usize;
                for anchor in log {
                    if anchor == tenant {
                        max_gap = max_gap.max(gap);
                        gap = 0;
                    } else {
                        gap += 1;
                    }
                }
                max_gap
            })
            .max()
            .unwrap_or(0)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== serve report");
        let _ = writeln!(
            out,
            "   workers {:>2}   shards {:>2}   batches {:>6}   mean batch {:>5.2}   coalesced {:>6}   max queue depth {:>5}",
            self.workers,
            self.shards,
            self.batches,
            self.mean_batch(),
            self.coalesced,
            self.max_queue_depth
        );
        let _ = writeln!(
            out,
            "   plan cache: {} hits / {} misses (hit ratio {:>5.1}%)   tuner profiles {}",
            self.engine.cache_hits,
            self.engine.cache_misses,
            100.0 * self.cache_hit_ratio(),
            self.engine.tuner_launches
        );
        let _ = writeln!(
            out,
            "   {:<14} {:>3} {:>9} {:>7} {:>8} {:>9} {:>9} {:>9} {:>8}",
            "tenant", "w", "submitted", "served", "rejected", "p50 ms", "p99 ms", "mean ms", "slo"
        );
        for t in &self.tenants {
            let slo = match t.slo_met() {
                Some(true) => "met",
                Some(false) => "MISSED",
                None => "-",
            };
            let _ = writeln!(
                out,
                "   {:<14} {:>3} {:>9} {:>7} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>8}",
                t.name,
                t.weight,
                t.submitted,
                t.served,
                t.rejected,
                t.p50_ms,
                t.p99_ms,
                t.mean_ms,
                slo
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 100);
        assert_eq!(percentile(&sorted, 10.0), 10);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn anchor_gap_and_render() {
        let t = |name: &str| TenantReport {
            name: name.into(),
            weight: 1,
            submitted: 10,
            served: 10,
            rejected: 0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            mean_ms: 1.1,
            slo_p99_ms: Some(1.5),
            total_latency_us: 11_000,
        };
        let report = ServeReport {
            tenants: vec![t("a"), t("b")],
            engine: EngineStats {
                tuner_launches: 2,
                cache_hits: 9,
                cache_misses: 1,
                plans_built: 10,
            },
            batches: 5,
            coalesced: 15,
            panicked_batches: 0,
            max_queue_depth: 12,
            dispatch_logs: vec![vec![
                "a".into(),
                "a".into(),
                "b".into(),
                "a".into(),
                "a".into(),
            ]],
            workers: 2,
            shards: 1,
        };
        assert_eq!(report.served(), 20);
        assert_eq!(report.cache_hit_ratio(), 0.9);
        assert_eq!(report.mean_batch(), 4.0);
        assert_eq!(report.max_anchor_gap("b"), 2, "run-in of two a-batches");
        assert_eq!(report.max_anchor_gap("a"), 1);
        let r = report.render();
        assert!(r.contains("serve report"));
        assert!(r.contains("MISSED"), "p99 2.0 over slo 1.5");
    }
}
