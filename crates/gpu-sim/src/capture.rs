//! The one performance-mode trace capture.
//!
//! Every consumer of warp traces — [`Launch`](crate::Launch)'s trace
//! phase, the sanitizer's trace passes, and both certificates — runs
//! kernels through [`capture`]. Each captured CTA comes back with the
//! number of operand values it read through [`CtaCtx::read`]; a trace
//! whose CTA read none depends on structure alone.

use rayon::prelude::*;

use crate::launch::{KernelSpec, Mode};
use crate::mem::MemPool;
use crate::trace::WarpTrace;
use crate::warp::CtaCtx;

/// Default CTA sample of the sampled analyses (the sanitizer and the
/// wave certificate): see [`sample_ctas`].
pub const SAMPLE_CTAS: usize = 4;

/// One CTA's performance-mode capture.
pub struct CtaCapture {
    /// Linear CTA index within the grid.
    pub cta_id: usize,
    /// One trace per warp.
    pub traces: Vec<WarpTrace>,
    /// Operand values the CTA read through [`CtaCtx::read`].
    pub value_reads: u64,
}

/// Run `kernel`'s CTAs `ctas` in performance mode against `mem` and fold
/// each [`CtaCapture`] with `fold`, returning the folds in list order.
///
/// CTAs run in parallel; `fold` runs on the worker that captured the
/// CTA, so a pass that keeps only a summary never holds more than one
/// trace per worker. `detail` turns on [`CtaCtx::record_detail`]. The
/// results are identical at any thread count.
pub fn capture<K, T, F>(mem: &MemPool, kernel: &K, ctas: &[usize], detail: bool, fold: F) -> Vec<T>
where
    K: KernelSpec + ?Sized,
    T: Send,
    F: Fn(CtaCapture) -> T + Sync,
{
    let lc = kernel.launch_config();
    ctas.to_vec()
        .into_par_iter()
        .map(|cta_id| {
            let mut cta = CtaCtx::new(
                cta_id,
                Mode::Performance,
                mem,
                lc.warps_per_cta,
                lc.smem_elems,
                lc.smem_elem_bytes,
            );
            cta.record_detail = detail;
            cta.reserve_traces(lc.static_instrs as usize);
            kernel.run_cta(&mut cta);
            let value_reads = cta.value_reads();
            let (traces, _) = cta.finish();
            fold(CtaCapture {
                cta_id,
                traces,
                value_reads,
            })
        })
        .collect()
}

/// At most `max` evenly spaced CTAs of a `grid`-CTA launch, always
/// including the first and last: edge CTAs carry the tail predication,
/// which is exactly where shape classes split.
pub fn sample_ctas(grid: usize, max: usize) -> Vec<usize> {
    let max = max.max(1);
    if grid <= max {
        return (0..grid).collect();
    }
    let mut out: Vec<usize> = (0..max)
        .map(|i| i * (grid - 1) / (max - 1).max(1))
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferId, ElemWidth, LaunchConfig};

    /// Reads one operand value in CTA `reader` only.
    struct OneReader {
        buf: BufferId,
        reader: usize,
    }

    impl KernelSpec for OneReader {
        fn name(&self) -> String {
            "one-reader".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid: 8,
                warps_per_cta: 1,
                regs_per_thread: 32,
                smem_elems: 0,
                smem_elem_bytes: 4,
                static_instrs: 1,
            }
        }

        fn run_cta(&self, cta: &mut CtaCtx<'_>) {
            if cta.cta_id == self.reader {
                cta.warp(0).read(self.buf, 0);
            }
        }
    }

    #[test]
    fn value_reads_are_counted_per_cta_at_any_thread_count() {
        let mut mem = MemPool::new();
        let buf = mem.alloc_init(ElemWidth::B32, vec![1.0]);
        let kernel = OneReader { buf, reader: 5 };
        let ctas: Vec<usize> = (0..8).collect();
        let expected: Vec<(usize, u64)> = ctas.iter().map(|&c| (c, u64::from(c == 5))).collect();
        for threads in [1, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .expect("thread-pool shim accepts reconfiguration");
            let reads = capture(&mem, &kernel, &ctas, false, |c| (c.cta_id, c.value_reads));
            assert_eq!(reads, expected, "at {threads} threads");
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("thread-pool shim accepts reconfiguration");
    }

    #[test]
    fn cta_sampling_covers_edges() {
        assert_eq!(sample_ctas(3, 4), vec![0, 1, 2]);
        assert_eq!(sample_ctas(100, 4), vec![0, 33, 66, 99]);
        assert_eq!(sample_ctas(2, 1), vec![0]);
        let s = sample_ctas(1000, 5);
        assert_eq!(s.first(), Some(&0));
        assert_eq!(s.last(), Some(&999));
    }
}
