//! Offline stand-in for the subset of `rayon` this workspace uses — a
//! real `std::thread`-based pool.
//!
//! `into_par_iter()` / `par_iter()` materialize the input and fan the
//! mapped work out over the calling thread, which takes the first chunk,
//! and up to `width − 1` scoped worker threads. Determinism is
//! structural: the input is split into contiguous index-ordered chunks,
//! each worker writes results into its chunk's pre-allocated slots, and
//! `collect` reads the slots back in index order — so results are
//! bit-identical to the sequential path at any thread count.
//!
//! Thread-count resolution (first match wins):
//! 1. a [`ThreadPoolBuilder::build_global`] override,
//! 2. the `VECSPARSE_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! Steps 2 and 3 are resolved on first use and cached.
//!
//! `VECSPARSE_THREADS=1` (or a 1-thread global build) forces the exact
//! sequential path: no worker threads are spawned at all. Parallel
//! regions nested inside a worker also run inline, so the total worker
//! count never exceeds the configured width.
//!
//! Divergences from real rayon, by design: iterators are eager (inputs
//! are materialized into a `Vec` up front), only the adapters this
//! workspace uses exist (`map`, `zip`, `collect`, `sum`), and calling
//! `build_global` a second time *replaces* the thread-count override
//! instead of returning an error — the determinism tests re-configure
//! the pool between runs. Swap back to real rayon by restoring the
//! version in the root `Cargo.toml` — no call sites change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global thread-count override installed by
/// [`ThreadPoolBuilder::build_global`]; `0` means "not set".
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The width without an override: `VECSPARSE_THREADS`, else the host's
/// available parallelism. Resolved once, as real rayon fixes its width
/// when its pool starts; `available_parallelism` reads the cgroup CPU
/// quota on Linux, too slow to pay per parallel region.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set while running inside a pool worker: nested parallel regions
    /// run inline instead of spawning a second generation of workers.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current thread as a pool worker while alive and clears the
/// mark on drop, unwinding included: a caller whose chunk panicked must
/// still fan out its later regions.
struct WorkerMark;

impl WorkerMark {
    fn enter() -> WorkerMark {
        IN_WORKER.with(|w| w.set(true));
        WorkerMark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

/// The number of threads parallel regions will use, after the override /
/// `VECSPARSE_THREADS` / available-parallelism resolution.
pub fn current_num_threads() -> usize {
    match GLOBAL_OVERRIDE.load(Ordering::Relaxed) {
        0 => *DEFAULT_THREADS.get_or_init(|| {
            std::env::var("VECSPARSE_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }),
        o => o,
    }
}

/// Subset of rayon's `ThreadPoolBuilder`: only the global thread-count
/// knob is supported.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` worker threads; `0` keeps the env/auto resolution.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the thread count globally. Unlike real rayon this never
    /// fails and may be called repeatedly (later calls replace the
    /// override) — the determinism gate re-configures the pool per run.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_OVERRIDE.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// Error type of [`ThreadPoolBuilder::build_global`] (never produced by
/// this shim; kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Fan `items` out over the calling thread and `width − 1` scoped
/// workers, returning results in input order. The caller runs chunk 0
/// as a worker would. The sequential path (1 thread, ≤1 item, or
/// already inside a worker) runs inline with zero spawns.
fn pool_run<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 || IN_WORKER.with(|w| w.get()) {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunked split: worker `w` owns input slots
    // [w*chunk, (w+1)*chunk) and writes the matching output slots, so
    // reassembly is pure index order — no work stealing, no racing on
    // who produced what.
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut out: Vec<Option<R>> = (0..slots.len()).map(|_| None).collect();
    let chunk = slots.len().div_ceil(threads);
    let run = |in_chunk: &mut [Option<T>], out_chunk: &mut [Option<R>]| {
        let _mark = WorkerMark::enter();
        for (slot, res) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
            *res = Some(f(slot.take().expect("input slot filled once")));
        }
    };
    let run = &run;
    std::thread::scope(|s| {
        let mut chunks = slots.chunks_mut(chunk).zip(out.chunks_mut(chunk));
        let (in0, out0) = chunks.next().expect("items is non-empty");
        for (in_chunk, out_chunk) in chunks {
            s.spawn(move || run(in_chunk, out_chunk));
        }
        run(in0, out0);
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// An eager parallel iterator: the input sequence, materialized.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair up two parallel iterators, truncating to the shorter.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn sum<S>(self) -> S
    where
        T: Clone,
        S: std::iter::Sum<T>,
    {
        self.map(|x| x).sum()
    }

    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }
}

/// A mapped parallel iterator; consuming it (`collect`, `sum`) runs the
/// map on the pool.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        pool_run(self.items, self.f).into_iter().collect()
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        pool_run(self.items, self.f).into_iter().sum()
    }
}

/// The rayon prelude subset: conversion traits into [`ParIter`].
pub mod prelude {
    use super::ParIter;

    /// Mirror of rayon's `IntoParallelIterator`.
    pub trait IntoParallelIterator {
        type Item: Send;
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I> IntoParallelIterator for I
    where
        I: IntoIterator,
        I::Item: Send,
    {
        type Item = I::Item;
        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Mirror of rayon's `IntoParallelRefIterator` (`.par_iter()`).
    pub trait IntoParallelRefIterator<'data> {
        type Item: Send;
        fn par_iter(&'data self) -> ParIter<Self::Item>;
    }

    impl<'data, I: 'data> IntoParallelRefIterator<'data> for I
    where
        &'data I: IntoIterator,
        <&'data I as IntoIterator>::Item: Send,
    {
        type Item = <&'data I as IntoIterator>::Item;
        fn par_iter(&'data self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

// `ParIter` is constructed by the prelude traits; re-open construction
// for them without exposing the field.
impl<T> ParIter<T> {
    #[doc(hidden)]
    pub fn from_vec(items: Vec<T>) -> Self {
        ParIter { items }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that set the global width hold this, so one cannot change
    /// the width under another.
    static WIDTH: Mutex<()> = Mutex::new(());

    fn width(n: usize) -> MutexGuard<'static, ()> {
        let guard = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .unwrap();
        guard
    }

    #[test]
    fn range_into_par_iter_collects_in_order() {
        let v: Vec<usize> = (0..8usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn vec_par_iter_borrows() {
        let data = vec![1u32, 2, 3];
        let sum: u32 = data.par_iter().map(|&x| x).sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn zip_truncates_and_keeps_order() {
        let a = vec![1u32, 2, 3, 4];
        let b = vec![10u32, 20, 30];
        let v: Vec<u32> = a
            .into_par_iter()
            .zip(b.into_par_iter())
            .map(|(x, y)| x * y)
            .collect();
        assert_eq!(v, vec![10, 40, 90]);
    }

    #[test]
    fn forced_width_matches_sequential() {
        // Same results at every width, including widths > items.
        let _width = width(1);
        let seq: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for threads in [1usize, 2, 4, 8, 64] {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            let par: Vec<u64> = (0..23u64)
                .into_par_iter()
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect();
            assert_eq!(par, seq, "threads={threads}");
        }
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .unwrap();
    }

    #[test]
    fn nested_regions_run_inline() {
        let _width = width(4);
        let v: Vec<usize> = (0..4usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..4usize).into_par_iter().map(|j| i * 4 + j).collect();
                inner.into_iter().sum()
            })
            .collect();
        assert_eq!(v, vec![6, 22, 38, 54]);
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .unwrap();
    }

    #[test]
    fn caller_chunk_panic_joins_workers_and_keeps_fan_out() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let _width = width(2);
        // Item 0 is the caller's chunk, item 1 the spawned worker's. Both
        // pass the barrier; then the caller panics while the worker is
        // still finishing its item.
        let barrier = Barrier::new(2);
        let worker_done = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..2usize)
                .into_par_iter()
                .map(|i| {
                    barrier.wait();
                    if i == 0 {
                        panic!("caller chunk");
                    }
                    worker_done.store(true, Ordering::SeqCst);
                })
                .collect::<Vec<()>>()
        }));
        let payload = caught.expect_err("the caller's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller chunk"));
        assert!(
            worker_done.load(Ordering::SeqCst),
            "the panic surfaced before the spawned worker joined"
        );

        // The caller is no longer marked as a worker: its next region
        // still fans out.
        let ids: Vec<std::thread::ThreadId> = (0..2usize)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_ne!(ids[0], ids[1], "region after a caught panic ran inline");
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .unwrap();
    }
}
