//! The server: pooled worker threads over sharded engine contexts.
//!
//! Topology: requests route to a cache shard by shape class
//! ([`JobRequest::shard_of`]); each shard owns one [`ShardQueue`] and one
//! shared engine [`Context`] (its plan cache *is* the shard); worker `w`
//! of `W` serves shard `w % S`. A
//! dispatched batch becomes a single engine plan plus a
//! `run_batch` call, so the engine's batch fan-out over per-worker
//! device pools (the rayon thread-pool shim) parallelizes inside the
//! batch while the worker pool parallelizes across shards.

use crate::config::{ServeConfig, DEFAULT_QUEUE_DEPTH};
use crate::error::ServeError;
use crate::job::{JobHandle, JobOutput, JobRequest, JobSlot};
use crate::queue::{Batch, Pending, ShardQueue};
use crate::stats::{percentile, ServeReport, TenantReport};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use vecsparse::engine::Context;
use vecsparse_telemetry::{TraceSink, Track};

/// Per-tenant mutable accounting, guarded by one stats mutex.
#[derive(Default)]
struct TenantStats {
    submitted: u64,
    served: u64,
    rejected: u64,
    latencies_us: Vec<u64>,
}

struct StatsInner {
    tenants: Vec<TenantStats>,
    batches: u64,
    coalesced: u64,
    panicked: u64,
}

/// State shared by the server, its clients, and its workers.
struct Shared {
    config: ServeConfig,
    tenant_index: HashMap<String, usize>, // lint: hash-ok — keyed lookup only, never iterated
    queues: Vec<Arc<ShardQueue>>,
    contexts: Vec<Arc<Context>>,
    stats: Mutex<StatsInner>,
    sink: Arc<TraceSink>,
    /// Telemetry pid of the serve timeline (tid `s + 1` is shard `s`).
    serve_pid: u32,
    epoch: Instant,
    next_id: AtomicU64,
    /// Fault seam: how many upcoming batches panic inside plan-and-run.
    #[cfg(test)]
    panics_left: AtomicU64,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn stats_lock(&self) -> std::sync::MutexGuard<'_, StatsInner> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running multi-tenant serving instance. Start with
/// [`Server::start`], submit through per-tenant [`Client`]s, and redeem
/// the final [`ServeReport`] with [`Server::finish`].
///
/// ```
/// use std::sync::Arc;
/// use vecsparse_serve::{JobRequest, ServeConfig, Server, TenantSpec};
/// use vecsparse::SpmmAlgo;
/// use vecsparse_formats::{gen, Layout};
/// use vecsparse_fp16::f16;
/// use vecsparse_gpu_sim::GpuConfig;
///
/// let server = Server::start(
///     ServeConfig::builder()
///         .workers(2)
///         .gpu(GpuConfig::small())
///         .tenant(TenantSpec::new("demo"))
///         .build(),
/// );
/// let client = server.client("demo").unwrap();
/// let a = Arc::new(gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 1));
/// let b = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 2);
/// let handle = client
///     .submit(JobRequest::Spmm { a, b, algo: SpmmAlgo::Auto })
///     .unwrap();
/// let out = handle.wait().unwrap().into_spmm().unwrap();
/// assert_eq!(out.rows(), 32);
/// let report = server.finish();
/// assert_eq!(report.served(), 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A tenant-bound submission handle (cheap to clone; one per simulated
/// tenant). Obtained from [`Server::client`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    tenant: usize,
}

impl Server {
    /// Spin up the worker pool described by `config`.
    pub fn start(config: ServeConfig) -> Server {
        let tenants = config.tenants.len();
        let weights: Vec<u32> = config.tenants.iter().map(|t| t.weight).collect();
        let limits: Vec<usize> = config
            .tenants
            .iter()
            .map(|t| t.queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH))
            .collect();
        let tenant_index = config
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), i))
            .collect();

        let sink = config
            .sink
            .clone()
            .unwrap_or_else(|| Arc::new(TraceSink::disabled()));
        let serve_pid = if sink.is_enabled() {
            let pid = sink.next_pid();
            sink.name_process(pid, "serve");
            for s in 0..config.shards {
                let track = Track {
                    pid,
                    tid: s as u32 + 1,
                };
                sink.name_thread(track, format!("shard{s}"));
            }
            pid
        } else {
            0
        };

        let queues: Vec<Arc<ShardQueue>> = (0..config.shards)
            .map(|_| {
                Arc::new(ShardQueue::new(
                    weights.clone(),
                    limits.clone(),
                    config.max_batch,
                ))
            })
            .collect();
        let contexts: Vec<Arc<Context>> = (0..config.shards)
            .map(|_| {
                Arc::new(
                    Context::builder()
                        .gpu(config.gpu.clone())
                        .backend(config.backend)
                        .telemetry(Arc::clone(&sink))
                        .build(),
                )
            })
            .collect();

        let shared = Arc::new(Shared {
            tenant_index,
            queues,
            contexts,
            stats: Mutex::new(StatsInner {
                tenants: (0..tenants).map(|_| TenantStats::default()).collect(),
                batches: 0,
                coalesced: 0,
                panicked: 0,
            }),
            sink,
            serve_pid,
            epoch: Instant::now(), // lint: hash-ok — host latency clock, never in simulated counters
            next_id: AtomicU64::new(0),
            #[cfg(test)]
            panics_left: AtomicU64::new(0),
            config,
        });

        let workers = (0..shared.config.workers)
            .map(|w| {
                let shard = w % shared.config.shards;
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A submission handle bound to a registered tenant.
    pub fn client(&self, tenant: &str) -> Result<Client, ServeError> {
        match self.shared.tenant_index.get(tenant) {
            Some(&idx) => Ok(Client {
                shared: Arc::clone(&self.shared),
                tenant: idx,
            }),
            None => Err(ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            }),
        }
    }

    /// Jobs currently queued across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shared.queues.iter().map(|q| q.depth()).sum()
    }

    /// Stop admissions, drain every queued job, join the workers, and
    /// return the fleet report.
    pub fn finish(mut self) -> ServeReport {
        self.close_and_join();
        build_report(&self.shared)
    }

    fn close_and_join(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl Client {
    /// Submit a job. Returns immediately with a [`JobHandle`], or an
    /// admission/shutdown error. The handle resolves when a worker
    /// completes the batch containing the job.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, ServeError> {
        let shared = &self.shared;
        let tenant_name = &shared.config.tenants[self.tenant].name;
        shared.stats_lock().tenants[self.tenant].submitted += 1;
        let shard = req.shard_of(shared.config.shards);
        let slot = Arc::new(JobSlot::default());
        let pending = Pending {
            req,
            slot: Arc::clone(&slot),
            tenant: self.tenant,
            enqueued_us: shared.now_us(),
        };
        if let Err(e) = shared.queues[shard].push(pending, tenant_name) {
            shared.stats_lock().tenants[self.tenant].rejected += 1;
            return Err(e);
        }
        if shared.sink.is_enabled() {
            let track = Track {
                pid: shared.serve_pid,
                tid: shard as u32 + 1,
            };
            shared.sink.counter(
                track,
                "queue_depth",
                "serve",
                vec![("depth", (shared.queues[shard].depth()).into())],
            );
        }
        Ok(JobHandle {
            slot,
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: tenant_name.clone(),
        })
    }

    /// This client's tenant name.
    pub fn tenant(&self) -> &str {
        &self.shared.config.tenants[self.tenant].name
    }
}

/// Plan the batch on the shard's context and run every job in it.
fn plan_and_run(ctx: &Context, batch: &Batch) -> Result<Vec<JobOutput>, ServeError> {
    match &batch.jobs[0].req {
        JobRequest::Spmm { a, b, algo } => {
            let (a, algo) = (Arc::clone(a), *algo);
            let n = b.cols();
            ctx.try_plan_spmm(&a, n, algo)
                .map_err(ServeError::from)
                .and_then(|plan| {
                    let bs: Vec<_> = batch
                        .jobs
                        .iter()
                        .map(|p| match &p.req {
                            JobRequest::Spmm { b, .. } => b.clone(),
                            JobRequest::Sddmm { .. } => unreachable!("coalesce key fixes the op"),
                        })
                        .collect();
                    plan.try_run_batch(&bs)
                        .map(|outs| outs.into_iter().map(JobOutput::Spmm).collect())
                        .map_err(ServeError::from)
                })
        }
        JobRequest::Sddmm { mask, a, algo, .. } => {
            let (mask, algo) = (Arc::clone(mask), *algo);
            let k = a.cols();
            ctx.try_plan_sddmm(&mask, k, algo)
                .map_err(ServeError::from)
                .and_then(|plan| {
                    let (a_batch, b_batch): (Vec<_>, Vec<_>) = batch
                        .jobs
                        .iter()
                        .map(|p| match &p.req {
                            JobRequest::Sddmm { a, b, .. } => (a.clone(), b.clone()),
                            JobRequest::Spmm { .. } => unreachable!("coalesce key fixes the op"),
                        })
                        .unzip();
                    plan.try_run_batch(&a_batch, &b_batch)
                        .map(|outs| outs.into_iter().map(JobOutput::Sddmm).collect())
                        .map_err(ServeError::from)
                })
        }
    }
}

/// Execute one batch on the shard's context and fulfill every slot. A
/// panic in plan-and-run fails the batch's jobs through the failed-batch
/// branch, so their waiters wake and the worker keeps serving.
fn dispatch(shared: &Shared, shard: usize, batch: Batch) {
    let n_jobs = batch.jobs.len();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if shared
            .panics_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected dispatch fault");
        }
        plan_and_run(&shared.contexts[shard], &batch)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(ServeError::WorkerPanicked { message })
    });

    let done_us = shared.now_us();
    let track = Track {
        pid: shared.serve_pid,
        tid: shard as u32 + 1,
    };
    if shared.sink.is_enabled() {
        shared.sink.instant_at(
            track,
            "batch",
            "serve",
            done_us,
            vec![
                (
                    "anchor",
                    shared.config.tenants[batch.anchor].name.as_str().into(),
                ),
                ("size", n_jobs.into()),
            ],
        );
    }
    let mut stats = shared.stats_lock();
    stats.batches += 1;
    stats.coalesced += (n_jobs - 1) as u64;
    stats.panicked += u64::from(matches!(result, Err(ServeError::WorkerPanicked { .. })));
    match result {
        Ok(outputs) => {
            for (pending, out) in batch.jobs.into_iter().zip(outputs) {
                let latency_us = done_us.saturating_sub(pending.enqueued_us).max(1);
                let t = &mut stats.tenants[pending.tenant];
                t.served += 1;
                t.latencies_us.push(latency_us);
                if shared.sink.is_enabled() {
                    shared.sink.span_at(
                        track,
                        "request",
                        "serve",
                        pending.enqueued_us,
                        latency_us,
                        vec![
                            (
                                "tenant",
                                shared.config.tenants[pending.tenant].name.as_str().into(),
                            ),
                            ("batch", n_jobs.into()),
                        ],
                    );
                }
                pending.slot.fulfill(Ok(out));
            }
        }
        Err(e) => {
            // A failed batch fails every job in it with the same typed
            // error; the batch still counts as dispatched.
            for pending in batch.jobs {
                pending.slot.fulfill(Err(e.clone()));
            }
        }
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    while let Some(batch) = shared.queues[shard].next_batch() {
        dispatch(shared, shard, batch);
    }
}

fn build_report(shared: &Shared) -> ServeReport {
    let stats = shared.stats_lock();
    let tenants = shared
        .config
        .tenants
        .iter()
        .zip(&stats.tenants)
        .map(|(spec, t)| {
            let mut sorted = t.latencies_us.clone();
            sorted.sort_unstable();
            let total: u64 = sorted.iter().sum();
            let mean_ms = if sorted.is_empty() {
                0.0
            } else {
                total as f64 / sorted.len() as f64 / 1000.0
            };
            TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                submitted: t.submitted,
                served: t.served,
                rejected: t.rejected,
                p50_ms: percentile(&sorted, 50.0) as f64 / 1000.0,
                p99_ms: percentile(&sorted, 99.0) as f64 / 1000.0,
                mean_ms,
                slo_p99_ms: spec.slo_p99_ms,
                total_latency_us: total,
            }
        })
        .collect();

    let mut engine = vecsparse::engine::EngineStats::default();
    for ctx in &shared.contexts {
        engine.absorb(&ctx.stats());
    }
    let names: Vec<String> = shared
        .config
        .tenants
        .iter()
        .map(|t| t.name.clone())
        .collect();
    ServeReport {
        tenants,
        engine,
        batches: stats.batches,
        coalesced: stats.coalesced,
        panicked_batches: stats.panicked,
        max_queue_depth: shared
            .queues
            .iter()
            .map(|q| q.max_depth())
            .max()
            .unwrap_or(0),
        dispatch_logs: shared
            .queues
            .iter()
            .map(|q| {
                q.dispatch_log()
                    .into_iter()
                    .map(|t| names[t].clone())
                    .collect()
            })
            .collect(),
        workers: shared.config.workers,
        shards: shared.config.shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantSpec;
    use std::sync::mpsc;
    use std::time::Duration;
    use vecsparse::engine::EngineError;
    use vecsparse::SpmmAlgo;
    use vecsparse_formats::{gen, DenseMatrix, Layout};
    use vecsparse_fp16::f16;
    use vecsparse_gpu_sim::GpuConfig;

    /// `handle.wait()` on a helper thread; panics if it is still blocked
    /// after `timeout`.
    fn wait_within(handle: JobHandle, timeout: Duration) -> Result<JobOutput, ServeError> {
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(handle.wait());
        });
        let got = rx
            .recv_timeout(timeout)
            .unwrap_or_else(|_| panic!("wait() still blocked after {timeout:?}"));
        waiter.join().expect("the waiter returned after sending");
        got
    }

    /// A panic inside one batch fails that batch's handles with a typed
    /// error instead of killing the worker and leaving its waiters
    /// blocked, and the worker goes on serving.
    #[test]
    fn worker_panic_fails_its_batch_and_keeps_serving() {
        let server = Server::start(
            ServeConfig::builder()
                .workers(1)
                .shards(1)
                .gpu(GpuConfig::small())
                .tenant(TenantSpec::new("solo"))
                .build(),
        );
        let client = server.client("solo").unwrap();
        let a = Arc::new(gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 1));
        let job = |seed| JobRequest::Spmm {
            a: Arc::clone(&a),
            b: gen::random_dense::<f16>(64, 16, Layout::RowMajor, seed),
            algo: SpmmAlgo::Octet,
        };
        let timeout = Duration::from_secs(10);
        server.shared.panics_left.store(1, Ordering::Relaxed);
        let doomed = client.submit(job(2)).expect("admission");
        match wait_within(doomed, timeout) {
            Err(ServeError::WorkerPanicked { message }) => {
                assert_eq!(message, "injected dispatch fault")
            }
            Err(other) => panic!("expected WorkerPanicked, got {other}"),
            Ok(_) => panic!("the panicking batch must not be served"),
        }
        let ok = client.submit(job(3)).expect("admission");
        assert!(wait_within(ok, timeout).is_ok(), "the worker kept serving");
        let report = server.finish();
        assert_eq!(report.panicked_batches, 1);
        assert_eq!((report.batches, report.served()), (2, 1));
    }

    /// A job whose problem does not fit in the device's memory fails its
    /// own handle with the engine's typed error, and the worker goes on
    /// serving. Its m × n output would be 128 GiB of binary16.
    #[test]
    fn oversized_job_fails_its_handle_and_keeps_serving() {
        let server = Server::start(
            ServeConfig::builder()
                .workers(1)
                .shards(1)
                .gpu(GpuConfig::small())
                .tenant(TenantSpec::new("solo"))
                .build(),
        );
        let client = server.client("solo").unwrap();
        let timeout = Duration::from_secs(10);
        let huge = JobRequest::Spmm {
            a: Arc::new(gen::random_vector_sparse::<f16>(1 << 20, 64, 8, 0.99, 1)),
            b: DenseMatrix::zeros(64, 1 << 16, Layout::RowMajor),
            algo: SpmmAlgo::Auto,
        };
        match wait_within(client.submit(huge).expect("admission"), timeout) {
            Err(ServeError::Engine(EngineError::OutOfDeviceMemory { .. })) => {}
            Err(other) => panic!("expected OutOfDeviceMemory, got {other}"),
            Ok(_) => panic!("an oversized job must not be served"),
        }
        let small = JobRequest::Spmm {
            a: Arc::new(gen::random_vector_sparse::<f16>(32, 64, 4, 0.8, 2)),
            b: gen::random_dense::<f16>(64, 16, Layout::RowMajor, 3),
            algo: SpmmAlgo::Auto,
        };
        let ok = client.submit(small).expect("admission");
        assert!(wait_within(ok, timeout).is_ok(), "the worker kept serving");
        let report = server.finish();
        assert_eq!((report.batches, report.served()), (2, 1));
    }
}
