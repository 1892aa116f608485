//! serve-native: a closed loop of jobs against a native, memoizing,
//! multi-tenant server, with `Auto` picking every kernel.

use crate::check::{self, Tally};
use crate::exact::ExactCounts;
use crate::inputs::{mix, N};
use crate::{median_self_ms, stats, OpSample, Outcome, Run};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::{mpsc, Mutex};
use std::time::Instant;
use vecsparse::engine::{Context, EngineError, EngineStats};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_dlmc::{resnet50_shapes, transformer_shapes, LayerShape};
use vecsparse_formats::{gen, DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_serve::{
    Backend, JobHandle, JobOutput, JobRequest, ServeConfig, ServeReport, Server, TenantReport,
    TenantSpec,
};

/// Jobs the single generator thread keeps in flight.
const IN_FLIGHT: usize = 8;
const TENANTS: [(&str, u32); 3] = [("interactive", 8), ("bulk", 2), ("background", 1)];
/// Far above `IN_FLIGHT`, so the closed loop is never rejected.
const QUEUE_DEPTH: usize = 64;
const RHS_PER_OPERAND: usize = 4;
/// The serve-load SpMM mix: the first six ResNet-50 layers at V = 4, 90%
/// sparsity. SDDMM masks use the transformer layers at the same grain.
const SPMM_LAYERS: usize = 6;
const V: usize = 4;
const SPARSITY: f64 = 0.9;
/// Jobs per requested second, and jobs per trace block.
const JOBS_PER_S: f64 = 650.0;
const BLOCK_JOBS: usize = 250;

/// A resident operand with the per-request inputs jobs draw from.
enum Resident {
    Spmm(std::sync::Arc<VectorSparse<f16>>, Vec<DenseMatrix<f16>>),
    Sddmm(
        std::sync::Arc<SparsityPattern>,
        Vec<(DenseMatrix<f16>, DenseMatrix<f16>)>,
    ),
}

impl Resident {
    fn request(&self, rhs: usize) -> JobRequest {
        match self {
            Resident::Spmm(a, bs) => JobRequest::Spmm {
                a: a.clone(),
                b: bs[rhs].clone(),
                algo: SpmmAlgo::Auto,
            },
            Resident::Sddmm(mask, ins) => JobRequest::Sddmm {
                mask: mask.clone(),
                a: ins[rhs].0.clone(),
                b: ins[rhs].1.clone(),
                algo: SddmmAlgo::Auto,
            },
        }
    }

    fn useful_flops(&self) -> u64 {
        let nnz = match self {
            Resident::Spmm(a, _) => a.pattern().nnz(),
            Resident::Sddmm(mask, _) => mask.nnz(),
        };
        2 * nnz as u64 * N as u64
    }

    /// The same job through a direct native `Context`, as output bits.
    fn direct(&self, ctx: &Context, rhs: usize) -> Result<Vec<u16>, EngineError> {
        Ok(match self {
            Resident::Spmm(a, bs) => check::bits(
                ctx.try_plan_spmm(a, N, SpmmAlgo::Auto)?
                    .try_run(&bs[rhs])?
                    .data(),
            ),
            Resident::Sddmm(mask, ins) => {
                let plan = ctx.try_plan_sddmm(mask, N, SddmmAlgo::Auto)?;
                check::bits(plan.try_run(&ins[rhs].0, &ins[rhs].1)?.values())
            }
        })
    }
}

fn aligned(shape: &LayerShape) -> (usize, usize) {
    (shape.rows.div_ceil(8) * 8, shape.cols.div_ceil(8) * 8)
}

fn residents(seed: u64) -> Vec<Resident> {
    let s = |i: usize, k: usize| mix(seed, 0x5E7E_0000 + (i * 16 + k) as u64);
    let mut out = Vec::new();
    for (i, shape) in resnet50_shapes().iter().take(SPMM_LAYERS).enumerate() {
        let (rows, cols) = aligned(shape);
        let a = gen::random_vector_sparse(rows, cols, V, SPARSITY, s(i, 0));
        let bs = (0..RHS_PER_OPERAND)
            .map(|k| gen::random_dense(cols, N, Layout::RowMajor, s(i, k + 1)))
            .collect();
        out.push(Resident::Spmm(a.into(), bs));
    }
    for (j, shape) in transformer_shapes().iter().enumerate() {
        let i = SPMM_LAYERS + j;
        let (rows, cols) = aligned(shape);
        let mask = gen::random_pattern(rows, cols, V, SPARSITY, s(i, 0));
        let ins = (0..RHS_PER_OPERAND)
            .map(|k| {
                (
                    gen::random_dense(rows, N, Layout::RowMajor, s(i, 2 * k + 1)),
                    gen::random_dense(N, cols, Layout::ColMajor, s(i, 2 * k + 2)),
                )
            })
            .collect();
        out.push(Resident::Sddmm(mask.into(), ins));
    }
    out
}

/// A job of the fixed list: resident operand, RHS index, tenant index.
#[derive(Clone, Copy, Debug)]
struct Job {
    resident: usize,
    rhs: usize,
    tenant: usize,
}

/// 3 in 4 jobs are SpMM, 1 in 4 SDDMM; tenants are drawn 8:2:1.
fn job_list(seed: u64, jobs: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x70B5));
    let sddmm = transformer_shapes().len();
    let weight_sum: u32 = TENANTS.iter().map(|t| t.1).sum();
    (0..jobs)
        .map(|j| {
            let resident = if j % 4 == 3 {
                SPMM_LAYERS + rng.gen_range(0..sddmm)
            } else {
                rng.gen_range(0..SPMM_LAYERS)
            };
            let mut pick = rng.gen_range(0..weight_sum);
            let tenant = TENANTS
                .iter()
                .position(|t| {
                    let hit = pick < t.1;
                    pick = pick.saturating_sub(t.1);
                    hit
                })
                .expect("pick below the weight sum");
            Job {
                resident,
                rhs: rng.gen_range(0..RHS_PER_OPERAND),
                tenant,
            }
        })
        .collect()
}

fn config(width: usize) -> ServeConfig {
    let mut cfg = ServeConfig::builder()
        .workers(width)
        .shards(width)
        .backend(Backend::Native)
        .memoization();
    for (name, weight) in TENANTS {
        cfg = cfg.tenant(
            TenantSpec::new(name)
                .weight(weight)
                .queue_depth(QUEUE_DEPTH),
        );
    }
    cfg.build()
}

fn output_values(out: &JobOutput) -> &[f16] {
    match out {
        JobOutput::Spmm(m) => m.data(),
        JobOutput::Sddmm(m) => m.values(),
    }
}

/// A submitted job handed to a waiter thread.
struct InFlight {
    job: usize,
    /// Before the request was built.
    built: Instant,
    t0: Instant,
    submitted: Instant,
    handle: JobHandle,
}

/// A job observed complete.
struct Done {
    job: usize,
    built: Instant,
    t0: Instant,
    submitted: Instant,
    finished: Instant,
    ok: bool,
}

/// Server-side totals over the servers of every segment of a run.
#[derive(Default)]
struct Fleet {
    served: u64,
    batches: u64,
    coalesced: u64,
    rejected: u64,
    engine: EngineStats,
    /// Per server: the largest per-tenant p50 and p99.
    worst_p50_ms: Vec<f64>,
    worst_p99_ms: Vec<f64>,
    workers: usize,
    shards: usize,
}

impl Fleet {
    fn absorb(&mut self, r: &ServeReport) {
        let worst = |f: fn(&TenantReport) -> f64| r.tenants.iter().map(f).fold(0.0, f64::max);
        self.served += r.served();
        self.batches += r.batches;
        self.coalesced += r.coalesced;
        self.rejected += r.tenants.iter().map(|t| t.rejected).sum::<u64>();
        self.engine.absorb(&r.engine);
        self.worst_p50_ms.push(worst(|t| t.p50_ms));
        self.worst_p99_ms.push(worst(|t| t.p99_ms));
        (self.workers, self.shards) = (r.workers, r.shards);
    }
}

/// Run jobs `range` of `jobs` through `server` as a closed loop and return
/// the wall time from the first submit to the last untraced completion.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    run: &mut Run,
    server: &Server,
    residents: &[Resident],
    expected: &[Vec<u16>],
    jobs: &[Job],
    range: std::ops::Range<usize>,
    tally: &mut Tally,
    samples: &mut Vec<OpSample>,
) -> Result<f64, String> {
    let clients = TENANTS
        .iter()
        .map(|(name, _)| server.client(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (mut first_submit, mut last_done) = (None, None);
    let (job_tx, job_rx) = mpsc::channel::<InFlight>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        let job_rx = &job_rx;
        // Waiters block in `JobHandle::wait`, so a finished job is stamped at once.
        for _ in 0..IN_FLIGHT {
            let done_tx = done_tx.clone();
            scope.spawn(move || loop {
                let next = job_rx
                    .lock()
                    .expect("no waiter panics holding the queue")
                    .recv();
                let Ok(f) = next else { break };
                let result = f.handle.wait();
                let finished = Instant::now();
                let want = &expected[jobs[f.job].resident * RHS_PER_OPERAND + jobs[f.job].rhs];
                let ok = result.is_ok_and(|out| check::same_bits(want, output_values(&out)));
                let done = Done {
                    job: f.job,
                    built: f.built,
                    t0: f.t0,
                    submitted: f.submitted,
                    finished,
                    ok,
                };
                if done_tx.send(done).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        let mut in_flight = 0;
        let mut next = range.start;
        while next < range.end || in_flight > 0 {
            while in_flight < IN_FLIGHT && next < range.end {
                let job = jobs[next];
                let built = Instant::now();
                let req = residents[job.resident].request(job.rhs);
                let t0 = Instant::now();
                first_submit.get_or_insert(t0);
                match clients[job.tenant].submit(req) {
                    Ok(handle) => {
                        let submitted = Instant::now();
                        job_tx
                            .send(InFlight {
                                job: next,
                                built,
                                t0,
                                submitted,
                                handle,
                            })
                            .expect("waiters outlive the generator");
                        in_flight += 1;
                    }
                    Err(e) => {
                        eprintln!("perfbench: job {next} rejected: {e}");
                        tally.record(false);
                    }
                }
                next += 1;
            }
            if in_flight == 0 {
                continue;
            }
            let d = done_rx.recv().expect("a waiter holds every in-flight job");
            let observed = Instant::now();
            in_flight -= 1;
            tally.record(d.ok);
            let traced = run.traced_pass(d.job / BLOCK_JOBS);
            let ms = (d.finished - d.t0).as_secs_f64() * 1e3;
            samples.push(OpSample { ms, traced });
            if !traced {
                last_done = Some(d.finished);
            }
            // The root runs from building the request until the generator
            // sees the job done, so the waiter's check and hand-off show
            // as time no layer span covers.
            run.tracer.set_enabled(traced);
            let (tag, op) = (d.job as u32, Some(d.job as u64));
            let root = run.tracer.record("op", tag, (d.built, observed), None, op);
            run.tracer
                .record("serve.submit", tag, (d.t0, d.submitted), root, op);
            run.tracer
                .record("serve.inflight", tag, (d.submitted, d.finished), root, op);
            run.tracer.set_enabled(false);
        }
        drop(job_tx);
    });
    Ok(match (first_submit, last_done) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    })
}

pub fn serve_native(run: &mut Run) -> Result<Outcome, String> {
    let width = rayon::current_num_threads();
    let setup = |run: &mut Run| {
        let t0 = Instant::now();
        let residents = residents(run.seed);
        run.tracer
            .record("dlmc.build", 0, (t0, Instant::now()), None, None);
        let server = Server::start(config(width));
        let client = server.client(TENANTS[0].0).map_err(|e| e.to_string())?;
        for (r, resident) in residents.iter().enumerate() {
            let t0 = Instant::now();
            client
                .submit(resident.request(0))
                .and_then(JobHandle::wait)
                .map_err(|e| format!("warm-up request {r}: {e}"))?;
            run.tracer
                .record("serve.warmup", r as u32, (t0, Instant::now()), None, None);
        }
        Ok((server, residents))
    };

    let blocks = run.passes(JOBS_PER_S / BLOCK_JOBS as f64);
    let jobs = job_list(run.seed, blocks * BLOCK_JOBS);
    let mut expected = Vec::new();
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut timed_s = 0.0;
    let mut flops = 0u64;
    let mut fleet = Fleet::default();
    for segment in run.segments(blocks) {
        let (server, residents) = run.setup(setup)?;
        if expected.is_empty() {
            // Check preparation, untimed: every (operand, RHS) through a
            // direct native context. Later setups regenerate the same operands.
            let direct = Context::builder()
                .backend(Backend::Native)
                .memoization()
                .build();
            for resident in &residents {
                for rhs in 0..RHS_PER_OPERAND {
                    expected.push(
                        resident
                            .direct(&direct, rhs)
                            .map_err(|e| format!("direct reference run: {e}"))?,
                    );
                }
            }
        }
        let range = segment.start * BLOCK_JOBS..segment.end * BLOCK_JOBS;
        flops += jobs[range.clone()]
            .iter()
            .map(|j| residents[j.resident].useful_flops())
            .sum::<u64>();
        timed_s += closed_loop(
            run,
            &server,
            &residents,
            &expected,
            &jobs,
            range,
            &mut tally,
            &mut samples,
        )?;
        fleet.absorb(&server.finish());
    }

    let mut exact = ExactCounts::default();
    exact.fixed("ops_attempted", tally.attempted);
    exact.fixed("serve.served", fleet.served);
    exact.fixed("serve.rejected", fleet.rejected);
    exact.seeded("serve.useful_flops", flops);
    exact.fixed("engine.tuner_launches", fleet.engine.tuner_launches);
    exact.fixed("engine.cache_misses", fleet.engine.cache_misses);

    let mut layers = Vec::new();
    if run.trace {
        let per_job = |n: u64| n as f64 / fleet.served.max(1) as f64;
        let lookups = fleet.engine.cache_hits + fleet.engine.cache_misses;
        layers.push((
            "dlmc.build_ms".into(),
            median_self_ms(run, "dlmc.build", |_| true),
        ));
        layers.push((
            "serve.warmup_ms".into(),
            median_self_ms(run, "serve.warmup", |_| true),
        ));
        layers.push((
            "serve.submit_us".into(),
            median_self_ms(run, "serve.submit", |_| true) * 1e3,
        ));
        layers.push((
            "serve.mean_batch".into(),
            fleet.served as f64 / fleet.batches.max(1) as f64,
        ));
        layers.push(("serve.coalesced_frac".into(), per_job(fleet.coalesced)));
        layers.push((
            "serve.plan_cache_hit_ratio".into(),
            fleet.engine.cache_hits as f64 / lookups.max(1) as f64,
        ));
        layers.push((
            "serve.plans_per_job".into(),
            per_job(fleet.engine.plans_built),
        ));
        layers.push((
            "serve.server_p50_ms".into(),
            stats::median(&fleet.worst_p50_ms),
        ));
        layers.push((
            "serve.worst_tenant_p99_ms".into(),
            stats::median(&fleet.worst_p99_ms),
        ));
        layers.push(("serve.rejected".into(), fleet.rejected as f64));
    }
    Ok(Outcome {
        ops: samples,
        timed_s,
        tally,
        exact,
        layers,
        notes: vec![
            ("serve_workers", fleet.workers.to_string()),
            ("serve_shards", fleet.shards.to_string()),
            ("config", format!("Backend::Native, memoization, Auto; {IN_FLIGHT} jobs in flight from one generator thread; tenants 8/2/1, queue depth {QUEUE_DEPTH}")),
        ],
    })
}
