//! serve-load: multi-tenant serving smoke plus a deterministic
//! offered-load-vs-p99 saturation sweep.
//!
//! ```text
//! cargo run --release -p vecsparse-bench --bin serve-load -- \
//!     [--quick] [--jobs J] [--requests R] [--points P] [--workers W] \
//!     [--shards S] [--max-batch B] [--n N] [--seed SEED] \
//!     [--backend native|simulated] [--json serve.json] [--diff]
//! ```
//!
//! Two stages, mirroring how the ISSUE's acceptance criteria are split:
//!
//! 1. **Live smoke** — spin up a [`Server`] with three tenants of skewed
//!    weights, pump `--jobs` SpMM requests per tenant over a DLMC
//!    (ResNet-50) shape mix through per-tenant [`Client`]s, and print the
//!    resulting [`ServeReport`] (per-tenant p50/p99, batching and
//!    coalescing counters, plan-cache hit rate). The run
//!    asserts every job was served and that the sharded plan caches got
//!    hits — a serving layer that re-plans every request is broken.
//!    `--diff` additionally replays every request through a direct
//!    engine `Context` and asserts the served outputs are bit-identical.
//!
//! 2. **Saturation sweep** — profile each distinct shape once through
//!    the engine (simulated cycles → milliseconds at the nominal V100
//!    clock), then push `--requests` Poisson arrivals per point through
//!    the deterministic open-loop queueing model of
//!    [`vecsparse_serve::saturation_curve`] across `--points` offered
//!    loads spanning an eighth of pool capacity to 2x beyond it. The
//!    binary asserts the p99 column is finite and monotone and that the
//!    curve has a measurable knee (tail ≥ 2× the light-load floor).
//!
//! `--backend` selects the worker contexts' functional execution backend
//! (default `native`, the serving default: the CPU fast path with
//! bit-identical outputs). The `--diff` replay always runs through a
//! **simulated** direct context, so under the native default it is an
//! end-to-end cross-backend identity check.
//!
//! `--json PATH` writes the schema-v11 `kind: "serve_saturation"`
//! document (round-tripped through a JSON parser before it is written,
//! like the sweep binary) for the CI serve-gate.

use std::sync::Arc;
use vecsparse::engine::Context;
use vecsparse::SpmmAlgo;
use vecsparse_bench::sweep_json::{self, ServeMeta};
use vecsparse_bench::{device, f2, flag, Table};
use vecsparse_dlmc::{resnet50_shapes, Benchmark};
use vecsparse_formats::{gen, DenseMatrix, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::Backend;
use vecsparse_serve::{
    saturation_curve, service_time_ms, JobRequest, ServeConfig, Server, TenantSpec,
};

/// Nominal V100 SM clock, GHz: converts simulated cycles to service time.
const NOMINAL_GHZ: f64 = 1.53;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = vecsparse_bench::quick_mode();
    let jobs: usize = flag(&args, "--jobs").unwrap_or(if quick { 12 } else { 32 });
    let requests: usize = flag(&args, "--requests").unwrap_or(if quick { 400 } else { 2000 });
    let points: usize = flag(&args, "--points")
        .unwrap_or(if quick { 6 } else { 12 })
        .max(2);
    let workers: usize = flag(&args, "--workers").unwrap_or(4).max(1);
    let shards: usize = flag(&args, "--shards").unwrap_or(2).clamp(1, workers);
    let max_batch: usize = flag(&args, "--max-batch").unwrap_or(8).max(1);
    let n: usize = flag(&args, "--n").unwrap_or(if quick { 32 } else { 64 });
    let seed: u64 = flag(&args, "--seed").unwrap_or(42);
    let backend = flag(&args, "--backend").unwrap_or(Backend::Native);
    let json_path: Option<String> = flag(&args, "--json");
    let diff = args.iter().any(|a| a == "--diff");

    let gpu = device();
    let gpu_config_hash = gpu.config_hash();

    // The DLMC shape mix: early ResNet-50 layers (small enough that the
    // functional simulator keeps the smoke quick), V=4 at 90% sparsity —
    // the paper's headline operating point.
    let shape_count = if quick { 3 } else { 6 };
    let benches: Vec<Arc<_>> = resnet50_shapes()
        .into_iter()
        .take(shape_count)
        .map(|s| Arc::new(Benchmark::build(s, 4, 0.9).matrix))
        .collect();

    // ---- Stage 1: live multi-tenant smoke -------------------------------
    let tenants: [(&str, u32); 3] = [("interactive", 8), ("bulk", 2), ("background", 1)];
    let mut cfg = ServeConfig::builder()
        .workers(workers)
        .shards(shards)
        .max_batch(max_batch)
        .gpu(gpu.clone())
        .backend(backend);
    for (name, weight) in tenants {
        cfg = cfg.tenant(TenantSpec::new(name).weight(weight));
    }
    let server = Server::start(cfg.build());

    // Round-robin each tenant over the shape mix with deterministic RHS
    // seeds; remember the inputs when `--diff` replays them directly.
    let mut handles = Vec::new();
    let mut replay: Vec<(Arc<vecsparse_formats::VectorSparse<f16>>, DenseMatrix<f16>)> = Vec::new();
    for (t, (name, _)) in tenants.iter().enumerate() {
        let client = server.client(name).expect("registered tenant");
        for j in 0..jobs {
            let a = Arc::clone(&benches[(j + t) % benches.len()]);
            let b = gen::random_dense::<f16>(
                a.cols(),
                n,
                Layout::RowMajor,
                seed ^ ((t as u64) << 32) ^ j as u64,
            );
            if diff {
                replay.push((Arc::clone(&a), b.clone()));
            }
            handles.push(
                client
                    .submit(JobRequest::Spmm {
                        a,
                        b,
                        algo: SpmmAlgo::Auto,
                    })
                    .expect("admission under the default queue depth"),
            );
        }
    }
    let served: Vec<DenseMatrix<f16>> = handles
        .into_iter()
        .map(|h| h.wait().expect("serve").into_spmm().expect("spmm job"))
        .collect();
    let report = server.finish();
    print!("{}", report.render());

    let expected = (tenants.len() * jobs) as u64;
    assert_eq!(report.served(), expected, "every submitted job is served");
    assert!(
        report.cache_hit_ratio() > 0.0,
        "repeated shapes must hit the sharded plan caches"
    );
    let live_p99 = report
        .tenants
        .iter()
        .map(|t| t.p99_ms)
        .fold(0.0f64, f64::max);
    assert!(live_p99.is_finite(), "live p99 must be finite");

    if diff {
        // Served results must be bit-identical to a direct engine call.
        // The replay context always simulates honestly, so with native
        // workers this asserts cross-backend bit-identity end to end.
        let direct = Context::builder()
            .gpu(gpu.clone())
            .backend(Backend::Simulated)
            .build();
        for (out, (a, b)) in served.iter().zip(&replay) {
            let want = direct.plan_spmm(a, b.cols(), SpmmAlgo::Auto).run(b);
            assert_eq!(out, &want, "served output differs from direct Context::run");
        }
        println!(
            "diff: {} served outputs bit-identical to direct",
            served.len()
        );
    }

    // ---- Stage 2: deterministic saturation sweep ------------------------
    // One profile per distinct shape through the engine: the simulator's
    // cycle counts are the queueing model's service times.
    let profiler = Context::builder().gpu(gpu).build();
    let service_ms: Vec<f64> = benches
        .iter()
        .map(|a| {
            let b = gen::random_dense::<f16>(a.cols(), n, Layout::RowMajor, seed ^ 0xCAFE);
            let cycles = profiler.plan_spmm(a, n, SpmmAlgo::Auto).profile(&b).cycles;
            service_time_ms(cycles, NOMINAL_GHZ)
        })
        .collect();
    let mean_ms = service_ms.iter().sum::<f64>() / service_ms.len() as f64;
    let capacity_rps = workers as f64 * 1000.0 / mean_ms;
    // Sweep from well under capacity to 2x past it so the curve shows
    // both the service-time floor and the post-saturation wait blow-up.
    let grid: Vec<f64> = (1..=points)
        .map(|i| 2.0 * capacity_rps * i as f64 / points as f64)
        .collect();
    let curve = saturation_curve(&service_ms, &grid, requests, workers, seed);

    let mut table = Table::new(vec!["offered rps", "p50 ms", "p99 ms", "mean ms", "util"]);
    for p in &curve {
        table.row(vec![
            format!("{:.0}", p.offered_rps),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p99_ms),
            format!("{:.3}", p.mean_ms),
            f2(p.utilization),
        ]);
    }
    println!(
        "saturation sweep: {} shapes, mean service {:.3} ms, pool capacity ~{:.0} rps",
        service_ms.len(),
        mean_ms,
        capacity_rps
    );
    table.print();

    for pair in curve.windows(2) {
        assert!(pair[0].p99_ms.is_finite() && pair[1].p99_ms.is_finite());
        assert!(
            pair[1].p99_ms >= pair[0].p99_ms,
            "p99 must be monotone in offered load"
        );
    }
    let floor = curve.first().expect("points >= 2").p99_ms;
    let tail = curve.last().expect("points >= 2").p99_ms;
    assert!(
        tail >= 2.0 * floor,
        "curve has no measurable knee: floor {floor} ms, tail {tail} ms"
    );

    if let Some(path) = json_path {
        let meta = ServeMeta {
            gpu_config_hash,
            workers: report.workers,
            shards: report.shards,
            max_batch,
            requests_per_point: requests,
            tenants: report
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.weight))
                .collect(),
            served: report.served(),
            batches: report.batches,
            coalesced: report.coalesced,
            max_queue_depth: report.max_queue_depth,
            p99_ms: live_p99,
            cache_hit_ratio: report.cache_hit_ratio(),
            backend,
        };
        let out = sweep_json::render_serve(&meta, &curve);
        // The document must parse: CI consumes it with a JSON parser.
        serde_json::from_str(&out).expect("--json output must be valid JSON");
        std::fs::write(&path, out).expect("write --json output");
        println!("wrote {path}");
    }
}
