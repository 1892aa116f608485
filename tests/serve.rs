//! Tier-1 serving gate for `vecsparse-serve`.
//!
//! Three contracts the serving layer must keep:
//!
//! 1. **Fairness** — under a 10:1 skewed load the light tenant still
//!    anchors batches at a bounded rotation gap and every one of its
//!    jobs is served (weighted round-robin, not weighted priority).
//! 2. **SLO accounting is the trace** — per-tenant latency totals and
//!    percentiles in the [`ServeReport`] are recomputable, exactly,
//!    from the `"serve"` request spans the server records.
//! 3. **Serving is a transport, not a transform** — served outputs are
//!    bit-identical to running the same requests through a direct
//!    engine [`Context`], at any simulator thread count.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;
use vecsparse::engine::{Context, EngineError};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, DenseMatrix, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::GpuConfig;
use vecsparse_serve::{
    JobHandle, JobOutput, JobRequest, ServeConfig, ServeError, Server, TenantSpec,
};
use vecsparse_telemetry::{ArgValue, EventKind, TraceSink, DEFAULT_CAPACITY};

fn weights(seed: u64) -> Arc<VectorSparse<f16>> {
    Arc::new(gen::random_vector_sparse::<f16>(64, 64, 4, 0.8, seed))
}

fn rhs(rows: usize, n: usize, seed: u64) -> DenseMatrix<f16> {
    gen::random_dense::<f16>(rows, n, Layout::RowMajor, seed)
}

#[test]
fn no_tenant_starves_under_skewed_load() {
    let server = Server::start(
        ServeConfig::builder()
            .workers(1)
            .shards(1)
            .max_batch(4)
            .gpu(GpuConfig::small())
            .tenant(TenantSpec::new("heavy").weight(10).queue_depth(512))
            .tenant(TenantSpec::new("light").weight(1).queue_depth(64))
            .build(),
    );
    let a = weights(1);
    let heavy = server.client("heavy").unwrap();
    let light = server.client("light").unwrap();

    // 10:1 offered load, interleaved the way two open-loop tenants
    // would overlap: ten heavy submissions for every light one.
    let mut handles = Vec::new();
    let mut seed = 0u64;
    for _round in 0..10 {
        for _ in 0..10 {
            seed += 1;
            handles.push(
                heavy
                    .submit(JobRequest::Spmm {
                        a: Arc::clone(&a),
                        b: rhs(64, 16, seed),
                        algo: SpmmAlgo::Auto,
                    })
                    .expect("heavy admission"),
            );
        }
        seed += 1;
        handles.push(
            light
                .submit(JobRequest::Spmm {
                    a: Arc::clone(&a),
                    b: rhs(64, 16, seed),
                    algo: SpmmAlgo::Auto,
                })
                .expect("light admission"),
        );
    }
    for h in handles {
        h.wait().expect("served");
    }
    let report = server.finish();

    let heavy_r = &report.tenants[0];
    let light_r = &report.tenants[1];
    assert_eq!(heavy_r.served, 100, "heavy fully served");
    assert_eq!(light_r.served, 10, "light fully served — no starvation");
    assert_eq!(light_r.rejected, 0);

    // The fairness bound: the rotation visits every backlogged tenant
    // once per cycle, so the light tenant's anchor gap stays small even
    // though the heavy tenant has 10x the traffic. (A drain-the-biggest
    // or FIFO-across-tenants scheduler would stretch this toward the
    // heavy backlog length, ~25 batches at max_batch 4.)
    let gap = report.max_anchor_gap("light");
    assert!(
        (1..=8).contains(&gap),
        "light tenant anchor gap {gap} outside the fair range"
    );
    // Coalescing rode along: same operand + free dim across tenants
    // means batches carried free riders.
    assert!(report.coalesced > 0, "same-key jobs must coalesce");
    assert!(report.batches < 110, "batching must beat one-job dispatch");
}

#[test]
fn slo_accounting_matches_request_spans() {
    let sink = Arc::new(TraceSink::enabled(DEFAULT_CAPACITY));
    let server = Server::start(
        ServeConfig::builder()
            .workers(2)
            .shards(2)
            .max_batch(4)
            .gpu(GpuConfig::small())
            .telemetry(Arc::clone(&sink))
            // Wall-clock latencies in a test process are unbounded above
            // but positive below: a generous SLO must be met, a
            // sub-microsecond one cannot be (latencies are clamped to
            // >= 1us).
            .tenant(
                TenantSpec::new("interactive")
                    .weight(4)
                    .slo_p99_ms(60_000.0),
            )
            .tenant(TenantSpec::new("bulk").slo_p99_ms(0.0005))
            .build(),
    );
    let a0 = weights(2);
    let a1 = Arc::new(gen::random_vector_sparse::<f16>(32, 128, 4, 0.9, 3));
    let mut handles = Vec::new();
    for (t, tenant) in ["interactive", "bulk"].iter().enumerate() {
        let client = server.client(tenant).unwrap();
        for j in 0..12u64 {
            let (a, n) = if j % 2 == 0 { (&a0, 16) } else { (&a1, 8) };
            handles.push(
                client
                    .submit(JobRequest::Spmm {
                        a: Arc::clone(a),
                        b: rhs(a.cols(), n, 100 + j + t as u64),
                        algo: SpmmAlgo::Auto,
                    })
                    .expect("admission"),
            );
        }
    }
    for h in handles {
        h.wait().expect("served");
    }
    let report = server.finish();

    // Group the request spans by their tenant argument.
    let events = sink.events();
    let mut durs: std::collections::HashMap<String, Vec<u64>> = Default::default();
    for e in &events {
        if e.kind == EventKind::Span && e.cat == "serve" && e.name == "request" {
            let tenant = e
                .args
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"tenant", ArgValue::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .expect("request spans carry a tenant arg");
            durs.entry(tenant).or_default().push(e.dur);
        }
    }

    for t in &report.tenants {
        let spans = durs.remove(&t.name).expect("spans for every tenant");
        assert_eq!(spans.len() as u64, t.served, "one span per served job");
        assert_eq!(
            spans.iter().sum::<u64>(),
            t.total_latency_us,
            "span durations sum to the accounted latency, exactly"
        );
        // The report's percentiles are recomputable from the trace:
        // nearest-rank over the span durations, microseconds -> ms.
        let mut sorted = spans;
        sorted.sort_unstable();
        let nearest =
            |p: f64| sorted[((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1) - 1];
        assert_eq!(t.p50_ms, nearest(50.0) as f64 / 1000.0);
        assert_eq!(t.p99_ms, nearest(99.0) as f64 / 1000.0);
    }
    assert!(durs.is_empty(), "no spans from unregistered tenants");

    // SLO verdicts follow the same numbers.
    assert_eq!(report.tenants[0].slo_met(), Some(true), "60s SLO is met");
    assert_eq!(
        report.tenants[1].slo_met(),
        Some(false),
        "0.5us SLO cannot be met: latencies clamp to >= 1us"
    );

    // Batch instants account for every served job too.
    let batch_sizes: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.cat == "serve" && e.name == "batch")
        .map(|e| {
            e.args
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"size", ArgValue::U64(n)) => Some(*n),
                    _ => None,
                })
                .expect("batch instants carry a size arg")
        })
        .sum();
    assert_eq!(batch_sizes, report.served());
}

/// The request mix for the bit-identity test: three resident SpMM
/// operands plus one SDDMM mask, several free dimensions.
fn identity_requests() -> Vec<JobRequest> {
    let a0 = weights(10);
    let a1 = Arc::new(gen::random_vector_sparse::<f16>(32, 96, 2, 0.7, 11));
    let a2 = Arc::new(gen::random_vector_sparse::<f16>(64, 64, 8, 0.9, 12));
    let mask: Arc<SparsityPattern> = Arc::new(
        gen::random_vector_sparse::<f16>(32, 48, 4, 0.7, 13)
            .pattern()
            .clone(),
    );
    let mut reqs = Vec::new();
    for j in 0..8u64 {
        for (i, a) in [&a0, &a1, &a2].into_iter().enumerate() {
            reqs.push(JobRequest::Spmm {
                a: Arc::clone(a),
                b: rhs(a.cols(), 16, 1000 + 10 * j + i as u64),
                algo: if i == 1 {
                    SpmmAlgo::Octet
                } else {
                    SpmmAlgo::Auto
                },
            });
        }
        reqs.push(JobRequest::Sddmm {
            mask: Arc::clone(&mask),
            a: gen::random_dense::<f16>(32, 64, Layout::RowMajor, 2000 + j),
            b: gen::random_dense::<f16>(64, 48, Layout::ColMajor, 3000 + j),
            algo: SddmmAlgo::OctetReg,
        });
    }
    reqs
}

/// Run the whole mix through a serving instance, outputs in
/// submission order.
fn serve_all(reqs: &[JobRequest]) -> Vec<JobOutput> {
    let server = Server::start(
        ServeConfig::builder()
            .workers(4)
            .shards(2)
            .max_batch(4)
            .gpu(GpuConfig::small())
            .tenant(TenantSpec::new("solo"))
            .build(),
    );
    let client = server.client("solo").unwrap();
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| client.submit(r.clone()).expect("admission"))
        .collect();
    let outs = handles
        .into_iter()
        .map(|h| h.wait().expect("served"))
        .collect();
    let report = server.finish();
    assert_eq!(report.served() as usize, reqs.len());
    outs
}

/// The same mix through a direct engine context — the reference the
/// serving layer must reproduce bit-for-bit.
fn direct_all(reqs: &[JobRequest]) -> Vec<JobOutput> {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    reqs.iter()
        .map(|r| match r {
            JobRequest::Spmm { a, b, algo } => {
                JobOutput::Spmm(ctx.plan_spmm(a, b.cols(), *algo).run(b))
            }
            JobRequest::Sddmm { mask, a, b, algo } => {
                JobOutput::Sddmm(ctx.plan_sddmm(mask, a.cols(), *algo).run(a, b))
            }
        })
        .collect()
}

fn assert_identical(served: &[JobOutput], direct: &[JobOutput]) {
    assert_eq!(served.len(), direct.len());
    for (i, (s, d)) in served.iter().zip(direct).enumerate() {
        match (s, d) {
            (JobOutput::Spmm(s), JobOutput::Spmm(d)) => {
                assert_eq!(s, d, "request {i}: served SpMM differs from direct")
            }
            (JobOutput::Sddmm(s), JobOutput::Sddmm(d)) => {
                assert_eq!(s, d, "request {i}: served SDDMM differs from direct")
            }
            _ => panic!("request {i}: served op kind differs from direct"),
        }
    }
}

#[test]
fn serving_is_bit_identical_to_direct_execution() {
    let width = common::width();
    let reqs = identity_requests();
    let direct = direct_all(&reqs);
    for threads in [1, 4] {
        width.set(threads);
        let served = serve_all(&reqs);
        assert_identical(&served, &direct);
    }
}

/// `handle.wait()` on a helper thread, so a job that never completes
/// fails the test after `timeout` instead of hanging it.
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

/// A zero-row job fails its own handle with the engine's typed error: it
/// neither kills the worker nor leaves its client blocked, and the
/// worker goes on serving.
#[test]
fn zero_row_job_fails_instead_of_hanging() {
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
    let no_rows = SparsityPattern::new(0, 64, 4, vec![0], Vec::new());
    let empty_jobs = [
        JobRequest::Spmm {
            a: Arc::new(VectorSparse::new(no_rows.clone(), Vec::new())),
            b: rhs(64, 16, 1),
            algo: SpmmAlgo::Auto,
        },
        JobRequest::Sddmm {
            mask: Arc::new(no_rows),
            a: gen::random_dense::<f16>(0, 32, Layout::RowMajor, 2),
            b: gen::random_dense::<f16>(32, 64, Layout::ColMajor, 3),
            algo: SddmmAlgo::Auto,
        },
    ];
    for job in empty_jobs {
        let handle = client.submit(job).expect("admission");
        match wait_within(handle, timeout) {
            Err(ServeError::Engine(EngineError::EmptyDimension { what })) => {
                assert!(what.starts_with('m'), "reported {what:?}")
            }
            Err(other) => panic!("expected an engine EmptyDimension error, got {other}"),
            Ok(_) => panic!("a zero-row job must not be served"),
        }
    }
    let ok = client
        .submit(JobRequest::Spmm {
            a: weights(5),
            b: rhs(64, 16, 6),
            algo: SpmmAlgo::Auto,
        })
        .expect("admission");
    assert!(wait_within(ok, timeout).is_ok(), "the worker kept serving");
    server.finish();
}
