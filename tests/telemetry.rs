//! End-to-end telemetry tests: the fallible engine API rejects malformed
//! inputs with typed errors (no panics), a traced profiling run exports a
//! Perfetto document whose engine spans nest over one timeline track per
//! SM scheduler, and a traced attention head records exactly its plans'
//! engine spans.

use std::sync::Arc;
use vecsparse::engine::{Context, EngineError};
use vecsparse::{SddmmAlgo, SpmmAlgo};
use vecsparse_formats::{gen, Layout, SparsityPattern, VectorSparse};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{Backend, GpuConfig, TraceSink};
use vecsparse_telemetry::{perfetto, ENGINE_PID};
use vecsparse_transformer::{sparse_attention_head, AttentionConfig};

#[test]
fn try_plan_rejects_malformed_inputs() {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.7, 1);

    match ctx.try_plan_spmm(&a, 0, SpmmAlgo::Octet) {
        Err(EngineError::EmptyDimension { what }) => assert!(what.contains('n')),
        Err(other) => panic!("expected EmptyDimension, got {other:?}"),
        Ok(_) => panic!("expected EmptyDimension, got a plan"),
    }

    let wide = gen::random_vector_sparse::<f16>(32, 64, 16, 0.7, 1);
    match ctx.try_plan_spmm(&wide, 32, SpmmAlgo::Octet) {
        Err(EngineError::UnsupportedV { v }) => assert_eq!(v, 16),
        Err(other) => panic!("expected UnsupportedV, got {other:?}"),
        Ok(_) => panic!("expected UnsupportedV, got a plan"),
    }

    let mask = gen::random_pattern(32, 32, 8, 0.6, 2);
    match ctx.try_plan_sddmm(&mask, 0, SddmmAlgo::OctetArch) {
        Err(EngineError::EmptyDimension { what }) => assert!(what.contains('k')),
        Err(other) => panic!("expected EmptyDimension, got {other:?}"),
        Ok(_) => panic!("expected EmptyDimension, got a plan"),
    }
}

/// A `rows × cols` pattern with no stored vectors.
fn empty_pattern(rows: usize, cols: usize, v: usize) -> SparsityPattern {
    SparsityPattern::new(rows, cols, v, vec![0; rows / v + 1], Vec::new())
}

/// A zero dimension anywhere in the descriptor is a typed error at plan
/// time, for every algorithm (`Auto` included) on both backends: no
/// kernel is asked to launch an empty grid.
#[test]
fn every_empty_dimension_fails_at_plan_time() {
    let spmm_algos = [
        SpmmAlgo::Octet,
        SpmmAlgo::Wmma,
        SpmmAlgo::FpuSubwarp,
        SpmmAlgo::BlockedEll,
        SpmmAlgo::Dense,
        SpmmAlgo::Auto,
    ];
    let sddmm_algos = [
        SddmmAlgo::OctetReg,
        SddmmAlgo::OctetShfl,
        SddmmAlgo::OctetArch,
        SddmmAlgo::FpuSubwarp,
        SddmmAlgo::Wmma,
        SddmmAlgo::Auto,
    ];
    let full = gen::random_vector_sparse::<f16>(32, 64, 4, 0.7, 1);
    let no_rows = VectorSparse::<f16>::new(empty_pattern(0, 64, 4), Vec::new());
    let no_cols = VectorSparse::<f16>::new(empty_pattern(32, 0, 4), Vec::new());
    let spmm_cases = [(&no_rows, 64, 'm'), (&no_cols, 64, 'k'), (&full, 0, 'n')];
    let mask = gen::random_pattern(32, 32, 4, 0.7, 2);
    let (mask_no_rows, mask_no_cols) = (empty_pattern(0, 32, 4), empty_pattern(32, 0, 4));
    let sddmm_cases = [
        (&mask_no_rows, 64, 'm'),
        (&mask, 0, 'k'),
        (&mask_no_cols, 64, 'n'),
    ];
    let expect_empty = |got: Result<(), EngineError>, dim: char, what: &str| match got {
        Err(EngineError::EmptyDimension { what: name }) => {
            assert!(
                name.starts_with(dim),
                "{what}: reported {name:?}, want {dim}"
            )
        }
        Err(other) => panic!("{what}: expected EmptyDimension, got {other:?}"),
        Ok(()) => panic!("{what}: expected EmptyDimension, got a plan"),
    };
    for backend in [Backend::Simulated, Backend::Native] {
        let ctx = Context::builder()
            .gpu(GpuConfig::small())
            .backend(backend)
            .build();
        for algo in spmm_algos {
            for (a, n, dim) in spmm_cases {
                let what = format!("{backend:?} {} with {dim} = 0", algo.label());
                expect_empty(ctx.try_plan_spmm(a, n, algo).map(drop), dim, &what);
            }
        }
        for algo in sddmm_algos {
            for (mask, k, dim) in sddmm_cases {
                let what = format!("{backend:?} {} with {dim} = 0", algo.label());
                expect_empty(ctx.try_plan_sddmm(mask, k, algo).map(drop), dim, &what);
            }
        }
    }
}

#[test]
fn try_run_rejects_mismatched_operands() {
    let ctx = Context::builder().gpu(GpuConfig::small()).build();
    let a = gen::random_vector_sparse::<f16>(32, 64, 4, 0.7, 1);
    let plan = ctx
        .try_plan_spmm(&a, 16, SpmmAlgo::Octet)
        .expect("valid plan");

    // Wrong RHS row count.
    let short = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 3);
    match plan.try_run(&short) {
        Err(EngineError::DimensionMismatch {
            what,
            expected,
            got,
        }) => {
            assert_eq!(what, "RHS rows");
            assert_eq!((expected, got), (64, 32));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }

    // Wrong layout.
    let col_major = gen::random_dense::<f16>(64, 16, Layout::ColMajor, 3);
    assert!(matches!(
        plan.try_run(&col_major),
        Err(EngineError::LayoutMismatch { what: "RHS", .. })
    ));

    // Batch shapes.
    assert!(matches!(
        plan.try_run_batch(&[]),
        Err(EngineError::EmptyBatch)
    ));
    let good = gen::random_dense::<f16>(64, 16, Layout::RowMajor, 4);
    assert!(matches!(
        plan.try_run_batch(&[good.clone(), short.clone()]),
        Err(EngineError::DimensionMismatch { .. })
    ));
    assert_eq!(plan.try_run_batch(&[good]).expect("valid batch").len(), 1);

    // SDDMM pairs: length mismatch beats element checks.
    let mask = gen::random_pattern(32, 32, 8, 0.6, 2);
    let sddmm = ctx
        .try_plan_sddmm(&mask, 16, SddmmAlgo::OctetArch)
        .expect("valid plan");
    let qa = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 5);
    let kb = gen::random_dense::<f16>(16, 32, Layout::ColMajor, 6);
    match sddmm.try_run_batch(&[qa.clone(), qa.clone()], std::slice::from_ref(&kb)) {
        Err(EngineError::BatchLengthMismatch { a, b }) => assert_eq!((a, b), (2, 1)),
        other => panic!("expected BatchLengthMismatch, got {other:?}"),
    }
    // A-operand shape mismatch surfaces as a typed error too.
    let bad_a = gen::random_dense::<f16>(16, 16, Layout::RowMajor, 7);
    assert!(matches!(
        sddmm.try_run(&bad_a, &kb),
        Err(EngineError::DimensionMismatch { what: "A rows", .. })
    ));
    // Errors are values: formatting them must name the offender.
    let msg = sddmm.try_run(&bad_a, &kb).unwrap_err().to_string();
    assert!(msg.contains("A rows"), "unhelpful message: {msg}");
}

/// A profiled run through a traced context must export a Perfetto
/// document that (a) parses as JSON, (b) has one named thread track per
/// SM scheduler under the kernel's process, and (c) nests the kernel's
/// timeline inside the engine's `run spmm (profile)` span.
#[test]
fn perfetto_export_has_engine_spans_over_scheduler_tracks() {
    let gpu = GpuConfig::small();
    let schedulers = gpu.schedulers_per_sm;
    let sink = Arc::new(TraceSink::enabled(1 << 16));
    let ctx = Context::builder()
        .gpu(gpu)
        .telemetry(Arc::clone(&sink))
        .build();

    let a = gen::random_vector_sparse::<f16>(64, 64, 4, 0.8, 1);
    let b = gen::random_dense::<f16>(64, 32, Layout::RowMajor, 2);
    let plan = ctx.plan_spmm(&a, 32, SpmmAlgo::Auto);
    let profile = plan.try_profile(&b).expect("profile");
    assert!(profile.cycles > 0.0);

    let doc = perfetto::export_json(&sink);
    let parsed = serde_json::from_str(&doc).expect("export must be valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents");

    // Collect metadata: process names and per-process thread names.
    let meta = |kind: &str| {
        events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some(kind))
            .map(|e| {
                (
                    e["pid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap().to_string(),
                )
            })
            .collect::<Vec<_>>()
    };
    let processes = meta("process_name");
    let threads = meta("thread_name");

    // The tuner's winner is named as a kernel process in the trace.
    let winner = plan.algo().label();
    // The tuner may have profiled the winner as a candidate too; the
    // explicit `try_profile` launch is the most recent process.
    let kernel_pid = processes
        .iter()
        .rev()
        .find(|(_, name)| name.starts_with(winner))
        .map(|(pid, _)| *pid)
        .unwrap_or_else(|| panic!("no process named {winner} in {processes:?}"));
    let sched_tracks = threads
        .iter()
        .filter(|(pid, name)| *pid == kernel_pid && name.starts_with("SM scheduler"))
        .count();
    assert_eq!(sched_tracks, schedulers, "one track per SM scheduler");

    // Engine spans exist on the engine track (pid 0).
    let span = |name: &str| {
        events.iter().find(|e| {
            e["ph"].as_str() == Some("X")
                && e["name"].as_str() == Some(name)
                && e["pid"].as_u64() == Some(0)
        })
    };
    for name in ["plan spmm", "tune spmm", "stage spmm"] {
        assert!(span(name).is_some(), "missing engine span {name}");
    }
    let run = span("run spmm (profile)").expect("missing run span");
    let run_start = run["ts"].as_u64().unwrap();
    let run_end = run_start + run["dur"].as_u64().unwrap();

    // The winner's kernel-wide span (cat "kernel", tid 0 of its process)
    // nests inside the engine's run span.
    let kernel_span = events
        .iter()
        .find(|e| {
            e["ph"].as_str() == Some("X")
                && e["cat"].as_str() == Some("kernel")
                && e["pid"].as_u64() == Some(kernel_pid)
        })
        .expect("kernel-wide span");
    let kts = kernel_span["ts"].as_u64().unwrap();
    let kend = kts + kernel_span["dur"].as_u64().unwrap();
    assert!(
        run_start <= kts && kend <= run_end,
        "kernel [{kts}, {kend}) escapes engine run span [{run_start}, {run_end})"
    );
    // The kernel span carries the roofline args.
    for key in ["flops", "dram_bytes", "intensity"] {
        assert!(
            !kernel_span["args"][key].is_null(),
            "kernel span missing {key}"
        );
    }
}

/// One attention head on a traced context plans, stages and runs one
/// SDDMM and one SpMM, each exactly once and never tuned (both algorithms
/// are fixed), on the engine track the Perfetto export names; the same
/// call on an untraced context records nothing.
#[test]
fn traced_attention_head_records_one_span_per_engine_phase() {
    let cfg = AttentionConfig {
        seq_len: 32,
        head_dim: 16,
        heads: 1,
        sparsity: 0.6,
        v: 8,
        band: 8,
    };
    let mask = cfg.mask(7);
    let q = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 8);
    let k = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 9);
    let v = gen::random_dense::<f16>(32, 16, Layout::RowMajor, 10);

    let sink = Arc::new(TraceSink::enabled(1 << 16));
    let ctx = Context::builder()
        .gpu(GpuConfig::small())
        .telemetry(Arc::clone(&sink))
        .build();
    sparse_attention_head(&ctx, &q, &k, &v, &mask);
    let events = sink.events();
    for name in [
        "plan sddmm",
        "stage sddmm",
        "run sddmm",
        "plan spmm",
        "stage spmm",
        "run spmm",
    ] {
        let spans = events
            .iter()
            .filter(|e| e.track.pid == ENGINE_PID && e.name == name)
            .count();
        assert_eq!(spans, 1, "engine spans named {name}");
    }
    assert!(
        !events.iter().any(|e| e.name.starts_with("tune")),
        "a fixed algorithm never tunes"
    );
    assert!(sink
        .process_names()
        .iter()
        .any(|(pid, name)| *pid == ENGINE_PID && name == "engine"));

    let quiet = Context::builder().gpu(GpuConfig::small()).build();
    sparse_attention_head(&quiet, &q, &k, &v, &mask);
    assert!(quiet.sink().events().is_empty());
}
