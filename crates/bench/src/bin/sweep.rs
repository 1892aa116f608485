//! Custom sweep CLI: profile every SpMM implementation on a
//! user-specified problem through the engine.
//!
//! ```text
//! cargo run --release -p vecsparse-bench --bin sweep -- \
//!     --m 2048 --k 1024 --n 256 --v 4 --sparsity 0.9 [--seed 42] \
//!     [--algo auto] [--json results.json] [--expect-auto spmm-octet] \
//!     [--trace trace.json] [--csv counters.csv] [--report] [--threads N] \
//!     [--memoize] [--repeat R] [--backend simulated|native]
//! ```
//!
//! The sweep only profiles. Checking a kernel is `vsan`'s job: `vsan`
//! (sanitizer), `vsan precision`, `vsan waveprove` and `vsan shardprove`
//! take the same `--m/--k/--n/--v/--sparsity/--seed` shape flags.
//!
//! * `--algo auto` adds an `auto` row: the engine's tuner picks among the
//!   numerically exact kernels and the row reports what it chose.
//! * `--json PATH` writes the sweep rows (plus the tuner decision, if
//!   any) as a JSON document for CI artifacts. The document carries a
//!   `schema_version` and the hash of the simulated GPU config so
//!   downstream tooling can reject rows from a different machine model.
//!   Its `wall_ms`, like the table's "ms total", is the sum of the rows'
//!   plan-and-profile times; the functional run behind each row's
//!   `out_digest` is not timed.
//! * `--expect-auto LABEL` asserts the tuner picked `LABEL`
//!   (e.g. `spmm-octet`) and exits 1 otherwise; implies `--algo auto`.
//! * `--trace PATH` records the whole sweep through the engine's
//!   telemetry sink and writes a Chrome/Perfetto `trace.json`: engine
//!   spans (plan/tune/stage/run) on the engine track, one process per
//!   kernel launch with per-SM-scheduler issue/stall timelines. The
//!   document is round-tripped through a JSON parser before it is
//!   written, so a corrupt export fails the sweep rather than CI's
//!   downstream consumer.
//! * `--csv PATH` dumps one `KernelProfile` row per sweep entry
//!   (including the roofline columns) plus, when tracing, the sink's
//!   counter samples.
//! * `--report` prints the engine's aggregated [`Report`] table (cache
//!   hit ratio, tuner launches, per-algo run/profile/cycle totals).
//! * `--threads N` pins the simulator's worker-thread count (the same
//!   knob as `VECSPARSE_THREADS`; `1` forces the sequential path). All
//!   simulated counters and the JSON document are bit-identical at any
//!   thread count — only `wall_ms` varies.
//! * `--memoize` enables certified launch memoization: kernels whose
//!   wave equivalence `vecsparse-certify` proves are simulated once per
//!   structural signature, and every later profile of the class is
//!   answered from the cached profile. Profiles are bit-identical to the
//!   unmemoized sweep (the JSON differs only in `wall_ms` and the added
//!   `memo` block); with `--trace` no launch consults the memo.
//!   `VECSPARSE_AUDIT=n` re-times every n-th simulated wave with the
//!   reference tick scheduler and asserts it matches the event scheduler
//!   bit for bit; under `--memoize` it also declines every n-th launch
//!   hit, re-simulates it and asserts the profile matches the cached one.
//! * `--repeat R` profiles each kernel row R times — the Fig. 17-style
//!   repeated-shape workload where memoization pays: the first profile
//!   simulates, the other R−1 are memo hits. The reported row is the
//!   last profile (all R are identical).
//! * `--backend simulated|native` selects the functional execution
//!   backend (default `simulated`). `native` runs functional launches
//!   through each kernel's native CPU lowering; profiles always
//!   simulate, and each row's `out_digest` hashes one functional run's
//!   output bits under the selected backend. The JSON document is
//!   bit-identical apart from `wall_ms` and the recorded `backend`
//!   label — the CI backend gate diffs exactly that, with the digest
//!   column carrying the cross-backend identity claim.

use std::sync::Arc;
use std::time::Instant;
use vecsparse::engine::Context;
use vecsparse::SpmmAlgo;
use vecsparse_bench::sweep_json::{self, SweepMeta, SweepRow};
use vecsparse_bench::{device, flag, Table};
use vecsparse_formats::{gen, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{Backend, KernelProfile};
use vecsparse_telemetry::{csv as telemetry_csv, perfetto, TraceSink, DEFAULT_CAPACITY};

/// FNV-1a over an output matrix's raw fp16 bits. Feeds the JSON rows'
/// `out_digest`, which the CI backend gate diffs across `--backend`
/// runs — so it must be bit-exact, never an approximate norm.
fn out_digest(out: &vecsparse_formats::DenseMatrix<f16>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in out.data() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    if let Some(t) = flag::<usize>(&args, "--threads") {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .expect("configure worker threads");
    }
    let m: usize = flag(&args, "--m").unwrap_or(2048);
    let k: usize = flag(&args, "--k").unwrap_or(1024);
    let n: usize = flag(&args, "--n").unwrap_or(256);
    let v: usize = flag(&args, "--v").unwrap_or(4);
    let sparsity: f64 = flag(&args, "--sparsity").unwrap_or(0.9);
    let seed: u64 = flag(&args, "--seed").unwrap_or(42);
    let expect_auto: Option<String> = flag(&args, "--expect-auto");
    let json_path: Option<String> = flag(&args, "--json");
    let trace_path: Option<String> = flag(&args, "--trace");
    let csv_path: Option<String> = flag(&args, "--csv");
    let want_report = has("--report");
    let memoize = has("--memoize");
    let repeat = flag::<usize>(&args, "--repeat").unwrap_or(1).max(1);
    let backend: Backend = flag(&args, "--backend").unwrap_or_default();
    let want_auto =
        expect_auto.is_some() || flag::<String>(&args, "--algo").as_deref() == Some("auto");
    assert!(matches!(v, 1 | 2 | 4 | 8), "--v must be 1, 2, 4, or 8");
    assert!(m.is_multiple_of(v), "--m must be a multiple of --v");
    assert!((0.0..1.0).contains(&sparsity), "--sparsity in [0,1)");

    let gpu = device();
    let gpu_config_hash = gpu.config_hash();

    let sink = if trace_path.is_some() {
        Arc::new(TraceSink::enabled(DEFAULT_CAPACITY))
    } else {
        Arc::new(TraceSink::disabled())
    };
    let mut builder = Context::builder()
        .gpu(gpu)
        .backend(backend)
        .telemetry(Arc::clone(&sink));
    if memoize {
        builder = builder.memoization();
    }
    let ctx = builder.build();
    let a = gen::random_vector_sparse::<f16>(m, k, v, sparsity, seed);
    let b = gen::random_dense::<f16>(k, n, Layout::RowMajor, seed + 1);

    println!(
        "SpMM sweep: A {m}x{k} ({:.1}% sparse, {v}x1 vectors), B {k}x{n}",
        100.0 * a.pattern().sparsity()
    );
    println!();
    let mut algos = vec![
        SpmmAlgo::Dense,
        SpmmAlgo::FpuSubwarp,
        SpmmAlgo::BlockedEll,
        SpmmAlgo::Octet,
    ];
    if want_auto {
        algos.push(SpmmAlgo::Auto);
    }
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut row_wall_ms: Vec<f64> = Vec::new();
    let mut auto_choice: Option<String> = None;
    for algo in algos {
        // Times the plan and its profile loop only, never the functional
        // run below: `wall_ms` measures profiling.
        let t0 = Instant::now(); // lint: hash-ok — wall_ms reporting only, stripped in diffs
        let plan = ctx.plan_spmm(&a, n, algo);
        let mut profile = plan.profile(&b);
        for _ in 1..repeat {
            profile = plan.profile(&b);
        }
        row_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let label = if algo == SpmmAlgo::Auto {
            auto_choice = Some(plan.algo().label().to_string());
            format!("auto -> {}", plan.algo().label())
        } else {
            algo.label().to_string()
        };
        // One functional run under the selected backend: the digest is
        // the only row field the backend can influence, which is exactly
        // what the CI backend gate's document diff pins.
        let out = plan.run(&b);
        rows.push(SweepRow {
            label,
            tuned: (algo == SpmmAlgo::Auto).then(|| plan.algo().label().to_string()),
            scheme: Some(plan.scheme_label()),
            out_digest: out_digest(&out),
            profile,
        });
    }
    let sweep_wall_ms: f64 = row_wall_ms.iter().sum();
    let threads = rayon::current_num_threads();

    let dense_cycles = rows[0].profile.cycles;
    let mut t = Table::new(vec![
        "kernel",
        "cycles",
        "speedup",
        "grid",
        "static instrs",
        "L2->L1 MB",
        "no-instr",
        "sectors/req",
        "flop/byte",
        "wall ms",
    ]);
    for (row, wall) in rows.iter().zip(&row_wall_ms) {
        let p = &row.profile;
        let roof = p.roofline();
        t.row(vec![
            row.label.clone(),
            format!("{:.0}", p.cycles),
            format!("{:.2}x", dense_cycles / p.cycles),
            p.grid.to_string(),
            p.static_instrs.to_string(),
            format!("{:.1}", p.bytes_l2_to_l1() as f64 / 1e6),
            format!("{:.1}%", p.stalls.pct_no_instruction()),
            format!("{:.2}", p.l1.sectors_per_request()),
            format!("{:.2}", roof.intensity()),
            format!("{wall:.2}"),
        ]);
    }
    t.print();
    println!("({threads} worker threads, {repeat} profile(s)/row, {sweep_wall_ms:.1} ms total)");
    if let Some(ms) = ctx.memo_stats() {
        println!(
            "memoizer: launch {} hit / {} miss, {} audits, hit rate {:.1}%",
            ms.launch_hits,
            ms.launch_misses,
            ms.audits,
            100.0 * ms.hit_rate()
        );
    }

    if let Some(path) = json_path {
        let meta = SweepMeta {
            gpu_config_hash,
            m,
            k,
            n,
            v,
            sparsity,
            auto: auto_choice.clone(),
            threads,
            wall_ms: sweep_wall_ms,
            repeat,
            memo: ctx.memo_stats(),
            backend,
        };
        let out = sweep_json::render(&meta, &rows, &ctx.report().certificates);
        // The document must parse: CI consumes it with a JSON parser.
        serde_json::from_str(&out).expect("--json output must be valid JSON");
        std::fs::write(&path, out).expect("write --json output");
        println!("wrote {path}");
    }

    if let Some(path) = csv_path {
        let mut out = String::new();
        out.push_str(KernelProfile::csv_header());
        out.push('\n');
        for row in &rows {
            out.push_str(&row.profile.csv_row());
            out.push('\n');
        }
        if sink.is_enabled() {
            out.push('\n');
            out.push_str(&telemetry_csv::export_counters(&sink));
        }
        std::fs::write(&path, out).expect("write --csv output");
        println!("wrote {path}");
    }

    if let Some(path) = trace_path {
        let doc = perfetto::export_json(&sink);
        // Round-trip before writing: a malformed trace should fail here,
        // not in the Perfetto UI or the CI assertion step.
        let parsed = serde_json::from_str(&doc).expect("trace export must be valid JSON");
        let events = parsed["traceEvents"]
            .as_array()
            .expect("traceEvents must be an array");
        assert!(
            !events.is_empty(),
            "traced sweep produced no events; is the sink enabled?"
        );
        std::fs::write(&path, &doc).expect("write --trace output");
        println!(
            "wrote {path} ({} events, {} dropped)",
            sink.events().len(),
            sink.dropped()
        );
    }

    if want_report {
        println!();
        print!("{}", ctx.report().render());
    }

    if let Some(want) = expect_auto {
        let got = auto_choice.expect("--expect-auto implies --algo auto");
        if got != want {
            eprintln!("expected the tuner to pick {want}, but it picked {got}");
            std::process::exit(1);
        }
        println!("tuner picked {got} (as expected)");
    }
}
