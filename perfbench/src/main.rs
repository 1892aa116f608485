//! Fixed-work host benchmark of vecsparse.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-fresh|sim-memo|native-kernels|serve-native \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs a fixed, seeded op list through the public API
//! (`Context`, `SpmmPlan`/`SddmmPlan`, `Server`/`Client`), checks every
//! output, and prints one JSON line last. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same op list with every
//! other pass traced and reports per-layer metrics. See README.md.

mod check;
mod exact;
mod inputs;
mod kernels;
mod rss;
mod serve;
mod stats;
mod trace;

use check::Tally;
use exact::ExactCounts;
use inputs::ALGOS;
use std::time::Instant;
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SimFresh,
    SimMemo,
    NativeKernels,
    ServeNative,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimFresh,
        Workload::SimMemo,
        Workload::NativeKernels,
        Workload::ServeNative,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimFresh => "sim-fresh",
            Workload::SimMemo => "sim-memo",
            Workload::NativeKernels => "native-kernels",
            Workload::ServeNative => "serve-native",
        }
    }

    /// Why the workload is in the benchmark (also the `why` in BENCHMARK.json).
    fn why(self) -> &'static str {
        match self {
            Workload::SimFresh => "figure-reproduction sweep: every (cell, kernel) profile simulates honestly, so gpu-sim does nearly all the work",
            Workload::SimMemo => "repeated shapes on a memoizing context: every profile is a launch-level memo hit and the simulator does nothing",
            Workload::NativeKernels => "the only workload that runs every native lowering; no simulator or server runs",
            Workload::ServeNative => "closed-loop multi-tenant serving on the native backend: queueing, coalescing, per-batch planning and Auto picks",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// never calls reads 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &str)> = vec![
        ("dlmc.build_ms".into(), "ms"),
        ("engine.plan_ms".into(), "ms"),
    ];
    m.extend(ALGOS.map(|a| (format!("gpu_sim.profile_ms.{}", a.label()), "ms")));
    m.extend([
        ("gpu_sim.minstr_per_s".into(), "Minstr/s"),
        ("gpu_sim.sim_cycles".into(), "cycles-modeled"),
        ("gpu_sim.sim_instrs".into(), "instrs-modeled"),
        ("memo.first_profile_ms".into(), "ms"),
        ("memo.hit_us".into(), "us"),
        ("memo.launch_hit_ratio".into(), "ratio"),
        ("memo.wave_entries".into(), "count"),
    ]);
    m.extend(ALGOS.map(|a| (format!("native.gflops.{}", a.label()), "GFLOP/s")));
    m.extend([
        ("native.worst_vs_best".into(), "ratio"),
        ("serve.warmup_ms".into(), "ms"),
        ("serve.submit_us".into(), "us"),
        ("serve.mean_batch".into(), "jobs/batch"),
        ("serve.coalesced_frac".into(), "ratio"),
        ("serve.plan_cache_hit_ratio".into(), "ratio"),
        ("serve.plans_per_job".into(), "ratio"),
        ("serve.server_p50_ms".into(), "ms"),
        ("serve.worst_tenant_p99_ms".into(), "ms"),
        ("serve.rejected".into(), "count"),
        ("trace.overhead_frac".into(), "ratio"),
        ("trace.coverage".into(), "ratio"),
    ]);
    m
}

/// Shared state of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Main entry: the first setup is timed from here.
    pub start: Instant,
    pub tracer: Tracer,
    /// Wall time of every setup, in run order.
    pub setup_s: Vec<f64>,
}

impl Run {
    /// Whether pass `p` of the op list is traced: every other pass of a
    /// traced run, so traced and untraced passes interleave.
    pub fn traced_pass(&self, p: usize) -> bool {
        self.trace && p % 2 == 1
    }

    /// Passes of the fixed op list: `passes_per_s` was sized so one second
    /// of `--seconds` is about one second of ops on a 2-vCPU host. Traced
    /// runs need at least one traced and one untraced pass.
    pub fn passes(&self, passes_per_s: f64) -> usize {
        ((self.seconds as f64 * passes_per_s).round() as usize).max(2)
    }

    /// Split `passes` into segments, one per [`SETUP_EVERY_S`] seconds of
    /// `--seconds`. Each segment runs on a state set up from scratch, so
    /// the setups sample the host across the whole run as the ops do.
    pub fn segments(&self, passes: usize) -> Vec<std::ops::Range<usize>> {
        let k = ((self.seconds / SETUP_EVERY_S) as usize).clamp(1, passes);
        (0..k)
            .map(|s| s * passes / k..(s + 1) * passes / k)
            .collect()
    }

    /// Time one setup from scratch; drop the previous state first. The
    /// first is timed from main entry, so it also carries process start.
    pub fn setup<S>(
        &mut self,
        setup: impl FnOnce(&mut Run) -> Result<S, String>,
    ) -> Result<S, String> {
        self.tracer.set_enabled(self.trace);
        let t0 = if self.setup_s.is_empty() {
            self.start
        } else {
            Instant::now()
        };
        let state = setup(self)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.tracer.set_enabled(false);
        Ok(state)
    }
}

/// Seconds of `--seconds` per setup: a 20-s run sets up ten times.
const SETUP_EVERY_S: u64 = 2;

/// One op's wall latency, and whether its pass was traced.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub ms: f64,
    pub traced: bool,
}

/// Timed wall of a sequential workload's untraced ops: the sum of their
/// timed windows, so checks between ops are not charged.
pub fn sequential_timed_s(ops: &[OpSample]) -> f64 {
    ops.iter().filter(|o| !o.traced).map(|o| o.ms).sum::<f64>() / 1e3
}

/// What a workload hands back to be turned into metrics.
pub struct Outcome {
    /// Every op in list order, traced or not.
    pub ops: Vec<OpSample>,
    /// Wall time in which the untraced ops completed.
    pub timed_s: f64,
    pub tally: Tally,
    pub exact: ExactCounts,
    /// Per-layer metrics the workload measured (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Provenance lines specific to the workload.
    pub notes: Vec<(&'static str, String)>,
}

/// Median self time, in ms, of the spans named `name` that satisfy `keep`.
pub fn median_self_ms(run: &Run, name: &str, keep: impl Fn(&trace::Span) -> bool) -> f64 {
    let spans = run.tracer.spans();
    let own = trace::self_ns(spans);
    let samples: Vec<f64> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name && keep(s))
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    stats::median(&samples)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!(
        "--workload is required: one of {}",
        names.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| format!("{r} (packed)")),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// Identity of this build: the executable's size and modification time.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{mtime:x}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Ok(v) = std::env::var("VECSPARSE_AUDIT") {
        eprintln!(
            "perfbench: VECSPARSE_AUDIT={v:?} re-simulates memoized waves; unset it to benchmark"
        );
        std::process::exit(2);
    }
    match run(args, start) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the workload, print every metric, and return whether all checks held.
fn run(args: Args, start: Instant) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build_global()
        .map_err(|e| format!("pinning the pool: {e:?}"))?;
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        start,
        tracer: Tracer::new(start),
        setup_s: Vec::new(),
    };
    let w = args.workload;
    let out = match w {
        Workload::SimFresh => kernels::sim_fresh(&mut run)?,
        Workload::SimMemo => kernels::sim_memo(&mut run)?,
        Workload::NativeKernels => kernels::native_kernels(&mut run)?,
        Workload::ServeNative => serve::serve_native(&mut run)?,
    };
    let peak_rss_mb = rss::peak_rss_mb()?;

    // Provenance.
    let mut prov = vec![
        ("workload", json_str(w.name())),
        ("why", json_str(w.why())),
        ("seed", run.seed.to_string()),
        ("seconds", run.seconds.to_string()),
        ("trace", u8::from(run.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("pool_width", rayon::current_num_threads().to_string()),
        ("commit", json_str(&commit())),
        ("build", json_str(&build_id())),
        ("vecsparse_audit", json_str("unset")),
        (
            "clock",
            json_str("std::time::Instant in the benchmark; no program-reported wall time is read"),
        ),
    ];
    prov.extend(out.notes.iter().map(|(k, v)| (*k, json_str(v))));
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("provenance {{{}}}", prov.join(", "));

    // Exact counts must repeat across runs of this build.
    let mut correct = out.tally.failed() == 0;
    let key = format!("{}-s{}-{}", w.name(), run.seconds, build_id());
    print!(
        "{}",
        out.exact
            .render()
            .lines()
            .map(|l| format!("exact {l}\n"))
            .collect::<String>()
    );
    if let Err(e) = exact::guard(
        std::path::Path::new(".perfbench/exact"),
        &key,
        run.seed,
        &out.exact,
    ) {
        eprintln!("perfbench: {e}");
        correct = false;
    }

    let metrics: Vec<(String, &str, f64)> = if run.trace {
        layer_metrics(w, &run, &out)
    } else {
        end_to_end_metrics(w, &run, &out, peak_rss_mb)?
    };
    if run.trace {
        let path = std::path::PathBuf::from(format!(
            ".perfbench/spans-{}-seed{}.csv",
            w.name(),
            run.seed
        ));
        run.tracer
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans {} written to {}",
            run.tracer.spans().len(),
            path.display()
        );
    }
    let mut fields = Vec::new();
    for (name, unit, value) in &metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed(),
        fields.join(", ")
    );
    Ok(correct)
}

fn end_to_end_metrics(
    w: Workload,
    run: &Run,
    out: &Outcome,
    peak_rss_mb: f64,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let ms: Vec<f64> = out.ops.iter().filter(|o| !o.traced).map(|o| o.ms).collect();
    let pct = |q: f64| {
        stats::percentile(&ms, q).ok_or(format!(
            "{} op samples leave fewer than {} beyond p{}",
            ms.len(),
            stats::MIN_BEYOND,
            q * 100.0
        ))
    };
    let (p50, p90) = (pct(0.5)?, pct(0.9)?);
    let values = [
        stats::median(&run.setup_s),
        ms.len() as f64 / out.timed_s,
        p50.value,
        p90.value,
        peak_rss_mb,
        out.tally.ok_frac(),
    ];
    let setups: Vec<String> = run.setup_s.iter().map(|s| s.to_string()).collect();
    println!("setup_samples [{}]", setups.join(", "));
    let evidence = [
        format!(
            "median of {} setups spread through the run",
            run.setup_s.len()
        ),
        format!("{} ops in {:.3} s timed", ms.len(), out.timed_s),
        format!("n={} beyond={}", p50.n, p50.beyond),
        format!("n={} beyond={}", p90.n, p90.beyond),
        "VmHWM at exit".to_string(),
        format!("{} ok of {} attempted", out.tally.ok, out.tally.attempted),
    ];
    let mut metrics = Vec::new();
    for (((name, unit), value), note) in END_TO_END.iter().zip(values).zip(evidence) {
        println!("{}/{name} {value} {unit} ({note})", w.name());
        metrics.push((name.to_string(), *unit, value));
    }
    Ok(metrics)
}

fn layer_metrics(w: Workload, run: &Run, out: &Outcome) -> Vec<(String, &'static str, f64)> {
    let mean = |traced: bool| {
        let v: Vec<f64> = out
            .ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let mut measured = out.layers.clone();
    measured.push(("trace.overhead_frac".into(), mean(true) / mean(false) - 1.0));
    measured.push(("trace.coverage".into(), trace::coverage(run.tracer.spans())));
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let found = measured.iter().find(|(n, _)| *n == name);
            let value = found.map_or(0.0, |(_, v)| *v);
            let layer = name.split('.').next().unwrap_or_default();
            let note = if found.is_some() {
                ""
            } else {
                ", not called by this workload"
            };
            println!("{}/{name} {value} {unit} (layer {layer}{note})", w.name());
            (name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    /// BENCHMARK.json declares exactly the metrics and workloads this program reports.
    #[test]
    fn manifest_matches_the_program() {
        let doc = serde_json::from_str(&manifest()).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let list = &doc[key];
            (0..)
                .map_while(|i| {
                    let m = &list[i];
                    m["name"]
                        .as_str()
                        .map(|n| (n.to_string(), m["unit"].as_str().unwrap_or("").to_string()))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = (0..)
            .map_while(|i| doc["workloads"][i]["name"].as_str().map(str::to_string))
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for w in Workload::ALL {
            let i = ours.iter().position(|n| n == w.name()).expect("listed");
            assert_eq!(doc["workloads"][i]["why"].as_str(), Some(w.why()));
        }
    }

    /// Segments partition the passes in order, one per two requested
    /// seconds, and never leave a segment without a pass.
    #[test]
    fn segments_partition_the_passes() {
        let run = |seconds| Run {
            seed: 1,
            seconds,
            trace: false,
            start: Instant::now(),
            tracer: Tracer::new(Instant::now()),
            setup_s: Vec::new(),
        };
        for (seconds, passes, k) in [(20, 90, 10), (20, 4800, 10), (1, 2, 1), (20, 3, 3)] {
            let segs = run(seconds).segments(passes);
            assert_eq!(segs.len(), k, "{seconds} s, {passes} passes");
            assert_eq!(segs[0].start, 0);
            assert_eq!(segs[k - 1].end, passes);
            assert!(segs.windows(2).all(|w| w[0].end == w[1].start));
            assert!(segs.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload sim-memo --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SimMemo, 7, 3, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sim-fresh --trace 2",
            "--workload sim-fresh --seconds 0",
            "--workload sim-fresh --seed",
        ] {
            assert!(
                parse_args(&argv(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
