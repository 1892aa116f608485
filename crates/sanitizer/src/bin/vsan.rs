//! `vsan` — run the sanitizer over the kernel registry.
//!
//! ```text
//! vsan [--kernel NAME[,NAME...]] [--m M] [--n N] [--k K] [--v V]
//!      [--sparsity S] [--seed SEED] [--max-ctas C] [--no-values]
//!      [--deny-warnings] [--list]
//! vsan precision [SHARED FLAGS] [--max-f16-chain D] [--skip-fixtures]
//! vsan waveprove [SHARED FLAGS] [--skip-fixtures]
//! vsan shardprove [SHARED FLAGS] [--skip-fixtures]
//! ```
//!
//! Every subcommand takes the shared flags `--kernel`, `--m`, `--n`,
//! `--k`, `--v`, `--sparsity`, `--seed`, `--list` and `--help`. With no
//! `--kernel`, every registered kernel is checked. The exit code is 1 if
//! any deny-level finding exists (or any warning, under
//! `--deny-warnings`), 0 otherwise — CI-friendly. An unknown flag, or a
//! missing or unparsable flag value, exits 2 naming the flag.
//!
//! `vsan precision` runs the two-sided numerical checker instead: the
//! static abstract interpreter over each kernel's program (lints +
//! certificate), fp64 shadow execution, and the soundness cross-check
//! `observed ≤ bound` — plus the broken-kernel fixtures, each of which
//! must trigger exactly its own lint. Any lint on a registry kernel,
//! fixture mismatch, or soundness violation exits 1.
//!
//! `vsan waveprove` runs the wave-equivalence certifier: every registry
//! kernel is certified (value independence, trace reproducibility,
//! def-use well-formedness over sampled CTAs), and the wave fixtures —
//! one deliberately broken kernel per proof obligation — must each fail
//! with exactly their own failure. A registry kernel that cannot be
//! certified, or a fixture that does not fail as expected, exits 1.
//!
//! `vsan shardprove` runs the memory-footprint certifier: every registry
//! kernel must publish a shard layout and discharge the three shard
//! obligations (write/write disjointness, slice containment, read
//! invariance), and the footprint fixtures — one kernel per lint plus a
//! clean control — must each produce exactly their expected verdict. A
//! registry kernel certified `NotShardable`, or a fixture mismatch,
//! exits 1.

use std::process::ExitCode;
use std::str::FromStr;

use vecsparse::registry::{self, KernelId, Shape, ALL_KERNELS};
use vecsparse_certify::{shard, wave, Fixture};
use vecsparse_gpu_sim::{GpuConfig, KernelSpec, MemPool, Mode};
use vecsparse_precision::{all_fixtures, analyze, check_soundness, shadow_run};
use vecsparse_sanitizer::{sanitize, SanitizeOptions};

const USAGE: &str = "usage: vsan [--kernel NAME[,NAME...]] [--m M] [--n N] [--k K] \
     [--v V] [--sparsity S] [--seed SEED] [--max-ctas C] [--no-values] \
     [--deny-warnings] [--list]";

const PREC_USAGE: &str = "usage: vsan precision [--kernel NAME[,NAME...]] [--m M] [--n N] \
     [--k K] [--v V] [--sparsity S] [--seed SEED] [--max-f16-chain D] \
     [--skip-fixtures] [--list]";

const WAVE_USAGE: &str = "usage: vsan waveprove [--kernel NAME[,NAME...]] [--m M] [--n N] \
     [--k K] [--v V] [--sparsity S] [--seed SEED] [--skip-fixtures] [--list]";

const SHARD_USAGE: &str = "usage: vsan shardprove [--kernel NAME[,NAME...]] [--m M] [--n N] \
     [--k K] [--v V] [--sparsity S] [--seed SEED] [--skip-fixtures] [--list]";

/// The remaining command-line words of one subcommand.
struct Flags {
    words: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// The value following `flag`, parsed.
    fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(word) = self.words.next() else {
            eprintln!("missing value for {flag}");
            self.usage()
        };
        word.parse().unwrap_or_else(|_| {
            eprintln!("invalid value {word:?} for {flag}");
            self.usage()
        })
    }
}

/// The flags every subcommand shares.
struct Common {
    kernels: Vec<KernelId>,
    shape: Shape,
}

/// Parse one subcommand's flags. The shared ones fill [`Common`]; `own`
/// handles each other flag (reading its value from the [`Flags`]) and
/// returns false for a flag it does not know.
fn parse(
    words: Vec<String>,
    usage: &'static str,
    mut own: impl FnMut(&str, &mut Flags) -> bool,
) -> Common {
    let mut flags = Flags {
        words: words.into_iter(),
        usage,
    };
    let mut common = Common {
        kernels: ALL_KERNELS.to_vec(),
        shape: Shape::default(),
    };
    while let Some(flag) = flags.words.next() {
        let shape = &mut common.shape;
        match flag.as_str() {
            "--list" => {
                for k in ALL_KERNELS {
                    println!("{}", k.label());
                }
                std::process::exit(0);
            }
            "--kernel" => {
                common.kernels = flags
                    .value::<String>("--kernel")
                    .split(',')
                    .map(|s| {
                        KernelId::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown kernel {s:?}; try --list");
                            flags.usage()
                        })
                    })
                    .collect();
            }
            "--m" => shape.m = flags.value("--m"),
            "--n" => shape.n = flags.value("--n"),
            "--k" => shape.k = flags.value("--k"),
            "--v" => shape.v = flags.value("--v"),
            "--sparsity" => shape.sparsity = flags.value("--sparsity"),
            "--seed" => shape.seed = flags.value("--seed"),
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                if !own(other, &mut flags) {
                    eprintln!("unknown flag {other:?}");
                    flags.usage();
                }
            }
        }
    }
    common
}

fn exit_code(failed: bool) -> ExitCode {
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Print one `ok`/`FAIL` line per `(name, expected, outcome)` fixture;
/// true when every fixture verified.
fn fixtures_pass<N: std::fmt::Display>(
    heading: &str,
    fixtures: impl IntoIterator<Item = (N, &'static str, Result<(), String>)>,
) -> bool {
    println!("== {heading}");
    let mut pass = true;
    for (name, expected, outcome) in fixtures {
        match outcome {
            Ok(()) => println!("   {name:<26} ok [{expected}]"),
            Err(e) => {
                println!("   {name:<26} FAIL: {e}");
                pass = false;
            }
        }
    }
    pass
}

fn shape_heading(heading: &str, s: &Shape) {
    println!(
        "== {heading} (m={} n={} k={} v={} sparsity={})",
        s.m, s.n, s.k, s.v, s.sparsity
    );
}

fn run_precision(words: Vec<String>) -> ExitCode {
    let mut max_f16_chain: Option<u32> = None;
    let mut skip_fixtures = false;
    let args = parse(words, PREC_USAGE, |flag, flags| {
        match flag {
            "--max-f16-chain" => max_f16_chain = Some(flags.value(flag)),
            "--skip-fixtures" => skip_fixtures = true,
            _ => return false,
        }
        true
    });
    let mut failed = !skip_fixtures
        && !fixtures_pass(
            "precision fixtures (one broken kernel per lint)",
            all_fixtures()
                .iter()
                .map(|fx| (fx.name(), fx.expected_lint().name(), fx.verify())),
        );

    shape_heading("precision certificates", &args.shape);
    for id in &args.kernels {
        let mut model = registry::model_for(*id, &args.shape);
        if let Some(d) = max_f16_chain {
            model.max_f16_chain = d;
        }
        let (analysis, report) =
            registry::with_kernel(*id, &args.shape, Mode::Functional, |mem, kern| {
                let prog = kern.program().expect("registry kernels expose a Program");
                (analyze(id.label(), prog, &model), shadow_run(mem, kern))
            });
        print!("{}", analysis.render());
        if !analysis.is_clean() {
            failed = true;
        }
        if report.has_observations() {
            println!(
                "  shadow: observed max err {:.4e} over {} stored values ({} sites)",
                report.observed_max_err,
                report.samples,
                report.obs.len()
            );
        } else {
            println!("  shadow: no twinned stores (covered by the static side only)");
        }
        if let Err(e) = check_soundness(&analysis.certificate, &report) {
            eprintln!("{e}");
            failed = true;
        }
    }
    exit_code(failed)
}

/// One certificate family as `vsan` drives it: its fixtures, then every
/// selected registry kernel staged in `mode` and certified by `cert`,
/// which returns the rendered certificate and whether it passed.
struct Certifier {
    usage: &'static str,
    fixtures_heading: &'static str,
    fixtures: fn() -> Vec<Fixture>,
    heading: &'static str,
    mode: Mode,
    cert: fn(&mut MemPool, &dyn KernelSpec) -> (String, bool),
}

fn run_certifier(words: Vec<String>, c: &Certifier) -> ExitCode {
    let mut skip_fixtures = false;
    let args = parse(words, c.usage, |flag, _| match flag {
        "--skip-fixtures" => {
            skip_fixtures = true;
            true
        }
        _ => false,
    });
    let mut failed = !skip_fixtures
        && !fixtures_pass(
            c.fixtures_heading,
            (c.fixtures)()
                .iter()
                .map(|fx| (fx.name(), fx.expected_verdict(), fx.verify())),
        );

    shape_heading(c.heading, &args.shape);
    for id in &args.kernels {
        let (render, pass) = registry::with_kernel(*id, &args.shape, c.mode, c.cert);
        print!("{render}");
        failed |= !pass;
    }
    exit_code(failed)
}

const WAVEPROVE: Certifier = Certifier {
    usage: WAVE_USAGE,
    fixtures_heading: "waveprove fixtures (one broken kernel per proof obligation)",
    fixtures: wave::all_fixtures,
    heading: "wave-equivalence certificates",
    mode: Mode::Performance,
    cert: |mem, kernel| {
        let cert = wave::certify(mem, kernel);
        (cert.render(), cert.is_provable())
    },
};

const SHARDPROVE: Certifier = Certifier {
    usage: SHARD_USAGE,
    fixtures_heading: "shardprove fixtures (one kernel per lint, plus the clean control)",
    fixtures: shard::all_fixtures,
    heading: "memory-footprint certificates",
    mode: Mode::Functional,
    cert: |mem, kernel| {
        let cert = shard::analyze(mem, kernel);
        (cert.render(), cert.is_shardable())
    },
};

fn run_sanitizer(words: Vec<String>) -> ExitCode {
    let mut opts = SanitizeOptions::default();
    let mut deny_warnings = false;
    let args = parse(words, USAGE, |flag, flags| {
        match flag {
            "--max-ctas" => opts.max_ctas = flags.value(flag),
            "--no-values" => opts.check_values = false,
            "--deny-warnings" => deny_warnings = true,
            _ => return false,
        }
        true
    });
    let cfg = GpuConfig::default();
    let mut failed = false;
    for id in &args.kernels {
        let report = registry::with_kernel(*id, &args.shape, Mode::Functional, |mem, kernel| {
            sanitize(&cfg, mem, kernel, &opts)
        });
        print!("{}", report.render());
        if !report.is_clean() || (deny_warnings && report.warn_count() > 0) {
            failed = true;
        }
    }
    exit_code(failed)
}

fn main() -> ExitCode {
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    let run: fn(Vec<String>) -> ExitCode = match words.first().map(String::as_str) {
        Some("precision") => run_precision,
        Some("waveprove") => |words| run_certifier(words, &WAVEPROVE),
        Some("shardprove") => |words| run_certifier(words, &SHARDPROVE),
        _ => return run_sanitizer(words),
    };
    words.remove(0);
    run(words)
}
