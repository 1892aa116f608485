//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md's experiment index) and
//! prints the same rows/series the paper reports, using simulated cycles
//! from `vecsparse-gpu-sim` in place of wall-clock on a V100.

#![forbid(unsafe_code)]

use vecsparse_dlmc::Benchmark;
use vecsparse_formats::{gen, DenseMatrix, Layout};
use vecsparse_fp16::f16;
use vecsparse_gpu_sim::{GpuConfig, KernelProfile};

pub mod sweep_json;
pub mod sweeps;

/// Geometric mean (the paper's aggregate across benchmarks, after Gale
/// et al.).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The simulated device every binary uses (full V100 shape).
pub fn device() -> GpuConfig {
    GpuConfig::default()
}

/// Parse a `--quick` flag: binaries shrink their grids for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value after flag `name` in `args`, parsed as `T`: `Ok(None)` when
/// the flag is absent, `Err` naming the flag when its value is missing or
/// does not parse.
pub fn try_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{name}: cannot parse {value:?}: {e}"))
}

/// [`try_flag`] for a binary's `main`: a missing or unparsable value
/// prints the error and exits with code 2.
pub fn flag<T>(args: &[String], name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    try_flag(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// A minimal fixed-width text table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w + 2))
                .collect::<String>()
                .trim_end()
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Build the dense RHS operand for an SpMM benchmark.
pub fn rhs_for(b: &Benchmark, n: usize) -> DenseMatrix<f16> {
    gen::random_dense::<f16>(b.cols(), n, Layout::RowMajor, 0xB0B ^ n as u64)
}

/// Speedup of `kernel` over `baseline` from two profiles.
pub fn speedup(kernel: &KernelProfile, baseline: &KernelProfile) -> f64 {
    baseline.cycles / kernel.cycles
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn flags_parse_or_name_the_bad_flag() {
        let args: Vec<String> = ["sweep", "--m", "512", "--n", "1e3x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(try_flag::<usize>(&args, "--m"), Ok(Some(512)));
        assert_eq!(try_flag::<usize>(&args, "--k"), Ok(None));
        let err = try_flag::<usize>(&args, "--n").expect_err("1e3x is not a usize");
        assert!(err.contains("--n"), "{err}");
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.print(); // Smoke: must not panic.
    }
}
