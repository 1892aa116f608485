//! Exact-count guard: counts that must repeat bit for bit between runs of
//! one build. A non-deterministic op list would make every timing
//! incomparable, so a mismatch fails the run.

use std::collections::BTreeMap;
use std::path::Path;

type Counts = BTreeMap<String, String>;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactCounts {
    fixed: Counts,
    seeded: Counts,
}

impl ExactCounts {
    /// A count the op list fixes whatever the seed (ops attempted, plans
    /// built): every run of one build and `--seconds` must agree on it, so
    /// the runs of one set compare with each other.
    pub fn fixed(&mut self, name: &str, value: impl ToString) {
        self.fixed.insert(name.to_string(), value.to_string());
    }

    /// A count that also depends on the seeded inputs (modeled cycles, memo
    /// wave classes): runs on the same seed must agree on it. Floats keep
    /// their full shortest round-trip digits.
    pub fn seeded(&mut self, name: &str, value: impl ToString) {
        self.seeded.insert(name.to_string(), value.to_string());
    }

    /// `fixed name=value` and `seeded name=value` lines, the
    /// seed-independent counts first.
    pub fn render(&self) -> String {
        let tagged = |tag: &str, c: &Counts| {
            render(c)
                .lines()
                .map(|l| format!("{tag} {l}\n"))
                .collect::<String>()
        };
        tagged("fixed", &self.fixed) + &tagged("seeded", &self.seeded)
    }
}

fn render(counts: &Counts) -> String {
    counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

fn parse(text: &str) -> Counts {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Names whose values differ (or exist on one side only), as `name: earlier vs now`.
fn diff(now: &Counts, earlier: &Counts) -> Vec<String> {
    let mut names: Vec<&String> = now.keys().chain(earlier.keys()).collect();
    names.sort();
    names.dedup();
    let show = |c: &Counts, k: &String| c.get(k).cloned().unwrap_or_else(|| "-".into());
    names
        .into_iter()
        .filter(|k| now.get(*k) != earlier.get(*k))
        .map(|k| format!("{k}: {} vs {}", show(earlier, k), show(now, k)))
        .collect()
}

/// Compare `counts` with the record an earlier run left at `path`, or
/// leave the record when this is the first such run.
fn check(path: &Path, counts: &Counts) -> Result<(), String> {
    match std::fs::read_to_string(path) {
        Ok(earlier) => {
            let diff = diff(counts, &parse(&earlier));
            if diff.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "exact counts differ from the earlier run recorded in {}: {}",
                    path.display(),
                    diff.join("; ")
                ))
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, render(counts)).map_err(|e| format!("{}: {e}", path.display()))
        }
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Check the seed-independent counts against every earlier run under
/// `key` in `dir`, and the seeded ones against earlier runs on `seed`.
pub fn guard(dir: &Path, key: &str, seed: u64, counts: &ExactCounts) -> Result<(), String> {
    check(&dir.join(format!("{key}.txt")), &counts.fixed)?;
    check(&dir.join(format!("{key}-seed{seed}.txt")), &counts.seeded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_keeps_float_digits() {
        let mut c = ExactCounts::default();
        c.fixed("ops", 120u64);
        c.seeded("sim_cycles", 12345.678901234567f64);
        assert_eq!(
            c.render(),
            "fixed ops=120\nseeded sim_cycles=12345.678901234567\n"
        );
        assert_eq!(parse(&render(&c.seeded)), c.seeded);
    }

    #[test]
    fn guard_compares_fixed_counts_across_seeds_and_seeded_within_one() {
        let dir = std::env::temp_dir().join(format!("perfbench-exact-{}", std::process::id()));
        let counts = |ops: u64, cycles: f64| {
            let mut c = ExactCounts::default();
            c.fixed("ops", ops);
            c.seeded("cycles", cycles);
            c
        };
        guard(&dir, "k", 1, &counts(10, 5.0)).expect("first run records");
        guard(&dir, "k", 1, &counts(10, 5.0)).expect("identical run passes");
        guard(&dir, "k", 2, &counts(10, 7.0)).expect("another seed may model other cycles");
        let err =
            guard(&dir, "k", 3, &counts(11, 7.0)).expect_err("ops must not depend on the seed");
        assert!(err.contains("ops: 10 vs 11"), "{err}");
        let err = guard(&dir, "k", 2, &counts(10, 8.0)).expect_err("same seed, other cycles");
        assert!(err.contains("cycles: 7 vs 8"), "{err}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
