//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer; the program under test is never given a trace sink (a
//! traced `Context` runs batches sequentially, which would measure a
//! different schedule). Spans stay in memory and are written once at exit.

use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.plan`.
    pub name: &'static str,
    /// Workload item the call served (a pair or operand index), for grouping.
    pub tag: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Timed op the span belongs to; `None` during setup.
    pub op: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record a finished span (a no-op returning `None` while disabled).
    /// Record a parent before its children so they can name it.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: u32,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        op: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as CSV (`id,parent,op,name,tag,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,name,tag,start_ns,end_ns")?;
        let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{},{}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the parent interval first).
pub fn covered_ns((start, end): (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (s, e) in clipped {
        let s = s.max(frontier);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    covered
}

/// Per span: the time its direct children cover. Self time is the
/// span's duration minus this.
pub fn child_covered_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| covered_ns((s.start_ns, s.end_ns), kids))
        .collect()
}

/// Self time of every span, in nanoseconds.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_covered_ns(spans))
        .map(|(s, covered)| s.duration_ns() - covered)
        .collect()
}

/// Share of op wall time (root spans of timed ops) that layer spans cover.
pub fn coverage(spans: &[Span]) -> f64 {
    let covered = child_covered_ns(spans);
    let (mut hit, mut total) = (0u64, 0u64);
    for (s, c) in spans.iter().zip(covered) {
        if s.parent.is_none() && s.op.is_some() {
            hit += c;
            total += s.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            tag: 0,
            start_ns,
            end_ns,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // op [0,100) > plan [10,40) > stage [20,30); op > profile [50,90).
        let spans = [
            span("op", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("stage", 20, 30, Some(1)),
            span("profile", 50, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_siblings_count_once() {
        // Two concurrent children [10,60) and [40,80) cover [10,80).
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_ns(&spans)[0], 30);
        // A sibling nested inside another adds nothing; one outside the parent is clipped.
        assert_eq!(covered_ns((0, 100), &[(10, 60), (20, 30), (90, 150)]), 60);
        assert_eq!(covered_ns((0, 100), &[]), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let now = Instant::now();
        let mut t = Tracer::new(now);
        assert_eq!(t.record("op", 0, (now, now), None, Some(1)), None);
        t.set_enabled(true);
        assert_eq!(t.record("op", 0, (now, now), None, Some(1)), Some(0));
        assert_eq!(t.spans().len(), 1);
    }
}
