//! # vecsparse-telemetry
//!
//! Structured tracing and metrics for the vecsparse engine and the
//! simulated GPU. The central type is [`TraceSink`]: a bounded
//! ring-buffer of [`TraceEvent`]s with a virtual clock, monotonic
//! sequence ids, and a track namespace shared by every layer of the
//! stack (engine spans on one process track, each SM scheduler of each
//! kernel launch on its own thread track).
//!
//! The sink is designed to cost nothing when disabled: every recording
//! entry point checks a single relaxed [`AtomicBool`] and returns
//! before touching the ring. Code that wants an always-available sink
//! without threading an `Option` around can use [`TraceSink::noop`],
//! a `'static` disabled sink.
//!
//! ## Time model
//!
//! Events are stamped in *virtual ticks* (rendered as microseconds by
//! the Perfetto exporter). Host-side spans advance the clock by their
//! wall-clock microseconds; simulated kernel launches advance it by
//! their simulated cycle count. Because both layers move the same
//! clock forward, engine spans genuinely *contain* the per-scheduler
//! kernel timelines they caused — Perfetto renders the nesting without
//! any post-processing.
//!
//! ## Exporters
//!
//! * [`perfetto::export_json`] — Chrome/Perfetto `trace.json`
//!   (load in `ui.perfetto.dev` or `chrome://tracing`).
//! * [`csv::export_counters`] — flat CSV of counter events.

#![forbid(unsafe_code)]

pub mod csv;
pub mod perfetto;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Default ring capacity: enough for a full sweep with tracing on.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// The engine's process id on the timeline; kernel launches allocate
/// their own pids starting above this via [`TraceSink::next_pid`].
pub const ENGINE_PID: u32 = 0;

/// A (process, thread) pair identifying one horizontal timeline track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// Process id: [`ENGINE_PID`] for engine spans, a per-launch id
    /// from [`TraceSink::next_pid`] for kernels.
    pub pid: u32,
    /// Thread id within the process: 0 for the kernel-wide span,
    /// `1..=schedulers` for the per-scheduler tracks.
    pub tid: u32,
}

impl Track {
    /// The engine's own track (pid [`ENGINE_PID`], tid 0).
    pub const ENGINE: Track = Track {
        pid: ENGINE_PID,
        tid: 0,
    };
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (counts, pcs, sector totals).
    U64(u64),
    /// Floating-point payload (ratios, intensities).
    F64(f64),
    /// String payload (names, reasons).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// What shape of event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span `[ts, ts + dur)`.
    Span,
    /// A zero-duration instant at `ts`.
    Instant,
    /// A counter sample at `ts`; the values live in `args`.
    Counter,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Timeline track this event belongs to.
    pub track: Track,
    /// Event name (span label, counter name).
    pub name: String,
    /// Category, used for filtering in the Perfetto UI
    /// (e.g. `"engine"`, `"issue"`, `"stall"`, `"mem"`).
    pub cat: &'static str,
    /// Kind of event.
    pub kind: EventKind,
    /// Start time in virtual ticks.
    pub ts: u64,
    /// Duration in virtual ticks (0 for instants/counters).
    pub dur: u64,
    /// Monotonic sequence id, unique across the whole sink.
    pub seq: u64,
    /// Typed key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    /// Human names for process/thread tracks, recorded once.
    process_names: Vec<(u32, String)>,
    thread_names: Vec<(Track, String)>,
    dropped: u64,
}

/// A low-overhead, bounded event sink shared by the engine and the
/// simulated GPU.
///
/// Cloneless by design: share it behind an `Arc`. All methods take
/// `&self`; internal state is atomics plus one mutex around the ring.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    capacity: usize,
    clock: AtomicU64,
    seq: AtomicU64,
    pid: AtomicU64,
    ring: Mutex<Ring>,
}

/// A `'static` disabled sink for call sites that need a default.
static NOOP: TraceSink = TraceSink::disabled();

impl TraceSink {
    /// A disabled sink: every recording call returns immediately.
    /// `const`, so it can back a `static`.
    pub const fn disabled() -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(false),
            capacity: 0,
            clock: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            pid: AtomicU64::new(ENGINE_PID as u64 + 1),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                process_names: Vec::new(),
                thread_names: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// An enabled sink retaining at most `capacity` events (older
    /// events are evicted and counted in [`TraceSink::dropped`]).
    pub fn enabled(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
            ..TraceSink::disabled()
        }
    }

    /// The shared `'static` disabled sink.
    pub fn noop() -> &'static TraceSink {
        &NOOP
    }

    /// Whether recording is on. The single check every hot path makes.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Current virtual time in ticks.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advance the virtual clock to at least `to` ticks (monotonic:
    /// never moves backwards).
    pub fn advance_to(&self, to: u64) {
        self.clock.fetch_max(to, Ordering::Relaxed);
    }

    /// Next monotonic sequence id.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh process id for a kernel launch's track group.
    pub fn next_pid(&self) -> u32 {
        self.pid.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Total events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a human name for a process track (shown as the Perfetto
    /// process label). No-op when disabled.
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.lock().process_names.push((pid, name.into()));
    }

    /// Record a human name for a thread track. No-op when disabled.
    pub fn name_thread(&self, track: Track, name: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.lock().thread_names.push((track, name.into()));
    }

    /// Push a fully-formed event into the ring. No-op when disabled.
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.lock();
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Record a completed span `[ts, ts + dur)`.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &self,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            track,
            name: name.into(),
            cat,
            kind: EventKind::Span,
            ts,
            dur,
            seq: self.next_seq(),
            args,
        });
    }

    /// Record an instant event at `ts`.
    pub fn instant_at(
        &self,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            track,
            name: name.into(),
            cat,
            kind: EventKind::Instant,
            ts,
            dur: 0,
            seq: self.next_seq(),
            args,
        });
    }

    /// Record a counter sample at the current virtual time.
    pub fn counter(
        &self,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            track,
            name: name.into(),
            cat,
            kind: EventKind::Counter,
            ts: self.now(),
            dur: 0,
            seq: self.next_seq(),
            args,
        });
    }

    /// Open a host-side span on `track` starting at the current virtual
    /// time. When the returned guard drops (or [`SpanGuard::finish`] is
    /// called) the span is recorded and the virtual clock advanced by
    /// the measured wall-clock microseconds (at least one tick), so
    /// subsequent events nest *after* this span's children.
    ///
    /// Free when disabled: the guard neither names nor times anything,
    /// and records nothing on drop.
    pub fn span<'a>(&'a self, track: Track, name: &str, cat: &'static str) -> SpanGuard<'a> {
        SpanGuard {
            sink: self,
            open: self.is_enabled().then(|| OpenSpan {
                track,
                name: name.to_string(),
                cat,
                start_ticks: self.now(),
                started: Instant::now(), // lint: hash-ok — host span duration, never in simulated counters
                args: Vec::new(),
            }),
        }
    }

    /// Snapshot the ring's events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Snapshot of recorded process names `(pid, name)`.
    pub fn process_names(&self) -> Vec<(u32, String)> {
        self.lock().process_names.clone()
    }

    /// Snapshot of recorded thread names `(track, name)`.
    pub fn thread_names(&self) -> Vec<(Track, String)> {
        self.lock().thread_names.clone()
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::disabled()
    }
}

/// One span recorded into a [`TraceShard`], stamped in ticks *relative*
/// to the shard's (not yet known) base time. The process id is also
/// late-bound: the shard only knows thread ids within its track group.
#[derive(Debug, Clone)]
pub struct ShardEvent {
    /// Thread id within the owning process's track group.
    pub tid: u32,
    /// Span label.
    pub name: String,
    /// Perfetto category.
    pub cat: &'static str,
    /// Start time relative to the shard base.
    pub ts: u64,
    /// Duration in ticks.
    pub dur: u64,
    /// Typed key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A worker-local span buffer for one parallel shard of simulated work
/// (one SM wave). Parallel workers each fill their own shard — no
/// contention on the sink's ring, no cross-worker interleaving — and the
/// sequential merge phase calls [`TraceSink::merge_shard`] in canonical
/// shard order, so the exported trace is byte-identical at any worker
/// count.
#[derive(Debug, Default, Clone)]
pub struct TraceShard {
    events: Vec<ShardEvent>,
}

impl TraceShard {
    /// An empty shard.
    pub fn new() -> TraceShard {
        TraceShard::default()
    }

    /// Append a span at `ts` ticks past the (future) shard base.
    pub fn push_span(
        &mut self,
        tid: u32,
        name: impl Into<String>,
        cat: &'static str,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(ShardEvent {
            tid,
            name: name.into(),
            cat,
            ts,
            dur,
            args,
        });
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the shard holds no spans.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink {
    /// Rebase a shard's spans onto `(pid, base)` and record them in
    /// chronological order (stable sort by relative tick; ties keep the
    /// shard's recording order). Sequence ids are assigned here, at
    /// merge time — a shard filled by a pool worker carries none — so
    /// calling `merge_shard` in a canonical order yields an identical
    /// ring regardless of how many workers filled the shards.
    pub fn merge_shard(&self, pid: u32, base: u64, shard: TraceShard) {
        if !self.is_enabled() {
            return;
        }
        let mut events = shard.events;
        events.sort_by_key(|e| e.ts);
        for e in events {
            self.span_at(
                Track { pid, tid: e.tid },
                e.name,
                e.cat,
                base + e.ts,
                e.dur,
                e.args,
            );
        }
    }
}

/// RAII guard for an in-progress host-side span; see
/// [`TraceSink::span`].
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    /// The span being recorded; `None` on a disabled sink.
    open: Option<OpenSpan>,
}

/// What an open span records when it closes.
struct OpenSpan {
    track: Track,
    name: String,
    cat: &'static str,
    start_ticks: u64,
    started: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard<'_> {
    /// Attach an argument to the span before it closes.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(open) = &mut self.open {
            open.args.push((key, value.into()));
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let elapsed = (open.started.elapsed().as_micros() as u64).max(1);
        // Children (kernel launches inside this span) may already have
        // advanced the clock past start + elapsed; the span must cover
        // them, so end at whichever is later.
        self.sink.advance_to(open.start_ticks + elapsed);
        let end = self.sink.now().max(open.start_ticks + 1);
        self.sink.span_at(
            open.track,
            open.name,
            open.cat,
            open.start_ticks,
            end - open.start_ticks,
            open.args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.span_at(Track::ENGINE, "x", "engine", 0, 5, Vec::new());
        sink.instant_at(Track::ENGINE, "y", "engine", 1, Vec::new());
        sink.counter(Track::ENGINE, "z", "engine", vec![("v", 1u64.into())]);
        {
            let mut g = sink.span(Track::ENGINE, "guarded", "engine");
            g.arg("k", "v");
        }
        assert!(sink.events().is_empty());
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.now(), 0, "a disabled span leaves the clock alone");
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!TraceSink::noop().is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let sink = TraceSink::enabled(2);
        for i in 0..5u64 {
            sink.instant_at(Track::ENGINE, format!("e{i}"), "t", i, Vec::new());
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "e3");
        assert_eq!(ev[1].name, "e4");
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn seq_ids_are_monotonic() {
        let sink = TraceSink::enabled(16);
        sink.instant_at(Track::ENGINE, "a", "t", 0, Vec::new());
        sink.instant_at(Track::ENGINE, "b", "t", 0, Vec::new());
        let ev = sink.events();
        assert!(ev[0].seq < ev[1].seq);
    }

    #[test]
    fn span_guard_advances_clock_and_covers_children() {
        // A childless span lasts at least one tick of host time.
        let leaf = TraceSink::enabled(16);
        leaf.span(Track::ENGINE, "leaf", "engine").finish();
        let ev = leaf.events();
        assert!(ev.len() == 1 && ev[0].dur >= 1 && leaf.now() >= 1);

        let sink = TraceSink::enabled(16);
        let before = sink.now();
        {
            let mut g = sink.span(Track::ENGINE, "parent", "engine");
            g.arg("n", 3u64);
            // Simulate a kernel launch advancing the clock far ahead.
            sink.advance_to(before + 10_000);
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].name, "parent");
        assert_eq!(ev[0].ts, before);
        assert!(ev[0].ts + ev[0].dur >= before + 10_000, "span covers child");
        assert!(sink.now() >= before + 10_000);
    }

    #[test]
    fn merge_shard_orders_by_tick_and_rebases() {
        let build = || {
            let mut s = TraceShard::new();
            // Recorded out of chronological order, as a scheduler loop
            // does (a stall span for the next instruction may start
            // before the previously recorded issue span).
            s.push_span(1, "b", "issue", 7, 2, Vec::new());
            s.push_span(2, "a", "stall", 3, 4, Vec::new());
            s.push_span(1, "tie0", "issue", 3, 1, Vec::new());
            s
        };
        let sink = TraceSink::enabled(16);
        sink.merge_shard(9, 100, build());
        let ev = sink.events();
        assert_eq!(ev.len(), 3);
        // Chronological by rebased tick; the tie keeps recording order.
        assert_eq!(
            ev.iter().map(|e| (&*e.name, e.ts)).collect::<Vec<_>>(),
            vec![("a", 103), ("tie0", 103), ("b", 107)]
        );
        assert!(ev.iter().all(|e| e.track.pid == 9));
        assert!(ev[0].seq < ev[1].seq && ev[1].seq < ev[2].seq);

        // A second sink merged in the same order is event-identical.
        let sink2 = TraceSink::enabled(16);
        sink2.merge_shard(9, 100, build());
        let ev2 = sink2.events();
        for (x, y) in ev.iter().zip(&ev2) {
            assert_eq!(
                (x.name.clone(), x.ts, x.dur, x.track),
                (y.name.clone(), y.ts, y.dur, y.track)
            );
        }
    }

    #[test]
    fn merge_shard_into_disabled_sink_is_noop() {
        let sink = TraceSink::disabled();
        let mut shard = TraceShard::new();
        shard.push_span(1, "x", "issue", 0, 1, Vec::new());
        sink.merge_shard(1, 0, shard);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn pid_allocation_is_unique() {
        let sink = TraceSink::enabled(4);
        let a = sink.next_pid();
        let b = sink.next_pid();
        assert_ne!(a, b);
        assert!(a > ENGINE_PID && b > ENGINE_PID);
    }
}
