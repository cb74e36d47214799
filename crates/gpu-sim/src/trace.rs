//! Deterministic trace recording keyed by *simulated* time.
//!
//! The simulator reports where estimated kernel time goes (paper Figures
//! 9–12) only as end-of-run aggregate [`Counters`]. This module adds the
//! instrumentation seam that turns those aggregates into a timeline: a
//! [`TraceSink`] that kernels, the pipeline model, the host worker pool,
//! and the serving loop record *spans* into.
//!
//! Two invariants (mirroring the fault seam in [`crate::fault`]):
//!
//! 1. **Off the golden path.** Instrumented code takes `Option<&TraceSink>`
//!    and every recording site is behind `if let Some(..)`. With `None` the
//!    code path is the pre-existing one — outputs, counters, and golden
//!    digests are bit-identical. With a sink attached, tracing only *reads*
//!    simulation state; counters and outputs still never change.
//! 2. **Simulated time only.** Timestamps are derived from deterministic
//!    simulation quantities (counter-based attribution weights scaled to
//!    the launch's estimated time, discrete-event cycles, the serving
//!    clock, or ordinal task indices for the host pool) — never from
//!    wall-clock. The same run produces byte-identical traces at any host
//!    `--jobs` count.
//!
//! The `spinfer-obs` crate consumes the recorded [`Trace`] (Chrome-trace
//! export, per-phase breakdowns, metrics registry).

use crate::counters::Counters;
use std::sync::Mutex;

/// A trace track: Chrome-trace `(pid, tid)` pair. Processes group related
/// tracks (one per subsystem), threads are the individual timelines.
pub type TrackId = (u32, u32);

/// Well-known process ids used by the in-tree instrumentation.
pub mod pids {
    /// SpInfer SpMM kernel: one compute + one cp.async track per block row.
    pub const KERNEL: u32 = 1;
    /// Host worker pool (ordinal task clock).
    pub const HOST_POOL: u32 = 3;
    /// Serving simulation (iteration-level continuous batching).
    pub const SERVING: u32 = 4;
    /// Sweep grid points (serial point clock).
    pub const SWEEP: u32 = 5;
    /// Fleet cluster simulation: one track per replica (cluster clock).
    pub const CLUSTER: u32 = 6;
}

/// Event flavour, mapping onto Chrome-trace phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Complete span (`ph:"X"`): `ts_us`..`ts_us + dur_us`.
    Span,
    /// Instantaneous marker (`ph:"i"`).
    Instant,
    /// Flow start (`ph:"s"`), paired by `flow_id` with a [`EventKind::FlowEnd`].
    FlowStart,
    /// Flow end (`ph:"f"`).
    FlowEnd,
}

/// One recorded trace event. Names are `&'static str` so recording never
/// allocates per event in kernel hot paths.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Timeline this event belongs to.
    pub track: TrackId,
    /// Event name (the phase, for spans).
    pub name: &'static str,
    /// Category; exporters and breakdowns filter on it. Kernel compute
    /// phases use `"phase"`, cp.async in-flight windows `"cp.async"`.
    pub cat: &'static str,
    /// Start timestamp in simulated microseconds (or the track's
    /// documented logical clock).
    pub ts_us: f64,
    /// Duration in the same unit (spans only; 0 otherwise).
    pub dur_us: f64,
    /// Event flavour.
    pub kind: EventKind,
    /// Pairing id for flow events; 0 otherwise.
    pub flow_id: u64,
    /// Optional single argument (kept scalar so events stay `Copy`-cheap).
    pub arg: Option<(&'static str, f64)>,
}

impl TraceEvent {
    /// Convenience constructor for a complete span.
    pub fn span(
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        TraceEvent {
            track,
            name,
            cat,
            ts_us,
            dur_us,
            kind: EventKind::Span,
            flow_id: 0,
            arg: None,
        }
    }

    /// Attaches a single numeric argument (shown in the trace viewer).
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: f64) -> Self {
        self.arg = Some((key, value));
        self
    }

    /// Convenience constructor for an instant marker.
    pub fn instant(track: TrackId, name: &'static str, cat: &'static str, ts_us: f64) -> Self {
        TraceEvent {
            track,
            name,
            cat,
            ts_us,
            dur_us: 0.0,
            kind: EventKind::Instant,
            flow_id: 0,
            arg: None,
        }
    }

    /// Convenience constructor for one end of a flow arrow.
    pub fn flow(
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        ts_us: f64,
        start: bool,
        flow_id: u64,
    ) -> Self {
        TraceEvent {
            track,
            name,
            cat,
            ts_us,
            dur_us: 0.0,
            kind: if start {
                EventKind::FlowStart
            } else {
                EventKind::FlowEnd
            },
            flow_id,
            arg: None,
        }
    }
}

/// A finished, canonically ordered trace: what [`TraceSink::finish`]
/// returns and what exporters consume.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Events in canonical order (stable sort by track, then timestamp).
    pub events: Vec<TraceEvent>,
    /// Human-readable track names, `(track, process name, thread name)`.
    pub tracks: Vec<(TrackId, String, String)>,
}

impl Trace {
    /// Total duration of all events named `name` (spans only).
    pub fn phase_total_us(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == name)
            .map(|e| e.dur_us)
            .sum()
    }

    /// Sorted list of distinct span names in a category.
    pub fn phase_names(&self, cat: &str) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.cat == cat)
            .map(|e| e.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

#[derive(Default)]
struct SinkInner {
    events: Vec<TraceEvent>,
    tracks: Vec<(TrackId, String, String)>,
}

/// Thread-safe span collector. Recording sites batch events locally (a
/// plain `Vec` owned by the worker task) and flush once via [`extend`],
/// so the mutex is taken once per task, not per event, and each track's
/// events land contiguously regardless of thread interleaving.
///
/// [`extend`]: TraceSink::extend
#[derive(Default)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Records a single event.
    pub fn record(&self, ev: TraceEvent) {
        self.inner
            .lock()
            .expect("trace sink poisoned")
            .events
            .push(ev);
    }

    /// Flushes a batch of events recorded locally by one task.
    pub fn extend(&self, evs: Vec<TraceEvent>) {
        if evs.is_empty() {
            return;
        }
        self.inner
            .lock()
            .expect("trace sink poisoned")
            .events
            .extend(evs);
    }

    /// Registers a human-readable name for a track. Last write wins; the
    /// canonical trace deduplicates by track id.
    pub fn name_track(&self, track: TrackId, process: &str, thread: &str) {
        self.inner
            .lock()
            .expect("trace sink poisoned")
            .tracks
            .push((track, process.to_string(), thread.to_string()));
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace sink poisoned").events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the sink into a canonically ordered [`Trace`]: events are
    /// stable-sorted by `(pid, tid, ts_us)` so the result is independent
    /// of which host thread flushed first (each track is written by
    /// exactly one task, and per-track order is preserved by the stable
    /// sort). Track names are deduplicated by id (last registration wins)
    /// and sorted by id.
    pub fn finish(&self) -> Trace {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        let mut events = std::mem::take(&mut inner.events);
        let mut tracks = std::mem::take(&mut inner.tracks);
        drop(inner);
        events.sort_by(|a, b| a.track.cmp(&b.track).then(a.ts_us.total_cmp(&b.ts_us)));
        tracks.reverse(); // last registration wins after dedup-by-first-seen
        let mut seen = std::collections::BTreeSet::new();
        tracks.retain(|(id, _, _)| seen.insert(*id));
        tracks.sort_by_key(|(id, _, _)| *id);
        Trace { events, tracks }
    }
}

/// Deterministic *attribution weight* of a counter set, in abstract issue
/// cycles. This is **not** the timing model ([`crate::timing`] stays the
/// single source of truth for estimated kernel time): the weight's only
/// job is to split a launch's total simulated time across phases in
/// proportion to the events each phase generated, so only the ratios
/// matter. Constants are fixed so traces are stable across runs and
/// `--jobs` counts.
pub fn attribution_weight(c: &Counters) -> u64 {
    c.dram_read_bytes / 16
        + c.dram_write_bytes / 16
        + 4 * c.global_load_insts
        + 4 * c.ldgsts_insts
        + 2 * (c.smem_load_transactions + c.smem_store_transactions)
        + 2 * c.smem_bank_conflicts
        + 4 * c.ldsm_insts
        + 8 * c.mma_insts
        + c.cuda_int_insts
        + c.cuda_fp_insts
        + c.shfl_insts
        + 40 * c.dependent_gathers
        + 20 * c.barriers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_orders_by_track_then_time() {
        let sink = TraceSink::new();
        // Flush two tracks out of order, as racing workers would.
        sink.extend(vec![
            TraceEvent::span((1, 2), "b", "phase", 0.0, 1.0),
            TraceEvent::span((1, 2), "b2", "phase", 1.0, 1.0),
        ]);
        sink.extend(vec![TraceEvent::span((1, 1), "a", "phase", 5.0, 1.0)]);
        let t = sink.finish();
        let names: Vec<_> = t.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b", "b2"]);
    }

    #[test]
    fn finish_is_insensitive_to_flush_interleaving() {
        let make = |order: &[usize]| {
            let sink = TraceSink::new();
            let batches = [
                vec![
                    TraceEvent::span((1, 0), "t0.a", "phase", 0.0, 1.0),
                    TraceEvent::span((1, 0), "t0.b", "phase", 1.0, 1.0),
                ],
                vec![TraceEvent::span((1, 1), "t1.a", "phase", 0.5, 1.0)],
                vec![TraceEvent::span((1, 2), "t2.a", "phase", 0.25, 1.0)],
            ];
            for &i in order {
                sink.extend(batches[i].clone());
            }
            sink.finish()
        };
        assert_eq!(make(&[0, 1, 2]), make(&[2, 1, 0]));
        assert_eq!(make(&[0, 1, 2]), make(&[1, 2, 0]));
    }

    #[test]
    fn track_names_dedup_last_wins() {
        let sink = TraceSink::new();
        sink.name_track((1, 0), "kernel", "old");
        sink.name_track((1, 0), "kernel", "new");
        sink.name_track((1, 1), "kernel", "other");
        let t = sink.finish();
        assert_eq!(
            t.tracks,
            vec![
                ((1, 0), "kernel".to_string(), "new".to_string()),
                ((1, 1), "kernel".to_string(), "other".to_string()),
            ]
        );
    }

    #[test]
    fn attribution_weight_is_additive_over_merge() {
        let mut a = Counters::new();
        a.dram_read_bytes = 4096;
        a.mma_insts = 7;
        a.barriers = 3;
        let mut b = Counters::new();
        b.smem_load_transactions = 11;
        b.cuda_int_insts = 100;
        b.dram_read_bytes = 1024;
        let (wa, wb) = (attribution_weight(&a), attribution_weight(&b));
        let mut m = a.clone();
        m.merge(&b);
        // Byte divisors stay exact because traffic arrives in 32B sectors.
        assert_eq!(attribution_weight(&m), wa + wb);
    }

    #[test]
    fn phase_total_sums_spans_only() {
        let sink = TraceSink::new();
        sink.record(TraceEvent::span((1, 0), "mma", "phase", 0.0, 2.0));
        sink.record(TraceEvent::span((1, 0), "mma", "phase", 2.0, 3.0));
        sink.record(TraceEvent::instant((1, 0), "mma", "phase", 9.0));
        let t = sink.finish();
        assert_eq!(t.phase_total_us("mma"), 5.0);
        assert_eq!(t.phase_names("phase"), vec!["mma"]);
    }
}
