//! # Host-side parallel execution engine
//!
//! The simulator is a pure host program: every kernel "launch" is a
//! deterministic function of its inputs that produces numerical output
//! plus a [`Counters`](crate::counters::Counters) record. That makes
//! block-level fan-out across host cores safe *provided* the parallel
//! decomposition is exact:
//!
//! * **Counters** — every field of `Counters` is a `u64` event count
//!   and [`Counters::merge`](crate::counters::Counters::merge) is
//!   field-wise addition, which is commutative and associative.
//!   Sharding counts per worker and merging after the barrier
//!   therefore yields bit-identical totals regardless of schedule.
//! * **Numerics** — callers must partition floating-point work so each
//!   worker owns a disjoint output region (e.g. disjoint block rows of
//!   a workspace). Disjoint writes are plain copies; no cross-worker
//!   reduction order exists, so results are bit-identical to serial.
//!
//! Host parallelism here changes *wall-clock* time of the simulation
//! only. Simulated kernel time is a pure function of the merged
//! counters and launch geometry (see `docs/TIMING_MODEL.md`), so every
//! reported figure is identical at any job count.
//!
//! Job count resolution: [`set_jobs`] override → `SPINFER_JOBS`
//! environment variable → [`std::thread::available_parallelism`].

use crate::trace::{pids, TraceEvent, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide job override set by [`set_jobs`]; 0 means "no override".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Optional trace sink for pool-call/task-lifetime spans, plus the
    /// ordinal clock (next free tick). Thread-local on purpose: only
    /// pool calls *coordinated by the attaching thread* are recorded, so
    /// concurrent tests can't pollute each other's traces and nested
    /// pool calls issued from worker threads stay silent.
    static TASK_TRACE: std::cell::RefCell<(Option<Arc<TraceSink>>, u64)> =
        const { std::cell::RefCell::new((None, 0)) };
}

/// Attaches (or with `None` detaches) a [`TraceSink`] that records this
/// thread's worker-pool call and task-lifetime spans.
///
/// The pool has no simulated clock, so its spans use a deterministic
/// *ordinal* clock instead of wall-clock: each [`par_map`]-family call
/// claims a contiguous tick range and task `i` occupies `[t0+i, t0+i+1)`.
/// Spans are recorded by the coordinating thread *after* the pool joins,
/// in item-index order, so the stream is byte-identical at any job count
/// — wall-clock timing never leaks into a trace. Attaching resets the
/// ordinal clock, so a given program phase always lands at the same
/// ticks.
pub fn set_task_trace(sink: Option<Arc<TraceSink>>) {
    TASK_TRACE.with(|slot| *slot.borrow_mut() = (sink, 0));
}

/// Records one pool call (n tasks) into the attached sink, if any.
fn record_pool_call(label: &'static str, n: usize) {
    let sink = TASK_TRACE.with(|slot| {
        let mut slot = slot.borrow_mut();
        slot.0.clone().map(|sink| {
            let t0 = slot.1;
            slot.1 += n as u64 + 1;
            (sink, t0)
        })
    });
    let Some((sink, t0)) = sink else { return };
    sink.name_track((pids::HOST_POOL, 0), "host pool", "pool calls (ordinal)");
    sink.name_track((pids::HOST_POOL, 1), "host pool", "tasks (ordinal)");
    let mut evs = Vec::with_capacity(n + 1);
    let mut call = TraceEvent::span((pids::HOST_POOL, 0), label, "host", t0 as f64, n as f64);
    call.arg = Some(("tasks", n as f64));
    evs.push(call);
    for i in 0..n {
        evs.push(TraceEvent::span(
            (pids::HOST_POOL, 1),
            "task",
            "host",
            (t0 + i as u64) as f64,
            1.0,
        ));
    }
    sink.extend(evs);
}

/// Forces the worker count for subsequent parallel calls.
///
/// `set_jobs(1)` forces serial execution; `set_jobs(0)` clears the
/// override, restoring `SPINFER_JOBS` / hardware detection. The
/// override is process-global: tests that flip it must keep the
/// flip-and-restore inside a single `#[test]` body (the default test
/// harness runs tests on concurrent threads).
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Resolves the worker count: [`set_jobs`] override, else the
/// `SPINFER_JOBS` environment variable, else the number of available
/// hardware threads (at least 1).
pub fn num_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(s) = std::env::var("SPINFER_JOBS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order.
///
/// Workers claim items dynamically (an atomic cursor over the shared
/// list), so uneven per-item cost load-balances; results are stitched
/// back by item index, so the output is identical to
/// `items.into_iter().map(f).collect()` for any job count.
pub fn par_map<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// [`par_map`] that records no pool-call trace span.
///
/// For host-side *setup* work (matrix generation, format encode,
/// checksum sweeps) that may run near an attached task trace: kernel
/// traces pin pool-call/task spans as part of their job-count-invariance
/// contract, and setup fan-outs — whose item counts depend on data
/// geometry, not launch geometry — must not perturb them.
pub fn par_map_untraced<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    par_map_inner(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker scratch state.
///
/// Each worker calls `init` once and threads the resulting state
/// through every item it processes — the hook for reusable scratch
/// buffers and per-worker [`Counters`](crate::counters::Counters)
/// shards. The serial path (one job or ≤1 item) uses a single state,
/// which is indistinguishable because worker state must never affect
/// results (only counters recorded into shards that are merged
/// commutatively).
pub fn par_map_with<I, S, R, F, N>(items: Vec<I>, init: N, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> R + Sync,
{
    record_pool_call("par_map", items.len());
    par_map_inner(items, init, f)
}

/// Shared pool body of [`par_map_with`] (traced) and
/// [`par_map_untraced`]: dynamic claiming, order-restoring, serial
/// short-circuit at one job.
fn par_map_inner<I, S, R, F, N>(items: Vec<I>, init: N, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> R + Sync,
{
    let jobs = num_jobs().min(items.len().max(1));
    if jobs <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }

    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut collected: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Hold the queue lock only for the claim, not
                        // for the (arbitrarily long) item execution.
                        let next = queue.lock().unwrap().next();
                        match next {
                            Some((idx, item)) => local.push((idx, f(&mut state, item))),
                            None => break local,
                        }
                    }
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    collected.sort_unstable_by_key(|(idx, _)| *idx);
    debug_assert_eq!(collected.len(), n);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map`] with per-item panic isolation.
///
/// Each item runs under `catch_unwind`: a panicking item yields
/// `Err(message)` in its slot while every other item still completes —
/// one poisoned input cannot take the whole pool down. Output order and
/// values are otherwise identical to [`par_map`]. The standard panic
/// hook is suppressed for the duration of the call so isolated panics
/// don't spray backtraces over the caller's output; because the hook is
/// process-global, concurrent *uncaught* panics in other threads would
/// also be quieted for that window — acceptable for the sweep harness,
/// which owns the process.
pub fn par_map_catch<I, R, F>(items: Vec<I>, f: F) -> Vec<Result<R, String>>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync + std::panic::RefUnwindSafe,
{
    let quiet = QuietPanics::install();
    let out = par_map(items, |item| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    });
    drop(quiet);
    out
}

/// Extracts the human-readable message from a panic payload
/// (`&str` / `String` payloads; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII guard that silences the global panic hook, restoring the
/// default on drop. Nested installs refcount so concurrent
/// [`par_map_catch`] calls compose.
struct QuietPanics;

static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);

impl QuietPanics {
    fn install() -> Self {
        if QUIET_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
            std::panic::set_hook(Box::new(|_| {}));
        }
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if QUIET_DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _ = std::panic::take_hook();
        }
    }
}

/// Partitions `0..len` into contiguous ranges and maps `f` over them on
/// the worker pool, returning per-range results in range order.
///
/// The `par_chunks` counterpart to [`par_map`]: several ranges are cut
/// per worker so uneven per-range cost load-balances. Chunk geometry
/// depends only on `len` and the job count, never on the data; callers
/// that compute each output element entirely within one range (e.g.
/// row bands of a matrix product) get bit-identical results at any job
/// count because no floating-point reduction crosses a range boundary.
pub fn par_chunks<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    par_map(chunk_ranges(len, num_jobs()), f)
}

/// Cuts `0..len` into contiguous ranges, about four per job. Public so
/// two-pass encoders can materialize one banding and reuse it across
/// both passes (count, then fill disjoint output slices cut at the same
/// band boundaries).
pub fn chunk_ranges(len: usize, jobs: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(jobs.max(1) * 4).max(1);
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn task_trace_is_ordinal_and_job_count_invariant() {
        use crate::trace::EventKind;
        let run = |jobs: usize| {
            set_jobs(jobs);
            let sink = Arc::new(TraceSink::new());
            set_task_trace(Some(sink.clone()));
            let _ = par_map((0..10usize).collect(), |i| i * i);
            let _ = par_map((0..3usize).collect(), |i| i + 1);
            set_task_trace(None);
            set_jobs(0);
            sink.finish()
        };
        let serial = run(1);
        let pooled = run(8);
        assert_eq!(
            serial, pooled,
            "ordinal pool spans must not depend on job count"
        );
        // Two calls: (10 tasks + 1 call span) + (3 tasks + 1 call span).
        let spans = serial.events.iter().filter(|e| e.kind == EventKind::Span);
        assert_eq!(spans.count(), 15);
        // Second call starts after the first call's claimed tick range.
        let calls: Vec<_> = serial
            .events
            .iter()
            .filter(|e| e.track == (pids::HOST_POOL, 0))
            .collect();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].ts_us, 0.0);
        assert_eq!(calls[1].ts_us, 11.0);
    }

    #[test]
    fn detached_task_trace_records_nothing() {
        let sink = Arc::new(TraceSink::new());
        set_task_trace(Some(sink.clone()));
        set_task_trace(None);
        let _ = par_map((0..4usize).collect(), |i| i);
        assert!(sink.is_empty());
    }

    #[test]
    fn par_map_untraced_is_silent_even_when_attached() {
        let sink = Arc::new(TraceSink::new());
        set_task_trace(Some(sink.clone()));
        let out = par_map_untraced((0..9usize).collect(), |i| i * 2);
        set_task_trace(None);
        assert_eq!(out, (0..9usize).map(|i| i * 2).collect::<Vec<_>>());
        assert!(
            sink.is_empty(),
            "setup fan-out must not emit pool-call spans"
        );
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let out = par_map((0..257usize).collect(), |i| i * i);
        assert_eq!(out, (0..257usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<usize>::new(), |i| i), Vec::<usize>::new());
        assert_eq!(par_map(vec![41usize], |i| i + 1), vec![42]);
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        // Each worker's scratch buffer is initialised once; results
        // must not depend on which worker processed which item.
        let out = par_map_with(
            (0..64u64).collect(),
            || vec![0u8; 16],
            |scratch, i| {
                scratch[0] = scratch[0].wrapping_add(1); // state mutates freely
                i * 3
            },
        );
        assert_eq!(out, (0..64u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_exactly_once() {
        for len in [0usize, 1, 7, 64, 1000] {
            let ranges = par_chunks(len, |r| r);
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn chunk_ranges_are_contiguous_and_balanced() {
        let ranges = chunk_ranges(100, 4);
        assert!(ranges.len() >= 4, "want several chunks per job");
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 100);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn counter_shards_merge_to_serial_total() {
        // Serial reference: one Counters accumulating every item.
        let mut serial = Counters::default();
        for i in 0..100u64 {
            serial.mma_insts += i;
            serial.dram_read_bytes += 2 * i;
        }
        // Sharded: each item records into its worker's shard.
        let shards = par_map((0..100u64).collect(), |i| {
            let mut shard = Counters::default();
            shard.mma_insts += i;
            shard.dram_read_bytes += 2 * i;
            shard
        });
        let mut total = Counters::default();
        for shard in &shards {
            total.merge(shard);
        }
        assert_eq!(total, serial);
    }

    #[test]
    fn job_counts_agree_bitwise() {
        // Flip-and-restore stays inside one #[test]: the override is
        // process-global and the harness runs tests concurrently.
        set_jobs(1);
        let serial = par_map((0..500usize).collect(), |i| (i as f32).sin());
        set_jobs(4);
        let parallel = par_map((0..500usize).collect(), |i| (i as f32).sin());
        set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_catch_isolates_poisoned_items() {
        let out = par_map_catch((0..16usize).collect(), |i| {
            if i == 5 || i == 11 {
                panic!("poisoned item {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) if i != 5 && i != 11 => assert_eq!(*v, i * 2),
                Err(msg) if i == 5 || i == 11 => {
                    assert_eq!(msg, &format!("poisoned item {i}"));
                }
                other => panic!("slot {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn panic_message_handles_payload_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let odd: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(odd.as_ref()), "non-string panic payload");
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        set_jobs(0); // harmless even if racing: default is multi-job
        par_map((0..8usize).collect(), |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }
}
