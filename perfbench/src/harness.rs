//! The workload-independent part of the benchmark: the closed-loop
//! driver, host-clock span recording, statistics, and the result line.

use std::cell::RefCell;
use std::time::Instant;

use gpu_sim::trace::{Trace, TraceEvent, TraceSink};
use spinfer_obs::Registry;

/// Chrome-trace process id of the benchmark's host-clock spans, clear of
/// the simulator's own `gpu_sim::trace::pids`.
pub const PID_BENCH: u32 = 100;

/// Fewest set-ups per timed run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 2;

/// Most set-ups per timed run.
pub const MAX_SETUPS: usize = 5;

/// Host seconds a timed run spends on set-ups after its first, within
/// `MIN_SETUPS..=MAX_SETUPS`: a cheap set-up is repeated more often.
pub const SETUP_BUDGET_S: f64 = 6.0;

/// Fewest timed ops in a run, whatever `--seconds` asks for.
pub const MIN_OPS: usize = 3;

/// Host seconds `reference_kernel` takes (median of its runs) on an
/// otherwise idle 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest.
/// `ReferenceClock` scales timings to read as seconds on that host.
pub const REFERENCE_S: f64 = 0.027;

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host CPU time (or host memory): noisy, compared within bounds.
    Host,
    /// Simulated GPU time, or a count the simulation produces:
    /// bit-identical across runs and host job counts.
    Sim,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Clock the value is read on.
    pub clock: Clock,
}

impl Metric {
    /// A host-clock metric.
    pub fn host(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Host,
        }
    }

    /// A simulated-clock metric or simulation count.
    pub fn sim(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            clock: Clock::Sim,
        }
    }
}

/// Seconds of CPU time this process has used (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Every host timing reads this clock, not the wall clock. With one
/// worker the process does nothing but the measured work, so the two
/// agree on a quiet machine; on a shared host, time the CPU spends on
/// other tenants is not charged to the op.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

struct Recording {
    t0: f64,
    registry: Registry,
    sink: TraceSink,
}

/// Benchmark-side span recorder. `off()` only runs the closure, so the
/// timed runs pay nothing for it; `on()` times each call into a metrics
/// registry histogram and a host-clock Chrome-trace span.
pub struct Tracer {
    rec: Option<RefCell<Recording>>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer { rec: None }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        let sink = TraceSink::new();
        sink.name_track((PID_BENCH, 0), "perfbench (host CPU clock)", "calls");
        Tracer {
            rec: Some(RefCell::new(Recording {
                t0: process_cpu_s(),
                registry: Registry::new(),
                sink,
            })),
        }
    }

    /// Runs `f`, recording its host duration under `name` when on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.rec else {
            return f();
        };
        let start = process_cpu_s();
        let (out, dur) = timed(f);
        let mut rec = rec.borrow_mut();
        rec.registry.histogram_record(name, dur);
        rec.sink.record(TraceEvent::span(
            (PID_BENCH, 0),
            name,
            "bench",
            (start - rec.t0) * 1e6,
            dur * 1e6,
        ));
        out
    }

    /// Adds already-recorded simulator events (simulated clock) to the
    /// trace.
    pub fn extend(&self, events: Vec<TraceEvent>, tracks: &[(gpu_sim::trace::TrackId, String, String)]) {
        if let Some(rec) = &self.rec {
            let rec = rec.borrow();
            for (id, process, thread) in tracks {
                rec.sink.name_track(*id, process, thread);
            }
            rec.sink.extend(events);
        }
    }

    /// Mean recorded seconds per call of span `name` (0 if never called).
    pub fn mean_s(&self, name: &str) -> f64 {
        self.rec
            .as_ref()
            .and_then(|r| r.borrow().registry.histogram(name).map(|h| h.mean()))
            .unwrap_or(0.0)
    }

    /// Drains the recorded spans into a trace.
    pub fn finish(&self) -> Option<Trace> {
        self.rec.as_ref().map(|r| r.borrow().sink.finish())
    }
}

/// A benchmark workload: inputs built from a seed, one op repeated in a
/// closed loop, and checks on its output.
pub trait Workload {
    /// Generated and encoded inputs.
    type State;
    /// What one op returns.
    type Output;

    /// Builds the op's inputs from `seed` (generation and encoding).
    fn setup(&self, seed: u64, tr: &Tracer) -> Self::State;
    /// One op. Every op on the same state does identical work.
    fn op(&self, st: &Self::State, tr: &Tracer) -> Result<Self::Output, String>;
    /// Digest of everything the op outputs; repeats exactly across ops.
    fn digest(&self, out: &Self::Output) -> u64;
    /// Checks an output against a reference computed independently.
    fn check(&self, st: &Self::State, out: &Self::Output) -> Result<(), String>;
    /// `sim_step_us`, `weight_bytes_ratio` and `sim_goodput_rps`.
    fn sim_metrics(&self, st: &Self::State, out: &Self::Output) -> Vec<Metric>;
    /// Per-layer metrics beyond the tracer's spans; may run extra
    /// traced calls.
    fn layer_metrics(&self, st: &Self::State, out: &Self::Output, tr: &Tracer) -> Vec<Metric>;
}

/// Outcome of one benchmark process.
#[derive(Debug)]
pub struct Outcome {
    /// Reference check passed, every op matched, nothing failed.
    pub correct: bool,
    /// Ops attempted (timed ops plus warm-ups).
    pub attempted: u64,
    /// Ops that returned an error or a digest other than the first
    /// warm-up's.
    pub failed: u64,
    /// Metrics in the order they were produced.
    pub metrics: Vec<Metric>,
    /// Problems found, for stderr.
    pub notes: Vec<String>,
    /// The traced run's Chrome trace, validated.
    pub trace_json: Option<String>,
}

/// Number of timed ops for a run of `seconds` whose warm-up op took
/// `warm_s`: fixed before timing starts, never counted inside a time
/// window.
pub fn op_count(seconds: f64, warm_s: f64) -> usize {
    ((seconds / warm_s.max(1e-3)).round() as usize).max(MIN_OPS)
}

/// Makes the allocator keep the memory the process frees, so every op
/// after the warm-up reuses pages the warm-up already touched. Without
/// this, glibc hands each large buffer back to the kernel on free, every
/// op pays fresh page faults, and its time depends on where the kernel
/// places the new pages; both vary from run to run. Other allocators are
/// left as they are.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only changes allocator tunables; it is called
        // before the process allocates anything large.
        let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
        if !ok {
            eprintln!("perfbench: mallopt refused; freed memory goes back to the kernel");
        }
    }
}

/// A fixed host-speed probe, about 25 ms: a float loop over 16 KiB and
/// a sort of 1 MiB of integers, both cache-resident. It calls no library
/// code, so no change to the repository moves it; only the host's speed
/// does.
pub fn reference_kernel() -> f32 {
    let mut small = [0.5f32; 1 << 12];
    let mut acc = 0.0f32;
    for r in 0..2000 {
        for (i, v) in small.iter_mut().enumerate() {
            *v = (*v * 1.000_001 + (i ^ r) as f32 * 1e-7).fract();
            acc += *v;
        }
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys: Vec<u32> = (0..1 << 18)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 32) as u32
        })
        .collect();
    keys.sort_unstable();
    std::hint::black_box(acc + keys[keys.len() / 2] as f32)
}

/// Host timing at reference speed. A shared host runs the same code
/// slower for minutes at a time, and CPU time slows with it, so each
/// timed closure is bracketed by runs of `reference_kernel` and its
/// seconds are scaled by `REFERENCE_S` over the mean of the two.
/// Consecutive closures share the run between them.
struct ReferenceClock {
    /// Every `reference_kernel` time taken, in order.
    probes: Vec<f64>,
}

impl ReferenceClock {
    /// A clock with one fresh probe.
    fn new() -> Self {
        ReferenceClock {
            probes: vec![timed(reference_kernel).1],
        }
    }

    /// Runs `f`, returning its result, its host seconds, and those
    /// seconds at reference speed.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = *self.probes.last().expect("a probe is taken at creation");
        let (out, s) = timed(f);
        let after = timed(reference_kernel).1;
        self.probes.push(after);
        (out, s, s * REFERENCE_S / ((before + after) / 2.0))
    }
}

/// Runs `f`, returning its result and the host CPU seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = process_cpu_s();
    let r = f();
    (r, process_cpu_s() - t)
}

/// Tracks ops attempted/failed against the first warm-up's digest.
struct Ledger {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            digest: None,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn record<W: Workload>(&mut self, w: &W, what: &str, out: &Result<W::Output, String>) {
        self.attempted += 1;
        match out {
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("{what}: {e}"));
            }
            Ok(o) => {
                let d = w.digest(o);
                match self.digest {
                    None => self.digest = Some(d),
                    Some(d0) if d0 != d => {
                        self.failed += 1;
                        self.notes
                            .push(format!("{what}: digest {d:016x} != warm-up {d0:016x}"));
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Runs a workload's timed process: set-ups (each ending with an
/// untimed warm-up op), with the timed closed loop after the first, and
/// returns every end-to-end metric except `peak_rss_mib`.
pub fn run_timed<W: Workload>(w: &W, seed: u64, seconds: f64) -> Outcome {
    let off = Tracer::off();
    let mut ledger = Ledger::new();
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut reps = MIN_SETUPS;
    let mut check_ok = false;
    let mut metrics = Vec::new();
    let mut clock = ReferenceClock::new();
    let mut raw_setups = Vec::with_capacity(MAX_SETUPS);
    while setups.len() < reps {
        let ((st, (warm, warm_s)), raw_s, setup_s) = clock.time(|| {
            let st = w.setup(seed, &off);
            let warm = timed(|| w.op(&st, &off));
            (st, warm)
        });
        setups.push(setup_s);
        raw_setups.push(raw_s);
        ledger.record(w, "warm-up", &warm);
        if setups.len() > 1 {
            continue;
        }
        reps = (1 + (SETUP_BUDGET_S / raw_s) as usize).clamp(MIN_SETUPS, MAX_SETUPS);
        let Ok(warm) = warm else { break };
        match w.check(&st, &warm) {
            Ok(()) => check_ok = true,
            Err(e) => ledger.notes.push(format!("reference check: {e}")),
        }
        let n = op_count(seconds, warm_s);
        let (mut raw, mut times) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let wall = Instant::now();
        clock = ReferenceClock::new();
        for i in 0..n {
            let (out, raw_s, s) = clock.time(|| w.op(&st, &off));
            raw.push(raw_s);
            times.push(s);
            ledger.record(w, &format!("op {i}"), &out);
        }
        eprintln!(
            "timed ops: {n} (warm-up {warm_s:.3} s), {:.3} s CPU in {:.3} s wall, set-ups: {reps}, jobs {}",
            raw.iter().sum::<f64>(),
            wall.elapsed().as_secs_f64(),
            gpu_sim::exec::num_jobs()
        );
        eprintln!(
            "raw op seconds: min {:.4} p50 {:.4} max {:.4}; reference kernel p50 {:.5} s",
            raw.iter().copied().fold(f64::INFINITY, f64::min),
            median(&raw),
            raw.iter().copied().fold(0.0, f64::max),
            median(&clock.probes),
        );
        metrics.push(Metric::host("op_p50_s", median(&times), "s"));
        metrics.extend(w.sim_metrics(&st, &warm));
    }
    eprintln!("raw setup seconds: p50 {:.4} over {}", median(&raw_setups), setups.len());
    metrics.insert(0, Metric::host("setup_s", median(&setups), "s"));
    Outcome {
        correct: check_ok && ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes: ledger.notes,
        trace_json: None,
    }
}

/// Runs a workload's traced process: one recorded set-up and warm-up,
/// then untraced and traced ops alternating (their median ratio is
/// `obs.trace_overhead`), then the workload's extra per-layer calls.
pub fn run_traced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Outcome {
    let off = Tracer::off();
    let tr = Tracer::on();
    let mut ledger = Ledger::new();
    let st = w.setup(seed, &tr);
    let (warm, warm_s) = timed(|| w.op(&st, &tr));
    ledger.record(w, "warm-up", &warm);
    let Ok(warm) = warm else {
        return Outcome {
            correct: false,
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: Vec::new(),
            notes: ledger.notes,
            trace_json: None,
        };
    };
    let mut check_ok = match w.check(&st, &warm) {
        Ok(()) => true,
        Err(e) => {
            ledger.notes.push(format!("reference check: {e}"));
            false
        }
    };
    let n = op_count(seconds / 2.0, warm_s);
    let (mut plain, mut traced) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let (out, s) = timed(|| w.op(&st, &off));
        plain.push(s);
        ledger.record(w, &format!("untraced op {i}"), &out);
        let (out, s) = timed(|| w.op(&st, &tr));
        traced.push(s);
        ledger.record(w, &format!("traced op {i}"), &out);
    }
    let mut metrics = w.layer_metrics(&st, &warm, &tr);
    metrics.push(Metric::host(
        "obs.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    ));
    let trace = tr.finish().expect("tracer is on");
    metrics.push(Metric::sim(
        "obs.trace_events",
        trace.events.len() as f64,
        "count",
    ));
    let json = spinfer_obs::export(&trace);
    match spinfer_obs::validate(&json) {
        Ok(stats) => eprintln!(
            "chrome trace: {} spans, {} flow pairs, valid",
            stats.spans, stats.flow_pairs
        ),
        Err(e) => {
            check_ok = false;
            ledger.notes.push(format!("chrome trace invalid: {e}"));
        }
    }
    // Host spans first, then each span name's mean over its calls.
    let mut names: Vec<&'static str> = trace
        .events
        .iter()
        .filter(|e| e.track.0 == PID_BENCH)
        .map(|e| e.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut spans: Vec<Metric> = names
        .into_iter()
        .map(|n| Metric::host(n, tr.mean_s(n), "s"))
        .collect();
    spans.append(&mut metrics);
    Outcome {
        correct: check_ok && ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: spans,
        notes: ledger.notes,
        trace_json: Some(json),
    }
}

/// The simulated side of one traced op at `seed`: its output digest and
/// every simulated-clock metric, end-to-end and per-layer, in a fixed
/// order. Deterministic runs must reproduce it bit for bit.
pub fn sim_fingerprint<W: Workload>(w: &W, seed: u64) -> (u64, Vec<Metric>) {
    let tr = Tracer::on();
    let st = w.setup(seed, &tr);
    let out = w.op(&st, &tr).expect("op succeeds");
    let mut metrics = w.sim_metrics(&st, &out);
    metrics.extend(w.layer_metrics(&st, &out, &tr));
    let events = tr.finish().expect("tracer is on").events.len();
    metrics.push(Metric::sim("obs.trace_events", events as f64, "count"));
    metrics.retain(|m| m.clock == Clock::Sim);
    (w.digest(&out), metrics)
}

/// Median (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over a byte stream, for output digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds the bit patterns of `f32`s.
    pub fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    /// Feeds the bit pattern of an `f64`.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Splits one workload seed into independent input seeds.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
