//! Parallel sweep runner: fans benchmark grid points across host cores
//! and encodes each weight matrix exactly once.
//!
//! Figure-scale experiments evaluate a grid of (shape, sparsity, N,
//! kernel) points. Every point is an independent pure function of its
//! inputs, so the grid fans out over `gpu_sim::exec`'s worker pool —
//! results come back in point order and simulated times are identical
//! at any job count (host parallelism only changes wall-clock; see
//! `docs/TIMING_MODEL.md`). The job count follows `gpu_sim::exec`
//! resolution: [`configure_jobs`] (`--jobs N`) → `SPINFER_JOBS` →
//! available hardware threads.
//!
//! Functional sweeps additionally share an [`EncodeCache`]: a (shape,
//! sparsity) point generates its weight matrix and encodes each
//! registered weight format at most once — keyed by
//! [`SpmmKernel::format_key`], so kernels sharing a format (Sputnik and
//! cuSPARSE both read CSR) share one encoding — reused across all batch
//! sizes and kernels that touch the point.
//!
//! [`SpmmKernel::format_key`]: spinfer_core::spmm::SpmmKernel::format_key

use gpu_sim::exec;
use gpu_sim::matrix::{random_dense, random_sparse, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_baselines::registry;
use spinfer_core::spmm::{DynEncoded, DynSpmmKernel, LaunchCtx, SpmmRun};
use spinfer_obs::json::{self, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Parses a `--jobs N` command-line override.
pub fn jobs_flag(args: &[String]) -> Option<usize> {
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

/// Applies a `--jobs N` override (if present) to the process-wide
/// worker count used by every parallel primitive.
pub fn configure_jobs(args: &[String]) {
    if let Some(n) = jobs_flag(args) {
        exec::set_jobs(n);
    }
}

/// One grid point of a kernel sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Weight rows.
    pub m: usize,
    /// Weight columns (reduction dimension).
    pub k: usize,
    /// Batch size (columns of X).
    pub n: usize,
    /// Weight sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Kernel under test.
    pub kernel: DynSpmmKernel,
}

impl SweepPoint {
    /// The point's analytic simulated time in microseconds
    /// ([`DynSpmmKernel::estimate_synthetic`]).
    pub fn time_us(&self, spec: &GpuSpec) -> f64 {
        self.kernel
            .estimate_synthetic(spec, self.m, self.k, self.n, self.sparsity)
            .time_us()
    }
}

/// Fans arbitrary grid points across host cores; results in point
/// order, identical to a serial map at any job count.
pub fn par_points<I, R, F>(points: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    exec::par_map(points, f)
}

/// Analytic sweep: simulated time in microseconds per point, in point
/// order.
pub fn run_grid(spec: &GpuSpec, points: Vec<SweepPoint>) -> Vec<f64> {
    par_points(points, |p| p.time_us(spec))
}

/// Cache key for a generated matrix: rows, cols, sparsity in basis
/// points (`None` for the dense generator), value-distribution tag +
/// parameter bits, seed.
type MatrixKey = (usize, usize, Option<u32>, u8, u32, u64);

/// Collapses a [`ValueDist`] to a hashable `(tag, param bits)` pair.
fn dist_key(dist: ValueDist) -> (u8, u32) {
    match dist {
        ValueDist::Uniform => (0, 0),
        ValueDist::Normal { std } => (1, std.to_bits()),
    }
}

/// Generate-once cache over matrix generation points.
///
/// Generation is deterministic in the key — `random_sparse` /
/// `random_dense` are pure functions of `(shape, sparsity, dist,
/// seed)` — so a cached matrix is byte-identical to a fresh one and
/// the cache only changes wall-clock. Counts hits/misses and the total
/// generation wall-clock for the setup metrics
/// ([`EncodeCache::record_metrics`]).
#[derive(Default)]
pub struct MatrixCache {
    entries: Mutex<HashMap<MatrixKey, Arc<DenseMatrix>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    gen_nanos: AtomicU64,
}

impl MatrixCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared sparse matrix for a generation point, built on first
    /// request. Sparsity is keyed at basis-point resolution.
    pub fn sparse(
        &self,
        m: usize,
        k: usize,
        sparsity: f64,
        dist: ValueDist,
        seed: u64,
    ) -> Arc<DenseMatrix> {
        let (tag, bits) = dist_key(dist);
        let key = (m, k, Some((sparsity * 1e4).round() as u32), tag, bits, seed);
        self.fetch(key, || random_sparse(m, k, sparsity, dist, seed))
    }

    /// The shared dense matrix for a generation point, built on first
    /// request.
    pub fn dense(&self, m: usize, k: usize, dist: ValueDist, seed: u64) -> Arc<DenseMatrix> {
        let (tag, bits) = dist_key(dist);
        let key = (m, k, None, tag, bits, seed);
        self.fetch(key, || random_dense(m, k, dist, seed))
    }

    fn fetch(&self, key: MatrixKey, generate: impl FnOnce() -> DenseMatrix) -> Arc<DenseMatrix> {
        match self.entries.lock().unwrap().entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                e.get().clone()
            }
            Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let m = Arc::new(generate());
                self.gen_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                v.insert(m).clone()
            }
        }
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that generated a matrix.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total generation wall-clock in seconds.
    pub fn generate_s(&self) -> f64 {
        self.gen_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A weight matrix with one lazily-built encoding slot per distinct
/// format key in the kernel registry, each behind a `OnceLock`
/// (concurrent first callers block rather than re-encode).
pub struct EncodedWeights {
    weight: Arc<DenseMatrix>,
    slots: Vec<(&'static str, OnceLock<DynEncoded>)>,
    encodes: Arc<AtomicU64>,
    encode_nanos: Arc<AtomicU64>,
}

impl EncodedWeights {
    fn new(
        weight: Arc<DenseMatrix>,
        encodes: Arc<AtomicU64>,
        encode_nanos: Arc<AtomicU64>,
    ) -> Self {
        let mut slots: Vec<(&'static str, OnceLock<DynEncoded>)> = Vec::new();
        for kernel in registry() {
            if !slots.iter().any(|(key, _)| *key == kernel.format_key()) {
                slots.push((kernel.format_key(), OnceLock::new()));
            }
        }
        EncodedWeights {
            weight,
            slots,
            encodes,
            encode_nanos,
        }
    }

    /// The dense weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The encoding `kernel` consumes, built on first use and shared by
    /// every kernel with the same format key (the returned handle is a
    /// cheap clone of the cached `Arc`).
    ///
    /// # Panics
    ///
    /// Panics if `kernel`'s format key is not in the registry roster.
    pub fn encoded_for(&self, kernel: &DynSpmmKernel) -> DynEncoded {
        let key = kernel.format_key();
        let slot = self
            .slots
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, slot)| slot)
            .unwrap_or_else(|| panic!("format '{key}' is not in the kernel registry"));
        slot.get_or_init(|| {
            self.encodes.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let enc = kernel.encode(&self.weight);
            self.encode_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            enc
        })
        .clone()
    }
}

/// Cache key: (m, k, sparsity in basis points, seed).
type PointKey = (usize, usize, u32, u64);

/// Encode-once cache over (m, k, sparsity, seed) weight points.
///
/// Owns a [`MatrixCache`] so the dense weight behind a point (and the
/// X operands of [`run_functional`]) generate at most once, and counts
/// encode builds + wall-clock for [`EncodeCache::record_metrics`].
#[derive(Default)]
pub struct EncodeCache {
    points: Mutex<HashMap<PointKey, Arc<EncodedWeights>>>,
    matrices: MatrixCache,
    encodes: Arc<AtomicU64>,
    encode_nanos: Arc<AtomicU64>,
}

// A sweep evaluator that panics mid-encode leaves the cache's mutexes
// poisoned and its `OnceLock` slots either unset or fully built — the
// states later points already handle — so sharing a cache across
// `catch_unwind`-isolated points (as the quant ablation does) cannot
// observe a broken invariant.
impl std::panic::RefUnwindSafe for EncodeCache {}

impl EncodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The generate-once matrix cache backing this encode cache.
    pub fn matrices(&self) -> &MatrixCache {
        &self.matrices
    }

    /// The shared weights for a (shape, sparsity) point, generating
    /// them on first request. Sparsity is keyed at basis-point
    /// resolution.
    pub fn point(&self, m: usize, k: usize, sparsity: f64, seed: u64) -> Arc<EncodedWeights> {
        let key = (m, k, (sparsity * 1e4).round() as u32, seed);
        match self.points.lock().unwrap().entry(key) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(v) => {
                let weight = self
                    .matrices
                    .sparse(m, k, sparsity, ValueDist::Uniform, seed);
                v.insert(Arc::new(EncodedWeights::new(
                    weight,
                    self.encodes.clone(),
                    self.encode_nanos.clone(),
                )))
                .clone()
            }
        }
    }

    /// Number of distinct weight points generated so far.
    pub fn len(&self) -> usize {
        self.points.lock().unwrap().len()
    }

    /// Whether no point has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encodings built so far (cache reuse does not count).
    pub fn encodes(&self) -> u64 {
        self.encodes.load(Ordering::Relaxed)
    }

    /// Total encode wall-clock in seconds.
    pub fn encode_s(&self) -> f64 {
        self.encode_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Records the setup-phase counters and wall-clocks into a metrics
    /// registry: `setup.generate_s` / `setup.encode_s` gauges (host
    /// wall-clock — setup contributes zero simulated microseconds, see
    /// `docs/TIMING_MODEL.md`) plus matrix-cache hit/miss and
    /// encode-build counters.
    pub fn record_metrics(&self, reg: &mut spinfer_obs::Registry) {
        reg.gauge_set("setup.generate_s", self.matrices.generate_s());
        reg.gauge_set("setup.encode_s", self.encode_s());
        reg.counter_add("setup.matrix_cache_hits", self.matrices.hits());
        reg.counter_add("setup.matrix_cache_misses", self.matrices.misses());
        reg.counter_add("setup.encodes", self.encodes());
    }
}

/// Functional execution of one grid point through the encode cache:
/// the point's kernel is launched against the point's shared encoding —
/// no per-kernel dispatch here.
///
/// The weight matrix is seeded by `seed` and X by a value derived from
/// `seed` and the point's batch size, so a grid point's result is a
/// pure function of `(point, seed)` — independent of sweep order and
/// job count.
pub fn run_functional(cache: &EncodeCache, spec: &GpuSpec, p: &SweepPoint, seed: u64) -> SpmmRun {
    let weights = cache.point(p.m, p.k, p.sparsity, seed);
    let x = cache.matrices().dense(
        p.k,
        p.n,
        ValueDist::Uniform,
        seed ^ (p.n as u64).rotate_left(32),
    );
    let kernel = &p.kernel;
    let enc = weights.encoded_for(kernel);
    match kernel.launch(&LaunchCtx::new(spec), &enc, &x) {
        Ok(run) => run,
        Err(e) => panic!(
            "{} launch failed outside a fault context: {e}",
            kernel.name()
        ),
    }
}

/// Outcome of one isolated sweep point (see [`run_grid_hardened_with`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SweepOutcome {
    /// Completed this process; simulated time in microseconds.
    Done(f64),
    /// Loaded from the checkpoint instead of re-running.
    Resumed(f64),
    /// The evaluator panicked; the sweep continued without the point.
    Panicked(String),
}

impl SweepOutcome {
    /// The point's simulated time, when it has one.
    pub fn time_us(&self) -> Option<f64> {
        match self {
            SweepOutcome::Done(t) | SweepOutcome::Resumed(t) => Some(*t),
            SweepOutcome::Panicked(_) => None,
        }
    }
}

/// Stable identity of a grid point inside a checkpoint file: the
/// resume logic only trusts a line whose key matches the same index in
/// the *current* grid, so editing the sweep invalidates stale rows
/// instead of silently mismatching them.
fn point_key(p: &SweepPoint) -> String {
    format!(
        "m{}k{}n{}s{:.4}x{}",
        p.m,
        p.k,
        p.n,
        p.sparsity,
        p.kernel.name()
    )
}

/// Completed `(idx, time_us)` entries of a checkpoint whose key still
/// matches the current grid. Lines that are malformed (e.g. truncated
/// by a crash mid-write), stale, or record a panic are ignored — a
/// panicked point is retried on resume.
fn load_checkpoint(path: &Path, points: &[SweepPoint]) -> io::Result<HashMap<usize, f64>> {
    let mut done = HashMap::new();
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(e),
    };
    for line in io::BufReader::new(file).lines() {
        let Ok(entry) = json::parse(&line?) else {
            continue;
        };
        let idx = entry.get("idx").and_then(Value::as_f64);
        let key = entry.get("key").and_then(Value::as_str);
        let status = entry.get("status").and_then(Value::as_str);
        let (Some(idx), Some(key), Some("done")) = (idx, key, status) else {
            continue;
        };
        if idx.fract() != 0.0 || idx < 0.0 {
            continue;
        }
        let idx = idx as usize;
        if points.get(idx).map(point_key).as_deref() != Some(key) {
            continue;
        }
        if let Some(t) = entry.get("time_us").and_then(Value::as_f64) {
            done.insert(idx, t);
        }
    }
    Ok(done)
}

fn checkpoint_line(idx: usize, key: &str, outcome: &SweepOutcome) -> String {
    let entry = Value::obj()
        .set("idx", Value::Num(idx as f64))
        .set("key", Value::Str(key.to_string()));
    let entry = match outcome {
        SweepOutcome::Done(t) | SweepOutcome::Resumed(t) => entry
            .set("status", Value::Str("done".to_string()))
            .set("time_us", Value::Num(*t)),
        SweepOutcome::Panicked(msg) => entry
            .set("status", Value::Str("panicked".to_string()))
            .set("error", Value::Str(msg.clone())),
    };
    entry.to_json() + "\n"
}

/// Hardened analytic sweep: [`run_grid_hardened_with`] with the default
/// per-point evaluator ([`SweepPoint::time_us`]).
pub fn run_grid_hardened(
    spec: &GpuSpec,
    points: Vec<SweepPoint>,
    checkpoint: Option<&Path>,
    resume: bool,
) -> io::Result<Vec<SweepOutcome>> {
    let spec = spec.clone();
    run_grid_hardened_with(points, checkpoint, resume, move |_, p| p.time_us(&spec))
}

/// Fault-isolated, checkpointed sweep.
///
/// Every grid point runs `eval` inside a per-point `catch_unwind`
/// (via [`exec::par_map_catch`]): a panicking point becomes
/// [`SweepOutcome::Panicked`] while every other point completes. With a
/// `checkpoint` path, each completed point appends one JSONL line —
/// flushed immediately, so a killed sweep loses at most in-flight
/// points — and `resume: true` skips points whose `done` line matches
/// the current grid ([`SweepOutcome::Resumed`]); panicked and stale
/// lines are retried. Results come back in point order at any job
/// count.
pub fn run_grid_hardened_with<F>(
    points: Vec<SweepPoint>,
    checkpoint: Option<&Path>,
    resume: bool,
    eval: F,
) -> io::Result<Vec<SweepOutcome>>
where
    F: Fn(usize, &SweepPoint) -> f64 + Sync + std::panic::RefUnwindSafe,
{
    let prior = match (checkpoint, resume) {
        (Some(path), true) => load_checkpoint(path, &points)?,
        _ => HashMap::new(),
    };
    let keys: Vec<String> = points.iter().map(point_key).collect();
    let writer = checkpoint
        .map(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
        })
        .transpose()?
        .map(Mutex::new);

    let items: Vec<(usize, SweepPoint)> = points.into_iter().enumerate().collect();
    let results = exec::par_map_catch(items, |(idx, p)| {
        if let Some(&t) = prior.get(&idx) {
            return (idx, p, SweepOutcome::Resumed(t));
        }
        let t = eval(idx, &p);
        let outcome = SweepOutcome::Done(t);
        if let Some(w) = &writer {
            // Flush per point: the checkpoint must survive a kill.
            let line = checkpoint_line(idx, &point_key(&p), &outcome);
            let mut w = w.lock().unwrap();
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        }
        (idx, p, outcome)
    });

    let mut outcomes = Vec::with_capacity(results.len());
    for (idx, res) in results.into_iter().enumerate() {
        let outcome = match res {
            Ok((_, _, outcome)) => outcome,
            Err(msg) => SweepOutcome::Panicked(msg),
        };
        // Panicked points unwound before reaching the in-flight writer;
        // record them now so the checkpoint mirrors the full grid (the
        // `panicked` status is never resumed, only retried).
        if let (Some(w), SweepOutcome::Panicked(_)) = (&writer, &outcome) {
            let line = checkpoint_line(idx, &keys[idx], &outcome);
            let mut w = w.lock().unwrap();
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinfer_baselines::kernel_by_name;

    #[test]
    fn jobs_flag_parses() {
        let args: Vec<String> = ["x", "--jobs", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(jobs_flag(&args), Some(3));
        let none: Vec<String> = vec!["--jobs".into(), "zero".into()];
        assert_eq!(jobs_flag(&none), None);
        assert_eq!(jobs_flag(&[]), None);
    }

    #[test]
    fn cache_returns_same_point_and_encodes_once() {
        let cache = EncodeCache::new();
        let a = cache.point(64, 64, 0.5, 1);
        let b = cache.point(64, 64, 0.5, 1);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one entry");
        assert_eq!(cache.len(), 1);
        // Distinct sparsity is a distinct point.
        let c = cache.point(64, 64, 0.6, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // Encodings are built once per *format*, not per kernel:
        // Sputnik and cuSPARSE both read CSR and share one container.
        let sputnik = kernel_by_name("Sputnik").unwrap();
        let cusparse = kernel_by_name("cuSPARSE").unwrap();
        let e1 = a.encoded_for(&sputnik);
        let e2 = b.encoded_for(&cusparse);
        assert!(e1.shares_encoding(&e2), "CSR must encode once per point");
        assert!(!e1.shares_encoding(&c.encoded_for(&sputnik)));
    }

    #[test]
    fn matrix_cache_generates_once_and_records_metrics() {
        let cache = EncodeCache::new();
        let a = cache.matrices().sparse(64, 64, 0.5, ValueDist::Uniform, 3);
        let b = cache.matrices().sparse(64, 64, 0.5, ValueDist::Uniform, 3);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one matrix");
        assert_eq!(*a, random_sparse(64, 64, 0.5, ValueDist::Uniform, 3));
        assert_eq!((cache.matrices().hits(), cache.matrices().misses()), (1, 1));
        // Dense and sparse generation points never collide in the key
        // space, even at identical shape/dist/seed.
        let d = cache.matrices().dense(64, 64, ValueDist::Uniform, 3);
        assert_eq!(*d, random_dense(64, 64, ValueDist::Uniform, 3));

        // An encode point reuses the cached weight and counts one build
        // per format no matter how often it is requested.
        let point = cache.point(64, 64, 0.5, 3);
        assert!(std::ptr::eq(point.weight(), &*a));
        let kernel = kernel_by_name("SpInfer").unwrap();
        let _ = point.encoded_for(&kernel);
        let _ = point.encoded_for(&kernel);
        assert_eq!(cache.encodes(), 1, "second request must reuse");

        let mut reg = spinfer_obs::Registry::new();
        cache.record_metrics(&mut reg);
        assert_eq!(reg.counter("setup.matrix_cache_misses"), 2);
        assert_eq!(reg.counter("setup.matrix_cache_hits"), 2);
        assert_eq!(reg.counter("setup.encodes"), 1);
        assert!(reg.gauge("setup.generate_s") > 0.0);
        assert!(reg.gauge("setup.encode_s") > 0.0);
    }

    #[test]
    fn analytic_grid_matches_serial_map() {
        let spec = GpuSpec::rtx4090();
        let points: Vec<SweepPoint> = [0.4, 0.6]
            .iter()
            .flat_map(|&s| {
                crate::kernels(["SpInfer", "cuBLAS_TC"])
                    .into_iter()
                    .map(move |kernel| SweepPoint {
                        m: 1024,
                        k: 1024,
                        n: 16,
                        sparsity: s,
                        kernel,
                    })
            })
            .collect();
        let serial: Vec<f64> = points.iter().map(|p| p.time_us(&spec)).collect();
        assert_eq!(run_grid(&spec, points), serial);
    }

    fn small_grid() -> Vec<SweepPoint> {
        [0.4, 0.6]
            .iter()
            .flat_map(|&s| {
                crate::kernels(["SpInfer", "cuBLAS_TC"])
                    .into_iter()
                    .map(move |kernel| SweepPoint {
                        m: 512,
                        k: 512,
                        n: 16,
                        sparsity: s,
                        kernel,
                    })
            })
            .collect()
    }

    #[test]
    fn hardened_grid_without_checkpoint_matches_plain_grid() {
        let spec = GpuSpec::rtx4090();
        let points = small_grid();
        let plain = run_grid(&spec, points.clone());
        let hardened = run_grid_hardened(&spec, points, None, false).expect("no I/O involved");
        let times: Vec<f64> = hardened
            .iter()
            .map(|o| o.time_us().expect("no point panics"))
            .collect();
        assert_eq!(times, plain);
    }

    #[test]
    fn hardened_grid_isolates_panics_and_resumes_from_checkpoint() {
        let spec = GpuSpec::rtx4090();
        let points = small_grid();
        let path = std::env::temp_dir().join(format!(
            "spinfer_sweep_ckpt_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        // First pass: point 2 is poisoned and panics mid-sweep.
        let first = run_grid_hardened_with(points.clone(), Some(&path), false, |i, p| {
            if i == 2 {
                panic!("poisoned grid point");
            }
            p.time_us(&spec)
        })
        .expect("checkpoint writes");
        assert_eq!(first.len(), 4);
        for (i, o) in first.iter().enumerate() {
            match o {
                SweepOutcome::Done(t) if i != 2 => assert!(t.is_finite() && *t > 0.0),
                SweepOutcome::Panicked(msg) if i == 2 => {
                    assert!(msg.contains("poisoned"), "payload survives: {msg}");
                }
                other => panic!("point {i}: unexpected outcome {other:?}"),
            }
        }

        // A crash-truncated trailing line must not break the parser.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"idx\":7,\"key\":\"trunc").unwrap();
        }

        // Resume: completed points load from the checkpoint, the
        // panicked point re-runs (healthy this time).
        let second =
            run_grid_hardened_with(points.clone(), Some(&path), true, |_, p| p.time_us(&spec))
                .expect("resume reads");
        let reference = run_grid(&spec, points);
        for (i, (o, want)) in second.iter().zip(&reference).enumerate() {
            match o {
                SweepOutcome::Resumed(t) if i != 2 => assert_eq!(t, want, "point {i}"),
                SweepOutcome::Done(t) if i == 2 => assert_eq!(t, want, "retried point"),
                other => panic!("point {i}: unexpected outcome {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_rejects_stale_keys() {
        let spec = GpuSpec::rtx4090();
        let points = small_grid();
        let path = std::env::temp_dir().join(format!(
            "spinfer_sweep_stale_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        // A checkpoint written for a *different* grid: keys won't match.
        std::fs::write(
            &path,
            "{\"idx\":0,\"key\":\"m1k1n1s0.0000xNope\",\"status\":\"done\",\"time_us\":1.0}\n",
        )
        .unwrap();
        let out = run_grid_hardened(&spec, points, Some(&path), true).unwrap();
        assert!(
            out.iter().all(|o| matches!(o, SweepOutcome::Done(_))),
            "stale rows must be re-run, not resumed: {out:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn functional_grid_matches_direct_runs() {
        let spec = GpuSpec::rtx4090();
        let mk = 64usize;
        let points: Vec<SweepPoint> = crate::kernels(["SpInfer", "Flash-LLM"])
            .into_iter()
            .flat_map(|kernel| {
                [8usize, 16].into_iter().map(move |n| SweepPoint {
                    m: mk,
                    k: mk,
                    n,
                    sparsity: 0.6,
                    kernel: kernel.clone(),
                })
            })
            .collect();
        // One shared cache serves every point, so later points reuse
        // earlier encodings.
        let cache = EncodeCache::new();
        for p in &points {
            let r = run_functional(&cache, &spec, p, 9);
            // Rebuild the point without the cache: identical output.
            let direct = run_functional(&EncodeCache::new(), &spec, p, 9);
            assert_eq!(r.output, direct.output, "{} n={}", p.kernel.name(), p.n);
        }
    }
}
