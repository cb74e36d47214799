//! Metrics registry: counters, gauges, and log-bucketed histograms with
//! JSON snapshot/diff.
//!
//! The registry is the aggregate side of the observability subsystem:
//! trace spans answer "when", the registry answers "how much". Snapshots
//! serialize to the same hand-rolled JSON style as `BENCH_kernels.json`
//! (flat, deterministic key order) so baselines can be committed and
//! diffed in CI.

use crate::json::Value;
use std::collections::BTreeMap;

/// Nearest-rank percentile index: the 0-based index into a sorted sample
/// of length `n` holding the `q`-quantile (`q` in `[0, 1]`). Uses the
/// standard nearest-rank definition `ceil(q·n) - 1`, clamped to the valid
/// range. This is THE percentile definition for the workspace — the
/// histogram below and `ServingReport::p95_latency_sec` both use it, so
/// a p95 from a trace breakdown and a p95 from a serving report agree.
pub fn percentile_index(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Exact `q`-quantile of an ascending-sorted sample (nearest rank).
/// Returns 0.0 on an empty sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[percentile_index(sorted.len(), q)]
}

/// Number of log-spaced buckets per octave (factor of 2). Four per octave
/// bounds bucket relative error to 2^(1/4) ≈ 19%.
const BUCKETS_PER_OCTAVE: i32 = 4;

/// A log-bucketed histogram of non-negative `f64` samples. Buckets are
/// spaced `2^(1/4)` apart, so percentile estimates carry at most one
/// bucket (~19%) of relative error while storage stays O(log range).
/// Exact min/max/sum/count are tracked alongside.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// bucket index -> sample count. BTreeMap keeps snapshots ordered.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: f64) -> i32 {
        if value <= 0.0 {
            return i32::MIN;
        }
        (value.log2() * f64::from(BUCKETS_PER_OCTAVE)).floor() as i32
    }

    /// Upper edge of a bucket (the value all samples in it are ≤).
    fn bucket_upper(bucket: i32) -> f64 {
        if bucket == i32::MIN {
            return 0.0;
        }
        2f64.powf(f64::from(bucket + 1) / f64::from(BUCKETS_PER_OCTAVE))
    }

    /// Records one sample. Negative samples clamp to 0 (they cannot occur
    /// from durations; clamping keeps the histogram total consistent).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank `q`-quantile estimate: walks buckets in ascending
    /// order to the bucket holding the rank from [`percentile_index`] and
    /// returns its upper edge, clamped to the exact observed max (so p100
    /// is exact and estimates never exceed real data).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = percentile_index(self.count as usize, q) as u64;
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen > target {
                return Self::bucket_upper(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Snapshot as a JSON object (count/sum/min/max/mean/p50/p95/p99).
    pub fn to_value(&self) -> Value {
        Value::obj()
            .set("count", Value::Num(self.count as f64))
            .set("sum", Value::Num(self.sum))
            .set("min", Value::Num(self.min()))
            .set("max", Value::Num(self.max()))
            .set("mean", Value::Num(self.mean()))
            .set("p50", Value::Num(self.percentile(0.50)))
            .set("p95", Value::Num(self.percentile(0.95)))
            .set("p99", Value::Num(self.percentile(0.99)))
    }
}

/// A named collection of counters, gauges, and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to a monotonic counter (created at 0 on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Records a sample into a named histogram (created empty on first use).
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Reads a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serializes the registry as a snapshot JSON object. Keys are sorted
    /// (BTreeMap iteration), so two snapshots of equal registries are
    /// byte-identical.
    pub fn snapshot(&self) -> Value {
        let mut counters = Value::obj();
        for (k, v) in &self.counters {
            counters = counters.set(k, Value::Num(*v as f64));
        }
        let mut gauges = Value::obj();
        for (k, v) in &self.gauges {
            gauges = gauges.set(k, Value::Num(*v));
        }
        let mut hists = Value::obj();
        for (k, h) in &self.histograms {
            hists = hists.set(k, h.to_value());
        }
        Value::obj()
            .set("schema", Value::Str("spinfer-obs-snapshot/v1".to_string()))
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", hists)
    }

    /// Serialized snapshot (see [`Registry::snapshot`]).
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Diffs this registry's snapshot against a baseline snapshot (as
    /// produced by [`Registry::snapshot`], possibly from an older run read
    /// back from disk). Returns one line per difference: added, removed,
    /// or changed scalar leaves (`counters.x`, `gauges.y`,
    /// `histograms.z.p95`, ...). Empty means identical.
    pub fn diff_against(&self, baseline: &Value) -> Vec<String> {
        let current = self.snapshot();
        let mut out = Vec::new();
        diff_value("", &current, baseline, &mut out);
        out
    }
}

fn diff_value(path: &str, current: &Value, baseline: &Value, out: &mut Vec<String>) {
    match (current, baseline) {
        (Value::Obj(cur), Value::Obj(base)) => {
            for (k, cv) in cur {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match base.iter().find(|(bk, _)| bk == k) {
                    Some((_, bv)) => diff_value(&sub, cv, bv, out),
                    None => out.push(format!("+ {sub} = {}", cv.to_json())),
                }
            }
            for (k, bv) in base {
                if !cur.iter().any(|(ck, _)| ck == k) {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.push(format!("- {sub} (was {})", bv.to_json()));
                }
            }
        }
        _ => {
            if current != baseline {
                out.push(format!(
                    "~ {path}: {} -> {}",
                    baseline.to_json(),
                    current.to_json()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite-pinned index semantics: nearest rank, `ceil(q·n)-1`.
    #[test]
    fn percentile_index_edge_cases() {
        // N=1: every quantile is the only sample.
        assert_eq!(percentile_index(1, 0.95), 0);
        // N=2: p95 rank = ceil(1.9) = 2 -> index 1.
        assert_eq!(percentile_index(2, 0.95), 1);
        // N=19: rank = ceil(18.05) = 19 -> index 18 (the max).
        assert_eq!(percentile_index(19, 0.95), 18);
        // N=20: rank = ceil(19.0) = 19 -> index 18 (NOT the max; the
        // textbook nearest-rank p95 of 20 samples is the 19th).
        assert_eq!(percentile_index(20, 0.95), 18);
        // Degenerate quantiles clamp into range.
        assert_eq!(percentile_index(10, 0.0), 0);
        assert_eq!(percentile_index(10, 1.0), 9);
        assert_eq!(percentile_index(0, 0.5), 0);
    }

    #[test]
    fn percentile_sorted_matches_index() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(percentile_sorted(&v(20), 0.95), 19.0);
        assert_eq!(percentile_sorted(&v(20), 0.50), 10.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // p95 at nearest rank (`ceil(0.95 n)` clamped to [1, n],
        // 1-based): N=1 → the only sample; N=2 → the larger; N=19 →
        // ceil(18.05) = rank 19 (the max); N=20 → rank 19 of 20
        // (second-largest); N=0 → 0.0.
        assert_eq!(percentile_sorted(&v(1), 0.95), 1.0);
        assert_eq!(percentile_sorted(&v(2), 0.95), 2.0);
        assert_eq!(percentile_sorted(&v(19), 0.95), 19.0);
        assert_eq!(percentile_sorted(&[], 0.95), 0.0);
    }

    #[test]
    fn histogram_percentile_within_one_bucket() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.37).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let exact = percentile_sorted(&sorted, q);
            let approx = h.percentile(q);
            // Bucket upper edge: overestimates by at most one bucket width.
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx <= exact * 2f64.powf(0.25) + 1e-9,
                "q={q}: {approx} too far above {exact}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert!((h.max() - 370.0).abs() < 1e-9);
        // p100 clamps to the exact max.
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn histogram_handles_zero_and_singleton() {
        let mut h = Histogram::new();
        h.record(0.0);
        assert_eq!(h.percentile(0.95), 0.0);
        let mut one = Histogram::new();
        one.record(7.25);
        assert_eq!(one.percentile(0.5), 7.25); // clamped to max
        assert_eq!(one.mean(), 7.25);
    }

    #[test]
    fn registry_snapshot_and_diff() {
        let mut r = Registry::new();
        r.counter_add("exec.tasks", 8);
        r.gauge_set("sweep.points", 3.0);
        r.histogram_record("phase.mma_us", 2.0);

        let baseline = crate::json::parse(&r.snapshot_json()).unwrap();
        assert!(r.diff_against(&baseline).is_empty());

        r.counter_add("exec.tasks", 1);
        r.counter_add("exec.pool_calls", 1);
        let diffs = r.diff_against(&baseline);
        assert!(
            diffs
                .iter()
                .any(|d| d.contains("~ counters.exec.tasks: 8 -> 9")),
            "{diffs:?}"
        );
        assert!(
            diffs
                .iter()
                .any(|d| d.starts_with("+ counters.exec.pool_calls")),
            "{diffs:?}"
        );
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let mut a = Registry::new();
        a.counter_add("b", 1);
        a.counter_add("a", 2);
        let mut b = Registry::new();
        b.counter_add("a", 2);
        b.counter_add("b", 1);
        assert_eq!(a.snapshot_json(), b.snapshot_json());
    }
}
