//! Perf-snapshot harness: the measurement rail every perf PR is judged
//! against.
//!
//! A snapshot measures, at one benchmark point (default: the fig01 hero
//! shape, LLaMA2-70B's 28672×8192 FFN projection at 60% sparsity, N=16):
//!
//! * **Host wall-clock** of the functional `SpinferSpmm::run` at
//!   `--jobs 1` (the serial hot path this repository optimises) and at
//!   the default job count (how the serial speedup multiplies with the
//!   PR 1 parallel engine), plus weight generation + encode time.
//! * **Simulated kernel time** (µs) for the full kernel roster from the
//!   analytic estimators — pinned here so a host-side optimisation that
//!   accidentally changes *simulated* results is visible in the diff of
//!   `BENCH_kernels.json`.
//!
//! The snapshot is emitted as JSON (no external serializer — the format
//! is flat) by `spinfer snapshot` and `scripts/bench_snapshot.sh`, and
//! the committed `BENCH_kernels.json` forms the perf trajectory across
//! PRs: rewriting the file *appends* the previous measurement (git rev +
//! wall-clock map) to a `history` array instead of discarding it, so
//! the trajectory reads straight out of one file.

use crate::sweep::{EncodeCache, SweepPoint};
use crate::{KernelKind, HERO_K, HERO_M};
use gpu_sim::exec;
use gpu_sim::matrix::checksum_f32;
use gpu_sim::spec::GpuSpec;
use spinfer_core::spmm::LaunchCtx;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark point a snapshot measures.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// Weight rows.
    pub m: usize,
    /// Weight columns (reduction dimension).
    pub k: usize,
    /// Batch size (columns of X).
    pub n: usize,
    /// Weight sparsity.
    pub sparsity: f64,
    /// Weight/X generation seed.
    pub seed: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            m: HERO_M,
            k: HERO_K,
            n: 16,
            sparsity: 0.6,
            seed: 0,
        }
    }
}

/// One prior measurement carried forward in a snapshot's `history`
/// array: which commit it was taken at and its wall-clock map.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Short git rev the entry was measured at (`"unknown"` outside a
    /// git checkout).
    pub rev: String,
    /// `(label, seconds)` pairs of the entry's `wall_clock_s` object.
    pub wall_clock: Vec<(String, f64)>,
}

/// One measured snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The point measured.
    pub config: SnapshotConfig,
    /// GPU spec name the simulated times refer to.
    pub gpu: String,
    /// Short git rev at measurement time (`"unknown"` outside git).
    pub rev: String,
    /// Prior measurements, oldest first; extend with [`carry_history`]
    /// before overwriting an existing snapshot file.
    pub history: Vec<HistoryEntry>,
    /// Default host job count at measurement time.
    pub default_jobs: usize,
    /// Seconds to generate the weight matrix and X.
    pub gen_s: f64,
    /// Seconds to encode the weight to TCA-BME.
    pub encode_s: f64,
    /// Functional `SpinferSpmm::run` wall-clock at `--jobs 1`.
    pub spinfer_functional_jobs1_s: f64,
    /// Functional `SpinferSpmm::run` wall-clock at the default job count.
    pub spinfer_functional_default_s: f64,
    /// Wall-clock of a small chaos-armed fleet simulation (the
    /// `spinfer cluster` event loop); budget-gated so the cluster layer
    /// can't silently regress into an event-storm.
    pub cluster_smoke_s: f64,
    /// Wall-clock of a short speculative-decoding serving run (the
    /// `spinfer spec` tree-verify loop); budget-gated so the draft/verify
    /// planner can't silently regress into per-step overhead.
    pub spec_smoke_s: f64,
    /// Wall-clock of the toy precision×format ablation (the
    /// `spinfer quant` grid at smoke sizes); budget-gated so the INT8
    /// datapath and quantize/serialize machinery can't silently regress.
    pub quant_smoke_s: f64,
    /// FNV digest of the functional FP32 output (regression tripwire).
    pub output_checksum: u64,
    /// Simulated time of the functional run in µs.
    pub spinfer_simulated_us: f64,
    /// `(label, simulated µs)` for the full analytic kernel roster.
    pub simulated_us: Vec<(&'static str, f64)>,
}

/// The roster whose simulated times a snapshot pins.
fn roster() -> [KernelKind; 8] {
    [
        KernelKind::CublasTc,
        KernelKind::SpInfer,
        KernelKind::SpInferInt8,
        KernelKind::FlashLlm,
        KernelKind::SparTa,
        KernelKind::Sputnik,
        KernelKind::CuSparse,
        KernelKind::Smat,
    ]
}

/// Measures one snapshot. The functional run executes twice (once at
/// `--jobs 1`, once at the default job count); job count never changes
/// simulated results, so the checksum is asserted identical across both.
pub fn measure(spec: &GpuSpec, cfg: &SnapshotConfig) -> Snapshot {
    let point = SweepPoint {
        m: cfg.m,
        k: cfg.k,
        n: cfg.n,
        sparsity: cfg.sparsity,
        kernel: KernelKind::SpInfer,
    };

    let cache = EncodeCache::new();
    let t0 = Instant::now();
    let enc = cache.point(cfg.m, cfg.k, cfg.sparsity, cfg.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let spinfer = spinfer_baselines::kernel_by_name("SpInfer").expect("registered");
    let _ = enc.encoded_for(&spinfer);
    let encode_s = t0.elapsed().as_secs_f64();

    let default_jobs = exec::num_jobs();
    exec::set_jobs(1);
    let t0 = Instant::now();
    let serial = crate::sweep::run_functional(&cache, spec, &point, cfg.seed);
    let spinfer_functional_jobs1_s = t0.elapsed().as_secs_f64();
    exec::set_jobs(0);
    let t0 = Instant::now();
    let pooled = crate::sweep::run_functional(&cache, spec, &point, cfg.seed);
    let spinfer_functional_default_s = t0.elapsed().as_secs_f64();

    let serial_out = serial.output.as_ref().expect("functional output");
    let pooled_out = pooled.output.as_ref().expect("functional output");
    let output_checksum = checksum_f32(serial_out);
    assert_eq!(
        output_checksum,
        checksum_f32(pooled_out),
        "job count changed the functional output"
    );

    let simulated_us = roster()
        .iter()
        .map(|&kind| {
            (
                kind.label(),
                kind.time_us(spec, cfg.m, cfg.k, cfg.n, cfg.sparsity),
            )
        })
        .collect();

    // Fleet smoke: a short chaos-armed cluster run. The simulated
    // horizon is fixed, so the wall-clock tracks event-loop and
    // cost-model overhead, not the scenario.
    let cluster_cfg = spinfer_llm::ClusterConfig {
        replicas: 2,
        arrival_rps: 2.0,
        duration_sec: 10.0,
        max_batch: 8,
        input_len: 128,
        output_len: 16,
        ..spinfer_llm::ClusterConfig::default()
    };
    let cluster_plan = spinfer_llm::ClusterFaultPlan {
        seed: 1234,
        crash_rate: 0.02,
        slow_rate: 0.02,
        launch_fail_rate: 0.02,
        ..spinfer_llm::ClusterFaultPlan::default()
    };
    let t0 = Instant::now();
    spinfer_llm::simulate_cluster(spec, &cluster_cfg, Some(&cluster_plan))
        .expect("snapshot cluster smoke config is valid");
    let cluster_smoke_s = t0.elapsed().as_secs_f64();

    // Speculation smoke: a short high-acceptance tree-verify serving run.
    // Like the fleet smoke, the simulated horizon is fixed — the
    // wall-clock tracks the per-iteration draft/plan/verify bookkeeping.
    let serving_cfg = spinfer_llm::ServingConfig {
        model: spinfer_llm::ModelConfig::opt_13b(),
        framework: spinfer_llm::Framework::SpInfer,
        sparsity: 0.6,
        tp: 1,
        max_batch: 8,
        arrival_rps: 4.0,
        input_len: 64,
        output_len: 32,
        duration_sec: 10.0,
        mix: spinfer_llm::LengthMix::Uniform,
    };
    let spec_cfg = spinfer_llm::SpecConfig {
        acceptance_rate: 0.8,
        ..spinfer_llm::SpecConfig::default()
    };
    let t0 = Instant::now();
    spinfer_llm::serve_spec_ctx(&LaunchCtx::new(spec), &serving_cfg, &spec_cfg);
    let spec_smoke_s = t0.elapsed().as_secs_f64();

    // Quantization smoke: the toy precision×format ablation grid. Both
    // precisions run functionally at every point, so the wall-clock
    // tracks the INT8 datapath plus the quantize/serialize machinery.
    let t0 = Instant::now();
    crate::quant::run(spec, &crate::quant::QuantConfig::smoke(), None, false)
        .expect("smoke ablation has no checkpoint I/O");
    let quant_smoke_s = t0.elapsed().as_secs_f64();

    Snapshot {
        config: *cfg,
        gpu: spec.name.to_string(),
        rev: git_short_rev(),
        history: Vec::new(),
        default_jobs,
        gen_s,
        encode_s,
        spinfer_functional_jobs1_s,
        spinfer_functional_default_s,
        cluster_smoke_s,
        spec_smoke_s,
        quant_smoke_s,
        output_checksum,
        spinfer_simulated_us: serial.time_us(),
        simulated_us,
    }
}

impl Snapshot {
    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"spinfer-bench-snapshot/v2\",");
        let _ = writeln!(s, "  \"gpu\": \"{}\",", self.gpu);
        let _ = writeln!(s, "  \"rev\": \"{}\",", self.rev);
        let _ = writeln!(
            s,
            "  \"shape\": {{ \"m\": {}, \"k\": {}, \"n\": {}, \"sparsity\": {}, \"seed\": {} }},",
            self.config.m, self.config.k, self.config.n, self.config.sparsity, self.config.seed
        );
        let _ = writeln!(s, "  \"default_jobs\": {},", self.default_jobs);
        let _ = writeln!(s, "  \"wall_clock_s\": {{");
        let _ = writeln!(s, "    \"generate\": {:.3},", self.gen_s);
        let _ = writeln!(s, "    \"encode\": {:.3},", self.encode_s);
        let _ = writeln!(
            s,
            "    \"spinfer_functional_jobs1\": {:.3},",
            self.spinfer_functional_jobs1_s
        );
        let _ = writeln!(
            s,
            "    \"spinfer_functional_default\": {:.3},",
            self.spinfer_functional_default_s
        );
        let _ = writeln!(s, "    \"cluster_smoke\": {:.3},", self.cluster_smoke_s);
        let _ = writeln!(s, "    \"spec_smoke\": {:.3},", self.spec_smoke_s);
        let _ = writeln!(s, "    \"quant_smoke\": {:.3}", self.quant_smoke_s);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(
            s,
            "  \"output_checksum\": \"{:#018x}\",",
            self.output_checksum
        );
        let _ = writeln!(
            s,
            "  \"spinfer_functional_simulated_us\": {:.3},",
            self.spinfer_simulated_us
        );
        let _ = writeln!(s, "  \"simulated_us\": {{");
        for (i, (label, us)) in self.simulated_us.iter().enumerate() {
            let comma = if i + 1 == self.simulated_us.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(s, "    \"{label}\": {us:.3}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"history\": [");
        for (i, entry) in self.history.iter().enumerate() {
            let mut wc = String::new();
            for (j, (label, secs)) in entry.wall_clock.iter().enumerate() {
                let comma = if j + 1 == entry.wall_clock.len() {
                    ""
                } else {
                    ", "
                };
                let _ = write!(wc, "\"{label}\": {secs:.3}{comma}");
            }
            let comma = if i + 1 == self.history.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{ \"rev\": \"{}\", \"wall_clock_s\": {{ {wc} }} }}{comma}",
                entry.rev
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }
}

/// Short git rev of the working tree, or `"unknown"` when git (or the
/// repository) is unavailable — snapshots must still measure outside a
/// checkout.
pub fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parses a previously written snapshot JSON and returns its history
/// extended with its own latest measurement — what a new snapshot
/// overwriting the same file should carry so no data point is lost.
/// Tolerant of pre-`v2` files (no `rev`/`history`: the old latest is
/// carried as rev `"unknown"`) and of unparseable input (empty
/// history).
pub fn carry_history(prev_json: &str) -> Vec<HistoryEntry> {
    let Ok(prev) = spinfer_obs::json::parse(prev_json) else {
        return Vec::new();
    };
    let wall_clock_of = |v: &spinfer_obs::json::Value| -> Vec<(String, f64)> {
        v.get("wall_clock_s")
            .and_then(|w| {
                w.as_obj()
                    .map(<[(String, spinfer_obs::json::Value)]>::to_vec)
            })
            .unwrap_or_default()
            .iter()
            .filter_map(|(label, val)| val.as_f64().map(|f| (label.clone(), f)))
            .collect()
    };
    let mut history: Vec<HistoryEntry> = prev
        .get("history")
        .and_then(|h| h.as_arr().map(<[spinfer_obs::json::Value]>::to_vec))
        .unwrap_or_default()
        .iter()
        .map(|entry| HistoryEntry {
            rev: entry
                .get("rev")
                .and_then(|r| r.as_str())
                .unwrap_or("unknown")
                .to_string(),
            wall_clock: wall_clock_of(entry),
        })
        .collect();
    let latest = HistoryEntry {
        rev: prev
            .get("rev")
            .and_then(|r| r.as_str())
            .unwrap_or("unknown")
            .to_string(),
        wall_clock: wall_clock_of(&prev),
    };
    if !latest.wall_clock.is_empty() {
        history.push(latest);
    }
    history
}

/// Extracts one `wall_clock_s.<label>` entry from a snapshot JSON —
/// the numbers perf budgets compare against.
pub fn wall_clock_of(json: &str, label: &str) -> Option<f64> {
    spinfer_obs::json::parse(json)
        .ok()?
        .get("wall_clock_s")?
        .get(label)?
        .as_f64()
}

/// Extracts `wall_clock_s.spinfer_functional_jobs1` from a snapshot
/// JSON.
pub fn jobs1_of(json: &str) -> Option<f64> {
    wall_clock_of(json, "spinfer_functional_jobs1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_snapshot_is_consistent() {
        let spec = GpuSpec::rtx4090();
        let cfg = SnapshotConfig {
            m: 128,
            k: 128,
            n: 16,
            sparsity: 0.6,
            seed: 7,
        };
        let snap = measure(&spec, &cfg);
        assert!(snap.spinfer_functional_jobs1_s >= 0.0);
        assert!(snap.spinfer_simulated_us > 0.0);
        assert_eq!(snap.simulated_us.len(), 8);
        let json = snap.to_json();
        assert!(json.contains("\"spinfer_functional_jobs1\""));
        assert!(json.contains("\"cuBLAS_TC\""));
        assert!(json.contains("output_checksum"));
        assert!(json.contains("\"rev\""));
        assert!(json.contains("\"history\""));
        assert!(jobs1_of(&json).is_some());
        // The setup phases are first-class budget targets.
        assert!(wall_clock_of(&json, "generate").is_some());
        assert!(wall_clock_of(&json, "encode").is_some());
        assert!(wall_clock_of(&json, "cluster_smoke").is_some());
        assert!(snap.cluster_smoke_s >= 0.0);
        assert!(wall_clock_of(&json, "spec_smoke").is_some());
        assert!(snap.spec_smoke_s >= 0.0);
        assert!(wall_clock_of(&json, "quant_smoke").is_some());
        assert!(snap.quant_smoke_s >= 0.0);
        assert_eq!(wall_clock_of(&json, "no_such_label"), None);
    }

    #[test]
    fn history_accumulates_across_rewrites() {
        // Overwriting a snapshot file must carry the old latest entry
        // (and everything already in its history) forward.
        let mut snap = Snapshot {
            config: SnapshotConfig::default(),
            gpu: "RTX4090".to_string(),
            rev: "aaa1111".to_string(),
            history: Vec::new(),
            default_jobs: 1,
            gen_s: 1.0,
            encode_s: 2.0,
            spinfer_functional_jobs1_s: 6.5,
            spinfer_functional_default_s: 6.6,
            cluster_smoke_s: 0.1,
            spec_smoke_s: 0.05,
            quant_smoke_s: 0.02,
            output_checksum: 0x1234,
            spinfer_simulated_us: 100.0,
            simulated_us: vec![("SpInfer", 100.0)],
        };
        let first = snap.to_json();

        snap.rev = "bbb2222".to_string();
        snap.spinfer_functional_jobs1_s = 2.0;
        snap.history = carry_history(&first);
        assert_eq!(snap.history.len(), 1);
        assert_eq!(snap.history[0].rev, "aaa1111");
        let jobs1: Vec<f64> = snap.history[0]
            .wall_clock
            .iter()
            .filter(|(l, _)| l == "spinfer_functional_jobs1")
            .map(|&(_, s)| s)
            .collect();
        assert_eq!(jobs1, vec![6.5]);

        let second = snap.to_json();
        let carried = carry_history(&second);
        assert_eq!(carried.len(), 2, "history chain must keep growing");
        assert_eq!(carried[0].rev, "aaa1111");
        assert_eq!(carried[1].rev, "bbb2222");
        assert_eq!(jobs1_of(&second), Some(2.0));
    }

    #[test]
    fn carry_history_tolerates_v1_and_garbage() {
        // Pre-history files have no rev: the latest is carried as
        // "unknown". Unparseable input yields an empty history.
        let v1 = r#"{
            "schema": "spinfer-bench-snapshot/v1",
            "wall_clock_s": { "spinfer_functional_jobs1": 6.501 }
        }"#;
        let carried = carry_history(v1);
        assert_eq!(carried.len(), 1);
        assert_eq!(carried[0].rev, "unknown");
        assert_eq!(
            carried[0].wall_clock,
            vec![("spinfer_functional_jobs1".to_string(), 6.501)]
        );
        assert!(carry_history("not json").is_empty());
        assert!(carry_history("{}").is_empty());
    }
}
