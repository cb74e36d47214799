//! Precision×format ablation: SpInfer at FP16 vs INT8 payload
//! precision over a sparsity×shape grid (`spinfer quant`).
//!
//! Each grid point runs both kernels *functionally* through the
//! hardened resumable sweep (per-point panic isolation + JSONL
//! checkpoint, see [`crate::sweep`]), then reports, per (shape,
//! sparsity):
//!
//! * **simulated time** of each precision and the INT8 speedup,
//! * **container sizes** from the actual serialized bytes (the v2 FP16
//!   and v3 INT8 containers) against the dense FP16 footprint,
//! * **quantization error** of the INT8 container against the exact
//!   weights — max absolute error and relative Frobenius error over the
//!   dequantized matrix.
//!
//! Every reported number is a pure function of the grid and seed —
//! wall-clock never appears — so the JSON report is byte-identical at
//! any `--jobs` count and across checkpoint resumes (the CI
//! `quantized-inference` job asserts exactly that).

use crate::sweep::{self, EncodeCache, SweepPoint};
use gpu_sim::matrix::{random_sparse, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_core::{serialize, TcaBme};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The ablation grid: every (shape, sparsity) point runs at both
/// precisions with the same weights and activations.
#[derive(Clone, Debug)]
pub struct QuantConfig {
    /// `(M, K)` weight shapes.
    pub shapes: Vec<(usize, usize)>,
    /// Weight sparsity levels in `[0, 1]`.
    pub sparsities: Vec<f64>,
    /// Batch size (columns of X).
    pub n: usize,
    /// Weight/X generation seed.
    pub seed: u64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            shapes: vec![(1024, 1024), (4096, 4096)],
            sparsities: vec![0.5, 0.6, 0.7],
            n: 16,
            seed: 0,
        }
    }
}

impl QuantConfig {
    /// The tiny grid the perf snapshot and CI smoke run: same coverage
    /// shape (2 shapes × 3 sparsities × 2 precisions) at toy sizes.
    pub fn smoke() -> Self {
        QuantConfig {
            shapes: vec![(128, 128), (256, 128)],
            sparsities: vec![0.5, 0.6, 0.7],
            n: 8,
            seed: 0,
        }
    }
}

/// One (shape, sparsity) row of the ablation report.
#[derive(Clone, Debug)]
pub struct QuantRow {
    /// Weight rows.
    pub m: usize,
    /// Weight columns.
    pub k: usize,
    /// Batch size.
    pub n: usize,
    /// Weight sparsity.
    pub sparsity: f64,
    /// Simulated FP16 kernel time in µs.
    pub fp16_us: f64,
    /// Simulated INT8 kernel time in µs.
    pub int8_us: f64,
    /// `fp16_us / int8_us`.
    pub speedup: f64,
    /// Dense FP16 footprint in bytes.
    pub dense_bytes: usize,
    /// Serialized v2 (FP16) container bytes.
    pub fp16_bytes: usize,
    /// Serialized v3 (INT8 + scales) container bytes.
    pub int8_bytes: usize,
    /// `dense_bytes / fp16_bytes`.
    pub fp16_compression: f64,
    /// `dense_bytes / int8_bytes`.
    pub int8_compression: f64,
    /// Max absolute weight error of the dequantized INT8 container.
    pub max_abs_err: f64,
    /// Relative Frobenius error of the dequantized INT8 container.
    pub rel_fro_err: f64,
}

/// The ablation grid as sweep points: for each (shape, sparsity), the
/// FP16 point immediately followed by its INT8 twin.
pub fn grid(cfg: &QuantConfig) -> Vec<SweepPoint> {
    let precisions = crate::kernels(["SpInfer", "SpInfer-INT8"]);
    let mut points = Vec::new();
    for &(m, k) in &cfg.shapes {
        for &sparsity in &cfg.sparsities {
            for kernel in &precisions {
                points.push(SweepPoint {
                    m,
                    k,
                    n: cfg.n,
                    sparsity,
                    kernel: kernel.clone(),
                });
            }
        }
    }
    points
}

/// Runs the ablation: both precisions functionally at every grid point
/// through the hardened sweep (checkpointed and resumable when a path
/// is given), then the encode-side size and error metrics. A point that
/// panicked drops its row (the sweep records the panic in the
/// checkpoint; resume retries it).
pub fn run(
    spec: &GpuSpec,
    cfg: &QuantConfig,
    checkpoint: Option<&Path>,
    resume: bool,
) -> io::Result<Vec<QuantRow>> {
    let points = grid(cfg);
    let cache = EncodeCache::new();
    let spec2 = spec.clone();
    let seed = cfg.seed;
    let outcomes =
        sweep::run_grid_hardened_with(points.clone(), checkpoint, resume, move |_, p| {
            sweep::run_functional(&cache, &spec2, p, seed).time_us()
        })?;

    let mut rows = Vec::new();
    for (pair, outs) in points.chunks_exact(2).zip(outcomes.chunks_exact(2)) {
        let p = &pair[0];
        debug_assert_eq!(pair[1].kernel.name(), "SpInfer-INT8");
        let (Some(fp16_us), Some(int8_us)) = (outs[0].time_us(), outs[1].time_us()) else {
            continue;
        };
        // Encode-side metrics: the same deterministic weights the sweep
        // ran against (identical generator key), measured through the
        // actual serialized containers.
        let w = random_sparse(p.m, p.k, p.sparsity, ValueDist::Uniform, seed);
        let fp16 = TcaBme::encode(&w);
        let int8 = fp16.quantize_int8();
        let dense_bytes = 2 * p.m * p.k;
        let fp16_bytes = serialize::to_bytes(&fp16).len();
        let int8_bytes = serialize::to_bytes_int8(&int8).len();
        let deq = int8.dequantize_dense();
        let mut max_abs_err = 0.0f64;
        let mut err_sq = 0.0f64;
        let mut ref_sq = 0.0f64;
        for (h, &d) in w.as_slice().iter().zip(&deq) {
            let v = f64::from(h.to_f32());
            let e = v - f64::from(d);
            max_abs_err = max_abs_err.max(e.abs());
            err_sq += e * e;
            ref_sq += v * v;
        }
        let rel_fro_err = if ref_sq > 0.0 {
            (err_sq / ref_sq).sqrt()
        } else {
            0.0
        };
        rows.push(QuantRow {
            m: p.m,
            k: p.k,
            n: p.n,
            sparsity: p.sparsity,
            fp16_us,
            int8_us,
            speedup: fp16_us / int8_us,
            dense_bytes,
            fp16_bytes,
            int8_bytes,
            fp16_compression: dense_bytes as f64 / fp16_bytes as f64,
            int8_compression: dense_bytes as f64 / int8_bytes as f64,
            max_abs_err,
            rel_fro_err,
        });
    }
    Ok(rows)
}

/// Renders the report as deterministic JSON: simulated and encode-side
/// numbers only (no wall-clock), so the bytes are identical at any job
/// count and across resumes.
pub fn to_json(gpu: &str, rows: &[QuantRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"spinfer-quant-ablation/v1\",");
    let _ = writeln!(s, "  \"gpu\": \"{gpu}\",");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{ \"m\": {}, \"k\": {}, \"n\": {}, \"sparsity\": {}, \
             \"fp16_us\": {:.3}, \"int8_us\": {:.3}, \"speedup\": {:.4}, \
             \"dense_bytes\": {}, \"fp16_bytes\": {}, \"int8_bytes\": {}, \
             \"fp16_compression\": {:.4}, \"int8_compression\": {:.4}, \
             \"max_abs_err\": {:.6}, \"rel_fro_err\": {:.6} }}{comma}",
            r.m,
            r.k,
            r.n,
            r.sparsity,
            r.fp16_us,
            r.int8_us,
            r.speedup,
            r.dense_bytes,
            r.fp16_bytes,
            r.int8_bytes,
            r.fp16_compression,
            r.int8_compression,
            r.max_abs_err,
            r.rel_fro_err,
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_required_ablation_axes() {
        let cfg = QuantConfig::default();
        assert!(cfg.shapes.len() >= 2, "at least two shapes");
        assert!(cfg.sparsities.len() >= 3, "at least three sparsity levels");
        let g = grid(&cfg);
        assert_eq!(g.len(), cfg.shapes.len() * cfg.sparsities.len() * 2);
        assert!(g.iter().any(|p| p.kernel.name() == "SpInfer"));
        assert!(g.iter().any(|p| p.kernel.name() == "SpInfer-INT8"));
    }

    #[test]
    fn smoke_run_reports_compression_speedup_and_error() {
        let spec = GpuSpec::rtx4090();
        let rows = run(&spec, &QuantConfig::smoke(), None, false).expect("no checkpoint I/O");
        assert_eq!(rows.len(), 6, "2 shapes x 3 sparsities");
        for r in &rows {
            assert!(r.fp16_us > 0.0 && r.int8_us > 0.0);
            assert!(r.speedup > 0.0 && r.speedup.is_finite());
            assert!(
                r.int8_bytes < r.fp16_bytes,
                "1 B codes + scales must beat 2 B values: {} vs {}",
                r.int8_bytes,
                r.fp16_bytes
            );
            assert!(r.int8_compression > r.fp16_compression);
            assert!(
                r.max_abs_err > 0.0 && r.max_abs_err < 0.01,
                "within one code step of uniform[-1,1] weights: {}",
                r.max_abs_err
            );
            assert!(r.rel_fro_err > 0.0 && r.rel_fro_err < 0.01);
        }
    }

    #[test]
    fn report_is_byte_identical_across_job_counts() {
        let spec = GpuSpec::rtx4090();
        let cfg = QuantConfig::smoke();
        gpu_sim::exec::set_jobs(1);
        let serial = to_json(spec.name, &run(&spec, &cfg, None, false).unwrap());
        gpu_sim::exec::set_jobs(0);
        let pooled = to_json(spec.name, &run(&spec, &cfg, None, false).unwrap());
        assert_eq!(serial, pooled, "job count leaked into the report");
        assert!(serial.contains("\"schema\": \"spinfer-quant-ablation/v1\""));
    }

    #[test]
    fn checkpoint_resume_reproduces_the_report() {
        let spec = GpuSpec::rtx4090();
        let cfg = QuantConfig::smoke();
        let path = std::env::temp_dir().join(format!(
            "spinfer_quant_ckpt_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let first = run(&spec, &cfg, Some(&path), false).unwrap();
        let resumed = run(&spec, &cfg, Some(&path), true).unwrap();
        assert_eq!(
            to_json(spec.name, &first),
            to_json(spec.name, &resumed),
            "resumed report must match the original"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn int8_wins_at_the_hero_shape() {
        // At memory-bound serving shapes the INT8 estimate must be
        // faster; tiny smoke shapes are allowed to be overhead-bound.
        let spec = GpuSpec::rtx4090();
        let [fp16, int8] = crate::kernels(["SpInfer", "SpInfer-INT8"]).map(|k| {
            k.estimate_synthetic(&spec, crate::HERO_M, crate::HERO_K, 16, 0.6)
                .time_us()
        });
        assert!(int8 < fp16, "INT8 {int8} us must beat FP16 {fp16} us");
    }
}
