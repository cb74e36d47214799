//! Kernel configuration autotuner.
//!
//! The artifact repository tunes split-K per shape; this module searches
//! the whole [`SpmmConfig`] space (split-K × GroupTile geometry × N tile)
//! against the analytic estimator, which makes exhaustive search cheap
//! (each candidate costs microseconds). Returns the fastest valid
//! configuration and the predicted time, with the full candidate table
//! available for inspection.

use crate::spmm::{Ablation, FormatStats, SpinferSpmm, SpmmConfig};
use crate::tca_bme::TcaBmeConfig;
use gpu_sim::spec::GpuSpec;

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Configuration evaluated.
    pub config: SpmmConfig,
    /// GroupTile geometry evaluated.
    pub gt: TcaBmeConfig,
    /// Predicted kernel time in microseconds.
    pub time_us: f64,
}

/// Autotuning outcome.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The fastest candidate.
    pub best: Candidate,
    /// Every candidate evaluated, sorted fastest-first.
    pub candidates: Vec<Candidate>,
}

/// Split-K factors explored (0 = the kernel's own auto heuristic).
const SPLIT_KS: [usize; 5] = [0, 1, 2, 4, 8];
/// GroupTile geometries explored (all TCTile-aligned).
const GT_SHAPES: [(usize, usize); 4] = [(64, 64), (64, 128), (128, 64), (32, 64)];

/// Searches kernel configurations for an `m×k` weight at `sparsity`
/// multiplied by batches of `n`, on `spec`.
/// # Examples
///
/// ```
/// use gpu_sim::GpuSpec;
/// let result = spinfer_core::tune(&GpuSpec::rtx4090(), 4096, 4096, 16, 0.6);
/// assert!(result.best.time_us > 0.0);
/// assert_eq!(result.candidates.len(), 20);
/// ```
pub fn tune(spec: &GpuSpec, m: usize, k: usize, n: usize, sparsity: f64) -> TuneResult {
    let mut candidates = Vec::new();
    for (gt_rows, gt_cols) in GT_SHAPES {
        let gt = TcaBmeConfig { gt_rows, gt_cols };
        let stats = FormatStats::synthetic_with_config(m, k, sparsity, gt);
        for split_k in SPLIT_KS {
            let config = SpmmConfig {
                split_k,
                ablation: Ablation::default(),
            };
            let kernel = SpinferSpmm { config };
            let time_us = kernel.estimate(spec, &stats, n).time_us();
            candidates.push(Candidate {
                config,
                gt,
                time_us,
            });
        }
    }
    candidates.sort_by(|a, b| a.time_us.total_cmp(&b.time_us));
    TuneResult {
        best: candidates[0].clone(),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_config_is_no_slower_than_default() {
        let spec = GpuSpec::rtx4090();
        for &(m, k) in &[(4096usize, 4096usize), (28672, 8192), (1024, 8192)] {
            let result = tune(&spec, m, k, 16, 0.6);
            let default_time = SpinferSpmm::new()
                .estimate(&spec, &FormatStats::synthetic(m, k, 0.6), 16)
                .time_us();
            assert!(
                result.best.time_us <= default_time * 1.001,
                "{m}x{k}: tuned {} vs default {default_time}",
                result.best.time_us
            );
        }
    }

    #[test]
    fn candidates_are_sorted_and_complete() {
        let spec = GpuSpec::rtx4090();
        let r = tune(&spec, 4096, 4096, 16, 0.5);
        assert_eq!(r.candidates.len(), SPLIT_KS.len() * GT_SHAPES.len());
        for w in r.candidates.windows(2) {
            assert!(w[0].time_us <= w[1].time_us);
        }
        assert_eq!(r.best.time_us, r.candidates[0].time_us);
    }

    #[test]
    fn short_wide_shapes_prefer_split_k() {
        // M = 1024 gives only 16 block rows: split-K (explicit or auto)
        // must be part of the winning configuration.
        let spec = GpuSpec::rtx4090();
        let r = tune(&spec, 1024, 16384, 16, 0.6);
        let auto = r.best.config.split_k == 0;
        assert!(
            auto || r.best.config.split_k > 1,
            "best {:?}",
            r.best.config
        );
    }

    #[test]
    fn synthetic_with_config_respects_geometry() {
        let gt = TcaBmeConfig {
            gt_rows: 128,
            gt_cols: 64,
        };
        let s = FormatStats::synthetic_with_config(1000, 1000, 0.5, gt);
        assert_eq!(s.m_pad, 1024);
        assert_eq!(s.k_pad, 1024);
        assert_eq!(s.config, gt);
    }

    #[test]
    fn tuning_responds_to_device() {
        let r1 = tune(&GpuSpec::rtx4090(), 8192, 8192, 16, 0.6);
        let r2 = tune(&GpuSpec::a6000(), 8192, 8192, 16, 0.6);
        // A6000 is slower in absolute terms.
        assert!(r2.best.time_us > r1.best.time_us);
    }
}
