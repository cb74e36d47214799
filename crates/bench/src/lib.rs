//! # spinfer-bench — the paper's experiment harness
//!
//! One binary per table/figure of the SpInfer paper (see `DESIGN.md`'s
//! per-experiment index). This library holds the shared pieces: the
//! figure rosters (ordered lists of registered kernel names), the
//! model-derived benchmark shapes, plain-text / CSV reporting, and the
//! parallel sweep runner with its encode-once cache ([`sweep`]).

pub mod quant;
pub mod snapshot;
pub mod sweep;

use spinfer_baselines::kernel_by_name;
use spinfer_core::spmm::DynSpmmKernel;
use spinfer_core::{Ablation, SpinferSpmm};
use spinfer_llm::ModelConfig;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The kernels of Figure 10, by registered name, in legend order
/// (SMaT is compared separately in Fig. 11).
pub const FIGURE10_KERNELS: [&str; 6] = [
    "cuBLAS_TC",
    "SpInfer",
    "Flash-LLM",
    "SparTA",
    "Sputnik",
    "cuSPARSE",
];

/// Resolves an ordered list of registered kernel names.
///
/// # Panics
///
/// Panics if a name is not registered: every caller passes a constant
/// roster, so a miss is a typo, not an input error.
pub fn kernels<const N: usize>(names: [&str; N]) -> [DynSpmmKernel; N] {
    names.map(|name| kernel_by_name(name).expect("roster names are registered"))
}

/// SpInfer ablation variants for Table 1.
pub fn spinfer_variant(smbd: bool, async_pipe: bool) -> SpinferSpmm {
    SpinferSpmm::with_ablation(Ablation { smbd, async_pipe })
}

/// A model-derived weight shape used in Figure 10.
#[derive(Clone, Copy, Debug)]
pub struct BenchShape {
    /// Source model name.
    pub model: &'static str,
    /// Output dimension.
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
}

/// The benchmark shapes: per zoo model, its two dominant decode-phase
/// weight matrices — the fused QKV projection and the FFN up projection
/// (the paper draws its matrix sizes from the same models).
pub fn figure10_shapes() -> Vec<BenchShape> {
    let mut out = Vec::new();
    for m in ModelConfig::zoo() {
        let mats = m.layer_matrices();
        let qkv = &mats[0];
        out.push(BenchShape {
            model: m.name,
            m: qkv.m,
            k: qkv.k,
        });
        out.push(BenchShape {
            model: m.name,
            m: m.ffn_hidden,
            k: m.hidden,
        });
    }
    out
}

/// The paper's recurring single-matrix shape (Figures 1, 12, 16,
/// Table 1): the LLaMA2-70B FFN projection, M/K = 28672/8192.
pub const HERO_M: usize = 28672;
/// See [`HERO_M`].
pub const HERO_K: usize = 8192;

/// Formats a table as aligned plain text.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
        }
        out.push('\n');
    };
    fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Writes a CSV next to the figure output under `results/`.
pub fn save_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut s = headers.join(",");
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    let _ = fs::write(dir.join(format!("{name}.csv")), s);
}

/// Geometric mean of a slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_and_shapes() {
        let roster = kernels(FIGURE10_KERNELS);
        let names: Vec<&str> = roster.iter().map(|k| k.name()).collect();
        assert_eq!(names, FIGURE10_KERNELS);
        let shapes = figure10_shapes();
        assert_eq!(shapes.len(), 24);
        assert!(shapes.iter().any(|s| s.m == 28672 && s.k == 8192));
        // Both matrix roles present per model.
        assert!(shapes.iter().any(|s| s.m == 3 * 5120 && s.k == 5120));
    }

    #[test]
    fn all_kernels_produce_times() {
        let spec = gpu_sim::spec::GpuSpec::rtx4090();
        for kernel in spinfer_baselines::registry() {
            let t = kernel
                .estimate_synthetic(&spec, 4096, 4096, 16, 0.5)
                .time_us();
            assert!(t > 0.0 && t.is_finite(), "{}: {t}", kernel.name());
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains("a"));
        assert!(t.lines().count() == 4);
    }
}
