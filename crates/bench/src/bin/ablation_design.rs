//! Design-choice ablations beyond the paper's Table 1: GroupTile
//! geometry and split-K factor — the tunables DESIGN.md calls out.
//! Quantifies how much the shipped defaults matter.

use gpu_sim::GpuSpec;
use spinfer_bench::{render_table, save_csv, HERO_K, HERO_M};
use spinfer_core::{Ablation, FormatStats, SpinferSpmm, SpmmConfig, TcaBmeConfig};

fn main() {
    let spec = GpuSpec::rtx4090();
    let (n, s) = (16usize, 0.6f64);
    println!(
        "Design ablations on {}, M/K/N={HERO_M}/{HERO_K}/{n}, sparsity {:.0}%\n",
        spec.name,
        s * 100.0
    );

    // --- GroupTile geometry ---
    let headers = ["GroupTile", "storage CR", "time (us)", "vs 64x64"];
    let mut rows = Vec::new();
    let base_time = run_gt(&spec, 64, 64, n, s);
    for (r, c) in [(32, 64), (64, 64), (64, 128), (128, 64), (128, 128)] {
        let t = run_gt(&spec, r, c, n, s);
        let stats = FormatStats::synthetic_with_config(
            HERO_M,
            HERO_K,
            s,
            TcaBmeConfig {
                gt_rows: r,
                gt_cols: c,
            },
        );
        let cr = stats.dense_bytes() as f64 / stats.storage_bytes() as f64;
        rows.push(vec![
            format!("{r}x{c}"),
            format!("{cr:.3}"),
            format!("{t:.1}"),
            format!("{:+.1}%", 100.0 * (t / base_time - 1.0)),
        ]);
    }
    println!("GroupTile geometry (storage is geometry-invariant; time moves\nwith per-block work granularity):");
    println!("{}", render_table(&headers, &rows));
    save_csv("ablation_grouptile", &headers, &rows);

    // --- Split-K ---
    let headers2 = ["split_k", "grid blocks", "time (us)"];
    let mut rows2 = Vec::new();
    for sk in [1usize, 2, 4, 8, 16] {
        let kernel = SpinferSpmm {
            config: SpmmConfig {
                split_k: sk,
                ablation: Ablation::default(),
            },
        };
        let run = kernel.estimate(&spec, &FormatStats::synthetic(HERO_M, HERO_K, s), n);
        rows2.push(vec![
            sk.to_string(),
            run.chain.launches[0].shape.grid_blocks.to_string(),
            format!("{:.1}", run.time_us()),
        ]);
    }
    println!("Split-K (tall M already fills the device; short M needs it —\nsee `tune` tests):");
    println!("{}", render_table(&headers2, &rows2));
    save_csv("ablation_splitk", &headers2, &rows2);

    // --- Split-K on a short-M layer where it matters ---
    let headers3 = ["split_k", "time (us) M=1024"];
    let mut rows3 = Vec::new();
    for sk in [1usize, 2, 4, 8, 16] {
        let kernel = SpinferSpmm {
            config: SpmmConfig {
                split_k: sk,
                ablation: Ablation::default(),
            },
        };
        let t = kernel
            .estimate(&spec, &FormatStats::synthetic(1024, 16384, s), n)
            .time_us();
        rows3.push(vec![sk.to_string(), format!("{t:.1}")]);
    }
    println!("Split-K on a short-wide layer (M=1024, K=16384):");
    println!("{}", render_table(&headers3, &rows3));
    save_csv("ablation_splitk_short", &headers3, &rows3);
}

fn run_gt(spec: &GpuSpec, gt_rows: usize, gt_cols: usize, n: usize, s: f64) -> f64 {
    let stats =
        FormatStats::synthetic_with_config(HERO_M, HERO_K, s, TcaBmeConfig { gt_rows, gt_cols });
    SpinferSpmm::new().estimate(spec, &stats, n).time_us()
}
