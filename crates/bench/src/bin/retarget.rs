//! Cross-architecture retargeting check (paper §6: "its core techniques
//! are generalizable to other hardware architectures").
//!
//! Runs the headline kernel comparison on all three device sheets —
//! RTX4090 (Ada), A6000 (Ampere), and an A100-like part — from the same
//! data-driven `GpuSpec`, showing the speedup structure survives
//! retargeting (absolute times scale with each part's bandwidth).

use gpu_sim::GpuSpec;
use spinfer_bench::{kernels, render_table, save_csv, HERO_K, HERO_M};

fn main() {
    let headers = [
        "GPU",
        "BW (GB/s)",
        "cuBLAS (us)",
        "SpInfer (us)",
        "speedup",
        "Flash-LLM speedup",
        "SparTA speedup",
    ];
    let mut rows = Vec::new();
    let (n, s) = (16usize, 0.6f64);
    let roster = kernels(["cuBLAS_TC", "SpInfer", "Flash-LLM", "SparTA"]);
    for spec in [GpuSpec::rtx4090(), GpuSpec::a6000(), GpuSpec::a100_like()] {
        let [cb, sp, fl, st] = roster
            .each_ref()
            .map(|k| k.estimate_synthetic(&spec, HERO_M, HERO_K, n, s).time_us());
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.0}", spec.dram_bandwidth / 1e9),
            format!("{cb:.1}"),
            format!("{sp:.1}"),
            format!("{:.2}x", cb / sp),
            format!("{:.2}x", cb / fl),
            format!("{:.2}x", cb / st),
        ]);
    }
    println!(
        "Retargeting check — M/K/N={HERO_M}/{HERO_K}/{n}, sparsity {:.0}%:\n",
        s * 100.0
    );
    println!("{}", render_table(&headers, &rows));
    println!(
        "Reading: on the bandwidth-starved Ada/Ampere parts the speedup \
         tracks the compression ratio (the win is format-driven). On the \
         A100-like sheet — 1.5x the bandwidth but half the per-SM CUDA \
         throughput — SMBD's decode chain starts to bind and the margin \
         narrows: exactly the hardware sensitivity §6's call for sparse \
         tensor cores anticipates."
    );
    save_csv("retarget", &headers, &rows);
}
