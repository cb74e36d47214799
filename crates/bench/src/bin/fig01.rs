//! Figure 1: execution time of unstructured SpMM implementations vs
//! cuBLAS at M/K/N = 28672/8192/16 across sparsity levels.

use gpu_sim::GpuSpec;
use spinfer_bench::sweep::{self, SweepPoint};
use spinfer_bench::{kernels, render_table, save_csv, HERO_K, HERO_M};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sweep::configure_jobs(&args);
    let spec = GpuSpec::rtx4090();
    let n = 16;
    let kernels = kernels([
        "cuBLAS_TC",
        "cuSPARSE",
        "Sputnik",
        "SparTA",
        "Flash-LLM",
        "SpInfer",
    ]);
    let headers: Vec<&str> = std::iter::once("sparsity")
        .chain(kernels.iter().map(|k| k.name()))
        .collect();
    let sparsities = [0.4, 0.5, 0.6, 0.7, 0.8];

    // Fan the (sparsity × kernel) grid across host cores; times come
    // back in point order, so the assembled table is identical to the
    // serial loop at any job count.
    let points: Vec<SweepPoint> = sparsities
        .iter()
        .flat_map(|&s| {
            kernels.iter().map(move |kernel| SweepPoint {
                m: HERO_M,
                k: HERO_K,
                n,
                sparsity: s,
                kernel: kernel.clone(),
            })
        })
        .collect();
    let times = sweep::run_grid(&spec, points);

    let rows: Vec<Vec<String>> = sparsities
        .iter()
        .zip(times.chunks(kernels.len()))
        .map(|(s, kernel_times)| {
            std::iter::once(format!("{:.0}%", s * 100.0))
                .chain(kernel_times.iter().map(|t| format!("{t:.1}")))
                .collect()
        })
        .collect();
    println!(
        "Figure 1 — SpMM execution time (us) on {}, M/K/N={}/{}/{}",
        spec.name, HERO_M, HERO_K, n
    );
    println!("{}", render_table(&headers, &rows));
    println!(
        "Paper shape: only SpInfer beats cuBLAS at <=50% sparsity; \
         Flash-LLM crosses over near 60-70%; cuSPARSE is an order of \
         magnitude off."
    );
    save_csv("fig01", &headers, &rows);
}
