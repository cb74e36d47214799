//! Figure 10: kernel speedups over cuBLAS_TC across model-derived weight
//! shapes, batch sizes N ∈ {8, 16, 32} and sparsity ∈ {40..70%}, on both
//! RTX4090 and A6000.

use gpu_sim::GpuSpec;
use spinfer_bench::{
    figure10_shapes, geomean, kernels, render_table, save_csv, sweep, FIGURE10_KERNELS,
};
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sweep::configure_jobs(&args);
    for spec in [GpuSpec::rtx4090(), GpuSpec::a6000()] {
        run_platform(&spec);
    }
}

/// One (shape, N, sparsity) grid cell: every sparse kernel's speedup
/// over the dense baseline.
struct Cell {
    row: Vec<String>,
    speedups: Vec<f64>,
    sparsity_pct: u32,
}

fn run_platform(spec: &GpuSpec) {
    let roster = kernels(FIGURE10_KERNELS);
    let (dense, sparse_kernels) = roster.split_first().expect("non-empty roster");
    let headers: Vec<&str> = ["model", "M", "K", "N", "sparsity"]
        .into_iter()
        .chain(sparse_kernels.iter().map(|k| k.name()))
        .collect();

    // Fan (shape × N × sparsity) cells across host cores. Each cell is
    // a pure function of its point, and cells come back in grid order,
    // so tables and aggregates are identical to the serial loop at any
    // job count.
    let mut grid = Vec::new();
    for shape in figure10_shapes() {
        for &n in &[8usize, 16, 32] {
            for &sp in &[40u32, 50, 60, 70] {
                grid.push((shape, n, sp));
            }
        }
    }
    let cells = sweep::par_points(grid, |(shape, n, sp)| {
        let base = dense
            .estimate_synthetic(spec, shape.m, shape.k, n, 0.5)
            .time_us();
        let s = f64::from(sp) / 100.0;
        let mut row = vec![
            shape.model.to_string(),
            shape.m.to_string(),
            shape.k.to_string(),
            n.to_string(),
            format!("{sp}%"),
        ];
        let mut speedups = Vec::with_capacity(sparse_kernels.len());
        for kernel in sparse_kernels {
            let t = kernel
                .estimate_synthetic(spec, shape.m, shape.k, n, s)
                .time_us();
            let speedup = base / t;
            row.push(format!("{speedup:.2}"));
            speedups.push(speedup);
        }
        Cell {
            row,
            speedups,
            sparsity_pct: sp,
        }
    });

    let mut rows = Vec::new();
    let mut per_kernel: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut per_sparsity: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut spinfer_wins = 0usize;
    let mut cases = 0usize;
    for cell in cells {
        for (kernel, &speedup) in sparse_kernels.iter().zip(&cell.speedups) {
            per_kernel.entry(kernel.name()).or_default().push(speedup);
            if kernel.name() == "SpInfer" {
                per_sparsity
                    .entry(cell.sparsity_pct)
                    .or_default()
                    .push(speedup);
                cases += 1;
                if speedup > 1.0 {
                    spinfer_wins += 1;
                }
            }
        }
        rows.push(cell.row);
    }

    println!(
        "Figure 10 — speedup over cuBLAS_TC on {} ({} shapes x N x sparsity)",
        spec.name,
        figure10_shapes().len()
    );
    println!("{}", render_table(&headers, &rows));
    println!("Geomean speedup vs cuBLAS_TC on {}:", spec.name);
    for kernel in sparse_kernels {
        let g = geomean(&per_kernel[kernel.name()]);
        println!("  {:>10}: {:.2}x", kernel.name(), g);
    }
    println!("SpInfer geomean by sparsity:");
    for sp in [40u32, 50, 60, 70] {
        println!("  {:>3}%: {:.2}x", sp, geomean(&per_sparsity[&sp]));
    }
    println!(
        "SpInfer beats cuBLAS in {}/{} cases ({:.1}%)\n",
        spinfer_wins,
        cases,
        100.0 * spinfer_wins as f64 / cases as f64
    );
    save_csv(
        &format!("fig10_{}", spec.name.to_lowercase()),
        &headers,
        &rows,
    );
}
