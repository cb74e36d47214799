//! Kernel explorer: sweep sparsity and batch size for an arbitrary
//! weight shape and print each kernel's simulated time, the roofline
//! classification, and the winner — a what-if tool for the question
//! "would pruning to X% actually speed my layer up?"
//!
//! Run with:
//! `cargo run --release --example kernel_explorer -- <M> <K> [gpu]`
//! e.g. `cargo run --release --example kernel_explorer -- 28672 8192 a6000`

use spinfer_suite::baselines::kernel_by_name;
use spinfer_suite::gpu_sim::GpuSpec;
use spinfer_suite::roofline::{attainable_flops, ci_gemm};

/// The kernels compared, by registered name, in column order.
const KERNELS: [&str; 6] = [
    "cuBLAS_TC",
    "SpInfer",
    "Flash-LLM",
    "SparTA",
    "Sputnik",
    "cuSPARSE",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let m: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(28672);
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8192);
    let spec = match args.get(3).map(String::as_str) {
        Some("a6000") => GpuSpec::a6000(),
        Some("a100") => GpuSpec::a100_like(),
        _ => GpuSpec::rtx4090(),
    };
    let kernels = KERNELS.map(|name| kernel_by_name(name).expect("registered kernel"));

    println!("Kernel explorer: W = {m}x{k} on {}", spec.name);
    print!("{:>4} {:>9} |", "N", "sparsity");
    for name in KERNELS {
        print!(" {name:>10}");
    }
    println!(" | {:>9} {:>8}", "winner", "regime");
    for n in [8usize, 16, 32, 256, 2048] {
        for s in [0.4, 0.5, 0.6, 0.7] {
            let times = kernels
                .each_ref()
                .map(|kernel| kernel.estimate_synthetic(&spec, m, k, n, s).time_us());
            let (winner, _) = KERNELS
                .iter()
                .zip(&times)
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty roster");
            let regime = if attainable_flops(&spec, ci_gemm(m, n)).memory_bound {
                "memory"
            } else {
                "compute"
            };
            print!("{:>4} {:>8.0}% |", n, s * 100.0);
            for t in &times {
                print!(" {:>10.1}", t);
            }
            println!(" | {:>9} {:>8}", winner, regime);
        }
    }
    println!("\nTimes in microseconds (simulated); winner = fastest kernel.");
}
