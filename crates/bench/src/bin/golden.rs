//! Golden-constant probe for the determinism suite.
//!
//! Prints, as ready-to-paste Rust array literals, the pinned values the
//! golden-counter test in `tests/determinism.rs` asserts: per-kernel
//! merged-counter digest, simulated-time bit pattern, and FP32 output
//! checksum for the fixed-seed functional shape (plus the two SpInfer
//! kernels at further batch widths and on shapes wider than one N
//! tile), and the analytic
//! simulated times for the fig01 hero shape. Run it after any hot-path
//! change: the output must be byte-identical to the constants already in
//! the test, or the change altered simulated results.
//!
//! ```text
//! cargo run --release -p spinfer-bench --bin golden
//! ```

use gpu_sim::exec;
use gpu_sim::matrix::checksum_f32;
use gpu_sim::GpuSpec;
use spinfer_bench::sweep::{run_functional, EncodeCache, SweepPoint};
use spinfer_bench::{kernels, HERO_K, HERO_M};

/// The functional golden shape: large enough to cross GroupTile and
/// split-K boundaries with ragged edges (900 and 720 are not multiples
/// of 64; 20 is not a multiple of 8), small enough for a debug-mode
/// test run.
const GOLDEN: (usize, usize, usize, f64, u64) = (900, 720, 20, 0.65, 1234);

/// Batch widths re-pinned for the two SpInfer kernels on the golden
/// shape: 1, 2 and 5 N-tiles of 8 columns (N = 20 above is 3), so the
/// batched `mma` sees an odd single tile, the decode-step pair, and a
/// wide odd batch.
const GOLDEN_N: [usize; 3] = [1, 16, 40];

/// Shapes wider than one 128-column N tile, pinned for the two SpInfer
/// kernels at the golden sparsity and seed: two, two and three N tiles,
/// the last one ragged at N = 257, on a ragged, a tall and a wide-K
/// weight.
const GOLDEN_WIDE: [(usize, usize, usize); 3] =
    [(300, 500, 136), (1024, 512, 200), (640, 1100, 257)];

/// The registered names, in the order the test's tables list them.
const PINNED: [&str; 8] = [
    "cuBLAS_TC",
    "SpInfer",
    "Flash-LLM",
    "SparTA",
    "Sputnik",
    "cuSPARSE",
    "SMaT",
    "SpInfer-INT8",
];

fn main() {
    let spec = GpuSpec::rtx4090();
    let (m, k, n, sparsity, seed) = GOLDEN;
    exec::set_jobs(1);

    println!("// Captured by `cargo run --release -p spinfer-bench --bin golden`.");
    println!(
        "// Functional golden shape: {m}x{k}x{n} s={sparsity} seed={seed} on {}.",
        spec.name
    );
    println!("const GOLDEN_FUNCTIONAL: [(&str, u64, u64, u64); 8] = [");
    let cache = EncodeCache::new();
    for kernel in kernels(PINNED) {
        let p = SweepPoint {
            m,
            k,
            n,
            sparsity,
            kernel,
        };
        let run = run_functional(&cache, &spec, &p, seed);
        let digest = run.chain.merged_counters().digest();
        let time_bits = run.time_us().to_bits();
        let checksum = checksum_f32(run.output.as_ref().expect("functional output"));
        println!(
            "    (\"{}\", {:#018x}, {:#018x}, {:#018x}),",
            p.kernel.name(),
            digest,
            time_bits,
            checksum
        );
    }
    println!("];");

    println!("// SpInfer kernels at N = {GOLDEN_N:?} on the functional golden shape.");
    println!("const GOLDEN_FUNCTIONAL_N: [(&str, usize, u64, u64, u64); 6] = [");
    for kernel in kernels(["SpInfer", "SpInfer-INT8"]) {
        for n in GOLDEN_N {
            let p = SweepPoint {
                m,
                k,
                n,
                sparsity,
                kernel: kernel.clone(),
            };
            let run = run_functional(&cache, &spec, &p, seed);
            println!(
                "    (\"{}\", {n}, {:#018x}, {:#018x}, {:#018x}),",
                kernel.name(),
                run.chain.merged_counters().digest(),
                run.time_us().to_bits(),
                checksum_f32(run.output.as_ref().expect("functional output"))
            );
        }
    }
    println!("];");

    println!("// SpInfer kernels past one N tile (m, k, n) at s={sparsity} seed={seed}.");
    println!("const GOLDEN_FUNCTIONAL_WIDE: [(&str, usize, usize, usize, u64, u64, u64); 6] = [");
    for kernel in kernels(["SpInfer", "SpInfer-INT8"]) {
        for (m, k, n) in GOLDEN_WIDE {
            let p = SweepPoint {
                m,
                k,
                n,
                sparsity,
                kernel: kernel.clone(),
            };
            let run = run_functional(&cache, &spec, &p, seed);
            println!(
                "    (\"{}\", {m}, {k}, {n}, {:#018x}, {:#018x}, {:#018x}),",
                kernel.name(),
                run.chain.merged_counters().digest(),
                run.time_us().to_bits(),
                checksum_f32(run.output.as_ref().expect("functional output"))
            );
        }
    }
    println!("];");

    println!(
        "// Analytic simulated time (µs, f64 bits) at the hero shape {HERO_M}x{HERO_K}x16 s=0.6."
    );
    println!("const GOLDEN_HERO_ANALYTIC: [(&str, u64); 8] = [");
    for kernel in kernels(PINNED) {
        let us = kernel
            .estimate_synthetic(&spec, HERO_M, HERO_K, 16, 0.6)
            .time_us();
        println!("    (\"{}\", {:#018x}),", kernel.name(), us.to_bits());
    }
    println!("];");
}
