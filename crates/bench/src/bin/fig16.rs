//! Figure 16: SpInfer vs cuBLAS_TC under small (decode) and large
//! (prefill) N — the paper's limitation discussion (§6): SpInfer can be
//! up to ~12% slower once the operation turns compute-bound.

use gpu_sim::GpuSpec;
use spinfer_bench::{kernels, render_table, save_csv, HERO_K, HERO_M};

fn main() {
    let spec = GpuSpec::rtx4090();
    let s = 0.6;
    let headers = [
        "N",
        "regime",
        "cuBLAS_TC (us)",
        "SpInfer (us)",
        "SpInfer speedup",
    ];
    let [cublas, spinfer] = kernels(["cuBLAS_TC", "SpInfer"]);
    let mut rows = Vec::new();
    for &n in &[8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192] {
        let cb = cublas
            .estimate_synthetic(&spec, HERO_M, HERO_K, n, s)
            .time_us();
        let sp = spinfer
            .estimate_synthetic(&spec, HERO_M, HERO_K, n, s)
            .time_us();
        let regime = if n <= 128 { "decode-ish" } else { "prefill" };
        rows.push(vec![
            n.to_string(),
            regime.into(),
            format!("{cb:.1}"),
            format!("{sp:.1}"),
            format!("{:.2}x", cb / sp),
        ]);
    }
    println!(
        "Figure 16 — small vs large N on {}, M={HERO_M}, K={HERO_K}, sparsity {:.0}%",
        spec.name,
        s * 100.0
    );
    println!("{}", render_table(&headers, &rows));
    println!(
        "Paper shape: large wins at decode batches; the advantage shrinks \
         as N grows and flips to a ~10% deficit in the compute-bound \
         prefill regime (paper: up to 11.8% slower)."
    );
    save_csv("fig16", &headers, &rows);
}
