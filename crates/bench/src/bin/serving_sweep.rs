//! Serving-level sweep (beyond the paper): continuous-batching load vs
//! latency/throughput per framework — the deployment consequence of the
//! paper's kernel and memory wins.

use gpu_sim::GpuSpec;
use spinfer_bench::{render_table, save_csv};
use spinfer_core::spmm::LaunchCtx;
use spinfer_llm::serving::{serve_ctx, LengthMix, ServingConfig};
use spinfer_llm::{Framework, ModelConfig};

fn main() {
    let spec = GpuSpec::rtx4090();
    let ctx = LaunchCtx::new(&spec);
    let headers = [
        "framework",
        "arrival rps",
        "served rps",
        "tokens/s",
        "mean batch",
        "p95 latency (s)",
    ];
    let mut rows = Vec::new();
    for fw in Framework::all() {
        for &rate in &[0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let cfg = ServingConfig {
                model: ModelConfig::opt_13b(),
                framework: fw,
                sparsity: 0.6,
                tp: 2,
                max_batch: 32,
                arrival_rps: rate,
                input_len: 64,
                output_len: 128,
                duration_sec: 120.0,
                mix: LengthMix::Uniform,
            };
            let r = serve_ctx(&ctx, &cfg);
            rows.push(vec![
                fw.label().to_string(),
                format!("{rate:.1}"),
                format!("{:.2}", r.throughput_rps),
                format!("{:.0}", r.tokens_per_sec),
                format!("{:.1}", r.mean_batch),
                format!("{:.2}", r.p95_latency_sec),
            ]);
        }
    }
    println!(
        "Continuous-batching serving sweep — OPT-13B on 2x{}, 60% sparsity,\n\
         in=64 out=128, iteration-level batching capped at 32:\n",
        spec.name
    );
    println!("{}", render_table(&headers, &rows));
    println!(
        "Reading: each framework tracks the offered load until its knee, \
         then saturates; SpInfer's knee sits at the highest rate (faster \
         steps and more KV headroom), and its p95 latency stays flat \
         longest."
    );
    save_csv("serving_sweep", &headers, &rows);
}
