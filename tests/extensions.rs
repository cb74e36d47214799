//! Integration tests over the beyond-paper extensions: adaptive format
//! selection, INT8×TCA-BME quantisation, autotuning, serving, and the
//! storage-formula / real-encoder cross-checks the memory model relies on.

use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
use gpu_sim::GpuSpec;
use spinfer_suite::baselines::{select, TiledCsl};
use spinfer_suite::core::spmm::LaunchCtx;
use spinfer_suite::core::{tune, FormatStats, SpMMHandle, TcaBme};
use spinfer_suite::llm::serving::{serve_ctx, LengthMix, ServingConfig};
use spinfer_suite::llm::{Framework, ModelConfig};
use spinfer_suite::pruning::QuantizedTcaBme;

/// The memory model uses closed-form storage formulas; they must track
/// real encoders across the sparsity range the paper evaluates.
#[test]
fn framework_storage_formulas_track_real_encoders() {
    for &s in &[0.4f64, 0.5, 0.6, 0.7] {
        let w = random_sparse(768, 768, s, ValueDist::Uniform, 401);
        // TCA-BME: synthetic stats vs real encoding.
        let enc = TcaBme::encode(&w);
        let formula = FormatStats::synthetic(768, 768, s).storage_bytes();
        let actual = enc.storage_bytes();
        let rel = (formula as f64 - actual as f64).abs() / actual as f64;
        assert!(rel < 0.02, "TCA-BME s={s}: formula {formula} vs {actual}");
        // Tiled-CSL: framework formula vs real encoding.
        let fw = Framework::FlashLlm.weight_bytes(768, 768, s);
        let real = TiledCsl::encode(&w).storage_bytes();
        let rel = (fw as f64 - real as f64).abs() / real as f64;
        assert!(rel < 0.02, "Tiled-CSL s={s}: formula {fw} vs {real}");
    }
}

/// Quantisation composes with the full stack: prune → encode → quantise
/// → dequantise → SpMM stays accurate, 4x smaller than dense.
#[test]
fn quantised_sparse_weights_through_the_kernel() {
    let spec = GpuSpec::rtx4090();
    let w = random_sparse(512, 256, 0.6, ValueDist::Normal { std: 0.05 }, 402);
    let x = random_dense(256, 16, ValueDist::Normal { std: 0.5 }, 403);
    let enc = TcaBme::encode(&w);
    let q = QuantizedTcaBme::quantize(&enc);
    assert!(q.storage_bytes() * 4 < w.dense_bytes() * 3 / 2);

    let handle = SpMMHandle {
        weights: q.dequantize(),
        kernel: Default::default(),
    };
    let out = handle.matmul(&spec, &x);
    let reference = w.matmul_ref(&x);
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (a, b) in out.output.as_ref().unwrap().iter().zip(&reference) {
        num += f64::from(a - b) * f64::from(a - b);
        den += f64::from(*b) * f64::from(*b);
    }
    let rel = (num / den.max(1e-12)).sqrt();
    assert!(rel < 0.02, "relative output error {rel}");
}

/// The adaptive selector reproduces the paper's regime boundaries
/// end-to-end: TCA-BME in the LLM band, block formats on clustered
/// scientific patterns.
#[test]
fn selector_matches_paper_regimes() {
    let spec = GpuSpec::rtx4090();
    let llm = random_sparse(768, 768, 0.55, ValueDist::Uniform, 404);
    assert_eq!(select(&spec, &llm, 16).kernel, "SpInfer");
    let sci = gpu_sim::matrix::random_sparse_clustered(
        1024,
        1024,
        16,
        0.02,
        0.7,
        ValueDist::Uniform,
        405,
    );
    assert_eq!(select(&spec, &sci, 16).kernel, "SMaT");
}

/// Autotuned configurations must never lose to the shipped default, and
/// the tuner must respond to shape (short-wide layers pick split-K).
#[test]
fn autotuner_dominates_defaults_across_shapes() {
    let spec = GpuSpec::rtx4090();
    for &(m, k) in &[(28672usize, 8192usize), (5120, 5120), (1024, 16384)] {
        let best = tune(&spec, m, k, 16, 0.6).best.time_us;
        let default = spinfer_suite::core::SpinferSpmm::new()
            .estimate(&spec, &FormatStats::synthetic(m, k, 0.6), 16)
            .time_us();
        assert!(best <= default * 1.001, "{m}x{k}: {best} vs {default}");
    }
}

/// The serving simulator and the static engine agree where they overlap:
/// a saturated server's token rate approaches the static batch=cap rate.
#[test]
fn serving_saturation_matches_static_engine() {
    let spec = GpuSpec::rtx4090();
    let cfg = ServingConfig {
        model: ModelConfig::opt_13b(),
        framework: Framework::SpInfer,
        sparsity: 0.6,
        tp: 2,
        max_batch: 16,
        arrival_rps: 100.0, // Overload: always a full batch.
        input_len: 64,
        output_len: 128,
        duration_sec: 60.0,
        mix: LengthMix::Uniform,
    };
    let served = serve_ctx(&LaunchCtx::new(&spec), &cfg);
    let static_run = spinfer_suite::llm::simulate(
        &spec,
        &spinfer_suite::llm::InferenceConfig {
            model: ModelConfig::opt_13b(),
            framework: Framework::SpInfer,
            sparsity: 0.6,
            batch: 16,
            input_len: 64,
            output_len: 128,
            tp: 2,
        },
    );
    let ratio = served.tokens_per_sec / static_run.tokens_per_sec;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "serving {} vs static {} (ratio {ratio})",
        served.tokens_per_sec,
        static_run.tokens_per_sec
    );
}
