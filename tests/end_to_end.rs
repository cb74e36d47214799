//! Cross-crate integration: prune → encode → simulated SpMM → serve.

use spinfer_suite::baselines::kernels::{CublasGemm, FlashLlmSpmm, SputnikSpmm};
use spinfer_suite::core::spmm::SpmmKernel;
use spinfer_suite::core::SpMMHandle;
use spinfer_suite::gpu_sim::matrix::{max_abs_diff, random_dense, ValueDist};
use spinfer_suite::gpu_sim::GpuSpec;
use spinfer_suite::llm::{simulate, Framework, InferenceConfig, ModelConfig};
use spinfer_suite::pruning::{reconstruction_error, wanda_prune, Calibration};

mod common;

#[test]
fn pruned_layer_flows_through_the_whole_stack() {
    let spec = GpuSpec::rtx4090();
    let (m, k, n) = (512usize, 256usize, 16usize);

    // Prune.
    let dense = random_dense(m, k, ValueDist::Normal { std: 0.05 }, 1001);
    let calib = Calibration::synthetic(k, 64, 1002);
    let pruned = wanda_prune(&dense, &calib, 0.6);
    assert!((pruned.sparsity() - 0.6).abs() < 0.02);
    assert!(reconstruction_error(&dense, &pruned, &calib) < 0.6);

    // Encode + multiply on every kernel; all must agree with the
    // reference product of the *pruned* weights.
    let x = random_dense(k, n, ValueDist::Normal { std: 0.5 }, 1003);
    let reference = pruned.matmul_ref(&x);

    let handle = SpMMHandle::encode(&pruned);
    let spinfer = handle.matmul(&spec, &x);
    assert!(max_abs_diff(spinfer.output.as_ref().unwrap(), &reference) < 0.2);

    let cublas = CublasGemm::new().run(&spec, &pruned, &x);
    assert!(max_abs_diff(cublas.output.as_ref().unwrap(), &reference) < 0.2);

    let flash = FlashLlmSpmm::new().run(&spec, &pruned, &x);
    assert!(max_abs_diff(flash.output.as_ref().unwrap(), &reference) < 0.2);

    let sputnik = SputnikSpmm::new().run(&spec, &pruned, &x);
    assert!(max_abs_diff(sputnik.output.as_ref().unwrap(), &reference) < 0.2);

    // The sparse kernel should also be the fastest at this shape.
    assert!(spinfer.time_us() < cublas.time_us());
    assert!(spinfer.time_us() < flash.time_us());
}

#[test]
fn serving_projection_uses_the_same_sparsity() {
    let spec = GpuSpec::rtx4090();
    let mk = |sparsity| {
        simulate(
            &spec,
            &InferenceConfig {
                model: ModelConfig::opt_13b(),
                framework: Framework::SpInfer,
                sparsity,
                batch: 16,
                input_len: 64,
                output_len: 128,
                tp: 1,
            },
        )
    };
    let r50 = mk(0.5);
    let r70 = mk(0.7);
    // Higher sparsity: less memory, more throughput.
    assert!(r70.memory.weights < r50.memory.weights);
    assert!(r70.tokens_per_sec > r50.tokens_per_sec);
}

#[test]
fn kernel_timing_consistency_between_both_devices() {
    // The same workload must be slower on the lower-bandwidth A6000 in
    // the memory-bound regime.
    let spec4090 = GpuSpec::rtx4090();
    let speca6000 = GpuSpec::a6000();
    let w = random_dense(1024, 1024, ValueDist::Uniform, 1004);
    let x = random_dense(1024, 16, ValueDist::Uniform, 1005);
    let t4090 = CublasGemm::new().run(&spec4090, &w, &x).time_us();
    let ta6000 = CublasGemm::new().run(&speca6000, &w, &x).time_us();
    assert!(ta6000 > t4090);
    let bw_ratio = spec4090.dram_bandwidth / speca6000.dram_bandwidth;
    let t_ratio = ta6000 / t4090;
    assert!(
        (t_ratio / bw_ratio - 1.0).abs() < 0.35,
        "ratio {t_ratio} vs bw {bw_ratio}"
    );
}

/// Absolute pins of `simulate`'s whole report (`{:?}` prints every f64
/// in round-trip form): every framework on OPT-13B at tp 1 and 2. The
/// dense frameworks at tp 1 are the out-of-memory cases (`oom: true`
/// is part of the pinned text).
#[test]
fn simulate_reports_match_pinned_digests() {
    let spec = GpuSpec::rtx4090();
    let pins: [(Framework, [u64; 2]); 5] = [
        (
            Framework::SpInfer,
            [0xb7bd_c125_99db_a1b6, 0xa0df_9f13_2dba_f0d4],
        ),
        (
            Framework::SpInferInt8,
            [0xa0c2_057d_3509_15a6, 0x6ef5_cab2_2429_15f2],
        ),
        (
            Framework::FlashLlm,
            [0x0464_384a_a75e_0a04, 0xdf9d_c108_dfbb_f9b4],
        ),
        (
            Framework::FasterTransformer,
            [0xbd3f_02b5_8b75_27eb, 0xfd8a_31a7_63e2_5583],
        ),
        (
            Framework::DeepSpeed,
            [0x968c_b5f1_7991_c941, 0x2e96_0d64_d960_0c25],
        ),
    ];
    let mut texts = Vec::new();
    for (framework, digests) in pins {
        for (tp, digest) in [1, 2].into_iter().zip(digests) {
            let report = simulate(
                &spec,
                &InferenceConfig {
                    model: ModelConfig::opt_13b(),
                    framework,
                    sparsity: 0.6,
                    batch: 16,
                    input_len: 64,
                    output_len: 128,
                    tp,
                },
            );
            let what = format!("{framework:?} tp {tp}");
            texts.push((what, format!("{report:?}"), digest));
        }
    }
    let pins: Vec<(&str, &str, u64)> = texts
        .iter()
        .map(|(what, text, digest)| (what.as_str(), text.as_str(), *digest))
        .collect();
    common::assert_pinned(&pins);
}
