//! The paper's headline claims, pinned as executable assertions.
//!
//! Each test corresponds to a sentence in the paper; tolerances reflect
//! that our substrate is a simulator, not the authors' testbed — the
//! *shape* (who wins, roughly by how much, where crossovers sit) is what
//! is asserted. `EXPERIMENTS.md` records the measured values.

use gpu_sim::GpuSpec;
use spinfer_baselines::kernels::{
    CublasGemm, FlashLlmSpmm, FlashLlmStats, SpartaSpmm, SpartaStats,
};
use spinfer_bench::{figure10_shapes, geomean, kernels, FIGURE10_KERNELS, HERO_K, HERO_M};
use spinfer_core::spmm::DynSpmmKernel;
use spinfer_core::{FormatStats, SpinferSpmm};
use spinfer_llm::{simulate, Framework, InferenceConfig, ModelConfig};
use spinfer_roofline::{compression_ratio, FormatKind};

/// §1: "SpInfer outperforms cuBLAS at sparsity levels as low as 30%".
#[test]
fn claim_wins_at_30_percent_sparsity() {
    let spec = GpuSpec::rtx4090();
    let cb = CublasGemm::new()
        .estimate(&spec, HERO_M, HERO_K, 16)
        .time_us();
    let sp = SpinferSpmm::new()
        .estimate(&spec, &FormatStats::synthetic(HERO_M, HERO_K, 0.3), 16)
        .time_us();
    assert!(cb / sp > 1.0, "speedup at 30%: {}", cb / sp);
}

/// §5.1: "up to 2.14x over Flash-LLM and 2.27x over SparTA".
#[test]
fn claim_beats_flash_llm_and_sparta_everywhere() {
    let spec = GpuSpec::rtx4090();
    let mut max_fl: f64 = 0.0;
    let mut max_st: f64 = 0.0;
    for &s in &[0.4, 0.5, 0.6, 0.7] {
        let sp = SpinferSpmm::new()
            .estimate(&spec, &FormatStats::synthetic(HERO_M, HERO_K, s), 16)
            .time_us();
        let fl = FlashLlmSpmm::new()
            .estimate(&spec, &FlashLlmStats::synthetic(HERO_M, HERO_K, s), 16)
            .time_us();
        let st = SpartaSpmm::new()
            .estimate(&spec, &SpartaStats::synthetic(HERO_M, HERO_K, s), 16)
            .time_us();
        assert!(sp < fl && sp < st, "sparsity {s}");
        max_fl = max_fl.max(fl / sp);
        max_st = max_st.max(st / sp);
    }
    // Paper peaks: 2.14x / 2.27x; allow the simulator a generous band.
    assert!(max_fl > 1.3 && max_fl < 3.0, "max vs Flash-LLM {max_fl}");
    assert!(max_st > 1.3 && max_st < 3.5, "max vs SparTA {max_st}");
}

/// §5.1: average speedups over cuBLAS by sparsity (1.46x @40%,
/// 1.66x @50%, 1.90x @70% in the paper).
#[test]
fn claim_average_speedup_grows_with_sparsity() {
    let spec = GpuSpec::rtx4090();
    let [cublas, spinfer] = kernels(["cuBLAS_TC", "SpInfer"]);
    let mut avg = Vec::new();
    for &s in &[0.4, 0.5, 0.7] {
        let mut v = Vec::new();
        for shape in figure10_shapes() {
            for &n in &[8usize, 16, 32] {
                let cb = cublas
                    .estimate_synthetic(&spec, shape.m, shape.k, n, s)
                    .time_us();
                let sp = spinfer
                    .estimate_synthetic(&spec, shape.m, shape.k, n, s)
                    .time_us();
                v.push(cb / sp);
            }
        }
        avg.push(geomean(&v));
    }
    assert!(avg[0] > 1.2 && avg[0] < 1.9, "40%: {}", avg[0]);
    assert!(avg[1] > avg[0], "50% must beat 40%");
    assert!(avg[2] > avg[1], "70% must beat 50%");
    assert!(avg[2] < 3.2, "70%: {}", avg[2]);
}

/// §5.1: "at 50% ... outperforming all other kernels on 96.30% of test
/// cases"; we require a win rate above 90% across the zoo.
#[test]
fn claim_win_rate_at_50_percent() {
    let spec = GpuSpec::rtx4090();
    let (spinfer, others): (Vec<_>, Vec<_>) = kernels(FIGURE10_KERNELS)
        .into_iter()
        .partition(|k| k.name() == "SpInfer");
    let mut wins = 0;
    let mut total = 0;
    for shape in figure10_shapes() {
        for &n in &[8usize, 16, 32] {
            let time = |k: &DynSpmmKernel| {
                k.estimate_synthetic(&spec, shape.m, shape.k, n, 0.5)
                    .time_us()
            };
            let sp = time(&spinfer[0]);
            let all_better = others.iter().all(|k| sp < time(k));
            total += 1;
            if all_better {
                wins += 1;
            }
        }
    }
    let rate = f64::from(wins) / f64::from(total);
    assert!(rate > 0.9, "win rate {rate}");
}

/// §3.2.1 / Figure 3: TCA-BME keeps CR > 1 from 10% sparsity on, while
/// CSR needs ~67% and Tiled-CSL 50%.
#[test]
fn claim_compression_crossovers() {
    assert!(compression_ratio(FormatKind::TcaBme, 4096, 4096, 0.1) > 1.0);
    assert!(compression_ratio(FormatKind::Csr, 4096, 4096, 0.6) < 1.0);
    assert!(compression_ratio(FormatKind::Csr, 4096, 4096, 0.75) > 1.0);
    assert!(compression_ratio(FormatKind::TiledCsl, 4096, 4096, 0.45) < 1.0);
    assert!(compression_ratio(FormatKind::TiledCsl, 4096, 4096, 0.55) > 1.0);
}

/// §6 / Figure 16: in the compute-bound prefill regime SpInfer is at most
/// modestly slower than cuBLAS (paper: up to 11.8%; we allow 20%).
#[test]
fn claim_prefill_deficit_is_bounded() {
    let spec = GpuSpec::rtx4090();
    let [cublas, spinfer] = kernels(["cuBLAS_TC", "SpInfer"]);
    for &n in &[2048usize, 4096] {
        let cb = cublas
            .estimate_synthetic(&spec, HERO_M, HERO_K, n, 0.6)
            .time_us();
        let sp = spinfer
            .estimate_synthetic(&spec, HERO_M, HERO_K, n, 0.6)
            .time_us();
        let deficit = sp / cb - 1.0;
        assert!(deficit < 0.20, "N={n}: {:.1}% slower", deficit * 100.0);
    }
}

/// §5.2: end-to-end speedups on RTX4090 — paper averages 1.35x / 1.42x /
/// 1.49x over Flash-LLM / FT / DS.
#[test]
fn claim_end_to_end_speedups() {
    let spec = GpuSpec::rtx4090();
    let run = |fw| {
        simulate(
            &spec,
            &InferenceConfig {
                model: ModelConfig::opt_13b(),
                framework: fw,
                sparsity: 0.6,
                batch: 16,
                input_len: 64,
                output_len: 256,
                tp: 2,
            },
        )
        .tokens_per_sec
    };
    let sp = run(Framework::SpInfer);
    let fl = sp / run(Framework::FlashLlm);
    let ft = sp / run(Framework::FasterTransformer);
    let ds = sp / run(Framework::DeepSpeed);
    assert!(fl > 1.1 && fl < 1.8, "vs Flash-LLM {fl}");
    assert!(ft > fl, "FT must trail Flash-LLM");
    assert!(ds > ft, "DS must trail FT");
    assert!(ds < 2.2, "vs DS {ds}");
}

/// §5.2: "SpInfer's 60%-sparsity OPT-13B consumes ~14.4 GB vs the dense
/// baseline's 27.4 GB (47.5% reduction)"; and the OOM asymmetry: SpInfer
/// reaches 1024 output tokens on one 4090 where Flash-LLM stops at 256.
#[test]
fn claim_memory_reduction_and_oom_asymmetry() {
    let spec = GpuSpec::rtx4090();
    let mk = |fw, out| {
        simulate(
            &spec,
            &InferenceConfig {
                model: ModelConfig::opt_13b(),
                framework: fw,
                sparsity: 0.6,
                batch: 8,
                input_len: 64,
                output_len: out,
                tp: 1,
            },
        )
    };
    let sp = mk(Framework::SpInfer, 1024);
    assert!(
        !sp.oom,
        "SpInfer @1024 must fit: {} GiB",
        sp.memory.total_gib()
    );
    let fl = mk(Framework::FlashLlm, 1024);
    assert!(
        fl.oom,
        "Flash-LLM @1024 must OOM: {} GiB",
        fl.memory.total_gib()
    );
    let fl_short = mk(Framework::FlashLlm, 128);
    assert!(!fl_short.oom, "Flash-LLM @128 should fit");

    // Memory reduction vs dense at the paper's BS=16/len-256 point.
    let dense = simulate(
        &spec,
        &InferenceConfig {
            model: ModelConfig::opt_13b(),
            framework: Framework::FasterTransformer,
            sparsity: 0.0,
            batch: 16,
            input_len: 64,
            output_len: 256,
            tp: 1,
        },
    );
    let spm = simulate(
        &spec,
        &InferenceConfig {
            model: ModelConfig::opt_13b(),
            framework: Framework::SpInfer,
            sparsity: 0.6,
            batch: 16,
            input_len: 64,
            output_len: 256,
            tp: 1,
        },
    );
    let reduction = 1.0 - spm.memory.total() as f64 / dense.memory.total() as f64;
    assert!((reduction - 0.475).abs() < 0.15, "reduction {reduction}");
}

/// Table 1: ablation ordering — full < w/o AsyncPipe < w/o SMBD in
/// duration, with SMBD the bigger contributor.
#[test]
fn claim_ablation_ordering() {
    use spinfer_core::Ablation;
    let spec = GpuSpec::rtx4090();
    let stats = FormatStats::synthetic(HERO_M, HERO_K, 0.6);
    let t = |smbd, async_pipe| {
        SpinferSpmm::with_ablation(Ablation { smbd, async_pipe })
            .estimate(&spec, &stats, 16)
            .time_us()
    };
    let full = t(true, true);
    let no_async = t(true, false);
    let no_smbd = t(false, true);
    assert!(full < no_async && no_async < no_smbd);
    // Paper: +2% and +10%; we accept anything within [+1%, +60%].
    assert!(no_async / full > 1.01 && no_async / full < 1.6);
    assert!(no_smbd / full > 1.05 && no_smbd / full < 1.6);
}
