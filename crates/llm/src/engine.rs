//! End-to-end inference simulation (paper §5.2).
//!
//! Simulates autoregressive generation: one prefill pass over the prompt
//! followed by `output_len` decode steps, on `tp` tensor-parallel GPUs.
//! Linear layers go through the framework's simulated kernel (SpMM or
//! GEMM), attention through a bandwidth/compute model, communication
//! through the ring all-reduce model, and per-layer overhead covers the
//! non-GEMM kernels. Decode attention over a growing KV cache is summed
//! in closed form, so a full run costs a handful of kernel estimates.

use crate::breakdown::Breakdown;
use crate::config::ModelConfig;
use crate::frameworks::Framework;
use crate::memory::{footprint, MemoryReport};
use crate::parallel::layer_comm_sec;
use gpu_sim::spec::GpuSpec;
use gpu_sim::trace::{pids, TraceEvent};
use spinfer_core::spmm::LaunchCtx;

/// Fraction of peak DRAM bandwidth decode attention kernels achieve.
const MHA_BW_EFF: f64 = 0.7;
/// Fraction of peak Tensor-Core throughput prefill attention achieves.
const MHA_TC_EFF: f64 = 0.45;
/// Per-layer attention kernel launch floor.
const MHA_LAUNCH_SEC: f64 = 6.0e-6;

/// One end-to-end serving scenario.
#[derive(Clone, Copy, Debug)]
pub struct InferenceConfig {
    /// Model architecture.
    pub model: ModelConfig,
    /// Serving framework.
    pub framework: Framework,
    /// Weight sparsity for sparse frameworks (ignored by dense ones).
    pub sparsity: f64,
    /// Batch size.
    pub batch: usize,
    /// Prompt length.
    pub input_len: usize,
    /// Generated tokens per sequence.
    pub output_len: usize,
    /// Tensor-parallel GPU count.
    pub tp: usize,
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// Prefill latency in seconds.
    pub prefill_sec: f64,
    /// Mean decode step latency in seconds.
    pub per_step_sec: f64,
    /// Total wall time.
    pub total_sec: f64,
    /// Generated tokens per second (`batch × output_len / total`).
    pub tokens_per_sec: f64,
    /// Per-GPU memory footprint.
    pub memory: MemoryReport,
    /// Whether the footprint exceeds device capacity.
    pub oom: bool,
    /// Wall-time decomposition over the whole run.
    pub breakdown: Breakdown,
}

/// Linear-layer time of one forward pass over `n` tokens (all decoder
/// layers plus the LM head), for the serving-level simulators.
pub fn linear_pass_sec(
    spec: &GpuSpec,
    model: &ModelConfig,
    framework: Framework,
    sparsity: f64,
    tp: usize,
    n: usize,
) -> f64 {
    let mut t = 0.0;
    for mat in model.layer_matrices() {
        let (m, k) = if mat.col_parallel {
            (mat.m.div_ceil(tp), mat.k)
        } else {
            (mat.m, mat.k.div_ceil(tp))
        };
        t += framework.linear_sec(spec, m, k, n, sparsity) * mat.compute_instances as f64;
    }
    t *= model.layers as f64;
    t += Framework::FasterTransformer.linear_sec(
        spec,
        model.vocab.div_ceil(tp),
        model.hidden,
        n,
        0.0,
    );
    t
}

/// One decode iteration's non-linear time for a batch whose context
/// lengths sum to `sum_ctx` tokens: KV reads, comm, per-layer overhead.
pub fn decode_overhead_sec(
    spec: &GpuSpec,
    model: &ModelConfig,
    framework: Framework,
    tp: usize,
    batch: usize,
    sum_ctx: usize,
) -> f64 {
    let kv_bytes = (2 * model.kv_heads * model.head_dim() * 2 / tp) as f64
        * sum_ctx as f64
        * model.layers as f64;
    let mha = kv_bytes / (spec.dram_bandwidth * MHA_BW_EFF) + model.layers as f64 * MHA_LAUNCH_SEC;
    let comm = layer_comm_sec(spec, tp, batch, model.hidden) * model.layers as f64;
    let other = framework.layer_overhead_sec() * model.layers as f64;
    mha + comm + other
}

/// Simulates one scenario on the given device type.
/// # Examples
///
/// ```
/// use gpu_sim::GpuSpec;
/// use spinfer_llm::{simulate, Framework, InferenceConfig, ModelConfig};
///
/// let report = simulate(&GpuSpec::rtx4090(), &InferenceConfig {
///     model: ModelConfig::opt_13b(),
///     framework: Framework::SpInfer,
///     sparsity: 0.6,
///     batch: 16,
///     input_len: 64,
///     output_len: 128,
///     tp: 1,
/// });
/// assert!(!report.oom);
/// assert!(report.tokens_per_sec > 100.0);
/// ```
pub fn simulate(spec: &GpuSpec, cfg: &InferenceConfig) -> InferenceReport {
    simulate_ctx(&LaunchCtx::new(spec), cfg)
}

/// [`simulate`] against a capability bundle: the scenario's phases are
/// recorded as `prefill` / `decode` spans (simulation clock, seconds →
/// trace µs) when the context carries a trace sink. A bare context
/// reproduces [`simulate`] bit-identically — the report never depends
/// on what is attached.
pub fn simulate_ctx(ctx: &LaunchCtx<'_>, cfg: &InferenceConfig) -> InferenceReport {
    let spec = ctx.spec;
    assert!(cfg.tp >= 1 && cfg.batch >= 1 && cfg.output_len >= 1);
    let model = &cfg.model;
    let total_len = cfg.input_len + cfg.output_len;
    let memory = footprint(
        model,
        cfg.framework,
        cfg.sparsity,
        cfg.tp,
        cfg.batch,
        total_len,
    );
    let oom = memory.is_oom(spec);

    let linear_sec =
        |n: usize| linear_pass_sec(spec, model, cfg.framework, cfg.sparsity, cfg.tp, n);

    // --- Decode ---
    let lin_step = linear_sec(cfg.batch);
    // KV bytes read per decode step at context length L:
    // 2 (K,V) × kv_heads × head_dim × L × batch × 2 B, per layer, / tp.
    let kv_row = (2 * model.kv_heads * model.head_dim() * cfg.batch * 2 / cfg.tp) as f64;
    // Sum of context lengths over all decode steps (closed form).
    let sum_ctx: f64 = (0..cfg.output_len)
        .map(|t| (cfg.input_len + t + 1) as f64)
        .sum();
    let kv_bytes_total = kv_row * sum_ctx * model.layers as f64;
    let mha_decode_total = kv_bytes_total / (spec.dram_bandwidth * MHA_BW_EFF)
        + cfg.output_len as f64 * model.layers as f64 * MHA_LAUNCH_SEC;
    let comm_step = layer_comm_sec(spec, cfg.tp, cfg.batch, model.hidden) * model.layers as f64;
    let other_step = cfg.framework.layer_overhead_sec() * model.layers as f64;
    let decode_sec = cfg.output_len as f64 * (lin_step + comm_step + other_step) + mha_decode_total;

    // --- Prefill ---
    let prefill_tokens = cfg.batch * cfg.input_len;
    let lin_prefill = linear_sec(prefill_tokens.max(1));
    // Attention FLOPs: 2 matmuls (QKᵀ, PV) of b × heads × L² × head_dim.
    let mha_prefill_flops = 4.0
        * cfg.batch as f64
        * model.heads as f64
        * (cfg.input_len as f64).powi(2)
        * model.head_dim() as f64
        * model.layers as f64
        / cfg.tp as f64;
    let mha_prefill = mha_prefill_flops / (spec.peak_tc_flops() * MHA_TC_EFF)
        + model.layers as f64 * MHA_LAUNCH_SEC;
    let comm_prefill =
        layer_comm_sec(spec, cfg.tp, prefill_tokens, model.hidden) * model.layers as f64;
    let other_prefill = cfg.framework.layer_overhead_sec() * model.layers as f64;
    let prefill_sec = lin_prefill + mha_prefill + comm_prefill + other_prefill;

    let total_sec = prefill_sec + decode_sec;
    if let Some(sink) = ctx.sink {
        let track = (pids::SERVING, 1);
        sink.name_track(track, "inference sim (sim µs)", "engine");
        sink.record(TraceEvent::span(
            track,
            "prefill",
            "phase",
            0.0,
            prefill_sec * 1e6,
        ));
        sink.record(
            TraceEvent::span(
                track,
                "decode",
                "phase",
                prefill_sec * 1e6,
                decode_sec * 1e6,
            )
            .with_arg("steps", cfg.output_len as f64),
        );
    }
    let breakdown = Breakdown {
        linear: lin_prefill + cfg.output_len as f64 * lin_step,
        mha: mha_prefill + mha_decode_total,
        comm: comm_prefill + cfg.output_len as f64 * comm_step,
        other: other_prefill + cfg.output_len as f64 * other_step,
    };

    InferenceReport {
        prefill_sec,
        per_step_sec: decode_sec / cfg.output_len as f64,
        total_sec,
        tokens_per_sec: (cfg.batch * cfg.output_len) as f64 / total_sec,
        memory,
        oom,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(framework: Framework, batch: usize, tp: usize, output_len: usize) -> InferenceConfig {
        InferenceConfig {
            model: ModelConfig::opt_13b(),
            framework,
            sparsity: 0.6,
            batch,
            input_len: 64,
            output_len,
            tp,
        }
    }

    #[test]
    fn spinfer_beats_dense_frameworks() {
        let spec = GpuSpec::rtx4090();
        let sp = simulate(&spec, &cfg(Framework::SpInfer, 16, 2, 256));
        let ft = simulate(&spec, &cfg(Framework::FasterTransformer, 16, 2, 256));
        let ds = simulate(&spec, &cfg(Framework::DeepSpeed, 16, 2, 256));
        let fl = simulate(&spec, &cfg(Framework::FlashLlm, 16, 2, 256));
        assert!(sp.tokens_per_sec > fl.tokens_per_sec);
        assert!(fl.tokens_per_sec > ft.tokens_per_sec);
        assert!(ft.tokens_per_sec > ds.tokens_per_sec);
        // Paper-scale speedups: 1.2-1.7x over FT/Flash-LLM.
        let vs_ft = sp.tokens_per_sec / ft.tokens_per_sec;
        assert!(vs_ft > 1.15 && vs_ft < 2.0, "SpInfer vs FT {vs_ft}");
    }

    #[test]
    fn throughput_magnitude_matches_paper() {
        // Paper: OPT-13B, 1×RTX4090, BS=32: SpInfer > 1500 tokens/s.
        let spec = GpuSpec::rtx4090();
        let r = simulate(&spec, &cfg(Framework::SpInfer, 32, 1, 256));
        assert!(
            !r.oom,
            "SpInfer BS=32 must fit: {} GiB",
            r.memory.total_gib()
        );
        assert!(
            r.tokens_per_sec > 1200.0 && r.tokens_per_sec < 2600.0,
            "tokens/s {}",
            r.tokens_per_sec
        );
    }

    #[test]
    fn dense_13b_oom_on_one_4090_but_fits_two() {
        let spec = GpuSpec::rtx4090();
        assert!(simulate(&spec, &cfg(Framework::FasterTransformer, 8, 1, 256)).oom);
        assert!(!simulate(&spec, &cfg(Framework::FasterTransformer, 8, 2, 256)).oom);
    }

    #[test]
    fn linear_dominates_the_breakdown() {
        // Paper Figure 2: GEMM is ~62% of dense decode time.
        let spec = GpuSpec::rtx4090();
        let r = simulate(&spec, &cfg(Framework::FasterTransformer, 16, 2, 256));
        let f = r.breakdown.linear_fraction();
        assert!(f > 0.5 && f < 0.8, "linear fraction {f}");
    }

    #[test]
    fn comm_vanishes_on_single_gpu() {
        let spec = GpuSpec::rtx4090();
        let one = simulate(&spec, &cfg(Framework::SpInfer, 8, 1, 128));
        let two = simulate(&spec, &cfg(Framework::SpInfer, 8, 2, 128));
        assert_eq!(one.breakdown.comm, 0.0);
        assert!(two.breakdown.comm > 0.0);
    }

    #[test]
    fn throughput_grows_with_batch() {
        let spec = GpuSpec::rtx4090();
        let b8 = simulate(&spec, &cfg(Framework::SpInfer, 8, 1, 128));
        let b32 = simulate(&spec, &cfg(Framework::SpInfer, 32, 1, 128));
        assert!(b32.tokens_per_sec > 1.8 * b8.tokens_per_sec);
    }

    #[test]
    fn longer_outputs_slow_per_step_latency_via_kv() {
        let spec = GpuSpec::rtx4090();
        let short = simulate(&spec, &cfg(Framework::SpInfer, 16, 1, 64));
        let long = simulate(&spec, &cfg(Framework::SpInfer, 16, 1, 1024));
        assert!(long.per_step_sec > short.per_step_sec);
    }

    #[test]
    fn a6000_runs_opt66b_on_two_gpus_sparse_only() {
        let spec = GpuSpec::a6000();
        let mk = |fw| InferenceConfig {
            model: ModelConfig::opt_66b(),
            framework: fw,
            sparsity: 0.6,
            batch: 8,
            input_len: 64,
            output_len: 128,
            tp: 2,
        };
        let sp = simulate(&spec, &mk(Framework::SpInfer));
        let ft = simulate(&spec, &mk(Framework::FasterTransformer));
        assert!(
            !sp.oom,
            "SpInfer 66B/2×A6000: {} GiB",
            sp.memory.total_gib()
        );
        assert!(
            ft.oom,
            "dense 66B needs >2 A6000s: {} GiB",
            ft.memory.total_gib()
        );
    }

    #[test]
    fn simulate_ctx_traces_without_perturbing_the_report() {
        use gpu_sim::trace::TraceSink;
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 16, 1, 128);
        let plain = simulate(&spec, &c);
        let sink = TraceSink::new();
        let traced = simulate_ctx(&LaunchCtx::new(&spec).with_sink(&sink), &c);
        assert_eq!(plain.total_sec.to_bits(), traced.total_sec.to_bits());
        assert_eq!(
            plain.tokens_per_sec.to_bits(),
            traced.tokens_per_sec.to_bits()
        );
        let t = sink.finish();
        assert!(t.phase_names("phase").contains(&"prefill"));
        assert!(t.phase_names("phase").contains(&"decode"));
        // The two phase spans tile the scenario: decode starts where
        // prefill ends and the pair sums to the total wall time.
        let spans: Vec<_> = t.events.iter().filter(|e| e.dur_us > 0.0).collect();
        assert_eq!(spans.len(), 2);
        let total: f64 = spans.iter().map(|e| e.dur_us).sum();
        assert!((total - plain.total_sec * 1e6).abs() < 1e-6 * plain.total_sec * 1e6);
    }

    #[test]
    fn prefill_scales_with_input_length() {
        let spec = GpuSpec::rtx4090();
        let mut c = cfg(Framework::SpInfer, 8, 1, 64);
        c.input_len = 64;
        let short = simulate(&spec, &c);
        c.input_len = 512;
        let long = simulate(&spec, &c);
        assert!(long.prefill_sec > 2.0 * short.prefill_sec);
    }
}
