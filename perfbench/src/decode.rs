//! `opt13b_decode`: one batch-16 decode step of a one-layer OPT-13B at
//! 60 % sparsity, with weights generated and TCA-BME-encoded in set-up.

use gpu_sim::counters::Counters;
use gpu_sim::fp16::Half;
use gpu_sim::matrix::{random_dense, random_sparse, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use gpu_sim::trace::{TraceEvent, TraceSink};
use spinfer_baselines::kernels::CublasGemm;
use spinfer_core::SpMMHandle;
use spinfer_llm::model::batch::BatchGenerator;
use spinfer_llm::model::forward::ModelRef;
use spinfer_llm::model::weights::{SparseLayerWeights, SparseTransformerWeights};
use spinfer_llm::ModelConfig;

use crate::harness::{sub_seed, Fnv, Metric, Tracer, Workload};

/// Names of the four linear matrices, in launch order.
pub const MATRICES: [&str; 4] = ["qkv", "attn_out", "ffn_up", "ffn_down"];

/// The decode workload at some model size.
pub struct Decode {
    /// Model architecture (one layer).
    pub model: ModelConfig,
    /// Sequences per step.
    pub batch: usize,
    /// Weight sparsity.
    pub sparsity: f64,
    /// Simulated device.
    pub spec: GpuSpec,
}

impl Decode {
    /// The benchmark's configuration: OPT-13B, one layer, batch 16.
    pub fn opt13b() -> Self {
        Decode {
            model: ModelConfig {
                layers: 1,
                vocab: 512,
                ..ModelConfig::opt_13b()
            },
            batch: 16,
            sparsity: 0.6,
            spec: GpuSpec::rtx4090(),
        }
    }
}

/// Set-up output: the pruned dense matrices (kept for the reference
/// check), the encoded model, and the step's tokens.
pub struct DecodeState {
    dense: [DenseMatrix; 4],
    weights: SparseTransformerWeights,
    tokens: Vec<usize>,
}

/// One step's outputs.
pub struct StepOut {
    logits: Vec<Vec<f32>>,
    linear_sec: f64,
    launches: usize,
}

impl Decode {
    fn handles<'a>(&self, st: &'a DecodeState) -> [&'a SpMMHandle; 4] {
        let l = &st.weights.layers[0];
        [&l.qkv, &l.attn_out, &l.ffn_up, &l.ffn_down]
    }
}

impl Workload for Decode {
    type State = DecodeState;
    type Output = StepOut;

    fn setup(&self, seed: u64, tr: &Tracer) -> DecodeState {
        let cfg = self.model;
        let h = cfg.hidden;
        let kv = cfg.kv_heads * cfg.head_dim();
        let dist = ValueDist::Normal {
            std: 1.0 / (h as f32).sqrt(),
        };
        let shapes = [
            (h + 2 * kv, h),
            (h, h),
            (cfg.ffn_hidden, h),
            (h, cfg.ffn_hidden),
        ];
        let (dense, embedding) = tr.span("gpu_sim.matrix.generate_s", || {
            let dense = std::array::from_fn(|i| {
                let (m, k) = shapes[i];
                random_sparse(m, k, self.sparsity, dist, sub_seed(seed, i as u64))
            });
            let emb = random_dense(
                cfg.vocab,
                h,
                ValueDist::Normal { std: 0.02 },
                sub_seed(seed, 4),
            );
            (dense, emb)
        });
        let [qkv, attn_out, ffn_up, ffn_down] = tr.span("core.tca_bme.encode_s", || {
            std::array::from_fn(|i| SpMMHandle::encode(&dense[i]))
        });
        let weights = SparseTransformerWeights {
            config: cfg,
            embedding,
            layers: vec![SparseLayerWeights {
                qkv,
                attn_out,
                ffn_up,
                ffn_down,
                ln1_gain: vec![1.0; h],
                ln1_bias: vec![0.0; h],
                ln2_gain: vec![1.0; h],
                ln2_bias: vec![0.0; h],
            }],
            ln_f_gain: vec![1.0; h],
            ln_f_bias: vec![0.0; h],
        };
        let tok_seed = sub_seed(seed, 5);
        let tokens = (0..self.batch)
            .map(|s| (sub_seed(tok_seed, s as u64) % cfg.vocab as u64) as usize)
            .collect();
        DecodeState {
            dense,
            weights,
            tokens,
        }
    }

    fn op(&self, st: &DecodeState, tr: &Tracer) -> Result<StepOut, String> {
        tr.span("llm.model.step_s", || {
            let mut g = BatchGenerator::new(
                ModelRef::Sparse(&st.weights),
                self.spec.clone(),
                self.batch,
                1,
            );
            let logits = g.step(&st.tokens);
            Ok(StepOut {
                logits,
                linear_sec: g.telemetry.linear_sec,
                launches: g.telemetry.launches,
            })
        })
    }

    fn digest(&self, out: &StepOut) -> u64 {
        let mut f = Fnv::default();
        for l in &out.logits {
            f.f32s(l);
        }
        f.f64(out.linear_sec).finish()
    }

    fn check(&self, st: &DecodeState, out: &StepOut) -> Result<(), String> {
        let reference = reference_step(&self.model, &st.dense, &st.weights.embedding, &st.tokens);
        let (mut err2, mut ref2, mut max_err) = (0.0f64, 0.0f64, 0.0f64);
        for (got, want) in out.logits.iter().zip(&reference) {
            for (&g, &w) in got.iter().zip(want) {
                let d = f64::from(g) - w;
                err2 += d * d;
                ref2 += w * w;
                max_err = max_err.max(d.abs());
            }
        }
        let rel = (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt();
        if out.logits.len() != self.batch || !(rel < 5e-3) {
            return Err(format!(
                "logits differ from the dense f64 reference: rel L2 {rel:.3e}, max |d| {max_err:.3e}"
            ));
        }
        eprintln!("decode reference: rel L2 {rel:.3e}, max |d| {max_err:.3e}");
        Ok(())
    }

    fn sim_metrics(&self, st: &DecodeState, out: &StepOut) -> Vec<Metric> {
        let stored: usize = self.handles(st).iter().map(|h| h.storage_bytes()).sum();
        let dense: usize = st.dense.iter().map(|d| d.dense_bytes()).sum();
        vec![
            Metric::sim("sim_step_us", out.linear_sec * 1e6, "us"),
            Metric::sim("weight_bytes_ratio", stored as f64 / dense as f64, "ratio"),
            Metric::sim(
                "sim_goodput_rps",
                self.batch as f64 / out.linear_sec,
                "req/s",
            ),
        ]
    }

    fn layer_metrics(&self, st: &DecodeState, out: &StepOut, tr: &Tracer) -> Vec<Metric> {
        let mut m = Vec::new();
        let mut counters = Counters::new();
        let (mut replay_host, mut cublas_us, mut spinfer_us) = (0.0, 0.0, 0.0);
        let mut phase_us = [0.0f64; PHASES.len()];
        let mut summary = Vec::new();
        let mut tracks = Vec::new();
        let mut ts_us = 0.0;
        for (i, h) in self.handles(st).into_iter().enumerate() {
            let x = random_dense(h.weights.k, self.batch, ValueDist::Uniform, 0x5eed + i as u64);
            let mut run = None;
            for _ in 0..REPLAYS {
                run = Some(tr.span(HOST_S[i], || h.matmul(&self.spec, &x)));
            }
            let run = run.expect("at least one replay");
            replay_host += tr.mean_s(HOST_S[i]);
            counters.merge(&run.chain.merged_counters());
            spinfer_us += run.time_us();
            m.push(Metric::sim(SIM_US[i], run.time_us(), "us"));
            cublas_us += CublasGemm::new()
                .estimate(&self.spec, h.weights.m, h.weights.k, self.batch)
                .time_us();
            // The traced launch's phases, summed over its block rows and
            // laid end to end on one simulated-clock track per matrix.
            let sink = TraceSink::new();
            h.kernel.run_traced(&self.spec, &h.weights, &x, &sink);
            let track = (PID_SIM, i as u32);
            tracks.push((track, "perfbench (simulated clock)".to_string(), MATRICES[i].to_string()));
            for row in spinfer_obs::phase_breakdown(&sink.finish()) {
                if let Some(p) = PHASES.iter().position(|(name, _)| *name == row.name) {
                    phase_us[p] += row.total_us;
                }
                summary.push(TraceEvent::span(track, row.name, "phase", ts_us, row.total_us));
                ts_us += row.total_us;
            }
        }
        tr.extend(summary, &tracks);
        for ((_, metric), us) in PHASES.iter().zip(phase_us) {
            m.push(Metric::sim(metric, us, "us"));
        }
        let storage: usize = self.handles(st).iter().map(|h| h.storage_bytes()).sum();
        let count = |name, v: u64| Metric::sim(name, v as f64, "count");
        m.extend([
            Metric::sim("gpu_sim.counters.dram_read_bytes", counters.dram_read_bytes as f64, "bytes"),
            count("gpu_sim.counters.smem_bank_conflicts", counters.smem_bank_conflicts),
            count("gpu_sim.counters.mma_insts", counters.mma_insts),
            count("gpu_sim.counters.insts_issued", counters.insts_issued),
            Metric::sim("core.tca_bme.storage_bytes", storage as f64, "bytes"),
            Metric::sim("core.spmm.sim_speedup_vs_cublas", cublas_us / spinfer_us, "x"),
            Metric::host("llm.model.host_ops_s", tr.mean_s("llm.model.step_s") - replay_host, "s"),
            count("llm.model.launches", out.launches as u64),
        ]);
        m
    }
}

/// Host-time replays of each matrix in the traced run; their mean is
/// `core.spmm.host_s.*`.
const REPLAYS: usize = 3;

/// Chrome-trace process id of the per-matrix simulated phase summary.
const PID_SIM: u32 = 101;

const HOST_S: [&str; 4] = [
    "core.spmm.host_s.qkv",
    "core.spmm.host_s.attn_out",
    "core.spmm.host_s.ffn_up",
    "core.spmm.host_s.ffn_down",
];

const SIM_US: [&str; 4] = [
    "core.spmm.sim_us.qkv",
    "core.spmm.sim_us.attn_out",
    "core.spmm.sim_us.ffn_up",
    "core.spmm.sim_us.ffn_down",
];

/// SpInfer-SpMM trace phases and their per-layer metric names.
const PHASES: [(&str, &str); 6] = [
    ("stream_w", "core.spmm.sim_phase_us.stream_w"),
    ("stream_x", "core.spmm.sim_phase_us.stream_x"),
    ("smbd_decode", "core.spmm.sim_phase_us.smbd_decode"),
    ("mma", "core.spmm.sim_phase_us.mma"),
    ("epilogue", "core.spmm.sim_phase_us.epilogue"),
    ("reduction", "core.spmm.sim_phase_us.reduction"),
];

/// The step recomputed independently of the simulated kernels: f64
/// products over the pruned dense matrices, with the same FP16 rounding
/// of each launch's input the model applies. A fresh cache holds only
/// the current position, so attention returns each head's value row.
fn reference_step(
    cfg: &ModelConfig,
    w: &[DenseMatrix; 4],
    emb: &DenseMatrix,
    tokens: &[usize],
) -> Vec<Vec<f64>> {
    let h = cfg.hidden;
    let kv = cfg.kv_heads * cfg.head_dim();
    let b = tokens.len();
    let mut x: Vec<Vec<f64>> = tokens
        .iter()
        .map(|&t| (0..h).map(|c| f64::from(emb.get(t, c).to_f32())).collect())
        .collect();
    let normed: Vec<Vec<f64>> = x.iter().map(|v| layernorm(v)).collect();
    let qkv = matmul_cols(&w[0], &normed);
    let attn: Vec<Vec<f64>> = (0..b)
        .map(|s| (h + kv..h + 2 * kv).map(|r| qkv[s][r]).collect())
        .collect();
    let proj = matmul_cols(&w[1], &attn);
    add(&mut x, &proj);
    let normed: Vec<Vec<f64>> = x.iter().map(|v| layernorm(v)).collect();
    let up = matmul_cols(&w[2], &normed);
    let act: Vec<Vec<f64>> = up
        .iter()
        .map(|col| col.iter().map(|&u| gelu(u)).collect())
        .collect();
    let down = matmul_cols(&w[3], &act);
    add(&mut x, &down);
    x.iter()
        .map(|v| {
            let n = layernorm(v);
            (0..cfg.vocab)
                .map(|t| {
                    (0..h)
                        .map(|c| f64::from(emb.get(t, c).to_f32()) * n[c])
                        .sum()
                })
                .collect()
        })
        .collect()
}

fn layernorm(x: &[f64]) -> Vec<f64> {
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let inv = 1.0 / (var + 1e-5).sqrt();
    x.iter().map(|v| (v - mean) * inv).collect()
}

fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + (0.797_884_560_802_865_4 * (x + 0.044_715 * x * x * x)).tanh())
}

fn add(x: &mut [Vec<f64>], y: &[Vec<f64>]) {
    for (xs, ys) in x.iter_mut().zip(y) {
        for (a, b) in xs.iter_mut().zip(ys) {
            *a += b;
        }
    }
}

/// `W × [x_0 … x_{b-1}]` in f64 over the non-zeros of `W`, each input
/// column rounded to FP16 first (the kernels take FP16 activations).
fn matmul_cols(w: &DenseMatrix, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let (m, k, b) = (w.rows(), w.cols(), cols.len());
    let mut xt = vec![0.0f64; k * b];
    for (s, col) in cols.iter().enumerate() {
        for (c, &v) in col.iter().enumerate() {
            xt[c * b + s] = f64::from(Half::from_f32(v as f32).to_f32());
        }
    }
    let mut out = vec![vec![0.0f64; m]; b];
    let mut acc = vec![0.0f64; b];
    let data = w.as_slice();
    for r in 0..m {
        acc.fill(0.0);
        for (c, wv) in data[r * k..(r + 1) * k].iter().enumerate() {
            if wv.is_zero() {
                continue;
            }
            let wv = f64::from(wv.to_f32());
            for (a, xv) in acc.iter_mut().zip(&xt[c * b..(c + 1) * b]) {
                *a += wv * xv;
            }
        }
        for (s, a) in acc.iter().enumerate() {
            out[s][r] = *a;
        }
    }
    out
}
