//! The functional transformer: a real forward pass over the simulated
//! kernels.
//!
//! Linear layers execute through the same simulated kernels the paper
//! benchmarks — `SpInfer-SpMM` for TCA-BME weights, dense Tensor-Core
//! GEMM for dense weights — producing both *numerically real* logits and
//! accumulated *simulated device time*. Attention, LayerNorm and the FFN
//! activation run on the host in FP32 with FP16 KV storage, mirroring a
//! serving engine's non-GEMM kernels.
//!
//! There is one forward pass. It advances every sequence of a batch by
//! one token, with one simulated launch per linear layer for the whole
//! batch; [`BatchGenerator`](crate::model::batch::BatchGenerator) drives
//! it. Batch 1 is incremental decode, and prefill feeds prompt tokens
//! through the same path. The pass is generic over the weights' storage
//! ([`Linear`]); [`ModelRef`] picks the storage once per step.

use crate::config::ModelConfig;
use crate::model::kv_cache::KvCache;
use crate::model::ops::{gelu, layernorm, silu, softmax_inplace};
use crate::model::weights::{Linear, SparseTransformerWeights, TransformerWeights};
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;

/// Accumulated simulated-device telemetry for a generation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTelemetry {
    /// Simulated seconds spent in linear-layer kernels.
    pub linear_sec: f64,
    /// Simulated kernel launches issued.
    pub launches: usize,
    /// Forward passes executed (prompt + generated positions).
    pub positions: usize,
}

/// A model the generator can run: dense or pruned+encoded.
pub enum ModelRef<'a> {
    /// Dense weights through the GEMM baseline.
    Dense(&'a TransformerWeights),
    /// TCA-BME weights through SpInfer-SpMM.
    Sparse(&'a SparseTransformerWeights),
}

impl ModelRef<'_> {
    pub(crate) fn config(&self) -> ModelConfig {
        match self {
            ModelRef::Dense(w) => w.config,
            ModelRef::Sparse(w) => w.config,
        }
    }
}

/// Feeds `tokens[s]` to sequence `s` (whose KV cache is `caches[s]`) and
/// returns each sequence's next-token logits, accruing the linear
/// layers' simulated time and launches to `telemetry`. Panics as
/// [`BatchGenerator::step`](crate::model::batch::BatchGenerator::step)
/// documents.
pub(crate) fn forward<W: Linear>(
    model: &TransformerWeights<W>,
    spec: &GpuSpec,
    caches: &mut [KvCache],
    telemetry: &mut SimTelemetry,
    tokens: &[usize],
) -> Vec<Vec<f32>> {
    let b = tokens.len();
    let cfg = model.config;
    let h = cfg.hidden;
    let hd = cfg.head_dim();
    let kv_dim = cfg.kv_heads * hd;
    let group = cfg.heads / cfg.kv_heads;
    let scale = 1.0 / (hd as f32).sqrt();

    // x: per-sequence hidden state.
    let mut x: Vec<Vec<f32>> = tokens
        .iter()
        .map(|&t| {
            assert!(t < cfg.vocab, "token {t} out of vocabulary");
            (0..h).map(|c| model.embedding.get(t, c).to_f32()).collect()
        })
        .collect();

    let mut normed = vec![vec![0.0f32; h]; b];
    for (li, layer) in model.layers.iter().enumerate() {
        // --- Attention: one batched QKV launch for all sequences ---
        for (xi, ni) in x.iter().zip(normed.iter_mut()) {
            layernorm(xi, &layer.ln1_gain, &layer.ln1_bias, ni);
        }
        let qkv = batched_linear(&layer.qkv, spec, &normed, telemetry);

        // Append this position's K/V, then attend over the committed
        // positions from the cache and the current one from the fresh
        // projection. The position is committed after the last layer.
        let mut attn = vec![vec![0.0f32; h]; b];
        for (s, cache) in caches.iter_mut().enumerate() {
            let col = |r: usize| qkv[r * b + s];
            let committed = cache.len();
            for head in 0..cfg.kv_heads {
                let k_row: Vec<f32> = (0..hd).map(|i| col(h + head * hd + i)).collect();
                let v_row: Vec<f32> = (0..hd).map(|i| col(h + kv_dim + head * hd + i)).collect();
                cache.append(li, head, &k_row, &v_row);
            }
            let visible = committed + 1;
            for qh in 0..cfg.heads {
                let kvh = qh / group;
                let q: Vec<f32> = (0..hd).map(|i| col(qh * hd + i)).collect();
                let mut scores = Vec::with_capacity(visible);
                for pos in 0..visible {
                    let krow: Vec<f32> = if pos < committed {
                        cache.key(li, kvh, pos)
                    } else {
                        (0..hd).map(|i| col(h + kvh * hd + i)).collect()
                    };
                    scores.push(q.iter().zip(&krow).map(|(a, c)| a * c).sum::<f32>() * scale);
                }
                softmax_inplace(&mut scores);
                let out = &mut attn[s][qh * hd..(qh + 1) * hd];
                for (pos, &w) in scores.iter().enumerate() {
                    let vrow: Vec<f32> = if pos < committed {
                        cache.value(li, kvh, pos)
                    } else {
                        (0..hd).map(|i| col(h + kv_dim + kvh * hd + i)).collect()
                    };
                    for (o, v) in out.iter_mut().zip(&vrow) {
                        *o += w * v;
                    }
                }
            }
        }

        let proj = batched_linear(&layer.attn_out, spec, &attn, telemetry);
        for (s, xi) in x.iter_mut().enumerate() {
            for (r, v) in xi.iter_mut().enumerate() {
                *v += proj[r * b + s];
            }
        }

        // --- FFN ---
        for (xi, ni) in x.iter().zip(normed.iter_mut()) {
            layernorm(xi, &layer.ln2_gain, &layer.ln2_bias, ni);
        }
        let up = batched_linear(&layer.ffn_up, spec, &normed, telemetry);
        let ffn = cfg.ffn_hidden;
        let act: Vec<Vec<f32>> = (0..b)
            .map(|s| {
                if cfg.gated_ffn {
                    (0..ffn)
                        .map(|r| silu(up[r * b + s]) * up[(ffn + r) * b + s])
                        .collect()
                } else {
                    (0..ffn).map(|r| gelu(up[r * b + s])).collect()
                }
            })
            .collect();
        let down = batched_linear(&layer.ffn_down, spec, &act, telemetry);
        for (s, xi) in x.iter_mut().enumerate() {
            for (r, v) in xi.iter_mut().enumerate() {
                *v += down[r * b + s];
            }
        }
    }
    for cache in caches.iter_mut() {
        cache.commit();
    }

    // Final norm, column-interleaved for the tied LM head.
    let mut normed_t = vec![0.0f32; h * b];
    let mut buf = vec![0.0f32; h];
    for (s, xi) in x.iter().enumerate() {
        layernorm(xi, &model.ln_f_gain, &model.ln_f_bias, &mut buf);
        for (c, &v) in buf.iter().enumerate() {
            normed_t[c * b + s] = v;
        }
    }
    telemetry.positions += 1;
    lm_head(&model.embedding, &normed_t, b)
}

/// The tied LM head: each sequence's logits from the final-normed
/// states laid out column-interleaved (`normed_t[c * b + s]`). Each
/// embedding weight is widened once per step and multiplied into all `b`
/// running sums, each summed in ascending `c`, unfused, from
/// `Iterator::sum`'s start value: the bits of a per-sequence `sum`.
fn lm_head(embedding: &DenseMatrix, normed_t: &[f32], b: usize) -> Vec<Vec<f32>> {
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut out = vec![vec![0.0f32; embedding.rows()]; b];
    let mut acc = vec![start; b];
    let rows = embedding.as_slice().chunks_exact(embedding.cols());
    for (t, row) in rows.enumerate() {
        acc.fill(start);
        for (w, col) in row.iter().zip(normed_t.chunks_exact(b)) {
            let w = w.to_f32();
            for (a, &v) in acc.iter_mut().zip(col) {
                *a += w * v;
            }
        }
        for (logits, &a) in out.iter_mut().zip(&acc) {
            logits[t] = a;
        }
    }
    out
}

/// One batched `W × X` through the simulated kernel, `X` assembled
/// column-per-sequence; returns row-major `rows(W) × batch` FP32.
fn batched_linear<W: Linear>(
    w: &W,
    spec: &GpuSpec,
    cols: &[Vec<f32>],
    telemetry: &mut SimTelemetry,
) -> Vec<f32> {
    let b = cols.len();
    let k = cols[0].len();
    let mut data = vec![0.0f32; k * b];
    for (s, col) in cols.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            data[r * b + s] = v;
        }
    }
    let run = w.run(spec, &DenseMatrix::from_f32(k, b, &data));
    telemetry.linear_sec += run.chain.time_sec();
    telemetry.launches += run.chain.launches.len();
    run.output.expect("functional kernels return output")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::batch::BatchGenerator;
    use crate::model::weights::tiny_config;

    fn spec() -> GpuSpec {
        GpuSpec::rtx4090()
    }

    /// A single-sequence decoder: the batch-1 generator.
    fn decoder(model: ModelRef<'_>, max_positions: usize) -> BatchGenerator<'_> {
        BatchGenerator::new(model, spec(), 1, max_positions)
    }

    #[test]
    fn greedy_generation_is_deterministic_and_in_vocab() {
        let w = TransformerWeights::random(tiny_config(), 42);
        let a = decoder(ModelRef::Dense(&w), 32).generate(&[vec![1, 2, 3]], 8);
        let b = decoder(ModelRef::Dense(&w), 32).generate(&[vec![1, 2, 3]], 8);
        assert_eq!(a, b);
        assert!(a[0].iter().all(|&t| t < tiny_config().vocab));
        assert_eq!(a[0].len(), 8);
    }

    #[test]
    fn sparse_at_zero_sparsity_matches_dense_exactly() {
        let w = TransformerWeights::random(tiny_config(), 43);
        let sp = w.pruned(0.0, 44);
        let ld = decoder(ModelRef::Dense(&w), 16).step(&[5]);
        let ls = decoder(ModelRef::Sparse(&sp), 16).step(&[5]);
        for (a, b) in ld[0].iter().zip(&ls[0]) {
            assert!((a - b).abs() < 1e-3, "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn pruned_model_still_generates_and_is_close_at_low_sparsity() {
        let w = TransformerWeights::random(tiny_config(), 45);
        let sp = w.pruned(0.3, 46);
        let a = decoder(ModelRef::Dense(&w), 24).generate(&[vec![7, 8]], 6);
        let b = decoder(ModelRef::Sparse(&sp), 24).generate(&[vec![7, 8]], 6);
        assert_eq!(a[0].len(), b[0].len());
        // Pruning perturbs logits; sequences may diverge but must be valid.
        assert!(b[0].iter().all(|&t| t < tiny_config().vocab));
    }

    /// Next-token logits after every prefix of `tokens`, in f64 and
    /// without a cache: each layer projects K and V of every position
    /// from the dense weights, and position `p` attends causally over
    /// positions `0..=p`.
    fn causal_reference(w: &TransformerWeights, tokens: &[usize]) -> Vec<Vec<f64>> {
        let cfg = w.config;
        let (h, hd) = (cfg.hidden, cfg.head_dim());
        let kv_dim = cfg.kv_heads * hd;
        let layernorm = |x: &[f64], gain: &[f32], bias: &[f32]| -> Vec<f64> {
            let n = x.len() as f64;
            let mean = x.iter().sum::<f64>() / n;
            let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let inv = 1.0 / (var + 1e-5).sqrt();
            (0..x.len())
                .map(|i| (x[i] - mean) * inv * f64::from(gain[i]) + f64::from(bias[i]))
                .collect()
        };
        let matvec = |m: &gpu_sim::matrix::DenseMatrix, v: &[f64]| -> Vec<f64> {
            (0..m.rows())
                .map(|r| {
                    (0..m.cols())
                        .map(|c| f64::from(m.get(r, c).to_f32()) * v[c])
                        .sum()
                })
                .collect()
        };
        let mut x: Vec<Vec<f64>> = tokens
            .iter()
            .map(|&t| {
                (0..h)
                    .map(|c| f64::from(w.embedding.get(t, c).to_f32()))
                    .collect()
            })
            .collect();
        for l in &w.layers {
            let qkv: Vec<Vec<f64>> = x
                .iter()
                .map(|xp| matvec(&l.qkv, &layernorm(xp, &l.ln1_gain, &l.ln1_bias)))
                .collect();
            for (p, xp) in x.iter_mut().enumerate() {
                let mut attn = vec![0.0f64; h];
                for qh in 0..cfg.heads {
                    let kvh = qh / (cfg.heads / cfg.kv_heads);
                    let (k0, v0) = (h + kvh * hd, h + kv_dim + kvh * hd);
                    let scores: Vec<f64> = qkv[..=p]
                        .iter()
                        .map(|kp| {
                            (0..hd)
                                .map(|i| qkv[p][qh * hd + i] * kp[k0 + i])
                                .sum::<f64>()
                                / (hd as f64).sqrt()
                        })
                        .collect();
                    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let e: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                    let total: f64 = e.iter().sum();
                    for (vp, ej) in qkv[..=p].iter().zip(&e) {
                        for i in 0..hd {
                            attn[qh * hd + i] += ej / total * vp[v0 + i];
                        }
                    }
                }
                for (a, o) in xp.iter_mut().zip(matvec(&l.attn_out, &attn)) {
                    *a += o;
                }
                let up = matvec(&l.ffn_up, &layernorm(xp, &l.ln2_gain, &l.ln2_bias));
                let f = cfg.ffn_hidden;
                let act: Vec<f64> = if cfg.gated_ffn {
                    (0..f)
                        .map(|r| up[r] / (1.0 + (-up[r]).exp()) * up[f + r])
                        .collect()
                } else {
                    let gelu = |u: f64| {
                        0.5 * u
                            * (1.0 + (0.797_884_560_802_865_4 * (u + 0.044_715 * u * u * u)).tanh())
                    };
                    up.iter().map(|&u| gelu(u)).collect()
                };
                for (a, d) in xp.iter_mut().zip(matvec(&l.ffn_down, &act)) {
                    *a += d;
                }
            }
        }
        x.iter()
            .map(|xp| {
                let n = layernorm(xp, &w.ln_f_gain, &w.ln_f_bias);
                (0..cfg.vocab)
                    .map(|t| {
                        (0..h)
                            .map(|c| f64::from(w.embedding.get(t, c).to_f32()) * n[c])
                            .sum()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cached_decode_matches_causal_recompute_reference() {
        let mut gqa_gated = tiny_config();
        gqa_gated.kv_heads = 2;
        gqa_gated.gated_ffn = true;
        let tokens = [3, 90, 17, 3, 64, 5];
        for (cfg, seed) in [(tiny_config(), 47), (gqa_gated, 48)] {
            let w = TransformerWeights::random(cfg, seed);
            let reference = causal_reference(&w, &tokens);
            let mut g = decoder(ModelRef::Dense(&w), tokens.len());
            for (p, (&t, want)) in tokens.iter().zip(&reference).enumerate() {
                let got = g.step(&[t]);
                let (mut err2, mut ref2) = (0.0f64, 0.0f64);
                for (&a, &r) in got[0].iter().zip(want) {
                    err2 += (f64::from(a) - r).powi(2);
                    ref2 += r * r;
                }
                let rel = (err2 / ref2).sqrt();
                assert!(
                    rel < 5e-3,
                    "position {p}: rel L2 {rel:.3e} vs the causal reference"
                );
            }
        }
    }

    #[test]
    fn telemetry_accumulates_simulated_time() {
        let w = TransformerWeights::random(tiny_config(), 49);
        let mut g = decoder(ModelRef::Dense(&w), 8);
        g.generate(&[vec![1]], 3);
        assert!(g.telemetry.linear_sec > 0.0);
        // The final sampled token is never fed back, so 1 prompt + 2
        // feedback positions run: 4 linear kernels × 2 layers × 3.
        assert!(g.telemetry.launches >= 24);
        assert_eq!(g.telemetry.positions, 3);
    }

    #[test]
    fn gated_ffn_path_works() {
        let mut cfg = tiny_config();
        cfg.gated_ffn = true;
        let w = TransformerWeights::random(cfg, 50);
        let out = decoder(ModelRef::Dense(&w), 8).generate(&[vec![0]], 4);
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn gqa_path_works() {
        let mut cfg = tiny_config();
        cfg.kv_heads = 2; // 4 query heads sharing 2 KV heads.
        let w = TransformerWeights::random(cfg, 51);
        let out = decoder(ModelRef::Dense(&w), 8).generate(&[vec![2]], 4);
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn lm_head_matches_the_per_sequence_sum() {
        use gpu_sim::fp16::Half;
        use gpu_sim::matrix::{random_dense, ValueDist};
        let (vocab, h) = (24, 40);
        let mut emb = random_dense(vocab, h, ValueDist::Uniform, 53);
        // A row of zeros against sequence 0's all-negative hidden state:
        // every product is -0.0, so the logit's sign shows the sum's
        // start value.
        for c in 0..h {
            emb.set(5, c, Half::ZERO);
        }
        for b in [1, 3, 16] {
            let normed: Vec<Vec<f32>> = (0..b)
                .map(|s| {
                    (0..h)
                        .map(|c| match s {
                            0 => -1.0 - c as f32 / 8.0,
                            _ => ((s * 31 + c * 17) % 23) as f32 / 7.0 - 1.5,
                        })
                        .collect()
                })
                .collect();
            let normed_t: Vec<f32> = (0..h * b).map(|i| normed[i % b][i / b]).collect();
            let got = lm_head(&emb, &normed_t, b);
            for (s, logits) in got.iter().enumerate() {
                for (t, &logit) in logits.iter().enumerate() {
                    let want = (0..h)
                        .map(|c| emb.get(t, c).to_f32() * normed[s][c])
                        .sum::<f32>();
                    assert_eq!(logit.to_bits(), want.to_bits(), "batch {b} seq {s} row {t}");
                }
            }
            assert_eq!(got[0][5], 0.0, "a signed zero, its sign pinned above");
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let w = TransformerWeights::random(tiny_config(), 52);
        decoder(ModelRef::Dense(&w), 8).step(&[usize::MAX]);
    }
}
