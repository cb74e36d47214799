//! Transformer weights for the functional engine, with per-layer pruning
//! and TCA-BME encoding.
//!
//! Weights are randomly initialised at realistic scales (σ ∝ 1/√h). The
//! paper's deployment path — prune every linear layer with Wanda, keep
//! embeddings and the LM head dense — is reproduced by
//! [`TransformerWeights::pruned`]. One set of structs serves both forms:
//! they are generic over how a linear layer is stored ([`Linear`]).

use crate::config::ModelConfig;
use gpu_sim::matrix::{random_dense, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_baselines::kernels::CublasGemm;
use spinfer_core::spmm::{SpmmKernel, SpmmRun};
use spinfer_core::SpMMHandle;
use spinfer_pruning::{wanda_prune, Calibration};

/// Storage of a linear layer's weights: the simulated kernel that runs
/// it and the bytes it occupies.
pub trait Linear {
    /// `W × X` through this storage's simulated kernel.
    fn run(&self, spec: &GpuSpec, x: &DenseMatrix) -> SpmmRun;
    /// Stored bytes of `W`.
    fn stored_bytes(&self) -> usize;
}

/// Dense weights run on the cuBLAS_TC GEMM baseline.
impl Linear for DenseMatrix {
    fn run(&self, spec: &GpuSpec, x: &DenseMatrix) -> SpmmRun {
        CublasGemm::new().run(spec, self, x)
    }

    fn stored_bytes(&self) -> usize {
        self.dense_bytes()
    }
}

/// TCA-BME weights run on SpInfer-SpMM.
impl Linear for SpMMHandle {
    fn run(&self, spec: &GpuSpec, x: &DenseMatrix) -> SpmmRun {
        self.matmul(spec, x)
    }

    fn stored_bytes(&self) -> usize {
        self.storage_bytes()
    }
}

/// One decoder layer's parameters, its linears stored as `W`.
#[derive(Clone, Debug)]
pub struct LayerWeights<W = DenseMatrix> {
    /// Fused QKV projection, `(h + 2·kv) × h`.
    pub qkv: W,
    /// Attention output projection, `h × h`.
    pub attn_out: W,
    /// FFN up (or fused gate+up for SwiGLU), `ffn' × h`.
    pub ffn_up: W,
    /// FFN down, `h × ffn`.
    pub ffn_down: W,
    /// Pre-attention LayerNorm gain.
    pub ln1_gain: Vec<f32>,
    /// Pre-attention LayerNorm bias.
    pub ln1_bias: Vec<f32>,
    /// Pre-FFN LayerNorm gain.
    pub ln2_gain: Vec<f32>,
    /// Pre-FFN LayerNorm bias.
    pub ln2_bias: Vec<f32>,
}

/// Full model parameters, the decoder linears stored as `W`.
#[derive(Clone, Debug)]
pub struct TransformerWeights<W = DenseMatrix> {
    /// Architecture.
    pub config: ModelConfig,
    /// Dense token embedding, `vocab × h` (also used as the LM head, tied).
    pub embedding: DenseMatrix,
    /// Decoder layers.
    pub layers: Vec<LayerWeights<W>>,
    /// Final LayerNorm gain.
    pub ln_f_gain: Vec<f32>,
    /// Final LayerNorm bias.
    pub ln_f_bias: Vec<f32>,
}

/// One decoder layer with TCA-BME-encoded linears.
pub type SparseLayerWeights = LayerWeights<SpMMHandle>;

/// A pruned, encoded model ready for SpInfer-style serving.
pub type SparseTransformerWeights = TransformerWeights<SpMMHandle>;

impl TransformerWeights {
    /// Random initialisation at σ = 1/√h (keeps activations O(1) through
    /// the residual stream).
    pub fn random(config: ModelConfig, seed: u64) -> Self {
        let h = config.hidden;
        let kv = config.kv_heads * config.head_dim();
        let std = 1.0 / (h as f32).sqrt();
        let dist = ValueDist::Normal { std };
        let ffn_out = if config.gated_ffn {
            2 * config.ffn_hidden
        } else {
            config.ffn_hidden
        };
        let mut layers = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let s = seed.wrapping_add(1 + l as u64 * 10);
            layers.push(LayerWeights {
                qkv: random_dense(h + 2 * kv, h, dist, s),
                attn_out: random_dense(h, h, dist, s + 1),
                ffn_up: random_dense(ffn_out, h, dist, s + 2),
                ffn_down: random_dense(h, config.ffn_hidden, dist, s + 3),
                ln1_gain: vec![1.0; h],
                ln1_bias: vec![0.0; h],
                ln2_gain: vec![1.0; h],
                ln2_bias: vec![0.0; h],
            });
        }
        TransformerWeights {
            config,
            embedding: random_dense(config.vocab, h, ValueDist::Normal { std: 0.02 }, seed),
            layers,
            ln_f_gain: vec![1.0; h],
            ln_f_bias: vec![0.0; h],
        }
    }

    /// Prunes every linear layer with Wanda at `sparsity` and encodes it
    /// into TCA-BME (embeddings/LM head stay dense, as in the paper).
    pub fn pruned(&self, sparsity: f64, seed: u64) -> SparseTransformerWeights {
        let h = self.config.hidden;
        let calib_h = Calibration::synthetic(h, 32, seed);
        let calib_ffn = Calibration::synthetic(self.config.ffn_hidden, 32, seed + 1);
        let layers = self
            .layers
            .iter()
            .map(|l| SparseLayerWeights {
                qkv: SpMMHandle::encode(&wanda_prune(&l.qkv, &calib_h, sparsity)),
                attn_out: SpMMHandle::encode(&wanda_prune(&l.attn_out, &calib_h, sparsity)),
                ffn_up: SpMMHandle::encode(&wanda_prune(&l.ffn_up, &calib_h, sparsity)),
                ffn_down: SpMMHandle::encode(&wanda_prune(&l.ffn_down, &calib_ffn, sparsity)),
                ln1_gain: l.ln1_gain.clone(),
                ln1_bias: l.ln1_bias.clone(),
                ln2_gain: l.ln2_gain.clone(),
                ln2_bias: l.ln2_bias.clone(),
            })
            .collect();
        SparseTransformerWeights {
            config: self.config,
            embedding: self.embedding.clone(),
            layers,
            ln_f_gain: self.ln_f_gain.clone(),
            ln_f_bias: self.ln_f_bias.clone(),
        }
    }
}

impl<W: Linear> TransformerWeights<W> {
    /// Total stored bytes of the linear weights (excluding embeddings),
    /// for memory comparisons.
    pub fn linear_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.qkv.stored_bytes()
                    + l.attn_out.stored_bytes()
                    + l.ffn_up.stored_bytes()
                    + l.ffn_down.stored_bytes()
            })
            .sum()
    }
}

/// A miniature architecture for functional tests and examples: the full
/// decoder structure at laptop scale.
pub fn tiny_config() -> ModelConfig {
    ModelConfig {
        name: "Tiny-OPT",
        layers: 2,
        hidden: 64,
        heads: 4,
        kv_heads: 4,
        ffn_hidden: 256,
        vocab: 128,
        gated_ffn: false,
        experts: 1,
        active_experts: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_weights_have_expected_shapes() {
        let w = TransformerWeights::random(tiny_config(), 1);
        assert_eq!(w.layers.len(), 2);
        assert_eq!(w.layers[0].qkv.rows(), 64 + 2 * 64);
        assert_eq!(w.layers[0].qkv.cols(), 64);
        assert_eq!(w.layers[0].ffn_up.rows(), 256);
        assert_eq!(w.layers[0].ffn_down.cols(), 256);
        assert_eq!(w.embedding.rows(), 128);
    }

    #[test]
    fn pruning_reduces_storage() {
        let w = TransformerWeights::random(tiny_config(), 2);
        let sp = w.pruned(0.6, 3);
        assert!(sp.linear_bytes() < w.linear_bytes());
        // Each layer encoded with the requested sparsity.
        let s = 1.0
            - sp.layers[0].qkv.weights.nnz as f64
                / (sp.layers[0].qkv.weights.m * sp.layers[0].qkv.weights.k) as f64;
        assert!((s - 0.6).abs() < 0.05, "sparsity {s}");
    }

    #[test]
    fn zero_sparsity_pruning_keeps_values() {
        let w = TransformerWeights::random(tiny_config(), 4);
        let sp = w.pruned(0.0, 5);
        assert_eq!(sp.layers[0].qkv.weights.decode(), w.layers[0].qkv);
    }

    #[test]
    fn gated_config_doubles_ffn_up() {
        let mut cfg = tiny_config();
        cfg.gated_ffn = true;
        let w = TransformerWeights::random(cfg, 6);
        assert_eq!(w.layers[0].ffn_up.rows(), 512);
    }
}
