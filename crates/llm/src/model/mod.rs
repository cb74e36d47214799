//! Functional transformer engine: real numerics through the simulated
//! kernels.
//!
//! The analytic engine in [`crate::engine`] answers "how fast"; this
//! module answers "is it *right*": a complete decoder (embedding, causal
//! attention with an FP16 KV cache, LayerNorm, GELU/SwiGLU FFN, tied LM
//! head, greedy sampling) whose linear layers run through the simulated
//! SpInfer-SpMM / dense GEMM kernels, producing bit-real logits plus
//! accumulated simulated device time.
//!
//! There is one forward pass ([`forward`]), run by [`BatchGenerator`]
//! over a batch of sequences; a batch of one is single-sequence
//! incremental decode, as [`evaluate`] uses it.

pub mod batch;
pub mod eval;
pub mod forward;
pub mod kv_cache;
pub mod ops;
pub mod weights;

pub use batch::BatchGenerator;
pub use eval::{evaluate, synthetic_stream, EvalResult};
pub use forward::{ModelRef, SimTelemetry};
pub use kv_cache::KvCache;
pub use weights::{
    tiny_config, LayerWeights, SparseLayerWeights, SparseTransformerWeights, TransformerWeights,
};
