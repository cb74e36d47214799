//! Language-model evaluation over the functional engine.
//!
//! Computes per-token cross-entropy (and its exponential, perplexity) of
//! a model on a token stream — the metric the paper quotes for pruned
//! OPT-13B (Wanda@60% → WikiText ppl 15.9). With random weights the
//! absolute numbers are meaningless, but the *relationships* the paper
//! relies on are testable: sparse-at-0% matches dense exactly, and
//! perplexity degrades monotonically-ish with sparsity.

use crate::model::batch::BatchGenerator;
use crate::model::forward::ModelRef;
use crate::model::ops::softmax_inplace;
use gpu_sim::spec::GpuSpec;

/// Cross-entropy evaluation result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Mean negative log-likelihood per predicted token (nats).
    pub cross_entropy: f64,
    /// `exp(cross_entropy)` — perplexity.
    pub perplexity: f64,
    /// Tokens scored.
    pub tokens: usize,
}

/// Scores `stream` under the model: each position's logits are evaluated
/// against the next token. At least two tokens are required.
///
/// # Panics
///
/// Panics if `stream.len() < 2` or any token is out of vocabulary.
pub fn evaluate(model: ModelRef<'_>, spec: &GpuSpec, stream: &[usize]) -> EvalResult {
    assert!(stream.len() >= 2, "need at least two tokens to score");
    let mut generator = BatchGenerator::new(model, spec.clone(), 1, stream.len());
    let mut nll = 0.0f64;
    let mut scored = 0usize;
    for w in stream.windows(2) {
        let (cur, next) = (w[0], w[1]);
        let mut logits = generator.step(&[cur]).swap_remove(0);
        softmax_inplace(&mut logits);
        let p = f64::from(logits[next]).max(1e-12);
        nll -= p.ln();
        scored += 1;
    }
    let ce = nll / scored as f64;
    EvalResult {
        cross_entropy: ce,
        perplexity: ce.exp(),
        tokens: scored,
    }
}

/// Deterministic synthetic token stream with local repetition structure
/// (so a model can in principle do better than uniform guessing).
pub fn synthetic_stream(vocab: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut s = seed;
    let mut out = Vec::with_capacity(len);
    let mut prev = 0usize;
    for _ in 0..len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 50%: repeat-ish (stay near the previous token); 50%: jump.
        let t = if s & 1 == 0 {
            (prev + ((s >> 33) as usize % 3)) % vocab
        } else {
            (s >> 17) as usize % vocab
        };
        out.push(t);
        prev = t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::weights::{tiny_config, TransformerWeights};

    #[test]
    fn sparse_at_zero_matches_dense_perplexity() {
        let w = TransformerWeights::random(tiny_config(), 301);
        let sp = w.pruned(0.0, 302);
        let spec = GpuSpec::rtx4090();
        let stream = synthetic_stream(tiny_config().vocab, 12, 303);
        let d = evaluate(ModelRef::Dense(&w), &spec, &stream);
        let s = evaluate(ModelRef::Sparse(&sp), &spec, &stream);
        assert!(
            (d.cross_entropy - s.cross_entropy).abs() < 1e-4,
            "dense {} vs sparse@0 {}",
            d.cross_entropy,
            s.cross_entropy
        );
        assert_eq!(d.tokens, 11);
    }

    #[test]
    fn random_model_perplexity_is_near_uniform() {
        // An untrained model should sit near the uniform baseline
        // (perplexity ≈ vocab), sanity-checking the plumbing.
        let w = TransformerWeights::random(tiny_config(), 304);
        let spec = GpuSpec::rtx4090();
        let stream = synthetic_stream(tiny_config().vocab, 16, 305);
        let r = evaluate(ModelRef::Dense(&w), &spec, &stream);
        let vocab = tiny_config().vocab as f64;
        assert!(
            r.perplexity > vocab * 0.2 && r.perplexity < vocab * 5.0,
            "ppl {} vs vocab {vocab}",
            r.perplexity
        );
    }

    #[test]
    fn heavy_pruning_shifts_the_distribution() {
        // For a random model pruning cannot be said to *worsen* quality,
        // but it must change the predictive distribution measurably while
        // staying finite.
        let w = TransformerWeights::random(tiny_config(), 306);
        let spec = GpuSpec::rtx4090();
        let stream = synthetic_stream(tiny_config().vocab, 10, 307);
        let d = evaluate(ModelRef::Dense(&w), &spec, &stream);
        let sp = w.pruned(0.8, 308);
        let s = evaluate(ModelRef::Sparse(&sp), &spec, &stream);
        assert!(s.cross_entropy.is_finite());
        assert!((s.cross_entropy - d.cross_entropy).abs() > 1e-3);
    }

    #[test]
    fn stream_generator_is_deterministic_and_bounded() {
        let a = synthetic_stream(100, 50, 9);
        let b = synthetic_stream(100, 50, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t < 100));
        assert_ne!(a, synthetic_stream(100, 50, 10));
    }

    #[test]
    #[should_panic(expected = "two tokens")]
    fn short_stream_panics() {
        let w = TransformerWeights::random(tiny_config(), 309);
        evaluate(ModelRef::Dense(&w), &GpuSpec::rtx4090(), &[1]);
    }
}
