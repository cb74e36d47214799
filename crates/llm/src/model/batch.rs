//! Batched functional decoding.
//!
//! The paper's decode evaluation runs batch sizes 8–32: every sequence
//! advances one token per step and the linear layers see an
//! `h × batch` activation tile. [`BatchGenerator`] reproduces that: one
//! simulated kernel launch per layer per step for the whole batch
//! (amortising weight reads exactly as the real kernels do), with
//! per-sequence KV caches and greedy sampling. A batch of one is
//! single-sequence incremental decode.

use crate::model::forward::{forward, ModelRef, SimTelemetry};
use crate::model::kv_cache::KvCache;
use crate::model::ops::argmax;
use gpu_sim::spec::GpuSpec;

/// Batched autoregressive generator.
pub struct BatchGenerator<'a> {
    model: ModelRef<'a>,
    spec: GpuSpec,
    caches: Vec<KvCache>,
    /// Telemetry accumulated so far (per-batch kernel launches).
    pub telemetry: SimTelemetry,
}

impl<'a> BatchGenerator<'a> {
    /// Creates a generator for `batch` sequences of up to `max_positions`.
    pub fn new(model: ModelRef<'a>, spec: GpuSpec, batch: usize, max_positions: usize) -> Self {
        assert!(batch >= 1);
        let cfg = model.config();
        let caches = (0..batch)
            .map(|_| KvCache::new(cfg.layers, cfg.kv_heads, cfg.head_dim(), max_positions))
            .collect();
        BatchGenerator {
            model,
            spec,
            caches,
            telemetry: SimTelemetry::default(),
        }
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.caches.len()
    }

    /// Feeds one token per sequence; returns each sequence's next-token
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics on out-of-vocabulary tokens or a full cache.
    pub fn step(&mut self, tokens: &[usize]) -> Vec<Vec<f32>> {
        assert_eq!(tokens.len(), self.batch(), "one token per sequence");
        let (spec, caches, telemetry) = (&self.spec, &mut self.caches, &mut self.telemetry);
        match self.model {
            ModelRef::Dense(w) => forward(w, spec, caches, telemetry, tokens),
            ModelRef::Sparse(w) => forward(w, spec, caches, telemetry, tokens),
        }
    }

    /// Greedy batched generation from one prompt per sequence (all the
    /// same length).
    pub fn generate(&mut self, prompts: &[Vec<usize>], n_new: usize) -> Vec<Vec<usize>> {
        let b = self.batch();
        assert_eq!(prompts.len(), b);
        let plen = prompts[0].len();
        assert!(plen >= 1 && prompts.iter().all(|p| p.len() == plen));
        let mut logits = Vec::new();
        for i in 0..plen {
            let tokens: Vec<usize> = prompts.iter().map(|p| p[i]).collect();
            logits = self.step(&tokens);
        }
        let mut out = vec![Vec::with_capacity(n_new); b];
        for round in 0..n_new {
            let next: Vec<usize> = logits.iter().map(|l| argmax(l)).collect();
            for (o, &t) in out.iter_mut().zip(&next) {
                o.push(t);
            }
            if round + 1 == n_new {
                break;
            }
            logits = self.step(&next);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::weights::{tiny_config, TransformerWeights};

    #[test]
    fn sequences_in_a_batch_are_independent() {
        // Sequence 0's logits must not depend on what sequence 1 decodes.
        let w = TransformerWeights::random(tiny_config(), 502);
        let spec = GpuSpec::rtx4090();
        let mut g1 = BatchGenerator::new(ModelRef::Dense(&w), spec.clone(), 2, 8);
        let a = g1.step(&[3, 7]);
        let mut g2 = BatchGenerator::new(ModelRef::Dense(&w), spec, 2, 8);
        let b = g2.step(&[3, 20]);
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert!((x - y).abs() < 1e-4, "cross-sequence leak: {x} vs {y}");
        }
        assert!(a[1].iter().zip(&b[1]).any(|(x, y)| (x - y).abs() > 1e-4));
    }

    #[test]
    fn batched_generate_shapes_and_determinism() {
        let w = TransformerWeights::random(tiny_config(), 503);
        let spec = GpuSpec::rtx4090();
        let prompts = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let mut g = BatchGenerator::new(ModelRef::Dense(&w), spec.clone(), 3, 16);
        let out = g.generate(&prompts, 5);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.len() == 5));
        let mut g2 = BatchGenerator::new(ModelRef::Dense(&w), spec, 3, 16);
        assert_eq!(out, g2.generate(&prompts, 5));
    }

    #[test]
    fn batching_amortises_simulated_weight_reads() {
        // One batched step launches the same kernels as a single step, so
        // per-sequence simulated linear time must shrink with batch.
        let w = TransformerWeights::random(tiny_config(), 504);
        let spec = GpuSpec::rtx4090();
        let mut b1 = BatchGenerator::new(ModelRef::Dense(&w), spec.clone(), 1, 8);
        b1.step(&[1]);
        let mut b8 = BatchGenerator::new(ModelRef::Dense(&w), spec, 8, 8);
        b8.step(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let per_seq_1 = b1.telemetry.linear_sec;
        let per_seq_8 = b8.telemetry.linear_sec / 8.0;
        assert!(
            per_seq_8 < per_seq_1 * 0.5,
            "batch-8 per-seq {per_seq_8} vs batch-1 {per_seq_1}"
        );
        assert_eq!(b1.telemetry.launches, b8.telemetry.launches);
    }

    #[test]
    fn sparse_batched_path_works() {
        let w = TransformerWeights::random(tiny_config(), 505);
        let sp = w.pruned(0.0, 506);
        let spec = GpuSpec::rtx4090();
        let mut gd = BatchGenerator::new(ModelRef::Dense(&w), spec.clone(), 2, 8);
        let mut gs = BatchGenerator::new(ModelRef::Sparse(&sp), spec, 2, 8);
        let a = gd.step(&[9, 10]);
        let b = gs.step(&[9, 10]);
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
