//! Absolute pins of the functional transformer: logits bits, simulated
//! telemetry and greedy tokens of single-sequence and batched decode,
//! and the cross-entropy `evaluate` reports.
//!
//! The relative tests in `spinfer_llm::model` compare one path against
//! another, so a change that moves both alike passes them; these pins
//! catch it. Every float is hashed by its bits.

use gpu_sim::GpuSpec;
use spinfer_llm::model::{
    evaluate, synthetic_stream, tiny_config, BatchGenerator, ModelRef, SimTelemetry,
    TransformerWeights,
};
use std::fmt::Write;

mod common;

fn push_logits(text: &mut String, logits: &[f32]) {
    for l in logits {
        write!(text, "{:08x}", l.to_bits()).unwrap();
    }
    text.push('\n');
}

fn push_telemetry(text: &mut String, t: &SimTelemetry) {
    writeln!(
        text,
        "linear_sec {:016x} launches {} positions {}",
        t.linear_sec.to_bits(),
        t.launches,
        t.positions
    )
    .unwrap();
}

/// Four fed tokens, then greedy generation of four more from a fresh
/// prompt position, through one single-sequence decoder.
fn single_sequence_text(model: ModelRef<'_>) -> String {
    let mut g = BatchGenerator::new(model, GpuSpec::rtx4090(), 1, 16);
    let mut text = String::new();
    for t in [5, 17, 3, 42] {
        push_logits(&mut text, &g.step(&[t])[0]);
    }
    let tokens = &g.generate(&[vec![9]], 4)[0];
    writeln!(text, "tokens {tokens:?}").unwrap();
    push_telemetry(&mut text, &g.telemetry);
    text
}

/// Three fed steps of three sequences, then batched greedy generation.
fn batch_of_three_text(model: ModelRef<'_>) -> String {
    let mut g = BatchGenerator::new(model, GpuSpec::rtx4090(), 3, 16);
    let mut text = String::new();
    for tokens in [[5, 17, 3], [42, 0, 127], [8, 8, 8]] {
        for logits in g.step(&tokens) {
            push_logits(&mut text, &logits);
        }
    }
    let tokens = g.generate(&[vec![1, 2], vec![3, 4], vec![5, 6]], 4);
    writeln!(text, "tokens {tokens:?}").unwrap();
    push_telemetry(&mut text, &g.telemetry);
    text
}

#[test]
fn single_sequence_decode_matches_pinned_digests() {
    let dense = TransformerWeights::random(tiny_config(), 11);
    let sparse = dense.pruned(0.6, 12);
    let mut gated_cfg = tiny_config();
    gated_cfg.gated_ffn = true;
    let gated = TransformerWeights::random(gated_cfg, 13).pruned(0.5, 14);
    let mut gqa_cfg = tiny_config();
    gqa_cfg.kv_heads = 2;
    let gqa = TransformerWeights::random(gqa_cfg, 15);
    let gqa_sparse = gqa.pruned(0.3, 16);
    common::assert_pinned(&[
        (
            "dense",
            &single_sequence_text(ModelRef::Dense(&dense)),
            0xbc00_ffce_2b97_58be,
        ),
        (
            "sparse 0.6",
            &single_sequence_text(ModelRef::Sparse(&sparse)),
            0x2d3d_e278_f396_92ec,
        ),
        (
            "gated sparse 0.5",
            &single_sequence_text(ModelRef::Sparse(&gated)),
            0x1f09_25db_2049_3dcf,
        ),
        (
            "gqa dense",
            &single_sequence_text(ModelRef::Dense(&gqa)),
            0x1bd8_debf_db11_4cbf,
        ),
        (
            "gqa sparse 0.3",
            &single_sequence_text(ModelRef::Sparse(&gqa_sparse)),
            0x53e7_efd6_4f5c_aa21,
        ),
    ]);
}

#[test]
fn batched_decode_matches_pinned_digests() {
    let dense = TransformerWeights::random(tiny_config(), 21);
    let sparse = dense.pruned(0.6, 22);
    common::assert_pinned(&[
        (
            "batch 3 dense",
            &batch_of_three_text(ModelRef::Dense(&dense)),
            0xbb4c_59fd_acf1_1b5d,
        ),
        (
            "batch 3 sparse 0.6",
            &batch_of_three_text(ModelRef::Sparse(&sparse)),
            0xc1ca_8181_237e_4ebe,
        ),
    ]);
}

#[test]
fn evaluate_cross_entropy_matches_pinned_digests() {
    let dense = TransformerWeights::random(tiny_config(), 31);
    let sparse = dense.pruned(0.6, 32);
    let stream = synthetic_stream(tiny_config().vocab, 12, 33);
    let spec = GpuSpec::rtx4090();
    let ce = |model| {
        format!(
            "{:016x}",
            evaluate(model, &spec, &stream).cross_entropy.to_bits()
        )
    };
    common::assert_pinned(&[
        (
            "evaluate dense",
            &ce(ModelRef::Dense(&dense)),
            0x82d8_d5dc_bb59_3f08,
        ),
        (
            "evaluate sparse 0.6",
            &ce(ModelRef::Sparse(&sparse)),
            0x85eb_9e9a_fb67_1a7d,
        ),
    ]);
}
