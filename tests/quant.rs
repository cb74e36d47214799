//! Cross-version container compatibility and INT8 round-trip suite.
//!
//! The payload refactor turned the serializer generic over the value
//! precision; these tests pin what that must NOT have changed — v2
//! FP16 containers decode bit-identically to their pre-refactor layout
//! — and what the new v3 INT8 container must guarantee: exact `i8` +
//! scale round-trips at arbitrary shapes/sparsities, typed
//! [`DecodeError::PayloadMismatch`] on cross-precision reads, and
//! detection of truncation and bit damage anywhere in the stream.

use gpu_sim::counters::fnv1a64;
use gpu_sim::matrix::{random_sparse, ValueDist};
use proptest::prelude::*;
use spinfer_core::serialize::{self, DecodeError};
use spinfer_core::TcaBme;

/// Fixed framing around the variable sections: 8 B magic, 56 B header
/// (seven u64 fields), five u64 section-length words (checksums,
/// offsets, values, bitmaps, scales).
const V3_FRAMING: usize = 8 + 56 + 5 * 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// v2 serialisation followed by decode reproduces the exact
    /// encoding, and re-serialising the decoded container reproduces
    /// the exact bytes — the strongest statement that the generic
    /// writer kept the FP16 wire format bit-identical.
    #[test]
    fn v2_roundtrip_is_bit_identical(
        rows in 1usize..200,
        cols in 1usize..200,
        sparsity in 0.0f64..0.99,
        seed: u64,
    ) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        let enc = TcaBme::encode(&m);
        let bytes = serialize::to_bytes(&enc);
        let back = serialize::from_bytes(&bytes).expect("own bytes must decode");
        prop_assert_eq!(&back, &enc);
        prop_assert_eq!(serialize::to_bytes(&back), bytes);
    }

    /// v3 round-trips the INT8 codes and the per-GroupTile scales
    /// exactly (scales compared at the bit level), at any shape and
    /// sparsity, and its total length matches the container's own
    /// storage accounting plus fixed framing.
    #[test]
    fn v3_roundtrip_is_exact(
        rows in 1usize..200,
        cols in 1usize..200,
        sparsity in 0.0f64..0.99,
        seed: u64,
    ) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Normal { std: 0.05 }, seed);
        let q = TcaBme::encode(&m).quantize_int8();
        let bytes = serialize::to_bytes_int8(&q);
        prop_assert_eq!(
            bytes.len(),
            q.storage_bytes() + V3_FRAMING + 4 * q.tiles.num_gtiles()
        );
        let back = serialize::from_bytes_int8(&bytes).expect("own bytes must decode");
        prop_assert_eq!(&back.tiles, &q.tiles);
        let a: Vec<u32> = back.scales.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u32> = q.scales.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Every truncation point of a v3 container is rejected — no prefix
    /// of a valid stream parses as a (different) valid container.
    #[test]
    fn v3_rejects_every_truncation(sparsity in 0.2f64..0.8, seed: u64) {
        let m = random_sparse(64, 64, sparsity, ValueDist::Uniform, seed);
        let q = TcaBme::encode(&m).quantize_int8();
        let bytes = serialize::to_bytes_int8(&q);
        // Sample prefixes densely near section boundaries and sparsely
        // in between (full scan is quadratic in container size).
        for cut in (0..bytes.len()).step_by(7).chain(bytes.len() - 9..bytes.len()) {
            prop_assert!(
                serialize::from_bytes_int8(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed",
                bytes.len()
            );
        }
    }

    /// A single flipped bit anywhere in the checksummed payload region
    /// (codes or bitmaps) of a v3 container is detected.
    #[test]
    fn v3_detects_payload_bit_damage(seed: u64, bit_seed: u64) {
        let m = random_sparse(96, 64, 0.5, ValueDist::Uniform, seed);
        let q = TcaBme::encode(&m).quantize_int8();
        prop_assert!(q.tiles.nnz > 0, "50% sparsity must leave non-zeros");
        let bytes = serialize::to_bytes_int8(&q);
        // The code section starts after magic, header, checksum and
        // offset sections; it plus the bitmap section are checksummed.
        let ngt = q.tiles.num_gtiles();
        let codes_start =
            8 + 56 + 8 + 4 * ngt + 8 + 4 * q.tiles.gtile_offsets.len() + 8;
        let payload_len = q.tiles.values.len() + 8 + 8 * q.tiles.bitmaps.len();
        let bit = (bit_seed as usize) % (payload_len * 8);
        let (mut byte, shift) = (codes_start + bit / 8, bit % 8);
        // Skip the bitmap-section length word: damaging it reports
        // Truncated/Inconsistent instead of Checksum, which is fine but
        // not what this test pins.
        let bm_len_word = codes_start + q.tiles.values.len();
        if (bm_len_word..bm_len_word + 8).contains(&byte) {
            byte += 8;
        }
        let mut bad = bytes.clone();
        bad[byte] ^= 1 << shift;
        let err = serialize::from_bytes_int8(&bad).unwrap_err();
        prop_assert!(
            matches!(
                err,
                DecodeError::Checksum { .. }
                    | DecodeError::Inconsistent(_)
                    | DecodeError::Integrity(_)
            ),
            "flip at byte {byte} bit {shift} slipped through: {err:?}"
        );
    }
}

#[test]
fn cross_version_reads_fail_with_payload_mismatch() {
    let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 7);
    let enc = TcaBme::encode(&m);
    let v2 = serialize::to_bytes(&enc);
    let v3 = serialize::to_bytes_int8(&enc.quantize_int8());

    // FP16 reader on an INT8 container and vice versa: typed mismatch,
    // with the precision names the payload abstraction declares.
    let err = serialize::from_bytes(&v3).unwrap_err();
    assert_eq!(
        err,
        DecodeError::PayloadMismatch {
            expected: "fp16",
            got: "int8"
        }
    );
    assert_eq!(
        err.to_string(),
        "container carries int8 values but this reader expects fp16"
    );
    assert_eq!(
        serialize::from_bytes_int8(&v2).unwrap_err(),
        DecodeError::PayloadMismatch {
            expected: "int8",
            got: "fp16"
        }
    );

    // A v1-magic stream (checksum-free FP16) is also the wrong payload
    // for the INT8 reader — the magic alone decides, before any parse.
    let mut v1 = v2;
    v1[7] = 0x01;
    assert_eq!(
        serialize::from_bytes_int8(&v1).unwrap_err(),
        DecodeError::PayloadMismatch {
            expected: "int8",
            got: "fp16"
        }
    );

    // An unknown version is BadMagic, not a mismatch.
    let mut v9 = serialize::to_bytes(&enc);
    v9[7] = 0x09;
    assert_eq!(
        serialize::from_bytes(&v9).unwrap_err(),
        DecodeError::BadMagic
    );
    assert_eq!(
        serialize::from_bytes_int8(&v9).unwrap_err(),
        DecodeError::BadMagic
    );
}

#[test]
fn v2_golden_bytes_are_stable_post_refactor() {
    // A tiny deterministic matrix with a hand-checkable prefix: the
    // generic writer must produce the same header the concrete FP16
    // writer always did.
    let m = random_sparse(16, 16, 0.5, ValueDist::Uniform, 11);
    let enc = TcaBme::encode(&m);
    let bytes = serialize::to_bytes(&enc);
    assert_eq!(&bytes[..8], b"TCABME\x00\x02");
    let field =
        |i: usize| u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().unwrap()) as usize;
    assert_eq!(field(0), 16, "m");
    assert_eq!(field(1), 16, "k");
    assert_eq!(field(2), enc.m_pad, "m_pad");
    assert_eq!(field(3), enc.k_pad, "k_pad");
    assert_eq!(field(6), enc.nnz, "nnz");
    // And the whole stream still decodes to the same encoding.
    assert_eq!(serialize::from_bytes(&bytes).unwrap(), enc);
}

/// Byte pins for the weight write path: Wanda at sparsity 0.6, encode,
/// INT8 quantize, and both containers' bytes and per-GroupTile
/// checksums, at a ragged shape and at 1024². Digests are of the
/// serialized streams and of the checksum vectors' LE bytes.
#[test]
fn write_path_bytes_and_checksums_are_pinned() {
    use gpu_sim::matrix::random_dense;
    use spinfer_pruning::{wanda_prune, Calibration};

    let cases = [
        (
            300,
            777,
            41,
            [
                0xca54_4148_f60f_14e0u64,
                0x49de_c3b9_bd55_0152,
                0x0c7f_b96a_4ff9_0440,
                0x9b53_8726_a37f_bd3c,
            ],
        ),
        (
            1024,
            1024,
            43,
            [
                0x623f_0f30_8034_ed09,
                0xc2c9_45c6_8b73_e888,
                0x01b4_1e72_9087_f725,
                0x2743_e754_efb2_8356,
            ],
        ),
    ];
    for (m, k, seed, want) in cases {
        let w = random_dense(m, k, ValueDist::Normal { std: 0.05 }, seed);
        let calib = Calibration::synthetic(k, 32, seed + 1);
        let fp16 = TcaBme::encode(&wanda_prune(&w, &calib, 0.6));
        let q = fp16.quantize_int8();
        let sums = |s: Vec<u32>| fnv1a64(s.into_iter().flat_map(u32::to_le_bytes));
        let got = [
            fnv1a64(serialize::to_bytes(&fp16)),
            fnv1a64(serialize::to_bytes_int8(&q)),
            sums(fp16.gtile_checksums()),
            sums(q.tiles.gtile_checksums()),
        ];
        assert_eq!(got, want, "{m}x{k}: {got:#018x?}");
    }
}
