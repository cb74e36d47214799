//! Property-based tests over the core data structures and invariants.

use gpu_sim::bitops::{masked_popc64, popc64, test_bit};
use gpu_sim::fp16::Half;
use gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, DenseMatrix, ValueDist};
use gpu_sim::shared_memory::analyze_warp_access;
use gpu_sim::GpuSpec;
use proptest::prelude::*;
use spinfer_baselines::formats::{Bcsr, Csr, SpartaFormat, TiledCsl};
use spinfer_core::{serialize, SpMMHandle, TcaBme};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every finite f16 bit pattern survives f16 → f32 → f16.
    #[test]
    fn fp16_roundtrip(bits in 0u16..=u16::MAX) {
        let h = Half::from_bits(bits);
        if h.is_nan() {
            prop_assert!(Half::from_f32(h.to_f32()).is_nan());
        } else {
            prop_assert_eq!(Half::from_f32(h.to_f32()).to_bits(), bits);
        }
    }

    /// f32 → f16 conversion never increases magnitude past the next
    /// representable value and preserves sign.
    #[test]
    fn fp16_conversion_sign_and_monotonicity(a in -1.0e4f32..1.0e4, b in -1.0e4f32..1.0e4) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let hl = Half::from_f32(lo).to_f32();
        let hh = Half::from_f32(hi).to_f32();
        prop_assert!(hl <= hh, "monotone: {lo} -> {hl}, {hi} -> {hh}");
        if a != 0.0 {
            prop_assert_eq!(a.is_sign_negative(), Half::from_f32(a).to_f32().is_sign_negative() || Half::from_f32(a).is_zero());
        }
    }

    /// MaskedPopCount equals the naive bit scan for any bitmap/offset.
    #[test]
    fn masked_popcount_matches_scan(bitmap: u64, offset in 0u32..=64) {
        let manual = (0..offset).filter(|&i| test_bit(bitmap, i)).count() as u32;
        prop_assert_eq!(masked_popc64(bitmap, offset), manual);
    }

    /// The SMBD offset identity: lane offsets partition the bitmap, so
    /// summing per-lane contributions reconstructs popc64.
    #[test]
    fn smbd_offset_identity(bitmap: u64) {
        let mut total = 0u32;
        for lane in 0..32u32 {
            total += u32::from(test_bit(bitmap, 2 * lane));
            total += u32::from(test_bit(bitmap, 2 * lane + 1));
        }
        prop_assert_eq!(total, popc64(bitmap));
    }

    /// Bank-conflict analysis: transactions ≥ phases with activity, and
    /// conflicts = transactions − active phases.
    #[test]
    fn bank_model_invariants(seed: u64, width in prop::sample::select(vec![2u32, 4, 8, 16])) {
        let mut addrs = [None; 32];
        let mut s = seed;
        for a in addrs.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if !s.is_multiple_of(4) {
                *a = Some((s >> 16) % 4096);
            }
        }
        let r = analyze_warp_access(&addrs, width);
        let lanes_per_phase = match width { 2 | 4 => 32, 8 => 16, _ => 8 };
        let active_phases = addrs
            .chunks(lanes_per_phase)
            .filter(|c| c.iter().any(Option::is_some))
            .count() as u64;
        prop_assert!(r.transactions >= active_phases);
        prop_assert_eq!(r.conflicts, r.transactions - active_phases);
    }

    /// TCA-BME encode/decode is lossless for arbitrary shapes/sparsity.
    #[test]
    fn tca_bme_roundtrip(
        rows in 1usize..100,
        cols in 1usize..100,
        sparsity in 0.0f64..1.0,
        seed: u64,
    ) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        let enc = TcaBme::encode(&m);
        prop_assert_eq!(enc.decode(), m);
    }

    /// TCA-BME storage never exceeds the Eq. 9 formula by more than the
    /// per-GroupTile alignment padding.
    #[test]
    fn tca_bme_storage_bound(rows in 8usize..128, cols in 8usize..128, sparsity in 0.0f64..1.0, seed: u64) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        let enc = TcaBme::encode(&m);
        let formula = TcaBme::storage_bytes_formula(rows, cols, enc.nnz, enc.config);
        let pad = enc.num_gtiles() * 6; // ≤3 padded elements x 2 B.
        prop_assert!(enc.storage_bytes() >= formula);
        prop_assert!(enc.storage_bytes() <= formula + pad);
    }

    /// All baseline formats roundtrip losslessly.
    #[test]
    fn baseline_formats_roundtrip(rows in 1usize..80, cols in 1usize..80, sparsity in 0.0f64..1.0, seed: u64) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        prop_assert_eq!(Csr::encode(&m).decode(), m.clone());
        prop_assert_eq!(TiledCsl::encode(&m).decode(), m.clone());
        prop_assert_eq!(SpartaFormat::encode(&m).decode(), m.clone());
        prop_assert_eq!(Bcsr::encode(&m).decode(), m);
    }

    /// Serialisation round-trips any encodable matrix bit-exactly, and
    /// any single-byte corruption of the payload is either detected or
    /// still decodes to a structurally valid matrix.
    #[test]
    fn serialize_roundtrip_any_matrix(rows in 1usize..96, cols in 1usize..96, sparsity in 0.0f64..1.0, seed: u64) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        let enc = TcaBme::encode(&m);
        let bytes = serialize::to_bytes(&enc);
        let back = serialize::from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(back.decode(), m);
    }

    /// Arbitrary byte mutations (and truncations) of a valid container
    /// never panic the loader: every outcome is `Ok` or a typed
    /// `DecodeError` whose `Display` also never panics. Length-field
    /// mutations in particular must be rejected *before* any
    /// allocation is sized from them.
    #[test]
    fn serialize_fuzzed_mutations_never_panic(
        seed: u64,
        mutations in prop::collection::vec((0usize..8192, 0u8..=255u8), 1..16),
        truncate in prop::option::of(0usize..8192),
    ) {
        let m = random_sparse(48, 80, 0.6, ValueDist::Uniform, seed);
        let mut bytes = serialize::to_bytes(&TcaBme::encode(&m));
        for (pos, val) in mutations {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        if let Some(t) = truncate {
            bytes.truncate(t % (bytes.len() + 1));
        }
        match serialize::from_bytes(&bytes) {
            // A surviving container is structurally valid by contract.
            Ok(back) => prop_assert!(back.validate().is_ok()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// INT8 quantisation keeps every element within half a quantisation
    /// step of the original for any sparsity.
    #[test]
    fn quantisation_error_bound_any_matrix(sparsity in 0.0f64..0.98, seed: u64) {
        let m = random_sparse(64, 64, sparsity, ValueDist::Normal { std: 0.05 }, seed);
        let enc = TcaBme::encode(&m);
        let q = enc.quantize_int8();
        let back = q.dequantize_dense();
        for r in 0..64 {
            for c in 0..64 {
                let gt = enc.gt_index(r / 64, c / 64);
                let bound = q.scale(gt) * 0.51 + 1e-4;
                let d = (m.get(r, c).to_f32() - back[r * 64 + c]).abs();
                prop_assert!(d <= bound, "({r},{c}): err {d} > bound {bound}");
            }
        }
    }

    /// SparTA's 2:4 component never holds more than 2 values per group.
    #[test]
    fn sparta_24_invariant(rows in 1usize..32, cols in 1usize..64, sparsity in 0.0f64..1.0, seed: u64) {
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        let enc = SpartaFormat::encode(&m);
        let groups = enc.k_pad / 4;
        for r in 0..rows {
            for g in 0..groups {
                let kept = (0..2)
                    .filter(|slot| !enc.nm_values[(r * groups + g) * 2 + slot].is_zero())
                    .count();
                prop_assert!(kept <= 2);
            }
        }
    }
}

proptest! {
    // The SpMM correctness property runs the full simulated kernel, so
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SpInfer-SpMM output equals the dense reference for arbitrary
    /// shapes, batch sizes and sparsities.
    #[test]
    fn spinfer_spmm_matches_reference(
        m in 1usize..150,
        k in 1usize..150,
        n in 1usize..40,
        sparsity in 0.0f64..0.95,
        seed: u64,
    ) {
        let w = random_sparse(m, k, sparsity, ValueDist::Uniform, seed);
        let x = random_dense(k, n, ValueDist::Uniform, seed ^ 0xABCD);
        let spec = GpuSpec::rtx4090();
        let handle = SpMMHandle::encode(&w);
        let run = handle.matmul(&spec, &x);
        let err = max_abs_diff(run.output.as_ref().unwrap(), &w.matmul_ref(&x));
        prop_assert!(err < 0.5, "err {err} at {m}x{k}x{n} s={sparsity:.2}");
    }

    /// Timing is positive and finite everywhere, weakly monotone in M,
    /// and strictly scales once the workload outgrows the launch ramp
    /// (sub-microsecond launches are latency-dominated, as on hardware).
    #[test]
    fn timing_sane_and_monotone(m in 768usize..1024, seed: u64) {
        let k = 512;
        let spec = GpuSpec::rtx4090();
        let w_small = random_sparse(m, k, 0.5, ValueDist::Uniform, seed);
        let w_big = random_sparse(4 * m, k, 0.5, ValueDist::Uniform, seed ^ 1);
        let x = random_dense(k, 16, ValueDist::Uniform, seed ^ 2);
        let t_small = SpMMHandle::encode(&w_small).matmul(&spec, &x).time_us();
        let t_big = SpMMHandle::encode(&w_big).matmul(&spec, &x).time_us();
        prop_assert!(t_small.is_finite() && t_small > 0.0);
        prop_assert!(t_big > t_small * 1.5, "big {t_big} vs small {t_small}");
    }
}

/// Deterministic helper used by the proptest block above.
#[test]
fn dense_matrix_transpose_is_involution() {
    let m = random_dense(33, 57, ValueDist::Uniform, 9);
    assert_eq!(m.transpose().transpose(), m);
    let z = DenseMatrix::zeros(5, 7);
    assert_eq!(z.transpose().rows(), 7);
}
