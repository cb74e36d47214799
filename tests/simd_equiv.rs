//! Property suite pinning the vectorized hot paths to scalar
//! definitions, bit for bit:
//!
//! * the register-blocked `mma` kernel (`mma_m16n8k16_bslice_ntiles`)
//!   against the per-element loop in `common/mma_oracle.rs`;
//! * the batched FP16 → `f32` conversion against per-element
//!   `Half::to_f32`.
//!
//! Equality is exact `f32` bit equality *and* counter-stream equality —
//! the invariant that lets the AVX2 MAC body (and the portable body
//! beside it) claim "wall-clock only". The body the host CPU selects is
//! the one pinned here; `gpu_sim::tensor_core`'s unit tests pin the
//! portable body to the AVX2 body. The set-bit SMBD decode is pinned
//! to Algorithm 2 per lane in `spinfer_core::smbd`'s unit tests, where
//! its fault-aware row form is visible.

use gpu_sim::fp16::{f16_to_f32_slice, Half};
use gpu_sim::tensor_core::{mma_m16n8k16_bslice_ntiles, AccF32, MAX_NTILES, MMA_K, MMA_M, MMA_N};
use gpu_sim::Counters;
use proptest::prelude::*;

#[path = "common/mma_oracle.rs"]
mod mma_oracle;
use mma_oracle::mma_bslice_oracle;

/// Deterministic f32 stream from SplitMix64 — ordinary magnitudes with
/// sign variety, the distribution the kernels actually multiply.
fn mix(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 22) as f32 - 2.0
}

/// [`mix`] with `pct`% of draws replaced by an IEEE edge value: signed
/// zeros, infinities, NaN, and subnormals of both signs.
fn mix_special(state: &mut u64, pct: u64) -> f32 {
    const EDGES: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0e-45,
        -3.0e-39,
        f32::MIN_POSITIVE / 2.0,
    ];
    let v = mix(state);
    let pick = v.to_bits() as u64;
    if pick % 100 < pct {
        EDGES[(pick / 100 % 8) as usize]
    } else {
        v
    }
}

/// Bit equality, except that any two NaNs match: which NaN payload an
/// operation on two NaNs returns is unspecified (Rust and LLVM may swap
/// the operands of an add), so only NaN-ness is a property of the
/// summation order.
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The sums start from `+0.0`: products that are all `-0.0` sum to
/// `+0.0`, and adding that to a `-0.0` accumulator gives `+0.0`. A
/// kernel that seeded each sum with its first product instead would
/// leave `-0.0` — a case too narrow for the random draws to reach.
#[test]
fn mma_ntiles_sums_start_from_positive_zero() {
    let a = [[-0.0f32; MMA_K]; MMA_M];
    for ntiles in 1..=MAX_NTILES {
        let ld = ntiles * MMA_N + 3;
        let b = vec![1.0f32; (MMA_K - 1) * ld + ntiles * MMA_N];
        let mut accs = vec![[[-0.0f32; MMA_N]; MMA_M]; ntiles];
        mma_m16n8k16_bslice_ntiles(&mut Counters::new(), &a, &b, ld, &mut accs);
        let mut oracle = [[-0.0f32; MMA_N]; MMA_M];
        mma_bslice_oracle(&mut Counters::new(), &a, &b, ld, &mut oracle);
        for v in accs.iter().flatten().chain(&oracle).flatten() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "ntiles={ntiles}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mma_ntiles_matches_per_tile_scalar_oracle(
        a_seed: u64,
        b_seed: u64,
        acc_seed: u64,
        ntiles in 1usize..=MAX_NTILES,
        ld_extra in 1usize..24,
        special_pct in prop::sample::select(vec![0u64, 5, 25, 60]),
        zero_rows: u16,
    ) {
        // The batched call against `ntiles` separate oracle calls:
        // this chains batching and vectorization back to the textbook
        // loop in one step. Operands mix in ±0.0, ±Inf, NaN and
        // subnormals, and whole A rows of signed zeros, so a zero-skip
        // (0 × Inf is NaN, not skipped) or a reassociated sum shows up;
        // `ld` is wider than the batch, so a kernel that assumed packed
        // tiles would read the wrong columns.
        let mut s = a_seed;
        let mut a = [[0.0f32; MMA_K]; MMA_M];
        for (m, row) in a.iter_mut().enumerate() {
            for v in row.iter_mut() {
                *v = if zero_rows & (1 << m) != 0 {
                    if mix(&mut s) < 0.0 { -0.0 } else { 0.0 }
                } else {
                    mix_special(&mut s, special_pct)
                };
            }
        }
        let ld = ntiles * MMA_N + ld_extra;
        let mut s = b_seed;
        let b: Vec<f32> = (0..(MMA_K - 1) * ld + ntiles * MMA_N)
            .map(|_| mix_special(&mut s, special_pct))
            .collect();
        let mut s = acc_seed;
        let seeds: Vec<AccF32> = (0..ntiles)
            .map(|_| core::array::from_fn(|_| core::array::from_fn(|_| mix_special(&mut s, special_pct))))
            .collect();
        let mut accs_fast = seeds.clone();
        let mut c_fast = Counters::new();
        let mut c_oracle = Counters::new();
        mma_m16n8k16_bslice_ntiles(&mut c_fast, &a, &b, ld, &mut accs_fast);
        for (j, (fast, seed)) in accs_fast.iter().zip(&seeds).enumerate() {
            let mut oracle = *seed;
            mma_bslice_oracle(&mut c_oracle, &a, &b[j * MMA_N..], ld, &mut oracle);
            for (fr, or) in fast.iter().zip(&oracle) {
                for (f, o) in fr.iter().zip(or) {
                    prop_assert!(
                        same_value(*f, *o),
                        "tile {} differs: {:#x} vs {:#x}", j, f.to_bits(), o.to_bits()
                    );
                }
            }
        }
        prop_assert_eq!(c_fast, c_oracle);
    }

    #[test]
    fn f16_slice_conversion_matches_per_element(seed: u64, len in 0usize..200) {
        let mut s = seed;
        let src: Vec<Half> = (0..len).map(|_| Half::from_f32(mix(&mut s))).collect();
        let mut batched = vec![0.0f32; len];
        f16_to_f32_slice(&src, &mut batched);
        for (b, h) in batched.iter().zip(&src) {
            assert_eq!(b.to_bits(), h.to_f32().to_bits());
        }
    }
}
