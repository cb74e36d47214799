//! Property suite pinning the vectorized hot paths to their retained
//! scalar oracles, bit for bit.
//!
//! Three pairs are pinned:
//!
//! * the register-blocked `mma` kernel (`mma_m16n8k16_bslice_ntiles`,
//!   and the per-tile `mma_m16n8k16_f32` / `mma_m16n8k16_bslice` that
//!   run through it) against the per-element scalar loops;
//! * the set-bit SMBD decode against the per-lane
//!   `MaskedPopCount` formulation of Algorithm 2;
//! * the batched FP16 → `f32` LUT conversion against per-element
//!   `Half::to_f32`.
//!
//! Equality is exact `f32` bit equality *and* counter-stream equality —
//! the invariant that lets the `simd` feature (and the flat rewrite
//! underneath it) claim "wall-clock only". CI runs this suite both with
//! and without `--features gpu-sim/simd`, so whichever MAC kernel body
//! is compiled in is the one pinned.

use gpu_sim::fault::{FaultInjector, FaultPlan};
use gpu_sim::fp16::{f16_to_f32_slice, Half};
use gpu_sim::tensor_core::{
    mma_m16n8k16_bslice, mma_m16n8k16_bslice_ntiles, mma_m16n8k16_bslice_scalar, mma_m16n8k16_f32,
    mma_m16n8k16_f32_scalar, FragC, MAX_NTILES, MMA_K, MMA_M, MMA_N,
};
use gpu_sim::Counters;
use proptest::prelude::*;
use spinfer_core::smbd::{decode_bitmap_tile_f, decode_bitmap_tile_scalar};

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

fn a_tile(seed: u64) -> [[f32; MMA_K]; MMA_M] {
    let mut s = seed;
    let mut a = [[0.0f32; MMA_K]; MMA_M];
    for row in a.iter_mut() {
        for v in row.iter_mut() {
            *v = mix(&mut s);
        }
    }
    a
}

fn seeded_acc(seed: u64) -> FragC {
    let mut s = seed;
    let mut acc = FragC::zero();
    for lane in acc.regs.iter_mut() {
        for reg in lane.iter_mut() {
            *reg = mix(&mut s);
        }
    }
    acc
}

/// Exact bitwise equality of two accumulator fragments — `==` on f32
/// would let `-0.0 == +0.0` slip through.
fn assert_acc_bits(a: &FragC, b: &FragC) {
    for (la, lb) in a.regs.iter().zip(&b.regs) {
        for (ra, rb) in la.iter().zip(lb) {
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
    }
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
        let mut oracle = FragC::from_tile(|_, _| -0.0);
        mma_m16n8k16_bslice_scalar(&mut Counters::new(), &a, &b, ld, &mut oracle);
        for acc in &accs {
            for v in acc.iter().flatten().chain(oracle.regs.iter().flatten()) {
                assert_eq!(v.to_bits(), 0.0f32.to_bits(), "ntiles={ntiles}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mma_f32_matches_scalar_oracle(a_seed: u64, b_seed: u64, acc_seed: u64) {
        let a = a_tile(a_seed);
        let mut s = b_seed;
        let mut b = [[0.0f32; MMA_N]; MMA_K];
        for row in b.iter_mut() {
            for v in row.iter_mut() {
                *v = mix(&mut s);
            }
        }
        let mut acc_fast = seeded_acc(acc_seed);
        let mut acc_oracle = acc_fast.clone();
        let mut c_fast = Counters::new();
        let mut c_oracle = Counters::new();
        mma_m16n8k16_f32(&mut c_fast, &a, &b, &mut acc_fast);
        mma_m16n8k16_f32_scalar(&mut c_oracle, &a, &b, &mut acc_oracle);
        assert_acc_bits(&acc_fast, &acc_oracle);
        prop_assert_eq!(c_fast, c_oracle);
    }

    #[test]
    fn mma_bslice_matches_scalar_oracle(
        a_seed: u64,
        b_seed: u64,
        acc_seed: u64,
        ld_extra in 0usize..32,
    ) {
        let a = a_tile(a_seed);
        let ld = MMA_N + ld_extra;
        let mut s = b_seed;
        let b: Vec<f32> = (0..(MMA_K - 1) * ld + MMA_N).map(|_| mix(&mut s)).collect();
        let mut acc_fast = seeded_acc(acc_seed);
        let mut acc_oracle = acc_fast.clone();
        let mut c_fast = Counters::new();
        let mut c_oracle = Counters::new();
        mma_m16n8k16_bslice(&mut c_fast, &a, &b, ld, &mut acc_fast);
        mma_m16n8k16_bslice_scalar(&mut c_oracle, &a, &b, ld, &mut acc_oracle);
        assert_acc_bits(&acc_fast, &acc_oracle);
        prop_assert_eq!(c_fast, c_oracle);
    }

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
        // The batched call against `ntiles` separate *scalar* calls:
        // this chains batching and vectorization back to the original
        // formulation in one step. Operands mix in ±0.0, ±Inf, NaN and
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
        let seeds: Vec<[[f32; MMA_N]; MMA_M]> = (0..ntiles)
            .map(|_| core::array::from_fn(|_| core::array::from_fn(|_| mix_special(&mut s, special_pct))))
            .collect();
        let mut accs_fast = seeds.clone();
        let mut c_fast = Counters::new();
        let mut c_oracle = Counters::new();
        mma_m16n8k16_bslice_ntiles(&mut c_fast, &a, &b, ld, &mut accs_fast);
        for (j, (fast, seed)) in accs_fast.iter().zip(&seeds).enumerate() {
            let mut oracle = FragC::from_tile(|r, c| seed[r][c]);
            mma_m16n8k16_bslice_scalar(&mut c_oracle, &a, &b[j * MMA_N..], ld, &mut oracle);
            for (fr, or) in fast.iter().zip(&oracle.to_tile()) {
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
    fn smbd_sweep_matches_scalar_oracle(
        bitmap: u64,
        val_seed: u64,
        base in 0usize..16,
        smem_base in 0u64..512,
        site_key: u64,
    ) {
        // Random bitmaps plus the two extremes the generator rarely
        // hits by itself.
        for bm in [bitmap, 0, u64::MAX] {
            let need = base + bm.count_ones() as usize;
            let mut s = val_seed;
            let values: Vec<Half> =
                (0..need).map(|_| Half::from_f32(mix(&mut s))).collect();
            let mut c_sweep = Counters::new();
            let mut c_oracle = Counters::new();
            let sweep = decode_bitmap_tile_f(
                &mut c_sweep, bm, &values, base, smem_base, None, site_key,
            );
            let oracle = decode_bitmap_tile_scalar(
                &mut c_oracle, bm, &values, base, smem_base, None, site_key,
            );
            prop_assert_eq!(sweep, oracle);
            prop_assert_eq!(c_sweep, c_oracle, "counter stream drifted (bm={:#x})", bm);

            // Same parity under an always-firing injector: identical
            // fault sites, poison values, and fault accounting.
            let plan = FaultPlan { fp16_poison_rate: 1.0, ..FaultPlan::default() };
            let inj = FaultInjector::new(plan);
            let mut cf_sweep = Counters::new();
            let mut cf_oracle = Counters::new();
            let sweep = decode_bitmap_tile_f(
                &mut cf_sweep, bm, &values, base, smem_base, Some(&inj), site_key,
            );
            let oracle = decode_bitmap_tile_scalar(
                &mut cf_oracle, bm, &values, base, smem_base, Some(&inj), site_key,
            );
            prop_assert_eq!(sweep, oracle);
            prop_assert_eq!(cf_sweep, cf_oracle);
        }
    }

    #[test]
    fn smbd_overrun_agrees_with_oracle(bitmap: u64, short_by in 1usize..8) {
        // Truncated value buffers must fail identically on both paths.
        let pop = bitmap.count_ones() as usize;
        let len = pop.saturating_sub(short_by);
        let values = vec![Half::ONE; len];
        let mut c_sweep = Counters::new();
        let mut c_oracle = Counters::new();
        let sweep = decode_bitmap_tile_f(&mut c_sweep, bitmap, &values, 0, 0, None, 0);
        let oracle = decode_bitmap_tile_scalar(&mut c_oracle, bitmap, &values, 0, 0, None, 0);
        prop_assert_eq!(sweep, oracle);
        prop_assert_eq!(c_sweep, c_oracle);
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
