//! Software implementation of IEEE 754 binary16 ("half precision").
//!
//! The paper's kernels operate on FP16 weights and activations with FP32
//! accumulation inside the Tensor Core `mma` instruction. No external `half`
//! crate is used; conversions implement round-to-nearest-even, matching the
//! behaviour of the `cvt.rn.f16.f32` PTX instruction.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A 16-bit IEEE 754 binary16 floating-point value.
///
/// Stored as its raw bit pattern. Arithmetic is performed by converting to
/// `f32`, operating, and rounding back — the same semantics an FP16 ALU
/// with round-to-nearest-even produces for a single operation.
///
/// # Examples
///
/// ```
/// use gpu_sim::fp16::Half;
///
/// let a = Half::from_f32(1.5);
/// let b = Half::from_f32(2.25);
/// assert_eq!((a + b).to_f32(), 3.75);
/// ```
/// `repr(transparent)`, so a `[Half]` is laid out as its `u16` bit
/// patterns and SIMD loads may read it as packed halves.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
#[repr(transparent)]
pub struct Half(u16);

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Largest finite value (65504.0).
    pub const MAX: Half = Half(0x7BFF);
    /// Smallest finite value (-65504.0).
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// A canonical quiet NaN.
    pub const NAN: Half = Half(0x7E00);

    /// Creates a `Half` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Half(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Half` with round-to-nearest-even, as
    /// `cvt.rn.f16.f32` does: magnitudes at or above the overflow threshold
    /// (65520) become infinities, subnormal results round exactly, and a
    /// NaN becomes a quiet NaN (`0x7E00` with the input's sign).
    ///
    /// Branch-free: the three result lanes (normal or overflow,
    /// subnormal or underflow, NaN or infinity) are all computed and
    /// selected by magnitude, so a loop over it vectorizes inside a
    /// [`Simd::vectorize`](crate::cpu::Simd::vectorize) region. Always
    /// inlined, like every body a region holds.
    #[inline(always)]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let abs = bits & 0x7FFF_FFFF;

        // Normal lane with RNE via carry arithmetic: adding `0x0FFF + lsb`
        // below the 13 dropped mantissa bits rounds half-to-even, carrying
        // into the exponent when the mantissa overflows (which is exactly
        // the correct promotion, including rounding up to infinity); the
        // `0x3800_0000` subtraction rebias-es the exponent from 127 to 15.
        // Saturates at the infinity encoding for finite overflow.
        let lsb = (abs >> 13) & 1;
        let rounded = abs.wrapping_add(0x0FFF + lsb);
        let normal = ((rounded.wrapping_sub(0x3800_0000)) >> 13).min(0x7C00) as u16;

        // Subnormal lane: explicit leading 1, variable shift, RNE on the
        // shifted-out remainder. The shift clamp keeps the expression
        // defined for every exponent; any shift ≥ 25 yields zero with no
        // round-up (the remainder is always below the halfway point), which
        // is precisely the underflow-to-signed-zero rule.
        let exp = abs >> 23;
        let shift = 126u32.wrapping_sub(exp).min(31);
        let full = (abs & 0x007F_FFFF) | 0x0080_0000;
        let base = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift.wrapping_sub(1)).min(31);
        let round_up = u32::from(rem > half || (rem == half && base & 1 == 1));
        let sub = (base + round_up) as u16;

        // NaN/Inf lane: infinity, or the quiet NaN `0x7E00`.
        let naninf = 0x7C00u16 | (u16::from(abs > 0x7F80_0000) << 9);

        let magnitude = if abs >= 0x7F80_0000 {
            naninf
        } else if abs >= 0x3880_0000 {
            normal
        } else {
            sub
        };
        Half(sign | magnitude)
    }

    /// Converts this `Half` to `f32` exactly (every f16 is representable),
    /// as `cvt.f32.f16` and `vcvtph2ps` do: a NaN keeps its payload and
    /// comes out quiet.
    ///
    /// Arithmetic, so a loop over it vectorizes inside a
    /// [`Simd::vectorize`](crate::cpu::Simd::vectorize) region. Normal
    /// values rebias the exponent; zeros and subnormals are the exact
    /// difference `2⁻¹⁴·(1 + m/1024) − 2⁻¹⁴`; exponent 31 keeps the
    /// mantissa under an all-ones exponent and sets the f32 quiet bit
    /// when the mantissa is not zero. Always inlined, like every body a
    /// region holds.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        let bits = u32::from(self.0);
        let em = (bits & 0x7FFF) << 13;
        let normal = em + (112 << 23);
        let low = (f32::from_bits(em + (113 << 23)) - f32::from_bits(113 << 23)).to_bits();
        let mag = if em >= 0x0F80_0000 {
            em | 0x7F80_0000 | u32::from(em > 0x0F80_0000) << 22
        } else if em < 0x0080_0000 {
            low
        } else {
            normal
        };
        f32::from_bits(mag | (bits & 0x8000) << 16)
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` for both positive and negative zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        Half(self.0 & 0x7FFF)
    }
}

impl From<f32> for Half {
    fn from(v: f32) -> Self {
        Half::from_f32(v)
    }
}

impl From<Half> for f32 {
    fn from(v: Half) -> Self {
        v.to_f32()
    }
}

impl Add for Half {
    type Output = Half;
    fn add(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for Half {
    type Output = Half;
    fn sub(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for Half {
    type Output = Half;
    fn mul(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Neg for Half {
    type Output = Half;
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Half) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts a whole `Half` slice to `f32`: `dst[i] = src[i].to_f32()`.
/// The batch form the X-tile fill and the reference-product band loops
/// use. `dst.len()` must equal `src.len()`.
pub fn f16_to_f32_slice(src: &[Half], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    for (d, h) in dst.iter_mut().zip(src) {
        *d = h.to_f32();
    }
}

/// Converts a whole `f32` slice to `Half`: `dst[i] =
/// Half::from_f32(src[i])`. The batch form the chunked matrix generators
/// use. Always inlined: inside their
/// [`Simd::vectorize`](crate::cpu::Simd::vectorize) region the compiler
/// vectorizes the branch-free conversion eight lanes wide (variable
/// shifts and unsigned mins have no SSE2 encoding, which blocks that in
/// the baseline build); the arithmetic per element is the same either
/// way. `dst.len()` must equal `src.len()`.
#[inline(always)]
pub(crate) fn f32_to_f16_slice(src: &[f32], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = Half::from_f32(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Simd;
    use proptest::prelude::*;

    /// The branchy f32 → f16 conversion, one case per IEEE class: the
    /// oracle [`Half::from_f32`] is pinned against.
    fn from_f32_oracle(value: f32) -> Half {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN-ness with a quiet payload bit.
            return if mant == 0 {
                Half(sign | 0x7C00)
            } else {
                Half(sign | 0x7E00)
            };
        }

        // Re-bias the exponent from f32 (127) to f16 (15).
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow: round to infinity.
            return Half(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Keep 10 bits of mantissa with RNE on the rest.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_mant = (mant >> 13) as u16;
            let round_bits = mant & 0x1FFF;
            let mut out = sign | half_exp | half_mant;
            // Round-to-nearest-even: round up on >half, or on ==half when odd.
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
                out = out.wrapping_add(1); // May carry into the exponent — that is correct.
            }
            return Half(out);
        }
        if unbiased >= -25 {
            // Subnormal range: the implicit leading 1 must be made explicit
            // and shifted right together with the mantissa.
            let full_mant = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_mant = (full_mant >> shift) as u16;
            let round_mask = (1u32 << shift) - 1;
            let round_bits = full_mant & round_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | half_mant;
            if round_bits > halfway || (round_bits == halfway && (half_mant & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return Half(out);
        }
        // Underflow to (signed) zero.
        Half(sign)
    }

    /// Bit-level f16 → f32 widening, one case per IEEE class: the oracle
    /// [`Half::to_f32`] is pinned against. A NaN keeps its payload under
    /// the f32 quiet bit.
    fn f16_to_f32_bits(h: u16) -> u32 {
        let sign = (h as u32 & 0x8000) << 16;
        let exp = ((h >> 10) & 0x1F) as i32;
        let mant = (h & 0x03FF) as u32;

        if exp == 0 {
            if mant == 0 {
                return sign; // Signed zero.
            }
            // Subnormal: value is mant × 2⁻²⁴. Normalise around the
            // mantissa's MSB (index p): value = 1.frac × 2^(p−24).
            let p = 31 - mant.leading_zeros(); // 0..=9.
            let e = (p as i32 - 24 + 127) as u32;
            let m = (mant << (23 - p)) & 0x007F_FFFF;
            return sign | (e << 23) | m;
        }
        if exp == 0x1F {
            return if mant == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (mant << 13)
            };
        }
        let e = (exp - 15 + 127) as u32;
        sign | (e << 23) | (mant << 13)
    }

    /// Next f16 toward +∞ / −∞ in value order (sign-magnitude bits mapped
    /// to a contiguous integer line, −0 adjacent to +0).
    fn f16_ord(b: u16) -> i32 {
        if b & 0x8000 != 0 {
            -i32::from(b & 0x7FFF) - 1
        } else {
            i32::from(b)
        }
    }

    fn f16_unord(o: i32) -> Half {
        Half::from_bits(if o < 0 {
            0x8000 | ((-o - 1) as u16)
        } else {
            o as u16
        })
    }

    /// RNE oracle: `from_f32(v)` must be at least as close to `v` as both
    /// of its f16 neighbours, and on an exact halfway tie the chosen
    /// mantissa must be even.
    fn assert_nearest_even(v: f32) {
        let h = Half::from_f32(v);
        assert!(!h.is_nan(), "finite input must not produce NaN");
        if h.is_infinite() {
            // Overflow threshold: 65520 is halfway between MAX (65504)
            // and the next step; RNE sends it (and everything above) up.
            assert!(v.abs() >= 65520.0, "premature overflow for {v}");
            return;
        }
        let d = (f64::from(h.to_f32()) - f64::from(v)).abs();
        for n in [
            f16_unord(f16_ord(h.to_bits()) - 1),
            f16_unord(f16_ord(h.to_bits()) + 1),
        ] {
            if n.is_nan() || n.is_infinite() {
                continue;
            }
            let dn = (f64::from(n.to_f32()) - f64::from(v)).abs();
            assert!(
                d < dn || (d == dn && h.to_bits() & 1 == 0),
                "{v} -> {h:?} but neighbour {n:?} is closer (or wins the even tie)"
            );
        }
    }

    /// f32 mantissas that straddle the RNE rounding, carry, overflow and
    /// quiet-NaN decisions of the f32 → f16 conversion.
    const BOUNDARY_MANTISSAS: [u32; 16] = [
        0, 1, 2, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x2FFF, 0x3000, 0x3001, 0x7F_E000,
        0x7F_EFFF, 0x7F_F000, 0x7F_F001, 0x7F_FFFF,
    ];

    /// `src` through both copies of [`f32_to_f16_slice`]: the baseline
    /// one, and the one a generator's [`Simd::vectorize`] region
    /// compiles, which the compiler vectorizes eight lanes wide (the
    /// baseline copy again on a host without the features).
    fn convert_in_both_copies(src: &[f32]) -> [Vec<Half>; 2] {
        [None, Simd::detect()].map(|simd| {
            let mut dst = vec![Half::ZERO; src.len()];
            let to = &mut dst[..];
            match simd {
                Some(s) => s.vectorize(
                    #[inline(always)]
                    move || f32_to_f16_slice(src, to),
                ),
                None => f32_to_f16_slice(src, to),
            }
            dst
        })
    }

    /// Every exponent × sign × boundary mantissa: the ties, subnormals,
    /// overflows and NaNs random bit patterns rarely hit.
    fn boundary_inputs() -> Vec<f32> {
        (0..=255u32)
            .flat_map(|exp| {
                BOUNDARY_MANTISSAS
                    .iter()
                    .flat_map(move |&mant| [0, 1u32].map(|neg| (neg << 31) | (exp << 23) | mant))
            })
            .map(f32::from_bits)
            .collect()
    }

    #[test]
    fn from_f32_matches_the_oracle_at_boundaries() {
        for x in boundary_inputs() {
            assert_eq!(
                Half::from_f32(x).to_bits(),
                from_f32_oracle(x).to_bits(),
                "bits {:#010x}",
                x.to_bits()
            );
        }
    }

    /// The boundary inputs through both converter copies, in one buffer
    /// so the vectorized loop sees them in every lane position.
    #[test]
    fn f32_to_f16_slice_matches_at_lane_boundaries() {
        let src = boundary_inputs();
        for dst in convert_in_both_copies(&src) {
            for (&x, &h) in src.iter().zip(&dst) {
                let bits = x.to_bits();
                assert_eq!(
                    h.to_bits(),
                    from_f32_oracle(x).to_bits(),
                    "bits {bits:#010x}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn from_f32_is_nearest_even_in_subnormal_range(
            mant in 0u32..0x0080_0000,
            unbiased in prop::sample::select(vec![-30i32, -26, -25, -24, -20, -16, -15, -14]),
            neg in prop::sample::select(vec![0u32, 1]),
        ) {
            // f32 inputs whose f16 image is subnormal, the smallest
            // normal, or an underflow to signed zero.
            let bits = (neg << 31) | (((unbiased + 127) as u32) << 23) | mant;
            assert_nearest_even(f32::from_bits(bits));
        }

        #[test]
        fn from_f32_is_nearest_even_in_normal_range(
            mant in 0u32..0x0080_0000,
            exp_off in 0u32..30,
            neg in prop::sample::select(vec![0u32, 1]),
        ) {
            // Unbiased f16-range exponents −14 ..= 15.
            let unbiased = exp_off as i32 - 14;
            let bits = (neg << 31) | (((unbiased + 127) as u32) << 23) | mant;
            assert_nearest_even(f32::from_bits(bits));
        }

        #[test]
        fn from_f32_overflows_to_signed_infinity(v in 65520.0f32..3.0e38) {
            prop_assert_eq!(Half::from_f32(v), Half::INFINITY);
            prop_assert_eq!(Half::from_f32(-v), Half::NEG_INFINITY);
        }

        #[test]
        fn from_f32_below_halfway_stays_finite(v in 0.0f32..65519.0) {
            prop_assert!(!Half::from_f32(v).is_infinite());
            prop_assert!(!Half::from_f32(-v).is_infinite());
        }

        #[test]
        fn from_f32_quiets_every_nan(
            payload in 1u32..0x0080_0000,
            neg in prop::sample::select(vec![0u32, 1]),
        ) {
            let v = f32::from_bits((neg << 31) | 0x7F80_0000 | payload);
            let h = Half::from_f32(v);
            prop_assert!(h.is_nan());
            prop_assert!(h.to_bits() & 0x0200 != 0, "quiet bit must be set");
            prop_assert!(h.to_f32().is_nan(), "NaN survives the return trip");
        }

        #[test]
        fn roundtrip_is_identity_for_non_nan_patterns(bits: u16) {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                prop_assert!(Half::from_f32(h.to_f32()).is_nan());
            } else {
                prop_assert_eq!(Half::from_f32(h.to_f32()).to_bits(), bits);
            }
        }

        #[test]
        fn f32_to_f16_slice_matches_per_element(raw in prop::collection::vec(any::<u32>(), 0..64)) {
            // Arbitrary bit patterns, NaNs and infinities included.
            let src: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            for dst in convert_in_both_copies(&src) {
                for (&x, &h) in src.iter().zip(&dst) {
                    prop_assert_eq!(h.to_bits(), from_f32_oracle(x).to_bits());
                }
            }
        }

        #[test]
        fn from_f32_matches_the_oracle(bits: u32) {
            // Arbitrary bit patterns, NaNs and infinities included.
            let x = f32::from_bits(bits);
            prop_assert_eq!(Half::from_f32(x).to_bits(), from_f32_oracle(x).to_bits());
        }
    }

    #[test]
    fn zero_roundtrip() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert!(Half::ZERO.is_zero());
        assert!(Half::from_f32(-0.0).is_zero());
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(Half::from_f32(v).to_f32(), v, "i={i}");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let v = (2.0f32).powi(e);
            assert_eq!(Half::from_f32(v).to_f32(), v, "e={e}");
        }
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal is 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(Half::from_f32(tiny).to_f32(), tiny);
        let h = Half::from_bits(0x0001);
        assert_eq!(h.to_f32(), tiny);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(Half::from_f32(70000.0).is_infinite());
        assert!(Half::from_f32(-70000.0).is_infinite());
        assert_eq!(Half::from_f32(f32::INFINITY), Half::INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!(Half::NAN.to_f32().is_nan());
    }

    #[test]
    fn max_value() {
        assert_eq!(Half::MAX.to_f32(), 65504.0);
        assert_eq!(Half::from_f32(65504.0), Half::MAX);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next f16;
        // RNE keeps the even mantissa (1.0).
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(Half::from_f32(halfway).to_f32(), 1.0);
        // 1.0 + 3*2^-11 is halfway with an odd low bit -> rounds up.
        let halfway_odd = 1.0 + 3.0 * (2.0f32).powi(-11);
        let next2 = 1.0 + 2.0 * (2.0f32).powi(-10);
        assert_eq!(Half::from_f32(halfway_odd).to_f32(), next2);
    }

    #[test]
    fn arithmetic_matches_f32_then_round() {
        let a = Half::from_f32(0.1);
        let b = Half::from_f32(0.2);
        let s = a + b;
        assert_eq!(s, Half::from_f32(a.to_f32() + b.to_f32()));
    }

    #[test]
    fn neg_flips_sign_bit_only() {
        let a = Half::from_f32(1.5);
        assert_eq!((-a).to_f32(), -1.5);
        assert_eq!((-(-a)), a);
    }

    #[test]
    fn all_bit_patterns_convert_and_back() {
        // Every finite f16 must roundtrip f16 -> f32 -> f16 exactly.
        for bits in 0u16..=u16::MAX {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(Half::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    Half::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits={bits:#06x}"
                );
            }
        }
    }

    /// Every f16 pattern, compared as bits so NaN payloads and signed
    /// zeros count too.
    #[test]
    fn to_f32_matches_the_oracle_for_every_pattern() {
        for bits in 0u16..=u16::MAX {
            assert_eq!(
                Half::from_bits(bits).to_f32().to_bits(),
                f16_to_f32_bits(bits),
                "bits={bits:#06x}"
            );
        }
    }

    /// `vcvtph2ps` against [`Half::to_f32`] over every f16 pattern, eight
    /// at a time, compared as bits: signed zeros, subnormals, infinities
    /// and NaNs (both quiet a NaN to `sign | 0x7FC0_0000 | mant << 13`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f16c_matches_to_f32_for_every_pattern() {
        if Simd::detect().is_none() {
            eprintln!("skipped: the host lacks the SIMD features");
            return;
        }
        for lo in (0..=u16::MAX).step_by(8) {
            use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
            let halves: [u16; 8] = std::array::from_fn(|i| lo + i as u16);
            let mut wide = [0.0f32; 8];
            // SAFETY: the test holds a `Simd`, and both
            // pointers cover eight elements.
            unsafe {
                let v = _mm256_cvtph_ps(_mm_loadu_si128(halves.as_ptr().cast()));
                _mm256_storeu_ps(wide.as_mut_ptr(), v);
            }
            for (h, w) in halves.iter().zip(wide) {
                assert_eq!(
                    w.to_bits(),
                    Half::from_bits(*h).to_f32().to_bits(),
                    "bits={h:#06x}"
                );
            }
        }
    }

    #[test]
    fn ordering() {
        assert!(Half::from_f32(1.0) < Half::from_f32(2.0));
        assert!(Half::from_f32(-1.0) < Half::ZERO);
    }
}
