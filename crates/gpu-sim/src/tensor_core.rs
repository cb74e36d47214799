//! Functional emulation of the PTX `mma.m16n8k16` Tensor Core
//! instruction (paper Listing 1): FP16 operands with FP32 accumulation
//! (`.f32.f16.f16.f32`), and INT8 operands with `i32` accumulation
//! (`.s32.s8.s8.s32`).
//!
//! Operands are row-major tiles, not per-lane registers: the SpMM block
//! decodes each TCTile straight into a 16×16 A tile, and one batched
//! call multiplies it against every adjacent 8-column B tile of the
//! activation window. Both precisions share one MAC: a portable body,
//! and an AVX2 body generic over its lane type (`vmulps` + `vaddps` on
//! `f32`, never fused; `vpmulld` + `vpaddd` on `i32`). The MAC is
//! generic over the capability ([`Isa`]) and always inlined, so it
//! compiles into its caller's [`Simd::vectorize`] region: the SpMM
//! block's, or the standalone entry points' own. It never enters
//! `vectorize` itself. The register layout still shapes the format. In
//! the A fragment, with `group = lane / 4` and `tid = lane % 4`:
//!
//! * `Ra0` = `A[group][2*tid..]` (top-left 8×8 quadrant)
//! * `Ra1` = `A[group+8][2*tid..]` (bottom-left)
//! * `Ra2` = `A[group][2*tid+8..]` (top-right)
//! * `Ra3` = `A[group+8][2*tid+8..]` (bottom-right)
//!
//! The `Ra0..Ra3` ↔ quadrant order (column-major quadrants,
//! [`QUAD_ORIGINS`]) is why TCA-BME stores its 2×2 `BitmapTile`s in
//! column-major order (paper §4.2.1), and "lane `l` holds row-major
//! quadrant elements `2l` and `2l+1`" is why `MaskedPopCount` uses
//! offset `2l` (paper Algorithm 2). SMBD's unit tests pin its row
//! decode to that per-lane form.

use crate::counters::Counters;
use crate::cpu::{Isa, Portable, Simd};

/// Rows of the `mma` A operand / D result.
pub const MMA_M: usize = 16;
/// Columns of the B operand / D result.
pub const MMA_N: usize = 8;
/// Inner (reduction) dimension.
pub const MMA_K: usize = 16;

/// Quadrant origins `(row, col)` of the A-fragment registers `Ra0..Ra3`
/// inside their 16×16 tile: top-left, bottom-left, top-right,
/// bottom-right — the column-major quadrant order TCA-BME stores its
/// `BitmapTile`s in (paper §4.2.1).
pub const QUAD_ORIGINS: [(usize, usize); 4] = [(0, 0), (8, 0), (0, 8), (8, 8)];

/// Widest N-tile batch [`mma_m16n8k16_bslice_ntiles`] accepts: 16
/// accumulator tiles cover a 128-column X window, the widest `tile_n`
/// the SpMM launch geometry produces.
pub const MAX_NTILES: usize = 16;

/// 16×8 `f32` accumulator tile of the FP16 `mma` path, row-major
/// (`acc[m][n]`) — the FP32 sibling of [`AccS8`]. Each row is one
/// 8-lane vector, so the batched kernel adds a row of results into it
/// with one load, one add and one store.
pub type AccF32 = [[f32; MMA_N]; MMA_M];

/// Batched `mma.m16n8k16` on FP16 operands with FP32 accumulation: one
/// decoded A tile against `accs.len()` *adjacent* 8-column B tiles
/// (`accs[j]` covers B columns `j*8 .. j*8+8` of the row-major buffer
/// `b` with leading dimension `ld`; `b` must cover `(MMA_K - 1) * ld +
/// accs.len() * 8` elements). This is the FP16 SpMM hot path.
///
/// The rounding contract: every output element sums its products
/// `a[m][k] * b[k][n]` from `0.0` in ascending `k` — an unfused multiply
/// then add per step, with no zero-skip — and then adds the sum to its
/// accumulator once: the textbook per-element loop, bit for bit, for
/// every `accs.len()` in `1..=MAX_NTILES` (pinned by
/// `tests/simd_equiv.rs`; the portable body is pinned to the AVX2 body
/// by this module's unit tests).
///
/// Records one `mma` instruction per tile. An entry point: runs the AVX2
/// body inside [`Simd::vectorize`] where [`Simd::detect`] finds the
/// features, else the portable one.
pub fn mma_m16n8k16_bslice_ntiles(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    accs: &mut [AccF32],
) {
    match Simd::detect() {
        Some(s) => s.vectorize(
            #[inline(always)]
            move || mma_m16n8k16_bslice_body(s, counters, a, b, ld, accs),
        ),
        None => mma_m16n8k16_bslice_body(Portable, counters, a, b, ld, accs),
    }
}

/// The body of [`mma_m16n8k16_bslice_ntiles`] on the capability `cap`,
/// for a caller that already runs inside its own entry's
/// [`Simd::vectorize`] region (or on [`Portable`]). Always inlined, so it
/// compiles with its caller's features.
#[inline(always)]
pub fn mma_m16n8k16_bslice_body<C: Isa>(
    cap: C,
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    accs: &mut [AccF32],
) {
    mac_tiles(cap, a, b, ld, accs);
    counters.mma_insts += accs.len() as u64;
    counters.insts_issued += accs.len() as u64;
}

/// The MAC of both batched bodies: checks the bounds, then runs the AVX2
/// body on [`Simd`] and the portable body on [`Portable`].
#[inline(always)]
fn mac_tiles<C: Isa, L: Lane>(
    cap: C,
    a: &[[L; MMA_K]; MMA_M],
    b: &[L],
    ld: usize,
    accs: &mut [[[L; MMA_N]; MMA_M]],
) {
    let ntiles = accs.len();
    assert!(
        ntiles <= MAX_NTILES,
        "N-tile batch of {ntiles} exceeds MAX_NTILES = {MAX_NTILES}"
    );
    if ntiles == 0 {
        return;
    }
    let need = (MMA_K - 1) * ld + ntiles * MMA_N;
    assert!(
        b.len() >= need,
        "B slice of {} elements with ld {ld} cannot feed {ntiles} tiles",
        b.len()
    );
    match cap.simd() {
        // SAFETY: the token proves the features, and the assert above
        // bounds every B read.
        #[cfg(target_arch = "x86_64")]
        Some(_) => unsafe { avx2::mac_tiles(a, b, ld, accs) },
        _ => mac_tiles_flat(a, b, ld, accs),
    }
}

/// Rows of A one register block of the MAC carries: four A rows × two
/// 8-column B vectors keep eight running sums in `ymm` registers across
/// all 16 `k` steps.
const BLOCK_ROWS: usize = 4;

#[cfg(target_arch = "x86_64")]
use avx2::Lane;

/// An `mma` operand lane: `f32` for FP16, `i32` for INT8. On x86_64 it
/// is [`avx2::Lane`], which adds the vector ops of the AVX2 MAC.
#[cfg(not(target_arch = "x86_64"))]
trait Lane: Copy + Default + core::ops::AddAssign + core::ops::Mul<Output = Self> {}
#[cfg(not(target_arch = "x86_64"))]
impl Lane for f32 {}
#[cfg(not(target_arch = "x86_64"))]
impl Lane for i32 {}

/// Portable body of the MAC: per tile, a block of [`BLOCK_ROWS`] A rows
/// accumulates its 8-wide sums in locals across the `k` loop, the same
/// blocking the AVX2 body uses with one B vector per block. The only
/// body on hosts without the [`Simd`] features.
fn mac_tiles_flat<L: Lane>(
    a: &[[L; MMA_K]; MMA_M],
    b: &[L],
    ld: usize,
    accs: &mut [[[L; MMA_N]; MMA_M]],
) {
    for (j, acc) in accs.iter_mut().enumerate() {
        for (a_blk, acc_blk) in a
            .chunks_exact(BLOCK_ROWS)
            .zip(acc.chunks_exact_mut(BLOCK_ROWS))
        {
            let mut sums = [[L::default(); MMA_N]; BLOCK_ROWS];
            for k in 0..MMA_K {
                let brow = &b[k * ld + j * MMA_N..][..MMA_N];
                for (s, a_row) in sums.iter_mut().zip(a_blk) {
                    let av = a_row[k];
                    for (s, &bv) in s.iter_mut().zip(brow) {
                        *s += av * bv;
                    }
                }
            }
            for (row, s) in acc_blk.iter_mut().zip(&sums) {
                for (o, &s) in row.iter_mut().zip(s) {
                    *o += s;
                }
            }
        }
    }
}

/// The AVX2 MAC, one body for both lane types. Every function here is an
/// intrinsic leaf: `#[inline(always)]`, with no features of its own, to
/// inline into a [`Simd::vectorize`] region.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_mul_ps, _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256,
    };
    use core::ops::{AddAssign, Mul};

    use super::{BLOCK_ROWS, MMA_K, MMA_M, MMA_N};

    /// An `mma` operand lane, `f32` for FP16 or `i32` for INT8, with the
    /// eight-lane vector ops the MAC needs.
    pub(super) trait Lane: Copy + Default + AddAssign + Mul<Output = Self> {
        /// Eight lanes in one `ymm` register.
        type V: Copy;
        /// Eight zeros.
        unsafe fn zero() -> Self::V;
        /// `x` in all eight lanes.
        unsafe fn splat(x: Self) -> Self::V;
        /// Eight lanes from `p`.
        unsafe fn load(p: *const Self) -> Self::V;
        /// Eight lanes to `p`.
        unsafe fn store(p: *mut Self, v: Self::V);
        /// Lane-wise product.
        unsafe fn vmul(a: Self::V, b: Self::V) -> Self::V;
        /// Lane-wise sum.
        unsafe fn vadd(a: Self::V, b: Self::V) -> Self::V;
    }

    /// `vmulps` then `vaddps`: the sum rounds after every product.
    impl Lane for f32 {
        type V = __m256;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn vmul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn vadd(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
    }

    /// `vpmulld` then `vpaddd`: exact, since `i8`-range products summed
    /// over 16 `k` steps stay far inside `i32`.
    impl Lane for i32 {
        type V = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn splat(x: i32) -> __m256i {
            _mm256_set1_epi32(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const i32) -> __m256i {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut i32, v: __m256i) {
            _mm256_storeu_si256(p.cast(), v)
        }
        #[inline(always)]
        unsafe fn vmul(a: __m256i, b: __m256i) -> __m256i {
            _mm256_mullo_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn vadd(a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi32(a, b)
        }
    }

    /// The AVX2 MAC body: tiles in pairs (a last odd tile alone), A rows
    /// in blocks of [`BLOCK_ROWS`].
    ///
    /// # Safety
    ///
    /// The host has the [`Simd`](crate::cpu::Simd) features, and `b`
    /// must cover `(MMA_K - 1) * ld + accs.len() * MMA_N` elements.
    #[inline(always)]
    pub(super) unsafe fn mac_tiles<L: Lane>(
        a: &[[L; MMA_K]; MMA_M],
        b: &[L],
        ld: usize,
        accs: &mut [[[L; MMA_N]; MMA_M]],
    ) {
        for (p, pair) in accs.chunks_mut(2).enumerate() {
            // SAFETY: the pair's first tile starts at column
            // `2 p * MMA_N`, inside the caller's bound.
            let bj = unsafe { b.as_ptr().add(2 * p * MMA_N) };
            for m0 in (0..MMA_M).step_by(BLOCK_ROWS) {
                // SAFETY: the caller holds the features; `bj` covers
                // `pair.len()` tiles for every `k` row.
                unsafe {
                    match pair {
                        [t0, t1] => mac_block([t0, t1], a, m0, bj, ld),
                        [t0] => mac_block([t0], a, m0, bj, ld),
                        _ => unreachable!("chunks_mut(2) yields one or two tiles"),
                    }
                }
            }
        }
    }

    /// One register block: A rows `m0 .. m0 + BLOCK_ROWS` against `W`
    /// adjacent tiles. The `BLOCK_ROWS × W` sums start at zero, take
    /// `sum + a * b` (multiply, then add — never fused) for `k`
    /// ascending, with no zero-skip, and are added once into the
    /// accumulator rows. The host has the features, and `b` covers `(MMA_K - 1) * ld + W * MMA_N` elements.
    #[inline(always)]
    unsafe fn mac_block<L: Lane, const W: usize>(
        tiles: [&mut [[L; MMA_N]; MMA_M]; W],
        a: &[[L; MMA_K]; MMA_M],
        m0: usize,
        b: *const L,
        ld: usize,
    ) {
        let mut sums = [[L::zero(); W]; BLOCK_ROWS];
        for k in 0..MMA_K {
            let vb: [_; W] = core::array::from_fn(|w| L::load(b.add(k * ld + w * MMA_N)));
            for (r, row) in sums.iter_mut().enumerate() {
                let va = L::splat(a[m0 + r][k]);
                for (s, &v) in row.iter_mut().zip(&vb) {
                    *s = L::vadd(*s, L::vmul(va, v));
                }
            }
        }
        for (w, tile) in tiles.into_iter().enumerate() {
            for (r, row) in sums.iter().enumerate() {
                let dst = tile[m0 + r].as_mut_ptr();
                L::store(dst, L::vadd(L::load(dst), row[w]));
            }
        }
    }
}

/// 16×8 `i32` accumulator tile for the integer Tensor Core path
/// (`mma.m16n8k16.s8.s8.s32`), row-major like [`AccF32`]. The INT8 SpMM
/// block loop keeps one per N-tile and folds it into `f32` output with
/// the GroupTile scale in the epilogue.
pub type AccS8 = [[i32; MMA_N]; MMA_M];

/// Batched warp-wide `mma.m16n8k16` on INT8 operands with `i32`
/// accumulation — the integer-pipe counterpart of
/// [`mma_m16n8k16_bslice_ntiles`]. `a` holds a 16×16 tile of weight
/// codes (i8 widened to `i32` by the decoder), `b` a row-major `i32`
/// activation-code buffer with leading dimension `ld` (`accs[j]` covers
/// B columns `j*8 .. j*8+8`; `b` must span `(MMA_K-1) * ld +
/// accs.len() * 8` elements).
///
/// Integer accumulation is exact and associative, so unlike the FP16
/// path there is no rounding-order contract: any summation order, and
/// either body, gives the same bits (the portable body is pinned to the
/// AVX2 body by this module's unit tests). Products of `i8`-range codes
/// summed over 16 `k` steps stay far inside `i32`.
/// Records one `mma.s8` instruction per tile (`mma_s8_insts`, priced at
/// twice the FP16 per-instruction Tensor Core throughput by the timing
/// model) plus the matching issue slots. An entry point: runs the AVX2
/// body inside [`Simd::vectorize`] where [`Simd::detect`] finds the
/// features, else the portable one.
pub fn mma_m16n8k16_s8_ntiles(
    counters: &mut Counters,
    a: &[[i32; MMA_K]; MMA_M],
    b: &[i32],
    ld: usize,
    accs: &mut [AccS8],
) {
    match Simd::detect() {
        Some(s) => s.vectorize(
            #[inline(always)]
            move || mma_m16n8k16_s8_body(s, counters, a, b, ld, accs),
        ),
        None => mma_m16n8k16_s8_body(Portable, counters, a, b, ld, accs),
    }
}

/// The body of [`mma_m16n8k16_s8_ntiles`] on the capability `cap`, for a
/// caller already inside its own entry's [`Simd::vectorize`] region (or
/// on [`Portable`]). Always inlined, so it compiles with its caller's
/// features.
#[inline(always)]
pub fn mma_m16n8k16_s8_body<C: Isa>(
    cap: C,
    counters: &mut Counters,
    a: &[[i32; MMA_K]; MMA_M],
    b: &[i32],
    ld: usize,
    accs: &mut [AccS8],
) {
    mac_tiles(cap, a, b, ld, accs);
    counters.mma_s8_insts += accs.len() as u64;
    counters.insts_issued += accs.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{random_dense, ValueDist};

    /// Row-major `f32` view of a 16×16 A tile starting at column `c0`.
    fn a_rows(m: &crate::matrix::DenseMatrix, c0: usize) -> [[f32; MMA_K]; MMA_M] {
        core::array::from_fn(|r| core::array::from_fn(|c| m.get(r, c0 + c).to_f32()))
    }

    #[test]
    fn mma_matches_reference_product() {
        let a = random_dense(16, 16, ValueDist::Uniform, 21);
        let b = random_dense(16, 8, ValueDist::Uniform, 22);
        let mut counters = Counters::new();
        let mut acc = [[[0.0f32; MMA_N]; MMA_M]];
        mma_m16n8k16_bslice_ntiles(
            &mut counters,
            &a_rows(&a, 0),
            &b.to_f32_vec(),
            MMA_N,
            &mut acc,
        );
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                let diff = (acc[0][r][c] - reference[r * 8 + c]).abs();
                assert!(diff < 1e-4, "({r},{c}) diff {diff}");
            }
        }
        assert_eq!(counters.mma_insts, 1);
    }

    /// Operand palette for `flat_body_matches_avx2_body_bit_for_bit`:
    /// signed zeros, infinities, NaN and subnormals.
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE / 3.0,
    ];

    /// `xorshift64*` draw: a special value with probability `1/32`, a
    /// signed zero with probability `1/zero_in` (never when `zero_in` is
    /// 0), else a full-mantissa normal in `±[1/16, 16)`.
    fn draw(state: &mut u64, zero_in: u64) -> f32 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        if r.is_multiple_of(32) {
            return SPECIALS[(r >> 8) as usize % SPECIALS.len()];
        }
        if zero_in != 0 && (r >> 16).is_multiple_of(zero_in) {
            return if r & (1 << 40) == 0 { 0.0 } else { -0.0 };
        }
        let sign = ((r >> 63) as u32) << 31;
        let exp = (123 + (r >> 32) % 8) as u32;
        f32::from_bits(sign | exp << 23 | (r as u32 & 0x7f_ffff))
    }

    /// The portable body is the only one hosts without the [`Simd`]
    /// features run, so on a host with them it is pinned to the AVX2
    /// body, which the entry point runs there, bit for bit (any NaN matches any NaN), for every batch width
    /// and a leading dimension wider than the batch.
    #[test]
    fn flat_body_matches_avx2_body_bit_for_bit() {
        if Simd::detect().is_none() {
            eprintln!("skipped: the host lacks the SIMD features");
            return;
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for ntiles in 1..=MAX_NTILES {
            let ld = ntiles * MMA_N + 5;
            let a: [[f32; MMA_K]; MMA_M] =
                core::array::from_fn(|_| core::array::from_fn(|_| draw(&mut state, 2)));
            let b: Vec<f32> = (0..(MMA_K - 1) * ld + ntiles * MMA_N)
                .map(|_| draw(&mut state, 0))
                .collect();
            let init: Vec<AccF32> = (0..ntiles)
                .map(|_| core::array::from_fn(|_| core::array::from_fn(|_| draw(&mut state, 4))))
                .collect();
            let mut flat = init.clone();
            mma_m16n8k16_bslice_body(Portable, &mut Counters::new(), &a, &b, ld, &mut flat);
            let mut avx2 = init;
            mma_m16n8k16_bslice_ntiles(&mut Counters::new(), &a, &b, ld, &mut avx2);
            for (j, (f, v)) in flat.iter().zip(&avx2).enumerate() {
                for (m, (fr, vr)) in f.iter().zip(v).enumerate() {
                    for (n, (&x, &y)) in fr.iter().zip(vr).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                            "ntiles {ntiles} tile {j} ({m},{n}): flat {x:e} vs avx2 {y:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mma_accumulates_into_c() {
        let a = random_dense(16, 16, ValueDist::Uniform, 31);
        let b = random_dense(16, 8, ValueDist::Uniform, 32);
        let mut counters = Counters::new();
        let mut acc = [[[5.0f32; MMA_N]; MMA_M]];
        mma_m16n8k16_bslice_ntiles(
            &mut counters,
            &a_rows(&a, 0),
            &b.to_f32_vec(),
            MMA_N,
            &mut acc,
        );
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                assert!((acc[0][r][c] - (reference[r * 8 + c] + 5.0)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn two_step_k_accumulation_equals_k32_product() {
        // Splitting K=32 into two mma calls must equal one 16x32 * 32x8
        // reference product.
        let a = random_dense(16, 32, ValueDist::Uniform, 41);
        let b = random_dense(32, 8, ValueDist::Uniform, 42);
        let bf = b.to_f32_vec();
        let mut counters = Counters::new();
        let mut acc = [[[0.0f32; MMA_N]; MMA_M]];
        for step in 0..2 {
            let b_step = &bf[16 * step * MMA_N..];
            mma_m16n8k16_bslice_ntiles(
                &mut counters,
                &a_rows(&a, 16 * step),
                b_step,
                MMA_N,
                &mut acc,
            );
        }
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                assert!((acc[0][r][c] - reference[r * 8 + c]).abs() < 1e-3);
            }
        }
        assert_eq!(counters.mma_insts, 2);
    }

    /// Deterministic i8-range code tile: values in [-127, 127].
    fn code_tile(seed: i32) -> [[i32; MMA_K]; MMA_M] {
        let mut t = [[0i32; MMA_K]; MMA_M];
        for (m, row) in t.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                let h = (m as i32)
                    .wrapping_mul(31)
                    .wrapping_add(k as i32)
                    .wrapping_mul(seed.wrapping_mul(2).wrapping_add(1));
                *v = (h.rem_euclid(255)) - 127;
            }
        }
        t
    }

    /// The textbook n-inner triple loop of one INT8 `mma` tile, no
    /// zero-skip: each output sums its products from `0` in ascending
    /// `k`, then adds the sum to the accumulator. Same counter writes as
    /// one tile of [`mma_m16n8k16_s8_ntiles`].
    fn mma_s8_oracle(
        counters: &mut Counters,
        a: &[[i32; MMA_K]; MMA_M],
        b: &[i32],
        ld: usize,
        acc: &mut AccS8,
    ) {
        for (a_row, acc_row) in a.iter().zip(acc.iter_mut()) {
            for (n, out) in acc_row.iter_mut().enumerate() {
                let mut sum = 0i32;
                for (k, &av) in a_row.iter().enumerate() {
                    sum += av * b[k * ld + n];
                }
                *out += sum;
            }
        }
        counters.mma_s8_insts += 1;
        counters.insts_issued += 1;
    }

    #[test]
    fn s8_ntiles_matches_scalar_oracle() {
        // The batched integer path must agree bit-exactly with the
        // textbook triple loop on every tile of the batch.
        let a = code_tile(7);
        let ld = 3 * MMA_N;
        let mut b = vec![0i32; MMA_K * ld];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as i32).wrapping_mul(37).rem_euclid(255)) - 127;
        }
        let mut c1 = Counters::new();
        let mut batched = [[[0i32; MMA_N]; MMA_M]; 3];
        mma_m16n8k16_s8_ntiles(&mut c1, &a, &b, ld, &mut batched);
        let mut c2 = Counters::new();
        let mut oracle = [[[0i32; MMA_N]; MMA_M]; 3];
        for (j, acc) in oracle.iter_mut().enumerate() {
            mma_s8_oracle(&mut c2, &a, &b[j * MMA_N..], ld, acc);
        }
        assert_eq!(batched, oracle);
        assert_eq!(c1.mma_s8_insts, 3);
        assert_eq!(c2.mma_s8_insts, 3);
        assert_eq!(c1.insts_issued, 3);
        assert_eq!(c1.mma_insts, 0, "integer mma must not count as FP16 mma");
    }

    #[test]
    fn s8_accumulation_is_exact_at_full_scale() {
        // All-127 operands: each dot product is 127 * 127 * 16 = 258064,
        // well inside i32 but outside f32's 2^24 exact-integer window —
        // the reason the path carries i32 accumulators.
        let a = [[127i32; MMA_K]; MMA_M];
        let b = vec![127i32; MMA_K * MMA_N];
        let mut counters = Counters::new();
        let mut acc = [[[0i32; MMA_N]; MMA_M]; 1];
        mma_m16n8k16_s8_ntiles(&mut counters, &a, &b, MMA_N, &mut acc);
        for row in &acc[0] {
            for &v in row {
                assert_eq!(v, 127 * 127 * 16);
            }
        }
    }

    #[test]
    fn s8_accumulates_on_top_of_existing_values() {
        // Two successive K-steps must sum, as the FP16 accumulators do.
        let a = code_tile(11);
        let b: Vec<i32> = (0..MMA_K * MMA_N).map(|i| (i as i32 % 200) - 100).collect();
        let mut counters = Counters::new();
        let mut once = [[[0i32; MMA_N]; MMA_M]; 1];
        mma_m16n8k16_s8_ntiles(&mut counters, &a, &b, MMA_N, &mut once);
        let mut twice = [[[0i32; MMA_N]; MMA_M]; 1];
        mma_m16n8k16_s8_ntiles(&mut counters, &a, &b, MMA_N, &mut twice);
        mma_m16n8k16_s8_ntiles(&mut counters, &a, &b, MMA_N, &mut twice);
        for m in 0..MMA_M {
            for n in 0..MMA_N {
                assert_eq!(twice[0][m][n], 2 * once[0][m][n]);
            }
        }
        assert_eq!(counters.mma_s8_insts, 3);
    }

    /// `xorshift64*` draw of an `i8`-range code: ±127 and zero each with
    /// probability `1/8`, −128 (a flipped sign bit of `0`) with `1/16`,
    /// else any code.
    fn draw_code(state: &mut u64) -> i32 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        match r % 16 {
            0 | 1 => 127,
            2 | 3 => -127,
            4 | 5 => 0,
            6 => -128,
            _ => i32::from((r >> 32) as i8),
        }
    }

    /// The portable `s8` body is the only one hosts without the [`Simd`]
    /// features run, so on a host with them it is pinned to the AVX2
    /// body, which the entry point runs there, bit for bit, for every batch width, a leading dimension wider
    /// than the batch, extreme codes and nonzero starting accumulators.
    #[test]
    fn s8_flat_body_matches_avx2_body_bit_for_bit() {
        if Simd::detect().is_none() {
            eprintln!("skipped: the host lacks the SIMD features");
            return;
        }
        let mut state = 0x5eed_0008_c0de_u64;
        for ntiles in 1..=MAX_NTILES {
            let ld = ntiles * MMA_N + 3;
            let a: [[i32; MMA_K]; MMA_M] =
                core::array::from_fn(|_| core::array::from_fn(|_| draw_code(&mut state)));
            let b: Vec<i32> = (0..(MMA_K - 1) * ld + ntiles * MMA_N)
                .map(|_| draw_code(&mut state))
                .collect();
            let init: Vec<AccS8> = (0..ntiles)
                .map(|_| {
                    core::array::from_fn(|_| core::array::from_fn(|_| draw_code(&mut state) * 4099))
                })
                .collect();
            let (mut cf, mut cv) = (Counters::new(), Counters::new());
            let mut flat = init.clone();
            mma_m16n8k16_s8_body(Portable, &mut cf, &a, &b, ld, &mut flat);
            let mut avx2 = init.clone();
            mma_m16n8k16_s8_ntiles(&mut cv, &a, &b, ld, &mut avx2);
            assert_eq!(flat, avx2, "ntiles {ntiles}");
            assert_ne!(flat, init, "ntiles {ntiles}: the batch must accumulate");
            assert_eq!(cf, cv, "ntiles {ntiles}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot feed 3 tiles")]
    fn s8_rejects_a_short_b_slice() {
        let a = [[1i32; MMA_K]; MMA_M];
        let ld = 3 * MMA_N;
        let b = vec![1i32; (MMA_K - 1) * ld + 3 * MMA_N - 1];
        let mut accs = [[[0i32; MMA_N]; MMA_M]; 3];
        mma_m16n8k16_s8_ntiles(&mut Counters::new(), &a, &b, ld, &mut accs);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_NTILES")]
    fn s8_rejects_oversized_batches() {
        let a = [[0i32; MMA_K]; MMA_M];
        let b = vec![0i32; MMA_K * (MAX_NTILES + 1) * MMA_N];
        let mut counters = Counters::new();
        let mut accs = vec![[[0i32; MMA_N]; MMA_M]; MAX_NTILES + 1];
        mma_m16n8k16_s8_ntiles(&mut counters, &a, &b, (MAX_NTILES + 1) * MMA_N, &mut accs);
    }
}
