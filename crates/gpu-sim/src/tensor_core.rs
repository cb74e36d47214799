//! Functional emulation of the PTX `mma.m16n8k16.row.col.f32.f16.f16.f32`
//! Tensor Core instruction (paper Listing 1).
//!
//! The emulation is *fragment-level*: each of the 32 lanes of a warp holds
//! the exact registers the real instruction expects —
//!
//! * `A` (16×16 FP16, row-major): four `.f16x2` registers `Ra0..Ra3` per
//!   lane. With `group = lane / 4` and `tid = lane % 4`:
//!   - `Ra0` = `A[group][2*tid]`, `A[group][2*tid+1]` (top-left 8×8)
//!   - `Ra1` = `A[group+8][2*tid..]` (bottom-left)
//!   - `Ra2` = `A[group][2*tid+8..]` (top-right)
//!   - `Ra3` = `A[group+8][2*tid+8..]` (bottom-right)
//! * `B` (16×8 FP16, column-major operand): two registers `Rb0`, `Rb1`:
//!   - `Rb0` = `B[2*tid][group]`, `B[2*tid+1][group]`
//!   - `Rb1` = `B[2*tid+8][group]`, `B[2*tid+9][group]`
//! * `C`/`D` (16×8 FP32): four registers:
//!   - `c0,c1` = `C[group][2*tid..]`, `c2,c3` = `C[group+8][2*tid..]`
//!
//! The `Ra0..Ra3` ↔ 8×8 quadrant correspondence (top-left, bottom-left,
//! top-right, bottom-right — i.e. column-major quadrants) is exactly why
//! TCA-BME stores its 2×2 `BitmapTile`s in column-major order (paper
//! §4.2.1), and the within-quadrant rule "lane `l` holds row-major
//! elements `2l` and `2l+1`" is why `MaskedPopCount` uses offset `2l`
//! (paper Algorithm 2). SpInfer's decoder and every Tensor-Core baseline
//! share this single implementation, so a layout bug cannot cancel out.

use crate::counters::Counters;
use crate::fp16::{pack_f16x2, unpack_f16x2, unpack_f16x2_f32, Half};

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

/// Unpacks one packed `.f16x2` register into two `f32` slots of a
/// row-major tile view — the low half at `lo_rc`, the high half at
/// `hi_rc`. Every fragment `to_f32_rows` view funnels through here, so
/// the register→`f32` LUT conversion has a single owner.
#[inline]
fn unpack_reg_at<const C: usize, const R: usize>(
    t: &mut [[f32; C]; R],
    reg: u32,
    lo_rc: (usize, usize),
    hi_rc: (usize, usize),
) {
    let (lo, hi) = unpack_f16x2_f32(reg);
    t[lo_rc.0][lo_rc.1] = lo;
    t[hi_rc.0][hi_rc.1] = hi;
}

/// Per-warp A fragment: `regs[lane][r]` is the `.f16x2` register `Ra{r}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragA {
    /// Packed `.f16x2` registers, indexed `[lane][reg]`.
    pub regs: [[u32; 4]; 32],
}

/// Per-warp B fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragB {
    /// Packed `.f16x2` registers, indexed `[lane][reg]`.
    pub regs: [[u32; 2]; 32],
}

/// Per-warp FP32 accumulator fragment.
#[derive(Clone, Debug, PartialEq)]
pub struct FragC {
    /// FP32 registers, indexed `[lane][reg]`.
    pub regs: [[f32; 4]; 32],
}

impl FragA {
    /// An all-zero fragment.
    pub fn zero() -> Self {
        FragA { regs: [[0; 4]; 32] }
    }

    /// Builds the fragment from a dense 16×16 tile given as a row-major
    /// accessor `tile(row, col)`.
    pub fn from_tile<F: Fn(usize, usize) -> Half>(tile: F) -> Self {
        let mut f = FragA::zero();
        for lane in 0..32 {
            let (qr, qc) = lane_quadrant_coords(lane);
            for (reg, &(dr, dc)) in QUAD_ORIGINS.iter().enumerate() {
                let lo = tile(qr + dr, qc + dc);
                let hi = tile(qr + dr, qc + dc + 1);
                f.regs[lane][reg] = pack_f16x2(lo, hi);
            }
        }
        f
    }

    /// Reconstructs the dense 16×16 tile this fragment represents.
    pub fn to_tile(&self) -> [[Half; MMA_K]; MMA_M] {
        let mut t = [[Half::ZERO; MMA_K]; MMA_M];
        for lane in 0..32 {
            let (qr, qc) = lane_quadrant_coords(lane);
            for (reg, &(dr, dc)) in QUAD_ORIGINS.iter().enumerate() {
                let (lo, hi) = unpack_f16x2(self.regs[lane][reg]);
                t[qr + dr][qc + dc] = lo;
                t[qr + dr][qc + dc + 1] = hi;
            }
        }
        t
    }

    /// Decode-once `f32` view of the 16×16 A tile: every element is
    /// unpacked and converted exactly once, so an mma MAC loop over the
    /// returned rows performs no per-element bit-decode. Decoding an A
    /// fragment once and reusing the view across the N-blocks it
    /// multiplies is the simulator's main serial hot-path optimisation.
    pub fn to_f32_rows(&self) -> [[f32; MMA_K]; MMA_M] {
        let mut t = [[0.0f32; MMA_K]; MMA_M];
        for (lane, regs) in self.regs.iter().enumerate() {
            let (qr, qc) = lane_quadrant_coords(lane);
            for (&reg, &(dr, dc)) in regs.iter().zip(&QUAD_ORIGINS) {
                unpack_reg_at(&mut t, reg, (qr + dr, qc + dc), (qr + dr, qc + dc + 1));
            }
        }
        t
    }
}

impl FragB {
    /// An all-zero fragment.
    pub fn zero() -> Self {
        FragB { regs: [[0; 2]; 32] }
    }

    /// Builds the fragment from a dense 16×8 tile accessor `tile(k, n)`.
    pub fn from_tile<F: Fn(usize, usize) -> Half>(tile: F) -> Self {
        let mut f = FragB::zero();
        for lane in 0..32 {
            let group = lane / 4;
            let tid = lane % 4;
            f.regs[lane][0] = pack_f16x2(tile(2 * tid, group), tile(2 * tid + 1, group));
            f.regs[lane][1] = pack_f16x2(tile(2 * tid + 8, group), tile(2 * tid + 9, group));
        }
        f
    }

    /// Reconstructs the dense 16×8 tile.
    pub fn to_tile(&self) -> [[Half; MMA_N]; MMA_K] {
        let mut t = [[Half::ZERO; MMA_N]; MMA_K];
        for lane in 0..32 {
            let group = lane / 4;
            let tid = lane % 4;
            let (b0, b1) = unpack_f16x2(self.regs[lane][0]);
            let (b2, b3) = unpack_f16x2(self.regs[lane][1]);
            t[2 * tid][group] = b0;
            t[2 * tid + 1][group] = b1;
            t[2 * tid + 8][group] = b2;
            t[2 * tid + 9][group] = b3;
        }
        t
    }

    /// Decode-once `f32` view of the 16×8 B tile (row-major `[k][n]`),
    /// the B-side counterpart of [`FragA::to_f32_rows`].
    pub fn to_f32_rows(&self) -> [[f32; MMA_N]; MMA_K] {
        let mut t = [[0.0f32; MMA_N]; MMA_K];
        for (lane, regs) in self.regs.iter().enumerate() {
            // B pairs run down a column: register r covers rows
            // `2*tid + 8r` and `2*tid + 8r + 1` of column `group`.
            let (group, col2) = lane_quadrant_coords(lane);
            for (r, &reg) in regs.iter().enumerate() {
                let k = col2 + 8 * r;
                unpack_reg_at(&mut t, reg, (k, group), (k + 1, group));
            }
        }
        t
    }
}

impl FragC {
    /// An all-zero accumulator.
    pub fn zero() -> Self {
        FragC {
            regs: [[0.0; 4]; 32],
        }
    }

    /// Builds the fragment from a dense 16×8 FP32 accessor.
    pub fn from_tile<F: Fn(usize, usize) -> f32>(tile: F) -> Self {
        let mut f = FragC::zero();
        for lane in 0..32 {
            let group = lane / 4;
            let tid = lane % 4;
            f.regs[lane][0] = tile(group, 2 * tid);
            f.regs[lane][1] = tile(group, 2 * tid + 1);
            f.regs[lane][2] = tile(group + 8, 2 * tid);
            f.regs[lane][3] = tile(group + 8, 2 * tid + 1);
        }
        f
    }

    /// Reconstructs the dense 16×8 FP32 tile.
    pub fn to_tile(&self) -> [[f32; MMA_N]; MMA_M] {
        let mut t = [[0.0; MMA_N]; MMA_M];
        for lane in 0..32 {
            let group = lane / 4;
            let tid = lane % 4;
            t[group][2 * tid] = self.regs[lane][0];
            t[group][2 * tid + 1] = self.regs[lane][1];
            t[group + 8][2 * tid] = self.regs[lane][2];
            t[group + 8][2 * tid + 1] = self.regs[lane][3];
        }
        t
    }
}

/// The accumulator register holding output element `(m, n)`: inverting
/// the `FragC` layout (`regs[lane] = [C[g][2t], C[g][2t+1], C[g+8][2t],
/// C[g+8][2t+1]]` with `g = lane/4`, `t = lane%4`) gives `lane =
/// (m%8)*4 + n/2`, `reg = 2*(m/8) + n%2`. The per-tile scalar oracles
/// update `acc.regs` in place through it.
#[inline]
fn acc_slot(m: usize, n: usize) -> (usize, usize) {
    ((m % 8) * 4 + n / 2, 2 * (m / 8) + n % 2)
}

/// Whether the explicit-SIMD MAC kernel is live: compiled in via the
/// `simd` feature *and* supported by the host CPU (AVX2, detected once
/// per process). With the feature off, or on a non-x86_64 target, this
/// is `false` and every mma runs the portable flat kernel — which is
/// bit-identical, so the answer never changes results, only wall-clock.
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Executes one warp-wide `mma.m16n8k16`: `acc = A × B + acc`, FP16 inputs
/// with FP32 accumulation, recording one `mma` instruction.
pub fn mma_m16n8k16(counters: &mut Counters, a: &FragA, b: &FragB, acc: &mut FragC) {
    mma_m16n8k16_f32(counters, &a.to_f32_rows(), &b.to_f32_rows(), acc);
}

/// Decode-once `mma.m16n8k16` on pre-decoded operand views
/// ([`FragA::to_f32_rows`] / [`FragB::to_f32_rows`]): the dense 16×8 B
/// tile is a row-major slice with leading dimension [`MMA_N`], run
/// through [`mma_m16n8k16_bslice`]. Results are bit-identical to the
/// fragment-level path and to [`mma_m16n8k16_f32_scalar`].
pub fn mma_m16n8k16_f32(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[[f32; MMA_N]; MMA_K],
    acc: &mut FragC,
) {
    mma_m16n8k16_bslice(counters, a, b.as_flattened(), MMA_N, acc);
}

/// Retained scalar oracle of [`mma_m16n8k16_f32`]: the pre-vectorization
/// n-inner loop, kept so the proptest equivalence suite and the hotpath
/// microbenchmarks can pin the flat/SIMD panels against an independent
/// definition. Identical counter writes.
pub fn mma_m16n8k16_f32_scalar(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[[f32; MMA_N]; MMA_K],
    acc: &mut FragC,
) {
    for (m, a_row) in a.iter().enumerate() {
        for n in 0..MMA_N {
            let mut sum = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                sum += av * b[k][n];
            }
            let (lane, reg) = acc_slot(m, n);
            acc.regs[lane][reg] += sum;
        }
    }
    counters.mma_insts += 1;
    counters.insts_issued += 1;
}

/// [`mma_m16n8k16_f32`] reading B from a row-major `f32` buffer with
/// leading dimension `ld` (`B[k][n] = b[k * ld + n]`). This is the SpMM
/// hot path: the X activation tile is converted to `f32` once per
/// GroupTile column and every mma strides straight into that buffer —
/// no per-N-block `FragB` construction at all. `b` must cover
/// `(MMA_K - 1) * ld + MMA_N` elements.
///
/// The single-tile, fragment-layout form of
/// [`mma_m16n8k16_bslice_ntiles`]: the accumulator is moved to a
/// row-major tile and back, which copies every element unchanged.
pub fn mma_m16n8k16_bslice(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    acc: &mut FragC,
) {
    let mut tile = [acc.to_tile()];
    mma_m16n8k16_bslice_ntiles(counters, a, b, ld, &mut tile);
    *acc = FragC::from_tile(|r, c| tile[0][r][c]);
}

/// Retained scalar oracle of [`mma_m16n8k16_bslice`]; see
/// [`mma_m16n8k16_f32_scalar`] for the oracle policy.
pub fn mma_m16n8k16_bslice_scalar(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    acc: &mut FragC,
) {
    for (m, a_row) in a.iter().enumerate() {
        for n in 0..MMA_N {
            let mut sum = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                sum += av * b[k * ld + n];
            }
            let (lane, reg) = acc_slot(m, n);
            acc.regs[lane][reg] += sum;
        }
    }
    counters.mma_insts += 1;
    counters.insts_issued += 1;
}

/// Widest N-tile batch [`mma_m16n8k16_bslice_ntiles`] accepts: 16
/// accumulator tiles cover a 128-column X window, the widest `tile_n`
/// the SpMM launch geometry produces.
pub const MAX_NTILES: usize = 16;

/// 16×8 `f32` accumulator tile of the FP16 `mma` path, row-major
/// (`acc[m][n]`) — the plain-array counterpart of [`FragC`]'s per-lane
/// register layout and the FP32 sibling of [`AccS8`]. Each row is one
/// 8-lane vector, so the batched kernel adds a row of results into it
/// with one load, one add and one store.
pub type AccF32 = [[f32; MMA_N]; MMA_M];

/// Batched `mma.m16n8k16` on FP16 operands with FP32 accumulation: one
/// decoded A tile against `accs.len()` *adjacent* 8-column B tiles
/// (`accs[j]` covers B columns `j*8 .. j*8+8` of the row-major buffer
/// `b` with leading dimension `ld`; `b` must cover `(MMA_K - 1) * ld +
/// accs.len() * 8` elements). This is the SpMM hot path and the one MAC
/// kernel behind every FP16 `mma` entry point.
///
/// The rounding contract: every output element sums its products
/// `a[m][k] * b[k][n]` from `0.0` in ascending `k` — an unfused multiply
/// then add per step, with no zero-skip — and then adds the sum to its
/// accumulator once. That is the order the per-tile scalar oracles
/// ([`mma_m16n8k16_bslice_scalar`]) write out, so the result is
/// bit-identical to them for every `accs.len()` in `1..=MAX_NTILES`.
///
/// Records one `mma` instruction per tile, the same totals as per-tile
/// calls.
pub fn mma_m16n8k16_bslice_ntiles(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    accs: &mut [AccF32],
) {
    assert!(
        accs.len() <= MAX_NTILES,
        "N-tile batch of {} exceeds MAX_NTILES = {MAX_NTILES}",
        accs.len()
    );
    if !accs.is_empty() {
        let need = (MMA_K - 1) * ld + accs.len() * MMA_N;
        assert!(
            b.len() >= need,
            "B slice of {} elements with ld {ld} cannot feed {} tiles",
            b.len(),
            accs.len()
        );
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd_active() {
            // SAFETY: `simd_active` verified AVX2 support at runtime, and
            // the assert above bounds every B read.
            unsafe { mac_tiles_avx2(a, b, ld, accs) };
        } else {
            mac_tiles_flat(a, b, ld, accs);
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        mac_tiles_flat(a, b, ld, accs);
    }
    counters.mma_insts += accs.len() as u64;
    counters.insts_issued += accs.len() as u64;
}

/// Rows of A one register block of [`mma_m16n8k16_bslice_ntiles`]
/// carries: four A rows × two 8-column B vectors keep eight running
/// sums in `ymm` registers across all 16 `k` steps.
const BLOCK_ROWS: usize = 4;

/// Portable body of [`mma_m16n8k16_bslice_ntiles`]: per tile, a block of
/// [`BLOCK_ROWS`] A rows accumulates its 8-wide sums in locals across
/// the `k` loop, the same blocking the AVX2 body uses with one B vector
/// per block. Compiled on every target, `simd` feature or not.
fn mac_tiles_flat(a: &[[f32; MMA_K]; MMA_M], b: &[f32], ld: usize, accs: &mut [AccF32]) {
    for (j, acc) in accs.iter_mut().enumerate() {
        for (a_blk, acc_blk) in a
            .chunks_exact(BLOCK_ROWS)
            .zip(acc.chunks_exact_mut(BLOCK_ROWS))
        {
            let mut sums = [[0.0f32; MMA_N]; BLOCK_ROWS];
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

/// AVX2 body of [`mma_m16n8k16_bslice_ntiles`]: tiles in pairs (a last
/// odd tile alone), A rows in blocks of [`BLOCK_ROWS`].
///
/// # Safety
///
/// The CPU must support AVX2, and `b` must cover `(MMA_K - 1) * ld +
/// accs.len() * MMA_N` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn mac_tiles_avx2(a: &[[f32; MMA_K]; MMA_M], b: &[f32], ld: usize, accs: &mut [AccF32]) {
    for (p, pair) in accs.chunks_mut(2).enumerate() {
        // SAFETY: the pair's first tile starts at column `2 p * MMA_N`,
        // inside the caller's bound.
        let bj = unsafe { b.as_ptr().add(2 * p * MMA_N) };
        for m0 in (0..MMA_M).step_by(BLOCK_ROWS) {
            // SAFETY: AVX2 is enabled on this function; `bj` covers
            // `pair.len()` tiles for every `k` row.
            unsafe {
                match pair {
                    [t0, t1] => mac_block_avx2([t0, t1], a, m0, bj, ld),
                    [t0] => mac_block_avx2([t0], a, m0, bj, ld),
                    _ => unreachable!("chunks_mut(2) yields one or two tiles"),
                }
            }
        }
    }
}

/// One register block: A rows `m0 .. m0 + BLOCK_ROWS` against `W`
/// adjacent tiles. The `BLOCK_ROWS × W` sums start at `+0.0`, take
/// `sum + a * b` (multiply, then add — never fused) for `k` ascending,
/// and are added once into the accumulator rows.
///
/// # Safety
///
/// The CPU must support AVX2, and `b` must cover `(MMA_K - 1) * ld +
/// W * MMA_N` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mac_block_avx2<const W: usize>(
    tiles: [&mut AccF32; W],
    a: &[[f32; MMA_K]; MMA_M],
    m0: usize,
    b: *const f32,
    ld: usize,
) {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let mut sums = [[_mm256_setzero_ps(); W]; BLOCK_ROWS];
    for k in 0..MMA_K {
        // SAFETY: row `k` spans `W * MMA_N` floats inside the bound.
        let vb: [_; W] =
            core::array::from_fn(|w| unsafe { _mm256_loadu_ps(b.add(k * ld + w * MMA_N)) });
        for (r, row) in sums.iter_mut().enumerate() {
            let va = _mm256_set1_ps(a[m0 + r][k]);
            for (s, &v) in row.iter_mut().zip(&vb) {
                *s = _mm256_add_ps(*s, _mm256_mul_ps(va, v));
            }
        }
    }
    for (w, tile) in tiles.into_iter().enumerate() {
        for (r, row) in sums.iter().enumerate() {
            let dst = tile[m0 + r].as_mut_ptr();
            // SAFETY: `dst` is one 8-float accumulator row.
            unsafe { _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), row[w])) };
        }
    }
}

/// 16×8 `i32` accumulator tile for the integer Tensor Core path
/// (`mma.m16n8k16.s8.s8.s32`). Plain row-major — the INT8 SpMM block
/// loop keeps one per N-tile and folds it into `f32` output with the
/// GroupTile scale in the epilogue, so there is no fragment round-trip
/// to model.
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
/// path there is no rounding-order contract to pin — but the sweep
/// still visits `k` ascending for symmetry with the float panel.
/// Records one `mma.s8` instruction per tile (`mma_s8_insts`, priced at
/// twice the FP16 per-instruction Tensor Core throughput by the timing
/// model) plus the matching issue slots.
pub fn mma_m16n8k16_s8_ntiles(
    counters: &mut Counters,
    a: &[[i32; MMA_K]; MMA_M],
    b: &[i32],
    ld: usize,
    accs: &mut [AccS8],
) {
    assert!(
        accs.len() <= MAX_NTILES,
        "N-tile batch of {} exceeds MAX_NTILES = {MAX_NTILES}",
        accs.len()
    );
    for (m, a_row) in a.iter().enumerate() {
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0 {
                continue;
            }
            let brow = &b[k * ld..];
            for (j, acc) in accs.iter_mut().enumerate() {
                let arow = &mut acc[m];
                for (n, s) in arow.iter_mut().enumerate() {
                    *s += av * brow[j * MMA_N + n];
                }
            }
        }
    }
    counters.mma_s8_insts += accs.len() as u64;
    counters.insts_issued += accs.len() as u64;
}

/// Retained scalar oracle of [`mma_m16n8k16_s8_ntiles`] for a single
/// accumulator tile: the textbook n-inner triple loop with no zero-skip.
/// Identical counter writes per tile.
pub fn mma_m16n8k16_s8_scalar(
    counters: &mut Counters,
    a: &[[i32; MMA_K]; MMA_M],
    b: &[i32],
    ld: usize,
    acc: &mut AccS8,
) {
    for m in 0..MMA_M {
        for n in 0..MMA_N {
            let mut sum = 0i32;
            for k in 0..MMA_K {
                sum += a[m][k] * b[k * ld + n];
            }
            acc[m][n] += sum;
        }
    }
    counters.mma_s8_insts += 1;
    counters.insts_issued += 1;
}

/// Maps a lane and register index to the quadrant-local `(row, col)` the
/// register's *low* half occupies inside its 8×8 quadrant. The high half
/// is at `(row, col + 1)`.
///
/// Exposed for decoders: within a quadrant, lane `l` owns row-major
/// elements `2l` (low) and `2l + 1` (high).
#[inline]
pub fn lane_quadrant_coords(lane: usize) -> (usize, usize) {
    (lane / 4, (lane % 4) * 2)
}

/// Per-warp A fragment of the smaller `mma.m16n8k8` instruction: two
/// `.f16x2` registers per lane covering a 16×8 A tile (the left half of
/// the m16n8k16 fragment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragAK8 {
    /// Packed `.f16x2` registers, indexed `[lane][reg]`.
    pub regs: [[u32; 2]; 32],
}

impl FragAK8 {
    /// Builds the fragment from a dense 16×8 tile accessor.
    pub fn from_tile<F: Fn(usize, usize) -> Half>(tile: F) -> Self {
        let mut f = FragAK8 { regs: [[0; 2]; 32] };
        for lane in 0..32 {
            let group = lane / 4;
            let tid = lane % 4;
            f.regs[lane][0] = pack_f16x2(tile(group, 2 * tid), tile(group, 2 * tid + 1));
            f.regs[lane][1] = pack_f16x2(tile(group + 8, 2 * tid), tile(group + 8, 2 * tid + 1));
        }
        f
    }

    /// Decode-once `f32` view of the 16×8 A tile, the k8 counterpart of
    /// [`FragA::to_f32_rows`].
    pub fn to_f32_rows(&self) -> [[f32; 8]; MMA_M] {
        let mut t = [[0.0f32; 8]; MMA_M];
        for (lane, regs) in self.regs.iter().enumerate() {
            let (qr, qc) = lane_quadrant_coords(lane);
            // The k8 fragment is the left half of the k16 fragment:
            // registers cover the TL and BL quadrants only.
            for (&reg, &(dr, dc)) in regs.iter().zip(&QUAD_ORIGINS[..2]) {
                unpack_reg_at(&mut t, reg, (qr + dr, qc + dc), (qr + dr, qc + dc + 1));
            }
        }
        t
    }
}

/// Executes one warp-wide `mma.m16n8k8`: `acc += A[16×8] × B[8×8]`,
/// where `b_tile(k, n)` supplies the 8×8 B operand. The paper's §4.2.1
/// microbenchmark compares this against [`mma_m16n8k16`]: two k8 issues
/// cover one k16 tile, so the larger shape halves instruction count (and
/// on hardware sustains higher throughput), which is why TCA-BME aligns
/// TCTiles with m16n8k16.
pub fn mma_m16n8k8<F: Fn(usize, usize) -> Half>(
    counters: &mut Counters,
    a: &FragAK8,
    b_tile: F,
    acc: &mut FragC,
) {
    // Decode the 8×8 B operand once, then run the flat-f32 MAC loop.
    let mut bt = [[0.0f32; MMA_N]; 8];
    for (k, row) in bt.iter_mut().enumerate() {
        for (n, v) in row.iter_mut().enumerate() {
            *v = b_tile(k, n).to_f32();
        }
    }
    mma_m16n8k8_f32(counters, &a.to_f32_rows(), &bt, acc);
}

/// Decode-once `mma.m16n8k8` on pre-decoded operand views, under the
/// rounding contract of [`mma_m16n8k16_bslice_ntiles`] with `k` running
/// to 8.
pub fn mma_m16n8k8_f32(
    counters: &mut Counters,
    a: &[[f32; 8]; MMA_M],
    b: &[[f32; MMA_N]; 8],
    acc: &mut FragC,
) {
    for (m, a_row) in a.iter().enumerate() {
        for n in 0..MMA_N {
            let mut sum = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                sum += av * b[k][n];
            }
            let (lane, reg) = acc_slot(m, n);
            acc.regs[lane][reg] += sum;
        }
    }
    counters.mma_insts += 1;
    counters.insts_issued += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{random_dense, ValueDist};

    fn tile_a_from(m: &crate::matrix::DenseMatrix) -> FragA {
        FragA::from_tile(|r, c| m.get(r, c))
    }

    fn tile_b_from(m: &crate::matrix::DenseMatrix) -> FragB {
        FragB::from_tile(|r, c| m.get(r, c))
    }

    #[test]
    fn frag_a_roundtrip() {
        let m = random_dense(16, 16, ValueDist::Uniform, 11);
        let t = tile_a_from(&m).to_tile();
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(t[r][c], m.get(r, c));
            }
        }
    }

    #[test]
    fn frag_b_roundtrip() {
        let m = random_dense(16, 8, ValueDist::Uniform, 12);
        let t = tile_b_from(&m).to_tile();
        for r in 0..16 {
            for c in 0..8 {
                assert_eq!(t[r][c], m.get(r, c));
            }
        }
    }

    #[test]
    fn frag_c_roundtrip() {
        let f = FragC::from_tile(|r, c| (r * 8 + c) as f32);
        let t = f.to_tile();
        for (r, row) in t.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(*v, (r * 8 + c) as f32);
            }
        }
    }

    #[test]
    fn quadrant_register_mapping_matches_paper() {
        // Ra0 must be the TOP-LEFT quadrant: set only A[0][0] and check it
        // appears in lane 0's Ra0 low half.
        let f = FragA::from_tile(|r, c| {
            if r == 0 && c == 0 {
                Half::ONE
            } else {
                Half::ZERO
            }
        });
        assert_eq!(f.regs[0][0], u32::from(Half::ONE.to_bits()));
        for lane in 1..32 {
            assert_eq!(f.regs[lane], [0, 0, 0, 0]);
        }
        // Ra1 = bottom-left: A[8][0] -> lane 0 reg 1.
        let f = FragA::from_tile(|r, c| {
            if r == 8 && c == 0 {
                Half::ONE
            } else {
                Half::ZERO
            }
        });
        assert_eq!(f.regs[0][1], u32::from(Half::ONE.to_bits()));
        // Ra2 = top-right: A[0][8] -> lane 0 reg 2.
        let f = FragA::from_tile(|r, c| {
            if r == 0 && c == 8 {
                Half::ONE
            } else {
                Half::ZERO
            }
        });
        assert_eq!(f.regs[0][2], u32::from(Half::ONE.to_bits()));
        // Ra3 = bottom-right: A[8][8] -> lane 0 reg 3.
        let f = FragA::from_tile(|r, c| {
            if r == 8 && c == 8 {
                Half::ONE
            } else {
                Half::ZERO
            }
        });
        assert_eq!(f.regs[0][3], u32::from(Half::ONE.to_bits()));
    }

    #[test]
    fn lane_owns_rowmajor_elements_2l_and_2l_plus_1() {
        // Inside the top-left quadrant, quadrant-linear index of lane l's
        // low half must be 2l (paper Algorithm 2's offset).
        for lane in 0..32 {
            let (r, c) = lane_quadrant_coords(lane);
            assert_eq!(r * 8 + c, 2 * lane);
        }
    }

    #[test]
    fn mma_matches_reference_product() {
        let a = random_dense(16, 16, ValueDist::Uniform, 21);
        let b = random_dense(16, 8, ValueDist::Uniform, 22);
        let mut counters = Counters::new();
        let fa = tile_a_from(&a);
        let fb = tile_b_from(&b);
        let mut acc = FragC::zero();
        mma_m16n8k16(&mut counters, &fa, &fb, &mut acc);
        let d = acc.to_tile();
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                let diff = (d[r][c] - reference[r * 8 + c]).abs();
                assert!(diff < 1e-4, "({r},{c}) diff {diff}");
            }
        }
        assert_eq!(counters.mma_insts, 1);
    }

    #[test]
    fn mma_accumulates_into_c() {
        let a = random_dense(16, 16, ValueDist::Uniform, 31);
        let b = random_dense(16, 8, ValueDist::Uniform, 32);
        let mut counters = Counters::new();
        let fa = tile_a_from(&a);
        let fb = tile_b_from(&b);
        let mut acc = FragC::from_tile(|_, _| 5.0);
        mma_m16n8k16(&mut counters, &fa, &fb, &mut acc);
        let d = acc.to_tile();
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                assert!((d[r][c] - (reference[r * 8 + c] + 5.0)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn two_k8_issues_equal_one_k16_issue() {
        // The §4.2.1 microbenchmark's correctness side: splitting a 16×16
        // A tile into two m16n8k8 issues reproduces the m16n8k16 result,
        // at twice the instruction count.
        let a = random_dense(16, 16, ValueDist::Uniform, 61);
        let b = random_dense(16, 8, ValueDist::Uniform, 62);
        let mut c16 = Counters::new();
        let mut acc16 = FragC::zero();
        mma_m16n8k16(
            &mut c16,
            &FragA::from_tile(|r, c| a.get(r, c)),
            &FragB::from_tile(|r, c| b.get(r, c)),
            &mut acc16,
        );
        let mut c8 = Counters::new();
        let mut acc8 = FragC::zero();
        for half in 0..2 {
            let fa = FragAK8::from_tile(|r, c| a.get(r, c + 8 * half));
            mma_m16n8k8(&mut c8, &fa, |k, n| b.get(k + 8 * half, n), &mut acc8);
        }
        let t16 = acc16.to_tile();
        let t8 = acc8.to_tile();
        for r in 0..16 {
            for c in 0..8 {
                assert!((t16[r][c] - t8[r][c]).abs() < 1e-4);
            }
        }
        assert_eq!(c16.mma_insts, 1);
        assert_eq!(c8.mma_insts, 2, "k8 needs twice the issues");
    }

    #[test]
    fn acc_slot_inverts_fragc_layout() {
        // The in-place accumulator update relies on acc_slot being the
        // exact inverse of the FragC register layout.
        let f = FragC::from_tile(|r, c| (r * 8 + c) as f32);
        for m in 0..MMA_M {
            for n in 0..MMA_N {
                let (lane, reg) = acc_slot(m, n);
                assert_eq!(f.regs[lane][reg], (m * 8 + n) as f32, "({m},{n})");
            }
        }
    }

    #[test]
    fn f32_views_match_half_tiles() {
        let a = random_dense(16, 16, ValueDist::Uniform, 71);
        let b = random_dense(16, 8, ValueDist::Uniform, 72);
        let fa = tile_a_from(&a);
        let fb = tile_b_from(&b);
        let (at, av) = (fa.to_tile(), fa.to_f32_rows());
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(av[r][c].to_bits(), at[r][c].to_f32().to_bits());
            }
        }
        let (bt, bv) = (fb.to_tile(), fb.to_f32_rows());
        for r in 0..16 {
            for c in 0..8 {
                assert_eq!(bv[r][c].to_bits(), bt[r][c].to_f32().to_bits());
            }
        }
        let fa8 = FragAK8::from_tile(|r, c| a.get(r, c));
        let a8 = fa8.to_f32_rows();
        for r in 0..16 {
            for c in 0..8 {
                assert_eq!(a8[r][c].to_bits(), a.get(r, c).to_f32().to_bits());
            }
        }
    }

    #[test]
    fn bslice_path_is_bit_identical_to_fragment_path() {
        // The strided-B entry point used by the SpMM hot path must
        // reproduce the fragment-level mma exactly, including a
        // non-trivial leading dimension and a non-zero accumulator.
        let a = random_dense(16, 16, ValueDist::Uniform, 81);
        let b = random_dense(16, 8, ValueDist::Uniform, 82);
        let fa = tile_a_from(&a);
        let fb = tile_b_from(&b);
        let mut c_ref = Counters::new();
        let mut acc_ref = FragC::from_tile(|r, c| (r + c) as f32 * 0.25);
        mma_m16n8k16(&mut c_ref, &fa, &fb, &mut acc_ref);

        // Embed B at column offset 3 of a wider ld=13 buffer.
        let ld = 13;
        let mut buf = vec![0.0f32; 16 * ld];
        for k in 0..16 {
            for n in 0..8 {
                buf[k * ld + 3 + n] = b.get(k, n).to_f32();
            }
        }
        let mut c_fast = Counters::new();
        let mut acc_fast = FragC::from_tile(|r, c| (r + c) as f32 * 0.25);
        mma_m16n8k16_bslice(&mut c_fast, &fa.to_f32_rows(), &buf[3..], ld, &mut acc_fast);

        assert_eq!(acc_ref.regs, acc_fast.regs);
        assert_eq!(c_ref.mma_insts, c_fast.mma_insts);
        assert_eq!(c_ref.insts_issued, c_fast.insts_issued);
    }

    #[test]
    fn batched_ntiles_is_bit_identical_to_per_tile_calls() {
        // The N-tile-amortized entry point must reproduce the per-tile
        // scalar oracle bitwise — accumulators, counters, everything —
        // for every batch width up to MAX_NTILES.
        let a = random_dense(16, 16, ValueDist::Uniform, 91);
        let fa = tile_a_from(&a).to_f32_rows();
        for ntiles in 1..=MAX_NTILES {
            let ld = ntiles * MMA_N + 5; // non-trivial leading dimension
            let b = random_dense(16, ld, ValueDist::Uniform, 92 + ntiles as u64);
            let bf: Vec<f32> = (0..16)
                .flat_map(|k| (0..ld).map(move |n| (k, n)))
                .map(|(k, n)| b.get(k, n).to_f32())
                .collect();
            let seed_acc = |j: usize| FragC::from_tile(|r, c| (r * 8 + c + j) as f32 * 0.5);

            let mut c_ref = Counters::new();
            let mut ref_accs: Vec<FragC> = (0..ntiles).map(seed_acc).collect();
            for (j, acc) in ref_accs.iter_mut().enumerate() {
                mma_m16n8k16_bslice_scalar(&mut c_ref, &fa, &bf[j * MMA_N..], ld, acc);
            }

            let mut c_bat = Counters::new();
            let mut bat_accs: Vec<AccF32> = (0..ntiles).map(|j| seed_acc(j).to_tile()).collect();
            mma_m16n8k16_bslice_ntiles(&mut c_bat, &fa, &bf, ld, &mut bat_accs);

            for (j, (r, b)) in ref_accs.iter().zip(&bat_accs).enumerate() {
                assert_eq!(&r.to_tile(), b, "ntiles={ntiles} tile {j}");
            }
            assert_eq!(c_ref.mma_insts, c_bat.mma_insts, "ntiles={ntiles}");
            assert_eq!(c_ref.insts_issued, c_bat.insts_issued, "ntiles={ntiles}");
        }
    }

    #[test]
    fn vectorized_panels_match_scalar_oracles() {
        // The flat/SIMD MAC panels must be bitwise-equal to the retained
        // pre-vectorization oracles (the proptest suite widens this; this
        // is the fast in-crate smoke check).
        let a = random_dense(16, 16, ValueDist::Uniform, 101);
        let b = random_dense(16, 8, ValueDist::Uniform, 102);
        let fa = tile_a_from(&a).to_f32_rows();
        let fb = tile_b_from(&b).to_f32_rows();
        let seed_acc = || FragC::from_tile(|r, c| (r * 8) as f32 - c as f32);

        let (mut c1, mut c2) = (Counters::new(), Counters::new());
        let (mut x1, mut x2) = (seed_acc(), seed_acc());
        mma_m16n8k16_f32(&mut c1, &fa, &fb, &mut x1);
        mma_m16n8k16_f32_scalar(&mut c2, &fa, &fb, &mut x2);
        assert_eq!(x1.regs, x2.regs);
        assert_eq!(c1, c2);

        let ld = 11;
        let mut buf = vec![0.0f32; 16 * ld];
        for k in 0..16 {
            for n in 0..8 {
                buf[k * ld + n] = fb[k][n];
            }
        }
        let (mut c1, mut c2) = (Counters::new(), Counters::new());
        let (mut x1, mut x2) = (seed_acc(), seed_acc());
        mma_m16n8k16_bslice(&mut c1, &fa, &buf, ld, &mut x1);
        mma_m16n8k16_bslice_scalar(&mut c2, &fa, &buf, ld, &mut x2);
        assert_eq!(x1.regs, x2.regs);
        assert_eq!(c1, c2);
    }

    #[test]
    fn two_step_k_accumulation_equals_k32_product() {
        // Splitting K=32 into two mma calls must equal one 16x32 * 32x8
        // reference product.
        let a = random_dense(16, 32, ValueDist::Uniform, 41);
        let b = random_dense(32, 8, ValueDist::Uniform, 42);
        let mut counters = Counters::new();
        let mut acc = FragC::zero();
        for step in 0..2 {
            let fa = FragA::from_tile(|r, c| a.get(r, c + 16 * step));
            let fb = FragB::from_tile(|r, c| b.get(r + 16 * step, c));
            mma_m16n8k16(&mut counters, &fa, &fb, &mut acc);
        }
        let d = acc.to_tile();
        let reference = a.matmul_ref(&b);
        for r in 0..16 {
            for c in 0..8 {
                assert!((d[r][c] - reference[r * 8 + c]).abs() < 1e-3);
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

    #[test]
    fn s8_ntiles_matches_scalar_oracle() {
        // The zero-skipping batched integer path must agree bit-exactly
        // with the textbook triple loop on every tile of the batch.
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
            mma_m16n8k16_s8_scalar(&mut c2, &a, &b[j * MMA_N..], ld, acc);
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
        // Two successive K-steps must sum, mirroring the FragC contract.
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
