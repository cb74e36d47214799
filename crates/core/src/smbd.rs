//! Shared Memory Bitmap Decoding (SMBD), paper §4.3.3 and Algorithm 2.
//!
//! SMBD turns a bitmap-compressed `WTile` in shared memory into the A
//! operand of `mma.m16n8k16`, without any stored offsets:
//!
//! * **PopCount** accumulates `__popcll` over preceding BitmapTiles to find
//!   each tile's base offset into the compressed `Values` array.
//! * **MaskedPopCount** gives each lane the number of non-zeros before its
//!   own bit position (`2 × lane` for the register's low half).
//!
//! Decoding is two-phase: Phase I resolves each lane's `a0` (bit `2l`)
//! with one masked popcount; Phase II resolves `a1` (bit `2l + 1`) by
//! *reusing* the Phase I count — if `a0` was non-zero the offset advances
//! by one — so no second popcount is needed.
//!
//! The simulator decodes each TCTile straight into row-major operand
//! rows (the "decode into the operand tile" shape). On hosts with AVX2
//! and F16C an FP16 quadrant row expands in one step: a `pshufb` moves
//! the row's packed halves to their set-bit columns and `vcvtph2ps`
//! widens all eight into the `f32` row. Elsewhere, and for INT8, one
//! sweep over the set bits per BitmapTile writes each value. Both
//! record the per-lane algorithm's exact counter and fault-site stream:
//! the unit tests pin the expansion to the sweep, and the dispatched one
//! to Algorithm 2 as written, lane by lane, and to the `Ra0..Ra3`
//! register layout.
//!
//! Instruction and shared-memory costs are recorded per decode so the
//! analytic estimator (used at paper-scale shapes) and the functional
//! path share one source of truth: the constants below.

use crate::spmm::{Datapath, TcRows};
use gpu_sim::bitops::{masked_popc64, popc64, popcnt_bmi1_active};
use gpu_sim::counters::Counters;
use gpu_sim::fault::FaultInjector;
use gpu_sim::fp16::{f16c_active, Half};
use gpu_sim::shared_memory::{warp_smem_broadcast_load, warp_smem_gather_load_f, BANK_WORD};
use gpu_sim::tensor_core::QUAD_ORIGINS;

/// A decode invariant violated at runtime — the typed form of what the
/// unchecked decode would do by panicking (overrun) or silently
/// propagating (non-finite values). Mapped to
/// [`crate::error::KernelError`] by the checked SpMM path, which adds
/// the GroupTile coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeFault {
    /// The bitmaps demanded more values than the buffer holds — the
    /// signature of a flipped bitmap bit inflating `popc64` offsets.
    Overrun {
        /// Highest value index the decode tried to touch, plus one.
        needed: usize,
        /// Values actually available.
        available: usize,
    },
    /// A decoded element is NaN/Inf. Weights are finite by contract, so
    /// a non-finite decode means an in-flight value was poisoned.
    NonFinite,
}

/// Integer instructions per lane for Phase I: mask build, popcount, bit
/// test, address add.
pub const INT_INSTS_PHASE1: u64 = 4;
/// Integer instructions per lane for Phase II: bit test, offset select,
/// register pack.
pub const INT_INSTS_PHASE2: u64 = 3;
/// Warp-level integer instructions per BitmapTile for the running base
/// offset (popcount + accumulate).
pub const INT_INSTS_BASE: u64 = 2;
/// Shared-memory load instructions per BitmapTile: one 8-byte bitmap
/// broadcast plus one 2-byte gather per phase.
pub const SMEM_LOADS_PER_BT: u64 = 3;

/// Phase I bit positions of a BitmapTile: lane `l`'s `a0` is bit `2l`.
/// Phase II (`a1`, bit `2l + 1`) is the complement.
const PHASE1_BITS: u64 = 0x5555_5555_5555_5555;

/// Position of the `n`-th (0-based) set bit of `mask`.
fn nth_set_bit(mut mask: u64, n: usize) -> usize {
    for _ in 0..n {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

/// How a decode writes FP16 quadrant rows: [`SetBitWalk`] on any host,
/// [`F16cRows`] where the host has the SIMD features. The SpMM block
/// picks one per block and passes it down by value; both write the
/// same bits.
pub(crate) trait RowExpansion: Copy {
    /// Writes one FP16 quadrant, origin `origin`, of `rows` from its
    /// bitmap and packed values (`vals` starts at the quadrant's first
    /// value and holds at least its population): every element, absent
    /// ones as `+0.0`.
    fn expand_f16(
        self,
        bitmap: u64,
        vals: &[Half],
        rows: &mut [[f32; 16]; 16],
        origin: (usize, usize),
    );
}

/// The portable expansion, [`walk_quadrant`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SetBitWalk;

impl RowExpansion for SetBitWalk {
    #[inline(always)]
    fn expand_f16(
        self,
        bitmap: u64,
        vals: &[Half],
        rows: &mut [[f32; 16]; 16],
        origin: (usize, usize),
    ) {
        walk_quadrant::<Half>(bitmap, vals, rows, origin);
    }
}

/// The F16C row expansion, [`expand_quadrant_f16c`]. Only
/// [`F16cRows::detect`] makes one, so holding one proves the host has
/// POPCNT and BMI1, for the block's popcounts and set-bit sweeps, and
/// AVX2 and F16C, for the rows.
#[derive(Clone, Copy, Debug)]
pub(crate) struct F16cRows(());

impl F16cRows {
    /// `Some` when the host has POPCNT, BMI1, AVX2 and F16C (each
    /// detected once per process).
    pub(crate) fn detect() -> Option<Self> {
        (popcnt_bmi1_active() && f16c_active()).then_some(F16cRows(()))
    }
}

impl RowExpansion for F16cRows {
    #[inline(always)]
    fn expand_f16(
        self,
        bitmap: u64,
        vals: &[Half],
        rows: &mut [[f32; 16]; 16],
        origin: (usize, usize),
    ) {
        // SAFETY: `self` exists, so `detect` found AVX2 and F16C on this
        // CPU.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            expand_quadrant_f16c(bitmap, vals, rows, origin);
        }
        // Unreachable: `detect` never finds F16C off x86_64.
        #[cfg(not(target_arch = "x86_64"))]
        walk_quadrant::<Half>(bitmap, vals, rows, origin);
    }
}

/// `pshufb` control for one 8-bit quadrant row, indexed by the row's
/// bitmap byte: the row's `r`-th set bit at column `c` takes packed half
/// `r` (bytes `2r`, `2r + 1`) into bytes `2c`, `2c + 1`; clear columns
/// read `0x80`, which zeroes their bytes, so they widen to `+0.0`.
static ROW_SHUFFLE: [[u8; 16]; 256] = {
    let mut table = [[0x80u8; 16]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut rank = 0u8;
        let mut col = 0;
        while col < 8 {
            if (byte >> col) & 1 == 1 {
                table[byte][2 * col] = 2 * rank;
                table[byte][2 * col + 1] = 2 * rank + 1;
                rank += 1;
            }
            col += 1;
        }
        byte += 1;
    }
    table
};

/// Expands one FP16 quadrant into its eight `f32` operand rows, one
/// quadrant row per step: load 16 bytes of packed halves at the running
/// offset, [`ROW_SHUFFLE`] them to their set-bit columns, `vcvtph2ps`
/// the eight halves and store them over the row's eight columns. The
/// clear columns are written `+0.0`, so nothing needs clearing first.
/// `vals` starts at the quadrant's first value and must hold its
/// population; the 16-byte load never reads past `vals`, whose last
/// rows may be shorter than eight halves: those load from a zeroed copy.
///
/// # Safety
///
/// The CPU must support AVX2 and F16C ([`f16c_active`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
unsafe fn expand_quadrant_f16c(
    bitmap: u64,
    vals: &[Half],
    rows: &mut [[f32; 16]; 16],
    (dr, dc): (usize, usize),
) {
    use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128, _mm_shuffle_epi8};
    let mut off = 0;
    for (r, row) in rows[dr..dr + 8].iter_mut().enumerate() {
        let byte = (bitmap >> (8 * r)) as u8;
        let packed = match vals.get(off..off + 8) {
            Some(win) => _mm_loadu_si128(win.as_ptr().cast()),
            None => {
                let mut tail = [Half::ZERO; 8];
                let left = &vals[off..];
                tail[..left.len()].copy_from_slice(left);
                _mm_loadu_si128(tail.as_ptr().cast())
            }
        };
        let ctl = _mm_loadu_si128(ROW_SHUFFLE[usize::from(byte)].as_ptr().cast());
        let wide = _mm256_cvtph_ps(_mm_shuffle_epi8(packed, ctl));
        _mm256_storeu_ps(row[dc..dc + 8].as_mut_ptr(), wide);
        off += byte.count_ones() as usize;
    }
}

/// The portable quadrant expansion: clears the quadrant to the
/// operand's zero, then visits the set bits once, in ascending
/// position, pairing each with the next packed value: the `r`-th set bit
/// takes `vals[r]`, which is the `masked_popc64` offset Algorithm 2's
/// per-lane formulation computes (the unit tests keep that formulation
/// as the reference), and bit `p` lands at quadrant element
/// `(p / 8, p % 8)`. `vals` starts at the quadrant's first value and
/// must hold its population.
#[inline(always)]
pub(crate) fn walk_quadrant<P: Datapath>(
    bitmap: u64,
    vals: &[P],
    rows: &mut TcRows<P>,
    (dr, dc): (usize, usize),
) {
    for row in &mut rows[dr..dr + 8] {
        row[dc..dc + 8].fill(P::Operand::default());
    }
    // The loop runs once per set bit, so `bm` is never zero inside it:
    // the `& 63` never changes a position, it only bounds it for the
    // compiler.
    let mut bm = bitmap;
    for &v in &vals[..popc64(bitmap) as usize] {
        let p = (bm.trailing_zeros() & 63) as usize;
        rows[dr + p / 8][dc + p % 8] = v.widen();
        bm &= bm - 1;
    }
}

/// The single SMBD decode body: expands one BitmapTile into the
/// quadrant of `rows` at `origin` and records its hardware events. Every
/// decode — golden, checked and injected, FP16 and INT8 — runs through
/// here. The values land through [`Datapath::expand_quadrant`]:
/// `expansion`'s rows for FP16, [`walk_quadrant`] for INT8. Each writes
/// the whole quadrant.
///
/// Generic over the value payload: the bitmap walk, rank arithmetic and
/// counter writes never depend on the element type — only the gather
/// word spans (scaled by
/// [`Payload::BYTES`](crate::payload::Payload::BYTES)) and the poison
/// projection do. The counter writes follow from the masks alone:
///
/// * the bitmap broadcast, then per phase the integer instructions and,
///   when the phase has any set bit, one gather;
/// * a phase's active-lane count is the popcount of its mask
///   (`bitmap & PHASE1_BITS` or its complement);
/// * its gather addresses ascend with the rank, so the word span runs
///   from the rank of the mask's lowest set bit to that of its highest;
/// * a poisoned gather lands on the `sel`-th active lane, which is the
///   `sel`-th set bit of the phase mask. It is written, widened, after
///   the expansion, over the value the expansion put there.
///
/// The overrun check runs before anything is written. The gathers go
/// through the span-based shared-memory entry point, which is pinned
/// equal to the address-array analysis, so no per-lane address arrays
/// are built.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn expand_bitmap_tile<P: Datapath, E: RowExpansion>(
    expansion: E,
    counters: &mut Counters,
    bitmap: u64,
    values: &[P],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
    rows: &mut TcRows<P>,
    (dr, dc): (usize, usize),
) -> Result<(), DecodeFault> {
    let need = base + popc64(bitmap) as usize;
    if need > values.len() {
        return Err(DecodeFault::Overrun {
            needed: need,
            available: values.len(),
        });
    }

    // Bitmap broadcast load: every lane reads the same 8-byte word.
    warp_smem_broadcast_load(counters, 8);

    P::expand_quadrant(expansion, bitmap, &values[base..], rows, (dr, dc));

    // Word span of a phase's `P::BYTES`-wide gather: first word of the
    // lowest address to last word of the highest — the same bounds
    // `analyze_warp_access` derives from the full address array.
    let elem = P::BYTES as u64;
    let word_span = |mask: u64| {
        let lo = base + masked_popc64(bitmap, mask.trailing_zeros()) as usize;
        let hi = base + masked_popc64(bitmap, 63 - mask.leading_zeros()) as usize;
        let first = (values_smem_base + lo as u64 * elem) / BANK_WORD;
        let last = (values_smem_base + hi as u64 * elem + (elem - 1)) / BANK_WORD;
        last - first
    };
    for (phase_bits, insts, salt) in [
        (PHASE1_BITS, INT_INSTS_PHASE1 + INT_INSTS_BASE, 0x5048_3141),
        (!PHASE1_BITS, INT_INSTS_PHASE2, 0x5048_3242),
    ] {
        counters.cuda_int_insts += insts;
        counters.insts_issued += insts;
        let mask = bitmap & phase_bits;
        if mask == 0 {
            continue;
        }
        if let Some((sel, poison)) = warp_smem_gather_load_f(
            counters,
            word_span(mask),
            mask.count_ones(),
            fault,
            site_key ^ salt,
        ) {
            let p = nth_set_bit(mask, sel);
            rows[dr + p / 8][dc + p % 8] = P::from_poison(poison).widen();
        }
    }
    Ok(())
}

/// Decodes a full 16×16 FP16 TCTile into the row-major `f32` A operand
/// [`mma_m16n8k16_bslice_ntiles`](gpu_sim::tensor_core::mma_m16n8k16_bslice_ntiles)
/// consumes, returning the rows and the number of values consumed. The
/// golden (fault-free, panicking) decode the SpMM block runs, as a
/// standalone call for benchmarks: it picks the expansion and the
/// compiled copy the block picks ([`F16cRows::detect`]).
pub fn decode_tctile_f32(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
) -> ([[f32; 16]; 16], usize) {
    let mut rows = [[0.0; 16]; 16];
    let used = match F16cRows::detect() {
        // SAFETY: `f16c` proves POPCNT, BMI1, AVX2 and F16C on this CPU.
        Some(f16c) => unsafe {
            decode_tctile_f32_simd(
                f16c,
                counters,
                bitmaps,
                values,
                base,
                values_smem_base,
                &mut rows,
            )
        },
        None => decode_tctile_rows(
            SetBitWalk,
            counters,
            bitmaps,
            values,
            base,
            values_smem_base,
            &mut rows,
        ),
    };
    (rows, used)
}

/// [`decode_tctile_rows`] with the F16C expansion, compiled with the
/// SpMM block's SIMD features so the expansion inlines as it does there.
///
/// # Safety
///
/// The CPU must support POPCNT, BMI1, AVX2 and F16C; `F16cRows::detect`
/// checked it when it made `f16c`.
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "popcnt,bmi1,avx2,f16c")
)]
unsafe fn decode_tctile_f32_simd(
    f16c: F16cRows,
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
    rows: &mut [[f32; 16]; 16],
) -> usize {
    decode_tctile_rows(
        f16c,
        counters,
        bitmaps,
        values,
        base,
        values_smem_base,
        rows,
    )
}

/// Golden (fault-free, panicking) [`decode_tctile_rows_f`].
#[inline(always)]
pub(crate) fn decode_tctile_rows<P: Datapath, E: RowExpansion>(
    expansion: E,
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    values_smem_base: u64,
    rows: &mut TcRows<P>,
) -> usize {
    decode_tctile_rows_f(
        expansion,
        counters,
        bitmaps,
        values,
        base,
        values_smem_base,
        None,
        0,
        rows,
    )
    .expect(
        "SMBD TCTile decode overran the GroupTile value buffer — bitmap \
         population exceeds the encoded value span (corrupted bitmap?)",
    )
}

/// Decodes a TCTile's four quadrants straight into `mma` operand rows of
/// any payload precision, returning the number of values consumed.
/// `rows` is overwritten whole: [`expand_bitmap_tile`] writes every
/// element of each quadrant, each decoded value widened
/// ([`Datapath::widen`]) at its row and column and each absent element
/// as the operand's zero (`+0.0` for FP16). `expansion` picks how FP16
/// rows are written and changes no bit. The INT8 instantiation
/// shares the bitmap walk and counter writes, with gather spans at the
/// 1-byte width. The caller owns `rows`, so the SpMM block decodes every
/// TCTile into one buffer instead of moving a fresh tile out per decode.
///
/// Non-panicking: a bitmap whose population overruns `values` returns
/// [`DecodeFault::Overrun`]. With `fault = None` the counter stream and
/// rows are exactly the golden path's. When an injector is supplied,
/// each value gather may have one lane's loaded value poisoned, keyed
/// by `site_key`, which the caller derives from the GroupTile/TCTile
/// coordinates (shared-memory addresses repeat across tiles and cannot
/// serve as keys). The poison lands as the payload's projection of the
/// FP16 pattern — a NaN for FP16, a plausible nonzero code for INT8
/// (which no per-value scan can catch; the D3 gap in DESIGN.md §14).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn decode_tctile_rows_f<P: Datapath, E: RowExpansion>(
    expansion: E,
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
    rows: &mut TcRows<P>,
) -> Result<usize, DecodeFault> {
    let mut offset = base;
    for (reg, &bm) in bitmaps.iter().enumerate() {
        // `QUAD_ORIGINS[reg]` from the index bits, so the quadrant's
        // rows and columns are provably in bounds.
        let origin = ((reg & 1) * 8, (reg >> 1) * 8);
        debug_assert_eq!(origin, QUAD_ORIGINS[reg]);
        expand_bitmap_tile(
            expansion,
            counters,
            bm,
            values,
            offset,
            values_smem_base,
            fault,
            site_key.wrapping_add((reg as u64 + 1) << 48),
            rows,
            origin,
        )?;
        offset += popc64(bm) as usize;
    }
    Ok(offset - base)
}

/// Analytic cost of decoding one BitmapTile, mirroring the counter writes
/// of the decode (`expand_bitmap_tile`) without executing it. Used by
/// the estimator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtDecodeCost {
    /// Warp-level integer instructions.
    pub int_insts: u64,
    /// Shared-memory load instructions.
    pub smem_loads: u64,
    /// Shared-memory transactions (bitmap 8B broadcast = 1; each value
    /// gather of 2B within 64 consecutive values = 1 wavefront).
    pub smem_transactions: u64,
}

/// Per-BitmapTile analytic decode cost. `has_values` is false for an
/// all-zero bitmap (the gathers are predicated off entirely).
pub fn bt_decode_cost(has_values: bool) -> BtDecodeCost {
    BtDecodeCost {
        int_insts: INT_INSTS_PHASE1 + INT_INSTS_BASE + INT_INSTS_PHASE2,
        smem_loads: if has_values { SMEM_LOADS_PER_BT } else { 1 },
        // Bitmap broadcast: an 8-byte access runs as two half-warp phases,
        // one wavefront each. Value gathers: 64 consecutive 2-byte values
        // span 128 B = one conflict-free wavefront per phase.
        smem_transactions: if has_values { 4 } else { 2 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use gpu_sim::bitops::test_bit;
    use gpu_sim::fault::FaultPlan;
    use gpu_sim::matrix::{random_sparse, DenseMatrix, ValueDist};
    use gpu_sim::shared_memory::{warp_smem_load, warp_smem_load_f};
    use proptest::prelude::*;

    /// [`decode_tctile_rows_f`] through `expansion`, returning the rows
    /// with the count.
    #[allow(clippy::too_many_arguments)]
    fn rows_with<P: Datapath, E: RowExpansion>(
        expansion: E,
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        values_smem_base: u64,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<(TcRows<P>, usize), DecodeFault> {
        // Prefilled with a nonzero operand: the decode must clear what it
        // does not write.
        let mut rows = [[P::from_poison(Half::from_bits(0x3C01)).widen(); 16]; 16];
        decode_tctile_rows_f(
            expansion,
            counters,
            bitmaps,
            values,
            base,
            values_smem_base,
            fault,
            site_key,
            &mut rows,
        )
        .map(|used| (rows, used))
    }

    /// [`rows_with`] through the expansion the SpMM block picks on this
    /// host.
    #[allow(clippy::too_many_arguments)]
    fn rows_f<P: Datapath>(
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        values_smem_base: u64,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<(TcRows<P>, usize), DecodeFault> {
        let (smem, key) = (values_smem_base, site_key);
        match F16cRows::detect() {
            Some(f16c) => rows_with(f16c, counters, bitmaps, values, base, smem, fault, key),
            None => rows_with(
                SetBitWalk, counters, bitmaps, values, base, smem, fault, key,
            ),
        }
    }

    /// [`decode_tctile_rows`] returning the rows with the count.
    fn rows_golden<P: Datapath>(
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        values_smem_base: u64,
    ) -> (TcRows<P>, usize) {
        rows_f(counters, bitmaps, values, base, values_smem_base, None, 0).expect("in bounds")
    }

    /// Encodes a 16×16 tile's quadrants in TL,BL,TR,BR order with a
    /// caller-supplied per-element encoder.
    fn encode_tctile_with<T>(
        tile: &DenseMatrix,
        mut enc: impl FnMut(Half) -> T,
    ) -> ([u64; 4], Vec<T>) {
        let mut bitmaps = [0u64; 4];
        let mut values = Vec::new();
        for (q, (dr, dc)) in [(0, 0), (8, 0), (0, 8), (8, 8)].iter().enumerate() {
            let mut bm = 0u64;
            for bit in 0..64 {
                let v = tile.get(bit / 8 + dr, bit % 8 + dc);
                if !v.is_zero() {
                    bm |= 1u64 << bit;
                    values.push(enc(v));
                }
            }
            bitmaps[q] = bm;
        }
        (bitmaps, values)
    }

    /// Quadrant-local `(row, col)` of the low half of lane `lane`'s
    /// register; the high half is at `(row, col + 1)`.
    fn lane_quadrant_coords(lane: usize) -> (usize, usize) {
        (lane / 4, (lane % 4) * 2)
    }

    /// SMBD as Algorithm 2 writes it, for one BitmapTile: per phase,
    /// every lane runs its own `MaskedPopCount` and bit test and the
    /// warp gathers through a 32-lane address array; Phase II reuses the
    /// Phase I count. Returns each lane's `a0` (bit `2l`) and `a1` (bit
    /// `2l + 1`), the low and high halves of its `Ra` register. The row
    /// decode is pinned to it: values, counters, overruns and fault
    /// sites.
    ///
    /// `analyze_warp_access` has no 1 B width, so INT8 gathers are
    /// analysed at 2 B: up to 64 codes sit inside one bank cycle at
    /// either width.
    #[allow(clippy::too_many_arguments)]
    fn decode_bitmap_tile_scalar<P: Payload>(
        counters: &mut Counters,
        bitmap: u64,
        values: &[P],
        base: usize,
        values_smem_base: u64,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<([P; 32], [P; 32]), DecodeFault> {
        let need = base + popc64(bitmap) as usize;
        if need > values.len() {
            return Err(DecodeFault::Overrun {
                needed: need,
                available: values.len(),
            });
        }

        // Bitmap broadcast load: every lane reads the same 8-byte word.
        warp_smem_load(counters, &[Some(values_smem_base); 32], 8);

        let mut halves = [[P::ZERO; 32]; 2];
        let mut phase1_count = [0u32; 32];
        for (phase, insts, salt) in [
            (0, INT_INSTS_PHASE1 + INT_INSTS_BASE, 0x5048_3141),
            (1, INT_INSTS_PHASE2, 0x5048_3242),
        ] {
            let mut addrs = [None; 32];
            let mut lanes = Vec::new();
            for lane in 0..32 {
                let off = 2 * lane as u32 + phase;
                if phase == 0 {
                    phase1_count[lane] = masked_popc64(bitmap, off);
                }
                if test_bit(bitmap, off) {
                    // Phase II advances past `a0` when it was set.
                    let advance = phase * u32::from(test_bit(bitmap, 2 * lane as u32));
                    let idx = base + (phase1_count[lane] + advance) as usize;
                    halves[phase as usize][lane] = values[idx];
                    addrs[lane] = Some(values_smem_base + (idx * P::BYTES) as u64);
                    lanes.push(lane);
                }
            }
            counters.cuda_int_insts += insts;
            counters.insts_issued += insts;
            if !lanes.is_empty() {
                if let Some((sel, poison)) =
                    warp_smem_load_f(counters, &addrs, 2, fault, site_key ^ salt)
                {
                    halves[phase as usize][lanes[sel]] = P::from_poison(poison);
                }
            }
        }
        Ok((halves[0], halves[1]))
    }

    /// [`decode_bitmap_tile_scalar`] over a TCTile, each lane's halves
    /// widened and scattered to their fragment coordinates.
    fn per_lane_rows<P: Datapath>(
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        values_smem_base: u64,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<(TcRows<P>, usize), DecodeFault> {
        let mut rows = [[P::Operand::default(); 16]; 16];
        let mut offset = base;
        for (reg, &bm) in bitmaps.iter().enumerate() {
            let (a0, a1) = decode_bitmap_tile_scalar(
                counters,
                bm,
                values,
                offset,
                values_smem_base,
                fault,
                site_key.wrapping_add((reg as u64 + 1) << 48),
            )?;
            let (dr, dc) = QUAD_ORIGINS[reg];
            for lane in 0..32 {
                let (qr, qc) = lane_quadrant_coords(lane);
                rows[qr + dr][qc + dc] = a0[lane].widen();
                rows[qr + dr][qc + dc + 1] = a1[lane].widen();
            }
            offset += popc64(bm) as usize;
        }
        Ok((rows, offset - base))
    }

    #[test]
    fn registers_follow_the_paper_layout() {
        // The A fragment of mma.m16n8k16: Ra0..Ra3 hold the top-left,
        // bottom-left, top-right and bottom-right quadrants, the order
        // TCA-BME stores a TCTile's BitmapTiles in (paper §4.2.1).
        assert_eq!(QUAD_ORIGINS, [(0, 0), (8, 0), (0, 8), (8, 8)]);
        // Within a quadrant, lane l's low half is row-major element 2l:
        // Algorithm 2's MaskedPopCount offset.
        for lane in 0..32 {
            let (r, c) = lane_quadrant_coords(lane);
            assert_eq!(r * 8 + c, 2 * lane);
        }
        // Decoding quadrant q per lane gives each lane the tile elements
        // its Ra{q} register carries.
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 79);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let mut offset = 0;
        for (q, &bm) in bitmaps.iter().enumerate() {
            let (a0, a1) =
                decode_bitmap_tile_scalar(&mut Counters::new(), bm, &values, offset, 0, None, 0)
                    .expect("in bounds");
            let (dr, dc) = QUAD_ORIGINS[q];
            for lane in 0..32 {
                let (r, c) = lane_quadrant_coords(lane);
                assert_eq!(a0[lane], tile.get(dr + r, dc + c), "Ra{q} lane {lane} low");
                assert_eq!(
                    a1[lane],
                    tile.get(dr + r, dc + c + 1),
                    "Ra{q} lane {lane} high"
                );
            }
            offset += popc64(bm) as usize;
        }
        assert_eq!(offset, values.len());
    }

    #[test]
    fn decode_reconstructs_tile() {
        for &s in &[0.0, 0.4, 0.6, 0.9] {
            let tile = random_sparse(16, 16, s, ValueDist::Uniform, 77);
            let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
            let (rows, consumed) = decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0, 0);
            assert_eq!(consumed, values.len(), "sparsity {s}");
            for (r, row) in rows.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    let want = tile.get(r, c).to_f32();
                    assert_eq!(v.to_bits(), want.to_bits(), "({r},{c}) sparsity {s}");
                }
            }
        }
    }

    #[test]
    fn decode_with_base_offset() {
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 78);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        // Prepend 5 unrelated values; decode with base = 5.
        let mut buf = vec![Half::from_f32(9.0); 5];
        buf.extend_from_slice(&values);
        let shifted = decode_tctile_f32(&mut Counters::new(), &bitmaps, &buf, 5, 0);
        let direct = decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0, 0);
        assert_eq!(shifted, direct);
    }

    #[test]
    fn empty_tile_decodes_to_zero_with_minimal_cost() {
        let mut c = Counters::new();
        let (rows, consumed) = decode_tctile_f32(&mut c, &[0; 4], &[], 0, 0);
        assert!(rows.iter().flatten().all(|v| v.to_bits() == 0));
        assert_eq!(consumed, 0);
        // Only the four bitmap broadcasts (two half-warp phases each)
        // touch shared memory.
        assert_eq!(c.smem_load_transactions, 8);
        assert_eq!(c.smem_bank_conflicts, 0);
    }

    #[test]
    fn functional_costs_match_analytic_model() {
        // One populated quadrant and three empty ones: the counters are
        // one full BitmapTile cost plus three empty ones.
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 81);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let mut c = Counters::new();
        decode_tctile_f32(&mut c, &[bitmaps[0], 0, 0, 0], &values, 0, 0);
        let (full, empty) = (bt_decode_cost(true), bt_decode_cost(false));
        assert_eq!(c.cuda_int_insts, full.int_insts + 3 * empty.int_insts);
        assert_eq!(
            c.smem_load_transactions,
            full.smem_transactions + 3 * empty.smem_transactions,
            "value gathers must be conflict-free wavefronts"
        );
    }

    #[test]
    fn checked_decode_matches_golden_with_no_injector() {
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 83);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let mut cg = Counters::new();
        let mut golden = [[0.0f32; 16]; 16];
        let used = decode_tctile_rows(SetBitWalk, &mut cg, &bitmaps, &values, 0, 128, &mut golden);
        let mut cc = Counters::new();
        let checked =
            rows_f::<Half>(&mut cc, &bitmaps, &values, 0, 128, None, 9).expect("in bounds");
        assert_eq!(checked, (golden, used));
        assert_eq!(cg, cc, "checked path must not perturb the counter stream");
    }

    #[test]
    fn checked_decode_reports_overrun_instead_of_panicking() {
        let tile = random_sparse(16, 16, 0.7, ValueDist::Uniform, 84);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let values = &values[..popc64(bitmaps[0]) as usize];
        assert!(!values.is_empty());
        // Inflate the bitmap population past the value buffer — the
        // flipped-bit failure mode the unchecked path dies on.
        let corrupt = bitmaps[0] | (1u64 << 63) | (1u64 << 62) | 1;
        let pop = popc64(corrupt) as usize;
        assert!(pop > values.len());
        let err = rows_f(
            &mut Counters::new(),
            &[corrupt, 0, 0, 0],
            values,
            0,
            0,
            None,
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DecodeFault::Overrun {
                needed: pop,
                available: values.len()
            }
        );
    }

    #[test]
    #[should_panic(expected = "corrupted bitmap")]
    fn unchecked_decode_panics_on_overrun_with_named_invariant() {
        decode_tctile_f32(
            &mut Counters::new(),
            &[u64::MAX, 0, 0, 0],
            &[Half::ONE; 3],
            0,
            0,
        );
    }

    #[test]
    fn poison_injection_is_caught_by_finiteness_scan() {
        let tile = random_sparse(16, 16, 0.4, ValueDist::Uniform, 85);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let plan = FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let (poisoned, _) = rows_f(&mut Counters::new(), &bitmaps, &values, 0, 0, Some(&inj), 7)
            .expect("poison is not an overrun");
        assert_eq!(Half::scan(&poisoned), Err(DecodeFault::NonFinite));
        // And with rates at zero the same call returns the golden rows.
        let clean = FaultInjector::new(FaultPlan::default());
        let (rows, consumed) = rows_f(
            &mut Counters::new(),
            &bitmaps,
            &values,
            0,
            0,
            Some(&clean),
            7,
        )
        .expect("in bounds");
        assert_eq!(Half::scan(&rows), Ok(()), "zero rates never poison");
        let (golden_rows, golden_consumed) =
            decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0, 0);
        assert_eq!(rows, golden_rows);
        assert_eq!(consumed, golden_consumed);
    }

    #[test]
    fn value_gathers_are_conflict_free() {
        // 64 consecutive 2-byte values span 128 B: one wavefront per
        // phase, zero replays — the property Figure 12 credits SpInfer
        // with versus Flash-LLM's scatter.
        let tile = random_sparse(16, 16, 0.0, ValueDist::Uniform, 82);
        let (bitmaps, values) = encode_tctile_with(&tile, |v| v);
        let mut c = Counters::new();
        decode_tctile_f32(&mut c, &bitmaps, &values, 0, 256);
        assert_eq!(c.smem_bank_conflicts, 0);
    }

    #[test]
    fn i8_decode_reconstructs_tile_codes() {
        // Quantize a tile to codes, decode through the shared sweep, and
        // check every cell lands at its coordinate as a widened i32.
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 90);
        let (bitmaps, codes) = encode_tctile_with(&tile, |v| (v.to_f32() * 100.0).round() as i8);
        let mut c = Counters::new();
        let (rows, consumed) = rows_golden::<i8>(&mut c, &bitmaps, &codes, 0, 0);
        assert_eq!(consumed, codes.len());
        for r in 0..16 {
            for col in 0..16 {
                let v = tile.get(r, col);
                let expect = if v.is_zero() {
                    0
                } else {
                    i32::from((v.to_f32() * 100.0).round() as i8)
                };
                assert_eq!(rows[r][col], expect, "({r},{col})");
            }
        }
    }

    #[test]
    fn i8_decode_shares_counter_structure_with_fp16() {
        // Same bitmaps, same rank walk: the i8 decode issues exactly the
        // FP16 decode's instruction counts; only gather *addresses*
        // shrink (1-byte elements), which here still yields identical
        // conflict-free transaction counts.
        let tile = random_sparse(16, 16, 0.4, ValueDist::Uniform, 91);
        let (bitmaps, vals) = encode_tctile_with(&tile, |v| v);
        let (_, codes) = encode_tctile_with(&tile, |_| 1i8);
        let mut cf = Counters::new();
        decode_tctile_f32(&mut cf, &bitmaps, &vals, 0, 0);
        let mut ci = Counters::new();
        rows_golden::<i8>(&mut ci, &bitmaps, &codes, 0, 0);
        assert_eq!(cf.cuda_int_insts, ci.cuda_int_insts);
        assert_eq!(cf.insts_issued, ci.insts_issued);
        assert_eq!(cf.smem_load_transactions, ci.smem_load_transactions);
        assert_eq!(ci.smem_bank_conflicts, 0);
    }

    #[test]
    fn i8_decode_reports_overrun() {
        let bitmaps = [u64::MAX, 0, 0, 0];
        let codes = vec![1i8; 3];
        assert!(matches!(
            rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0, None, 0),
            Err(DecodeFault::Overrun { .. })
        ));
    }

    #[test]
    fn i8_poison_lands_in_decoded_rows() {
        let tile = random_sparse(16, 16, 0.3, ValueDist::Uniform, 92);
        let (bitmaps, codes) = encode_tctile_with(&tile, |_| 7i8);
        let plan = FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let (rows, _) = rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0, Some(&inj), 3)
            .expect("poison is not an overrun");
        let (clean, _) = rows_golden::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0);
        assert_ne!(rows, clean, "an always-on injector must perturb codes");
    }

    /// SplitMix64 step.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Four bitmaps, each (by two bits of `shapes`) random, empty, full,
    /// or a single set bit.
    fn bitmaps_from(shapes: u8, seed: u64) -> [u64; 4] {
        let mut s = seed;
        core::array::from_fn(|q| match (shapes >> (2 * q)) & 3 {
            0 => next(&mut s),
            1 => 0,
            2 => u64::MAX,
            _ => 1u64 << (next(&mut s) % 64),
        })
    }

    /// Runs the row expand and the per-lane Algorithm 2 decode on the
    /// same inputs, golden and under an always-firing poison injector,
    /// and requires identical rows (compared through `bits`), consumed
    /// counts, overrun errors and counters, fault tallies included.
    #[allow(clippy::too_many_arguments)]
    fn assert_rows_parity<P: Datapath>(
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        smem_base: u64,
        site_key: u64,
        bits: impl Fn(P::Operand) -> u32,
    ) {
        let inj = FaultInjector::new(FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        });
        for fault in [None, Some(&inj)] {
            let mut c_new = Counters::new();
            let mut c_ref = Counters::new();
            let new = rows_f::<P>(
                &mut c_new, bitmaps, values, base, smem_base, fault, site_key,
            );
            let reference = per_lane_rows::<P>(
                &mut c_ref, bitmaps, values, base, smem_base, fault, site_key,
            );
            let as_bits = |r: Result<(TcRows<P>, usize), DecodeFault>| {
                r.map(|(rows, used)| (rows.map(|row| row.map(&bits)), used))
            };
            assert_eq!(as_bits(new), as_bits(reference));
            assert_eq!(c_new, c_ref);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rows_expand_matches_per_lane_decode(
            shapes: u8,
            bm_seed: u64,
            val_seed: u64,
            base in 0usize..48,
            smem_base in 0u64..4096,
            site_key: u64,
            short_by in prop::sample::select(vec![0usize, 0, 0, 1, 5]),
        ) {
            // `smem_base` is any byte address, so gathers start at any
            // bank and their spans wrap the 32-bank cycle; `short_by`
            // truncates the value buffer into an overrun on some cases.
            let bitmaps = bitmaps_from(shapes, bm_seed);
            let pop: usize = bitmaps.iter().map(|&b| popc64(b) as usize).sum();
            let len = (base + pop).saturating_sub(short_by);
            let mut s = val_seed;
            let halves: Vec<Half> = (0..len)
                .map(|_| Half::from_f32((next(&mut s) % 2001) as f32 / 500.0 - 2.0))
                .collect();
            let codes: Vec<i8> = (0..len).map(|_| next(&mut s) as i8).collect();

            assert_rows_parity::<Half>(&bitmaps, &halves, base, smem_base, site_key, f32::to_bits);
            assert_rows_parity::<i8>(&bitmaps, &codes, base, smem_base, site_key, |v| v as u32);
        }
    }

    /// A decode's rows as bits with the consumed count, or its fault.
    type RowBits = Result<([[u32; 16]; 16], usize), DecodeFault>;

    /// One FP16 decode through `expansion` at shared-memory base 64, and
    /// its counters.
    fn row_bits<E: RowExpansion>(
        expansion: E,
        bitmaps: &[u64; 4],
        values: &[Half],
        base: usize,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> (RowBits, Counters) {
        let mut c = Counters::new();
        let r = rows_with(
            expansion, &mut c, bitmaps, values, base, 64, fault, site_key,
        )
        .map(|(rows, used)| (rows.map(|row| row.map(f32::to_bits)), used));
        (r, c)
    }

    /// The portable set-bit walk is the only FP16 expansion hosts
    /// without POPCNT, BMI1, AVX2 or F16C run, and FP16 never reaches it
    /// on hosts with them, so it is pinned to the F16C row expansion: empty, full,
    /// single-bit and random bitmaps in every quadrant mix, every base
    /// mod 8, value slices that end exactly at the tile's population (the
    /// short-tail loads) or run on past it, golden and under an
    /// always-firing injector (the poison must land after the
    /// expansion). Values are any f16 pattern, NaNs included. Rows are
    /// compared as bits, with the consumed count, overruns and full
    /// counters.
    #[test]
    fn portable_walk_matches_f16c_expansion() {
        let Some(f16c) = F16cRows::detect() else {
            eprintln!("skipped: the host lacks POPCNT, BMI1, AVX2 or F16C");
            return;
        };
        let inj = FaultInjector::new(FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        });
        let mut s = 0x5EED_F16C;
        for shapes in 0..=u8::MAX {
            let bitmaps = bitmaps_from(shapes, next(&mut s));
            let pop: usize = bitmaps.iter().map(|&b| popc64(b) as usize).sum();
            for base in 0..16 {
                // Exactly the population (the tail path), a few past it,
                // and one short (an overrun both must report).
                for len in [
                    base + pop,
                    base + pop + 3,
                    base + pop + 9,
                    (base + pop).saturating_sub(1),
                ] {
                    let halves: Vec<Half> = (0..len)
                        .map(|_| Half::from_bits(next(&mut s) as u16))
                        .collect();
                    for fault in [None, Some(&inj)] {
                        let key = next(&mut s);
                        let walk = row_bits(SetBitWalk, &bitmaps, &halves, base, fault, key);
                        let simd = row_bits(f16c, &bitmaps, &halves, base, fault, key);
                        assert_eq!(walk, simd, "shapes {shapes:#04x} base {base} len {len}");
                    }
                }
            }
        }
    }
}
