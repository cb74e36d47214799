//! Shared Memory Bitmap Decoding (SMBD), paper §4.3.3 and Algorithm 2.
//!
//! SMBD turns a bitmap-compressed `WTile` in shared memory into the exact
//! per-lane register distribution `mma.m16n8k16` requires, without any
//! stored offsets:
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
//! Instruction and shared-memory costs are recorded per decode so the
//! analytic estimator (used at paper-scale shapes) and the functional
//! path share one source of truth: the constants below.

use crate::payload::Payload;
use crate::spmm::{Datapath, TcRows};
use gpu_sim::bitops::{masked_popc64, popc64, test_bit};
use gpu_sim::counters::Counters;
use gpu_sim::fault::FaultInjector;
use gpu_sim::fp16::{pack_f16x2, Half};
use gpu_sim::shared_memory::{
    warp_smem_broadcast_load, warp_smem_gather_load_f, warp_smem_load, warp_smem_load_f, BANK_WORD,
};
use gpu_sim::tensor_core::{FragA, QUAD_ORIGINS};

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

/// Decodes one 8×8 BitmapTile into the 32 packed `.f16x2` registers of a
/// warp (one register per lane, covering the quadrant).
///
/// `values` is the GroupTile's compressed value buffer (resident in shared
/// memory); `base` is this BitmapTile's starting offset within it, found
/// by accumulating `popc64` over preceding tiles. Returns the packed
/// registers and records the decode's hardware events.
pub fn decode_bitmap_tile(
    counters: &mut Counters,
    bitmap: u64,
    values: &[Half],
    base: usize,
    values_smem_base: u64,
) -> [u32; 32] {
    decode_bitmap_tile_f(counters, bitmap, values, base, values_smem_base, None, 0).expect(
        "SMBD decode overran the GroupTile value buffer — bitmap population \
         exceeds the encoded value span (corrupted bitmap?)",
    )
}

/// Fault-aware, non-panicking [`decode_bitmap_tile`]. With
/// `fault = None` the counter stream and registers are exactly the
/// golden path's; a bitmap whose population overruns `values` returns
/// [`DecodeFault::Overrun`] instead of panicking. When an injector is
/// supplied, each value gather may have one lane's loaded FP16 poisoned
/// (keyed by `site_key`, which the caller derives from the
/// GroupTile/TCTile coordinates — shared-memory addresses repeat across
/// tiles and cannot serve as keys).
///
/// The register form of the one decode body (`expand_bitmap_tile`):
/// the quadrant is expanded row-major and lane `l` packs elements `2l`
/// (low half) and `2l + 1` (high half).
#[allow(clippy::too_many_arguments)]
pub fn decode_bitmap_tile_f(
    counters: &mut Counters,
    bitmap: u64,
    values: &[Half],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
) -> Result<[u32; 32], DecodeFault> {
    let mut quad = [Half::ZERO; 64];
    expand_bitmap_tile(
        counters,
        bitmap,
        values,
        base,
        values_smem_base,
        fault,
        site_key,
        |p, v| quad[p] = v,
    )?;
    let mut regs = [0u32; 32];
    for (reg, pair) in regs.iter_mut().zip(quad.chunks_exact(2)) {
        *reg = pack_f16x2(pair[0], pair[1]);
    }
    Ok(regs)
}

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

/// The single SMBD decode body: expands one BitmapTile and records its
/// hardware events. Every decode — golden, checked and injected, FP16
/// and INT8, register form and row form — runs through here; callers
/// differ only in `put(pos, value)`, which receives each decoded
/// element at its bitmap position. Bit `pos` is quadrant element
/// `(pos / 8, pos % 8)` in row-major order, so a row-form caller writes
/// straight into `mma` operand rows.
///
/// Generic over the value payload: the bitmap walk, rank arithmetic and
/// counter writes never depend on the element type — only the gather
/// word spans (scaled by [`Payload::BYTES`]) and the poison projection
/// do.
///
/// The walk visits the set bits once, in ascending position, pairing
/// each with the next packed value: the `r`-th set bit takes
/// `values[base + r]`, which is the `masked_popc64` offset Algorithm 2's
/// per-lane formulation computes ([`decode_bitmap_tile_scalar`] retains
/// it). The counter writes follow from the masks alone:
///
/// * the bitmap broadcast, then per phase the integer instructions and,
///   when the phase has any set bit, one gather;
/// * a phase's active-lane count is the popcount of its mask
///   (`bitmap & PHASE1_BITS` or its complement);
/// * its gather addresses ascend with the rank, so the word span runs
///   from the rank of the mask's lowest set bit to that of its highest;
/// * a poisoned gather lands on the `sel`-th active lane, which is the
///   `sel`-th set bit of the phase mask.
///
/// The gathers go through the span-based shared-memory entry point,
/// which is pinned equal to the address-array analysis, so no per-lane
/// address arrays are built.
#[allow(clippy::too_many_arguments)]
#[inline]
fn expand_bitmap_tile<P: Payload>(
    counters: &mut Counters,
    bitmap: u64,
    values: &[P],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
    mut put: impl FnMut(usize, P),
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

    // The loop runs once per set bit, so `bm` is never zero inside it:
    // the `& 63` never changes a position, it only bounds it for the
    // compiler.
    let mut bm = bitmap;
    for &v in &values[base..need] {
        put((bm.trailing_zeros() & 63) as usize, v);
        bm &= bm - 1;
    }

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
            put(nth_set_bit(mask, sel), P::from_poison(poison));
        }
    }
    Ok(())
}

/// Retained scalar oracle of [`decode_bitmap_tile_f`]: the
/// pre-vectorization per-lane formulation — a `MaskedPopCount` and bit
/// test for all 32 lanes per phase, exactly Algorithm 2 as written —
/// kept as the independent definition the set-bit sweep is
/// proptest-pinned against (`tests/simd_equiv.rs`). Identical counter
/// writes, registers, and fault sites.
#[allow(clippy::too_many_arguments)]
pub fn decode_bitmap_tile_scalar(
    counters: &mut Counters,
    bitmap: u64,
    values: &[Half],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
) -> Result<[u32; 32], DecodeFault> {
    let mut regs = [0u32; 32];
    let need = base + popc64(bitmap) as usize;
    if need > values.len() {
        return Err(DecodeFault::Overrun {
            needed: need,
            available: values.len(),
        });
    }

    // Bitmap broadcast load: every lane reads the same 8-byte word.
    warp_smem_load(counters, &[Some(values_smem_base); 32], 8);

    // Phase I: decode a0 (bit 2*lane) — one MaskedPopCount per lane.
    let mut a0 = [Half::ZERO; 32];
    let mut phase1_count = [0u32; 32];
    let mut phase1_addrs = [None; 32];
    let mut phase1_lanes = [0usize; 32];
    let mut phase1_active = 0usize;
    for lane in 0..32 {
        let off = 2 * lane as u32;
        let count = masked_popc64(bitmap, off);
        phase1_count[lane] = count;
        if test_bit(bitmap, off) {
            let idx = base + count as usize;
            a0[lane] = values[idx];
            phase1_addrs[lane] = Some(values_smem_base + idx as u64 * 2);
            phase1_lanes[phase1_active] = lane;
            phase1_active += 1;
        }
    }
    counters.cuda_int_insts += INT_INSTS_PHASE1 + INT_INSTS_BASE;
    counters.insts_issued += INT_INSTS_PHASE1 + INT_INSTS_BASE;
    if phase1_active > 0 {
        if let Some((sel, poison)) =
            warp_smem_load_f(counters, &phase1_addrs, 2, fault, site_key ^ 0x5048_3141)
        {
            a0[phase1_lanes[sel]] = poison;
        }
    }

    // Phase II: decode a1 (bit 2*lane + 1), reusing the Phase I count.
    let mut a1 = [Half::ZERO; 32];
    let mut phase2_addrs = [None; 32];
    let mut phase2_lanes = [0usize; 32];
    let mut phase2_active = 0usize;
    for lane in 0..32 {
        let off = 2 * lane as u32 + 1;
        if test_bit(bitmap, off) {
            let advance = u32::from(test_bit(bitmap, 2 * lane as u32));
            let idx = base + (phase1_count[lane] + advance) as usize;
            a1[lane] = values[idx];
            phase2_addrs[lane] = Some(values_smem_base + idx as u64 * 2);
            phase2_lanes[phase2_active] = lane;
            phase2_active += 1;
        }
    }
    counters.cuda_int_insts += INT_INSTS_PHASE2;
    counters.insts_issued += INT_INSTS_PHASE2;
    if phase2_active > 0 {
        if let Some((sel, poison)) =
            warp_smem_load_f(counters, &phase2_addrs, 2, fault, site_key ^ 0x5048_3242)
        {
            a1[phase2_lanes[sel]] = poison;
        }
    }

    for lane in 0..32 {
        regs[lane] = pack_f16x2(a0[lane], a1[lane]);
    }
    Ok(regs)
}

/// Decodes a full 16×16 TCTile (four BitmapTiles in TL, BL, TR, BR order)
/// into an `mma` A fragment. `base` is the TCTile's starting offset in the
/// GroupTile's value buffer; returns the fragment and the total non-zeros
/// consumed, so the caller can advance to the next TCTile.
pub fn decode_tctile(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
) -> (FragA, usize) {
    decode_tctile_f(counters, bitmaps, values, base, values_smem_base, None, 0).expect(
        "SMBD TCTile decode overran the GroupTile value buffer — bitmap \
         population exceeds the encoded value span (corrupted bitmap?)",
    )
}

/// Fault-aware, non-panicking [`decode_tctile`]; see
/// [`decode_bitmap_tile_f`] for the `fault`/`site_key` contract.
pub fn decode_tctile_f(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
) -> Result<(FragA, usize), DecodeFault> {
    let mut frag = FragA::zero();
    let mut offset = base;
    for (reg, &bm) in bitmaps.iter().enumerate() {
        let regs = decode_bitmap_tile_f(
            counters,
            bm,
            values,
            offset,
            values_smem_base,
            fault,
            site_key.wrapping_add((reg as u64 + 1) << 48),
        )?;
        for lane in 0..32 {
            frag.regs[lane][reg] = regs[lane];
        }
        offset += popc64(bm) as usize;
    }
    Ok((frag, offset - base))
}

/// Decodes a full 16×16 TCTile straight to the decode-once `f32` row
/// view the flat-array mma entry points
/// ([`gpu_sim::tensor_core::mma_m16n8k16_f32`] /
/// [`mma_m16n8k16_bslice`](gpu_sim::tensor_core::mma_m16n8k16_bslice))
/// consume. One decode serves every N-block the tile multiplies, so the
/// per-MAC bit-decode of the fragment path disappears from the SpMM hot
/// loop. Counter writes are exactly those of [`decode_tctile`] — it *is*
/// the same decode body, writing rows instead of registers.
pub fn decode_tctile_f32(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
) -> ([[f32; 16]; 16], usize) {
    let mut rows = [[0.0; 16]; 16];
    let used =
        decode_tctile_rows::<Half>(counters, bitmaps, values, base, values_smem_base, &mut rows);
    (rows, used)
}

/// Golden (fault-free, panicking) [`decode_tctile_rows_f`].
pub(crate) fn decode_tctile_rows<P: Datapath>(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    values_smem_base: u64,
    rows: &mut TcRows<P>,
) -> usize {
    decode_tctile_rows_f(
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
/// `rows` is overwritten whole: it is cleared to the operand's zero,
/// then [`expand_bitmap_tile`] writes each decoded value, widened
/// ([`Datapath::widen`]), to its row and column. For FP16 the widening
/// is the same LUT conversion `FragA::to_f32_rows` applies to a packed
/// register and absent lanes read `+0.0`, so the rows are bit-identical
/// to `decode_tctile_f(..).to_f32_rows()` — with the exact same counter
/// and fault-site stream; the INT8 instantiation shares the bitmap walk
/// and counter writes, with gather spans at the 1-byte width. The
/// caller owns `rows`, so the SpMM block decodes every TCTile into one
/// buffer instead of moving a fresh tile out per decode.
///
/// Non-panicking: an overrun surfaces as [`DecodeFault::Overrun`]; see
/// [`decode_bitmap_tile_f`] for the `fault`/`site_key` contract. An
/// injected poison lands as the payload's projection of the FP16
/// pattern — a NaN for FP16, a plausible nonzero code for INT8 (which
/// no per-value scan can catch; the D3 gap in DESIGN.md §14).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_tctile_rows_f<P: Datapath>(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    values_smem_base: u64,
    fault: Option<&FaultInjector>,
    site_key: u64,
    rows: &mut TcRows<P>,
) -> Result<usize, DecodeFault> {
    *rows = [[P::Operand::default(); 16]; 16];
    let mut offset = base;
    for (reg, &bm) in bitmaps.iter().enumerate() {
        // `QUAD_ORIGINS[reg]` from the index bits, so the row and column
        // below are provably in bounds.
        let (dr, dc) = ((reg & 1) * 8, (reg >> 1) * 8);
        debug_assert_eq!((dr, dc), QUAD_ORIGINS[reg]);
        expand_bitmap_tile(
            counters,
            bm,
            values,
            offset,
            values_smem_base,
            fault,
            site_key.wrapping_add((reg as u64 + 1) << 48),
            |p, v| rows[dr + p / 8][dc + p % 8] = v.widen(),
        )?;
        offset += popc64(bm) as usize;
    }
    Ok(offset - base)
}

/// Analytic cost of decoding one BitmapTile, mirroring the counter writes
/// of [`decode_bitmap_tile`] without executing it. Used by the estimator.
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
    use gpu_sim::fault::FaultPlan;
    use gpu_sim::matrix::{random_sparse, DenseMatrix, ValueDist};
    use gpu_sim::tensor_core::lane_quadrant_coords;
    use proptest::prelude::*;

    /// [`decode_tctile_rows_f`] returning the rows with the count.
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
        // Prefilled with a nonzero operand: the decode must clear what it
        // does not write.
        let mut rows = [[P::from_poison(Half::from_bits(0x3C01)).widen(); 16]; 16];
        decode_tctile_rows_f(
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

    /// Encodes an 8×8 tile the way TCA-BME does: bitmap + packed values.
    fn encode_bt(tile: &DenseMatrix) -> (u64, Vec<Half>) {
        assert_eq!((tile.rows(), tile.cols()), (8, 8));
        let mut bm = 0u64;
        let mut vals = Vec::new();
        for bit in 0..64 {
            let v = tile.get(bit / 8, bit % 8);
            if !v.is_zero() {
                bm |= 1u64 << bit;
                vals.push(v);
            }
        }
        (bm, vals)
    }

    #[test]
    fn decode_reconstructs_quadrant() {
        for &s in &[0.0, 0.4, 0.6, 0.9] {
            let tile = random_sparse(8, 8, s, ValueDist::Uniform, 77);
            let (bm, vals) = encode_bt(&tile);
            let mut c = Counters::new();
            let regs = decode_bitmap_tile(&mut c, bm, &vals, 0, 0);
            for lane in 0..32 {
                let (r, col) = lane_quadrant_coords(lane);
                let (lo, hi) = gpu_sim::fp16::unpack_f16x2(regs[lane]);
                assert_eq!(lo, tile.get(r, col), "lane {lane} a0 sparsity {s}");
                assert_eq!(hi, tile.get(r, col + 1), "lane {lane} a1 sparsity {s}");
            }
        }
    }

    #[test]
    fn decode_with_base_offset() {
        let tile = random_sparse(8, 8, 0.5, ValueDist::Uniform, 78);
        let (bm, vals) = encode_bt(&tile);
        // Prepend 5 unrelated values; decode with base = 5.
        let mut buf = vec![Half::from_f32(9.0); 5];
        buf.extend_from_slice(&vals);
        let mut c = Counters::new();
        let regs = decode_bitmap_tile(&mut c, bm, &buf, 5, 0);
        let direct = decode_bitmap_tile(&mut Counters::new(), bm, &vals, 0, 0);
        assert_eq!(regs, direct);
    }

    #[test]
    fn decode_tctile_matches_frag_a_layout() {
        // Build a 16×16 tile, encode its four quadrants in TL,BL,TR,BR
        // order, decode, and compare against FragA::from_tile.
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 79);
        let mut bitmaps = [0u64; 4];
        let mut values = Vec::new();
        for (q, (dr, dc)) in [(0, 0), (8, 0), (0, 8), (8, 8)].iter().enumerate() {
            let mut sub = DenseMatrix::zeros(8, 8);
            for r in 0..8 {
                for c in 0..8 {
                    sub.set(r, c, tile.get(r + dr, c + dc));
                }
            }
            let (bm, vals) = encode_bt(&sub);
            bitmaps[q] = bm;
            values.extend(vals);
        }
        let mut c = Counters::new();
        let (frag, consumed) = decode_tctile(&mut c, &bitmaps, &values, 0, 0);
        assert_eq!(consumed, values.len());
        let expected = FragA::from_tile(|r, col| tile.get(r, col));
        assert_eq!(frag, expected);
    }

    #[test]
    fn dense_tile_consumes_64_values() {
        let tile = random_sparse(8, 8, 0.0, ValueDist::Uniform, 80);
        let (bm, vals) = encode_bt(&tile);
        assert_eq!(vals.len(), 64);
        assert_eq!(popc64(bm), 64);
    }

    #[test]
    fn empty_tile_decodes_to_zero_with_minimal_cost() {
        let mut c = Counters::new();
        let regs = decode_bitmap_tile(&mut c, 0, &[], 0, 0);
        assert!(regs.iter().all(|&r| r == 0));
        // Only the bitmap broadcast (two half-warp phases) touches shared
        // memory.
        assert_eq!(c.smem_load_transactions, 2);
        assert_eq!(c.smem_bank_conflicts, 0);
    }

    #[test]
    fn functional_costs_match_analytic_model() {
        let tile = random_sparse(8, 8, 0.5, ValueDist::Uniform, 81);
        let (bm, vals) = encode_bt(&tile);
        let mut c = Counters::new();
        decode_bitmap_tile(&mut c, bm, &vals, 0, 0);
        let model = bt_decode_cost(true);
        assert_eq!(c.cuda_int_insts, model.int_insts);
        assert_eq!(
            c.smem_load_transactions, model.smem_transactions,
            "value gathers must be conflict-free wavefronts"
        );
        let empty_model = bt_decode_cost(false);
        let mut c2 = Counters::new();
        decode_bitmap_tile(&mut c2, 0, &[], 0, 0);
        assert_eq!(c2.smem_load_transactions, empty_model.smem_transactions);
    }

    #[test]
    fn checked_decode_matches_golden_with_no_injector() {
        let tile = random_sparse(8, 8, 0.5, ValueDist::Uniform, 83);
        let (bm, vals) = encode_bt(&tile);
        let mut cg = Counters::new();
        let golden = decode_bitmap_tile(&mut cg, bm, &vals, 0, 128);
        let mut cc = Counters::new();
        let checked = decode_bitmap_tile_f(&mut cc, bm, &vals, 0, 128, None, 9).expect("in bounds");
        assert_eq!(golden, checked);
        assert_eq!(cg, cc, "checked path must not perturb the counter stream");
    }

    #[test]
    fn checked_decode_reports_overrun_instead_of_panicking() {
        let tile = random_sparse(8, 8, 0.3, ValueDist::Uniform, 84);
        let (bm, vals) = encode_bt(&tile);
        assert!(!vals.is_empty());
        // Inflate the bitmap population past the value buffer — the
        // flipped-bit failure mode the unchecked path dies on.
        let corrupt = bm | (1u64 << 63) | (1u64 << 62) | 1;
        let pop = popc64(corrupt) as usize;
        if pop > vals.len() {
            let err = decode_bitmap_tile_f(&mut Counters::new(), corrupt, &vals, 0, 0, None, 0)
                .unwrap_err();
            assert_eq!(
                err,
                DecodeFault::Overrun {
                    needed: pop,
                    available: vals.len()
                }
            );
        }
        // Same corruption through the TCTile wrapper.
        let bitmaps = [corrupt, 0, 0, 0];
        assert!(matches!(
            rows_f(&mut Counters::new(), &bitmaps, &vals, 0, 0, None, 0),
            Err(DecodeFault::Overrun { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "corrupted bitmap")]
    fn unchecked_decode_panics_on_overrun_with_named_invariant() {
        decode_bitmap_tile(&mut Counters::new(), u64::MAX, &[Half::ONE; 3], 0, 0);
    }

    #[test]
    fn poison_injection_is_caught_by_finiteness_scan() {
        use gpu_sim::fault::{FaultInjector, FaultPlan};
        let tile = random_sparse(16, 16, 0.4, ValueDist::Uniform, 85);
        let mut bitmaps = [0u64; 4];
        let mut values = Vec::new();
        for (q, (dr, dc)) in [(0, 0), (8, 0), (0, 8), (8, 8)].iter().enumerate() {
            let mut sub = DenseMatrix::zeros(8, 8);
            for r in 0..8 {
                for c in 0..8 {
                    sub.set(r, c, tile.get(r + dr, c + dc));
                }
            }
            let (bm, vals) = encode_bt(&sub);
            bitmaps[q] = bm;
            values.extend(vals);
        }
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
    fn set_bit_sweep_matches_scalar_oracle() {
        // The sweep decode must reproduce the retained per-lane oracle
        // bitwise — registers and counters — across sparsity levels
        // including empty and dense tiles (proptest widens this in
        // tests/simd_equiv.rs).
        for (i, &s) in [1.0, 0.9, 0.6, 0.3, 0.0].iter().enumerate() {
            let tile = random_sparse(8, 8, s, ValueDist::Uniform, 86 + i as u64);
            let (bm, vals) = encode_bt(&tile);
            let mut c_sweep = Counters::new();
            let sweep =
                decode_bitmap_tile_f(&mut c_sweep, bm, &vals, 0, 64, None, 5).expect("in bounds");
            let mut c_oracle = Counters::new();
            let oracle = decode_bitmap_tile_scalar(&mut c_oracle, bm, &vals, 0, 64, None, 5)
                .expect("in bounds");
            assert_eq!(sweep, oracle, "sparsity {s}");
            assert_eq!(c_sweep, c_oracle, "sparsity {s}: counter stream drifted");
        }
    }

    #[test]
    fn value_gathers_are_conflict_free() {
        // 64 consecutive 2-byte values span 128 B: one wavefront per
        // phase, zero replays — the property Figure 12 credits SpInfer
        // with versus Flash-LLM's scatter.
        let tile = random_sparse(8, 8, 0.0, ValueDist::Uniform, 82);
        let (bm, vals) = encode_bt(&tile);
        let mut c = Counters::new();
        decode_bitmap_tile(&mut c, bm, &vals, 0, 256);
        assert_eq!(c.smem_bank_conflicts, 0);
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
        use gpu_sim::fault::{FaultInjector, FaultPlan};
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

    /// The per-lane decode the row expand replaced, kept as its
    /// reference: a set-bit sweep that fills each lane's `a0` (even bit
    /// `2l`) and `a1` (odd bit `2l + 1`) slots and active-lane lists,
    /// bounds each phase's gather span by its first and last value
    /// index, and poisons the `sel`-th active lane.
    #[allow(clippy::too_many_arguments)]
    fn per_lane_halves<P: Payload>(
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
        warp_smem_broadcast_load(counters, 8);
        let mut halves = [[P::ZERO; 32]; 2];
        let mut lanes = [[0usize; 32]; 2];
        let mut active = [0usize; 2];
        let mut span = [(0usize, 0usize); 2];
        let mut bm = bitmap;
        let mut rank = 0usize;
        while bm != 0 {
            let pos = bm.trailing_zeros() as usize;
            let (phase, lane, idx) = (pos & 1, pos >> 1, base + rank);
            halves[phase][lane] = values[idx];
            if active[phase] == 0 {
                span[phase].0 = idx;
            }
            span[phase].1 = idx;
            lanes[phase][active[phase]] = lane;
            active[phase] += 1;
            rank += 1;
            bm &= bm - 1;
        }
        let elem = P::BYTES as u64;
        for (phase, insts, salt) in [
            (0, INT_INSTS_PHASE1 + INT_INSTS_BASE, 0x5048_3141),
            (1, INT_INSTS_PHASE2, 0x5048_3242),
        ] {
            counters.cuda_int_insts += insts;
            counters.insts_issued += insts;
            if active[phase] == 0 {
                continue;
            }
            let (lo, hi) = span[phase];
            let first = (values_smem_base + lo as u64 * elem) / BANK_WORD;
            let last = (values_smem_base + hi as u64 * elem + (elem - 1)) / BANK_WORD;
            if let Some((sel, poison)) = warp_smem_gather_load_f(
                counters,
                last - first,
                active[phase] as u32,
                fault,
                site_key ^ salt,
            ) {
                halves[phase][lanes[phase][sel]] = P::from_poison(poison);
            }
        }
        Ok((halves[0], halves[1]))
    }

    /// [`per_lane_halves`] over a TCTile, each lane's halves widened and
    /// scattered to their fragment coordinates.
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
            let (a0, a1) = per_lane_halves(
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

    /// Runs the row expand and the per-lane reference on the same
    /// inputs, golden and under an always-firing poison injector, and
    /// requires identical rows (compared through `bits`), consumed
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
            base in 1usize..48,
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

            // FP16 also matches the register form unpacked to rows.
            let inj = FaultInjector::new(FaultPlan {
                fp16_poison_rate: 1.0,
                ..FaultPlan::default()
            });
            for fault in [None, Some(&inj)] {
                let mut c_rows = Counters::new();
                let mut c_frag = Counters::new();
                let rows = rows_f::<Half>(
                    &mut c_rows, &bitmaps, &halves, base, smem_base, fault, site_key,
                )
                .map(|(r, used)| (r.map(|row| row.map(f32::to_bits)), used));
                let frag = decode_tctile_f(
                    &mut c_frag, &bitmaps, &halves, base, smem_base, fault, site_key,
                )
                .map(|(f, used)| (f.to_f32_rows().map(|row| row.map(f32::to_bits)), used));
                prop_assert_eq!(rows, frag);
                prop_assert_eq!(c_rows, c_frag);
            }
        }
    }
}
