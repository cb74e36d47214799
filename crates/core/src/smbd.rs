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
use gpu_sim::tensor_core::{lane_quadrant_coords, FragA, QUAD_ORIGINS};

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

/// Fault-aware, non-panicking [`decode_bitmap_tile`]: the single decode
/// implementation. With `fault = None` the counter stream and registers
/// are exactly the golden path's; a bitmap whose population overruns
/// `values` returns [`DecodeFault::Overrun`] instead of panicking. When
/// an injector is supplied, each value gather may have one lane's
/// loaded FP16 poisoned (keyed by `site_key`, which the caller derives
/// from the GroupTile/TCTile coordinates — shared-memory addresses
/// repeat across tiles and cannot serve as keys).
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
    let (a0, a1) = decode_bitmap_tile_halves_f(
        counters,
        bitmap,
        values,
        base,
        values_smem_base,
        fault,
        site_key,
    )?;
    let mut regs = [0u32; 32];
    for lane in 0..32 {
        regs[lane] = pack_f16x2(a0[lane], a1[lane]);
    }
    Ok(regs)
}

/// The single decode implementation, returning the per-lane `(a0, a1)`
/// halves before any register packing — so callers that want `f32` rows
/// skip the pack/unpack round-trip entirely. Generic over the value
/// payload: the bitmap walk, rank arithmetic, lane lists, and counter
/// writes never depend on the element type — only the gather word spans
/// (scaled by [`Payload::BYTES`]), the zero fill, and the poison
/// projection do. For `P = Half` every expression reduces to the
/// pre-generic FP16 implementation (`lo * 2` / `hi * 2 + 1` spans), so
/// the FP16 counter stream and registers are bit-unchanged.
///
/// The inner loop is a *set-bit sweep*: iterate the bitmap's set bits in
/// ascending position with a running rank instead of testing all 64 bit
/// positions per tile. The rank of bit `2l` equals
/// `masked_popc64(bitmap, 2l)` and the rank of bit `2l + 1` equals the
/// Phase I count plus the `a0` advance, so every value index, gather
/// address, and active-lane list is identical to the branchy per-lane
/// formulation ([`decode_bitmap_tile_scalar`] retains it; the proptest
/// suite pins them equal). Counter writes — broadcast, per-phase integer
/// instructions, gated gathers — are byte-for-byte the original
/// sequence; the broadcast and gathers go through the span-based
/// shared-memory entry points, which are themselves pinned equal to the
/// address-array forms, so no per-lane address arrays are built on this
/// path. Each phase's gather addresses ascend with the sweep, so its
/// word span is fully determined by the first and last active value
/// index.
#[allow(clippy::too_many_arguments)]
fn decode_bitmap_tile_halves_f<P: Payload>(
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
    warp_smem_broadcast_load(counters, 8);

    // One sweep over the set bits resolves both phases: even bits are
    // Phase I (`a0`, lane = pos/2), odd bits Phase II (`a1`). Bits come
    // out in ascending position, so each phase's active-lane list is
    // built in the same ascending-lane order the per-lane loops produce
    // and its first/last value index bound the gather's word span.
    let mut a0 = [P::ZERO; 32];
    let mut a1 = [P::ZERO; 32];
    let mut phase1_lanes = [0usize; 32];
    let mut phase1_active = 0usize;
    let (mut p1_lo, mut p1_hi) = (0usize, 0usize);
    let mut phase2_lanes = [0usize; 32];
    let mut phase2_active = 0usize;
    let (mut p2_lo, mut p2_hi) = (0usize, 0usize);
    let mut bm = bitmap;
    let mut rank = 0usize;
    while bm != 0 {
        let pos = bm.trailing_zeros() as usize;
        let lane = pos >> 1;
        let idx = base + rank;
        if pos & 1 == 0 {
            a0[lane] = values[idx];
            if phase1_active == 0 {
                p1_lo = idx;
            }
            p1_hi = idx;
            phase1_lanes[phase1_active] = lane;
            phase1_active += 1;
        } else {
            a1[lane] = values[idx];
            if phase2_active == 0 {
                p2_lo = idx;
            }
            p2_hi = idx;
            phase2_lanes[phase2_active] = lane;
            phase2_active += 1;
        }
        rank += 1;
        bm &= bm - 1;
    }

    // Word span of a phase's `P::BYTES`-wide gather: first word of the
    // lowest address to last word of the highest — the same bounds
    // `analyze_warp_access` derives from the full address array.
    let elem = P::BYTES as u64;
    let word_span = |lo: usize, hi: usize| {
        let first = (values_smem_base + lo as u64 * elem) / BANK_WORD;
        let last = (values_smem_base + hi as u64 * elem + (elem - 1)) / BANK_WORD;
        last - first
    };

    counters.cuda_int_insts += INT_INSTS_PHASE1 + INT_INSTS_BASE;
    counters.insts_issued += INT_INSTS_PHASE1 + INT_INSTS_BASE;
    if phase1_active > 0 {
        if let Some((sel, poison)) = warp_smem_gather_load_f(
            counters,
            word_span(p1_lo, p1_hi),
            phase1_active as u32,
            fault,
            site_key ^ 0x5048_3141,
        ) {
            a0[phase1_lanes[sel]] = P::from_poison(poison);
        }
    }

    counters.cuda_int_insts += INT_INSTS_PHASE2;
    counters.insts_issued += INT_INSTS_PHASE2;
    if phase2_active > 0 {
        if let Some((sel, poison)) = warp_smem_gather_load_f(
            counters,
            word_span(p2_lo, p2_hi),
            phase2_active as u32,
            fault,
            site_key ^ 0x5048_3242,
        ) {
            a1[phase2_lanes[sel]] = P::from_poison(poison);
        }
    }

    Ok((a0, a1))
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
/// the same decode, followed by one unpack of the 64 registers.
pub fn decode_tctile_f32(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
    values_smem_base: u64,
) -> ([[f32; 16]; 16], usize) {
    decode_tctile_rows::<Half>(counters, bitmaps, values, base, values_smem_base)
}

/// Golden (fault-free, panicking) [`decode_tctile_rows_f`].
pub(crate) fn decode_tctile_rows<P: Datapath>(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    values_smem_base: u64,
) -> (TcRows<P>, usize) {
    decode_tctile_rows_f(counters, bitmaps, values, base, values_smem_base, None, 0).expect(
        "SMBD TCTile decode overran the GroupTile value buffer — bitmap \
         population exceeds the encoded value span (corrupted bitmap?)",
    )
}

/// Decodes a TCTile's four quadrants straight into `mma` operand rows of
/// any payload precision, skipping the register pack/unpack round-trip
/// of the fragment path: each quadrant's `(a0, a1)` halves are widened
/// in one batch ([`Datapath::widen_lanes`] — the FP16 LUT sweep
/// [`gpu_sim::fp16::f16_to_f32_slice`], or `i8 → i32`) and scattered to
/// their row coordinates. For FP16, packing to a register and unpacking
/// via the same LUT is lossless and absent lanes hold `Half::ZERO`
/// (→ `+0.0`), so the rows are bit-identical to
/// `decode_tctile_f(..).to_f32_rows()` — with the exact same counter
/// and fault-site stream; the INT8 instantiation shares the bitmap
/// walk and counter writes, with gather spans at the 1-byte width.
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
) -> Result<(TcRows<P>, usize), DecodeFault> {
    let mut rows = [[P::Operand::default(); 16]; 16];
    let mut offset = base;
    for (reg, &bm) in bitmaps.iter().enumerate() {
        let (a0, a1) = decode_bitmap_tile_halves_f(
            counters,
            bm,
            values,
            offset,
            values_smem_base,
            fault,
            site_key.wrapping_add((reg as u64 + 1) << 48),
        )?;
        let mut f0 = [P::Operand::default(); 32];
        let mut f1 = [P::Operand::default(); 32];
        P::widen_lanes(&a0, &mut f0);
        P::widen_lanes(&a1, &mut f1);
        let (dr, dc) = QUAD_ORIGINS[reg];
        for lane in 0..32 {
            let (qr, qc) = lane_quadrant_coords(lane);
            rows[qr + dr][qc + dc] = f0[lane];
            rows[qr + dr][qc + dc + 1] = f1[lane];
        }
        offset += popc64(bm) as usize;
    }
    Ok((rows, offset - base))
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
    use gpu_sim::matrix::{random_sparse, DenseMatrix, ValueDist};
    use gpu_sim::tensor_core::lane_quadrant_coords;

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
            decode_tctile_rows_f(&mut Counters::new(), &bitmaps, &vals, 0, 0, None, 0),
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
        let (poisoned, _) =
            decode_tctile_rows_f(&mut Counters::new(), &bitmaps, &values, 0, 0, Some(&inj), 7)
                .expect("poison is not an overrun");
        assert_eq!(Half::scan(&poisoned), Err(DecodeFault::NonFinite));
        // And with rates at zero the same call returns the golden rows.
        let clean = FaultInjector::new(FaultPlan::default());
        let (rows, consumed) = decode_tctile_rows_f(
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
        let (rows, consumed) = decode_tctile_rows::<i8>(&mut c, &bitmaps, &codes, 0, 0);
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
        decode_tctile_rows::<i8>(&mut ci, &bitmaps, &codes, 0, 0);
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
            decode_tctile_rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0, None, 0),
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
        let (rows, _) =
            decode_tctile_rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0, Some(&inj), 3)
                .expect("poison is not an overrun");
        let (clean, _) = decode_tctile_rows::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, 0);
        assert_ne!(rows, clean, "an always-on injector must perturb codes");
    }
}
