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
//! rows (the "decode into the operand tile" shape). The decode is
//! generic over the capability ([`Isa`]) and always inlined: it never
//! enters [`Simd::vectorize`] itself, but compiles into the region of
//! its entry point, the SpMM block or the standalone
//! [`decode_tctile_f32`]/[`decode_tctile_s8`]. On [`Simd`] a quadrant
//! row expands in one step: one body for both payloads loads the row's
//! packed values, and the payload's `Datapath::expand_row` hook
//! `pshufb`s them to their set-bit columns and widens all eight into the
//! operand row, with `vcvtph2ps` (FP16 halves) or `vpmovsxbd` (INT8
//! codes). Bounds are checked once per TCTile: with eight values to
//! spare past its population every row loads unchecked, else each
//! quadrant is checked and a short row loads from a zeroed copy. On
//! [`Portable`] one sweep over the set bits per BitmapTile writes each
//! value. The unit tests pin each expansion to the sweep, and the
//! dispatched one to Algorithm 2 as written, lane by lane, and to the
//! `Ra0..Ra3` register layout.
//!
//! The expansion records nothing. The decode's instruction and
//! shared-memory costs follow from the bitmaps alone, so they are
//! recorded in closed form (`record_decodes`), per GroupTile by the
//! SpMM block or per attempt by its checked decode, from the one
//! per-BitmapTile cost the analytic estimator (used at paper-scale
//! shapes) also reads: [`bt_decode_cost`].

use crate::spmm::{Datapath, TcRows, REG_DECODE_EXTRA_INT, REG_DECODE_SHFL};
use gpu_sim::bitops::popc64;
use gpu_sim::counters::Counters;
use gpu_sim::cpu::{Isa, Portable, Simd};
use gpu_sim::fault::FaultInjector;
use gpu_sim::fp16::Half;
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

/// Writes one quadrant, origin `origin`, of `rows` from its bitmap and
/// packed values (`vals` starts at the quadrant's first value and holds
/// at least its population): every element, absent ones as the
/// operand's zero. The `pshufb` row expansion on [`Simd`], the set-bit
/// walk on [`Portable`]; both write the same bits.
#[inline(always)]
fn expand_quadrant<P: Datapath, C: Isa, const PADDED: bool>(
    cap: C,
    bitmap: u64,
    vals: &[P],
    rows: &mut TcRows<P>,
    origin: (usize, usize),
) {
    match cap.simd() {
        // SAFETY: the token proves the features; `expand_tctile` sets `PADDED`.
        #[cfg(target_arch = "x86_64")]
        Some(_) => unsafe { expand_quadrant_simd::<P, PADDED>(bitmap, vals, rows, origin) },
        _ => walk_quadrant(bitmap, vals, rows, origin),
    }
}

/// `pshufb` controls for one 8-bit quadrant row of `B`-byte values
/// (`N = 8 B` bytes), indexed by the row's bitmap byte: the row's `r`-th
/// set bit at column `c` takes packed value `r` (bytes `B r .. B r + B`)
/// into bytes `B c .. B c + B`; clear columns read `0x80`, which zeroes
/// their bytes, so they widen to the operand's zero.
#[cfg(target_arch = "x86_64")]
pub(crate) const fn row_shuffle<const B: usize, const N: usize>() -> [[u8; N]; 256] {
    let mut table = [[0x80u8; N]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut rank = 0;
        let mut col = 0;
        while col < 8 {
            if (byte >> col) & 1 == 1 {
                let mut i = 0;
                while i < B {
                    table[byte][B * col + i] = (B * rank + i) as u8;
                    i += 1;
                }
                rank += 1;
            }
            col += 1;
        }
        byte += 1;
    }
    table
}

/// Expands one quadrant into its eight operand rows, one quadrant row
/// per step: the eight packed values at the running offset go through
/// [`Datapath::expand_row`], which moves them to the row's set-bit
/// columns and widens all eight over the row's eight columns. The clear
/// columns are written as the operand's zero, so nothing needs clearing
/// first. `vals` starts at the quadrant's first value and must hold its
/// population. With `PADDED` it holds eight more, so every row loads
/// unchecked; otherwise its last rows may hold fewer than eight values:
/// those load from a zeroed copy.
///
/// # Safety
///
/// The host has the [`Simd`] features; with `PADDED`,
/// `vals.len() >= popc64(bitmap) + 8`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn expand_quadrant_simd<P: Datapath, const PADDED: bool>(
    bitmap: u64,
    vals: &[P],
    rows: &mut TcRows<P>,
    (dr, dc): (usize, usize),
) {
    let mut off = 0;
    for (r, row) in rows[dr..dr + 8].iter_mut().enumerate() {
        let byte = (bitmap >> (8 * r)) as u8;
        let tail: [P; 8];
        let packed = if PADDED {
            debug_assert!(off + 8 <= vals.len(), "row load past the values");
            // SAFETY: `off` is at most the quadrant's population, and
            // the caller leaves eight values past it.
            &*vals.as_ptr().add(off).cast::<[P; 8]>()
        } else {
            match vals[off..].first_chunk() {
                Some(win) => win,
                None => {
                    // Eight fixed steps: `copy_from_slice` calls `memcpy`.
                    tail = std::array::from_fn(|i| vals.get(off + i).copied().unwrap_or(P::ZERO));
                    &tail
                }
            }
        };
        let dst = row[dc..]
            .first_chunk_mut()
            .expect("quadrant inside the tile");
        P::expand_row(packed, byte, dst);
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

/// Expands a TCTile's four BitmapTiles into the quadrants of `rows`,
/// returning the number of values consumed. The single SMBD decode
/// body: every decode — golden, checked and injected, FP16 and INT8 —
/// runs through here. It records nothing; see [`record_decodes`].
///
/// Bounds are checked once per TCTile: with eight values to spare past
/// its population (in the block, every TCTile but a GroupTile's last),
/// no quadrant or row load can overrun and none is checked. Otherwise
/// each BitmapTile's population is checked against `values` before
/// anything of it is written. The first that overruns stops the decode
/// and is returned with its register index: the BitmapTiles before it
/// are decoded, it and those after it are not.
#[inline(always)]
fn expand_tctile<P: Datapath, C: Isa>(
    cap: C,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    rows: &mut TcRows<P>,
) -> Result<usize, (usize, DecodeFault)> {
    let pop: usize = bitmaps.iter().map(|&bm| popc64(bm) as usize).sum();
    if base + pop + 8 <= values.len() {
        expand_quadrants::<P, C, true>(cap, bitmaps, values, base, rows)
    } else {
        expand_quadrants::<P, C, false>(cap, bitmaps, values, base, rows)
    }
}

/// [`expand_tctile`]'s quadrant loop, unchecked with `PADDED`.
#[inline(always)]
fn expand_quadrants<P: Datapath, C: Isa, const PADDED: bool>(
    cap: C,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    rows: &mut TcRows<P>,
) -> Result<usize, (usize, DecodeFault)> {
    let mut offset = base;
    for (reg, &bm) in bitmaps.iter().enumerate() {
        // `QUAD_ORIGINS[reg]` from the index bits, so the quadrant's
        // rows and columns are provably in bounds.
        let origin = ((reg & 1) * 8, (reg >> 1) * 8);
        debug_assert_eq!(origin, QUAD_ORIGINS[reg]);
        let need = offset + popc64(bm) as usize;
        if !PADDED && need > values.len() {
            let available = values.len();
            return Err((
                reg,
                DecodeFault::Overrun {
                    needed: need,
                    available,
                },
            ));
        }
        expand_quadrant::<P, C, PADDED>(cap, bm, &values[offset..], rows, origin);
        offset = need;
    }
    Ok(offset - base)
}

/// Decodes a full 16×16 FP16 TCTile into the row-major `f32` A operand
/// [`mma_m16n8k16_bslice_ntiles`](gpu_sim::tensor_core::mma_m16n8k16_bslice_ntiles)
/// consumes, returning the rows and the number of values consumed, and
/// records the decode (`record_decodes`). The golden (fault-free,
/// panicking) decode the SpMM block runs, as a standalone call for
/// benchmarks: it picks the expansion the block picks
/// ([`Simd::detect`]) and, with a token, runs inside
/// [`Simd::vectorize`] as the block does. An entry point.
pub fn decode_tctile_f32(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[Half],
    base: usize,
) -> ([[f32; 16]; 16], usize) {
    decode_tctile_detected(counters, bitmaps, values, base)
}

/// [`decode_tctile_f32`] for an INT8 TCTile: `i8` codes into the `i32`
/// A operand
/// [`mma_m16n8k16_s8_ntiles`](gpu_sim::tensor_core::mma_m16n8k16_s8_ntiles)
/// consumes.
pub fn decode_tctile_s8(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[i8],
    base: usize,
) -> ([[i32; 16]; 16], usize) {
    decode_tctile_detected(counters, bitmaps, values, base)
}

/// The entry of [`decode_tctile_f32`] and [`decode_tctile_s8`]:
/// [`decode_tctile_rows`] on the capability [`Simd::detect`] picks,
/// inside [`Simd::vectorize`] with a token.
fn decode_tctile_detected<P: Datapath>(
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
) -> (TcRows<P>, usize) {
    let mut rows = [[P::Operand::default(); 16]; 16];
    // A `move` closure would copy the rows array: hand it a reference.
    let out = &mut rows;
    let used = match Simd::detect() {
        Some(s) => s.vectorize(
            #[inline(always)]
            move || decode_tctile_rows(s, bitmaps, values, base, out),
        ),
        None => decode_tctile_rows(Portable, bitmaps, values, base, out),
    };
    record_decodes(counters, bitmaps, true);
    (rows, used)
}

/// Golden (fault-free, panicking) TCTile decode: the rows only, with
/// nothing recorded. The SpMM block records its GroupTile's decodes at
/// once ([`record_decodes`]).
#[inline(always)]
pub(crate) fn decode_tctile_rows<P: Datapath, C: Isa>(
    cap: C,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    rows: &mut TcRows<P>,
) -> usize {
    expand_tctile(cap, bitmaps, values, base, rows).expect(
        "SMBD TCTile decode overran the GroupTile value buffer — bitmap \
         population exceeds the encoded value span (corrupted bitmap?)",
    )
}

/// One checked decode attempt of a TCTile, straight into `mma` operand
/// rows of any payload precision, returning the number of values
/// consumed. `rows` is overwritten whole: each decoded value widened
/// ([`Datapath::widen`]) at its row and column and each absent element
/// as the operand's zero (`+0.0` for FP16). `cap` picks how rows are
/// written and changes no bit. The caller owns `rows`, so the SpMM
/// block decodes every TCTile into one buffer.
///
/// Non-panicking: a bitmap whose population overruns `values` returns
/// [`DecodeFault::Overrun`]. The attempt records the BitmapTiles it
/// decoded ([`record_decodes`], with the register decode when `smbd` is
/// off). With `fault = None` that is exactly the golden decode. When an
/// injector is supplied, each value gather — each non-empty phase mask
/// of a decoded BitmapTile — may have one lane's loaded value poisoned,
/// keyed by `site_key`, which the caller derives from the
/// GroupTile/TCTile coordinates (shared-memory addresses repeat across
/// tiles and cannot serve as keys). A poisoned gather lands on its
/// `sel`-th active lane, the `sel`-th set bit of the phase mask, over
/// what the expansion wrote there, as the payload's projection of the
/// FP16 pattern — a NaN for FP16, a plausible nonzero code for INT8
/// (which no per-value scan can catch; the D3 gap in DESIGN.md §14).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn decode_tctile_rows_f<P: Datapath, C: Isa>(
    cap: C,
    counters: &mut Counters,
    bitmaps: &[u64; 4],
    values: &[P],
    base: usize,
    smbd: bool,
    fault: Option<&FaultInjector>,
    site_key: u64,
    rows: &mut TcRows<P>,
) -> Result<usize, DecodeFault> {
    let out = expand_tctile(cap, bitmaps, values, base, rows);
    let decoded = &bitmaps[..out.map_or_else(|(reg, _)| reg, |_| 4)];
    record_decodes(counters, decoded, smbd);
    if let Some(inj) = fault {
        for (reg, &bm) in decoded.iter().enumerate() {
            let (dr, dc) = QUAD_ORIGINS[reg];
            let key = site_key.wrapping_add((reg as u64 + 1) << 48);
            for (phase_bits, salt) in [(PHASE1_BITS, 0x5048_3141), (!PHASE1_BITS, 0x5048_3242)] {
                let mask = bm & phase_bits;
                if let Some((sel, poison)) =
                    inj.poison_site(counters, key ^ salt, mask.count_ones())
                {
                    let p = nth_set_bit(mask, sel as usize);
                    rows[dr + p / 8][dc + p % 8] = P::from_poison(poison).widen();
                }
            }
        }
    }
    out.map_err(|(_, f)| f)
}

/// Analytic cost of decoding one BitmapTile: the one definition behind
/// the functional recorder (`record_decodes`) and the estimator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtDecodeCost {
    /// Warp-level integer instructions.
    pub int_insts: u64,
    /// Shared-memory load instructions.
    pub smem_loads: u64,
    /// Shared-memory transactions.
    pub smem_transactions: u64,
}

/// Per-BitmapTile decode cost, given its number of non-empty phase
/// masks (`0..=2`): a phase whose mask is empty is predicated off and
/// gathers nothing. The bitmap broadcast is an 8-byte access, two
/// half-warp phases of one wavefront each. Each value gather is one
/// conflict-free wavefront: a BitmapTile's at most 64 packed values
/// span at most 128 B from a 4-byte-aligned window, so a phase's
/// addresses touch at most 32 consecutive bank words (31 apart at the
/// widest) and no bank twice (pinned by the tests against the per-lane
/// bank analysis).
pub fn bt_decode_cost(gathers: u64) -> BtDecodeCost {
    BtDecodeCost {
        int_insts: INT_INSTS_PHASE1 + INT_INSTS_BASE + INT_INSTS_PHASE2,
        smem_loads: 1 + gathers,
        smem_transactions: 2 + gathers,
    }
}

/// Records the SMBD decode of `bitmaps` in closed form: per BitmapTile,
/// [`bt_decode_cost`] at its number of non-empty phase masks, and, with
/// `smbd` off (the ablation's register decode), the extra arithmetic and
/// warp shuffles SMBD avoids. Every issued instruction takes one issue
/// slot. Bit-identical to Algorithm 2 run lane by lane over the same
/// bitmaps (pinned by the tests), and called once per GroupTile by the
/// SpMM block and once per attempt by its checked decode.
#[inline(always)]
pub(crate) fn record_decodes(counters: &mut Counters, bitmaps: &[u64], smbd: bool) {
    let mut sum = BtDecodeCost::default();
    for &bm in bitmaps {
        let gathers = u64::from(bm & PHASE1_BITS != 0) + u64::from(bm & !PHASE1_BITS != 0);
        let cost = bt_decode_cost(gathers);
        sum.int_insts += cost.int_insts;
        sum.smem_loads += cost.smem_loads;
        sum.smem_transactions += cost.smem_transactions;
    }
    counters.cuda_int_insts += sum.int_insts;
    counters.smem_load_transactions += sum.smem_transactions;
    counters.insts_issued += sum.int_insts + sum.smem_loads;
    if !smbd {
        let tiles = bitmaps.len() as u64;
        counters.cuda_int_insts += tiles * REG_DECODE_EXTRA_INT;
        counters.shfl_insts += tiles * REG_DECODE_SHFL;
        counters.insts_issued += tiles * (REG_DECODE_EXTRA_INT + REG_DECODE_SHFL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::tca_bme::TcaBmeConfig;
    use gpu_sim::bitops::masked_popc64;
    use gpu_sim::bitops::test_bit;
    use gpu_sim::fault::FaultPlan;
    use gpu_sim::matrix::{random_sparse, DenseMatrix, ValueDist};
    use gpu_sim::shared_memory::{
        analyze_warp_access, warp_smem_load, warp_smem_load_f, SmemAccess,
    };
    use proptest::prelude::*;

    /// [`decode_tctile_rows_f`] on `cap`, returning the rows with the
    /// count.
    fn rows_with<P: Datapath, C: Isa>(
        cap: C,
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<(TcRows<P>, usize), DecodeFault> {
        // Prefilled with a nonzero operand: the decode must clear what it
        // does not write.
        let mut rows = [[P::from_poison(Half::from_bits(0x3C01)).widen(); 16]; 16];
        decode_tctile_rows_f(
            cap, counters, bitmaps, values, base, true, fault, site_key, &mut rows,
        )
        .map(|used| (rows, used))
    }

    /// [`rows_with`] on the capability the SpMM block picks on this host.
    fn rows_f<P: Datapath>(
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        fault: Option<&FaultInjector>,
        site_key: u64,
    ) -> Result<(TcRows<P>, usize), DecodeFault> {
        match Simd::detect() {
            Some(simd) => rows_with(simd, counters, bitmaps, values, base, fault, site_key),
            None => rows_with(Portable, counters, bitmaps, values, base, fault, site_key),
        }
    }

    /// The golden decode with its decode recorded, returning the rows
    /// with the count.
    fn rows_golden<P: Datapath>(
        counters: &mut Counters,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
    ) -> (TcRows<P>, usize) {
        rows_f(counters, bitmaps, values, base, None, 0).expect("in bounds")
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
            let (rows, consumed) = decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0);
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
        let shifted = decode_tctile_f32(&mut Counters::new(), &bitmaps, &buf, 5);
        let direct = decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0);
        assert_eq!(shifted, direct);
    }

    #[test]
    fn empty_tile_decodes_to_zero_with_minimal_cost() {
        let mut c = Counters::new();
        let (rows, consumed) = decode_tctile_f32(&mut c, &[0; 4], &[], 0);
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
        decode_tctile_f32(&mut c, &[bitmaps[0], 0, 0, 0], &values, 0);
        let (full, empty) = (bt_decode_cost(2), bt_decode_cost(0));
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
        let used = decode_tctile_rows(Portable, &bitmaps, &values, 0, &mut golden);
        record_decodes(&mut cg, &bitmaps, true);
        let mut cc = Counters::new();
        let checked = rows_f::<Half>(&mut cc, &bitmaps, &values, 0, None, 9).expect("in bounds");
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
        let (poisoned, _) = rows_f(&mut Counters::new(), &bitmaps, &values, 0, Some(&inj), 7)
            .expect("poison is not an overrun");
        assert_eq!(Half::scan(&poisoned), Err(DecodeFault::NonFinite));
        // And with rates at zero the same call returns the golden rows.
        let clean = FaultInjector::new(FaultPlan::default());
        let (rows, consumed) =
            rows_f(&mut Counters::new(), &bitmaps, &values, 0, Some(&clean), 7).expect("in bounds");
        assert_eq!(Half::scan(&rows), Ok(()), "zero rates never poison");
        let (golden_rows, golden_consumed) =
            decode_tctile_f32(&mut Counters::new(), &bitmaps, &values, 0);
        assert_eq!(rows, golden_rows);
        assert_eq!(consumed, golden_consumed);
    }

    /// A BitmapTile of `family`: random, all ones, random Phase I (even)
    /// bits only, random Phase II (odd) bits only, or a single bit.
    fn family_bitmap(family: u8, r: u64) -> u64 {
        match family {
            0 => r,
            1 => u64::MAX,
            2 => r & PHASE1_BITS,
            3 => r & !PHASE1_BITS,
            _ => 1 << (r % 64),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The property [`bt_decode_cost`] assumes, against the per-lane
        /// bank analysis: every non-empty phase gather is one transaction
        /// with no conflict — what Figure 12 credits SpInfer with against
        /// Flash-LLM's scatter. Over each bitmap family, every offset
        /// mod 4 of the BitmapTile's first value, the launch's
        /// value-window base and any other 4-byte-aligned one, and both
        /// payload widths (INT8 codes analysed at 2 B, as the per-lane
        /// oracle does). The widest FP16 gather spans 31 words.
        #[test]
        fn value_gathers_are_conflict_free(
            family in 0u8..5,
            r: u64,
            first4 in 0u64..64,
            smem_word in 0u64..1024,
        ) {
            let bm = family_bitmap(family, r);
            let launch = (TcaBmeConfig::default().bts_per_gt() * 8) as u64;
            for window in [launch, 4 * smem_word] {
                for first in 4 * first4..4 * first4 + 4 {
                    for bytes in [2u64, 1] {
                        for phase in 0..2u32 {
                            let mut addrs = [None; 32];
                            for (lane, slot) in (0u32..).zip(addrs.iter_mut()) {
                                let bit = 2 * lane + phase;
                                if test_bit(bm, bit) {
                                    let rank = u64::from(masked_popc64(bm, bit));
                                    *slot = Some(window + (first + rank) * bytes);
                                }
                            }
                            if addrs.iter().any(Option::is_some) {
                                let one = SmemAccess { transactions: 1, conflicts: 0 };
                                prop_assert_eq!(analyze_warp_access(&addrs, 2), one);
                            }
                        }
                    }
                }
            }
        }

        /// The closed-form recorder over a GroupTile's 64 bitmaps equals
        /// the per-lane oracle summed over its BitmapTiles, at both
        /// payload widths and any 4-byte-aligned value window.
        #[test]
        fn recorder_matches_per_lane_oracle_over_a_grouptile(
            seed: u64,
            smem_word in 0u64..1024,
        ) {
            let mut s = seed;
            let bitmaps: Vec<u64> = (0..16)
                .flat_map(|_| {
                    let shapes = next(&mut s) as u8;
                    bitmaps_from(shapes, next(&mut s))
                })
                .collect();
            let pop: usize = bitmaps.iter().map(|&b| popc64(b) as usize).sum();
            let mut recorded = Counters::new();
            record_decodes(&mut recorded, &bitmaps, true);
            let (halves, codes) = (vec![Half::ONE; pop], vec![1i8; pop]);
            let (mut via_halves, mut via_codes) = (Counters::new(), Counters::new());
            let (smem, mut base) = (4 * smem_word, 0);
            for tc in bitmaps.chunks_exact(4) {
                let tc: &[u64; 4] = tc.try_into().expect("four bitmaps");
                per_lane_rows(&mut via_halves, tc, &halves, base, smem, None, 0).expect("fits");
                per_lane_rows(&mut via_codes, tc, &codes, base, smem, None, 0).expect("fits");
                base += tc.iter().map(|&b| popc64(b) as usize).sum::<usize>();
            }
            prop_assert_eq!(&recorded, &via_halves);
            prop_assert_eq!(&recorded, &via_codes);
        }
    }

    #[test]
    fn i8_decode_reconstructs_tile_codes() {
        // Quantize a tile to codes, decode through the shared sweep, and
        // check every cell lands at its coordinate as a widened i32.
        let tile = random_sparse(16, 16, 0.5, ValueDist::Uniform, 90);
        let (bitmaps, codes) = encode_tctile_with(&tile, |v| (v.to_f32() * 100.0).round() as i8);
        let mut c = Counters::new();
        let (rows, consumed) = rows_golden::<i8>(&mut c, &bitmaps, &codes, 0);
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
        decode_tctile_f32(&mut cf, &bitmaps, &vals, 0);
        let mut ci = Counters::new();
        rows_golden::<i8>(&mut ci, &bitmaps, &codes, 0);
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
            rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, None, 0),
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
        let (rows, _) = rows_f::<i8>(&mut Counters::new(), &bitmaps, &codes, 0, Some(&inj), 3)
            .expect("poison is not an overrun");
        let (clean, _) = rows_golden::<i8>(&mut Counters::new(), &bitmaps, &codes, 0);
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
            let new = rows_f::<P>(&mut c_new, bitmaps, values, base, fault, site_key);
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
            smem_word in 0u64..1024,
            site_key: u64,
            short_by in prop::sample::select(vec![0usize, 0, 0, 1, 5]),
        ) {
            // The value window starts at any 4-byte-aligned address (the
            // launch geometry asserts the alignment), so gathers start at
            // any bank and their spans wrap the 32-bank cycle; `short_by`
            // truncates the value buffer into an overrun on some cases.
            let smem_base = 4 * smem_word;
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

    /// One decode on `cap`, rows compared through `bits`, and its
    /// counters.
    #[allow(clippy::too_many_arguments)]
    fn row_bits<P: Datapath, C: Isa>(
        cap: C,
        bitmaps: &[u64; 4],
        values: &[P],
        base: usize,
        fault: Option<&FaultInjector>,
        site_key: u64,
        bits: impl Fn(P::Operand) -> u32,
    ) -> (RowBits, Counters) {
        let mut c = Counters::new();
        let r = rows_with(cap, &mut c, bitmaps, values, base, fault, site_key)
            .map(|(rows, used)| (rows.map(|row| row.map(&bits)), used));
        (r, c)
    }

    /// Pins the portable set-bit walk, the only expansion hosts without
    /// the [`Simd`] features run, to the `pshufb` expansion `simd` picks
    /// for payload `P`: every row byte (each repeated over all rows and
    /// quadrants), empty, full, single-bit and random bitmaps in every
    /// quadrant mix, every base mod 8, value slices that end exactly at
    /// the tile's population (the short-tail loads) or run on past it,
    /// seven past it (the last length on the checked path) and eight (the
    /// first on the unchecked fast path), and one short (an overrun both
    /// must report), golden and under an always-firing injector (the
    /// poison must land after the expansion). `draw` makes values; rows
    /// are compared as `bits`, with the consumed count, overruns and full
    /// counters.
    fn assert_walk_matches_expansion<P: Datapath>(
        simd: Simd,
        seed: u64,
        draw: impl Fn(u64) -> P,
        bits: impl Fn(P::Operand) -> u32 + Copy,
    ) {
        let inj = FaultInjector::new(FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        });
        let mut s = seed;
        let mut cases: Vec<[u64; 4]> = (0..=u8::MAX)
            .map(|byte| [u64::from(byte) * 0x0101_0101_0101_0101; 4])
            .collect();
        cases.extend((0..=u8::MAX).map(|shapes| bitmaps_from(shapes, next(&mut s))));
        for bitmaps in cases {
            let pop: usize = bitmaps.iter().map(|&b| popc64(b) as usize).sum();
            for base in 0..16 {
                for len in [
                    base + pop,
                    base + pop + 3,
                    base + pop + 7,
                    base + pop + 8,
                    base + pop + 9,
                    (base + pop).saturating_sub(1),
                ] {
                    let values: Vec<P> = (0..len).map(|_| draw(next(&mut s))).collect();
                    for fault in [None, Some(&inj)] {
                        let key = next(&mut s);
                        let walk = row_bits(Portable, &bitmaps, &values, base, fault, key, bits);
                        let rows = row_bits(simd, &bitmaps, &values, base, fault, key, bits);
                        assert_eq!(walk, rows, "bitmaps {bitmaps:x?} base {base} len {len}");
                    }
                }
            }
        }
    }

    /// The FP16 arm of [`assert_walk_matches_expansion`]: the F16C
    /// expansion, values any f16 pattern, NaNs included.
    #[test]
    fn portable_walk_matches_f16c_expansion() {
        let Some(simd) = Simd::detect() else {
            eprintln!("skipped: the host lacks the SIMD features");
            return;
        };
        let draw = |r: u64| Half::from_bits(r as u16);
        assert_walk_matches_expansion::<Half>(simd, 0x5EED_F16C, draw, f32::to_bits);
    }

    /// The INT8 arm of [`assert_walk_matches_expansion`]: the `pshufb` +
    /// `vpmovsxbd` code expansion, values any `i8` code, −128 and ±127
    /// included.
    #[test]
    fn portable_walk_matches_s8_expansion() {
        let Some(simd) = Simd::detect() else {
            eprintln!("skipped: the host lacks the SIMD features");
            return;
        };
        assert_walk_matches_expansion::<i8>(simd, 0x5EED_0058, |r| r as i8, |v| v as u32);
    }
}
