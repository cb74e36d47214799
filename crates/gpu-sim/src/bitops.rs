//! Device bit-manipulation intrinsics.
//!
//! The SMBD decoder (paper §4.3.3, Algorithm 2) is built on two primitives:
//! `__popcll` (64-bit population count) and a *masked* popcount that counts
//! set bits strictly below a lane-dependent offset. These are one-cycle-class
//! integer ops on CUDA cores; the simulator mirrors them here so kernels and
//! the instruction-counting layer share one definition.

/// 64-bit population count — the CUDA `__popcll` intrinsic.
#[inline]
pub fn popc64(bitmap: u64) -> u32 {
    bitmap.count_ones()
}

/// Counts set bits of `bitmap` strictly below bit position `offset`.
///
/// This is the paper's `MaskedPopCount` (Algorithm 2) with the mask
/// `(1 << offset) - 1` generated from the caller-provided offset. For
/// SMBD Phase I the offset is `2 * lane_id`, so the count equals the
/// number of non-zero values stored before this thread's `a0` slot.
///
/// `offset == 64` is allowed and counts the entire bitmap.
#[inline]
pub fn masked_popc64(bitmap: u64, offset: u32) -> u32 {
    debug_assert!(offset <= 64, "offset {offset} out of range");
    if offset >= 64 {
        return bitmap.count_ones();
    }
    let mask = (1u64 << offset) - 1;
    (bitmap & mask).count_ones()
}

/// Tests whether bit `pos` of `bitmap` is set.
#[inline]
pub fn test_bit(bitmap: u64, pos: u32) -> bool {
    debug_assert!(pos < 64);
    (bitmap >> pos) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popc_basics() {
        assert_eq!(popc64(0), 0);
        assert_eq!(popc64(u64::MAX), 64);
        assert_eq!(popc64(0b1011), 3);
    }

    #[test]
    fn masked_popc_zero_offset_counts_nothing() {
        assert_eq!(masked_popc64(u64::MAX, 0), 0);
    }

    #[test]
    fn masked_popc_full_offset_counts_all() {
        assert_eq!(masked_popc64(u64::MAX, 64), 64);
        assert_eq!(masked_popc64(0xF0F0, 64), 8);
    }

    #[test]
    fn masked_popc_matches_manual_count() {
        let bm = 0b1101_0110_1011u64;
        for off in 0..=12u32 {
            let manual = (0..off).filter(|&i| test_bit(bm, i)).count() as u32;
            assert_eq!(masked_popc64(bm, off), manual, "off={off}");
        }
    }

    #[test]
    fn masked_popc_lane_semantics() {
        // Paper Algorithm 2: lane l uses offset 2l. With an all-ones bitmap
        // lane 5 must see exactly 10 preceding non-zeros.
        assert_eq!(masked_popc64(u64::MAX, 2 * 5), 10);
    }
}
