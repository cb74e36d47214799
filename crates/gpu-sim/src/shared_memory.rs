//! Shared-memory bank model.
//!
//! Modern NVIDIA SMs expose shared memory through 32 banks of 4-byte words.
//! A warp access completes in one transaction ("wavefront") unless two or
//! more lanes address *different* 4-byte words in the *same* bank — each
//! extra word in the most-contended bank costs one replay. Accesses wider
//! than 4 B per lane are split into phases (8 B → two half-warp phases,
//! 16 B → four quarter-warp phases), exactly as hardware does.
//!
//! Flash-LLM's sparse scatter into shared memory suffers replays here
//! (paper Figure 12, "bank conflicts"); SpInfer's layout avoids them. Both
//! facts must *emerge* from addresses, so this model computes conflicts
//! from the real addresses kernels touch.

use crate::counters::Counters;
use crate::fault::FaultInjector;
use crate::fp16::Half;

/// Number of shared memory banks.
pub const NUM_BANKS: u64 = 32;
/// Bytes per bank word.
pub const BANK_WORD: u64 = 4;

/// Result of analysing one warp-wide shared-memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmemAccess {
    /// Total transactions, including replays (minimum 1 per phase with any
    /// active lane).
    pub transactions: u64,
    /// Replay transactions beyond the conflict-free minimum.
    pub conflicts: u64,
}

/// Computes transactions and conflicts for per-lane byte addresses into
/// shared memory, each lane accessing `bytes_per_lane` (4, 8 or 16).
///
/// Lanes set to `None` are predicated off. Broadcast (multiple lanes
/// reading the *same* word) is conflict-free, as on hardware.
pub fn analyze_warp_access(addrs: &[Option<u64>; 32], bytes_per_lane: u32) -> SmemAccess {
    assert!(
        matches!(bytes_per_lane, 2 | 4 | 8 | 16),
        "unsupported access width {bytes_per_lane}"
    );
    // Hardware splits wide accesses into phases of 32/ (width/4) lanes.
    let lanes_per_phase: usize = match bytes_per_lane {
        2 | 4 => 32,
        8 => 16,
        16 => 8,
        _ => unreachable!(),
    };
    let mut transactions = 0u64;
    let mut conflicts = 0u64;
    for phase in addrs.chunks(lanes_per_phase) {
        // Narrow-window fast path: find the phase's word span in one
        // cheap pass. When every word the phase touches lies inside one
        // 32-word bank cycle, each bank holds at most one distinct word,
        // so the degree is 1 by construction — one transaction, zero
        // conflicts — without running the per-bank analysis. This is the
        // shape of SpInfer's accesses: bitmap broadcasts (one 8 B
        // word), SMBD value gathers (≤64 packed FP16 values span
        // ≤128 B), and row-major ldsm phases (8 lanes × 16 B = 128 B).
        let mut wmin = u64::MAX;
        let mut wmax = 0u64;
        for addr in phase.iter().flatten() {
            wmin = wmin.min(addr / BANK_WORD);
            wmax = wmax.max((addr + u64::from(bytes_per_lane) - 1) / BANK_WORD);
        }
        if wmin == u64::MAX {
            continue; // no active lanes in this phase
        }
        if wmax - wmin < NUM_BANKS {
            transactions += 1;
            continue;
        }
        // Fixed per-bank word lists on the stack instead of a heap map.
        // This analysis runs for every warp shared-memory access the
        // simulator executes, so it must not allocate, and the table is
        // set up only here, past the fast path, which never reads it.
        // Capacity 32 per bank is exact: a lane's words are consecutive,
        // hence in distinct banks (a ≤16 B access spans ≤4 of the 32-word
        // bank cycle), so one bank holds at most one word per lane per
        // phase — and the worst case (stride 128: all 32 lanes, one bank)
        // genuinely reaches 32. The word storage is never cleared;
        // `word_count` tracks validity.
        let mut bank_words = [[0u64; 32]; NUM_BANKS as usize];
        let mut word_count = [0u8; NUM_BANKS as usize];
        for addr in phase.iter().flatten() {
            // A lane access may span several words when wider than 4 B.
            let first_word = addr / BANK_WORD;
            let last_word = (addr + u64::from(bytes_per_lane) - 1) / BANK_WORD;
            for w in first_word..=last_word {
                let bank = (w % NUM_BANKS) as usize;
                let n = usize::from(word_count[bank]);
                if !bank_words[bank][..n].contains(&w) {
                    bank_words[bank][n] = w;
                    word_count[bank] = (n + 1) as u8;
                }
            }
        }
        let degree = u64::from(*word_count.iter().max().expect("32 banks"));
        transactions += degree;
        conflicts += degree - 1;
    }
    SmemAccess {
        transactions,
        conflicts,
    }
}

/// Records a warp shared-memory *load* into the counters.
pub fn warp_smem_load(counters: &mut Counters, addrs: &[Option<u64>; 32], bytes_per_lane: u32) {
    let a = analyze_warp_access(addrs, bytes_per_lane);
    counters.smem_load_transactions += a.transactions;
    counters.smem_bank_conflicts += a.conflicts;
    counters.insts_issued += 1;
}

/// Records a warp shared-memory *store* into the counters.
pub fn warp_smem_store(counters: &mut Counters, addrs: &[Option<u64>; 32], bytes_per_lane: u32) {
    let a = analyze_warp_access(addrs, bytes_per_lane);
    counters.smem_store_transactions += a.transactions;
    counters.smem_bank_conflicts += a.conflicts;
    counters.insts_issued += 1;
}

/// Fault-aware variant of [`warp_smem_load`]: identical counter
/// accounting, plus an FP16-poison draw when `fault` is `Some`. Returns
/// `Some((lane_sel, poison))` when the `lane_sel`-th *active* lane's
/// gathered value must be replaced by `poison` (NaN/±Inf). `key` must
/// identify the access site deterministically (e.g. GroupTile index
/// mixed with the iteration) — shared-memory addresses repeat across
/// tiles, so the address alone is not a usable key.
pub fn warp_smem_load_f(
    counters: &mut Counters,
    addrs: &[Option<u64>; 32],
    bytes_per_lane: u32,
    fault: Option<&FaultInjector>,
    key: u64,
) -> Option<(usize, Half)> {
    warp_smem_load(counters, addrs, bytes_per_lane);
    let inj = fault?;
    let active = addrs.iter().flatten().count() as u32;
    let (site, poison) = inj.poison_site(counters, key, active)?;
    Some((site as usize, poison))
}

/// Records `n` `ldmatrix.x4` loads, each of 32 contiguous 16 B rows
/// (lane `i` at `base + 16 i`, `base` word-aligned), without
/// materialising the row addresses: each 8-lane phase reads 128
/// consecutive bytes — exactly one bank cycle — so a load costs four
/// transactions and no conflicts regardless of `base`. The analytic
/// form of [`analyze_warp_access`] on those row addresses at 16 B,
/// pinned equal to it by this module's tests; the SpMM kernel loads its
/// row-major X tile fragments this way, recorded once per GroupTile.
pub fn warp_ldsm_x4_rows(counters: &mut Counters, n: u64) {
    counters.smem_load_transactions += 4 * n;
    counters.ldsm_insts += n;
    counters.insts_issued += n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Builds a per-lane address array where lane `i` accesses
    /// `base + i * stride` (byte units).
    fn strided_addrs(base: u64, stride: u64) -> [Option<u64>; 32] {
        let mut out = [None; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Some(base + i as u64 * stride);
        }
        out
    }

    /// An `ldmatrix.x4` load (LDSM.M88 ×4) of 32 16 B rows at the given
    /// addresses, conflicts computed from them: the address-array form
    /// [`warp_ldsm_x4_rows`] is pinned to.
    fn warp_ldsm_x4(counters: &mut Counters, row_addrs: &[Option<u64>; 32]) {
        let a = analyze_warp_access(row_addrs, 16);
        counters.smem_load_transactions += a.transactions;
        counters.smem_bank_conflicts += a.conflicts;
        counters.ldsm_insts += 1;
        counters.insts_issued += 1;
    }

    /// The previous `HashMap`-based implementation, kept verbatim as the
    /// reference the allocation-free rewrite is property-tested against.
    fn analyze_warp_access_hashmap(addrs: &[Option<u64>; 32], bytes_per_lane: u32) -> SmemAccess {
        let lanes_per_phase: usize = match bytes_per_lane {
            2 | 4 => 32,
            8 => 16,
            16 => 8,
            _ => unreachable!(),
        };
        let mut transactions = 0u64;
        let mut conflicts = 0u64;
        for phase in addrs.chunks(lanes_per_phase) {
            let mut words_in_bank: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut any = false;
            for addr in phase.iter().flatten() {
                any = true;
                let first_word = addr / BANK_WORD;
                let last_word = (addr + u64::from(bytes_per_lane) - 1) / BANK_WORD;
                for w in first_word..=last_word {
                    let bank = w % NUM_BANKS;
                    let entry = words_in_bank.entry(bank).or_default();
                    if !entry.contains(&w) {
                        entry.push(w);
                    }
                }
            }
            if !any {
                continue;
            }
            let degree = words_in_bank
                .values()
                .map(|v| v.len() as u64)
                .max()
                .unwrap_or(1);
            transactions += degree;
            conflicts += degree - 1;
        }
        SmemAccess {
            transactions,
            conflicts,
        }
    }

    /// 32 lanes derived from `seed` (SplitMix64): each lane predicated
    /// off with probability `off_pct`% or holding an arbitrary byte
    /// address within a 16 KiB shared-memory window. Unaligned addresses
    /// are included so word-spanning paths are exercised.
    fn random_addrs(seed: u64, off_pct: u64) -> [Option<u64>; 32] {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut addrs = [None; 32];
        for slot in addrs.iter_mut() {
            if next() % 100 >= off_pct {
                *slot = Some(next() % 16384);
            }
        }
        addrs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn allocation_free_matches_hashmap_reference(
            seed: u64,
            off_pct in prop::sample::select(vec![0u64, 20, 90, 100]),
            width in prop::sample::select(vec![2u32, 4, 8, 16]),
        ) {
            let addrs = random_addrs(seed, off_pct);
            prop_assert_eq!(
                analyze_warp_access(&addrs, width),
                analyze_warp_access_hashmap(&addrs, width)
            );
        }

        #[test]
        fn broadcast_matches_reference_at_every_width(
            addr in 0u64..16384,
            width in prop::sample::select(vec![2u32, 4, 8, 16]),
        ) {
            let addrs = [Some(addr); 32];
            prop_assert_eq!(
                analyze_warp_access(&addrs, width),
                analyze_warp_access_hashmap(&addrs, width)
            );
        }

        #[test]
        fn ldsm_rows_matches_address_array_form(word in 0u64..4096) {
            let mut via_addrs = Counters::new();
            warp_ldsm_x4(&mut via_addrs, &strided_addrs(word * BANK_WORD, 16));
            let mut via_helper = Counters::new();
            warp_ldsm_x4_rows(&mut via_helper, 1);
            prop_assert_eq!(via_addrs, via_helper);
        }

        #[test]
        fn strided_matches_reference(
            base in 0u64..4096,
            stride in 0u64..256,
            width in prop::sample::select(vec![2u32, 4, 8, 16]),
        ) {
            let addrs = strided_addrs(base, stride);
            prop_assert_eq!(
                analyze_warp_access(&addrs, width),
                analyze_warp_access_hashmap(&addrs, width)
            );
        }
    }

    #[test]
    fn unit_stride_4b_is_conflict_free() {
        let addrs = strided_addrs(0, 4);
        let a = analyze_warp_access(&addrs, 4);
        assert_eq!(a.transactions, 1);
        assert_eq!(a.conflicts, 0);
    }

    #[test]
    fn stride_128_is_32_way_conflict() {
        // All lanes hit bank 0 with distinct words: the classic worst case.
        let addrs = strided_addrs(0, 128);
        let a = analyze_warp_access(&addrs, 4);
        assert_eq!(a.transactions, 32);
        assert_eq!(a.conflicts, 31);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let addrs = [Some(64u64); 32];
        let a = analyze_warp_access(&addrs, 4);
        assert_eq!(a.transactions, 1);
        assert_eq!(a.conflicts, 0);
    }

    #[test]
    fn stride_8_is_2way_conflict() {
        // 4 B accesses with 8 B stride: lanes 0 and 16 share bank 0 with
        // different words, and so on -> 2-way conflict in a single phase.
        let addrs = strided_addrs(0, 8);
        let a = analyze_warp_access(&addrs, 4);
        assert_eq!(a.transactions, 2);
        assert_eq!(a.conflicts, 1);
    }

    #[test]
    fn vector_8b_unit_stride_is_two_clean_phases() {
        // 8 B per lane, contiguous: two 16-lane phases, each covering
        // 128 B across all 32 banks exactly once.
        let addrs = strided_addrs(0, 8);
        let a = analyze_warp_access(&addrs, 8);
        assert_eq!(a.transactions, 2);
        assert_eq!(a.conflicts, 0);
    }

    #[test]
    fn vector_16b_unit_stride_is_four_clean_phases() {
        let addrs = strided_addrs(0, 16);
        let a = analyze_warp_access(&addrs, 16);
        assert_eq!(a.transactions, 4);
        assert_eq!(a.conflicts, 0);
    }

    #[test]
    fn predicated_off_warp_is_free() {
        let addrs = [None; 32];
        let a = analyze_warp_access(&addrs, 4);
        assert_eq!(a.transactions, 0);
        assert_eq!(a.conflicts, 0);
    }

    #[test]
    fn counter_recording() {
        let mut c = Counters::new();
        warp_smem_store(&mut c, &strided_addrs(0, 128), 4);
        assert_eq!(c.smem_store_transactions, 32);
        assert_eq!(c.smem_bank_conflicts, 31);
        warp_smem_load(&mut c, &strided_addrs(0, 4), 4);
        assert_eq!(c.smem_load_transactions, 1);
    }

    #[test]
    fn smem_fault_hook_poisons_one_active_lane() {
        use crate::fault::{FaultInjector, FaultPlan};
        let addrs = strided_addrs(0, 4);
        // None: golden accounting, no poison.
        let mut a = Counters::new();
        let mut b = Counters::new();
        warp_smem_load(&mut a, &addrs, 4);
        assert_eq!(warp_smem_load_f(&mut b, &addrs, 4, None, 9), None);
        assert_eq!(a, b);
        // Rate 1.0: a non-finite value lands on an in-range lane, and the
        // same key re-draws the same poison.
        let plan = FaultPlan {
            fp16_poison_rate: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let mut c = Counters::new();
        let (lane, p) = warp_smem_load_f(&mut c, &addrs, 4, Some(&inj), 9).expect("fires");
        assert!(lane < 32);
        assert!(p.is_nan() || p.is_infinite());
        let again = warp_smem_load_f(&mut c, &addrs, 4, Some(&inj), 9);
        assert_eq!(again, Some((lane, p)));
        assert_eq!(c.faults_injected, 2);
    }

    #[test]
    fn ldsm_row_layout_conflict_free() {
        // 32 rows of 16 B, contiguous: row i at i*16. Phase of 8 lanes
        // covers 128 B = all banks once.
        let mut c = Counters::new();
        warp_ldsm_x4(&mut c, &strided_addrs(0, 16));
        assert_eq!(c.smem_bank_conflicts, 0);
        assert_eq!(c.ldsm_insts, 1);
        assert_eq!(c.smem_load_transactions, 4);
    }
}
