//! Global-memory address space and coalescing model.
//!
//! The functional data plane of simulated kernels operates on ordinary Rust
//! slices; this module provides the *timing* data plane. Each device buffer
//! is assigned a virtual address range, and kernels report warp accesses as
//! per-lane `(address, size)` pairs. The model counts the 32-byte DRAM
//! sectors a warp access touches — the same granularity Nsight's
//! `dram__bytes_read` uses — so scattered gathers (cuSPARSE-style) are
//! charged more traffic than streaming `LDGSTS.128` loads.

use crate::counters::Counters;
use crate::fault::FaultInjector;

/// Size of a DRAM sector in bytes (fixed on NVIDIA hardware).
pub const SECTOR_BYTES: u64 = 32;

/// A virtual device address.
pub type VAddr = u64;

/// Bump allocator handing out non-overlapping virtual address ranges for
/// device buffers. Alignment is 256 B, matching `cudaMalloc`.
#[derive(Debug, Default)]
pub struct GlobalMemory {
    next: VAddr,
}

impl GlobalMemory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        GlobalMemory { next: 0x1000_0000 }
    }

    /// Allocates `len` bytes and returns the base address.
    pub fn alloc(&mut self, len: usize) -> VAddr {
        let base = self.next;
        let aligned = (len as u64 + 255) & !255;
        self.next += aligned;
        base
    }
}

/// Computes the number of distinct 32 B sectors touched by a set of
/// per-lane accesses of `bytes_per_lane` starting at each address.
/// `None` lanes are predicated off and generate no traffic.
pub fn sectors_touched(addrs: &[Option<VAddr>], bytes_per_lane: u32) -> u64 {
    // Allocation-free distinct count: this runs for every warp global
    // access. 32 lanes × ≤3 sectors each (width ≤ 64 B) bounds the
    // distinct set at 96; linear dedup over a stack array beats a heap
    // set at that size.
    assert!(bytes_per_lane <= 64, "unsupported width {bytes_per_lane}");
    let mut sectors = [0u64; 96];
    let mut count = 0usize;
    for addr in addrs.iter().flatten() {
        let start = addr / SECTOR_BYTES;
        let end = (addr + u64::from(bytes_per_lane) - 1) / SECTOR_BYTES;
        for s in start..=end {
            if !sectors[..count].contains(&s) {
                sectors[count] = s;
                count += 1;
            }
        }
    }
    count as u64
}

/// Records a warp-wide global *load* into `counters`: sector traffic,
/// useful bytes, and one load instruction.
pub fn warp_global_load(counters: &mut Counters, addrs: &[Option<VAddr>], bytes_per_lane: u32) {
    let active = addrs.iter().flatten().count() as u64;
    let sectors = sectors_touched(addrs, bytes_per_lane);
    counters.dram_read_bytes += sectors * SECTOR_BYTES;
    counters.useful_read_bytes += active * u64::from(bytes_per_lane);
    counters.global_load_insts += 1;
    counters.insts_issued += 1;
}

/// Records a warp-wide global *store*.
pub fn warp_global_store(counters: &mut Counters, addrs: &[Option<VAddr>], bytes_per_lane: u32) {
    let active = addrs.iter().flatten().count() as u64;
    let sectors = sectors_touched(addrs, bytes_per_lane);
    counters.dram_write_bytes += sectors * SECTOR_BYTES;
    counters.useful_write_bytes += active * u64::from(bytes_per_lane);
    counters.insts_issued += 1;
}

/// A bit flip struck by fault injection on a warp-wide load: flip bit
/// `bit` of the payload loaded by the `lane_sel`-th *active* lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadFault {
    /// Index among the access's active (non-predicated) lanes.
    pub lane_sel: usize,
    /// Bit position within that lane's `bytes_per_lane * 8`-bit payload.
    pub bit: u32,
}

/// Records a warp-wide `LDGSTS` (cp.async global→shared copy) whose
/// active lanes read contiguous runs, and draws its fault decision.
/// Traffic accounting matches a regular load; the instruction class
/// differs because the pipeline model may overlap it.
///
/// Each `(base, lanes)` run is `lanes` lanes reading `bytes_per_lane`
/// each, lane `i` at `base + i * bytes_per_lane`. Runs come in
/// ascending address order and none starts before the previous one
/// ends, so the sectors follow from the bounds alone: a run of
/// `len = lanes * bytes_per_lane` bytes covers sectors
/// `base / 32 ..= (base + len - 1) / 32`, less the one it
/// shares with the previous run when it starts in the sector that run
/// ends in. These are the counts [`sectors_touched`] gives on the
/// per-lane address array; this module's tests pin the two forms equal,
/// fault draws included.
///
/// With `fault` present, one bit-flip draw is keyed by the lowest
/// active address — the first non-empty run's base — so the decision
/// depends only on *what* is loaded, never on host thread schedule.
/// With `fault` absent this is exactly the golden path.
pub fn warp_ldgsts_runs(
    counters: &mut Counters,
    runs: &[(VAddr, u32)],
    bytes_per_lane: u32,
    fault: Option<&FaultInjector>,
) -> Option<LoadFault> {
    let mut sectors = 0u64;
    let mut active = 0u32;
    let mut key = None;
    let mut prev: Option<(VAddr, u64)> = None; // (end byte, last sector)
    for &(base, lanes) in runs.iter().filter(|&&(_, lanes)| lanes > 0) {
        let end = base + u64::from(lanes) * u64::from(bytes_per_lane);
        let (first, last) = (base / SECTOR_BYTES, (end - 1) / SECTOR_BYTES);
        debug_assert!(
            prev.is_none_or(|(prev_end, _)| prev_end <= base),
            "LDGSTS runs must ascend without overlap"
        );
        let shared = prev.is_some_and(|(_, prev_last)| prev_last == first);
        sectors += last - first + u64::from(!shared);
        active += lanes;
        key.get_or_insert(base);
        prev = Some((end, last));
    }
    counters.dram_read_bytes += sectors * SECTOR_BYTES;
    counters.useful_read_bytes += u64::from(active) * u64::from(bytes_per_lane);
    counters.ldgsts_insts += 1;
    counters.insts_issued += 1;
    let (inj, key) = (fault?, key?);
    let per_lane = bytes_per_lane * 8;
    let flat = inj.bitflip(counters, key, active * per_lane)?;
    Some(LoadFault {
        lane_sel: (flat / per_lane) as usize,
        bit: flat % per_lane,
    })
}

/// Convenience: builds the per-lane address array for a fully coalesced
/// warp access where lane `i` reads `bytes_per_lane` at
/// `base + i * bytes_per_lane`.
pub fn coalesced_addrs(base: VAddr, bytes_per_lane: u32) -> [Option<VAddr>; 32] {
    let mut out = [None; 32];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = Some(base + i as u64 * u64::from(bytes_per_lane));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proptest::prelude::*;

    /// Address-array form of a warp `LDGSTS`: sectors from the per-lane
    /// addresses, the oracle [`warp_ldgsts_runs`] is pinned to.
    fn warp_ldgsts(counters: &mut Counters, addrs: &[Option<VAddr>], bytes_per_lane: u32) {
        let active = addrs.iter().flatten().count() as u64;
        let sectors = sectors_touched(addrs, bytes_per_lane);
        counters.dram_read_bytes += sectors * SECTOR_BYTES;
        counters.useful_read_bytes += active * u64::from(bytes_per_lane);
        counters.ldgsts_insts += 1;
        counters.insts_issued += 1;
    }

    /// Draws a fault decision for one warp global access, keyed by the
    /// lowest active address.
    fn strike(
        counters: &mut Counters,
        addrs: &[Option<VAddr>],
        bytes_per_lane: u32,
        inj: &FaultInjector,
    ) -> Option<LoadFault> {
        let active = addrs.iter().flatten().count() as u32;
        let key = *addrs.iter().flatten().min()?;
        let per_lane = bytes_per_lane * 8;
        let flat = inj.bitflip(counters, key, active * per_lane)?;
        Some(LoadFault {
            lane_sel: (flat / per_lane) as usize,
            bit: flat % per_lane,
        })
    }

    /// Fault-aware [`warp_ldgsts`]: the address-array oracle of the
    /// fault draw.
    fn warp_ldgsts_f(
        counters: &mut Counters,
        addrs: &[Option<VAddr>],
        bytes_per_lane: u32,
        fault: Option<&FaultInjector>,
    ) -> Option<LoadFault> {
        warp_ldgsts(counters, addrs, bytes_per_lane);
        strike(counters, addrs, bytes_per_lane, fault?)
    }

    /// The payload byte (from the stream base) and bit a strike lands on,
    /// read off the struck lane's own address: the `lane_sel`-th active
    /// lane of the array.
    fn struck_byte(addrs: &[Option<VAddr>], stream_base: VAddr, hit: LoadFault) -> (u64, u32) {
        let lane = addrs
            .iter()
            .flatten()
            .nth(hit.lane_sel)
            .expect("struck lane is active");
        (lane - stream_base + u64::from(hit.bit / 8), hit.bit % 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A contiguous 16 B-per-lane stream walked as 512 B warp chunks
        /// (the SpMM GTile stream): the run form records the same
        /// counters as the address array, draws the same fault, and the
        /// struck stream byte computed from `lane_sel` (lanes contiguous
        /// from lane 0, 16 B apart) is the struck lane's own byte. Bases
        /// are only 2 B aligned, as TCA-BME value offsets are, and the
        /// lengths leave ragged tails.
        #[test]
        fn ldgsts_run_matches_address_array_form(
            base_elems in 0u64..4096,
            len in 1u64..=2048,
            seed: u64,
            rate in prop::sample::select(vec![0.0f64, 0.25, 1.0]),
        ) {
            let base = 0x1000_0000 + 2 * base_elems;
            let inj = FaultInjector::new(FaultPlan::uniform(seed, rate));
            for fault in [None, Some(&inj)] {
                let (mut by_addrs, mut by_run) = (Counters::new(), Counters::new());
                let mut off = 0u64;
                while off < len {
                    let mut addrs = [None; 32];
                    for (i, slot) in addrs.iter_mut().enumerate() {
                        let a = off + i as u64 * 16;
                        if a < len {
                            *slot = Some(base + a);
                        }
                    }
                    let oracle = warp_ldgsts_f(&mut by_addrs, &addrs, 16, fault);
                    let lanes = (len - off).div_ceil(16).min(32) as u32;
                    let run = warp_ldgsts_runs(&mut by_run, &[(base + off, lanes)], 16, fault);
                    prop_assert_eq!(oracle, run);
                    if let Some(hit) = run {
                        prop_assert_eq!(
                            struck_byte(&addrs, base, hit),
                            (off + hit.lane_sel as u64 * 16 + u64::from(hit.bit / 8), hit.bit % 8)
                        );
                    }
                    off += 512;
                }
                prop_assert_eq!(by_addrs, by_run);
            }
        }

        /// Several runs in one instruction — rows of a strided tile, some
        /// sharing a boundary sector, some empty — record the counters
        /// and the fault draw of their address array.
        #[test]
        fn ldgsts_runs_match_address_array_form(
            base_elems in 0u64..4096,
            row_lanes in prop::collection::vec(0u32..=8, 1..5),
            gap_elems in 0u64..24,
            seed: u64,
        ) {
            let mut runs = Vec::new();
            let mut addrs = Vec::new();
            let mut at = 0x1000_0000 + 2 * base_elems;
            for &lanes in &row_lanes {
                runs.push((at, lanes));
                addrs.extend((0..u64::from(lanes)).map(|l| Some(at + 16 * l)));
                at += 16 * u64::from(lanes) + 2 * gap_elems;
            }
            let inj = FaultInjector::new(FaultPlan::uniform(seed, 1.0));
            for fault in [None, Some(&inj)] {
                let (mut by_addrs, mut by_runs) = (Counters::new(), Counters::new());
                prop_assert_eq!(
                    warp_ldgsts_f(&mut by_addrs, &addrs, 16, fault),
                    warp_ldgsts_runs(&mut by_runs, &runs, 16, fault)
                );
                prop_assert_eq!(by_addrs, by_runs);
            }
        }
    }

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let mut gm = GlobalMemory::new();
        let a = gm.alloc(100);
        let b = gm.alloc(10);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn coalesced_128bit_touches_16_sectors() {
        // 32 lanes x 16 B = 512 B contiguous = 16 sectors of 32 B.
        let addrs = coalesced_addrs(0x1000, 16);
        assert_eq!(sectors_touched(&addrs, 16), 16);
    }

    #[test]
    fn fully_scattered_touches_32_sectors() {
        // Each lane reads 4 B from its own cache line: 32 sectors.
        let mut addrs = [None; 32];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = Some(0x1000 + i as u64 * 1024);
        }
        assert_eq!(sectors_touched(&addrs, 4), 32);
    }

    #[test]
    fn predicated_lanes_are_free() {
        let mut addrs = [None; 32];
        addrs[0] = Some(0x2000);
        assert_eq!(sectors_touched(&addrs, 4), 1);
    }

    #[test]
    fn unaligned_access_spans_two_sectors() {
        let addrs = [Some(0x101Eu64)]; // 2 bytes before a sector boundary.
        assert_eq!(sectors_touched(&addrs, 4), 2);
    }

    #[test]
    fn load_counter_accounting() {
        let mut c = Counters::new();
        let addrs = coalesced_addrs(0, 16);
        warp_global_load(&mut c, &addrs, 16);
        assert_eq!(c.useful_read_bytes, 512);
        assert_eq!(c.dram_read_bytes, 512);
        assert_eq!(c.global_load_insts, 1);
    }

    #[test]
    fn scattered_load_has_poor_coalescing() {
        let mut c = Counters::new();
        let mut addrs = [None; 32];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = Some(i as u64 * 512);
        }
        warp_global_load(&mut c, &addrs, 2);
        assert_eq!(c.useful_read_bytes, 64);
        assert_eq!(c.dram_read_bytes, 32 * 32);
    }

    #[test]
    fn fault_hook_none_is_golden_path() {
        let addrs = coalesced_addrs(0x4000, 16);
        let run = [(0x4000, 32)];
        let mut a = Counters::new();
        let mut b = Counters::new();
        warp_ldgsts(&mut a, &addrs, 16);
        assert_eq!(warp_ldgsts_runs(&mut b, &run, 16, None), None);
        assert_eq!(a, b);
        // A zero-rate injector never strikes and leaves counters equal too.
        let inj = FaultInjector::new(FaultPlan::default());
        let mut c0 = Counters::new();
        assert_eq!(warp_ldgsts_runs(&mut c0, &run, 16, Some(&inj)), None);
        assert_eq!(c0, a);
    }

    #[test]
    fn fault_hook_rate_one_strikes_in_bounds() {
        let inj = FaultInjector::new(FaultPlan::uniform(5, 1.0));
        let mut c = Counters::new();
        for g in 0..32u64 {
            let run = [(0x1_0000 + g * 512, 32)];
            let hit = warp_ldgsts_runs(&mut c, &run, 16, Some(&inj)).expect("rate 1.0 fires");
            assert!(hit.lane_sel < 32, "lane_sel within active lanes");
            assert!(hit.bit < 128, "bit within a 16 B payload");
        }
        assert_eq!(c.faults_injected, 32);
        // Deterministic: the same addresses re-draw the same faults.
        let mut c2 = Counters::new();
        let first = warp_ldgsts_runs(&mut c2, &[(0x1_0000, 32)], 16, Some(&inj));
        let again = warp_ldgsts_runs(&mut c2, &[(0x1_0000, 32)], 16, Some(&inj));
        assert_eq!(first, again);
    }

    #[test]
    fn store_counter_accounting() {
        let mut c = Counters::new();
        let addrs = coalesced_addrs(0, 4);
        warp_global_store(&mut c, &addrs, 4);
        assert_eq!(c.dram_write_bytes, 128);
        assert_eq!(c.useful_write_bytes, 128);
    }
}
