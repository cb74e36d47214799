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

/// Records a warp-wide `LDGSTS` (cp.async global→shared copy). Traffic
/// accounting matches a regular load; the instruction class differs because
/// the pipeline model may overlap it.
pub fn warp_ldgsts(counters: &mut Counters, addrs: &[Option<VAddr>], bytes_per_lane: u32) {
    let active = addrs.iter().flatten().count() as u64;
    let sectors = sectors_touched(addrs, bytes_per_lane);
    counters.dram_read_bytes += sectors * SECTOR_BYTES;
    counters.useful_read_bytes += active * u64::from(bytes_per_lane);
    counters.ldgsts_insts += 1;
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

/// Draws a fault decision for one warp global access. Keyed by the
/// lowest active address, so the decision depends only on *what* is
/// loaded — never on host thread schedule.
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

/// Fault-aware variant of [`warp_ldgsts`]: identical counter accounting,
/// plus an injection draw when `fault` is `Some`. With `None` this is
/// exactly the golden path.
pub fn warp_ldgsts_f(
    counters: &mut Counters,
    addrs: &[Option<VAddr>],
    bytes_per_lane: u32,
    fault: Option<&FaultInjector>,
) -> Option<LoadFault> {
    warp_ldgsts(counters, addrs, bytes_per_lane);
    strike(counters, addrs, bytes_per_lane, fault?)
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
        use crate::fault::{FaultInjector, FaultPlan};
        let addrs = coalesced_addrs(0x4000, 16);
        let mut a = Counters::new();
        let mut b = Counters::new();
        warp_ldgsts(&mut a, &addrs, 16);
        assert_eq!(warp_ldgsts_f(&mut b, &addrs, 16, None), None);
        assert_eq!(a, b);
        // A zero-rate injector never strikes and leaves counters equal too.
        let inj = FaultInjector::new(FaultPlan::default());
        let mut c0 = Counters::new();
        assert_eq!(warp_ldgsts_f(&mut c0, &addrs, 16, Some(&inj)), None);
        assert_eq!(c0, a);
    }

    #[test]
    fn fault_hook_rate_one_strikes_in_bounds() {
        use crate::fault::{FaultInjector, FaultPlan};
        let inj = FaultInjector::new(FaultPlan::uniform(5, 1.0));
        let mut c = Counters::new();
        for g in 0..32u64 {
            let addrs = coalesced_addrs(0x1_0000 + g * 512, 16);
            let hit = warp_ldgsts_f(&mut c, &addrs, 16, Some(&inj)).expect("rate 1.0 fires");
            assert!(hit.lane_sel < 32, "lane_sel within active lanes");
            assert!(hit.bit < 128, "bit within a 16 B payload");
        }
        assert_eq!(c.faults_injected, 32);
        // Deterministic: the same addresses re-draw the same faults.
        let mut c2 = Counters::new();
        let first = warp_ldgsts_f(&mut c2, &coalesced_addrs(0x1_0000, 16), 16, Some(&inj));
        let again = warp_ldgsts_f(&mut c2, &coalesced_addrs(0x1_0000, 16), 16, Some(&inj));
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
