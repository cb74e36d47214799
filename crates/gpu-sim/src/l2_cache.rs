//! Functional set-associative L2 cache model: a test oracle.
//!
//! The timing layer uses two closed-form L2 heuristics: whole-buffer
//! residency ([`crate::timing::l2_effective_bytes`]) and the wave-level
//! panel-reuse window ([`crate::timing::panel_reread_factor`]). This
//! module provides the reference they are validated against: a real
//! set-associative cache with LRU replacement, simulated at 128-byte line
//! granularity. Tests replay the access patterns the kernels generate and
//! check the heuristics' predicted DRAM traffic against the simulated
//! miss traffic. Nothing else uses it, so it is compiled only for
//! tests.

use std::collections::BTreeMap;

/// Cache line size in bytes (L2 lines on NVIDIA parts).
const LINE_BYTES: u64 = 128;

/// A set-associative, LRU cache model.
#[derive(Debug)]
struct L2Cache {
    sets: usize,
    ways: usize,
    /// Per set: `(tag, last_use)` entries, at most `ways`.
    lines: Vec<Vec<(u64, u64)>>,
    tick: u64,
    /// Accesses served from the cache.
    hits: u64,
    /// Accesses that went to DRAM.
    misses: u64,
}

impl L2Cache {
    /// Builds a cache of `capacity_bytes` with `ways`-way associativity.
    /// Panics if the geometry does not divide into whole sets.
    fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0);
        let lines_total = capacity_bytes / LINE_BYTES as usize;
        assert!(
            lines_total >= ways && lines_total.is_multiple_of(ways),
            "capacity must hold a whole number of sets"
        );
        let sets = lines_total / ways;
        L2Cache {
            sets,
            ways,
            lines: vec![Vec::new(); sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache sized like the given fraction of a device's L2.
    fn for_spec(spec: &crate::spec::GpuSpec) -> Self {
        // 16-way, matching typical GPU L2 organisation.
        let cap = spec.l2_bytes / (16 * LINE_BYTES as usize) * (16 * LINE_BYTES as usize);
        L2Cache::new(cap, 16)
    }

    /// Touches byte address `addr`; returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / LINE_BYTES;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let entries = &mut self.lines[set];
        if let Some(e) = entries.iter_mut().find(|(t, _)| *t == tag) {
            e.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if entries.len() == self.ways {
            // Evict LRU.
            let (idx, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used))| *used)
                .expect("non-empty set");
            entries.swap_remove(idx);
        }
        entries.push((tag, self.tick));
        false
    }

    /// Touches a byte range, one access per line.
    fn access_range(&mut self, addr: u64, bytes: u64) {
        let first = addr / LINE_BYTES;
        let last = (addr + bytes.max(1) - 1) / LINE_BYTES;
        for l in first..=last {
            self.access(l * LINE_BYTES);
        }
    }

    /// DRAM bytes implied by the misses so far.
    fn miss_bytes(&self) -> u64 {
        self.misses * LINE_BYTES
    }
}

/// Replays a GEMM-style panel walk: blocks rasterised over an `m×n`
/// output grid in column-window order (window of `win` tiles), each block
/// streaming its W panel rows and X panel columns. Returns the simulated
/// DRAM bytes for the W operand. Used by heuristic-validation tests.
fn replay_weight_panel(
    cache: &mut L2Cache,
    m: usize,
    k: usize,
    n_tiles: usize,
    tile_m: usize,
    window: usize,
) -> u64 {
    // BTreeMap, not HashMap: the validation walk below iterates the
    // histogram, and a hash map would visit tiles in randomised order
    // (std's SipHash is seeded per process) — any output derived from
    // the iteration would differ run to run. Address order is
    // deterministic.
    let mut w_traffic: BTreeMap<usize, u64> = BTreeMap::new();
    let before = cache.misses;
    let m_tiles = m.div_ceil(tile_m);
    // Swizzled rasterisation: walk N tiles in windows, M-major inside.
    for n0 in (0..n_tiles).step_by(window.max(1)) {
        for mt in 0..m_tiles {
            for nt in n0..(n0 + window).min(n_tiles) {
                let _ = nt;
                // The block streams its W tile rows (tile_m × k × 2B).
                let base = (mt * tile_m * k * 2) as u64;
                cache.access_range(base, (tile_m * k * 2) as u64);
                *w_traffic.entry(mt).or_insert(0u64) += 1;
            }
        }
    }
    // Deterministic address-order validation: the swizzled walk must
    // still stream every M tile exactly once per N tile.
    for (&mt, &visits) in &w_traffic {
        debug_assert!(
            mt < m_tiles && visits == n_tiles as u64,
            "tile {mt}: {visits} visits, expected {n_tiles}"
        );
    }
    (cache.misses - before) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use crate::timing::{l2_effective_bytes, panel_reread_factor, L2Reuse};

    #[test]
    fn cold_then_hot() {
        let mut c = L2Cache::new(1 << 20, 16);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(64)); // Same 128 B line.
        assert!(!c.access(128));
        assert_eq!(c.misses, 2);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 2 sets => 4 lines; fill one set 3 deep.
        let mut c = L2Cache::new(4 * LINE_BYTES as usize, 2);
        // Addresses mapping to set 0: lines 0, 2, 4 (sets = 2).
        assert!(!c.access(0));
        assert!(!c.access(2 * LINE_BYTES));
        assert!(!c.access(4 * LINE_BYTES)); // Evicts line 0.
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(4 * LINE_BYTES), "recently used line stays");
    }

    #[test]
    fn streaming_larger_than_capacity_never_hits_on_revisit() {
        let cap = 1 << 16; // 64 KiB.
        let mut c = L2Cache::new(cap, 16);
        for pass in 0..2 {
            for a in (0..(4 * cap as u64)).step_by(LINE_BYTES as usize) {
                let hit = c.access(a);
                if pass == 1 {
                    assert!(!hit, "thrashing stream must miss on pass 2");
                }
            }
        }
    }

    #[test]
    fn resident_buffer_hits_on_revisit() {
        let cap = 1 << 16;
        let mut c = L2Cache::new(cap, 16);
        let buf = cap as u64 / 2;
        c.access_range(0, buf);
        let misses_cold = c.misses;
        c.access_range(0, buf);
        assert_eq!(c.misses, misses_cold, "warm pass must be all hits");
    }

    #[test]
    fn l2_effective_bytes_matches_simulated_resident_buffer() {
        // The heuristic says: a buffer that fits in (0.8×) L2 pays
        // compulsory traffic only, however many times it is re-read.
        let spec = GpuSpec::rtx4090();
        let buffer: u64 = 8 << 20; // 8 MiB << 72 MiB L2.
        let rereads = 6u64;
        let mut cache = L2Cache::for_spec(&spec);
        for _ in 0..rereads {
            cache.access_range(0, buffer);
        }
        let simulated = cache.miss_bytes();
        let heuristic = l2_effective_bytes(
            &spec,
            &L2Reuse {
                buffer_bytes: buffer,
                requested_bytes: buffer * rereads,
            },
        );
        let rel = (simulated as f64 - heuristic as f64).abs() / heuristic as f64;
        assert!(rel < 0.01, "simulated {simulated} vs heuristic {heuristic}");
    }

    #[test]
    fn panel_reread_factor_brackets_simulated_traffic() {
        // W panel: M×K with K=2048, streamed per window of output tiles.
        // The simulated DRAM traffic must land within ~2x of the
        // heuristic's prediction (it is a first-order window model).
        let spec = GpuSpec::rtx4090();
        let (m, k) = (4096usize, 2048usize);
        let n_pad = 4096usize;
        let tile_n = 128usize;
        let n_tiles = n_pad / tile_n;
        let factor = panel_reread_factor(&spec, k, n_pad, tile_n);
        let predicted = (2 * m * k) as u64 * factor;

        let mut cache = L2Cache::for_spec(&spec);
        // Window matching the heuristic's derivation.
        let window_cols = ((spec.l2_bytes as f64 * 0.4) / (2.0 * k as f64)).max(512.0) as usize;
        let window_tiles = (window_cols / tile_n).max(1);
        let simulated = replay_weight_panel(&mut cache, m, k, n_tiles, 128, window_tiles);
        let ratio = simulated as f64 / predicted as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "simulated {simulated} vs predicted {predicted} (ratio {ratio})"
        );
    }

    #[test]
    fn panel_replay_is_deterministic() {
        // Two fresh replays of the same walk must report identical DRAM
        // traffic — the visit histogram iterates in address order, never
        // in (process-seeded) hash order.
        let run = || {
            let mut cache = L2Cache::new(1 << 20, 16);
            replay_weight_panel(&mut cache, 1024, 512, 8, 128, 2)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        L2Cache::new(3 * LINE_BYTES as usize, 2);
    }
}
