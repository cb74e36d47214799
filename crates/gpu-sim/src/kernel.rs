//! Kernel launch abstraction.
//!
//! A simulated kernel is anything that, given a [`LaunchShape`], executes
//! functionally while recording [`Counters`], then lets the timing model
//! produce a [`KernelTiming`]. [`LaunchResult`] bundles the three.

use crate::counters::Counters;
use crate::spec::GpuSpec;
use crate::timing::{estimate_time, KernelTiming, L2Reuse, LaunchShape};

/// Outcome of one simulated kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchResult {
    /// Human-readable kernel name (e.g. `"spinfer_spmm"`).
    pub name: String,
    /// Launch geometry and schedule the kernel used.
    pub shape: LaunchShape,
    /// Event counters recorded during functional execution.
    pub counters: Counters,
    /// Timing estimate.
    pub timing: KernelTiming,
}

impl LaunchResult {
    /// Builds a result by running the timing model over recorded counters.
    pub fn from_execution(
        name: impl Into<String>,
        spec: &GpuSpec,
        shape: LaunchShape,
        counters: Counters,
        l2_reuse: &[L2Reuse],
    ) -> Self {
        let timing = estimate_time(spec, &shape, &counters, l2_reuse);
        LaunchResult {
            name: name.into(),
            shape,
            counters,
            timing,
        }
    }

    /// Kernel time in microseconds (the unit paper figures use).
    pub fn time_us(&self) -> f64 {
        self.timing.time_sec * 1e6
    }
}

/// A sequence of dependent kernel launches (e.g. main SpMM + split-K
/// reduction). Total time is the sum; counters are merged.
#[derive(Clone, Debug, Default)]
pub struct LaunchChain {
    /// Individual launches in execution order.
    pub launches: Vec<LaunchResult>,
}

impl LaunchChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        LaunchChain::default()
    }

    /// Appends a launch.
    pub fn push(&mut self, launch: LaunchResult) {
        self.launches.push(launch);
    }

    /// Total time across the chain in seconds.
    pub fn time_sec(&self) -> f64 {
        self.launches.iter().map(|l| l.timing.time_sec).sum()
    }

    /// Total time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.time_sec() * 1e6
    }

    /// Merged counters across the chain.
    pub fn merged_counters(&self) -> Counters {
        let mut c = Counters::new();
        for l in &self.launches {
            c.merge(&l.counters);
        }
        c
    }
}

/// Split-K selection: split until the grid comfortably fills the device
/// (two blocks per SM), bounded by the number of K-dimension tiles.
pub fn auto_split_k(spec: &GpuSpec, base_blocks: usize, k_tiles: usize) -> usize {
    let target = 2 * spec.sm_count as usize;
    if base_blocks == 0 {
        return 1;
    }
    target.div_ceil(base_blocks).clamp(1, k_tiles.max(1))
}

/// Pads `n` up to a multiple of 8, at least 8 (the `mma` N granularity).
pub fn pad8(n: usize) -> usize {
    n.max(8).div_ceil(8) * 8
}

/// Sectors per contiguous row segment of `bytes` (32 B granularity,
/// assuming aligned starts).
pub fn sector_span(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::BlockResources;
    use crate::timing::PipelineMode;

    fn dummy_launch(bytes: u64) -> LaunchResult {
        let spec = GpuSpec::rtx4090();
        let shape = LaunchShape {
            grid_blocks: 512,
            block: BlockResources {
                threads: 128,
                regs_per_thread: 64,
                smem_bytes: 16 * 1024,
            },
            iters_per_block: 64.0,
            mode: PipelineMode::AsyncDoubleBuffered,
            per_iter_fixed_cycles: 10.0,
            ramp_cycles: 200.0,
            inflight_bytes_per_warp: None,
            overlap_leak: None,
        };
        let mut c = Counters::new();
        c.dram_read_bytes = bytes;
        c.useful_read_bytes = bytes;
        c.insts_issued = bytes / 512;
        LaunchResult::from_execution("dummy", &spec, shape, c, &[])
    }

    #[test]
    fn launch_result_times_are_consistent() {
        let l = dummy_launch(64 << 20);
        assert!((l.time_us() - l.timing.time_sec * 1e6).abs() < 1e-9);
        assert!(l.time_us() > 0.0);
    }

    #[test]
    fn chain_sums_times_and_merges_counters() {
        let mut chain = LaunchChain::new();
        let a = dummy_launch(64 << 20);
        let b = dummy_launch(32 << 20);
        let expected = a.timing.time_sec + b.timing.time_sec;
        chain.push(a);
        chain.push(b);
        assert!((chain.time_sec() - expected).abs() < 1e-12);
        assert_eq!(
            chain.merged_counters().dram_read_bytes,
            (64 << 20) + (32 << 20)
        );
    }

    #[test]
    fn split_k_heuristic() {
        let spec = GpuSpec::rtx4090();
        assert_eq!(auto_split_k(&spec, 1000, 64), 1);
        assert!(auto_split_k(&spec, 16, 64) > 1);
        assert_eq!(auto_split_k(&spec, 1, 4), 4);
        assert_eq!(auto_split_k(&spec, 0, 4), 1);
    }

    #[test]
    fn pad8_and_sector_span() {
        assert_eq!(pad8(1), 8);
        assert_eq!(pad8(8), 8);
        assert_eq!(pad8(9), 16);
        assert_eq!(sector_span(0), 1);
        assert_eq!(sector_span(32), 1);
        assert_eq!(sector_span(33), 2);
    }
}
