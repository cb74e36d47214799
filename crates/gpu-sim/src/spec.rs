//! GPU parameter sheets ("specs") for the simulated devices.
//!
//! The paper evaluates on NVIDIA RTX4090 (Ada, SM 8.9) and A6000 (Ampere,
//! SM 8.6). A spec captures every microarchitectural constant the timing
//! and occupancy models need. Specs are plain data, so retargeting the
//! simulator to another device (paper §6) is a matter of filling in a new
//! sheet.

/// Interconnect between GPUs in a multi-GPU node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Interconnect {
    /// PCIe with the given unidirectional bandwidth in GB/s.
    Pcie { bandwidth_gbs: f64 },
    /// Pairwise NVLink with the given unidirectional bandwidth in GB/s.
    NvLink { bandwidth_gbs: f64 },
}

impl Interconnect {
    /// Unidirectional bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        match self {
            Interconnect::Pcie { bandwidth_gbs } | Interconnect::NvLink { bandwidth_gbs } => {
                bandwidth_gbs * 1.0e9
            }
        }
    }

    /// Per-message fixed latency in seconds (launch + link setup).
    pub fn latency_sec(&self) -> f64 {
        match self {
            Interconnect::Pcie { .. } => 10.0e-6,
            Interconnect::NvLink { .. } => 4.0e-6,
        }
    }
}

/// Microarchitectural description of a simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: &'static str,
    /// Compute capability, e.g. (8, 9) for Ada.
    pub compute_capability: (u32, u32),
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz (boost clock; kernels in the paper run at boost).
    pub clock_hz: f64,
    /// Peak DRAM bandwidth in bytes/s.
    pub dram_bandwidth: f64,
    /// DRAM access latency in core cycles (L2 miss, to first data).
    pub dram_latency_cycles: u32,
    /// Unified L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L2 hit latency in cycles.
    pub l2_latency_cycles: u32,
    /// Maximum shared memory per SM in bytes (carve-out configurable).
    pub smem_per_sm: usize,
    /// Maximum shared memory per thread block in bytes.
    pub smem_per_block: usize,
    /// Shared memory banks (32 on all modern NVIDIA parts).
    pub smem_banks: u32,
    /// Bytes per shared memory bank per cycle (4 on all modern parts).
    pub smem_bank_bytes: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum registers per thread.
    pub max_regs_per_thread: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Warp size (32).
    pub warp_size: u32,
    /// Warp schedulers per SM (issue slots per cycle).
    pub schedulers_per_sm: u32,
    /// Dense FP16 Tensor-Core throughput per SM: FLOPs per cycle
    /// (multiply and add both count). Ada: 512 FMA = 1024 FLOP/cycle/SM.
    pub tc_flops_per_cycle_per_sm: f64,
    /// Cycles for one warp-wide `mma.m16n8k16` issue-to-complete.
    pub mma_latency_cycles: u32,
    /// Device memory capacity in bytes.
    pub memory_capacity: usize,
    /// Node-level interconnect used for tensor parallelism.
    pub interconnect: Interconnect,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 4090 (Ada Lovelace, AD102), as used on the
    /// paper's platform 1: 128 SMs, 24 GB GDDR6X, PCIe interconnect at
    /// 30.5 GB/s measured.
    pub fn rtx4090() -> Self {
        GpuSpec {
            name: "RTX4090",
            compute_capability: (8, 9),
            sm_count: 128,
            clock_hz: 2.52e9,
            dram_bandwidth: 1008.0e9,
            dram_latency_cycles: 560,
            l2_bytes: 72 * 1024 * 1024,
            l2_latency_cycles: 240,
            smem_per_sm: 100 * 1024,
            smem_per_block: 99 * 1024,
            smem_banks: 32,
            smem_bank_bytes: 4,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 24,
            max_threads_per_block: 1024,
            warp_size: 32,
            schedulers_per_sm: 4,
            tc_flops_per_cycle_per_sm: 1024.0,
            mma_latency_cycles: 16,
            memory_capacity: 24 * 1024 * 1024 * 1024,
            interconnect: Interconnect::Pcie {
                bandwidth_gbs: 30.5,
            },
        }
    }

    /// NVIDIA RTX A6000 (Ampere, GA102), the paper's platform 2: 84 SMs,
    /// 48 GB GDDR6, pairwise NVLink.
    pub fn a6000() -> Self {
        GpuSpec {
            name: "A6000",
            compute_capability: (8, 6),
            sm_count: 84,
            clock_hz: 1.80e9,
            dram_bandwidth: 768.0e9,
            dram_latency_cycles: 520,
            l2_bytes: 6 * 1024 * 1024,
            l2_latency_cycles: 220,
            smem_per_sm: 100 * 1024,
            smem_per_block: 99 * 1024,
            smem_banks: 32,
            smem_bank_bytes: 4,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            warp_size: 32,
            schedulers_per_sm: 4,
            tc_flops_per_cycle_per_sm: 1024.0,
            mma_latency_cycles: 16,
            memory_capacity: 48 * 1024 * 1024 * 1024,
            interconnect: Interconnect::NvLink {
                bandwidth_gbs: 56.2,
            },
        }
    }

    /// An A100-like sheet exercising the retargeting hook discussed in the
    /// paper's §6 (not part of the paper's evaluation).
    pub fn a100_like() -> Self {
        GpuSpec {
            name: "A100-like",
            compute_capability: (8, 0),
            sm_count: 108,
            clock_hz: 1.41e9,
            dram_bandwidth: 1555.0e9,
            dram_latency_cycles: 480,
            l2_bytes: 40 * 1024 * 1024,
            l2_latency_cycles: 200,
            smem_per_sm: 164 * 1024,
            smem_per_block: 163 * 1024,
            smem_banks: 32,
            smem_bank_bytes: 4,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            schedulers_per_sm: 4,
            tc_flops_per_cycle_per_sm: 2048.0,
            mma_latency_cycles: 16,
            memory_capacity: 40 * 1024 * 1024 * 1024,
            interconnect: Interconnect::NvLink {
                bandwidth_gbs: 300.0,
            },
        }
    }

    /// Peak dense FP16 Tensor-Core throughput of the whole device, FLOP/s.
    pub fn peak_tc_flops(&self) -> f64 {
        self.tc_flops_per_cycle_per_sm * self.clock_hz * f64::from(self.sm_count)
    }

    /// The ridge point of the Tensor-Core roofline in FLOP/byte: compute
    /// intensity above which kernels become compute-bound.
    pub fn tc_ridge_point(&self) -> f64 {
        self.peak_tc_flops() / self.dram_bandwidth
    }

    /// Converts a cycle count on this device to seconds.
    pub fn cycles_to_sec(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx4090_headline_numbers() {
        let g = GpuSpec::rtx4090();
        // ~330 TFLOPS FP16 TC with FP32 accumulate (marketing: 330.3).
        let tflops = g.peak_tc_flops() / 1e12;
        assert!((tflops - 330.0).abs() < 10.0, "got {tflops}");
        assert_eq!(g.sm_count, 128);
        assert_eq!(g.memory_capacity, 24 * 1024 * 1024 * 1024);
    }

    #[test]
    fn a6000_headline_numbers() {
        let g = GpuSpec::a6000();
        let tflops = g.peak_tc_flops() / 1e12;
        // A6000: ~154 TFLOPS FP16 TC.
        assert!((tflops - 155.0).abs() < 10.0, "got {tflops}");
        assert_eq!(g.memory_capacity, 48 * 1024 * 1024 * 1024);
    }

    #[test]
    fn ridge_point_is_hundreds_of_flop_per_byte() {
        // Both parts have ridge points in the hundreds, so decode-phase
        // GEMM (CI ~ batch size) sits far into the memory-bound region.
        assert!(GpuSpec::rtx4090().tc_ridge_point() > 200.0);
        assert!(GpuSpec::a6000().tc_ridge_point() > 150.0);
    }

    #[test]
    fn cycle_second_roundtrip() {
        let g = GpuSpec::rtx4090();
        let s = g.cycles_to_sec(g.clock_hz);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interconnects_match_paper_platforms() {
        assert!(matches!(
            GpuSpec::rtx4090().interconnect,
            Interconnect::Pcie { .. }
        ));
        assert!(matches!(
            GpuSpec::a6000().interconnect,
            Interconnect::NvLink { .. }
        ));
        let pcie = GpuSpec::rtx4090().interconnect;
        assert!((pcie.bandwidth_bytes_per_sec() - 30.5e9).abs() < 1.0);
    }
}
