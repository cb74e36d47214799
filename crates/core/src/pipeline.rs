//! Cycle-level pipeline simulator for one thread block: a test oracle.
//!
//! The analytical timing model (`gpu_sim::timing`) assumes that with
//! double buffering the per-iteration stages overlap up to a leak
//! factor, and that without it they serialize. This module checks that
//! assumption from first principles: a discrete-event simulation of one
//! block's main loop, with stages as tasks, buffers as dependencies, and
//! execution units as exclusive resources. Its tests also check
//! [`SpinferSpmm::estimate`](crate::SpinferSpmm::estimate) at the hero
//! shape against the simulated block, so the module lives here, beside
//! the kernel, and is compiled only for tests.
//!
//! Stages per iteration `i` (paper Algorithm 1):
//!
//! * `LoadW(i)`  — cp.async of bitmap+values into buffer `i % depth`
//!   (DRAM unit);
//! * `LoadX(i)`  — cp.async of the dense tile (DRAM unit);
//! * `Decode(i)` — SMBD, needs `LoadW(i)` done and the CUDA unit;
//! * `Mma(i)`    — needs `Decode(i)`, `LoadX(i)` and the TC unit;
//! * with buffer depth `d`, `LoadW(i)` also needs `Mma(i-d)` done
//!   (its buffer must be free).
//!
//! With depth 2 the loads run ahead of compute (the paper's AsyncPipe);
//! with depth 1 every iteration serializes load → decode → mma.

/// Per-iteration stage durations in cycles.
#[derive(Clone, Copy, Debug)]
struct StageCosts {
    /// cp.async of the W tile (DRAM-bound portion).
    load_w: u64,
    /// cp.async of the X tile.
    load_x: u64,
    /// SMBD decode on CUDA cores / shared memory.
    decode: u64,
    /// Tensor-core computation.
    mma: u64,
}

/// Outcome of simulating a block's main loop.
#[derive(Clone, Copy, Debug)]
struct PipelineResult {
    /// Total cycles from first load to last mma retirement.
    total_cycles: u64,
    /// Cycles the Tensor Core unit was busy.
    tc_busy: u64,
    /// Cycles the DRAM unit was busy.
    dram_busy: u64,
    /// Tensor-core utilisation over the run.
    tc_util: f64,
}

/// Simulates `iters` iterations with `depth` shared-memory buffers
/// (1 = no double buffering, 2 = the paper's AsyncPipe). Panics if
/// `depth == 0` or `iters == 0`.
fn simulate_block(iters: usize, depth: usize, costs: StageCosts) -> PipelineResult {
    assert!(depth >= 1, "at least one buffer required");
    assert!(iters >= 1, "at least one iteration required");

    // Unit-ready times (exclusive resources).
    let mut dram_free = 0u64;
    let mut cuda_free = 0u64;
    let mut tc_free = 0u64;

    // Completion times per iteration.
    let mut loadw_done = vec![0u64; iters];
    let mut loadx_done = vec![0u64; iters];
    let mut decode_done = vec![0u64; iters];
    let mut mma_done = vec![0u64; iters];

    let mut tc_busy = 0u64;
    let mut dram_busy = 0u64;

    for i in 0..iters {
        // Buffer reuse dependency: the slot is free once iteration i-depth
        // finished consuming it.
        let buffer_free = if i >= depth { mma_done[i - depth] } else { 0 };

        // LoadW then LoadX issue in order on the DRAM unit.
        let w_start = dram_free.max(buffer_free);
        loadw_done[i] = w_start + costs.load_w;
        dram_busy += costs.load_w;
        let x_start = loadw_done[i].max(buffer_free);
        loadx_done[i] = x_start + costs.load_x;
        dram_busy += costs.load_x;
        dram_free = loadx_done[i];

        // Decode needs its W tile and the CUDA unit. Without double
        // buffering it also waits for the previous iteration's compute
        // (the block synchronises before reusing the single buffer).
        let serial_gate = if depth == 1 && i > 0 {
            mma_done[i - 1]
        } else {
            0
        };
        let d_start = loadw_done[i].max(cuda_free).max(serial_gate);
        decode_done[i] = d_start + costs.decode;
        cuda_free = decode_done[i];

        // MMA needs decode + X + the TC unit.
        let m_start = decode_done[i].max(loadx_done[i]).max(tc_free);
        mma_done[i] = m_start + costs.mma;
        tc_busy += costs.mma;
        tc_free = mma_done[i];
    }

    let total_cycles = mma_done[iters - 1];
    PipelineResult {
        total_cycles,
        tc_busy,
        dram_busy,
        tc_util: tc_busy as f64 / total_cycles.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FormatStats, SpinferSpmm};
    use gpu_sim::timing::{BASE_MEM_EFF, INT_WIPC, SMEM_TPC};
    use gpu_sim::GpuSpec;

    fn costs(load_w: u64, load_x: u64, decode: u64, mma: u64) -> StageCosts {
        StageCosts {
            load_w,
            load_x,
            decode,
            mma,
        }
    }

    #[test]
    fn single_iteration_is_the_critical_path() {
        let r = simulate_block(1, 2, costs(100, 50, 30, 40));
        // LoadW(100) -> max(decode done 130, loadx done 150) -> mma 190.
        assert_eq!(r.total_cycles, 190);
    }

    #[test]
    fn memory_bound_steady_state_approaches_dram_time() {
        // Loads dominate: with depth 2, steady-state cycles/iter ≈
        // load_w + load_x; compute hides underneath.
        let iters = 200;
        let r = simulate_block(iters, 2, costs(100, 60, 30, 20));
        let per_iter = r.total_cycles as f64 / iters as f64;
        assert!(
            (per_iter - 160.0).abs() < 8.0,
            "per-iter {per_iter} should approach 160"
        );
    }

    #[test]
    fn compute_bound_steady_state_approaches_tc_time() {
        let iters = 200;
        let r = simulate_block(iters, 2, costs(10, 10, 20, 100));
        let per_iter = r.total_cycles as f64 / iters as f64;
        // TC is the bottleneck; decode overlaps under it.
        assert!((per_iter - 100.0).abs() < 8.0, "per-iter {per_iter}");
        assert!(r.tc_util > 0.9);
    }

    #[test]
    fn double_buffering_beats_single_buffering() {
        // The paper's AsyncPipe claim, derived rather than assumed.
        let c = costs(100, 60, 50, 40);
        let double = simulate_block(100, 2, c);
        let single = simulate_block(100, 1, c);
        assert!(
            single.total_cycles as f64 > 1.2 * double.total_cycles as f64,
            "single {} vs double {}",
            single.total_cycles,
            double.total_cycles
        );
    }

    #[test]
    fn single_buffer_serializes_stages() {
        // With one buffer each iteration's load cannot start before the
        // previous compute drained: per-iter ≈ sum of stages.
        let iters = 100;
        let c = costs(100, 60, 50, 40);
        let r = simulate_block(iters, 1, c);
        let per_iter = r.total_cycles as f64 / iters as f64;
        // decode (50) overlaps LoadX (60): expected ≈ 100+60+40 = 200,
        // plus scheduling slack.
        assert!(per_iter > 190.0 && per_iter < 260.0, "per-iter {per_iter}");
    }

    #[test]
    fn deeper_pipelines_do_not_help_beyond_the_bottleneck() {
        let c = costs(100, 60, 30, 20);
        let d2 = simulate_block(200, 2, c);
        let d4 = simulate_block(200, 4, c);
        let gain = d2.total_cycles as f64 / d4.total_cycles as f64;
        assert!(gain < 1.05, "depth 4 gains only marginally: {gain}");
    }

    #[test]
    fn matches_analytical_overlap_model_in_both_regimes() {
        // The analytical model says: async steady ≈ max(mem, chain, tc)
        // with a small leak. Check the pipeline lands within 15% of the
        // max() for both a memory-bound and a compute-bound mix.
        for c in [costs(120, 40, 50, 30), costs(20, 10, 40, 110)] {
            let iters = 300;
            let r = simulate_block(iters, 2, c);
            let per_iter = r.total_cycles as f64 / iters as f64;
            let mem = (c.load_w + c.load_x) as f64;
            let analytic_max = mem.max(c.decode as f64).max(c.mma as f64);
            let ratio = per_iter / analytic_max;
            assert!(
                (1.0..1.15).contains(&ratio),
                "pipeline {per_iter} vs analytic max {analytic_max}"
            );
        }
    }

    #[test]
    fn utilisation_counters_are_consistent() {
        let r = simulate_block(50, 2, costs(10, 10, 10, 10));
        assert_eq!(r.tc_busy, 500);
        assert_eq!(r.dram_busy, 1000);
        assert!(r.tc_util > 0.0 && r.tc_util <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_depth_panics() {
        simulate_block(1, 0, costs(1, 1, 1, 1));
    }

    /// Derives SpInfer's per-iteration stage costs at the hero shape and
    /// checks the discrete-event pipeline agrees with the analytic
    /// per-iteration steady state within 20%.
    #[test]
    fn pipeline_simulation_validates_analytic_spmm_model() {
        let spec = GpuSpec::rtx4090();
        let (m, k, n, s) = (28672usize, 8192usize, 16usize, 0.6f64);
        let stats = FormatStats::synthetic(m, k, s);
        let run = SpinferSpmm::new().estimate(&spec, &stats, n);
        let launch = &run.chain.launches[0];
        let grid = launch.shape.grid_blocks as f64;
        let iters = launch.shape.iters_per_block;

        // Per-block, per-iteration stage costs in cycles, from the counters.
        let occ = launch.timing.occupancy;
        let resident = (grid).min(f64::from(spec.sm_count) * f64::from(occ.blocks_per_sm));
        let c = &launch.counters;
        // DRAM cycles available to one block per cycle of wall time.
        let bpc_per_block = spec.dram_bandwidth / spec.clock_hz / resident * BASE_MEM_EFF;
        let w_bytes_iter = launch.timing.dram_bytes as f64 * 0.92 / grid / iters; // W dominates.
        let x_bytes_iter = launch.timing.dram_bytes as f64 * 0.08 / grid / iters;
        let decode_cycles = (c.cuda_int_insts as f64 / INT_WIPC
            + (c.smem_load_transactions + c.smem_store_transactions) as f64 / SMEM_TPC)
            / grid
            / iters
            / f64::from(occ.blocks_per_sm).max(1.0);
        let mma_cycles =
            c.mma_insts as f64 * 4.0 / grid / iters / f64::from(occ.blocks_per_sm).max(1.0);

        let costs = StageCosts {
            load_w: (w_bytes_iter / bpc_per_block) as u64,
            load_x: (x_bytes_iter / bpc_per_block) as u64,
            decode: decode_cycles as u64,
            mma: mma_cycles as u64,
        };
        let sim = simulate_block(iters as usize, 2, costs);
        let waves = (grid / resident).ceil();
        let sim_total_sec = spec.cycles_to_sec(sim.total_cycles as f64 * waves);
        let analytic_sec = launch.timing.time_sec;
        let ratio = sim_total_sec / analytic_sec;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "pipeline {sim_total_sec:.2e}s vs analytic {analytic_sec:.2e}s (ratio {ratio:.2})"
        );
    }

    /// The pipeline simulator reproduces the AsyncPipe ablation's direction:
    /// depth-1 is slower than depth-2, by a modest factor when memory-bound.
    #[test]
    fn pipeline_asyncpipe_ablation_direction() {
        // Memory-heavy mix typical of the decode regime.
        let c = StageCosts {
            load_w: 900,
            load_x: 100,
            decode: 300,
            mma: 60,
        };
        let d2 = simulate_block(128, 2, c);
        let d1 = simulate_block(128, 1, c);
        let slowdown = d1.total_cycles as f64 / d2.total_cycles as f64;
        assert!(slowdown > 1.02 && slowdown < 1.6, "slowdown {slowdown}");
    }
}
