//! Shared counter-accounting helpers for baseline kernels.
//!
//! Baseline kernels follow the same two-path structure as SpInfer-SpMM:
//! a functional path producing bit-exact output, and an analytic path
//! producing the same counters from format statistics. Since none of the
//! baselines' *data paths* are under test (they reproduce published
//! designs), their functional paths compute outputs through the reference
//! product and reuse the analytic counter generators below; only
//! data-dependent quantities (Flash-LLM scatter conflicts, SMaT block
//! occupancy, SparTA residual size) are extracted from real encodings.

use gpu_sim::counters::Counters;
use gpu_sim::kernel::{LaunchChain, LaunchResult};
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, LaunchShape, PipelineMode};
use spinfer_core::error::IntegrityError;
use spinfer_core::spmm::{emit_chain_trace, LaunchCtx, SpmmRun};
use spinfer_core::SpinferError;

/// Rejects an activation whose row count does not match the weights' K.
pub fn check_k(expected_k: usize, x: &DenseMatrix) -> Result<(), SpinferError> {
    if x.rows() != expected_k {
        return Err(SpinferError::DimensionMismatch {
            expected_k,
            got: x.rows(),
        });
    }
    Ok(())
}

/// Structural validation shared by the offset-indexed baseline formats
/// (CSR row pointers, Tiled-CSL tile offsets, BCSR block-row pointers):
/// `offsets` must hold `expected_len` entries, be monotonically
/// non-decreasing, and end at the payload length `end`.
pub fn validate_offsets(
    offsets: &[u32],
    expected_len: usize,
    end: usize,
) -> Result<(), SpinferError> {
    if offsets.len() != expected_len {
        return Err(IntegrityError::OffsetCount {
            expected: expected_len,
            got: offsets.len(),
        }
        .into());
    }
    for (i, pair) in offsets.windows(2).enumerate() {
        if pair[1] < pair[0] {
            return Err(IntegrityError::OffsetOrder {
                gt: i,
                start: pair[0],
                end: pair[1],
            }
            .into());
        }
    }
    let got = offsets.last().copied().unwrap_or(0) as usize;
    if got != end {
        return Err(IntegrityError::OffsetEnd { expected: end, got }.into());
    }
    Ok(())
}

/// Finishes a baseline launch: attaches the functional output and, when
/// the context carries a trace sink, emits the per-launch chain trace.
pub fn finish_launch(
    ctx: &LaunchCtx<'_>,
    kernel: &'static str,
    mut run: SpmmRun,
    output: Vec<f32>,
) -> SpmmRun {
    run.output = Some(output);
    if let Some(sink) = ctx.sink {
        emit_chain_trace(sink, kernel, &run.chain);
    }
    run
}

/// Records a perfectly coalesced stream of `bytes` read via `LDGSTS.128`
/// (the cuBLAS/SpInfer data path: global → shared, no register staging).
pub fn stream_ldgsts(c: &mut Counters, bytes: u64) {
    c.dram_read_bytes += bytes;
    c.useful_read_bytes += bytes;
    let insts = bytes.div_ceil(512).max(1);
    c.ldgsts_insts += insts;
    c.insts_issued += insts;
    c.smem_store_transactions += bytes.div_ceil(128).max(1);
}

/// Records a coalesced stream of `bytes` read via `LDG.128` *through the
/// register file* (Flash-LLM's W path, Fig. 7): same DRAM traffic, but the
/// data additionally crosses the RF, costing stores into shared memory
/// later and extra issue slots.
pub fn stream_ldg_via_rf(c: &mut Counters, bytes: u64) {
    c.dram_read_bytes += bytes;
    c.useful_read_bytes += bytes;
    let insts = bytes.div_ceil(512).max(1);
    c.global_load_insts += insts;
    c.insts_issued += insts;
}

/// Records `count` warp-level gather instructions, each touching
/// `sectors_per` 32-byte sectors with `useful_per` useful bytes, with the
/// dependent-load flag (address produced by a prior load).
pub fn gather(c: &mut Counters, count: u64, useful_per: u64, sectors_per: u64) {
    c.dram_read_bytes += count * sectors_per * 32;
    c.useful_read_bytes += count * useful_per;
    c.global_load_insts += count;
    c.dependent_gathers += count;
    c.insts_issued += count;
}

/// Records a coalesced FP32 output store of `bytes`.
pub fn store_output(c: &mut Counters, bytes: u64) {
    c.dram_write_bytes += bytes;
    c.useful_write_bytes += bytes;
    c.insts_issued += bytes.div_ceil(512).max(1);
}

/// Records `count` warp-wide Tensor Core `mma.m16n8k16` issues plus the
/// `ldmatrix.x4` loads feeding them (`ldsm_per_mma` fractional x4 loads
/// per mma — A and B operands amortise differently per kernel).
pub fn tensor_core_work(c: &mut Counters, mma: u64, ldsm: u64) {
    c.mma_insts += mma;
    c.ldsm_insts += ldsm;
    c.smem_load_transactions += ldsm * 4;
    c.insts_issued += mma + ldsm;
}

/// Records CUDA-core FMA work: `flops` scalar FLOPs executed across warps
/// (2 FLOPs per lane-FMA, 32 lanes per warp instruction).
pub fn cuda_fma_work(c: &mut Counters, flops: u64) {
    let insts = flops.div_ceil(64).max(1);
    c.cuda_fp_insts += insts;
    c.insts_issued += insts;
}

/// Builds a `LaunchChain` with a single launch from assembled pieces.
#[allow(clippy::too_many_arguments)]
pub fn single_launch(
    name: &'static str,
    spec: &GpuSpec,
    counters: Counters,
    grid_blocks: u64,
    block: BlockResources,
    iters_per_block: f64,
    mode: PipelineMode,
    per_iter_fixed_cycles: f64,
    inflight_bytes_per_warp: Option<f64>,
    l2_reuse: &[L2Reuse],
) -> LaunchChain {
    let shape = LaunchShape {
        grid_blocks,
        block,
        iters_per_block,
        mode,
        per_iter_fixed_cycles,
        ramp_cycles: 600.0,
        inflight_bytes_per_warp,
        overlap_leak: None,
    };
    let mut chain = LaunchChain::new();
    chain.push(LaunchResult::from_execution(
        name, spec, shape, counters, l2_reuse,
    ));
    chain
}

/// The split-K reduction pass shared by Tensor-Core baselines.
pub fn reduction_launch(spec: &GpuSpec, elems: usize, split_k: usize) -> LaunchResult {
    let read = (elems * split_k * 4) as u64;
    let write = (elems * 4) as u64;
    let mut c = Counters::new();
    c.dram_read_bytes = read;
    c.useful_read_bytes = read;
    c.dram_write_bytes = write;
    c.useful_write_bytes = write;
    c.cuda_fp_insts = (elems * (split_k - 1)) as u64 / 32;
    c.global_load_insts = read / 512;
    c.insts_issued = c.cuda_fp_insts + c.global_load_insts + write / 512;
    let shape = LaunchShape {
        grid_blocks: (elems as u64).div_ceil(1024).max(1),
        block: BlockResources {
            threads: 256,
            regs_per_thread: 32,
            smem_bytes: 0,
        },
        iters_per_block: 1.0,
        mode: PipelineMode::AsyncDoubleBuffered,
        per_iter_fixed_cycles: 0.0,
        ramp_cycles: 300.0,
        inflight_bytes_per_warp: Some(1024.0),
        overlap_leak: None,
    };
    LaunchResult::from_execution("splitk_reduce", spec, shape, c, &[])
}

/// Non-zeros of an `m×k` matrix at `sparsity`, rounded to nearest —
/// the count every synthetic estimate prices.
pub fn synthetic_nnz(m: usize, k: usize, sparsity: f64) -> usize {
    ((m * k) as f64 * (1.0 - sparsity)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_accounting() {
        let mut c = Counters::new();
        stream_ldgsts(&mut c, 1024);
        assert_eq!(c.dram_read_bytes, 1024);
        assert_eq!(c.ldgsts_insts, 2);
        assert_eq!(c.smem_store_transactions, 8);
    }

    #[test]
    fn gather_accounting() {
        let mut c = Counters::new();
        gather(&mut c, 10, 8, 1);
        assert_eq!(c.dram_read_bytes, 320);
        assert_eq!(c.useful_read_bytes, 80);
        assert_eq!(c.dependent_gathers, 10);
    }

    #[test]
    fn cuda_fma_counts_warp_instructions() {
        let mut c = Counters::new();
        cuda_fma_work(&mut c, 6400);
        assert_eq!(c.cuda_fp_insts, 100);
    }
}
