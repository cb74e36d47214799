//! Dense Tensor-Core GEMM — the cuBLAS_TC baseline every paper figure
//! normalises against.
//!
//! Models a CUTLASS-style kernel: `LDGSTS.128` streams both operands
//! straight to shared memory (the "ideal" data path of paper Fig. 7),
//! double-buffered with split-K for skinny N. The weight matrix is read
//! in full — dense GEMM pays `2B × M × K` of DRAM traffic regardless of
//! sparsity, which is exactly the cost SpMM formats compete against.

use crate::kernels::common::{
    auto_split_k, check_k, finish_launch, pad8, reduction_launch, single_launch, store_output,
    stream_ldgsts, tensor_core_work,
};
use gpu_sim::counters::Counters;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, PipelineMode};
use spinfer_core::spmm::{LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::SpinferError;

/// M-dimension tile per thread block.
const TILE_M: usize = 128;
/// K-dimension tile per main-loop iteration.
const TILE_K: usize = 32;

/// The dense GEMM baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CublasGemm;

impl CublasGemm {
    /// Creates the kernel.
    pub fn new() -> Self {
        CublasGemm
    }

    /// Analytic launch for an `M×K` dense weight against a `K×N` input.
    pub fn estimate(&self, spec: &GpuSpec, m: usize, k: usize, n: usize) -> SpmmRun {
        let n_pad = pad8(n);
        let tile_n = if n_pad <= 64 { n_pad } else { n_pad.min(128) };
        let grid_x = n_pad.div_ceil(tile_n);
        let m_tiles = m.div_ceil(TILE_M);
        let k_tiles = k.div_ceil(TILE_K);
        let split_k = auto_split_k(spec, m_tiles * grid_x, k_tiles);
        let grid = (m_tiles * grid_x * split_k) as u64;

        let mut c = Counters::new();
        // W streamed in full once per L2 reuse window of output columns
        // (wave-level reuse caps the per-tile re-read), and symmetrically
        // for X over output rows.
        let w_reread = gpu_sim::timing::panel_reread_factor(spec, k, n_pad, tile_n);
        let w_bytes = (2 * m.div_ceil(TILE_M) * TILE_M * k) as u64 * w_reread;
        stream_ldgsts(&mut c, w_bytes);
        let m_reread = gpu_sim::timing::panel_reread_factor(spec, k, m, TILE_M);
        let x_bytes = (2 * k * n_pad) as u64 * m_reread;
        stream_ldgsts(&mut c, x_bytes);
        // Tensor-core work: full dense mma count; one ldmatrix.x4 per
        // 16×16 of A and per 16×16 of B.
        let n8 = (tile_n / 8) as u64;
        let tctiles = (m_tiles * (TILE_M / 16) * k_tiles * (TILE_K / 16) * grid_x) as u64;
        let mma = tctiles * n8;
        let ldsm = tctiles + tctiles * n8.div_ceil(2);
        tensor_core_work(&mut c, mma, ldsm);
        // Epilogue.
        store_output(&mut c, (4 * m * n_pad * split_k) as u64);

        let l2 = [L2Reuse {
            buffer_bytes: (2 * k * n_pad) as u64,
            requested_bytes: x_bytes,
        }];
        // Register budget: FP32 accumulators (TILE_M × tile_n over 256
        // threads) plus staging; skinny-N configurations are lighter.
        let regs = 48 + (TILE_M * tile_n / 256) as u32;
        let smem = (2 * (TILE_M * TILE_K + TILE_K * tile_n) * 2) as u32;
        let mut chain = single_launch(
            "cublas_tc_gemm",
            spec,
            c,
            grid,
            BlockResources {
                threads: 256,
                regs_per_thread: regs,
                smem_bytes: smem,
            },
            (k_tiles / split_k).max(1) as f64,
            PipelineMode::AsyncDoubleBuffered,
            16.0,
            None,
            &l2,
        );
        if split_k > 1 {
            chain.push(reduction_launch(spec, m * n_pad, split_k));
        }
        SpmmRun {
            output: None,
            chain,
        }
    }
}

impl SpmmKernel for CublasGemm {
    /// Dense GEMM "encodes" to the dense matrix itself.
    type Encoded = DenseMatrix;

    fn name(&self) -> &'static str {
        "cuBLAS_TC"
    }

    fn format_key(&self) -> &'static str {
        "dense"
    }

    fn encode(&self, w: &DenseMatrix) -> DenseMatrix {
        w.clone()
    }

    /// Dense: the weight sparsity does not change the work.
    fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        _sparsity: f64,
    ) -> SpmmRun {
        self.estimate(spec, m, k, n)
    }

    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &DenseMatrix,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        check_k(enc.cols(), x)?;
        let r = self.estimate(ctx.spec, enc.rows(), enc.cols(), x.cols());
        // Fanned across host cores; bit-identical to the serial
        // reference (see `gpu_sim::exec`).
        Ok(finish_launch(ctx, self.name(), r, enc.par_matmul_ref(x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_dense, ValueDist};

    #[test]
    fn functional_output_is_reference() {
        let spec = GpuSpec::rtx4090();
        let w = random_dense(64, 64, ValueDist::Uniform, 41);
        let x = random_dense(64, 16, ValueDist::Uniform, 42);
        let r = CublasGemm::new().run(&spec, &w, &x);
        assert_eq!(r.output.unwrap(), w.matmul_ref(&x));
    }

    #[test]
    fn time_scales_with_weight_bytes_in_decode_regime() {
        let spec = GpuSpec::rtx4090();
        let t1 = CublasGemm::new().estimate(&spec, 4096, 4096, 16).time_us();
        let t2 = CublasGemm::new().estimate(&spec, 8192, 4096, 16).time_us();
        let ratio = t2 / t1;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn achieves_high_bandwidth_at_llm_shapes() {
        let spec = GpuSpec::rtx4090();
        let r = CublasGemm::new().estimate(&spec, 28672, 8192, 16);
        let bw = r.chain.launches[0].timing.bw_util;
        assert!(bw > 0.75, "bw_util {bw}");
    }

    #[test]
    fn decode_shape_is_memory_bound_prefill_is_compute_bound() {
        use gpu_sim::timing::Bound;
        let spec = GpuSpec::rtx4090();
        let decode = CublasGemm::new().estimate(&spec, 28672, 8192, 16);
        assert_eq!(decode.chain.launches[0].timing.bound, Bound::Memory);
        let prefill = CublasGemm::new().estimate(&spec, 28672, 8192, 4096);
        assert_eq!(prefill.chain.launches[0].timing.bound, Bound::TensorCore);
    }

    #[test]
    fn dense_time_close_to_bandwidth_roofline() {
        // 28672×8192 FP16 = 470 MB; at ~92% of 1008 GB/s ≈ 480-560 us.
        let spec = GpuSpec::rtx4090();
        let t = CublasGemm::new().estimate(&spec, 28672, 8192, 16).time_us();
        assert!(t > 400.0 && t < 700.0, "t {t}");
    }
}
