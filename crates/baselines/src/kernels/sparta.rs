//! SparTA's composite SpMM (Zheng et al., OSDI'22).
//!
//! Executes the decomposed matrix as two kernels: the 2:4 part on *sparse
//! Tensor Cores* (`mma.sp`, half the dense traffic and double the TC
//! throughput) and the CSR residual on CUDA cores. The two kernels run
//! back-to-back and both read/write the output, so the composition
//! overhead plus the residual's irregularity leave SparTA only marginally
//! ahead of cuBLAS at 50% sparsity (paper Fig. 10: 1.01×).

use crate::formats::sparta_fmt::SpartaFormat;
use crate::kernels::common::{
    check_k, cuda_fma_work, finish_launch, gather, reduction_launch, single_launch, store_output,
    stream_ldgsts, tensor_core_work, validate_offsets,
};
use gpu_sim::counters::Counters;
use gpu_sim::kernel::{auto_split_k, pad8};
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, PipelineMode};
use spinfer_core::spmm::{LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::SpinferError;

/// The SparTA baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpartaSpmm;

/// Statistics the analytic path needs.
#[derive(Clone, Copy, Debug)]
pub struct SpartaStats {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub k: usize,
    /// Residual (CSR) non-zeros.
    pub csr_nnz: usize,
}

impl SpartaStats {
    /// From a real decomposition.
    pub fn from_encoded(w: &SpartaFormat) -> Self {
        SpartaStats {
            m: w.m,
            k: w.k,
            csr_nnz: w.residual.nnz(),
        }
    }

    /// Expected statistics under uniform sparsity (paper Eq. 4).
    pub fn synthetic(m: usize, k: usize, sparsity: f64) -> Self {
        SpartaStats {
            m,
            k,
            csr_nnz: SpartaFormat::expected_csr_nnz(m, k, sparsity).round() as usize,
        }
    }
}

impl SpartaSpmm {
    /// Creates the kernel.
    pub fn new() -> Self {
        SpartaSpmm
    }

    /// Analytic launch chain: sparse-TC kernel + CUDA-core residual kernel.
    pub fn estimate(&self, spec: &GpuSpec, stats: &SpartaStats, n: usize) -> SpmmRun {
        let n_pad = pad8(n);
        let tile_n = n_pad.min(32);
        let grid_x = n_pad.div_ceil(tile_n);
        let m = stats.m;
        let k = stats.k;
        let m_tiles = m.div_ceil(128);
        let k_tiles = k.div_ceil(32);
        let split_k = auto_split_k(spec, m_tiles * grid_x, k_tiles);

        // --- Kernel 1: 2:4 sparse Tensor Core GEMM ---
        let mut c1 = Counters::new();
        // 2:4 payload: 2 B per kept slot (MK/2 slots) + 2-bit metadata.
        let w_reread = gpu_sim::timing::panel_reread_factor(spec, k, n_pad, tile_n);
        let w24_bytes = ((2 * m * k / 2) + (m * k / 16)) as u64 * w_reread;
        stream_ldgsts(&mut c1, w24_bytes);
        let m_reread = gpu_sim::timing::panel_reread_factor(spec, k, m, 128);
        let x_row_sectors = (tile_n * 2).div_ceil(32) as u64;
        let x_bytes = (k * grid_x) as u64 * m_reread * x_row_sectors * 32;
        stream_ldgsts(&mut c1, x_bytes);
        // mma.sp: half the mma issues of dense for the same logical tile.
        let n8 = (tile_n / 8) as u64;
        let tctiles = ((m.div_ceil(16)) * (k.div_ceil(16)) * grid_x) as u64;
        let mma_sp = tctiles * n8 / 2;
        tensor_core_work(&mut c1, mma_sp, tctiles / 2 + tctiles * n8.div_ceil(2) / 2);
        // Metadata decode.
        c1.cuda_int_insts += tctiles;
        c1.insts_issued += tctiles;
        store_output(&mut c1, (4 * m * n_pad * split_k) as u64);
        let l2 = [L2Reuse {
            buffer_bytes: (2 * k * n_pad) as u64,
            requested_bytes: x_bytes,
        }];
        let mut chain = single_launch(
            "sparta_24_mma_sp",
            spec,
            c1,
            (m_tiles * grid_x * split_k) as u64,
            BlockResources {
                threads: 256,
                regs_per_thread: 80,
                smem_bytes: 32 * 1024,
            },
            (k_tiles / split_k).max(1) as f64,
            PipelineMode::AsyncDoubleBuffered,
            20.0,
            None,
            &l2,
        );
        if split_k > 1 {
            chain.push(reduction_launch(spec, m * n_pad, split_k));
        }

        // --- Kernel 2: CUDA-core CSR residual (accumulates into output) ---
        let mut c2 = Counters::new();
        let csr_bytes = (6 * stats.csr_nnz + 4 * (m + 1)) as u64;
        stream_ldgsts(&mut c2, csr_bytes);
        let gathers = (stats.csr_nnz as u64).div_ceil(8);
        let row_bytes = (n_pad * 2) as u64;
        gather(&mut c2, gathers, row_bytes, row_bytes.div_ceil(32));
        cuda_fma_work(&mut c2, 2 * stats.csr_nnz as u64 * n_pad as u64);
        // Read-modify-write of the output.
        let out_bytes = (4 * m * n_pad) as u64;
        c2.dram_read_bytes += out_bytes;
        c2.useful_read_bytes += out_bytes;
        store_output(&mut c2, out_bytes);
        let l2b = [L2Reuse {
            buffer_bytes: (2 * k * n_pad) as u64,
            requested_bytes: gathers * row_bytes.div_ceil(32) * 32,
        }];
        let residual = single_launch(
            "sparta_csr_residual",
            spec,
            c2,
            (m as u64).div_ceil(32).max(1),
            BlockResources {
                threads: 256,
                regs_per_thread: 48,
                smem_bytes: 8 * 1024,
            },
            (stats.csr_nnz as f64 / m.max(1) as f64 / 8.0).max(1.0),
            PipelineMode::Synchronous,
            8.0,
            Some(768.0),
            &l2b,
        );
        chain.push(residual.launches.into_iter().next().expect("one launch"));

        SpmmRun {
            output: None,
            chain,
        }
    }
}

impl SpmmKernel for SpartaSpmm {
    type Encoded = SpartaFormat;

    fn name(&self) -> &'static str {
        "SparTA"
    }

    fn format_key(&self) -> &'static str {
        "sparta"
    }

    fn encode(&self, w: &DenseMatrix) -> SpartaFormat {
        SpartaFormat::encode(w)
    }

    fn validate(&self, enc: &SpartaFormat) -> Result<(), SpinferError> {
        // The 2:4 part is positional (fixed layout); structure lives in
        // the CSR residual.
        validate_offsets(
            &enc.residual.row_ptr,
            enc.residual.m + 1,
            enc.residual.values.len(),
        )
    }

    fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun {
        self.estimate(spec, &SpartaStats::synthetic(m, k, sparsity), n)
    }

    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &SpartaFormat,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        check_k(enc.k, x)?;
        if ctx.checked() {
            self.validate(enc)?;
        }
        let stats = SpartaStats::from_encoded(enc);
        let r = self.estimate(ctx.spec, &stats, x.cols());
        // Fanned across host cores; bit-identical to the serial
        // reference (see `gpu_sim::exec`).
        Ok(finish_launch(
            ctx,
            self.name(),
            r,
            enc.decode().par_matmul_ref(x),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};

    #[test]
    fn functional_output_matches_reference() {
        let spec = GpuSpec::rtx4090();
        let w = random_sparse(64, 64, 0.5, ValueDist::Uniform, 81);
        let x = random_dense(64, 16, ValueDist::Uniform, 82);
        let r = SpartaSpmm::new().run(&spec, &w, &x);
        assert_eq!(r.output.unwrap(), w.matmul_ref(&x));
    }

    #[test]
    fn marginal_gain_over_cublas_at_50_percent() {
        use crate::kernels::cublas::CublasGemm;
        let spec = GpuSpec::rtx4090();
        let sp = SpartaSpmm::new()
            .estimate(&spec, &SpartaStats::synthetic(8192, 8192, 0.5), 16)
            .time_us();
        let cb = CublasGemm::new().estimate(&spec, 8192, 8192, 16).time_us();
        let speedup = cb / sp;
        assert!(
            speedup > 0.85 && speedup < 1.3,
            "SparTA speedup vs cuBLAS at 50%: {speedup}"
        );
    }

    #[test]
    fn residual_shrinks_with_sparsity() {
        let s60 = SpartaStats::synthetic(4096, 4096, 0.6);
        let s80 = SpartaStats::synthetic(4096, 4096, 0.8);
        assert!(s80.csr_nnz < s60.csr_nnz);
    }

    #[test]
    fn two_kernel_chain() {
        let spec = GpuSpec::rtx4090();
        let r = SpartaSpmm::new().estimate(&spec, &SpartaStats::synthetic(4096, 4096, 0.5), 16);
        assert!(r.chain.launches.len() >= 2);
        assert!(r
            .chain
            .launches
            .iter()
            .any(|l| l.name == "sparta_csr_residual"));
    }
}
