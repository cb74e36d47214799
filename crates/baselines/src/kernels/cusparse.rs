//! cuSPARSE-style generic CSR SpMM (the vendor library baseline).
//!
//! cuSPARSE's CSR SpMM is tuned for high-sparsity scientific matrices and
//! wide dense operands. At LLM shapes it is the paper's weakest baseline
//! (SpInfer averages 18× over it) for two modelled reasons:
//!
//! * **No register blocking over N for skinny inputs**: the CSR structure
//!   (values + 4 B indices) is re-traversed once per 4-column slab of the
//!   output, multiplying W traffic by `⌈N/4⌉`.
//! * **Scalar dependent gathers**: every non-zero triggers an
//!   index-then-load chain with low memory-level parallelism, leaving
//!   bandwidth unsaturated (modelled by the dependent-gather latency term
//!   and a synchronous, shallow pipeline).

use crate::formats::csr::Csr;
use crate::kernels::common::{
    check_k, cuda_fma_work, finish_launch, gather, pad8, single_launch, store_output,
    stream_ldg_via_rf, synthetic_nnz, validate_offsets,
};
use gpu_sim::counters::Counters;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, PipelineMode};
use spinfer_core::error::IntegrityError;
use spinfer_core::spmm::{LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::SpinferError;

/// Output columns computed per CSR traversal.
const N_SLAB: usize = 4;

/// The cuSPARSE baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CusparseSpmm;

impl CusparseSpmm {
    /// Creates the kernel.
    pub fn new() -> Self {
        CusparseSpmm
    }

    /// Analytic launch from matrix statistics.
    pub fn estimate(&self, spec: &GpuSpec, m: usize, k: usize, n: usize, nnz: usize) -> SpmmRun {
        let n_pad = pad8(n);
        let slabs = n_pad.div_ceil(N_SLAB) as u64;
        let mut c = Counters::new();
        // CSR re-read per output slab.
        let csr_bytes = (6 * nnz + 4 * (m + 1)) as u64 * slabs;
        stream_ldg_via_rf(&mut c, csr_bytes);
        // Scalar X gathers: one dependent gather per non-zero per slab,
        // touching an 8-byte slab row (one 32 B sector).
        let gathers = nnz as u64 * slabs / 32;
        let x_requested = gathers * 32;
        gather(&mut c, gathers, (N_SLAB * 2) as u64, 1);
        // The per-element chains issue far more scalar gathers than the
        // warp-level count above: charge per-lane dependency.
        c.dependent_gathers += gathers * 4;
        cuda_fma_work(&mut c, 2 * nnz as u64 * n_pad as u64);
        c.cuda_int_insts += nnz as u64 * slabs / 8;
        c.insts_issued += nnz as u64 * slabs / 8;
        store_output(&mut c, (4 * m * n_pad) as u64);

        let l2 = [L2Reuse {
            buffer_bytes: (2 * k * n_pad) as u64,
            requested_bytes: x_requested,
        }];
        let grid = (m as u64).div_ceil(128).max(1);
        let chain = single_launch(
            "cusparse_csr_spmm",
            spec,
            c,
            grid,
            BlockResources {
                threads: 128,
                regs_per_thread: 40,
                smem_bytes: 4 * 1024,
            },
            (nnz as f64 / m.max(1) as f64 / 32.0).max(1.0),
            PipelineMode::Synchronous,
            12.0,
            Some(256.0),
            &l2,
        );
        SpmmRun {
            output: None,
            chain,
        }
    }
}

impl SpmmKernel for CusparseSpmm {
    type Encoded = Csr;

    fn name(&self) -> &'static str {
        "cuSPARSE"
    }

    fn format_key(&self) -> &'static str {
        "csr"
    }

    fn encode(&self, w: &DenseMatrix) -> Csr {
        Csr::encode(w)
    }

    fn validate(&self, enc: &Csr) -> Result<(), SpinferError> {
        validate_offsets(&enc.row_ptr, enc.m + 1, enc.values.len())?;
        if enc.col_idx.len() != enc.values.len() {
            return Err(IntegrityError::NnzMismatch {
                expected: enc.values.len(),
                got: enc.col_idx.len(),
            }
            .into());
        }
        Ok(())
    }

    fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun {
        self.estimate(spec, m, k, n, synthetic_nnz(m, k, sparsity))
    }

    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &Csr,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        check_k(enc.k, x)?;
        if ctx.checked() {
            self.validate(enc)?;
        }
        let r = self.estimate(ctx.spec, enc.m, enc.k, x.cols(), enc.nnz());
        // Fanned across host cores; bit-identical to the serial
        // reference (see `gpu_sim::exec`).
        Ok(finish_launch(ctx, self.name(), r, enc.par_spmm_ref(x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};

    #[test]
    fn functional_output_matches_reference() {
        let spec = GpuSpec::rtx4090();
        let w = random_sparse(64, 80, 0.6, ValueDist::Uniform, 71);
        let x = random_dense(80, 8, ValueDist::Uniform, 72);
        let r = CusparseSpmm::new().run(&spec, &w, &x);
        let got = r.output.unwrap();
        let want = w.matmul_ref(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn far_slower_than_cublas_at_llm_shapes() {
        // Paper Fig. 1/10: cuSPARSE is roughly an order of magnitude off.
        use crate::kernels::cublas::CublasGemm;
        let spec = GpuSpec::rtx4090();
        let nnz = 8192 * 8192 / 2;
        let cu = CusparseSpmm::new()
            .estimate(&spec, 8192, 8192, 16, nnz)
            .time_us();
        let cb = CublasGemm::new().estimate(&spec, 8192, 8192, 16).time_us();
        let speedup = cb / cu;
        assert!(speedup < 0.35, "cuSPARSE relative speed {speedup}");
    }

    #[test]
    fn traffic_grows_with_n_due_to_slab_rereads() {
        let spec = GpuSpec::rtx4090();
        let nnz = 4096 * 4096 / 2;
        let r8 = CusparseSpmm::new().estimate(&spec, 4096, 4096, 8, nnz);
        let r32 = CusparseSpmm::new().estimate(&spec, 4096, 4096, 32, nnz);
        assert!(
            r32.chain.launches[0].counters.dram_read_bytes
                > 3 * r8.chain.launches[0].counters.dram_read_bytes
        );
    }
}
