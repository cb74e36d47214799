//! Sputnik-style CUDA-core SpMM (Gale et al., SC'20).
//!
//! One-dimensional tiling: each warp owns a strip of output rows, streams
//! its CSR values/indices with vector loads (`LDG.128`, reverse-offset
//! alignment), gathers rows of `X`, and accumulates with CUDA-core FMAs.
//! Well engineered for its class — but it pays 6 B per non-zero of CSR
//! traffic (CR < 1 below ~67% sparsity) and its FLOPs run on CUDA cores,
//! not Tensor Cores, so it trails dense cuBLAS at LLM sparsities (paper
//! Fig. 10 shows SpInfer ≈ 2.55× over it).

use crate::formats::csr::Csr;
use crate::kernels::common::{
    check_k, cuda_fma_work, finish_launch, gather, single_launch, store_output, stream_ldg_via_rf,
    synthetic_nnz, validate_offsets,
};
use gpu_sim::counters::Counters;
use gpu_sim::kernel::pad8;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, PipelineMode};
use spinfer_core::error::IntegrityError;
use spinfer_core::spmm::{LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::SpinferError;

/// Values/indices per vector load (8 × (2 B + 4 B) ≈ one 128-bit load
/// pair); the gather granularity of the kernel.
const VECTOR_WIDTH: u64 = 8;

/// The Sputnik baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SputnikSpmm;

impl SputnikSpmm {
    /// Creates the kernel.
    pub fn new() -> Self {
        SputnikSpmm
    }

    /// Analytic launch from matrix statistics, assuming balanced rows
    /// (the pattern per-row pruners produce).
    pub fn estimate(&self, spec: &GpuSpec, m: usize, k: usize, n: usize, nnz: usize) -> SpmmRun {
        self.estimate_with_imbalance(spec, m, k, n, nnz, 0.0)
    }

    /// Analytic launch with an explicit per-row non-zero coefficient of
    /// variation `row_cv` (`std / mean`). Row-per-warp scheduling makes
    /// the kernel finish with its slowest rows: the exposed tail scales
    /// with the imbalance (Sputnik's row-swizzle mitigates but does not
    /// remove it — modelled at half strength).
    pub fn estimate_with_imbalance(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        nnz: usize,
        row_cv: f64,
    ) -> SpmmRun {
        let mut run = self.estimate_balanced(spec, m, k, n, nnz);
        let tail = 1.0 + 0.5 * row_cv.max(0.0);
        for l in &mut run.chain.launches {
            l.timing.time_sec *= tail;
            l.timing.cycles *= tail;
        }
        run
    }

    fn estimate_balanced(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        nnz: usize,
    ) -> SpmmRun {
        let n_pad = pad8(n);
        let mut c = Counters::new();
        // CSR stream: 6 B per non-zero plus row pointers, vectorized.
        let csr_bytes = (6 * nnz + 4 * (m + 1)) as u64;
        stream_ldg_via_rf(&mut c, csr_bytes);
        // X gathers: one dependent gather per VECTOR_WIDTH non-zeros per
        // lane-row; each touches `n_pad × 2` contiguous bytes.
        let gathers = (nnz as u64).div_ceil(VECTOR_WIDTH);
        let row_bytes = (n_pad * 2) as u64;
        let x_requested = gathers * row_bytes.div_ceil(32) * 32;
        gather(&mut c, gathers, row_bytes, row_bytes.div_ceil(32));
        // FMAs on CUDA cores: 2 × nnz × N FLOPs.
        cuda_fma_work(&mut c, 2 * nnz as u64 * n_pad as u64);
        // Index arithmetic per vector.
        c.cuda_int_insts += gathers * 2;
        c.insts_issued += gathers * 2;
        store_output(&mut c, (4 * m * n_pad) as u64);

        let l2 = [L2Reuse {
            buffer_bytes: (2 * k * n_pad) as u64,
            requested_bytes: x_requested,
        }];
        // One warp per row strip; 32-row blocks.
        let grid = (m as u64).div_ceil(32).max(1);
        let chain = single_launch(
            "sputnik_spmm",
            spec,
            c,
            grid,
            BlockResources {
                threads: 256,
                regs_per_thread: 64,
                smem_bytes: 8 * 1024,
            },
            (nnz as f64 / m.max(1) as f64 / VECTOR_WIDTH as f64).max(1.0),
            PipelineMode::Synchronous,
            8.0,
            Some(768.0),
            &l2,
        );
        SpmmRun {
            output: None,
            chain,
        }
    }
}

impl SpmmKernel for SputnikSpmm {
    type Encoded = Csr;

    fn name(&self) -> &'static str {
        "Sputnik"
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
        let w = random_sparse(96, 96, 0.5, ValueDist::Uniform, 61);
        let x = random_dense(96, 16, ValueDist::Uniform, 62);
        let r = SputnikSpmm::new().run(&spec, &w, &x);
        let got = r.output.unwrap();
        let want = w.matmul_ref(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn slower_than_cublas_at_50_percent() {
        use crate::kernels::cublas::CublasGemm;
        let spec = GpuSpec::rtx4090();
        let nnz = 8192 * 8192 / 2;
        let sp = SputnikSpmm::new()
            .estimate(&spec, 8192, 8192, 16, nnz)
            .time_us();
        let cb = CublasGemm::new().estimate(&spec, 8192, 8192, 16).time_us();
        let speedup = cb / sp;
        assert!(speedup < 0.95, "sputnik speedup {speedup}");
        assert!(
            speedup > 0.3,
            "sputnik should not be catastrophic: {speedup}"
        );
    }

    #[test]
    fn row_imbalance_exposes_a_tail() {
        let spec = GpuSpec::rtx4090();
        let nnz = 4096 * 4096 / 2;
        let balanced = SputnikSpmm::new()
            .estimate_with_imbalance(&spec, 4096, 4096, 16, nnz, 0.0)
            .time_us();
        let skewed = SputnikSpmm::new()
            .estimate_with_imbalance(&spec, 4096, 4096, 16, nnz, 1.0)
            .time_us();
        assert!((skewed / balanced - 1.5).abs() < 1e-6);
    }

    #[test]
    fn improves_with_sparsity() {
        let spec = GpuSpec::rtx4090();
        let t50 = SputnikSpmm::new()
            .estimate(&spec, 4096, 4096, 16, 4096 * 4096 / 2)
            .time_us();
        let t90 = SputnikSpmm::new()
            .estimate(&spec, 4096, 4096, 16, 4096 * 4096 / 10)
            .time_us();
        assert!(t90 < t50 * 0.5);
    }
}
