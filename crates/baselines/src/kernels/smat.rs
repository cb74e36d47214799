//! SMaT-style BCSR Tensor-Core SpMM (Okanovic et al., 2024).
//!
//! Designed for highly sparse scientific matrices: only non-empty 16×16
//! blocks are stored and multiplied, so performance scales with *block*
//! density, not element density. At uniform LLM sparsities every block is
//! non-empty and SMaT degenerates to dense GEMM plus index overhead and a
//! less efficient small-block streaming pattern; with clustered extreme
//! sparsity (>99.7%) block skipping wins (paper Fig. 11's crossover).

use crate::formats::bcsr::Bcsr;
use crate::kernels::common::{
    check_k, finish_launch, single_launch, store_output, stream_ldgsts, tensor_core_work,
    validate_offsets,
};
use gpu_sim::counters::Counters;
use gpu_sim::kernel::pad8;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::occupancy::BlockResources;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::{L2Reuse, PipelineMode};
use spinfer_core::spmm::{LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::SpinferError;

/// The SMaT baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmatSpmm;

/// Statistics the analytic path needs.
#[derive(Clone, Copy, Debug)]
pub struct SmatStats {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub k: usize,
    /// Stored (non-empty) 16×16 blocks.
    pub stored_blocks: usize,
}

impl SmatStats {
    /// From a real encoding.
    pub fn from_encoded(w: &Bcsr) -> Self {
        SmatStats {
            m: w.m,
            k: w.k,
            stored_blocks: w.num_blocks(),
        }
    }

    /// Expected statistics under *uniform* element sparsity.
    pub fn synthetic_uniform(m: usize, k: usize, sparsity: f64) -> Self {
        let slots = m.div_ceil(16) * k.div_ceil(16);
        let p = 1.0 - sparsity.powi(256);
        SmatStats {
            m,
            k,
            stored_blocks: (slots as f64 * p).round() as usize,
        }
    }

    /// Statistics for *clustered* sparsity where non-zeros concentrate in
    /// a `block_density` fraction of blocks (scientific matrices).
    pub fn synthetic_clustered(m: usize, k: usize, block_density: f64) -> Self {
        let slots = m.div_ceil(16) * k.div_ceil(16);
        SmatStats {
            m,
            k,
            stored_blocks: (slots as f64 * block_density.clamp(0.0, 1.0)).round() as usize,
        }
    }
}

impl SmatSpmm {
    /// Creates the kernel.
    pub fn new() -> Self {
        SmatSpmm
    }

    /// Analytic launch from block statistics.
    pub fn estimate(&self, spec: &GpuSpec, stats: &SmatStats, n: usize) -> SpmmRun {
        let n_pad = pad8(n);
        let tile_n = n_pad.min(32);
        let grid_x = n_pad.div_ceil(tile_n);
        let mut c = Counters::new();
        // Stored blocks stream densely (512 B each) plus BCSR indices.
        let w_reread = gpu_sim::timing::panel_reread_factor(spec, stats.k, n_pad, tile_n);
        let w_bytes =
            (stats.stored_blocks * (512 + 4) + 4 * (stats.m.div_ceil(16) + 1)) as u64 * w_reread;
        stream_ldgsts(&mut c, w_bytes);
        // X rows gathered per stored block (block-column indexed).
        let x_bytes = (stats.stored_blocks * 16 * tile_n * 2) as u64 * grid_x as u64;
        c.dram_read_bytes += x_bytes;
        c.useful_read_bytes += x_bytes;
        c.global_load_insts += x_bytes.div_ceil(512);
        c.insts_issued += x_bytes.div_ceil(512);
        // One mma chain per stored block.
        let n8 = (tile_n / 8) as u64;
        let blocks = stats.stored_blocks as u64 * grid_x as u64;
        tensor_core_work(&mut c, blocks * n8, blocks + blocks * n8.div_ceil(2));
        c.cuda_int_insts += blocks * 2;
        c.insts_issued += blocks * 2;
        store_output(&mut c, (4 * stats.m * n_pad) as u64);

        let l2 = [L2Reuse {
            buffer_bytes: (2 * stats.k * n_pad) as u64,
            requested_bytes: x_bytes,
        }];
        let grid = (stats.m.div_ceil(64) * grid_x) as u64;
        let avg_blocks_per_row = stats.stored_blocks as f64 / stats.m.div_ceil(16).max(1) as f64;
        let chain = single_launch(
            "smat_bcsr_spmm",
            spec,
            c,
            grid.max(1),
            BlockResources {
                threads: 128,
                regs_per_thread: 72,
                smem_bytes: 24 * 1024,
            },
            avg_blocks_per_row.max(1.0),
            PipelineMode::AsyncDoubleBuffered,
            28.0,
            Some(1536.0),
            &l2,
        );
        SpmmRun {
            output: None,
            chain,
        }
    }
}

impl SpmmKernel for SmatSpmm {
    type Encoded = Bcsr;

    fn name(&self) -> &'static str {
        "SMaT"
    }

    fn format_key(&self) -> &'static str {
        "bcsr"
    }

    fn encode(&self, w: &DenseMatrix) -> Bcsr {
        Bcsr::encode(w)
    }

    fn validate(&self, enc: &Bcsr) -> Result<(), SpinferError> {
        validate_offsets(
            &enc.row_ptr,
            enc.m.div_ceil(enc.block) + 1,
            enc.col_idx.len(),
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
        self.estimate(spec, &SmatStats::synthetic_uniform(m, k, sparsity), n)
    }

    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &Bcsr,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        check_k(enc.k, x)?;
        if ctx.checked() {
            self.validate(enc)?;
        }
        // Block occupancy measured from the real pattern.
        let stats = SmatStats::from_encoded(enc);
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
        let w = random_sparse(64, 64, 0.9, ValueDist::Uniform, 91);
        let x = random_dense(64, 8, ValueDist::Uniform, 92);
        let r = SmatSpmm::new().run(&spec, &w, &x);
        assert_eq!(r.output.unwrap(), w.matmul_ref(&x));
    }

    #[test]
    fn no_skipping_at_llm_sparsity() {
        let s = SmatStats::synthetic_uniform(4096, 4096, 0.5);
        assert_eq!(s.stored_blocks, 256 * 256);
    }

    #[test]
    fn slower_than_spinfer_at_llm_sparsity() {
        // Paper Fig. 11: SpInfer 2.12× over SMaT at 50%.
        use spinfer_core::{FormatStats, SpinferSpmm};
        let spec = GpuSpec::rtx4090();
        let sm = SmatSpmm::new()
            .estimate(&spec, &SmatStats::synthetic_uniform(8192, 8192, 0.5), 16)
            .time_us();
        let sp = SpinferSpmm::new()
            .estimate(&spec, &FormatStats::synthetic(8192, 8192, 0.5), 16)
            .time_us();
        let ratio = sm / sp;
        assert!(ratio > 1.5, "SpInfer/SMaT ratio {ratio}");
    }

    #[test]
    fn wins_at_clustered_extreme_sparsity() {
        // Block skipping beats SpInfer's bitmap floor when almost all
        // blocks are empty (the Fig. 11 crossover).
        use spinfer_core::{FormatStats, SpinferSpmm};
        let spec = GpuSpec::rtx4090();
        let sm = SmatSpmm::new()
            .estimate(
                &spec,
                &SmatStats::synthetic_clustered(8192, 8192, 0.005),
                16,
            )
            .time_us();
        let sp = SpinferSpmm::new()
            .estimate(&spec, &FormatStats::synthetic(8192, 8192, 0.999), 16)
            .time_us();
        assert!(sm < sp, "SMaT {sm} should beat SpInfer {sp} here");
    }

    #[test]
    fn time_scales_with_block_density() {
        let spec = GpuSpec::rtx4090();
        let dense = SmatSpmm::new()
            .estimate(&spec, &SmatStats::synthetic_clustered(8192, 8192, 1.0), 16)
            .time_us();
        let sparse = SmatSpmm::new()
            .estimate(&spec, &SmatStats::synthetic_clustered(8192, 8192, 0.1), 16)
            .time_us();
        assert!(sparse < dense * 0.3);
    }
}
