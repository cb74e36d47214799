//! Adaptive format/kernel selection (paper §6, future work).
//!
//! The paper notes that above ~90% sparsity bitmap indexing wastes bits
//! on zeros and CSR-family formats regain the storage lead, while block
//! formats win on clustered matrices. This module implements the obvious
//! production policy: measure the candidate encodings' storage (and
//! pattern statistics) and route each matrix to the format + kernel that
//! minimises predicted kernel time, with storage as the tiebreak.

use crate::formats::bcsr::Bcsr;
use crate::formats::csr::Csr;
use crate::kernels::smat::{SmatSpmm, SmatStats};
use crate::kernels::sputnik::SputnikSpmm;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;
use spinfer_core::{FormatStats, SpinferSpmm, TcaBme};

/// A routing decision with its predictions.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Registered name of the chosen kernel (resolvable through
    /// [`crate::kernel_by_name`]): `"SpInfer"` on TCA-BME, `"Sputnik"`
    /// on CSR, or `"SMaT"` on BCSR.
    pub kernel: &'static str,
    /// Predicted kernel time for batch `n`, microseconds.
    pub predicted_us: f64,
    /// Stored bytes under the chosen format.
    pub storage_bytes: usize,
    /// Every candidate `(kernel name, predicted_us, storage_bytes)`.
    pub candidates: Vec<(&'static str, f64, usize)>,
}

/// Routes a matrix by *measured* pattern statistics: encodes candidates,
/// predicts kernel time at batch `n`, picks the fastest (storage breaks
/// ties within 2%).
/// # Examples
///
/// ```
/// use gpu_sim::matrix::{random_sparse, ValueDist};
/// use gpu_sim::GpuSpec;
/// use spinfer_baselines::select;
///
/// let w = random_sparse(256, 256, 0.55, ValueDist::Uniform, 0);
/// let sel = select(&GpuSpec::rtx4090(), &w, 16);
/// assert_eq!(sel.kernel, "SpInfer"); // LLM-band sparsity.
/// ```
pub fn select(spec: &GpuSpec, matrix: &DenseMatrix, n: usize) -> Selection {
    let m = matrix.rows();
    let k = matrix.cols();
    let nnz = matrix.nnz();

    // TCA-BME candidate.
    let bme = TcaBme::encode(matrix);
    let bme_time = SpinferSpmm::new()
        .estimate(spec, &FormatStats::from_encoded(&bme), n)
        .time_us();
    let bme_bytes = bme.storage_bytes();

    // CSR candidate.
    let csr_bytes = Csr::storage_bytes_formula(m, nnz);
    let csr_time = SputnikSpmm::new().estimate(spec, m, k, n, nnz).time_us();

    // BCSR candidate (block occupancy measured from the real pattern).
    let bcsr = Bcsr::encode(matrix);
    let smat_time = SmatSpmm::new()
        .estimate(spec, &SmatStats::from_encoded(&bcsr), n)
        .time_us();
    let bcsr_bytes = bcsr.storage_bytes();

    let candidates = vec![
        ("SpInfer", bme_time, bme_bytes),
        ("Sputnik", csr_time, csr_bytes),
        ("SMaT", smat_time, bcsr_bytes),
    ];
    let mut best = candidates[0];
    for c in &candidates[1..] {
        let faster = c.1 < best.1 * 0.98;
        let tied_but_smaller = c.1 < best.1 * 1.02 && c.2 < best.2;
        if faster || tied_but_smaller {
            best = *c;
        }
    }
    Selection {
        kernel: best.0,
        predicted_us: best.1,
        storage_bytes: best.2,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{max_abs_diff, random_sparse, random_sparse_clustered, ValueDist};

    #[test]
    fn llm_sparsity_routes_to_tca_bme() {
        let spec = GpuSpec::rtx4090();
        for &s in &[0.4, 0.5, 0.6, 0.7] {
            let m = random_sparse(1024, 1024, s, ValueDist::Uniform, 71);
            let sel = select(&spec, &m, 16);
            assert_eq!(sel.kernel, "SpInfer", "sparsity {s}");
        }
    }

    #[test]
    fn extreme_uniform_sparsity_leaves_tca_bme() {
        // At 99.8% uniform the bitmap floor dominates; CSR storage is an
        // order of magnitude smaller and a CUDA-core kernel wins.
        let spec = GpuSpec::rtx4090();
        let m = random_sparse(2048, 2048, 0.998, ValueDist::Uniform, 72);
        let sel = select(&spec, &m, 16);
        assert_ne!(sel.kernel, "SpInfer", "chose {}", sel.kernel);
    }

    #[test]
    fn clustered_extreme_sparsity_routes_to_block_format() {
        let spec = GpuSpec::rtx4090();
        let m = random_sparse_clustered(2048, 2048, 16, 0.01, 0.7, ValueDist::Uniform, 73);
        let sel = select(&spec, &m, 16);
        assert_eq!(sel.kernel, "SMaT", "chose {}", sel.kernel);
    }

    #[test]
    fn selections_resolve_through_the_registry() {
        let spec = GpuSpec::rtx4090();
        let m = random_sparse(512, 512, 0.5, ValueDist::Uniform, 75);
        let sel = select(&spec, &m, 16);
        let kernel = crate::kernel_by_name(sel.kernel).expect("selected kernel is registered");
        assert_eq!(kernel.name(), sel.kernel);
        // The resolved kernel actually launches on the routed matrix.
        // SpInfer accumulates in tile order, so compare with tolerance.
        let x = gpu_sim::matrix::random_dense(512, 8, ValueDist::Uniform, 76);
        let run = kernel.run(&spec, &m, &x);
        let err = max_abs_diff(run.output.as_ref().unwrap(), &m.matmul_ref(&x));
        assert!(err < 0.5, "routed kernel output error {err}");
    }

    #[test]
    fn every_candidate_names_a_registered_kernel() {
        let spec = GpuSpec::rtx4090();
        let m = random_sparse(256, 256, 0.5, ValueDist::Uniform, 77);
        for (name, _, _) in select(&spec, &m, 16).candidates {
            let kernel = crate::kernel_by_name(name).expect("candidate is registered");
            assert_eq!(kernel.name(), name);
        }
    }

    #[test]
    fn selection_reports_all_candidates() {
        let spec = GpuSpec::rtx4090();
        let m = random_sparse(512, 512, 0.5, ValueDist::Uniform, 74);
        let sel = select(&spec, &m, 8);
        assert_eq!(sel.candidates.len(), 3);
        assert!(sel.predicted_us > 0.0);
        assert!(sel.storage_bytes > 0);
        // The winner's time must be the (near-)minimum.
        let min = sel
            .candidates
            .iter()
            .map(|c| c.1)
            .fold(f64::INFINITY, f64::min);
        assert!(sel.predicted_us <= min * 1.03);
    }
}
