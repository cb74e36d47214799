//! Compute intensity and roofline placement (paper §3.2.2, Eqs. 6–8).
//!
//! The paper works in units of FP16 elements: for `O[M×N] = W[M×K] ×
//! X[K×N]` with `K` fixed, the FLOPs-per-element and traffic terms share
//! the `K` factor, so compute intensity reduces to
//!
//! * `CI_GEMM    = M·N / (M + N)` (Eq. 6),
//! * `CI_SpMM    = M·N / (M/CR + N)` (Eq. 7) — the format's compression
//!   ratio scales the weight-traffic term, and
//! * `CI_Optimal = M·N / (M·(1−s) + N)` (Eq. 8) — zero-overhead indexing.
//!
//! In the memory-bound region performance is linear in CI, which is the
//! paper's core argument: raising CR moves SpMM toward (and past) dense
//! GEMM without touching the kernel.

use gpu_sim::spec::GpuSpec;

/// Eq. 6: compute intensity of dense GEMM.
pub fn ci_gemm(m: usize, n: usize) -> f64 {
    (m as f64 * n as f64) / (m as f64 + n as f64)
}

/// Eq. 7: compute intensity of SpMM under a format with compression
/// ratio `cr`.
pub fn ci_spmm(m: usize, n: usize, cr: f64) -> f64 {
    assert!(cr > 0.0);
    (m as f64 * n as f64) / (m as f64 / cr + n as f64)
}

/// Eq. 8: the zero-index-overhead upper bound at sparsity `s`.
pub fn ci_optimal(m: usize, n: usize, s: f64) -> f64 {
    (m as f64 * n as f64) / (m as f64 * (1.0 - s) + n as f64)
}

/// A point on the roofline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflinePoint {
    /// Compute intensity in FLOP/byte.
    pub ci: f64,
    /// Attainable throughput in FLOP/s.
    pub flops: f64,
    /// Whether the point sits in the memory-bound region.
    pub memory_bound: bool,
}

/// Attainable performance at compute intensity `ci` on `spec`'s Tensor
/// Core roofline.
pub fn attainable_flops(spec: &GpuSpec, ci: f64) -> RooflinePoint {
    let mem = ci * spec.dram_bandwidth;
    let peak = spec.peak_tc_flops();
    RooflinePoint {
        ci,
        flops: mem.min(peak),
        memory_bound: mem < peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_ci_skinny_n_is_about_n() {
        // For M >> N, CI ≈ N: the decode phase sits deep in the
        // memory-bound region.
        let ci = ci_gemm(28672, 16);
        assert!((ci - 16.0).abs() < 0.1, "ci {ci}");
    }

    #[test]
    fn spmm_ci_with_cr_1_equals_gemm() {
        assert!((ci_spmm(4096, 16, 1.0) - ci_gemm(4096, 16)).abs() < 1e-9);
    }

    #[test]
    fn higher_cr_raises_ci() {
        let lo = ci_spmm(4096, 16, 1.0);
        let hi = ci_spmm(4096, 16, 2.0);
        assert!(hi > lo);
        // But stays below the optimal bound at the matching sparsity:
        // CR(s=0.5) ≤ 2, so CI ≤ CI_optimal(0.5).
        assert!(ci_spmm(4096, 16, 1.78) <= ci_optimal(4096, 16, 0.5) + 1e-9);
    }

    #[test]
    fn optimal_ci_grows_with_sparsity() {
        assert!(ci_optimal(4096, 16, 0.7) > ci_optimal(4096, 16, 0.5));
    }

    #[test]
    fn decode_shapes_are_memory_bound() {
        let spec = GpuSpec::rtx4090();
        for &n in &[8usize, 16, 32] {
            let p = attainable_flops(&spec, ci_gemm(28672, n));
            assert!(p.memory_bound, "N={n} must be memory bound");
        }
    }

    #[test]
    fn prefill_shapes_cross_the_ridge() {
        let spec = GpuSpec::rtx4090();
        let p = attainable_flops(&spec, ci_gemm(28672, 4096));
        assert!(!p.memory_bound);
        assert_eq!(p.flops, spec.peak_tc_flops());
    }

    #[test]
    fn memory_bound_performance_is_linear_in_ci() {
        let spec = GpuSpec::rtx4090();
        let a = attainable_flops(&spec, 8.0);
        let b = attainable_flops(&spec, 16.0);
        assert!((b.flops / a.flops - 2.0).abs() < 1e-9);
    }
}
