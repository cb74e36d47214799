//! The kernel registry: every SpMM kernel in the repo — SpInfer at both
//! payload precisions and the six baselines — as a type-erased
//! [`DynSpmmKernel`], addressable by its paper-figure label.
//!
//! This is the one place that knows the full kernel roster. Sweeps, the
//! CLI, the snapshot and the serving profiles resolve kernels by name
//! through [`kernel_by_name`] and price them through
//! `estimate_synthetic` instead of matching on concrete types, so adding
//! a kernel means its `SpmmKernel` impl plus one registry line.

use spinfer_core::spmm::DynSpmmKernel;
use spinfer_core::{SpinferError, SpinferSpmm, SpinferSpmmInt8};

use crate::kernels::{CublasGemm, CusparseSpmm, FlashLlmSpmm, SmatSpmm, SpartaSpmm, SputnikSpmm};

/// Every registered kernel, in the paper's Figure 10 roster order.
/// Names match the figure labels (`cuBLAS_TC`, `SpInfer`, `Flash-LLM`,
/// `SparTA`, `Sputnik`, `cuSPARSE`, `SMaT`), plus the quantized
/// `SpInfer-INT8` variant from the precision ablation.
pub fn registry() -> Vec<DynSpmmKernel> {
    vec![
        DynSpmmKernel::new(CublasGemm::new()),
        DynSpmmKernel::new(SpinferSpmm::new()),
        DynSpmmKernel::new(SpinferSpmmInt8::new()),
        DynSpmmKernel::new(FlashLlmSpmm::new()),
        DynSpmmKernel::new(SpartaSpmm::new()),
        DynSpmmKernel::new(SputnikSpmm::new()),
        DynSpmmKernel::new(CusparseSpmm::new()),
        DynSpmmKernel::new(SmatSpmm::new()),
    ]
}

/// Resolves a kernel by its registered name, or returns
/// [`SpinferError::UnknownKernel`] listing nothing but the offending
/// name — callers print the roster from [`registry`] when they want
/// suggestions.
pub fn kernel_by_name(name: &str) -> Result<DynSpmmKernel, SpinferError> {
    registry()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| SpinferError::UnknownKernel {
            name: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_distinct_and_resolve() {
        let names: Vec<&str> = registry().iter().map(|k| k.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate kernel names");
        assert_eq!(names.len(), 8);
        for n in names {
            assert_eq!(kernel_by_name(n).expect("registered").name(), n);
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = kernel_by_name("warp-speed-gemm").unwrap_err();
        assert_eq!(
            err,
            SpinferError::UnknownKernel {
                name: "warp-speed-gemm".to_string()
            }
        );
        assert!(err.to_string().contains("warp-speed-gemm"));
    }

    #[test]
    fn csr_kernels_share_a_format_key() {
        // Sputnik and cuSPARSE both consume CSR: an encode cache keyed
        // by format_key builds the encoding once for both.
        let sputnik = kernel_by_name("Sputnik").unwrap();
        let cusparse = kernel_by_name("cuSPARSE").unwrap();
        assert_eq!(sputnik.format_key(), cusparse.format_key());
        assert_eq!(sputnik.format_key(), "csr");
    }
}
