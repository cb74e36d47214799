//! # spinfer-baselines — baseline formats and kernels
//!
//! Every system the SpInfer paper compares against, implemented from its
//! published design on the shared [`gpu_sim`] substrate:
//!
//! | Baseline | Format | Kernel |
//! |---|---|---|
//! | cuBLAS_TC | dense | [`kernels::CublasGemm`] |
//! | Flash-LLM | [`formats::TiledCsl`] (Eq. 2) | [`kernels::FlashLlmSpmm`] |
//! | SparTA | [`formats::SpartaFormat`] (Eqs. 4-5) | [`kernels::SpartaSpmm`] |
//! | Sputnik | [`formats::Csr`] (Eq. 3) | [`kernels::SputnikSpmm`] |
//! | cuSPARSE | [`formats::Csr`] | [`kernels::CusparseSpmm`] |
//! | SMaT | [`formats::Bcsr`] | [`kernels::SmatSpmm`] |
//!
//! Every kernel implements the [`spinfer_core::spmm::SpmmKernel`]
//! contract — `encode` into its format, `launch` against a
//! [`spinfer_core::spmm::LaunchCtx`] (tracing and validation compose
//! through the context), and `estimate_synthetic` (the same counters
//! from synthetic format statistics) for paper-scale sweeps. The
//! [`registry()`] lists them all as type-erased handles; resolve one with
//! [`kernel_by_name`].

pub mod formats;
pub mod kernels;
pub mod registry;
pub mod selector;

pub use formats::{Bcsr, Csr, SpartaFormat, TiledCsl};
pub use kernels::{
    CublasGemm, CusparseSpmm, FlashLlmSpmm, FlashLlmStats, SmatSpmm, SmatStats, SpartaSpmm,
    SpartaStats, SputnikSpmm,
};
pub use registry::{kernel_by_name, registry};
pub use selector::{select, Selection};
