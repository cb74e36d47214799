//! # spinfer-core — the SpInfer paper's primary contribution
//!
//! High-performance sparse matrix multiplication for low-sparsity LLM
//! weights, reproduced from *SpInfer: Leveraging Low-Level Sparsity for
//! Efficient Large Language Model Inference on GPUs* (EuroSys 2025) on the
//! [`gpu_sim`] substrate:
//!
//! * [`tca_bme`] — Tensor-Core-Aware Bitmap Encoding (paper §4.2).
//! * [`smbd`] — Shared Memory Bitmap Decoding (paper §4.3.3).
//! * [`spmm`] — the SpInfer-SpMM kernel with split-K and the asynchronous
//!   pipeline (paper §4.3), including Table 1's ablation switches.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
//! use gpu_sim::GpuSpec;
//! use spinfer_core::SpMMHandle;
//!
//! // A 60%-sparse weight matrix and a decode-phase activation tile.
//! let w = random_sparse(256, 256, 0.6, ValueDist::Uniform, 1);
//! let x = random_dense(256, 16, ValueDist::Uniform, 2);
//!
//! let spec = GpuSpec::rtx4090();
//! let handle = SpMMHandle::encode(&w);
//! let run = handle.matmul(&spec, &x);
//! assert_eq!(run.output.as_ref().unwrap().len(), 256 * 16);
//! println!("simulated time: {:.1} us, CR {:.2}",
//!          run.time_us(), handle.compression_ratio());
//! ```

// Lane IDs and tile coordinates are semantic indices in GPU-style code;
// iterator rewrites of those loops obscure the hardware mapping.
#![allow(clippy::needless_range_loop)]

pub mod error;
pub mod payload;
#[cfg(test)]
mod pipeline;
pub mod reduction;
pub mod serialize;
pub mod smbd;
pub mod spmm;
pub mod tca_bme;
pub mod tune;

pub use error::SpinferError;
pub use payload::Payload;
pub use spmm::{
    Ablation, DynEncoded, DynSpmmKernel, FaultPolicy, FormatStats, LaunchCtx, SpinferSpmm,
    SpinferSpmmInt8, SpmmConfig, SpmmKernel, SpmmRun,
};
pub use tca_bme::{TcaBme, TcaBmeConfig, TcaBmeInt8, TcaBmeOf};
pub use tune::{tune, TuneResult};

use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;

/// High-level handle owning an encoded weight matrix, mirroring how the
/// artifact's framework integration holds per-layer sparse weights.
#[derive(Clone, Debug)]
pub struct SpMMHandle {
    /// The encoded weight matrix.
    pub weights: TcaBme,
    /// Kernel used for products.
    pub kernel: SpinferSpmm,
}

impl SpMMHandle {
    /// Encodes a dense weight matrix into TCA-BME with default tiling.
    pub fn encode(weights: &DenseMatrix) -> Self {
        SpMMHandle {
            weights: TcaBme::encode(weights),
            kernel: SpinferSpmm::new(),
        }
    }

    /// Encodes with an explicit kernel configuration.
    pub fn encode_with(weights: &DenseMatrix, config: SpmmConfig) -> Self {
        SpMMHandle {
            weights: TcaBme::encode(weights),
            kernel: SpinferSpmm { config },
        }
    }

    /// Computes `W × X` on the simulated device, returning output and
    /// launch telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `K×N`. [`SpmmKernel::launch`] on
    /// `self.kernel` returns that as a typed
    /// [`SpinferError::DimensionMismatch`] instead.
    pub fn matmul(&self, spec: &GpuSpec, x: &DenseMatrix) -> SpmmRun {
        self.kernel.run(spec, &self.weights, x)
    }

    /// Analytic timing estimate for a batch size `n` without data.
    pub fn estimate(&self, spec: &GpuSpec, n: usize) -> SpmmRun {
        self.kernel
            .estimate(spec, &FormatStats::from_encoded(&self.weights), n)
    }

    /// Compression ratio of the encoded weights (paper Eq. 1).
    pub fn compression_ratio(&self) -> f64 {
        self.weights.compression_ratio()
    }

    /// Encoded storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.weights.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, ValueDist};

    #[test]
    fn handle_end_to_end() {
        let w = random_sparse(128, 128, 0.5, ValueDist::Uniform, 3);
        let x = random_dense(128, 16, ValueDist::Uniform, 4);
        let spec = GpuSpec::rtx4090();
        let h = SpMMHandle::encode(&w);
        let run = h.matmul(&spec, &x);
        let err = max_abs_diff(run.output.as_ref().unwrap(), &w.matmul_ref(&x));
        assert!(err < 0.5);
        assert!(h.compression_ratio() > 1.0);
        assert!(h.storage_bytes() < w.dense_bytes());
    }

    #[test]
    fn estimate_runs_without_data() {
        let w = random_sparse(128, 128, 0.5, ValueDist::Uniform, 5);
        let spec = GpuSpec::a6000();
        let h = SpMMHandle::encode(&w);
        let est = h.estimate(&spec, 16);
        assert!(est.output.is_none());
        assert!(est.time_us() > 0.0);
    }
}
