//! # spinfer-pruning — LLM weight pruning
//!
//! One-shot pruners producing the low-level unstructured sparsity SpInfer
//! accelerates (paper §2.3): [`pruners::magnitude_prune`],
//! [`pruners::wanda_prune`], [`pruners::sparsegpt_prune`] (OBS-style with
//! block compensation), and [`pruners::nm_prune`] (2:4). Calibration data
//! is synthesised with heavy-tailed feature norms ([`calibration`]);
//! accuracy is proxied by layer reconstruction error ([`accuracy`]), and
//! [`stats`] connects pruned patterns to kernel-relevant statistics.

// Lane IDs and tile coordinates are semantic indices in GPU-style code;
// iterator rewrites of those loops obscure the hardware mapping.
#![allow(clippy::needless_range_loop)]

pub mod accuracy;
pub mod calibration;
pub mod pruners;
pub mod stats;

pub use accuracy::{pseudo_perplexity, reconstruction_error};
pub use calibration::Calibration;
pub use pruners::{magnitude_prune, nm_prune, sparsegpt_prune, wanda_prune};
pub use stats::{analyze, SparsityStats};
