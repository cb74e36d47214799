//! # gpu-sim — warp-level GPU simulator substrate
//!
//! This crate is the hardware substitution for the SpInfer reproduction
//! (see the workspace `DESIGN.md`): a functional + analytical model of the
//! NVIDIA GPUs the paper evaluates on (RTX4090, A6000). It provides:
//!
//! * [`fp16`] — software IEEE binary16 with round-to-nearest-even.
//! * [`matrix`] — dense FP16 matrices, generators, and golden references.
//! * [`spec`] — device parameter sheets.
//! * [`bitops`] — `popc`/masked-popcount device intrinsics (Algorithm 2).
//! * [`tensor_core`] — `mma.m16n8k16` emulation on row-major operand
//!   tiles (FP16/FP32 and INT8/INT32).
//! * [`shared_memory`] — 32-bank conflict model from real addresses.
//! * [`global`] — DRAM sector/coalescing model from real addresses.
//! * [`async_copy`] — `cp.async` commit-group semantics.
//! * [`mod@occupancy`], [`timing`], [`kernel`], [`counters`] — the profiling
//!   and time-estimation layer (Nsight-style metrics).
//! * [`exec`] — host-side parallel execution engine (worker pool +
//!   sharded counters) for running simulations across host cores with
//!   bit-identical results.
//! * [`trace`] — deterministic span recording keyed by simulated time
//!   (the observability seam consumed by `spinfer-obs`).
//!
//! Kernels built on this substrate (in `spinfer-core` and
//! `spinfer-baselines`) compute bit-exact numerical results on the host
//! while recording the events the timing model converts into estimated
//! kernel time.

// Lane IDs and tile coordinates are semantic indices in GPU-style code;
// iterator rewrites of those loops obscure the hardware mapping.
#![allow(clippy::needless_range_loop)]

pub mod async_copy;
pub mod bitops;
pub mod counters;
pub mod exec;
pub mod fault;
pub mod fp16;
pub mod global;
pub mod kernel;
#[cfg(test)]
mod l2_cache;
pub mod matrix;
pub mod occupancy;
pub mod shared_memory;
pub mod spec;
pub mod tensor_core;
pub mod timing;
pub mod trace;

pub use counters::Counters;
pub use fp16::Half;
pub use kernel::{LaunchChain, LaunchResult};
pub use matrix::DenseMatrix;
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use spec::GpuSpec;
pub use timing::{KernelTiming, L2Reuse, LaunchShape, PipelineMode};
