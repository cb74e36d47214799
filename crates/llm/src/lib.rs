//! # spinfer-llm — end-to-end sparse LLM inference simulation
//!
//! Reproduces the paper's framework-level evaluation (§5.2): a model zoo
//! ([`config`]), per-GPU memory model with OOM detection ([`memory`]),
//! Megatron-style tensor-parallel communication ([`parallel`]), framework
//! profiles for SpInfer / Flash-LLM / FasterTransformer / DeepSpeed
//! ([`frameworks`]), the prefill+decode engine ([`engine`]), and the
//! wall-time decomposition ([`breakdown`]) behind Figures 2 and 15.

// Lane IDs and coordinate loops are semantic indices here, as in the
// sibling GPU crates.
#![allow(clippy::needless_range_loop)]

pub mod breakdown;
pub mod cluster;
pub mod config;
pub mod disagg;
pub mod engine;
pub mod frameworks;
pub mod memory;
pub mod model;
pub mod parallel;
pub mod serving;
pub mod spec;

pub use breakdown::Breakdown;
pub use cluster::{
    simulate_cluster, simulate_cluster_instrumented, AdmissionPolicy, ClusterConfig,
    ClusterFaultPlan, ClusterReport, DegradationPolicy, ReplicaStats, RetryPolicy, RouterPolicy,
};
pub use config::{LayerMatrix, ModelConfig};
pub use engine::{simulate, simulate_ctx, InferenceConfig, InferenceReport};
pub use frameworks::{framework_for_kernel, Framework};
pub use memory::{footprint, MemoryReport};
pub use serving::{serve_spec_ctx, LengthMix, ServingConfig, ServingReport};
pub use spec::{DraftModel, SpecConfig, SpecServingReport, SpecStats, TreeShape, TreeVerifier};
