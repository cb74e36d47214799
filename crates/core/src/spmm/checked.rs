//! Fault-aware entry points: `run_checked`/`run_checked_with` and the
//! recovery policy.
//!
//! Both are thin wrappers that pack their arguments into a
//! [`LaunchCtx`](super::LaunchCtx) and delegate to the one unified
//! launch body — the checked semantics live entirely in the context:
//! a ctx carrying a fault injector or an explicit policy validates the
//! container, checksums every GroupTile, and arms the D1/D2/D3 retry
//! machinery inside the block routine.

use crate::error::SpinferError;
use crate::tca_bme::TcaBme;
use gpu_sim::fault::FaultInjector;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;

use super::launch::{LaunchCtx, SpmmKernel};
use super::{SpinferSpmm, SpmmRun};

/// Recovery policy for checked runs: how hard to try before giving up
/// on a GroupTile, and what giving up means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum load/decode attempts per site (first try + retries).
    pub max_attempts: u32,
    /// After exhausting retries: `true` falls back to a reference
    /// product of the pristine GroupTile (slow but exact), `false`
    /// surfaces a typed [`KernelError`](crate::error::KernelError).
    pub fallback: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            fallback: true,
        }
    }
}

impl SpinferSpmm {
    /// [`run`](Self::run) with integrity checking and fault recovery,
    /// under the default [`FaultPolicy`].
    ///
    /// With `fault: None` the result is bit-identical to [`run`](Self::run)
    /// in both output and counter digest — the checked arms cost nothing
    /// when nothing is injected (fault tallies are excluded from
    /// [`Counters::digest`](gpu_sim::counters::Counters::digest)). The
    /// container is still validated (D4), so a corrupt or truncated
    /// `TcaBme` is rejected up front with a typed error instead of a
    /// panic.
    ///
    /// Defence layers:
    /// * **D1** — per-GroupTile FNV-1a checksums verify the landed
    ///   shared-memory image; mismatches re-stream from DRAM with a
    ///   reseeded draw stream.
    /// * **D2** — checked SMBD decode surfaces packed-value offset
    ///   overruns from corrupted bitmaps.
    /// * **D3** — checked decode rejects non-finite FP16 weights
    ///   (NaN/Inf poison).
    /// * **D4** — container validation before launch.
    pub fn run_checked(
        &self,
        spec: &GpuSpec,
        w: &TcaBme,
        x: &DenseMatrix,
        fault: Option<&FaultInjector>,
    ) -> Result<SpmmRun, SpinferError> {
        self.run_checked_with(spec, w, x, fault, FaultPolicy::default())
    }

    /// [`run_checked`](Self::run_checked) with an explicit policy.
    pub fn run_checked_with(
        &self,
        spec: &GpuSpec,
        w: &TcaBme,
        x: &DenseMatrix,
        fault: Option<&FaultInjector>,
        policy: FaultPolicy,
    ) -> Result<SpmmRun, SpinferError> {
        let mut ctx = LaunchCtx::new(spec).with_policy(&policy);
        if let Some(f) = fault {
            ctx = ctx.with_fault(f);
        }
        self.launch(&ctx, w, x)
    }
}
