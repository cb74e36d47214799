//! Simulated-clock snapshot: the equality gate every change is checked
//! against.
//!
//! A snapshot records, at one benchmark point (default: the fig01 hero
//! shape, LLaMA2-70B's 28672×8192 FFN projection at 60% sparsity, N=16),
//! only quantities on the *simulated* clock:
//!
//! * the FNV checksum of the functional SpInfer-SpMM output, asserted
//!   equal at `--jobs 1` and at the default job count;
//! * the functional run's simulated time in µs;
//! * the analytic simulated time in µs of every registered kernel
//!   ([`spinfer_baselines::registry()`] order), so a new registry entry
//!   appears here with no other change.
//!
//! Every value is written with `{:?}`, the shortest text that parses
//! back to the same `f64`, so two snapshots are byte-equal exactly when
//! their values are bit-equal. The committed `BENCH_kernels.json` is
//! checked with `diff` against a fresh `spinfer snapshot`
//! (`scripts/bench_snapshot.sh`): any drift in a simulated result fails,
//! and the file is regenerated on purpose. Host wall-clock is measured
//! by `perfbench/` paired runs, not here.

use crate::sweep::{EncodeCache, SweepPoint};
use crate::{HERO_K, HERO_M};
use gpu_sim::exec;
use gpu_sim::matrix::checksum_f32;
use gpu_sim::spec::GpuSpec;
use std::fmt::Write as _;

/// The benchmark point a snapshot measures.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// Weight rows.
    pub m: usize,
    /// Weight columns (reduction dimension).
    pub k: usize,
    /// Batch size (columns of X).
    pub n: usize,
    /// Weight sparsity.
    pub sparsity: f64,
    /// Weight/X generation seed.
    pub seed: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            m: HERO_M,
            k: HERO_K,
            n: 16,
            sparsity: 0.6,
            seed: 0,
        }
    }
}

/// One measured snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The point measured.
    pub config: SnapshotConfig,
    /// GPU spec name the simulated times refer to.
    pub gpu: String,
    /// FNV digest of the functional FP32 output (regression tripwire).
    pub output_checksum: u64,
    /// Simulated time of the functional run in µs.
    pub spinfer_simulated_us: f64,
    /// `(name, simulated µs)` of every registered kernel's analytic
    /// estimate, in registry order.
    pub simulated_us: Vec<(&'static str, f64)>,
}

/// Measures one snapshot. The functional run executes twice (once at
/// `--jobs 1`, once at the default job count); job count never changes
/// simulated results, so the checksum is asserted identical across both.
pub fn measure(spec: &GpuSpec, cfg: &SnapshotConfig) -> Snapshot {
    let point = SweepPoint {
        m: cfg.m,
        k: cfg.k,
        n: cfg.n,
        sparsity: cfg.sparsity,
        kernel: spinfer_baselines::kernel_by_name("SpInfer").expect("registered"),
    };

    let cache = EncodeCache::new();
    exec::set_jobs(1);
    let serial = crate::sweep::run_functional(&cache, spec, &point, cfg.seed);
    exec::set_jobs(0);
    let pooled = crate::sweep::run_functional(&cache, spec, &point, cfg.seed);

    let output_checksum = checksum_f32(serial.output.as_ref().expect("functional output"));
    assert_eq!(
        output_checksum,
        checksum_f32(pooled.output.as_ref().expect("functional output")),
        "job count changed the functional output"
    );

    let simulated_us = spinfer_baselines::registry()
        .iter()
        .map(|kernel| {
            let run = kernel.estimate_synthetic(spec, cfg.m, cfg.k, cfg.n, cfg.sparsity);
            (kernel.name(), run.time_us())
        })
        .collect();

    Snapshot {
        config: *cfg,
        gpu: spec.name.to_string(),
        output_checksum,
        spinfer_simulated_us: serial.time_us(),
        simulated_us,
    }
}

impl Snapshot {
    /// Renders the snapshot as pretty-printed JSON, every float in its
    /// round-trip (`{:?}`) form.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"spinfer-bench-snapshot/v3\",");
        let _ = writeln!(s, "  \"gpu\": \"{}\",", self.gpu);
        let _ = writeln!(
            s,
            "  \"shape\": {{ \"m\": {}, \"k\": {}, \"n\": {}, \"sparsity\": {:?}, \"seed\": {} }},",
            c.m, c.k, c.n, c.sparsity, c.seed
        );
        let _ = writeln!(
            s,
            "  \"output_checksum\": \"{:#018x}\",",
            self.output_checksum
        );
        let _ = writeln!(
            s,
            "  \"spinfer_functional_simulated_us\": {:?},",
            self.spinfer_simulated_us
        );
        let _ = writeln!(s, "  \"simulated_us\": {{");
        for (i, (label, us)) in self.simulated_us.iter().enumerate() {
            let comma = if i + 1 == self.simulated_us.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(s, "    \"{label}\": {us:?}{comma}");
        }
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_snapshot_is_consistent() {
        let spec = GpuSpec::rtx4090();
        let cfg = SnapshotConfig {
            m: 128,
            k: 128,
            n: 16,
            sparsity: 0.6,
            seed: 7,
        };
        let snap = measure(&spec, &cfg);
        assert!(snap.spinfer_simulated_us > 0.0);
        assert_eq!(snap.simulated_us.len(), spinfer_baselines::registry().len());
        let json = snap.to_json();
        assert!(json.contains("\"spinfer-bench-snapshot/v3\""));
        assert!(json.contains("\"cuBLAS_TC\""));
        assert!(json.contains("output_checksum"));
        assert!(!json.contains("wall_clock"), "host time leaked in");
        // Byte-equal text means bit-equal values: every float parses
        // back to exactly the bits that were measured.
        let parsed = spinfer_obs::json::parse(&json).expect("valid JSON");
        let sim = parsed.get("simulated_us").expect("simulated_us object");
        for (label, us) in &snap.simulated_us {
            let back = sim.get(label).and_then(|v| v.as_f64()).expect(label);
            assert_eq!(back.to_bits(), us.to_bits(), "{label}");
        }
        let functional = parsed
            .get("spinfer_functional_simulated_us")
            .and_then(|v| v.as_f64())
            .expect("functional time");
        assert_eq!(functional.to_bits(), snap.spinfer_simulated_us.to_bits());
        assert_eq!(
            measure(&spec, &cfg).to_json(),
            json,
            "snapshot is not stable"
        );
    }
}
