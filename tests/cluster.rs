//! Fleet resilience gates: chaos determinism, goodput under failure,
//! and the retry/backoff math.
//!
//! The headline acceptance criteria for the cluster layer:
//!
//! * **Chaos determinism** — with a nonzero [`ClusterFaultPlan`], the
//!   metrics snapshot and the Chrome-trace bytes are identical at host
//!   job counts 1, 2, and 8 (the fleet loop is serial and every random
//!   decision is a pure seed hash, so job count cannot leak in).
//! * **Resilience pays** — under injected replica crashes, the full
//!   ladder (retries + failover routing + degradation) keeps goodput
//!   above zero *and* above a no-resilience baseline on the same fault
//!   schedule.

use gpu_sim::exec;
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use proptest::prelude::*;
use spinfer_llm::{
    simulate_cluster, simulate_cluster_instrumented, ClusterConfig, ClusterFaultPlan,
    DegradationPolicy, RetryPolicy, RouterPolicy,
};
use spinfer_obs::Registry;

mod common;

fn chaos_cfg() -> ClusterConfig {
    ClusterConfig {
        replicas: 3,
        arrival_rps: 3.0,
        duration_sec: 20.0,
        max_batch: 8,
        input_len: 128,
        output_len: 16,
        seed: 9,
        ..ClusterConfig::default()
    }
}

fn chaos_plan() -> ClusterFaultPlan {
    ClusterFaultPlan {
        seed: 42,
        crash_rate: 0.02,
        recovery_sec: 1.0,
        slow_rate: 0.05,
        slow_factor: 3.0,
        launch_fail_rate: 0.02,
    }
}

/// One instrumented chaos run → (metrics snapshot JSON, trace JSON).
fn chaos_artifacts() -> (String, String) {
    let spec = GpuSpec::rtx4090();
    let mut reg = Registry::new();
    let sink = TraceSink::new();
    let report = simulate_cluster_instrumented(
        &spec,
        &chaos_cfg(),
        Some(&chaos_plan()),
        Some(&mut reg),
        Some(&sink),
    )
    .expect("chaos config is valid");
    assert!(report.crashes > 0, "chaos plan must actually fire");
    (reg.snapshot_json(), spinfer_obs::export(&sink.finish()))
}

#[test]
fn chaos_metrics_and_trace_are_byte_identical_across_job_counts() {
    let mut artifacts = Vec::new();
    for jobs in [1usize, 2, 8] {
        exec::set_jobs(jobs);
        artifacts.push(chaos_artifacts());
    }
    exec::set_jobs(0);
    let (m1, t1) = &artifacts[0];
    for (jobs, (m, t)) in [2usize, 8].iter().zip(&artifacts[1..]) {
        assert_eq!(m1, m, "metrics snapshot diverged at --jobs {jobs}");
        assert_eq!(t1, t, "trace bytes diverged at --jobs {jobs}");
    }
    // The artifacts carry the headline observability surface.
    assert!(m1.contains("cluster.goodput_rps"));
    assert!(m1.contains("cluster.retries"));
    assert!(m1.contains("cluster.shed"));
    assert!(m1.contains("cluster.crashes"));
    assert!(m1.contains("cluster.replica0.latency_s"));
    assert!(m1.contains("\"p99\""));
    assert!(t1.contains("\"crash\""));
    spinfer_obs::validate(t1).expect("cluster trace must be structurally valid");
}

#[test]
fn resilience_keeps_goodput_above_the_naive_baseline_under_crashes() {
    let spec = GpuSpec::rtx4090();
    let plan = ClusterFaultPlan {
        seed: 7,
        crash_rate: 0.03,
        recovery_sec: 2.0,
        ..ClusterFaultPlan::default()
    };
    let resilient_cfg = chaos_cfg();
    let naive_cfg = ClusterConfig {
        retry: RetryPolicy::disabled(),
        degradation: DegradationPolicy::disabled(),
        router: RouterPolicy::RoundRobin,
        ..chaos_cfg()
    };
    let resilient = simulate_cluster(&spec, &resilient_cfg, Some(&plan)).unwrap();
    let naive = simulate_cluster(&spec, &naive_cfg, Some(&plan)).unwrap();
    assert!(
        resilient.crashes > 0 && naive.crashes > 0,
        "plan must fire in both runs"
    );
    assert!(
        resilient.goodput_rps > 0.0,
        "the ladder must keep the fleet serving: {resilient:?}"
    );
    assert!(
        resilient.goodput_rps > naive.goodput_rps,
        "resilience must beat the no-retry round-robin baseline: \
         resilient {} vs naive {} (naive failed {}, routed-to-down {})",
        resilient.goodput_rps,
        naive.goodput_rps,
        naive.failed,
        naive.routed_to_down
    );
    // The naive fleet leaks requests permanently; the resilient one
    // recovers them through the retry path.
    assert!(naive.failed > resilient.failed);
    assert!(resilient.retries > 0);
    assert_eq!(naive.retries, 0);
}

#[test]
fn faultless_report_is_identical_with_and_without_instrumentation() {
    // Attaching metrics + trace must not perturb the simulation.
    let spec = GpuSpec::rtx4090();
    let cfg = chaos_cfg();
    let bare = simulate_cluster(&spec, &cfg, Some(&chaos_plan())).unwrap();
    let mut reg = Registry::new();
    let sink = TraceSink::new();
    let instrumented = simulate_cluster_instrumented(
        &spec,
        &cfg,
        Some(&chaos_plan()),
        Some(&mut reg),
        Some(&sink),
    )
    .unwrap();
    assert_eq!(format!("{bare:?}"), format!("{instrumented:?}"));
}

/// Absolute pin of the chaos fleet: its report text and exported trace
/// bytes. The gates above are relative (jobs 1 vs 8, bare vs
/// instrumented), so a change that moves every run alike passes them;
/// this one does not.
#[test]
fn chaos_fleet_report_and_trace_match_pinned_digests() {
    let spec = GpuSpec::rtx4090();
    let sink = TraceSink::new();
    let report =
        simulate_cluster_instrumented(&spec, &chaos_cfg(), Some(&chaos_plan()), None, Some(&sink))
            .unwrap();
    common::assert_pinned(&[
        (
            "chaos fleet report",
            &format!("{report:?}"),
            0x9636_fb44_5d47_f5f6,
        ),
        (
            "chaos fleet trace",
            &spinfer_obs::export(&sink.finish()),
            0x54a9_4e12_4657_7c69,
        ),
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nominal backoff schedule is monotone non-decreasing in the
    /// attempt index and never exceeds the cap.
    #[test]
    fn backoff_is_monotone_and_capped(
        base in 1e-3f64..1.0,
        cap_mult in 1.0f64..64.0,
        attempts in 2u32..40,
    ) {
        let p = RetryPolicy {
            base_backoff_sec: base,
            backoff_cap_sec: base * cap_mult,
            ..RetryPolicy::default()
        };
        let mut prev = 0.0;
        for attempt in 1..=attempts {
            let b = p.nominal_backoff_sec(attempt);
            prop_assert!(b >= prev, "backoff shrank at attempt {attempt}");
            prop_assert!(b <= p.backoff_cap_sec + 1e-12);
            prev = b;
        }
        prop_assert_eq!(p.nominal_backoff_sec(attempts), p.backoff_cap_sec.min(
            base * (1u64 << (attempts - 1).min(62)) as f64));
    }

    /// The jittered backoff is a pure function of (seed, request,
    /// attempt): stable across calls and across host job counts, and
    /// bounded by the jitter envelope.
    #[test]
    fn jittered_backoff_is_seed_stable_and_job_count_invariant(
        seed in any::<u64>(),
        req in any::<u64>(),
        attempt in 1u32..16,
        jitter in 0.0f64..1.0,
    ) {
        let p = RetryPolicy { jitter_frac: jitter, ..RetryPolicy::default() };
        let reference = p.backoff_sec(seed, req, attempt);
        for jobs in [1usize, 2, 8] {
            exec::set_jobs(jobs);
            prop_assert_eq!(p.backoff_sec(seed, req, attempt), reference);
        }
        exec::set_jobs(0);
        let nominal = p.nominal_backoff_sec(attempt);
        prop_assert!(reference >= nominal);
        prop_assert!(reference <= nominal * (1.0 + jitter));
        // A different seed reshuffles the jitter (almost surely) but
        // stays inside the same envelope.
        let other = p.backoff_sec(seed ^ 0xdead_beef, req, attempt);
        prop_assert!(other >= nominal && other <= nominal * (1.0 + jitter));
    }
}
