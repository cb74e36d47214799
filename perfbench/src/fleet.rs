//! `fleet_chaos_spec`: one fleet simulation of four OPT-13B replicas
//! with token-tree speculation and injected crashes, slow steps and
//! launch failures, overloaded so that retries, shedding and the
//! degradation ladder all fire.

use gpu_sim::spec::GpuSpec;
use spinfer_core::spmm::LaunchCtx;
use spinfer_llm::serving::{serve_ctx, serve_spec_ctx, ServingConfig};
use spinfer_llm::{
    simulate_cluster, AdmissionPolicy, ClusterConfig, ClusterFaultPlan, ClusterReport,
    DegradationPolicy, SpecConfig,
};

use crate::harness::{sub_seed, Fnv, Metric, Tracer, Workload};

/// The fleet workload.
pub struct Fleet {
    /// Fleet scenario; its seeds are replaced by the workload seed.
    pub cluster: ClusterConfig,
    /// Crash, slow-step and launch-failure rate.
    pub fault_rate: f64,
    /// Simulated device of every replica.
    pub spec: GpuSpec,
}

impl Fleet {
    /// The benchmark's configuration: the default OPT-13B fleet with
    /// speculation and faults, sized so that retries, shedding and the
    /// ladder fire while every replica keeps serving.
    ///
    /// Two defaults change. A replica that climbs to a rung where it
    /// cannot serve stays there for good, since rungs only come down at
    /// the end of a step, so the fleet's goodput becomes a draw of how
    /// many replicas died. Dense OPT-13B does not fit a 24 GB GPU, which
    /// makes the default cuBLAS fallback rung such a dead end; Flash-LLM
    /// fits. And a short admission queue makes bursts shed at a load
    /// (5 req/s) well below the retry-storm knee (about 17 req/s), above
    /// which replicas die within the horizon.
    pub fn chaos_spec() -> Self {
        Fleet {
            cluster: ClusterConfig {
                spec: Some(SpecConfig::default()),
                arrival_rps: 5.0,
                duration_sec: 10_000.0,
                admission: AdmissionPolicy {
                    queue_cap_per_replica: 8,
                    ..AdmissionPolicy::default()
                },
                degradation: DegradationPolicy {
                    fallback_kernel: Some("Flash-LLM".to_string()),
                    ..DegradationPolicy::default()
                },
                ..ClusterConfig::default()
            },
            fault_rate: 0.02,
            spec: GpuSpec::rtx4090(),
        }
    }
}

/// Set-up output: the seeded scenario.
pub struct FleetState {
    cfg: ClusterConfig,
    faults: ClusterFaultPlan,
}

impl Workload for Fleet {
    type State = FleetState;
    type Output = ClusterReport;

    fn setup(&self, seed: u64, _tr: &Tracer) -> FleetState {
        let mut cfg = ClusterConfig {
            seed: sub_seed(seed, 0),
            ..self.cluster.clone()
        };
        if let Some(s) = &mut cfg.spec {
            s.seed = sub_seed(seed, 1);
        }
        let faults = ClusterFaultPlan {
            seed: sub_seed(seed, 2),
            crash_rate: self.fault_rate,
            slow_rate: self.fault_rate,
            launch_fail_rate: self.fault_rate,
            ..ClusterFaultPlan::default()
        };
        FleetState { cfg, faults }
    }

    fn op(&self, st: &FleetState, tr: &Tracer) -> Result<ClusterReport, String> {
        tr.span("llm.cluster.simulate_s", || {
            simulate_cluster(&self.spec, &st.cfg, Some(&st.faults))
        })
        .map_err(|e| e.to_string())
    }

    fn digest(&self, r: &ClusterReport) -> u64 {
        Fnv::default().bytes(format!("{r:?}").as_bytes()).finish()
    }

    fn check(&self, st: &FleetState, r: &ClusterReport) -> Result<(), String> {
        let ledger = r.completed + r.failed + r.incomplete;
        let goodput = r.completed_in_slo as f64 / st.cfg.duration_sec;
        let steps: u64 = r.per_replica.iter().map(|p| p.steps).sum();
        let problems = [
            (ledger != r.arrivals, "completed + failed + incomplete != arrivals"),
            (r.completed_in_slo > r.completed, "more completions in SLO than completions"),
            (goodput.to_bits() != r.goodput_rps.to_bits(), "goodput != completed_in_slo / horizon"),
            (r.per_replica.len() != st.cfg.replicas, "one stats row per replica"),
            (r.per_replica.iter().map(|p| p.completed).sum::<u64>() != r.completed, "replica completions do not sum"),
            (steps == 0, "no replica stepped"),
            (r.retries == 0, "no retries"),
            (r.degrade_escalations == 0, "the degradation ladder never moved"),
            (r.crashes == 0, "no crashes"),
            (r.spec_proposed == 0, "no speculation"),
        ];
        match problems.iter().find(|p| p.0) {
            Some((_, what)) => Err(format!("cluster report: {what}: {r:?}")),
            None => Ok(()),
        }
    }

    fn sim_metrics(&self, st: &FleetState, r: &ClusterReport) -> Vec<Metric> {
        let cfg = &st.cfg;
        let steps: u64 = r.per_replica.iter().map(|p| p.steps).sum();
        let (mut stored, mut dense) = (0usize, 0usize);
        for lm in cfg.model.layer_matrices() {
            stored += cfg.framework.weight_bytes(lm.m, lm.k, cfg.sparsity) * lm.memory_instances;
            dense += 2 * lm.m * lm.k * lm.memory_instances;
        }
        vec![
            Metric::sim(
                "sim_step_us",
                cfg.duration_sec * cfg.replicas as f64 * 1e6 / steps as f64,
                "us",
            ),
            Metric::sim("weight_bytes_ratio", stored as f64 / dense as f64, "ratio"),
            Metric::sim("sim_goodput_rps", r.goodput_rps, "req/s"),
        ]
    }

    fn layer_metrics(&self, st: &FleetState, r: &ClusterReport, tr: &Tracer) -> Vec<Metric> {
        let cfg = &st.cfg;
        let steps: u64 = r.per_replica.iter().map(|p| p.steps).sum();
        // One replica's share of the fleet's load, served by the
        // single-GPU loops the fleet's replica step mirrors.
        let one = ServingConfig {
            model: cfg.model,
            framework: cfg.framework,
            sparsity: cfg.sparsity,
            tp: cfg.tp,
            max_batch: cfg.max_batch,
            arrival_rps: cfg.arrival_rps / cfg.replicas as f64,
            input_len: cfg.input_len,
            output_len: cfg.output_len,
            duration_sec: cfg.duration_sec,
            mix: cfg.mix.clone(),
        };
        let ctx = LaunchCtx::new(&self.spec);
        tr.span("llm.serving.serve_s", || serve_ctx(&ctx, &one));
        let spec_cfg = cfg.spec.unwrap_or_default();
        tr.span("llm.spec.serve_spec_s", || serve_spec_ctx(&ctx, &one, &spec_cfg));
        let count = |name, v: u64| Metric::sim(name, v as f64, "count");
        vec![
            count("llm.cluster.steps", steps),
            Metric::host(
                "llm.cluster.host_us_per_step",
                tr.mean_s("llm.cluster.simulate_s") * 1e6 / steps as f64,
                "us",
            ),
            count("llm.cluster.arrivals", r.arrivals),
            count("llm.cluster.completed", r.completed),
            count("llm.cluster.completed_in_slo", r.completed_in_slo),
            count("llm.cluster.retries", r.retries),
            count("llm.cluster.shed", r.shed),
            count("llm.cluster.timeouts", r.timeouts),
            count("llm.cluster.crashes", r.crashes),
            count("llm.cluster.degrade_escalations", r.degrade_escalations),
            Metric::sim(
                "llm.spec.acceptance",
                r.spec_accepted as f64 / r.spec_proposed.max(1) as f64,
                "ratio",
            ),
            count("llm.spec.rolled_back", r.spec_rolled_back),
        ]
    }
}
