//! Fleet-scale serving simulation with resilience as the headline.
//!
//! Composes the single-replica serving pieces — the iteration-level
//! batching of [`crate::serving`], whose step model prices and commits
//! every replica step, and the KV admission cap of its memory model —
//! into N replicas behind a router, on one discrete-event simulated
//! clock. The interesting part is what goes wrong:
//!
//! * a [`ClusterFaultPlan`] injects replica crashes, slow-node
//!   degradation, and transient launch failures, all site-keyed off one
//!   seed (the `gpu_sim::fault` splitmix64 scheme, lifted to fleet
//!   granularity);
//! * requests carry deadlines and flow through attempt timeouts →
//!   capped exponential backoff with deterministic jitter
//!   ([`RetryPolicy`]) → rerouting to healthy replicas;
//! * a KV-cache-pressure admission controller sheds or queues load;
//! * a graceful-degradation ladder per replica: drop batch width, drop
//!   the weight payload to INT8, fall back to a cheaper kernel resolved
//!   through the registry, and finally reject new work outright.
//!
//! The event loop is serial and every random decision is a pure hash of
//! the seed, so a run is byte-identical at any host job count — the
//! chaos-determinism CI gate diffs metrics snapshots and Chrome traces
//! across `--jobs 1/2/8`. Events past the simulation horizon are
//! dropped (the heap is a min-heap on time, so the loop just stops),
//! which also bounds retry storms under pathological fault rates.

mod fault;
mod retry;
mod router;

pub use fault::ClusterFaultPlan;
pub use retry::RetryPolicy;
pub use router::{route, ReplicaView, RouterPolicy};

use std::collections::{BinaryHeap, HashMap, VecDeque};

use gpu_sim::fault::site_u01;
use gpu_sim::spec::GpuSpec;
use gpu_sim::trace::{pids, TraceEvent, TraceSink, TrackId};
use spinfer_core::SpinferError;
use spinfer_obs::metrics::{percentile_sorted, Registry};

use crate::config::ModelConfig;
use crate::frameworks::{framework_for_kernel, Framework};
use crate::serving::{concurrency_cap, LengthMix, StepModel};
use crate::spec::{SpecConfig, SpecStats};

/// Arrival-process salt, disjoint from the fault-site salts.
const SALT_ARRIVAL: u64 = 0x1bbc_d8c2_f5e5_4a91;

/// Wasted wall-clock when a kernel launch fails transiently and the
/// step is retried.
const LAUNCH_RETRY_PENALTY_SEC: f64 = 0.002;

/// Consecutive launch faults that escalate the degradation ladder.
const LAUNCH_FAULT_ESCALATE: u32 = 2;

/// Consecutive steps ending with an empty queue before a replica walks
/// one rung back down the ladder (hysteresis against flapping).
const DEESCALATE_IDLE_STEPS: u64 = 3;

/// How long a routed request may sit queued before the router gives up
/// on that replica and re-routes it (only while retries are enabled).
const ATTEMPT_TIMEOUT_SEC: f64 = 10.0;

/// Health-probe interval feeding the failover router's lagged view.
const HEALTH_CHECK_SEC: f64 = 0.5;

/// Load shedding and queueing at the replica door. Every rung's batch
/// is also clamped to the KV-memory concurrency cap (the
/// doubling/binary-search oracle shared with `serving`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Queued requests a replica holds before shedding new arrivals.
    pub queue_cap_per_replica: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_cap_per_replica: 64,
        }
    }
}

/// The graceful-degradation ladder: rung 1 halves the batch width (min
/// 1), rung 2 serves from INT8 weight payloads ([`Framework::SpInfer`]
/// → [`Framework::SpInferInt8`]; cheaper steps at a bounded accuracy
/// cost, one rung before abandoning the sparse format; other primaries
/// pass straight through to rung 3), rung 3 swaps to the fallback
/// kernel, rung 4 rejects new work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Master switch; `false` pins every replica to rung 0.
    pub enabled: bool,
    /// Rung 3: registered kernel name to fall back to, resolved through
    /// `spinfer_baselines::kernel_by_name` (unknown names are a typed
    /// [`SpinferError::UnknownKernel`] at validation time). `None`
    /// keeps the rung-2 kernel on every later rung.
    pub fallback_kernel: Option<String>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            enabled: true,
            // The dense tensor-core path: slower per token at high
            // sparsity, but immune to sparse-format hazards — the
            // classic "boring fallback".
            fallback_kernel: Some("cuBLAS_TC".to_string()),
        }
    }
}

impl DegradationPolicy {
    /// A policy with the ladder off — the no-resilience baseline.
    pub fn disabled() -> Self {
        DegradationPolicy {
            enabled: false,
            ..DegradationPolicy::default()
        }
    }

    /// Resolves the fallback kernel name through the registry and maps
    /// it onto the analytic cost profile the fleet model prices steps
    /// with (the shared [`framework_for_kernel`] translation). Unknown
    /// names surface the registry's typed error.
    pub fn resolve_fallback(&self) -> Result<Option<Framework>, SpinferError> {
        let Some(name) = &self.fallback_kernel else {
            return Ok(None);
        };
        framework_for_kernel(name).map(Some)
    }
}

/// One fleet scenario.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Model served by every replica.
    pub model: ModelConfig,
    /// Primary framework (rung 0 of the ladder).
    pub framework: Framework,
    /// Weight sparsity.
    pub sparsity: f64,
    /// Tensor-parallel degree within each replica.
    pub tp: usize,
    /// Batch width per replica at rung 0.
    pub max_batch: usize,
    /// Default prompt tokens per request.
    pub input_len: usize,
    /// Default generated tokens per request.
    pub output_len: usize,
    /// Request length mix (shared with [`crate::serving`]).
    pub mix: LengthMix,
    /// Replica count.
    pub replicas: usize,
    /// Mean arrival rate (exponential inter-arrivals, seeded).
    pub arrival_rps: f64,
    /// Simulation horizon in simulated seconds.
    pub duration_sec: f64,
    /// Per-request SLO: completions later than `arrival + deadline_sec`
    /// count as throughput but not goodput.
    pub deadline_sec: f64,
    /// Retry behaviour.
    pub retry: RetryPolicy,
    /// Admission control.
    pub admission: AdmissionPolicy,
    /// Degradation ladder.
    pub degradation: DegradationPolicy,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Speculative decoding on every replica. `None` — and, bit for
    /// bit, `Some(SpecConfig::degenerate())` — is the incremental
    /// decode fleet.
    pub spec: Option<SpecConfig>,
    /// Root seed for arrivals and retry jitter (fault sites draw from
    /// the [`ClusterFaultPlan`]'s own seed).
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            model: ModelConfig::opt_13b(),
            framework: Framework::SpInfer,
            sparsity: 0.6,
            tp: 1,
            max_batch: 16,
            input_len: 512,
            output_len: 64,
            mix: LengthMix::Uniform,
            replicas: 4,
            arrival_rps: 4.0,
            duration_sec: 30.0,
            deadline_sec: 10.0,
            retry: RetryPolicy::default(),
            admission: AdmissionPolicy::default(),
            degradation: DegradationPolicy::default(),
            router: RouterPolicy::FailoverAware,
            spec: None,
            seed: 0,
        }
    }
}

impl ClusterConfig {
    /// Config-time validation: every reason comes back as a typed
    /// [`SpinferError::InvalidCluster`] (or the more specific error a
    /// component check raises, e.g. an empty length mix or an unknown
    /// fallback kernel).
    pub fn validate(&self) -> Result<(), SpinferError> {
        let invalid = |reason: &str| {
            Err(SpinferError::InvalidCluster {
                reason: reason.to_string(),
            })
        };
        if self.replicas == 0 {
            return invalid("replicas must be >= 1");
        }
        if self.max_batch == 0 {
            return invalid("max_batch must be >= 1");
        }
        if self.duration_sec <= 0.0 || self.duration_sec.is_nan() {
            return invalid("duration_sec must be > 0");
        }
        if self.arrival_rps <= 0.0 || self.arrival_rps.is_nan() {
            return invalid("arrival_rps must be > 0");
        }
        if self.deadline_sec <= 0.0 || self.deadline_sec.is_nan() {
            return invalid("deadline_sec must be > 0");
        }
        if self.retry.enabled {
            if self.retry.max_attempts == 0 {
                return invalid("retry.max_attempts must be >= 1");
            }
            if self.retry.base_backoff_sec <= 0.0 || self.retry.base_backoff_sec.is_nan() {
                return invalid("retry.base_backoff_sec must be > 0");
            }
            if self.retry.backoff_cap_sec < self.retry.base_backoff_sec {
                return invalid("retry.backoff_cap_sec must be >= base_backoff_sec");
            }
            if self.retry.jitter_frac < 0.0 || self.retry.jitter_frac.is_nan() {
                return invalid("retry.jitter_frac must be >= 0");
            }
        }
        self.mix.validate()?;
        self.degradation.resolve_fallback()?;
        if let Some(spec) = &self.spec {
            spec.validate()?;
        }
        Ok(())
    }
}

/// Per-replica outcome summary.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStats {
    /// Requests this replica completed.
    pub completed: u64,
    /// Crashes suffered.
    pub crashes: u64,
    /// Steps executed (including relaunches).
    pub steps: u64,
    /// Latency percentiles over this replica's completions (0 if none).
    pub p50_latency_s: f64,
    /// 95th percentile.
    pub p95_latency_s: f64,
    /// 99th percentile.
    pub p99_latency_s: f64,
    /// Queue depth when the horizon hit.
    pub final_queue: usize,
    /// Ladder rung when the horizon hit (0 = healthy).
    pub final_level: u8,
}

/// Fleet-level outcome of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Requests that arrived inside the horizon.
    pub arrivals: u64,
    /// Requests that completed (any latency).
    pub completed: u64,
    /// Completions inside their deadline — the goodput numerator.
    pub completed_in_slo: u64,
    /// Requests that terminally failed (retries exhausted or disabled).
    pub failed: u64,
    /// Requests still in flight when the horizon hit.
    pub incomplete: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Attempt timeouts fired on queued requests.
    pub timeouts: u64,
    /// Replica crashes.
    pub crashes: u64,
    /// Replica recoveries.
    pub recoveries: u64,
    /// Transient launch failures.
    pub launch_faults: u64,
    /// Steps that ran at the slow-node multiplier.
    pub slow_steps: u64,
    /// Ladder escalations across the fleet.
    pub degrade_escalations: u64,
    /// Ladder de-escalations.
    pub degrade_deescalations: u64,
    /// Requests rejected by rung-4 replicas.
    pub degraded_rejects: u64,
    /// Attempts routed to a replica that was down (blind routing).
    pub routed_to_down: u64,
    /// Requests admitted speculatively (0 when speculation is off).
    pub spec_requests: u64,
    /// Decode steps that verified at least one candidate tree.
    pub spec_steps: u64,
    /// Candidate tokens proposed and verified across the fleet.
    pub spec_proposed: u64,
    /// Drafted tokens accepted by the target model.
    pub spec_accepted: u64,
    /// Bonus tokens committed alongside accepted prefixes.
    pub spec_bonus: u64,
    /// Candidate KV entries rolled back after rejection.
    pub spec_rolled_back: u64,
    /// Goodput: SLO-abiding completions per simulated second.
    pub goodput_rps: f64,
    /// Throughput: all completions per simulated second.
    pub throughput_rps: f64,
    /// Fleet-wide latency percentiles (0 if nothing completed).
    pub p50_latency_s: f64,
    /// 95th percentile.
    pub p95_latency_s: f64,
    /// 99th percentile.
    pub p99_latency_s: f64,
    /// Per-replica summaries.
    pub per_replica: Vec<ReplicaStats>,
}

// ---------------------------------------------------------------------
// Event machinery
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Request `id` arrives (and chains the next arrival).
    Arrival(u64),
    /// A replica step completes.
    StepEnd { r: usize, epoch: u64 },
    /// A crashed replica rejoins.
    Recover { r: usize, epoch: u64 },
    /// A backed-off request re-routes.
    Retry(u64),
    /// An attempt timeout on a (possibly still queued) request.
    Timeout { req: u64, attempt: u32 },
    /// The health prober refreshes the router's view.
    Health,
}

#[derive(Clone, Copy, Debug)]
struct Scheduled {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first with
    // insertion order breaking ties (deterministic at any job count).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqState {
    Queued(usize),
    Running(usize),
    Backoff,
    Done,
    Failed,
}

#[derive(Clone, Debug)]
struct Req {
    arrival: f64,
    input_len: usize,
    output_len: usize,
    deadline: f64,
    attempt: u32,
    generated: usize,
    speculative: bool,
    state: ReqState,
}

#[derive(Clone, Debug, Default)]
struct Replica {
    up: bool,
    probed_up: bool,
    epoch: u64,
    busy: bool,
    queue: VecDeque<u64>,
    running: Vec<u64>,
    level: u8,
    tick: u64,
    launches: u64,
    consec_launch_faults: u32,
    idle_steps: u64,
    // In-flight step bookkeeping.
    step_tick: u64,
    step_start: f64,
    step_faulted: bool,
    step_prefill_sec: f64,
    step_decode_sec: f64,
    // Stats.
    completed: u64,
    crashes: u64,
    steps: u64,
    latencies: Vec<f64>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    arrivals: u64,
    completed: u64,
    completed_in_slo: u64,
    failed: u64,
    retries: u64,
    shed: u64,
    timeouts: u64,
    crashes: u64,
    recoveries: u64,
    launch_faults: u64,
    slow_steps: u64,
    degrade_escalations: u64,
    degrade_deescalations: u64,
    degraded_rejects: u64,
    routed_to_down: u64,
    /// The speculation ledger; `spec_iterations` counts the fleet's
    /// speculative steps.
    spec: SpecStats,
}

struct Sim<'a> {
    cfg: &'a ClusterConfig,
    plan: ClusterFaultPlan,
    fallback_fw: Option<Framework>,
    // The serving loop's step model. `spec: None` runs it under the
    // degenerate config, which the loop cannot tell from an unarmed one.
    step: StepModel<'a>,
    caps: HashMap<Framework, usize>,
    replicas: Vec<Replica>,
    reqs: Vec<Req>,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    cursor: usize,
    sink: Option<&'a TraceSink>,
    c: Counts,
    latencies: Vec<f64>,
}

impl<'a> Sim<'a> {
    fn new(
        spec: &'a GpuSpec,
        cfg: &'a ClusterConfig,
        plan: ClusterFaultPlan,
        fallback_fw: Option<Framework>,
        sink: Option<&'a TraceSink>,
    ) -> Self {
        let spec_cfg = cfg.spec.unwrap_or_else(SpecConfig::degenerate);
        let step = StepModel::new(spec, &cfg.model, cfg.sparsity, cfg.tp, &spec_cfg);
        // Speculative replicas hold each candidate tree's KV entries
        // between draft and rollback; the cap sizes for them. Unlike the
        // single-GPU loop, an unarmed tree reserves nothing (DESIGN.md §12).
        let v = step.verifier();
        let tree_nodes = if v.armed() { v.tree().nodes() } else { 0 };
        let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
        let mut caps = HashMap::new();
        let mut fws = vec![cfg.framework];
        if cfg.framework == Framework::SpInfer {
            fws.push(Framework::SpInferInt8);
        }
        if let Some(f) = fallback_fw {
            fws.push(f);
        }
        for fw in fws {
            caps.entry(fw).or_insert_with(|| {
                concurrency_cap(
                    spec,
                    &cfg.model,
                    fw,
                    cfg.sparsity,
                    cfg.tp,
                    max_in + max_out + tree_nodes,
                )
            });
        }
        let replicas = vec![
            Replica {
                up: true,
                probed_up: true,
                ..Replica::default()
            };
            cfg.replicas
        ];
        if let Some(sink) = sink {
            for r in 0..cfg.replicas {
                sink.name_track(Self::replica_track(r), "cluster", &format!("replica{r}"));
            }
            sink.name_track(Self::router_track(cfg.replicas), "cluster", "router");
        }
        Sim {
            cfg,
            plan,
            fallback_fw,
            step,
            caps,
            replicas,
            reqs: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            cursor: 0,
            sink,
            c: Counts::default(),
            latencies: Vec::new(),
        }
    }

    fn replica_track(r: usize) -> TrackId {
        (pids::CLUSTER, r as u32)
    }

    fn router_track(replicas: usize) -> TrackId {
        (pids::CLUSTER, replicas as u32)
    }

    fn schedule(&mut self, t: f64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { t, seq, ev });
    }

    fn instant(&self, track: TrackId, name: &'static str, t: f64) {
        if let Some(sink) = self.sink {
            sink.record(TraceEvent::instant(track, name, "cluster", t * 1e6));
        }
    }

    fn span(&self, track: TrackId, name: &'static str, start: f64, dur: f64) {
        if let Some(sink) = self.sink {
            sink.record(TraceEvent::span(
                track,
                name,
                "cluster",
                start * 1e6,
                dur * 1e6,
            ));
        }
    }

    /// Effective (framework, batch) at a replica's current ladder rung,
    /// clamped by the KV concurrency cap.
    fn effective(&self, r: usize) -> (Framework, usize) {
        let level = self.replicas[r].level;
        let mut fw = self.cfg.framework;
        let mut batch = self.cfg.max_batch;
        if self.cfg.degradation.enabled {
            if level >= 1 {
                batch = (batch / 2).max(1);
            }
            if level >= 2 && fw == Framework::SpInfer {
                fw = Framework::SpInferInt8;
            }
            if level >= 3 {
                if let Some(f) = self.fallback_fw {
                    fw = f;
                }
            }
        }
        batch = batch.min(*self.caps.get(&fw).unwrap_or(&batch));
        (fw, batch)
    }

    // -- ladder ---------------------------------------------------------

    fn escalate(&mut self, r: usize, now: f64) {
        if !self.cfg.degradation.enabled || self.replicas[r].level >= 4 {
            return;
        }
        self.replicas[r].level += 1;
        self.replicas[r].idle_steps = 0;
        self.c.degrade_escalations += 1;
        self.instant(Self::replica_track(r), "degrade", now);
    }

    fn maybe_deescalate(&mut self, r: usize, now: f64) {
        let rep = &mut self.replicas[r];
        if rep.queue.is_empty() {
            rep.idle_steps += 1;
        } else {
            rep.idle_steps = 0;
        }
        if rep.level > 0 && rep.idle_steps >= DEESCALATE_IDLE_STEPS {
            rep.level -= 1;
            rep.idle_steps = 0;
            self.c.degrade_deescalations += 1;
            self.instant(Self::replica_track(r), "restore", now);
        }
    }

    // -- request lifecycle ----------------------------------------------

    /// A routing/serving attempt failed; back off and retry, or fail
    /// terminally when the policy says stop.
    fn fail_attempt(&mut self, id: u64, now: f64) {
        let retry = self.cfg.retry;
        let req = &mut self.reqs[id as usize];
        if retry.enabled && req.attempt < retry.max_attempts {
            let backoff = retry.backoff_sec(self.cfg.seed, id, req.attempt);
            req.attempt += 1;
            req.state = ReqState::Backoff;
            self.c.retries += 1;
            self.instant(Self::router_track(self.cfg.replicas), "retry", now);
            self.schedule(now + backoff, Ev::Retry(id));
        } else {
            req.state = ReqState::Failed;
            self.c.failed += 1;
        }
    }

    fn route_request(&mut self, id: u64, now: f64) {
        let views: Vec<ReplicaView> = self
            .replicas
            .iter()
            .map(|rep| ReplicaView {
                up: rep.up,
                probed_up: rep.probed_up,
                queued: rep.queue.len(),
                running: rep.running.len(),
            })
            .collect();
        let Some(r) = route(self.cfg.router, &views, &mut self.cursor) else {
            // No candidate replica at all (e.g. every probe says down).
            self.fail_attempt(id, now);
            return;
        };
        if !self.replicas[r].up {
            self.c.routed_to_down += 1;
            self.fail_attempt(id, now);
            return;
        }
        if self.cfg.degradation.enabled && self.replicas[r].level >= 4 {
            // Rung 4: the replica rejects new work with a typed error;
            // here that surfaces as a counted rejection the retry path
            // routes around.
            self.c.degraded_rejects += 1;
            self.fail_attempt(id, now);
            return;
        }
        let (_, eff_batch) = self.effective(r);
        if eff_batch == 0 {
            // KV guard says not even one sequence fits on this rung.
            self.c.shed += 1;
            self.instant(Self::router_track(self.cfg.replicas), "shed", now);
            self.fail_attempt(id, now);
            return;
        }
        if self.replicas[r].queue.len() >= self.cfg.admission.queue_cap_per_replica {
            // Pressure: climb the ladder so future steps drain faster,
            // and shed this request to protect the queue.
            self.escalate(r, now);
            self.c.shed += 1;
            self.instant(Self::router_track(self.cfg.replicas), "shed", now);
            self.fail_attempt(id, now);
            return;
        }
        let attempt = self.reqs[id as usize].attempt;
        self.reqs[id as usize].state = ReqState::Queued(r);
        self.replicas[r].queue.push_back(id);
        if self.cfg.retry.enabled {
            self.schedule(now + ATTEMPT_TIMEOUT_SEC, Ev::Timeout { req: id, attempt });
        }
        if !self.replicas[r].busy {
            self.start_step(r, now);
        }
    }

    // -- replica steps --------------------------------------------------

    fn start_step(&mut self, r: usize, now: f64) {
        if self.replicas[r].queue.is_empty() && self.replicas[r].running.is_empty() {
            self.replicas[r].busy = false;
            return;
        }
        let (fw, eff_batch) = self.effective(r);
        let tick = self.replicas[r].tick;
        self.replicas[r].tick += 1;
        self.replicas[r].step_tick = tick;
        self.replicas[r].step_start = now;

        let launch = self.replicas[r].launches;
        self.replicas[r].launches += 1;
        if self.plan.launch_fails(r, launch) {
            // Transient launch failure: the step burns a relaunch
            // penalty and makes no progress.
            self.replicas[r].step_faulted = true;
            self.replicas[r].consec_launch_faults += 1;
            self.c.launch_faults += 1;
            self.instant(Self::replica_track(r), "launch_fault", now);
            if self.replicas[r].consec_launch_faults >= LAUNCH_FAULT_ESCALATE {
                self.escalate(r, now);
                self.replicas[r].consec_launch_faults = 0;
            }
            self.replicas[r].busy = true;
            let epoch = self.replicas[r].epoch;
            self.schedule(now + LAUNCH_RETRY_PENALTY_SEC, Ev::StepEnd { r, epoch });
            return;
        }
        self.replicas[r].consec_launch_faults = 0;
        self.replicas[r].step_faulted = false;

        // Admit from the queue up to the effective batch width.
        let mut admitted_lens = Vec::new();
        while self.replicas[r].running.len() < eff_batch {
            let Some(id) = self.replicas[r].queue.pop_front() else {
                break;
            };
            self.reqs[id as usize].state = ReqState::Running(r);
            admitted_lens.push(self.reqs[id as usize].input_len);
            self.replicas[r].running.push(id);
        }
        if self.replicas[r].running.is_empty() {
            // Nothing admissible (e.g. a zero cap opened up mid-run):
            // shed the queue back into the retry path rather than spin.
            let stuck: Vec<u64> = self.replicas[r].queue.drain(..).collect();
            for id in stuck {
                self.c.shed += 1;
                self.fail_attempt(id, now);
            }
            self.replicas[r].busy = false;
            return;
        }

        // The fleet prices a request's base context as `input_len +
        // generated` and its prefill at the raw prompt length, where the
        // single-GPU loop adds the current token and clamps the prompt to
        // one token. Aligning them would move every fleet metric, so it
        // waits for a deliberate behaviour change (DESIGN.md §12).
        let mut prefill: f64 = admitted_lens
            .iter()
            .map(|&n| self.step.prefill_sec(fw, n))
            .sum();
        let cost = self.step.price(
            fw,
            self.replicas[r].running.iter().map(|&id| {
                let q = &self.reqs[id as usize];
                (q.speculative, q.input_len + q.generated)
            }),
        );
        let mut decode = cost.verify_sec + cost.draft_sec;
        if self.plan.slow(r, tick) {
            let f = self.plan.slow_factor.max(1.0);
            prefill *= f;
            decode *= f;
            self.c.slow_steps += 1;
        }
        self.replicas[r].step_prefill_sec = prefill;
        self.replicas[r].step_decode_sec = decode;
        self.replicas[r].busy = true;
        let epoch = self.replicas[r].epoch;
        self.schedule(now + prefill + decode, Ev::StepEnd { r, epoch });
    }

    fn on_step_end(&mut self, r: usize, epoch: u64, t: f64) {
        if self.replicas[r].epoch != epoch {
            return; // Stale: the replica crashed while this was in flight.
        }
        self.replicas[r].busy = false;
        self.replicas[r].steps += 1;
        let tick = self.replicas[r].step_tick;
        let start = self.replicas[r].step_start;

        if self.plan.crashes(r, tick) {
            self.crash(r, t);
            return;
        }

        if self.replicas[r].step_faulted {
            self.replicas[r].step_faulted = false;
            self.span(Self::replica_track(r), "relaunch", start, t - start);
        } else {
            let prefill = self.replicas[r].step_prefill_sec;
            let decode = self.replicas[r].step_decode_sec;
            if prefill > 0.0 {
                self.span(Self::replica_track(r), "prefill", start, prefill);
            }
            self.span(
                Self::replica_track(r),
                "decode_iter",
                start + prefill,
                decode,
            );
            // Commit tokens; completions leave.
            let running = std::mem::take(&mut self.replicas[r].running);
            let mut speculated = false;
            for id in running {
                let q = &self.reqs[id as usize];
                speculated |= q.speculative;
                let commit = self.step.commit(
                    &mut self.c.spec,
                    id,
                    q.speculative,
                    q.generated,
                    q.output_len,
                );
                let req = &mut self.reqs[id as usize];
                req.generated += commit;
                if req.generated >= req.output_len {
                    req.state = ReqState::Done;
                    let latency = t - req.arrival;
                    let in_slo = t <= req.deadline;
                    self.c.completed += 1;
                    if in_slo {
                        self.c.completed_in_slo += 1;
                    }
                    self.latencies.push(latency);
                    self.replicas[r].completed += 1;
                    self.replicas[r].latencies.push(latency);
                } else {
                    self.replicas[r].running.push(id);
                }
            }
            if speculated {
                self.c.spec.spec_iterations += 1;
            }
        }

        self.maybe_deescalate(r, t);
        if !self.replicas[r].queue.is_empty() || !self.replicas[r].running.is_empty() {
            self.start_step(r, t);
        }
    }

    fn crash(&mut self, r: usize, t: f64) {
        self.c.crashes += 1;
        self.replicas[r].crashes += 1;
        self.instant(Self::replica_track(r), "crash", t);
        self.replicas[r].up = false;
        self.replicas[r].busy = false;
        self.replicas[r].epoch += 1;
        self.replicas[r].consec_launch_faults = 0;
        self.replicas[r].idle_steps = 0;
        // The running batch and the queue are lost; every affected
        // request re-enters through the retry path (or fails terminally
        // when retries are off).
        let mut lost: Vec<u64> = self.replicas[r].running.drain(..).collect();
        lost.extend(self.replicas[r].queue.drain(..));
        for id in lost {
            self.fail_attempt(id, t);
        }
        let epoch = self.replicas[r].epoch;
        self.schedule(
            t + self.plan.recovery_sec.max(0.0),
            Ev::Recover { r, epoch },
        );
    }

    fn on_recover(&mut self, r: usize, epoch: u64, t: f64) {
        if self.replicas[r].epoch != epoch || self.replicas[r].up {
            return;
        }
        self.replicas[r].up = true;
        self.c.recoveries += 1;
        self.instant(Self::replica_track(r), "recover", t);
        if !self.replicas[r].queue.is_empty() || !self.replicas[r].running.is_empty() {
            self.start_step(r, t);
        }
    }

    fn on_timeout(&mut self, id: u64, attempt: u32, t: f64) {
        let req = &self.reqs[id as usize];
        if req.attempt != attempt {
            return; // A newer attempt superseded this timer.
        }
        let ReqState::Queued(r) = req.state else {
            return; // Running or already resolved: let it ride.
        };
        if let Some(pos) = self.replicas[r].queue.iter().position(|&x| x == id) {
            self.replicas[r].queue.remove(pos);
        }
        self.c.timeouts += 1;
        self.instant(Self::router_track(self.cfg.replicas), "timeout", t);
        self.fail_attempt(id, t);
    }

    // -- arrivals -------------------------------------------------------

    fn inter_arrival_gap(&self, i: u64) -> f64 {
        let u = site_u01(self.cfg.seed, SALT_ARRIVAL, i).max(1e-12);
        -u.ln() / self.cfg.arrival_rps
    }

    fn on_arrival(&mut self, i: u64, t: f64) {
        debug_assert_eq!(i as usize, self.reqs.len());
        let (input_len, output_len) = self
            .cfg
            .mix
            .lengths(i as usize, (self.cfg.input_len, self.cfg.output_len));
        let speculative = self.step.verifier().speculates(i);
        if speculative {
            self.c.spec.spec_requests += 1;
        }
        self.reqs.push(Req {
            arrival: t,
            input_len,
            output_len,
            deadline: t + self.cfg.deadline_sec,
            attempt: 1,
            generated: 0,
            speculative,
            state: ReqState::Backoff, // placeholder until routed
        });
        self.c.arrivals += 1;
        self.route_request(i, t);
        let next = t + self.inter_arrival_gap(i + 1);
        if next <= self.cfg.duration_sec {
            self.schedule(next, Ev::Arrival(i + 1));
        }
    }

    // -- main loop ------------------------------------------------------

    fn run(&mut self) {
        let first = self.inter_arrival_gap(0);
        if first <= self.cfg.duration_sec {
            self.schedule(first, Ev::Arrival(0));
        }
        self.schedule(HEALTH_CHECK_SEC, Ev::Health);
        while let Some(Scheduled { t, ev, .. }) = self.heap.pop() {
            if t > self.cfg.duration_sec {
                // Min-heap on time: everything left is also past the
                // horizon. Dropping here bounds retry storms.
                break;
            }
            match ev {
                Ev::Arrival(i) => self.on_arrival(i, t),
                Ev::StepEnd { r, epoch } => self.on_step_end(r, epoch, t),
                Ev::Recover { r, epoch } => self.on_recover(r, epoch, t),
                Ev::Retry(id) => self.route_request(id, t),
                Ev::Timeout { req, attempt } => self.on_timeout(req, attempt, t),
                Ev::Health => {
                    for rep in &mut self.replicas {
                        rep.probed_up = rep.up;
                    }
                    let next = t + HEALTH_CHECK_SEC;
                    if next <= self.cfg.duration_sec {
                        self.schedule(next, Ev::Health);
                    }
                }
            }
        }
    }

    fn report(&self) -> ClusterReport {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let per_replica = self
            .replicas
            .iter()
            .map(|rep| {
                let mut lat = rep.latencies.clone();
                lat.sort_by(|a, b| a.total_cmp(b));
                ReplicaStats {
                    completed: rep.completed,
                    crashes: rep.crashes,
                    steps: rep.steps,
                    p50_latency_s: percentile_sorted(&lat, 0.50),
                    p95_latency_s: percentile_sorted(&lat, 0.95),
                    p99_latency_s: percentile_sorted(&lat, 0.99),
                    final_queue: rep.queue.len(),
                    final_level: rep.level,
                }
            })
            .collect();
        let c = self.c;
        ClusterReport {
            arrivals: c.arrivals,
            completed: c.completed,
            completed_in_slo: c.completed_in_slo,
            failed: c.failed,
            incomplete: c.arrivals - c.completed - c.failed,
            retries: c.retries,
            shed: c.shed,
            timeouts: c.timeouts,
            crashes: c.crashes,
            recoveries: c.recoveries,
            launch_faults: c.launch_faults,
            slow_steps: c.slow_steps,
            degrade_escalations: c.degrade_escalations,
            degrade_deescalations: c.degrade_deescalations,
            degraded_rejects: c.degraded_rejects,
            routed_to_down: c.routed_to_down,
            spec_requests: c.spec.spec_requests,
            spec_steps: c.spec.spec_iterations,
            spec_proposed: c.spec.proposed,
            spec_accepted: c.spec.accepted,
            spec_bonus: c.spec.bonus,
            spec_rolled_back: c.spec.rolled_back,
            goodput_rps: c.completed_in_slo as f64 / self.cfg.duration_sec,
            throughput_rps: c.completed as f64 / self.cfg.duration_sec,
            p50_latency_s: percentile_sorted(&sorted, 0.50),
            p95_latency_s: percentile_sorted(&sorted, 0.95),
            p99_latency_s: percentile_sorted(&sorted, 0.99),
            per_replica,
        }
    }

    fn write_metrics(&self, reg: &mut Registry, report: &ClusterReport) {
        reg.counter_add("cluster.arrivals", report.arrivals);
        reg.counter_add("cluster.completed", report.completed);
        reg.counter_add("cluster.completed_in_slo", report.completed_in_slo);
        reg.counter_add("cluster.failed", report.failed);
        reg.counter_add("cluster.incomplete", report.incomplete);
        reg.counter_add("cluster.retries", report.retries);
        reg.counter_add("cluster.shed", report.shed);
        reg.counter_add("cluster.timeouts", report.timeouts);
        reg.counter_add("cluster.crashes", report.crashes);
        reg.counter_add("cluster.recoveries", report.recoveries);
        reg.counter_add("cluster.launch_faults", report.launch_faults);
        reg.counter_add("cluster.slow_steps", report.slow_steps);
        reg.counter_add("cluster.degrade_escalations", report.degrade_escalations);
        reg.counter_add(
            "cluster.degrade_deescalations",
            report.degrade_deescalations,
        );
        reg.counter_add("cluster.degraded_rejects", report.degraded_rejects);
        reg.counter_add("cluster.routed_to_down", report.routed_to_down);
        // Speculation metrics only exist on speculating fleets — an
        // unarmed run's registry stays byte-identical to pre-spec runs.
        if self.step.verifier().armed() {
            reg.counter_add("cluster.spec.requests", report.spec_requests);
            reg.counter_add("cluster.spec.steps", report.spec_steps);
            reg.counter_add("cluster.spec.proposed", report.spec_proposed);
            reg.counter_add("cluster.spec.accepted", report.spec_accepted);
            reg.counter_add("cluster.spec.bonus", report.spec_bonus);
            reg.counter_add("cluster.spec.rolled_back", report.spec_rolled_back);
            let acc = if report.spec_proposed == 0 {
                0.0
            } else {
                report.spec_accepted as f64 / report.spec_proposed as f64
            };
            reg.gauge_set("cluster.spec.acceptance_observed", acc);
        }
        reg.gauge_set("cluster.goodput_rps", report.goodput_rps);
        reg.gauge_set("cluster.throughput_rps", report.throughput_rps);
        reg.gauge_set("cluster.replicas", self.cfg.replicas as f64);
        reg.gauge_set("cluster.duration_sec", self.cfg.duration_sec);
        for &l in &self.latencies {
            reg.histogram_record("cluster.latency_s", l);
        }
        for (r, rep) in self.replicas.iter().enumerate() {
            reg.counter_add(&format!("cluster.replica{r}.completed"), rep.completed);
            reg.counter_add(&format!("cluster.replica{r}.crashes"), rep.crashes);
            reg.counter_add(&format!("cluster.replica{r}.steps"), rep.steps);
            reg.gauge_set(
                &format!("cluster.replica{r}.final_queue"),
                rep.queue.len() as f64,
            );
            for &l in &rep.latencies {
                reg.histogram_record(&format!("cluster.replica{r}.latency_s"), l);
            }
        }
    }
}

/// Runs one fleet scenario. `faults: None` (or an all-zero plan) is the
/// fault-free path.
pub fn simulate_cluster(
    spec: &GpuSpec,
    cfg: &ClusterConfig,
    faults: Option<&ClusterFaultPlan>,
) -> Result<ClusterReport, SpinferError> {
    simulate_cluster_instrumented(spec, cfg, faults, None, None)
}

/// [`simulate_cluster`] with observability attached: a metrics registry
/// receives `cluster.*` counters, gauges, and latency histograms, and a
/// trace sink receives one track per replica (plus a router track) on
/// the simulated clock. Both attachments are outcome-neutral: the
/// report is bit-identical with or without them, and the recorded
/// artifacts are byte-identical at any host job count.
pub fn simulate_cluster_instrumented(
    spec: &GpuSpec,
    cfg: &ClusterConfig,
    faults: Option<&ClusterFaultPlan>,
    metrics: Option<&mut Registry>,
    sink: Option<&TraceSink>,
) -> Result<ClusterReport, SpinferError> {
    cfg.validate()?;
    let fallback_fw = cfg.degradation.resolve_fallback()?;
    let plan = faults.copied().unwrap_or_default();
    let mut sim = Sim::new(spec, cfg, plan, fallback_fw, sink);
    sim.run();
    let report = sim.report();
    if let Some(reg) = metrics {
        sim.write_metrics(reg, &report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> ClusterConfig {
        ClusterConfig {
            replicas: 2,
            arrival_rps: 2.0,
            duration_sec: 10.0,
            max_batch: 8,
            input_len: 128,
            output_len: 16,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn fault_free_cluster_serves_with_goodput() {
        let spec = GpuSpec::rtx4090();
        let r = simulate_cluster(&spec, &smoke_cfg(), None).unwrap();
        assert!(r.arrivals > 0);
        assert!(r.completed > 0, "no completions: {r:?}");
        assert_eq!(r.failed, 0);
        assert_eq!(r.crashes, 0);
        assert!(r.goodput_rps > 0.0);
        assert!(r.p50_latency_s > 0.0);
        assert_eq!(
            r.incomplete,
            r.arrivals - r.completed,
            "incomplete must balance the ledger"
        );
    }

    #[test]
    fn validation_rejects_bad_configs_with_typed_errors() {
        let spec = GpuSpec::rtx4090();
        let bad = ClusterConfig {
            replicas: 0,
            ..smoke_cfg()
        };
        let err = simulate_cluster(&spec, &bad, None).unwrap_err();
        assert_eq!(
            err,
            SpinferError::InvalidCluster {
                reason: "replicas must be >= 1".to_string()
            }
        );
        let empty_mix = ClusterConfig {
            mix: LengthMix::RoundRobin(vec![]),
            ..smoke_cfg()
        };
        assert_eq!(
            simulate_cluster(&spec, &empty_mix, None).unwrap_err(),
            SpinferError::EmptyLengthMix
        );
        let bad_kernel = ClusterConfig {
            degradation: DegradationPolicy {
                fallback_kernel: Some("warp-speed-gemm".to_string()),
                ..DegradationPolicy::default()
            },
            ..smoke_cfg()
        };
        assert!(matches!(
            simulate_cluster(&spec, &bad_kernel, None).unwrap_err(),
            SpinferError::UnknownKernel { .. }
        ));
    }

    #[test]
    fn zero_rate_plan_matches_no_plan() {
        let spec = GpuSpec::rtx4090();
        let cfg = smoke_cfg();
        let none = simulate_cluster(&spec, &cfg, None).unwrap();
        let zero = simulate_cluster(&spec, &cfg, Some(&ClusterFaultPlan::default())).unwrap();
        assert_eq!(format!("{none:?}"), format!("{zero:?}"));
    }

    #[test]
    fn degenerate_spec_fleet_matches_no_spec_fleet() {
        let spec = GpuSpec::rtx4090();
        let base = smoke_cfg();
        let none = simulate_cluster(&spec, &base, None).unwrap();
        let degenerate = ClusterConfig {
            spec: Some(SpecConfig::degenerate()),
            ..base
        };
        let deg = simulate_cluster(&spec, &degenerate, None).unwrap();
        assert_eq!(format!("{none:?}"), format!("{deg:?}"));
    }

    #[test]
    fn speculative_fleet_accepts_and_keeps_serving() {
        let spec = GpuSpec::rtx4090();
        let base = smoke_cfg();
        let none = simulate_cluster(&spec, &base, None).unwrap();
        let speccy = ClusterConfig {
            spec: Some(SpecConfig::default()),
            ..base
        };
        let r = simulate_cluster(&spec, &speccy, None).unwrap();
        assert!(r.spec_requests > 0, "share 1.0 must speculate: {r:?}");
        assert!(r.spec_steps > 0);
        assert!(r.spec_accepted > 0, "rate 0.8 must accept: {r:?}");
        assert!(r.spec_bonus >= r.spec_steps);
        // Multi-token commits can only help completions.
        assert!(r.completed >= none.completed);
        // Invalid spec configs surface the typed error through the
        // cluster validation chain.
        let bad = ClusterConfig {
            spec: Some(SpecConfig {
                acceptance_rate: 2.0,
                ..SpecConfig::default()
            }),
            ..smoke_cfg()
        };
        assert!(matches!(
            simulate_cluster(&spec, &bad, None).unwrap_err(),
            SpinferError::InvalidSpec { .. }
        ));
    }

    #[test]
    fn ladder_steps_through_precision_before_abandoning_the_format() {
        let spec = GpuSpec::rtx4090();
        let cfg = smoke_cfg();
        let fallback = cfg.degradation.resolve_fallback().unwrap();
        let mut sim = Sim::new(&spec, &cfg, ClusterFaultPlan::default(), fallback, None);
        // The INT8 rung's KV cap is pre-sized alongside the primary's.
        assert!(sim.caps.contains_key(&Framework::SpInferInt8));
        let (fw0, b0) = sim.effective(0);
        assert_eq!(fw0, Framework::SpInfer);
        sim.replicas[0].level = 1;
        let (fw1, b1) = sim.effective(0);
        assert_eq!(fw1, Framework::SpInfer, "rung 1 only shrinks the batch");
        assert!(b1 <= b0);
        sim.replicas[0].level = 2;
        let (fw2, _) = sim.effective(0);
        assert_eq!(fw2, Framework::SpInferInt8, "rung 2 drops the payload");
        sim.replicas[0].level = 3;
        let (fw3, _) = sim.effective(0);
        assert_eq!(
            fw3,
            Framework::FasterTransformer,
            "rung 3 abandons the sparse format"
        );
        // The ladder tops out at the reject rung.
        sim.replicas[0].level = 4;
        sim.escalate(0, 0.0);
        assert_eq!(sim.replicas[0].level, 4);
    }

    #[test]
    fn crashes_fire_and_requests_survive_via_retry() {
        let spec = GpuSpec::rtx4090();
        let cfg = ClusterConfig {
            duration_sec: 20.0,
            ..smoke_cfg()
        };
        let plan = ClusterFaultPlan {
            seed: 42,
            crash_rate: 0.05,
            recovery_sec: 1.0,
            ..ClusterFaultPlan::default()
        };
        let r = simulate_cluster(&spec, &cfg, Some(&plan)).unwrap();
        assert!(r.crashes > 0, "plan never fired: {r:?}");
        assert!(r.retries > 0, "crash purge must route through retry");
        assert!(r.goodput_rps > 0.0, "fleet must keep serving: {r:?}");
    }
}
