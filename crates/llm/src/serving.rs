//! Continuous-batching serving simulator (ORCA-style iteration-level
//! scheduling).
//!
//! The paper's end-to-end evaluation uses static batches; production
//! systems admit and retire requests at every decode iteration, bounded
//! by KV-cache memory. This simulator runs that loop over the same cost
//! model: per-iteration linear time from the simulated kernels, KV reads
//! proportional to the live contexts, admission gated by the per-GPU
//! memory model. It shows the deployment-level consequence of SpInfer's
//! two wins — faster steps *and* more KV headroom from compressed
//! weights.

use crate::config::ModelConfig;
use crate::engine::{decode_overhead_sec, linear_pass_sec};
use crate::frameworks::Framework;
use crate::memory::footprint;
use crate::spec::{
    plan_step, DraftModel, SpecConfig, SpecServingReport, SpecStats, StepPlan, TreeVerifier,
};
use gpu_sim::spec::GpuSpec;
use gpu_sim::trace::{pids, TraceEvent};
use spinfer_core::spmm::LaunchCtx;
use spinfer_core::SpinferError;
use spinfer_obs::metrics::percentile_sorted;
use std::collections::{HashMap, VecDeque};

/// Request length workload: uniform, or a deterministic round-robin mix
/// of (input, output) profiles — short chat turns interleaved with long
/// summarisation requests, say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LengthMix {
    /// Every request uses the config's `input_len`/`output_len`.
    Uniform,
    /// Request `i` uses `profiles[i % profiles.len()]` as
    /// `(input_len, output_len)`.
    RoundRobin(Vec<(usize, usize)>),
}

impl LengthMix {
    /// A `RoundRobin` mix with no profiles has no defined request
    /// lengths; catching it here (instead of panicking on `i % 0` deep
    /// in the serving loop) is the config-time contract every serving
    /// entry point enforces.
    pub fn validate(&self) -> Result<(), SpinferError> {
        match self {
            LengthMix::RoundRobin(p) if p.is_empty() => Err(SpinferError::EmptyLengthMix),
            _ => Ok(()),
        }
    }

    pub(crate) fn lengths(&self, i: usize, fallback: (usize, usize)) -> (usize, usize) {
        match self {
            LengthMix::Uniform => fallback,
            // Empty profiles are rejected by `validate`; the defensive
            // fallback keeps this total even if a caller skips it.
            LengthMix::RoundRobin(p) if p.is_empty() => fallback,
            LengthMix::RoundRobin(p) => p[i % p.len()],
        }
    }

    pub(crate) fn max_lengths(&self, fallback: (usize, usize)) -> (usize, usize) {
        match self {
            LengthMix::Uniform => fallback,
            LengthMix::RoundRobin(p) if p.is_empty() => fallback,
            LengthMix::RoundRobin(p) => p
                .iter()
                .fold((0, 0), |acc, &(i, o)| (acc.0.max(i), acc.1.max(o))),
        }
    }
}

/// A serving scenario.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Model served.
    pub model: ModelConfig,
    /// Framework.
    pub framework: Framework,
    /// Weight sparsity for sparse frameworks.
    pub sparsity: f64,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Iteration-level batch cap.
    pub max_batch: usize,
    /// Request arrival rate (requests/s, deterministic spacing).
    pub arrival_rps: f64,
    /// Prompt length per request.
    pub input_len: usize,
    /// Tokens generated per request.
    pub output_len: usize,
    /// Simulated horizon in seconds.
    pub duration_sec: f64,
    /// Request length workload.
    pub mix: LengthMix,
}

impl ServingConfig {
    /// Config-time validation: rejects workloads the serving loop cannot
    /// run (an empty `RoundRobin` profile list used to panic with a
    /// divide-by-zero on the profile index).
    pub fn validate(&self) -> Result<(), SpinferError> {
        self.mix.validate()
    }
}

/// Serving outcome.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Requests fully served within the horizon.
    pub completed: usize,
    /// Requests still queued/running at the end.
    pub in_flight: usize,
    /// Served requests per second.
    pub throughput_rps: f64,
    /// Generated tokens per second.
    pub tokens_per_sec: f64,
    /// Mean end-to-end latency of completed requests (s).
    pub mean_latency_sec: f64,
    /// 95th-percentile latency (s).
    pub p95_latency_sec: f64,
    /// Mean decode batch occupancy over iterations.
    pub mean_batch: f64,
    /// Maximum concurrent requests the memory model admitted.
    pub max_concurrency: usize,
    /// Decode iterations executed over the horizon.
    pub iterations: usize,
    /// Mean tokens *committed* per decode iteration. Incremental decode
    /// commits exactly the batch width, so this equals `mean_batch`;
    /// speculative decode commits accepted prefixes plus bonus tokens,
    /// and the ratio against the incremental run is the honest
    /// per-iteration speedup measure.
    pub tokens_per_iteration: f64,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    id: u64,
    arrival: f64,
    generated: usize,
    input_len: usize,
    output_len: usize,
    speculative: bool,
}

/// Upper bound on the admission cap search (sequences per GPU).
pub(crate) const CAP_CEILING: usize = 4096;

/// Maximum concurrent sequences the per-GPU memory supports at full
/// context plus `extra` KV entries per sequence (weights + KV for `n`
/// sequences must fit).
///
/// The KV footprint is monotone in the sequence count, so instead of
/// probing every `n` up to [`CAP_CEILING`] (thousands of `footprint`
/// evaluations for roomy deployments) we double until the first OOM
/// bracket and binary-search inside it: `O(log cap)` probes, same
/// answer as the linear scan (pinned by a test below).
fn memory_concurrency_cap(spec: &GpuSpec, cfg: &ServingConfig, extra: usize) -> usize {
    let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
    concurrency_cap(
        spec,
        &cfg.model,
        cfg.framework,
        cfg.sparsity,
        cfg.tp,
        max_in + max_out + extra,
    )
}

/// The doubling + binary-search admission cap behind
/// [`memory_concurrency_cap`], parameterised on the deployment tuple so
/// the fleet cluster layer can size per-replica KV headroom with the
/// same oracle-pinned search.
pub(crate) fn concurrency_cap(
    spec: &GpuSpec,
    model: &ModelConfig,
    framework: Framework,
    sparsity: f64,
    tp: usize,
    total_len: usize,
) -> usize {
    let fits = |n: usize| !footprint(model, framework, sparsity, tp, n, total_len).is_oom(spec);
    if !fits(1) {
        return 0;
    }
    // Doubling: grow `hi` until it no longer fits (or clears the ceiling).
    let mut lo = 1usize; // invariant: fits(lo)
    let mut hi = 2usize;
    while hi <= CAP_CEILING && fits(hi) {
        lo = hi;
        hi *= 2;
    }
    if lo >= CAP_CEILING {
        return CAP_CEILING;
    }
    let mut hi = hi.min(CAP_CEILING + 1); // invariant: !fits(hi) or hi > ceiling
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One decode iteration, priced: its launch plan and its two phases.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepCost {
    /// Width and KV context of the iteration's verify launch.
    pub(crate) plan: StepPlan,
    /// Draft-model seconds; exactly `0.0` when nothing speculates.
    pub(crate) draft_sec: f64,
    /// The wide-N verify launch plus attention, comm and per-layer
    /// overhead.
    pub(crate) verify_sec: f64,
}

/// The cost and commit model of one serving step, shared by the
/// single-GPU loop and every fleet replica.
///
/// Incremental decode is the width-1 tree: under a degenerate (or
/// unarmed) verifier every request folds one token at its base context,
/// the draft costs exactly `0.0`, and each commit is one token. Costs
/// are memoised per `(Framework, n)`, since a fleet replica changes
/// framework as it walks the degradation ladder. The model makes no
/// pricing choice of its own: callers pass the context and prompt
/// lengths they price (DESIGN.md §12 lists where the two callers
/// differ).
pub(crate) struct StepModel<'a> {
    spec: &'a GpuSpec,
    model: &'a ModelConfig,
    sparsity: f64,
    tp: usize,
    draft: DraftModel,
    verifier: TreeVerifier,
    linear: HashMap<(Framework, usize), f64>,
    prefill: HashMap<(Framework, usize), f64>,
    drafts: HashMap<(Framework, usize), f64>,
}

impl<'a> StepModel<'a> {
    /// A step model for one deployment, speculating per `spec_cfg`
    /// ([`SpecConfig::degenerate`] for incremental decode).
    pub(crate) fn new(
        spec: &'a GpuSpec,
        model: &'a ModelConfig,
        sparsity: f64,
        tp: usize,
        spec_cfg: &SpecConfig,
    ) -> Self {
        StepModel {
            spec,
            model,
            sparsity,
            tp,
            draft: spec_cfg.draft,
            verifier: TreeVerifier::new(spec_cfg),
            linear: HashMap::new(),
            prefill: HashMap::new(),
            drafts: HashMap::new(),
        }
    }

    /// The run's speculation oracle; degenerate for incremental decode.
    pub(crate) fn verifier(&self) -> &TreeVerifier {
        &self.verifier
    }

    fn linear_sec(&mut self, fw: Framework, n: usize) -> f64 {
        *self.linear.entry((fw, n)).or_insert_with(|| {
            linear_pass_sec(self.spec, self.model, fw, self.sparsity, self.tp, n)
        })
    }

    /// One admitted request's prefill: a linear pass over its `tokens`
    /// prompt tokens plus that pass's attention and overhead.
    pub(crate) fn prefill_sec(&mut self, fw: Framework, tokens: usize) -> f64 {
        if let Some(&t) = self.prefill.get(&(fw, tokens)) {
            return t;
        }
        let t = self.linear_sec(fw, tokens)
            + decode_overhead_sec(self.spec, self.model, fw, self.tp, 1, tokens);
        self.prefill.insert((fw, tokens), t);
        t
    }

    /// Prices one decode iteration through [`plan_step`]: `requests`
    /// yields, per running request, whether it speculates and the base
    /// KV context the caller prices it at.
    pub(crate) fn price<I>(&mut self, fw: Framework, requests: I) -> StepCost
    where
        I: IntoIterator<Item = (bool, usize)>,
    {
        let plan = plan_step(requests, self.verifier.tree());
        let draft_sec = *self.drafts.entry((fw, plan.spec_batch)).or_insert_with(|| {
            self.draft.propose_sec(
                self.spec,
                self.model,
                fw,
                self.sparsity,
                self.tp,
                plan.spec_batch,
                self.verifier.tree(),
            )
        });
        let verify_sec = self.linear_sec(fw, plan.verify_tokens)
            + decode_overhead_sec(self.spec, self.model, fw, self.tp, plan.batch, plan.sum_ctx);
        StepCost {
            plan,
            draft_sec,
            verify_sec,
        }
    }

    /// Commits one request's share of a priced iteration and returns the
    /// tokens it gains. A speculative request takes its accepted prefix
    /// plus the bonus token through [`TreeVerifier::outcome`], rolls the
    /// rejected candidates back, and records all three in `ledger`; a
    /// plain request commits one token.
    pub(crate) fn commit(
        &self,
        ledger: &mut SpecStats,
        id: u64,
        speculative: bool,
        generated: usize,
        output_len: usize,
    ) -> usize {
        if !speculative {
            return 1;
        }
        let o = self
            .verifier
            .outcome(id, generated as u64, output_len - generated);
        ledger.proposed += self.verifier.tree().nodes() as u64;
        ledger.accepted += o.accepted as u64;
        ledger.bonus += 1;
        ledger.rolled_back += o.rolled_back as u64;
        o.committed
    }
}

/// Runs the continuous-batching loop with incremental decode: the
/// width-1 case of [`serve_spec_ctx`], run under
/// [`SpecConfig::degenerate`].
///
/// # Panics
///
/// Panics if the model cannot serve even one request on this deployment.
pub fn serve_ctx(ctx: &LaunchCtx<'_>, cfg: &ServingConfig) -> ServingReport {
    serve_spec_ctx(ctx, cfg, &SpecConfig::degenerate()).serving
}

/// The continuous-batching loop. Requests selected by
/// `spec_cfg.spec_share` draft a candidate tree each decode iteration
/// and verify every candidate inside the batch's single wide-N launch;
/// the rest decode one token. The capability bundle arrives as a
/// [`LaunchCtx`]: with a sink attached, each prefill admission and each
/// decode iteration becomes a span on the serving track, timestamped on
/// the *serving simulation clock* (seconds → trace µs). Callers validate
/// the configs first ([`ServingConfig::validate`],
/// [`SpecConfig::validate`]).
///
/// # Panics
///
/// Panics if the model cannot serve even one request on this deployment
/// with the candidate tree's extra KV entries.
pub fn serve_spec_ctx(
    ctx: &LaunchCtx<'_>,
    cfg: &ServingConfig,
    spec_cfg: &SpecConfig,
) -> SpecServingReport {
    const ENGINE: (u32, u32) = (pids::SERVING, 0);
    let spec = ctx.spec;
    let sink = ctx.sink;
    let mut spans: Vec<TraceEvent> = Vec::new();
    let mut step = StepModel::new(spec, &cfg.model, cfg.sparsity, cfg.tp, spec_cfg);
    let tree_nodes = step.verifier().tree().nodes();
    let draft_tokens_req = spec_cfg
        .draft
        .draft_tokens_per_request(step.verifier().tree());
    // Admission must also fit each candidate tree's KV entries: every
    // speculative request holds `nodes` extra cache slots between draft
    // and rollback. The degenerate tree adds zero.
    let mem_cap = memory_concurrency_cap(spec, cfg, tree_nodes);
    assert!(
        mem_cap >= 1,
        "{} via {:?} on {}x{} cannot fit a single request with a {}-node tree",
        cfg.model.name,
        cfg.framework,
        cfg.tp,
        spec.name,
        tree_nodes
    );
    let cap = mem_cap.min(cfg.max_batch).max(1);

    let inter_arrival = 1.0 / cfg.arrival_rps.max(1e-9);
    let mut next_arrival = 0.0f64;
    let mut arrived = 0usize;
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut running: Vec<Request> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut tokens_out = 0usize;
    let mut now = 0.0f64;
    let mut batch_sum = 0.0f64;
    let mut iterations = 0usize;
    let mut max_concurrency = 0usize;
    let mut stats = SpecStats::default();

    while now < cfg.duration_sec {
        // Admit arrivals up to `now`.
        while next_arrival <= now {
            let (input_len, output_len) = cfg.mix.lengths(arrived, (cfg.input_len, cfg.output_len));
            let id = arrived as u64;
            queue.push_back(Request {
                id,
                arrival: next_arrival,
                generated: 0,
                input_len,
                output_len,
                speculative: step.verifier().speculates(id),
            });
            arrived += 1;
            next_arrival = inter_arrival * arrived as f64;
        }
        // Admit queued requests into the running batch (prefill each).
        while running.len() < cap {
            let Some(r) = queue.pop_front() else {
                break;
            };
            let cost = step.prefill_sec(cfg.framework, r.input_len.max(1));
            if sink.is_some() {
                spans.push(TraceEvent::span(
                    ENGINE,
                    "prefill",
                    "phase",
                    now * 1e6,
                    cost * 1e6,
                ));
            }
            now += cost;
            if r.speculative {
                stats.spec_requests += 1;
            } else {
                stats.plain_requests += 1;
            }
            running.push(r);
        }
        max_concurrency = max_concurrency.max(running.len());

        if running.is_empty() {
            // Idle until the next arrival.
            if next_arrival >= cfg.duration_sec {
                break;
            }
            now = next_arrival;
            continue;
        }

        // One tree-verify iteration for the whole running batch: the
        // plan folds every request's candidates (or single token) into
        // one wide-N launch over the topology-attributed KV context.
        let b = running.len();
        let StepCost {
            plan,
            draft_sec: draft,
            verify_sec: verify,
        } = step.price(
            cfg.framework,
            running
                .iter()
                .map(|r| (r.speculative, r.input_len + r.generated + 1)),
        );
        let step_sec = draft + verify;
        if sink.is_some() {
            if plan.spec_batch == 0 {
                spans.push(
                    TraceEvent::span(ENGINE, "decode_iter", "phase", now * 1e6, step_sec * 1e6)
                        .with_arg("batch", b as f64),
                );
            } else {
                spans.push(
                    TraceEvent::span(ENGINE, "draft", "phase", now * 1e6, draft * 1e6)
                        .with_arg("spec_batch", plan.spec_batch as f64),
                );
                spans.push(
                    TraceEvent::span(ENGINE, "verify", "phase", (now + draft) * 1e6, verify * 1e6)
                        .with_arg("tokens", plan.verify_tokens as f64),
                );
            }
        }
        now += step_sec;
        iterations += 1;
        batch_sum += b as f64;
        stats.verify_tokens += plan.verify_tokens as u64;
        stats.verify_sec += verify;
        if plan.spec_batch > 0 {
            stats.spec_iterations += 1;
            stats.draft_sec += draft;
            stats.draft_tokens += (plan.spec_batch * draft_tokens_req) as u64;
        }

        // Commit, then retire finished requests.
        let mut committed_now = 0usize;
        for r in running.iter_mut() {
            let commit = step.commit(&mut stats, r.id, r.speculative, r.generated, r.output_len);
            r.generated += commit;
            committed_now += commit;
        }
        tokens_out += committed_now;
        if sink.is_some() && plan.spec_batch > 0 {
            spans.push(
                TraceEvent::instant(ENGINE, "accept", "phase", now * 1e6)
                    .with_arg("committed", committed_now as f64),
            );
        }
        running.retain(|r| {
            if r.generated >= r.output_len {
                latencies.push(now - r.arrival);
                false
            } else {
                true
            }
        });
    }

    if let Some(sink) = sink {
        sink.name_track(ENGINE, "serving sim (sim µs)", "engine");
        sink.extend(spans);
    }

    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len();
    let mean = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<f64>() / completed as f64
    };
    let p95 = percentile_sorted(&latencies, 0.95);
    SpecServingReport {
        serving: ServingReport {
            completed,
            in_flight: queue.len() + running.len(),
            throughput_rps: completed as f64 / now.max(1e-9),
            tokens_per_sec: tokens_out as f64 / now.max(1e-9),
            mean_latency_sec: mean,
            p95_latency_sec: p95,
            mean_batch: if iterations == 0 {
                0.0
            } else {
                batch_sum / iterations as f64
            },
            max_concurrency,
            iterations,
            tokens_per_iteration: if iterations == 0 {
                0.0
            } else {
                tokens_out as f64 / iterations as f64
            },
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(framework: Framework, arrival_rps: f64) -> ServingConfig {
        ServingConfig {
            model: ModelConfig::opt_13b(),
            framework,
            sparsity: 0.6,
            tp: 2,
            max_batch: 32,
            arrival_rps,
            input_len: 64,
            output_len: 128,
            duration_sec: 60.0,
            mix: LengthMix::Uniform,
        }
    }

    #[test]
    fn light_load_is_latency_dominated() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let r = serve_ctx(&ctx, &cfg(Framework::SpInfer, 0.2));
        assert!(r.completed >= 8, "completed {}", r.completed);
        // At 0.2 rps the server keeps up: throughput ≈ arrival rate.
        assert!(
            (r.throughput_rps - 0.2).abs() < 0.06,
            "rps {}",
            r.throughput_rps
        );
        assert!(r.mean_batch < 4.0, "mean batch {}", r.mean_batch);
    }

    #[test]
    fn heavy_load_saturates_and_batches() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let light = serve_ctx(&ctx, &cfg(Framework::SpInfer, 0.2));
        let heavy = serve_ctx(&ctx, &cfg(Framework::SpInfer, 50.0));
        assert!(heavy.mean_batch > 8.0, "mean batch {}", heavy.mean_batch);
        assert!(heavy.tokens_per_sec > 3.0 * light.tokens_per_sec);
        // Overload: queueing delay pushes latency far past service time.
        assert!(heavy.p95_latency_sec > light.p95_latency_sec);
        assert!(heavy.in_flight > 0);
    }

    #[test]
    fn spinfer_sustains_more_load_than_dense() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let rate = 50.0; // Overload both; compare saturated throughput.
        let sp = serve_ctx(&ctx, &cfg(Framework::SpInfer, rate));
        let ft = serve_ctx(&ctx, &cfg(Framework::FasterTransformer, rate));
        assert!(
            sp.tokens_per_sec > 1.15 * ft.tokens_per_sec,
            "SpInfer {} vs FT {}",
            sp.tokens_per_sec,
            ft.tokens_per_sec
        );
    }

    #[test]
    fn memory_cap_bounds_concurrency() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        // Single GPU: dense 13B cannot serve at all; SpInfer can.
        let mut c = cfg(Framework::SpInfer, 50.0);
        c.tp = 1;
        let r = serve_ctx(&ctx, &c);
        assert!(r.max_concurrency >= 1);
        assert!(r.max_concurrency <= 32);
        let cap = memory_concurrency_cap(&spec, &c, 0);
        assert!(r.max_concurrency <= cap.min(32));
    }

    #[test]
    fn mixed_lengths_complete_and_differ_in_latency() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let mut c = cfg(Framework::SpInfer, 2.0);
        c.mix = LengthMix::RoundRobin(vec![(32, 32), (256, 512)]);
        let r = serve_ctx(&ctx, &c);
        assert!(r.completed > 10, "completed {}", r.completed);
        // Long requests stretch the tail: p95 well above the mean.
        assert!(
            r.p95_latency_sec > 1.5 * r.mean_latency_sec,
            "p95 {} vs mean {}",
            r.p95_latency_sec,
            r.mean_latency_sec
        );
    }

    #[test]
    fn empty_round_robin_mix_is_a_typed_error_not_a_panic() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let mut c = cfg(Framework::SpInfer, 2.0);
        c.mix = LengthMix::RoundRobin(vec![]);
        // Config-time validation rejects it...
        assert_eq!(c.validate(), Err(SpinferError::EmptyLengthMix));
        // ...and even the unchecked loop no longer divides by zero: the
        // defensive fallback serves the config's uniform lengths.
        let degenerate = serve_ctx(&ctx, &c);
        c.mix = LengthMix::Uniform;
        let uniform = serve_ctx(&ctx, &c);
        assert_eq!(degenerate.completed, uniform.completed);
        // A populated mix and a Uniform mix both validate.
        assert!(LengthMix::Uniform.validate().is_ok());
        assert!(LengthMix::RoundRobin(vec![(8, 8)]).validate().is_ok());
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn infeasible_deployment_panics() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let mut c = cfg(Framework::FasterTransformer, 1.0);
        c.tp = 1; // Dense OPT-13B does not fit one 24 GB GPU.
        serve_ctx(&ctx, &c);
    }

    /// The linear probe the binary search replaced, kept as the oracle.
    fn linear_cap_oracle(spec: &GpuSpec, cfg: &ServingConfig) -> usize {
        let (max_in, max_out) = cfg.mix.max_lengths((cfg.input_len, cfg.output_len));
        let total_len = max_in + max_out;
        let mut n = 0usize;
        while n < CAP_CEILING {
            let fp = footprint(
                &cfg.model,
                cfg.framework,
                cfg.sparsity,
                cfg.tp,
                n + 1,
                total_len,
            );
            if fp.is_oom(spec) {
                break;
            }
            n += 1;
        }
        n
    }

    #[test]
    fn concurrency_cap_matches_linear_oracle() {
        let spec = GpuSpec::rtx4090();
        for fw in [
            Framework::SpInfer,
            Framework::FasterTransformer,
            Framework::FlashLlm,
        ] {
            for tp in [1usize, 2, 4] {
                let mut c = cfg(fw, 1.0);
                c.tp = tp;
                assert_eq!(
                    memory_concurrency_cap(&spec, &c, 0),
                    linear_cap_oracle(&spec, &c),
                    "{fw:?} tp={tp}"
                );
            }
        }
        // Mixed lengths size KV for the worst-case profile.
        let mut c = cfg(Framework::SpInfer, 1.0);
        c.mix = LengthMix::RoundRobin(vec![(32, 32), (256, 512)]);
        assert_eq!(
            memory_concurrency_cap(&spec, &c, 0),
            linear_cap_oracle(&spec, &c)
        );
    }

    #[test]
    fn degenerate_spec_collapses_onto_incremental_bitwise() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let c = cfg(Framework::SpInfer, 2.0);
        let plain = serve_ctx(&ctx, &c);
        let r = serve_spec_ctx(&ctx, &c, &SpecConfig::degenerate());
        assert_eq!(plain.completed, r.serving.completed);
        assert_eq!(plain.in_flight, r.serving.in_flight);
        assert_eq!(plain.iterations, r.serving.iterations);
        assert_eq!(plain.max_concurrency, r.serving.max_concurrency);
        assert_eq!(
            plain.tokens_per_sec.to_bits(),
            r.serving.tokens_per_sec.to_bits()
        );
        assert_eq!(
            plain.mean_latency_sec.to_bits(),
            r.serving.mean_latency_sec.to_bits()
        );
        assert_eq!(
            plain.p95_latency_sec.to_bits(),
            r.serving.p95_latency_sec.to_bits()
        );
        assert_eq!(
            plain.tokens_per_iteration.to_bits(),
            r.serving.tokens_per_iteration.to_bits()
        );
        // Nothing speculated: the ledger records only the plain path.
        assert_eq!(r.stats.spec_requests, 0);
        assert_eq!(r.stats.spec_iterations, 0);
        assert_eq!(r.stats.proposed, 0);
        assert_eq!(r.stats.draft_sec, 0.0);
        assert_eq!(r.tokens_per_launch().to_bits(), plain.mean_batch.to_bits());
    }

    #[test]
    fn degenerate_spec_records_the_incremental_trace() {
        use gpu_sim::trace::TraceSink;
        let spec = GpuSpec::rtx4090();
        let c = cfg(Framework::SpInfer, 2.0);
        let s_plain = TraceSink::new();
        serve_ctx(&LaunchCtx::new(&spec).with_sink(&s_plain), &c);
        let s_spec = TraceSink::new();
        serve_spec_ctx(
            &LaunchCtx::new(&spec).with_sink(&s_spec),
            &c,
            &SpecConfig::degenerate(),
        );
        let (a, b) = (s_plain.finish(), s_spec.finish());
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ts_us.to_bits(), y.ts_us.to_bits());
            assert_eq!(x.dur_us.to_bits(), y.dur_us.to_bits());
            assert_eq!(x.arg, y.arg);
        }
    }

    #[test]
    fn high_acceptance_beats_incremental_and_zero_acceptance_loses() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let c = cfg(Framework::SpInfer, 50.0); // saturated: batching regime
        let plain = serve_ctx(&ctx, &c);
        let fast = serve_spec_ctx(
            &ctx,
            &c,
            &SpecConfig {
                acceptance_rate: 0.8,
                ..SpecConfig::default()
            },
        );
        assert!(
            fast.serving.tokens_per_sec > 1.2 * plain.tokens_per_sec,
            "spec {} vs incremental {}",
            fast.serving.tokens_per_sec,
            plain.tokens_per_sec
        );
        assert!(fast.serving.tokens_per_iteration > 2.0 * plain.tokens_per_iteration);
        // Acceptance is measured against all 8 proposed candidates but
        // only one depth-3 path can be accepted, so 3/8 is the ceiling;
        // rate 0.8 lands near 2/8.
        assert!(fast.stats.observed_acceptance() > 0.15);
        assert!(fast.stats.observed_acceptance() <= 0.375);
        // Rejecting every candidate still pays for drafting and the
        // 9×-wide verify launches: strictly worse than incremental.
        let slow = serve_spec_ctx(
            &ctx,
            &c,
            &SpecConfig {
                acceptance_rate: 0.0,
                ..SpecConfig::default()
            },
        );
        assert!(
            slow.serving.tokens_per_sec < plain.tokens_per_sec,
            "spec@0 {} vs incremental {}",
            slow.serving.tokens_per_sec,
            plain.tokens_per_sec
        );
        assert_eq!(slow.stats.accepted, 0);
        assert!(slow.stats.rolled_back > 0);
    }

    #[test]
    fn mixed_share_splits_the_batch_and_commits_within_bounds() {
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let c = cfg(Framework::SpInfer, 10.0);
        let r = serve_spec_ctx(
            &ctx,
            &c,
            &SpecConfig {
                spec_share: 0.5,
                ..SpecConfig::default()
            },
        );
        assert!(r.stats.spec_requests > 0);
        assert!(r.stats.plain_requests > 0);
        // Commits never overrun a request's output length: completed
        // tokens are bounded by completed-and-running demand.
        let max_tokens = (r.serving.completed + r.serving.in_flight) * c.output_len;
        assert!(r.stats.accepted + r.stats.bonus <= max_tokens as u64);
    }

    #[test]
    fn step_model_memoises_per_framework_and_width() {
        // A memo keyed by `n` alone would hand the second framework the
        // first one's costs — the fleet's fallback rung priced at the
        // primary rung's speed. Revisiting the first framework checks
        // the memo hit as well as the miss.
        let spec = GpuSpec::rtx4090();
        let model = ModelConfig::opt_13b();
        let spec_cfg = SpecConfig::default();
        let tree = spec_cfg.shape.build();
        let (sparsity, tp, n, ctx_len) = (0.6, 2, 16, 100);
        let mut step = StepModel::new(&spec, &model, sparsity, tp, &spec_cfg);
        let mut costs = Vec::new();
        for fw in [
            Framework::SpInfer,
            Framework::FasterTransformer,
            Framework::SpInfer,
        ] {
            let prefill = step.prefill_sec(fw, n);
            let direct = linear_pass_sec(&spec, &model, fw, sparsity, tp, n)
                + decode_overhead_sec(&spec, &model, fw, tp, 1, n);
            assert_eq!(prefill.to_bits(), direct.to_bits(), "{fw:?} prefill");

            let cost = step.price(fw, vec![(true, ctx_len); n]);
            let plan = plan_step(vec![(true, ctx_len); n], &tree);
            assert_eq!(cost.plan, plan);
            let verify = linear_pass_sec(&spec, &model, fw, sparsity, tp, plan.verify_tokens)
                + decode_overhead_sec(&spec, &model, fw, tp, n, plan.sum_ctx);
            assert_eq!(cost.verify_sec.to_bits(), verify.to_bits(), "{fw:?} verify");
            let draft = spec_cfg
                .draft
                .propose_sec(&spec, &model, fw, sparsity, tp, n, &tree);
            assert_eq!(cost.draft_sec.to_bits(), draft.to_bits(), "{fw:?} draft");
            costs.push((prefill, cost.verify_sec, cost.draft_sec));
        }
        let (sp, ft) = (costs[0], costs[1]);
        assert_ne!(sp.0, ft.0, "prefill must differ by framework");
        assert_ne!(sp.1, ft.1, "verify must differ by framework");
        assert_ne!(sp.2, ft.2, "draft must differ by framework");
        assert_eq!(costs[0], costs[2]);
    }

    #[test]
    fn traced_serve_matches_untraced_and_covers_the_horizon() {
        use gpu_sim::trace::{EventKind, TraceSink};
        let spec = GpuSpec::rtx4090();
        let ctx = LaunchCtx::new(&spec);
        let c = cfg(Framework::SpInfer, 2.0);
        let plain = serve_ctx(&ctx, &c);
        let sink = TraceSink::new();
        let traced = serve_ctx(&LaunchCtx::new(&spec).with_sink(&sink), &c);
        // Tracing only records — the report is bit-identical.
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(
            plain.throughput_rps.to_bits(),
            traced.throughput_rps.to_bits()
        );
        assert_eq!(
            plain.p95_latency_sec.to_bits(),
            traced.p95_latency_sec.to_bits()
        );
        let t = sink.finish();
        let spans: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        // One span per prefill admission + one per decode iteration; at
        // 2 rps over 60 s there are at least `completed` of each kind.
        assert!(t.phase_names("phase").contains(&"prefill"));
        assert!(t.phase_names("phase").contains(&"decode_iter"));
        assert!(spans.len() >= 2 * plain.completed, "spans {}", spans.len());
        assert!(spans.iter().all(|e| e.dur_us >= 0.0 && e.ts_us >= 0.0));
        // Spans live on the serving sim clock: none extends past the
        // final sim timestamp implied by the horizon plus one step.
        let end = spans.iter().map(|e| e.ts_us + e.dur_us).fold(0.0, f64::max);
        assert!(end < (c.duration_sec + 10.0) * 1e6, "end {end}");
        // Decode spans carry the batch size as an argument.
        assert!(spans
            .iter()
            .filter(|e| e.name == "decode_iter")
            .all(|e| matches!(e.arg, Some(("batch", b)) if b >= 1.0)));
    }
}
