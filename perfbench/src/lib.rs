//! End-to-end and per-layer benchmark of the SpInfer reproduction.
//!
//! Three workloads, each run as its own process by one closed-loop
//! client (`src/main.rs`). Every number is read on one of two clocks:
//! host CPU time for how fast the simulator runs, or simulated GPU
//! time (and simulation counts) for the reproduction's result. The
//! benchmark only calls public functions of the library crates; it
//! never changes them. `README.md` lists the metrics, their clocks and
//! the effect each likely change is expected to have.

pub mod decode;
pub mod fleet;
pub mod harness;
pub mod ingest;

use harness::{Outcome, Workload};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["opt13b_decode", "llama7b_ingest", "fleet_chaos_spec"];

/// End-to-end metrics (printed by untraced runs) with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_step_us", "us"),
    ("weight_bytes_ratio", "ratio"),
    ("sim_goodput_rps", "req/s"),
];

/// Per-layer metrics (printed by traced runs) with their units. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("gpu_sim.matrix.generate_s", "s"),
    ("gpu_sim.counters.dram_read_bytes", "bytes"),
    ("gpu_sim.counters.smem_bank_conflicts", "count"),
    ("gpu_sim.counters.mma_insts", "count"),
    ("gpu_sim.counters.insts_issued", "count"),
    ("core.tca_bme.encode_s", "s"),
    ("core.tca_bme.storage_bytes", "bytes"),
    ("core.spmm.host_s.qkv", "s"),
    ("core.spmm.host_s.attn_out", "s"),
    ("core.spmm.host_s.ffn_up", "s"),
    ("core.spmm.host_s.ffn_down", "s"),
    ("core.spmm.sim_us.qkv", "us"),
    ("core.spmm.sim_us.attn_out", "us"),
    ("core.spmm.sim_us.ffn_up", "us"),
    ("core.spmm.sim_us.ffn_down", "us"),
    ("core.spmm.sim_phase_us.stream_w", "us"),
    ("core.spmm.sim_phase_us.stream_x", "us"),
    ("core.spmm.sim_phase_us.smbd_decode", "us"),
    ("core.spmm.sim_phase_us.mma", "us"),
    ("core.spmm.sim_phase_us.epilogue", "us"),
    ("core.spmm.sim_phase_us.reduction", "us"),
    ("core.spmm.sim_speedup_vs_cublas", "x"),
    ("core.tca_bme.quantize_int8_s", "s"),
    ("core.tca_bme.validate_s", "s"),
    ("core.serialize.to_bytes_s", "s"),
    ("core.serialize.from_bytes_s", "s"),
    ("core.serialize.bytes", "bytes"),
    ("core.spmm_int8.host_s", "s"),
    ("core.spmm_int8.sim_us", "us"),
    ("pruning.wanda_s", "s"),
    ("llm.model.step_s", "s"),
    ("llm.model.host_ops_s", "s"),
    ("llm.model.launches", "count"),
    ("llm.cluster.simulate_s", "s"),
    ("llm.cluster.steps", "count"),
    ("llm.cluster.host_us_per_step", "us"),
    ("llm.cluster.arrivals", "count"),
    ("llm.cluster.completed", "count"),
    ("llm.cluster.completed_in_slo", "count"),
    ("llm.cluster.retries", "count"),
    ("llm.cluster.shed", "count"),
    ("llm.cluster.timeouts", "count"),
    ("llm.cluster.crashes", "count"),
    ("llm.cluster.degrade_escalations", "count"),
    ("llm.spec.acceptance", "ratio"),
    ("llm.spec.rolled_back", "count"),
    ("llm.serving.serve_s", "s"),
    ("llm.spec.serve_spec_s", "s"),
    ("obs.trace_events", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Runs workload `name` at full size, timed (`trace == false`) or
/// traced. `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    fn go<W: Workload>(w: W, seed: u64, seconds: f64, trace: bool) -> Outcome {
        if trace {
            harness::run_traced(&w, seed, seconds)
        } else {
            harness::run_timed(&w, seed, seconds)
        }
    }
    Some(match name {
        "opt13b_decode" => go(decode::Decode::opt13b(), seed, seconds, trace),
        "llama7b_ingest" => go(ingest::Ingest::llama7b(), seed, seconds, trace),
        "fleet_chaos_spec" => go(fleet::Fleet::chaos_spec(), seed, seconds, trace),
        _ => return None,
    })
}
