//! Simulated-clock determinism gate, at reduced sizes: every simulated
//! metric and every per-layer count must be bit-identical across two
//! runs and at host job counts 1 and 2. Host-clock metrics are noisy by
//! nature and excluded.

use spinfer_llm::ModelConfig;
use spinfer_perfbench::decode::Decode;
use spinfer_perfbench::fleet::Fleet;
use spinfer_perfbench::harness::{sim_fingerprint, Workload};
use spinfer_perfbench::ingest::Ingest;
use spinfer_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn small_decode() -> Decode {
    Decode {
        model: ModelConfig {
            name: "OPT-small",
            layers: 1,
            hidden: 256,
            heads: 4,
            kv_heads: 4,
            ffn_hidden: 1024,
            vocab: 64,
            gated_ffn: false,
            experts: 1,
            active_experts: 1,
        },
        ..Decode::opt13b()
    }
}

fn small_ingest() -> Ingest {
    Ingest {
        m: 256,
        k: 256,
        samples: 8,
        ..Ingest::llama7b()
    }
}

fn small_fleet() -> Fleet {
    let mut f = Fleet::chaos_spec();
    f.cluster.duration_sec = 600.0;
    f
}

/// Fingerprints at jobs 2, 1, 1: all three must match bit for bit.
fn assert_job_invariant<W: Workload>(w: &W, name: &str) {
    let runs: Vec<_> = [2, 1, 1]
        .into_iter()
        .map(|jobs| {
            gpu_sim::exec::set_jobs(jobs);
            sim_fingerprint(w, 7)
        })
        .collect();
    gpu_sim::exec::set_jobs(0);
    let (digest, metrics) = &runs[0];
    assert!(!metrics.is_empty(), "{name}: no simulated metrics");
    for (d, m) in &runs[1..] {
        assert_eq!(d, digest, "{name}: output digest moved");
        for (a, b) in m.iter().zip(metrics) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{name}: {} = {} vs {}",
                a.name,
                a.value,
                b.value
            );
        }
        assert_eq!(m.len(), metrics.len(), "{name}: metric set moved");
    }
}

// One test body: the job-count override is process-global.
#[test]
fn simulated_metrics_are_bit_identical_across_runs_and_job_counts() {
    assert_job_invariant(&small_decode(), "decode");
    assert_job_invariant(&small_ingest(), "ingest");
    assert_job_invariant(&small_fleet(), "fleet");
}

#[test]
fn reduced_decode_and_ingest_pass_their_reference_checks() {
    let tr = spinfer_perfbench::harness::Tracer::off();
    let d = small_decode();
    let st = d.setup(3, &tr);
    let out = d.op(&st, &tr).expect("decode step");
    d.check(&st, &out).expect("decode reference");
    let i = small_ingest();
    let st = i.setup(3, &tr);
    let out = i.op(&st, &tr).expect("ingest op");
    i.check(&st, &out).expect("ingest reference");
}

#[test]
fn different_seeds_give_different_inputs() {
    let tr = spinfer_perfbench::harness::Tracer::off();
    let w = small_ingest();
    let digest = |seed| w.digest(&w.op(&w.setup(seed, &tr), &tr).expect("ingest op"));
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = spinfer_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
