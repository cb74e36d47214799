//! `SpmmKernel` trait conformance, pinned for every registry entry.
//!
//! The contract (see `spinfer_core::spmm::SpmmKernel`):
//!
//! 1. `run(spec, w, x)` ≡ `encode` + `launch` on a bare [`LaunchCtx`],
//!    bit-identically — output bits, per-launch counter digests, and
//!    simulated-time bits.
//! 2. Results are bit-identical at any host job count (1 vs 8 here).
//! 3. Attaching a trace sink is output-neutral and actually records
//!    events.
//! 4. A kernel's own encoding passes its `validate`.
//! 5. `estimate_synthetic` prices exactly what the per-kernel estimator
//!    calls it replaced priced (the private oracle below).
//!
//! The run contract (1–4) runs inside one `#[test]` body:
//! `exec::set_jobs` is process-global, so the job sweep must not
//! interleave with another test thread in this binary.

use gpu_sim::exec;
use gpu_sim::matrix::{checksum_f32, random_dense, random_sparse, ValueDist};
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use spinfer_baselines::kernels::{
    CublasGemm, CusparseSpmm, FlashLlmSpmm, FlashLlmStats, SmatSpmm, SmatStats, SpartaSpmm,
    SpartaStats, SputnikSpmm,
};
use spinfer_baselines::registry;
use spinfer_core::spmm::{LaunchCtx, SpmmRun};
use spinfer_core::{FormatStats, SpinferSpmm, SpinferSpmmInt8};

/// The complete observable signature of one run: output checksum plus,
/// per launch, (kernel name, counter digest, simulated-time bits).
fn signature(run: &SpmmRun) -> (u64, Vec<(String, u64, u64)>) {
    let out = checksum_f32(run.output.as_ref().expect("functional output"));
    let launches = run
        .chain
        .launches
        .iter()
        .map(|l| (l.name.clone(), l.counters.digest(), l.time_us().to_bits()))
        .collect();
    (out, launches)
}

#[test]
fn every_registered_kernel_honors_the_contract() {
    let spec = GpuSpec::rtx4090();
    let (m, k, n) = (128usize, 128usize, 16usize);
    let w = random_sparse(m, k, 0.6, ValueDist::Uniform, 2024);
    let x = random_dense(k, n, ValueDist::Uniform, 2025);

    let kernels = registry();
    assert!(kernels.len() >= 8, "registry lost kernels");
    for kernel in kernels {
        let name = kernel.name();

        // Reference signature at the default job count.
        exec::set_jobs(0);
        let reference = signature(&kernel.run(&spec, &w, &x));

        // A kernel's own encoding validates, and `run` decomposes into
        // `encode` + `launch` on a bare context with the same bits.
        let enc = kernel.encode(&w);
        kernel
            .validate(&enc)
            .unwrap_or_else(|e| panic!("{name}: own encoding must validate: {e}"));
        let launched = kernel
            .launch(&LaunchCtx::new(&spec), &enc, &x)
            .unwrap_or_else(|e| panic!("{name}: bare-context launch failed: {e}"));
        assert_eq!(
            signature(&launched),
            reference,
            "{name}: run vs encode+launch"
        );

        // Job-count invariance, and trace-sink neutrality at each job
        // count: the traced signature must equal the untraced reference.
        for jobs in [1usize, 8] {
            exec::set_jobs(jobs);
            let run = kernel.run(&spec, &w, &x);
            assert_eq!(signature(&run), reference, "{name}: jobs={jobs}");

            let sink = TraceSink::new();
            let traced = kernel
                .launch(&LaunchCtx::new(&spec).with_sink(&sink), &enc, &x)
                .unwrap_or_else(|e| panic!("{name}: traced launch failed: {e}"));
            assert_eq!(signature(&traced), reference, "{name}: traced, jobs={jobs}");
            assert!(
                !sink.finish().events.is_empty(),
                "{name}: trace sink recorded nothing at jobs={jobs}"
            );
        }
        exec::set_jobs(0);
    }
}

/// Per-launch (name, counter digest, simulated-time bits) of an analytic
/// run, which has no output.
fn estimate_signature(run: &SpmmRun) -> Vec<(String, u64, u64)> {
    run.chain
        .launches
        .iter()
        .map(|l| (l.name.clone(), l.counters.digest(), l.time_us().to_bits()))
        .collect()
}

/// The synthetic estimate of each of the eight original kernels, called
/// through its own estimator signature the way the sweeps dispatched it
/// before `estimate_synthetic` existed. `None` for a kernel added since.
fn oracle(name: &str, spec: &GpuSpec, m: usize, k: usize, n: usize, s: f64) -> Option<SpmmRun> {
    let nnz = ((m * k) as f64 * (1.0 - s)).round() as usize;
    Some(match name {
        "cuBLAS_TC" => CublasGemm::new().estimate(spec, m, k, n),
        "SpInfer" => SpinferSpmm::new().estimate(spec, &FormatStats::synthetic(m, k, s), n),
        "SpInfer-INT8" => {
            SpinferSpmmInt8::new().estimate(spec, &FormatStats::synthetic(m, k, s), n)
        }
        "Flash-LLM" => FlashLlmSpmm::new().estimate(spec, &FlashLlmStats::synthetic(m, k, s), n),
        "SparTA" => SpartaSpmm::new().estimate(spec, &SpartaStats::synthetic(m, k, s), n),
        "Sputnik" => SputnikSpmm::new().estimate(spec, m, k, n, nnz),
        "cuSPARSE" => CusparseSpmm::new().estimate(spec, m, k, n, nnz),
        "SMaT" => SmatSpmm::new().estimate(spec, &SmatStats::synthetic_uniform(m, k, s), n),
        _ => return None,
    })
}

#[test]
fn every_synthetic_estimate_matches_its_per_kernel_oracle() {
    let spec = GpuSpec::rtx4090();
    let mut covered = 0;
    for kernel in registry() {
        let name = kernel.name();
        for (m, k) in [(900usize, 720usize), (4096, 4096), (28672, 8192)] {
            for n in [1usize, 16, 40] {
                for s in [0.0, 0.5, 0.6, 0.95] {
                    let Some(want) = oracle(name, &spec, m, k, n, s) else {
                        continue;
                    };
                    let got = kernel.estimate_synthetic(&spec, m, k, n, s);
                    assert_eq!(
                        got.time_us().to_bits(),
                        want.time_us().to_bits(),
                        "{name} {m}x{k} N={n} s={s}: simulated time"
                    );
                    assert_eq!(
                        estimate_signature(&got),
                        estimate_signature(&want),
                        "{name} {m}x{k} N={n} s={s}: launch chain"
                    );
                    assert!(got.output.is_none(), "{name}: estimates compute nothing");
                }
            }
        }
        covered += usize::from(oracle(name, &spec, 64, 64, 8, 0.5).is_some());
    }
    assert_eq!(covered, 8, "every original kernel is still registered");
}
