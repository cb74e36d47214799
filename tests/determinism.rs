//! Parallel execution engine determinism (see `gpu_sim::exec`).
//!
//! Host parallelism must be invisible in every simulated result: the
//! worker-pool fan-out has to produce the same bits as forced
//! single-thread execution — full [`gpu_sim::Counters`] equality on
//! every launch and identical FP32 output — for SpInfer and the
//! baseline kernels.

use gpu_sim::exec;
use gpu_sim::matrix::{checksum_f32, random_dense, random_sparse, ValueDist};
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use spinfer_baselines::kernel_by_name;
use spinfer_baselines::kernels::{CublasGemm, CusparseSpmm, FlashLlmSpmm, SputnikSpmm};
use spinfer_bench::sweep::{run_functional, EncodeCache, SweepPoint};
use spinfer_bench::{HERO_K, HERO_M};
use spinfer_core::spmm::SpmmKernel;
use spinfer_core::{SpinferSpmm, TcaBme};

// Captured by `cargo run --release -p spinfer-bench --bin golden`.
// Functional golden shape: 900x720x20 s=0.65 seed=1234 on RTX4090.
const GOLDEN_FUNCTIONAL: [(&str, u64, u64, u64); 8] = [
    (
        "cuBLAS_TC",
        0x6c43e71288bfb56c,
        0x401d95bc36eb4cb5,
        0x8115af377686b55e,
    ),
    (
        "SpInfer",
        0x7f02b711256e7bec,
        0x4010fe5ce279a901,
        0xbec8add38b5809ac,
    ),
    (
        "Flash-LLM",
        0x1f6db66aee63ca5f,
        0x40126532e5089162,
        0x8115af377686b55e,
    ),
    (
        "SparTA",
        0xe5cdcfc1605bcb2d,
        0x4020692093478b54,
        0x8115af377686b55e,
    ),
    (
        "Sputnik",
        0x6884a7c24b335f49,
        0x402313a9ab12274b,
        0x8115af377686b55e,
    ),
    (
        "cuSPARSE",
        0x8cf6fff4051068b5,
        0x4081a748d296d866,
        0x8115af377686b55e,
    ),
    (
        "SMaT",
        0x3d9cf9f386209224,
        0x4013c687b0524209,
        0x8115af377686b55e,
    ),
    (
        "SpInfer-INT8",
        0x63448242ba911a93,
        0x400fe6f4020d1f2c,
        0x648f84f8c8de71ed,
    ),
];
// The two SpInfer kernels at N = 1, 16 and 40 on the same shape: 1, 2
// and 5 N-tiles of 8 columns (N = 20 above is 3). N = 16 is the batch
// width of a decode step.
const GOLDEN_FUNCTIONAL_N: [(&str, usize, u64, u64, u64); 6] = [
    (
        "SpInfer",
        1,
        0xefa2f2431f0aa2ba,
        0x400ad233623cd16f,
        0x89978bf30c286fa4,
    ),
    (
        "SpInfer",
        16,
        0xe46e31e239ce9191,
        0x400eeaed8e26cc29,
        0x3ae4336a2cecd72b,
    ),
    (
        "SpInfer",
        40,
        0xc2ff1d27012dc302,
        0x4016c9f852a86e99,
        0x46f75521491a53de,
    ),
    (
        "SpInfer-INT8",
        1,
        0x771c3750722c3a6a,
        0x4008c3be145def0e,
        0xe5fe8da4ecfecd42,
    ),
    (
        "SpInfer-INT8",
        16,
        0xd9340a7304a74e6e,
        0x400cd8d005c4418d,
        0xdbbb6fc4be1bb4df,
    ),
    (
        "SpInfer-INT8",
        40,
        0x9b463fe61ef043be,
        0x4015bb6d36b1acf3,
        0x43237c2c047322ef,
    ),
];
// The two SpInfer kernels past one 128-column N tile, at the golden
// sparsity and seed: (m, k, n) 300x500x136 (ragged), 1024x512x200 and
// 640x1100x257 (a ragged third N tile). No other pin launches with more
// than one N tile, so these hold the launch's N-tile indexing.
const GOLDEN_FUNCTIONAL_WIDE: [(&str, usize, usize, usize, u64, u64, u64); 6] = [
    (
        "SpInfer",
        300,
        500,
        136,
        0x5ba42f396104d2c2,
        0x40176264cf4d519a,
        0xf4841fe48a72cfc1,
    ),
    (
        "SpInfer",
        1024,
        512,
        200,
        0x3ee2239bd5b8f61a,
        0x40332ff662ab2cee,
        0x5d4af29a079382e3,
    ),
    (
        "SpInfer",
        640,
        1100,
        257,
        0x2f5499fc9cff59f2,
        0x4034e39a70e328e9,
        0x0d2cd2d6e5ba2eb0,
    ),
    (
        "SpInfer-INT8",
        300,
        500,
        136,
        0x3ee59735531767b0,
        0x4016d685b532ba2f,
        0xeb27cfb60bfbc188,
    ),
    (
        "SpInfer-INT8",
        1024,
        512,
        200,
        0x6c320e4f75eccf4b,
        0x4032bbaa6d27ef70,
        0x08527d3dcd48f469,
    ),
    (
        "SpInfer-INT8",
        640,
        1100,
        257,
        0xe54fb3b403a025de,
        0x4033f8454394c7c4,
        0x4825f73ba5bc79d9,
    ),
];
// Analytic simulated time (µs, f64 bits) at the hero shape 28672x8192x16 s=0.6.
const GOLDEN_HERO_ANALYTIC: [(&str, u64); 8] = [
    ("cuBLAS_TC", 0x408060673be0d215),
    ("SpInfer", 0x406f949d0661a6aa),
    ("Flash-LLM", 0x407a17e77fed010b),
    ("SparTA", 0x40789a56e8b3885c),
    ("Sputnik", 0x4089b73e495a85c2),
    ("cuSPARSE", 0x40b5fcc3a7ee98ff),
    ("SMaT", 0x4080675514e03113),
    ("SpInfer-INT8", 0x4062c3107c11370f),
];

/// Runs `label` on the `(m, k, n)` golden point (sparsity 0.65, seed
/// 1234) and asserts its merged-counter digest, simulated-time bits and
/// output checksum.
fn check_functional(
    cache: &EncodeCache,
    spec: &GpuSpec,
    label: &str,
    (m, k, n): (usize, usize, usize),
    (digest, time_bits, checksum): (u64, u64, u64),
) {
    let p = SweepPoint {
        m,
        k,
        n,
        sparsity: 0.65,
        kernel: kernel_by_name(label).expect("pinned kernel is registered"),
    };
    let run = run_functional(cache, spec, &p, 1234);
    let at = format!("{label} {m}x{k} N={n}");
    assert_eq!(
        run.chain.merged_counters().digest(),
        digest,
        "{at}: counter digest drifted"
    );
    assert_eq!(
        run.time_us().to_bits(),
        time_bits,
        "{at}: simulated time drifted"
    );
    assert_eq!(
        checksum_f32(run.output.as_ref().expect("functional output")),
        checksum,
        "{at}: output checksum drifted"
    );
}

/// Golden-counter regression gate: a fixed-seed run of every kernel must
/// reproduce the pinned counter digests, simulated-time bit patterns, and
/// FP32 output checksums exactly. Host-side optimisations (branch-free
/// FP16 conversion, decode-once fragments, allocation-free analyzers) are only admissible
/// when this stays green — they may change wall-clock, never results.
/// Re-capture with `cargo run --release -p spinfer-bench --bin golden` when a *modelling*
/// change legitimately moves the constants.
fn assert_golden_constants(spec: &GpuSpec) {
    let (m, k, n) = (900, 720, 20);
    let cache = EncodeCache::new();
    for &(label, digest, time_bits, checksum) in &GOLDEN_FUNCTIONAL {
        check_functional(
            &cache,
            spec,
            label,
            (m, k, n),
            (digest, time_bits, checksum),
        );
    }
    for &(label, n, digest, time_bits, checksum) in &GOLDEN_FUNCTIONAL_N {
        check_functional(
            &cache,
            spec,
            label,
            (m, k, n),
            (digest, time_bits, checksum),
        );
    }
    for &(label, time_bits) in &GOLDEN_HERO_ANALYTIC {
        let us = kernel_by_name(label)
            .expect("pinned kernel is registered")
            .estimate_synthetic(spec, HERO_M, HERO_K, 16, 0.6)
            .time_us();
        assert_eq!(
            us.to_bits(),
            time_bits,
            "{label}: hero analytic time drifted"
        );
    }
}

/// One `#[test]` on purpose: `exec::set_jobs` is process-global and the
/// default harness runs `#[test]` fns on concurrent threads, so the
/// flip-and-restore must not interleave with other tests.
#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let spec = GpuSpec::rtx4090();
    // Several block rows (gtiles_y > 1) and a non-trivial batch, so the
    // parallel path genuinely fans out.
    let w = random_sparse(256, 512, 0.6, ValueDist::Uniform, 41);
    let x = random_dense(512, 16, ValueDist::Uniform, 42);
    let enc = TcaBme::encode(&w);

    let run_all = || {
        vec![
            ("spinfer", SpinferSpmm::new().run(&spec, &enc, &x)),
            ("flash_llm", FlashLlmSpmm::new().run(&spec, &w, &x)),
            ("sputnik", SputnikSpmm::new().run(&spec, &w, &x)),
            ("cusparse", CusparseSpmm::new().run(&spec, &w, &x)),
            ("cublas", CublasGemm::new().run(&spec, &w, &x)),
        ]
    };

    // Tracing must be invisible in the golden results: same output bits,
    // same counters, same simulated time, at any job count.
    let run_traced = || {
        let sink = TraceSink::new();
        let run = SpinferSpmm::new().run_traced(&spec, &enc, &x, &sink);
        (run, sink.finish())
    };

    exec::set_jobs(1);
    let serial = run_all();
    let (traced_serial, trace_serial) = run_traced();
    // Golden-counter gate rides the serial phase: the pinned constants
    // were captured at --jobs 1 (any job count must match them, but one
    // deterministic setting keeps the failure report unambiguous).
    assert_golden_constants(&spec);
    exec::set_jobs(8);
    let parallel = run_all();
    let (traced_parallel, trace_parallel) = run_traced();
    exec::set_jobs(0);

    for (label, traced) in [("jobs 1", &traced_serial), ("jobs 8", &traced_parallel)] {
        assert_eq!(
            serial[0].1.output, traced.output,
            "traced run ({label}): output differs from untraced"
        );
        assert_eq!(
            serial[0].1.chain.merged_counters(),
            traced.chain.merged_counters(),
            "traced run ({label}): counters differ from untraced"
        );
        assert_eq!(
            serial[0].1.time_us().to_bits(),
            traced.time_us().to_bits(),
            "traced run ({label}): simulated time differs from untraced"
        );
    }
    // And the recorded span stream itself is a pure function of the
    // simulated work, not of host scheduling.
    assert_eq!(
        trace_serial, trace_parallel,
        "trace stream differs between jobs 1 and 8"
    );

    for ((name, s), (_, p)) in serial.iter().zip(&parallel) {
        // Bit-identical numerics: disjoint output bands mean no
        // cross-worker FP reduction exists.
        assert_eq!(s.output, p.output, "{name}: output differs");
        // Bit-identical instrumentation: full Counters equality on
        // every launch of the chain (u64 shard merges commute).
        assert_eq!(
            s.chain.launches.len(),
            p.chain.launches.len(),
            "{name}: launch count differs"
        );
        for (ls, lp) in s.chain.launches.iter().zip(&p.chain.launches) {
            assert_eq!(
                ls.counters, lp.counters,
                "{name}/{}: counters differ",
                ls.name
            );
        }
        assert_eq!(s.time_us(), p.time_us(), "{name}: simulated time differs");
    }
}

/// The SpInfer kernels on launches of two and three N tiles
/// (`GOLDEN_FUNCTIONAL_WIDE`). Results are the same at any job count,
/// so this runs at the default one, beside the serial gate above.
#[test]
fn wide_n_launches_match_pinned_digests() {
    let spec = GpuSpec::rtx4090();
    let cache = EncodeCache::new();
    for &(label, m, k, n, digest, time_bits, checksum) in &GOLDEN_FUNCTIONAL_WIDE {
        check_functional(
            &cache,
            &spec,
            label,
            (m, k, n),
            (digest, time_bits, checksum),
        );
    }
}
