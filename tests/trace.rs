//! Trace determinism (see `gpu_sim::trace` and `spinfer_obs`).
//!
//! Two invariants, checked end to end through the functional SpInfer
//! kernel and the host worker pool:
//!
//! 1. **Job-count invariance** — the recorded span stream (names, ids,
//!    sim-timestamps, post-sort ordering) is a pure function of the
//!    simulated work, so `--jobs 1` and `--jobs 8` produce *equal*
//!    traces, not merely equivalent ones.
//! 2. **Off-path neutrality** — attaching a sink never perturbs the
//!    simulation: output bits, counters, and simulated-time bits match
//!    the sink-free run exactly, and a sink nobody writes to stays
//!    empty.
//!
//! Plus the exporter contract: the emitted Chrome-trace JSON validates,
//! and `cat:"phase"` spans account for the kernel's simulated time to
//! within 1%.

mod common;

use gpu_sim::exec;
use gpu_sim::fault::{FaultInjector, FaultPlan};
use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
use gpu_sim::trace::TraceSink;
use gpu_sim::GpuSpec;
use spinfer_core::spmm::{FaultPolicy, LaunchCtx, SpmmKernel, SpmmRun};
use spinfer_core::{SpinferSpmm, SpinferSpmmInt8, SpmmConfig, TcaBme};
use std::sync::Arc;

/// One `#[test]` on purpose: `exec::set_jobs` is process-global (see the
/// note in `tests/determinism.rs`).
#[test]
fn trace_streams_are_job_count_invariant_and_side_effect_free() {
    let spec = GpuSpec::rtx4090();
    // Several block rows and split-K, so the trace covers the fan-out
    // path and the reduction launch.
    let w = random_sparse(384, 512, 0.6, ValueDist::Uniform, 7);
    let x = random_dense(512, 16, ValueDist::Uniform, 8);
    let enc = TcaBme::encode(&w);
    let kernel = SpinferSpmm {
        config: SpmmConfig {
            split_k: 2, // exercise the reduction span
            ..SpmmConfig::default()
        },
    };

    let traced_at = |jobs: usize| {
        exec::set_jobs(jobs);
        let sink = Arc::new(TraceSink::new());
        exec::set_task_trace(Some(sink.clone()));
        let run = kernel.run_traced(&spec, &enc, &x, &sink);
        exec::set_task_trace(None);
        exec::set_jobs(0);
        (run, sink.finish())
    };

    let (run1, t1) = traced_at(1);
    let (run8, t8) = traced_at(8);
    assert!(!t1.events.is_empty(), "trace recorded nothing");
    // Identical span streams: every event (name, track, timestamp, kind,
    // flow id) and every track label, in the same canonical order.
    assert_eq!(t1, t8, "trace stream differs between --jobs 1 and 8");
    assert_eq!(run1.output, run8.output, "traced output differs by jobs");
    assert_eq!(
        run1.chain.merged_counters(),
        run8.chain.merged_counters(),
        "traced counters differ by jobs"
    );

    // Off-path neutrality: the sink-free run is bit-identical.
    let plain = kernel.run(&spec, &enc, &x);
    assert_eq!(plain.output, run1.output);
    assert_eq!(plain.chain.merged_counters(), run1.chain.merged_counters());
    assert_eq!(plain.time_us().to_bits(), run1.time_us().to_bits());

    // A sink that is attached to nothing stays empty — recording is
    // opt-in per call site, there is no ambient collection.
    let idle = TraceSink::new();
    let _ = kernel.run(&spec, &enc, &x);
    assert!(idle.is_empty(), "unattached sink collected events");
    assert!(idle.finish().events.is_empty());

    // Exporter contract on the recorded stream.
    let json = spinfer_obs::export(&t1);
    let stats = spinfer_obs::validate(&json).expect("emitted trace must validate");
    assert!(stats.spans > 0 && stats.flow_pairs > 0);
    let sim_us = run1.time_us();
    let rel = (stats.phase_total_us - sim_us).abs() / sim_us;
    assert!(
        rel < 0.01,
        "phase spans sum to {} us, kernel simulated {sim_us} us",
        stats.phase_total_us
    );
    // Round-trip: the validator consumes what the exporter wrote, so the
    // parsed phase total agrees with the in-memory Trace (only FP
    // summation order differs).
    let in_memory: f64 = t1
        .phase_names("phase")
        .iter()
        .map(|n| t1.phase_total_us(n))
        .sum();
    assert!(
        (stats.phase_total_us - in_memory).abs() < 1e-6 * in_memory.abs().max(1.0),
        "validator total {} vs trace total {in_memory}",
        stats.phase_total_us
    );
}

/// Every registered kernel — not just SpInfer — emits a valid Chrome
/// trace through a `LaunchCtx` sink, and its `cat:"phase"` spans
/// account for the launch chain's simulated time (baselines get one
/// `launch` span per chain entry from `emit_chain_trace`).
#[test]
fn every_registered_kernel_emits_a_valid_trace() {
    let spec = GpuSpec::rtx4090();
    let w = random_sparse(128, 128, 0.6, ValueDist::Uniform, 17);
    let x = random_dense(128, 16, ValueDist::Uniform, 18);
    for kernel in spinfer_baselines::registry() {
        let name = kernel.name();
        let enc = kernel.encode(&w);
        let sink = TraceSink::new();
        let run = kernel
            .launch(&LaunchCtx::new(&spec).with_sink(&sink), &enc, &x)
            .unwrap_or_else(|e| panic!("{name}: traced launch failed: {e}"));
        let json = spinfer_obs::export(&sink.finish());
        let stats = spinfer_obs::validate(&json)
            .unwrap_or_else(|e| panic!("{name}: emitted trace is invalid: {e}"));
        assert!(stats.spans > 0, "{name}: no spans recorded");
        let sim_us = run.time_us();
        let rel = (stats.phase_total_us - sim_us).abs() / sim_us.max(1e-9);
        assert!(
            rel < 0.01,
            "{name}: phase spans sum to {} us, chain simulated {sim_us} us",
            stats.phase_total_us
        );
    }
}

/// Pinned FNV-1a digests of the exported Chrome trace of three traced
/// SpInfer launches: FP16 and INT8 golden, and FP16 checked under an
/// armed injector with one attempt per site, so faulted GroupTiles take
/// the fallback. Each has three block rows, split-K 2 and N = 136 (a
/// full 128-column N tile and a ragged one), so the pins cover every
/// phase weight the block records, the fan-out and the reduction span.
#[test]
fn spinfer_trace_bytes_are_pinned() {
    let spec = GpuSpec::rtx4090();
    let w = random_sparse(192, 512, 0.6, ValueDist::Uniform, 27);
    let x = random_dense(512, 136, ValueDist::Uniform, 28);
    let enc = TcaBme::encode(&w);
    let enc8 = enc.quantize_int8();
    let config = SpmmConfig {
        split_k: 2,
        ..SpmmConfig::default()
    };
    let inj = FaultInjector::new(FaultPlan::uniform(31, 0.05));
    let one_try = FaultPolicy {
        max_attempts: 1,
        fallback: true,
    };
    let export = |launch: &dyn Fn(&LaunchCtx<'_>) -> SpmmRun| {
        let sink = TraceSink::new();
        let run = launch(&LaunchCtx::new(&spec).with_sink(&sink));
        (run, spinfer_obs::export(&sink.finish()))
    };
    let (_, fp16) = export(&|ctx| {
        SpinferSpmm { config }
            .launch(ctx, &enc, &x)
            .expect("golden")
    });
    let (_, int8) = export(&|ctx| {
        SpinferSpmmInt8 { config }
            .launch(ctx, &enc8, &x)
            .expect("golden")
    });
    let (checked, faulted) = export(&|ctx| {
        let ctx = ctx.with_fault(&inj).with_policy(&one_try);
        SpinferSpmm { config }
            .launch(&ctx, &enc, &x)
            .expect("falls back")
    });
    let c = &checked.chain.launches[0].counters;
    assert!(
        c.fault_fallbacks > 0,
        "the checked launch must take the fallback for its pin to cover it"
    );
    common::assert_pinned(&[
        ("FP16 trace", &fp16, 0x8d7b9f5bcdedf8da),
        ("INT8 trace", &int8, 0xfdfa2140fc87a3e8),
        ("checked FP16 trace", &faulted, 0xfada3cc46cdbc88a),
    ]);
}
