//! `spinfer` — command-line front end for the reproduction.
//!
//! ```text
//! spinfer encode <M> <K> <sparsity> [--out FILE]   encode random weights to TCA-BME
//! spinfer inspect <FILE>                            show stats of an encoded file
//! spinfer bench <M> <K> <N> <sparsity> [--gpu G] [--functional]
//!               [--metrics FILE]
//!                                                   kernel roster comparison;
//!                                                   --metrics (functional only)
//!                                                   writes a metrics snapshot
//!                                                   with the setup-phase
//!                                                   generate/encode wall-clock
//!                                                   and cache counters
//! spinfer tune <M> <K> <N> <sparsity> [--gpu G]     autotune the SpInfer kernel
//! spinfer serve <MODEL> <FW> <TP> <BATCH> <OUT>     end-to-end serving simulation
//! spinfer generate [TOKENS]                         run the tiny functional model
//! spinfer snapshot [M K N sparsity] [--gpu G] [--seed S] [--out FILE]
//!                                                   simulated-clock snapshot →
//!                                                   BENCH_kernels.json: output
//!                                                   checksum and simulated µs,
//!                                                   byte-equal when bit-equal
//! spinfer faults <M> <K> <N> <sparsity> [--rate R] [--seed S] [--gpu G]
//!                                                   fault-injection smoke: run the
//!                                                   checked kernel under a seeded
//!                                                   fault plan; nonzero exit unless
//!                                                   faults were detected, handled,
//!                                                   and the output stayed correct
//! spinfer sweep <M> <K> <N> [--checkpoint FILE] [--resume] [--panic-at IDX]
//!               [--trace-dir DIR] [--gpu G]
//!                                                   hardened analytic sweep with
//!                                                   per-point panic isolation and a
//!                                                   JSONL checkpoint; --trace-dir
//!                                                   writes a Chrome trace + metrics
//!                                                   snapshot of the grid
//! spinfer trace <M> <K> <N> <sparsity> [--gpu G] [--out FILE]
//!               [--kernel NAME]
//!                                                   run a functional kernel (default
//!                                                   SpInfer; any registry name, e.g.
//!                                                   Flash-LLM or cuSPARSE) with span
//!                                                   recording on: writes a
//!                                                   Chrome-trace JSON (load it at
//!                                                   ui.perfetto.dev) and prints a
//!                                                   per-phase p50/p95/p99 breakdown
//! spinfer spec [--model M] [--kernel NAME] [--sparsity S] [--tp N]
//!              [--batch B] [--rps R] [--duration S] [--input N] [--output N]
//!              [--shapes LIST] [--rates LIST] [--draft-frac F] [--share F]
//!              [--seed S] [--gpu G] [--json] [--trace-dir DIR]
//!                                                   speculative-decoding sweep:
//!                                                   serve the same workload
//!                                                   incrementally and with
//!                                                   token-tree verification for
//!                                                   every (tree shape ×
//!                                                   acceptance rate) pair, e.g.
//!                                                   --shapes w1d4,w2d3b8
//!                                                   --rates 0.0,0.5,0.8; the
//!                                                   verify step folds all
//!                                                   candidates into one wide-N
//!                                                   launch priced by --kernel
//!                                                   (any registry name);
//!                                                   --trace-dir writes
//!                                                   draft/verify/accept spans +
//!                                                   a metrics snapshot,
//!                                                   byte-identical at any --jobs
//! spinfer quant [--shapes MxK,MxK] [--sparsities LIST] [--n N] [--seed S]
//!               [--smoke] [--checkpoint FILE] [--resume] [--gpu G] [--json]
//!                                                   precision×format ablation:
//!                                                   run SpInfer at FP16 and INT8
//!                                                   payload precision
//!                                                   functionally over every
//!                                                   (shape × sparsity) point via
//!                                                   the hardened resumable sweep
//!                                                   and report simulated
//!                                                   speedup, serialized
//!                                                   container compression, and
//!                                                   quantization error; the
//!                                                   --json report contains only
//!                                                   simulated/deterministic
//!                                                   numbers, byte-identical at
//!                                                   any --jobs and across
//!                                                   --resume
//! spinfer cluster [--replicas N] [--rps R] [--duration S] [--deadline S]
//!                 [--batch B] [--router round-robin|least-loaded|failover]
//!                 [--no-retries] [--no-degradation] [--fallback-kernel NAME]
//!                 [--faults RATE] [--fault-seed S] [--recovery SEC]
//!                 [--spec RATE] [--tree SHAPE]
//!                 [--seed S] [--gpu G] [--json] [--trace-dir DIR]
//!                                                   fleet resilience simulation:
//!                                                   N replicas behind a router with
//!                                                   deadlines, retries, admission
//!                                                   control, and a degradation
//!                                                   ladder; --faults arms seeded
//!                                                   crash/slow/launch-fault
//!                                                   injection; --spec arms
//!                                                   speculative decoding at the
//!                                                   given acceptance rate (tree
//!                                                   from --tree, default w2d3b8);
//!                                                   --trace-dir writes a
//!                                                   per-replica Chrome trace + a
//!                                                   metrics snapshot, byte-identical
//!                                                   at any --jobs
//! ```
//!
//! GPUs: `rtx4090` (default), `a6000`, `a100`. Models: `opt-13b`,
//! `opt-30b`, `opt-66b`. Frameworks: `spinfer`, `flash-llm`, `ft`, `ds`.
//! `serve` and `faults` accept `--json` to emit a machine-readable
//! metrics snapshot (`spinfer-obs-snapshot/v1`) instead of tables.
//!
//! Every subcommand accepts `--jobs N` to set the host worker count for
//! the parallel execution engine (default: `SPINFER_JOBS`, then all
//! hardware threads). Job count never changes simulated results —
//! `spinfer bench ... --jobs 1` and `--jobs 16` print identical tables.

use gpu_sim::fault::{FaultInjector, FaultPlan};
use gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, ValueDist};
use gpu_sim::trace::{pids, TraceEvent, TraceSink};
use gpu_sim::GpuSpec;
use spinfer_bench::sweep::{self, EncodeCache, SweepOutcome, SweepPoint};
use spinfer_bench::{kernels, render_table, FIGURE10_KERNELS};
use spinfer_core::spmm::{LaunchCtx, SpmmKernel};
use spinfer_core::{serialize, tune, SpinferSpmm, TcaBme};
use spinfer_llm::model::{BatchGenerator, ModelRef, TransformerWeights};
use spinfer_llm::{simulate, Framework, InferenceConfig, ModelConfig};
use spinfer_obs::Registry;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sweep::configure_jobs(&args);
    let result = match args.first().map(String::as_str) {
        Some("encode") => cmd_encode(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("spec") => cmd_spec(&args[1..]),
        Some("quant") => cmd_quant(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        _ => {
            eprintln!(
                "usage: spinfer <encode|inspect|bench|tune|serve|generate|snapshot|faults|sweep|trace|spec|quant|cluster> ..."
            );
            eprintln!("see the module docs (or README) for argument lists");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

fn parse<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("missing argument: {what}"))?
        .parse()
        .map_err(|_| format!("invalid {what}: {}", args[i]))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn gpu(args: &[String]) -> Result<GpuSpec, String> {
    match flag_value(args, "--gpu").unwrap_or("rtx4090") {
        "rtx4090" => Ok(GpuSpec::rtx4090()),
        "a6000" => Ok(GpuSpec::a6000()),
        "a100" => Ok(GpuSpec::a100_like()),
        other => Err(format!("unknown gpu {other}")),
    }
}

fn cmd_encode(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let s: f64 = parse(args, 2, "sparsity")?;
    if !(0.0..=1.0).contains(&s) {
        return Err("sparsity must be in [0, 1]".into());
    }
    let w = random_sparse(m, k, s, ValueDist::Normal { std: 0.05 }, 0);
    let enc = TcaBme::encode(&w);
    println!("encoded {m}x{k} at {:.1}% sparsity", s * 100.0);
    println!("  nnz             : {}", enc.nnz);
    println!("  dense bytes     : {}", 2 * m * k);
    println!("  encoded bytes   : {}", enc.storage_bytes());
    println!("  compression     : {:.3}x", enc.compression_ratio());
    println!("  GroupTiles      : {}", enc.num_gtiles());
    println!("  BitmapTiles     : {}", enc.num_btiles());
    if let Some(path) = flag_value(args, "--out") {
        let bytes = serialize::to_bytes(&enc);
        std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {} bytes to {path}", bytes.len());
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing file argument")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let enc = serialize::from_bytes(&bytes).map_err(|e| e.to_string())?;
    println!("{path}: TCA-BME container");
    println!("  logical shape : {}x{}", enc.m, enc.k);
    println!("  padded shape  : {}x{}", enc.m_pad, enc.k_pad);
    println!(
        "  GroupTile     : {}x{}",
        enc.config.gt_rows, enc.config.gt_cols
    );
    println!(
        "  nnz           : {} ({:.1}% sparse)",
        enc.nnz,
        100.0 * (1.0 - enc.nnz as f64 / (enc.m * enc.k) as f64)
    );
    println!("  compression   : {:.3}x", enc.compression_ratio());
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let n: usize = parse(args, 2, "N")?;
    let s: f64 = parse(args, 3, "sparsity")?;
    let spec = gpu(args)?;
    let functional = args.iter().any(|a| a == "--functional");
    println!(
        "kernel comparison: {m}x{k} (s={:.0}%) x {k}x{n} on {}{}",
        s * 100.0,
        spec.name,
        if functional { " [functional]" } else { "" }
    );
    let roster = kernels([
        "cuBLAS_TC",
        "SpInfer",
        "Flash-LLM",
        "SparTA",
        "Sputnik",
        "cuSPARSE",
        "SMaT",
    ]);
    let headers = ["kernel", "time (us)", "speedup vs cuBLAS"];
    let times: Vec<f64> = if functional {
        // Functional path: one weight matrix, encoded at most once per
        // format (the cache is shared by all kernels), bit-exact output
        // and counters from real addresses.
        let cache = EncodeCache::new();
        let times = roster
            .iter()
            .map(|kernel| {
                let p = SweepPoint {
                    m,
                    k,
                    n,
                    sparsity: s,
                    kernel: kernel.clone(),
                };
                sweep::run_functional(&cache, &spec, &p, 0).time_us()
            })
            .collect();
        if let Some(path) = flag_value(args, "--metrics") {
            let mut reg = Registry::new();
            cache.record_metrics(&mut reg);
            std::fs::write(path, reg.snapshot_json()).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "wrote {path} (generate {:.3}s, encode {:.3}s)",
                cache.matrices().generate_s(),
                cache.encode_s()
            );
        }
        times
    } else {
        roster
            .iter()
            .map(|kernel| kernel.estimate_synthetic(&spec, m, k, n, s).time_us())
            .collect()
    };
    let base = times[0];
    let rows: Vec<Vec<String>> = roster
        .iter()
        .zip(&times)
        .map(|(kernel, &t)| {
            vec![
                kernel.name().to_string(),
                format!("{t:.1}"),
                format!("{:.2}x", base / t),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

fn cmd_tune(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let n: usize = parse(args, 2, "N")?;
    let s: f64 = parse(args, 3, "sparsity")?;
    let spec = gpu(args)?;
    let r = tune(&spec, m, k, n, s);
    println!(
        "autotune {m}x{k}x{n} (s={:.0}%) on {}: {} candidates",
        s * 100.0,
        spec.name,
        r.candidates.len()
    );
    let headers = ["rank", "GroupTile", "split_k", "time (us)"];
    let rows: Vec<Vec<String>> = r
        .candidates
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, c)| {
            vec![
                (i + 1).to_string(),
                format!("{}x{}", c.gt.gt_rows, c.gt.gt_cols),
                if c.config.split_k == 0 {
                    "auto".into()
                } else {
                    c.config.split_k.to_string()
                },
                format!("{:.1}", c.time_us),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let model = match args.first().map(String::as_str) {
        Some("opt-13b") => ModelConfig::opt_13b(),
        Some("opt-30b") => ModelConfig::opt_30b(),
        Some("opt-66b") => ModelConfig::opt_66b(),
        other => return Err(format!("unknown model {other:?} (opt-13b/opt-30b/opt-66b)")),
    };
    let framework = match args.get(1).map(String::as_str) {
        Some("spinfer") => Framework::SpInfer,
        Some("flash-llm") => Framework::FlashLlm,
        Some("ft") => Framework::FasterTransformer,
        Some("ds") => Framework::DeepSpeed,
        other => return Err(format!("unknown framework {other:?}")),
    };
    let tp: usize = parse(args, 2, "TP")?;
    let batch: usize = parse(args, 3, "batch")?;
    let out: usize = parse(args, 4, "out_len")?;
    let spec = gpu(args)?;
    let cfg = InferenceConfig {
        model,
        framework,
        sparsity: 0.6,
        batch,
        input_len: 64,
        output_len: out,
        tp,
    };
    let r = simulate(&spec, &cfg);
    if args.iter().any(|a| a == "--json") {
        let mut reg = Registry::new();
        reg.gauge_set("serve.oom", if r.oom { 1.0 } else { 0.0 });
        reg.gauge_set("serve.memory_gib", r.memory.total_gib());
        reg.gauge_set("serve.tp", tp as f64);
        reg.gauge_set("serve.batch", batch as f64);
        if !r.oom {
            reg.gauge_set("serve.tokens_per_sec", r.tokens_per_sec);
            reg.gauge_set("serve.prefill_sec", r.prefill_sec);
            reg.gauge_set("serve.per_step_sec", r.per_step_sec);
            let b = r.breakdown;
            reg.gauge_set("serve.breakdown.linear_frac", b.linear / b.total());
            reg.gauge_set("serve.breakdown.mha_frac", b.mha / b.total());
            reg.gauge_set("serve.breakdown.comm_frac", b.comm / b.total());
            reg.gauge_set("serve.breakdown.other_frac", b.other / b.total());
        }
        println!("{}", reg.snapshot_json());
        return Ok(());
    }
    println!(
        "{} via {} on {}x{} (BS={batch}, out={out}, 60% sparsity)",
        model.name,
        framework.label(),
        tp,
        spec.name
    );
    if r.oom {
        println!(
            "  OOM: needs {:.1} GiB/GPU, device has {:.1} GiB",
            r.memory.total_gib(),
            spec.memory_capacity as f64 / (1u64 << 30) as f64
        );
        return Ok(());
    }
    println!("  tokens/s      : {:.0}", r.tokens_per_sec);
    println!("  prefill       : {:.1} ms", r.prefill_sec * 1e3);
    println!("  per-step      : {:.2} ms", r.per_step_sec * 1e3);
    println!("  memory/GPU    : {:.1} GiB", r.memory.total_gib());
    let b = r.breakdown;
    println!(
        "  breakdown     : linear {:.0}% | MHA {:.0}% | comm {:.0}% | other {:.0}%",
        100.0 * b.linear / b.total(),
        100.0 * b.mha / b.total(),
        100.0 * b.comm / b.total(),
        100.0 * b.other / b.total()
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let n: usize = args
        .first()
        .map(|s| s.parse().map_err(|_| format!("invalid token count {s}")))
        .transpose()?
        .unwrap_or(12);
    let cfg = spinfer_llm::model::tiny_config();
    let weights = TransformerWeights::random(cfg, 2026);
    let sparse = weights.pruned(0.6, 7);
    let spec = GpuSpec::rtx4090();
    println!(
        "tiny functional transformer ({} layers, h={}, 60% Wanda-pruned)",
        cfg.layers, cfg.hidden
    );

    let prompt = [vec![1, 2, 3]];
    let mut dense_gen = BatchGenerator::new(ModelRef::Dense(&weights), spec.clone(), 1, n + 4);
    let dense_out = &dense_gen.generate(&prompt, n)[0];
    println!("  dense  tokens : {dense_out:?}");
    println!(
        "  dense  sim    : {:.1} us linear over {} launches",
        dense_gen.telemetry.linear_sec * 1e6,
        dense_gen.telemetry.launches
    );

    let mut sparse_gen = BatchGenerator::new(ModelRef::Sparse(&sparse), spec, 1, n + 4);
    let sparse_out = &sparse_gen.generate(&prompt, n)[0];
    println!("  sparse tokens : {sparse_out:?}");
    println!(
        "  sparse sim    : {:.1} us linear over {} launches",
        sparse_gen.telemetry.linear_sec * 1e6,
        sparse_gen.telemetry.launches
    );
    println!(
        "  linear weights: dense {} B -> encoded {} B",
        weights.linear_bytes(),
        sparse.linear_bytes()
    );
    Ok(())
}

fn cmd_faults(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let n: usize = parse(args, 2, "N")?;
    let s: f64 = parse(args, 3, "sparsity")?;
    let spec = gpu(args)?;
    let rate: f64 = match flag_value(args, "--rate") {
        Some(v) => v.parse().map_err(|_| format!("invalid rate: {v}"))?,
        None => 0.02,
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|_| format!("invalid seed: {v}"))?,
        None => 1234,
    };
    let json = args.iter().any(|a| a == "--json");
    if !json {
        println!(
            "fault smoke: {m}x{k}x{n} s={:.0}% rate={rate} seed={seed} on {}",
            s * 100.0,
            spec.name
        );
    }
    let w = random_sparse(m, k, s, ValueDist::Uniform, seed);
    let x = random_dense(k, n, ValueDist::Uniform, seed ^ 0xff);
    let enc = TcaBme::encode(&w);
    let inj = FaultInjector::new(FaultPlan::uniform(seed, rate));
    let run = SpinferSpmm::new()
        .launch(&LaunchCtx::new(&spec).with_fault(&inj), &enc, &x)
        .map_err(|e| format!("checked kernel aborted: {e}"))?;
    let c = &run.chain.launches[0].counters;
    let out = run
        .output
        .as_ref()
        .ok_or("functional run must have output")?;
    let finite = out.iter().all(|v| v.is_finite());
    let err = max_abs_diff(out, &w.matmul_ref(&x));
    if json {
        let mut reg = Registry::new();
        reg.counter_add("faults.injected", c.faults_injected);
        reg.counter_add("faults.detected", c.faults_detected);
        reg.counter_add("faults.recovered", c.faults_recovered);
        reg.counter_add("faults.fallbacks", c.fault_fallbacks);
        reg.gauge_set("faults.output_finite", if finite { 1.0 } else { 0.0 });
        reg.gauge_set("faults.max_abs_err", f64::from(err));
        reg.gauge_set("faults.rate", rate);
        println!("{}", reg.snapshot_json());
    } else {
        println!("  faults injected : {}", c.faults_injected);
        println!("  faults detected : {}", c.faults_detected);
        println!("  recovered       : {}", c.faults_recovered);
        println!("  fallbacks       : {}", c.fault_fallbacks);
        println!("  output finite   : {finite}");
        println!("  max |err|       : {err:.4}");
    }
    if c.faults_injected == 0 || c.faults_detected == 0 {
        return Err("expected at least one injected and detected fault".into());
    }
    if c.faults_recovered + c.fault_fallbacks == 0 {
        return Err("no detection was resolved by retry or fallback".into());
    }
    if !finite {
        return Err("corruption escaped as non-finite output".into());
    }
    if err >= 0.5 {
        return Err(format!("recovered output diverges from reference ({err})"));
    }
    if !json {
        println!("  OK: all detections handled, output correct");
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let n: usize = parse(args, 2, "N")?;
    let spec = gpu(args)?;
    let checkpoint = flag_value(args, "--checkpoint").map(std::path::PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    let panic_at: Option<usize> = match flag_value(args, "--panic-at") {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid --panic-at: {v}"))?),
        None => None,
    };
    let points: Vec<SweepPoint> = [0.4, 0.5, 0.6, 0.7]
        .iter()
        .flat_map(|&sparsity| {
            kernels(FIGURE10_KERNELS)
                .into_iter()
                .map(move |kernel| SweepPoint {
                    m,
                    k,
                    n,
                    sparsity,
                    kernel,
                })
        })
        .collect();
    println!(
        "hardened sweep: {} points on {}{}{}",
        points.len(),
        spec.name,
        checkpoint
            .as_deref()
            .map(|p| format!(" [checkpoint {}]", p.display()))
            .unwrap_or_default(),
        if resume { " [resume]" } else { "" }
    );
    let outcomes = match panic_at {
        Some(idx) => {
            let spec2 = spec.clone();
            sweep::run_grid_hardened_with(
                points.clone(),
                checkpoint.as_deref(),
                resume,
                move |i, p| {
                    if i == idx {
                        panic!("injected sweep panic at point {i}");
                    }
                    p.time_us(&spec2)
                },
            )
        }
        None => sweep::run_grid_hardened(&spec, points.clone(), checkpoint.as_deref(), resume),
    }
    .map_err(|e| format!("checkpoint I/O: {e}"))?;

    let headers = ["idx", "kernel", "sparsity", "status", "time (us)"];
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&outcomes)
        .enumerate()
        .map(|(i, (p, o))| {
            let (status, time) = match o {
                SweepOutcome::Done(t) => ("done", format!("{t:.1}")),
                SweepOutcome::Resumed(t) => ("resumed", format!("{t:.1}")),
                SweepOutcome::Panicked(msg) => ("panicked", msg.clone()),
            };
            vec![
                i.to_string(),
                p.kernel.name().to_string(),
                format!("{:.2}", p.sparsity),
                status.to_string(),
                time,
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    let done = outcomes
        .iter()
        .filter(|o| matches!(o, SweepOutcome::Done(_)))
        .count();
    let resumed = outcomes
        .iter()
        .filter(|o| matches!(o, SweepOutcome::Resumed(_)))
        .count();
    let panicked = outcomes.len() - done - resumed;
    println!("summary: done {done} resumed {resumed} panicked {panicked}");
    if let Some(dir) = flag_value(args, "--trace-dir") {
        write_sweep_trace(dir, &points, &outcomes)?;
    }
    Ok(())
}

/// Reconstructs the sweep grid as a trace — one span per completed point
/// laid end to end on the *simulated* time axis (cumulative point times,
/// so the track reads as "where did the simulated microseconds go") —
/// plus a metrics snapshot with outcome counters and a point-time
/// histogram. Writes `DIR/sweep_trace.json` and `DIR/sweep_metrics.json`.
fn write_sweep_trace(dir: &str, points: &[SweepPoint], outcomes: &[SweepOutcome]) -> CliResult {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
    let sink = TraceSink::new();
    sink.name_track((pids::SWEEP, 0), "sweep grid (sim µs)", "points");
    let mut reg = Registry::new();
    let mut cursor = 0.0f64;
    for (p, o) in points.iter().zip(outcomes) {
        match o {
            SweepOutcome::Done(t) | SweepOutcome::Resumed(t) => {
                sink.record(
                    TraceEvent::span((pids::SWEEP, 0), p.kernel.name(), "sweep", cursor, *t)
                        .with_arg("sparsity", p.sparsity),
                );
                cursor += *t;
                let key = if matches!(o, SweepOutcome::Done(_)) {
                    "sweep.done"
                } else {
                    "sweep.resumed"
                };
                reg.counter_add(key, 1);
                reg.histogram_record("sweep.point_time_us", *t);
            }
            SweepOutcome::Panicked(_) => {
                sink.record(TraceEvent::instant(
                    (pids::SWEEP, 0),
                    "panicked",
                    "sweep",
                    cursor,
                ));
                reg.counter_add("sweep.panicked", 1);
            }
        }
    }
    let trace_json = spinfer_obs::export(&sink.finish());
    spinfer_obs::validate(&trace_json).map_err(|e| format!("sweep trace is invalid: {e}"))?;
    let trace_path = format!("{dir}/sweep_trace.json");
    let metrics_path = format!("{dir}/sweep_metrics.json");
    std::fs::write(&trace_path, &trace_json).map_err(|e| format!("write {trace_path}: {e}"))?;
    std::fs::write(&metrics_path, reg.snapshot_json())
        .map_err(|e| format!("write {metrics_path}: {e}"))?;
    println!("wrote {trace_path} and {metrics_path}");
    Ok(())
}

fn cmd_snapshot(args: &[String]) -> CliResult {
    let spec = gpu(args)?;
    let mut cfg = spinfer_bench::snapshot::SnapshotConfig::default();
    // Positional overrides: M K N sparsity (all four or none).
    if args.first().is_some_and(|a| !a.starts_with("--")) {
        cfg.m = parse(args, 0, "M")?;
        cfg.k = parse(args, 1, "K")?;
        cfg.n = parse(args, 2, "N")?;
        cfg.sparsity = parse(args, 3, "sparsity")?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| format!("invalid seed: {s}"))?;
    }
    eprintln!(
        "snapshot: {}x{}x{} s={} on {} (functional run at --jobs 1 and default jobs)",
        cfg.m, cfg.k, cfg.n, cfg.sparsity, spec.name
    );
    let snap = spinfer_bench::snapshot::measure(&spec, &cfg);
    let json = snap.to_json();
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let m: usize = parse(args, 0, "M")?;
    let k: usize = parse(args, 1, "K")?;
    let n: usize = parse(args, 2, "N")?;
    let s: f64 = parse(args, 3, "sparsity")?;
    let spec = gpu(args)?;
    let out = flag_value(args, "--out").unwrap_or("trace.json");
    // Any registered kernel traces: the capability comes from LaunchCtx,
    // not from a SpInfer-only method.
    let kernel =
        spinfer_baselines::kernel_by_name(flag_value(args, "--kernel").unwrap_or("SpInfer"))
            .map_err(|e| {
                let roster: Vec<&str> = spinfer_baselines::registry()
                    .iter()
                    .map(|k| k.name())
                    .collect();
                format!("{e}; registered kernels: {}", roster.join(", "))
            })?;
    eprintln!(
        "trace: functional {} {m}x{k}x{n} s={:.0}% on {}",
        kernel.name(),
        s * 100.0,
        spec.name
    );
    let w = random_sparse(m, k, s, ValueDist::Uniform, 1234);
    let x = random_dense(k, n, ValueDist::Uniform, 1234 ^ 0xff);
    let enc = kernel.encode(&w);

    let sink = std::sync::Arc::new(TraceSink::new());
    gpu_sim::exec::set_task_trace(Some(sink.clone()));
    let run = kernel
        .launch(&LaunchCtx::new(&spec).with_sink(&sink), &enc, &x)
        .map_err(|e| format!("{} launch failed: {e}", kernel.name()))?;
    gpu_sim::exec::set_task_trace(None);
    let trace = sink.finish();

    let json = spinfer_obs::export(&trace);
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    let stats =
        spinfer_obs::validate(&json).map_err(|e| format!("emitted trace is invalid: {e}"))?;

    let headers = [
        "phase",
        "spans",
        "total (us)",
        "p50 (us)",
        "p95 (us)",
        "p99 (us)",
    ];
    let rows: Vec<Vec<String>> = spinfer_obs::phase_breakdown(&trace)
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.count.to_string(),
                format!("{:.1}", r.total_us),
                format!("{:.3}", r.p50_us),
                format!("{:.3}", r.p95_us),
                format!("{:.3}", r.p99_us),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    let sim_us = run.time_us();
    let rel = (stats.phase_total_us - sim_us).abs() / sim_us.max(1e-9);
    println!(
        "simulated time {sim_us:.1} us | phase spans sum {:.1} us ({:+.3}%) | {} spans, {} flow pairs",
        stats.phase_total_us,
        100.0 * (stats.phase_total_us - sim_us) / sim_us.max(1e-9),
        stats.spans,
        stats.flow_pairs
    );
    println!(
        "wrote {out} ({} bytes) — load it at ui.perfetto.dev",
        json.len()
    );
    if rel > 0.01 {
        return Err(format!(
            "phase attribution drifted: spans sum to {:.1} us but the kernel simulated {sim_us:.1} us",
            stats.phase_total_us
        ));
    }
    Ok(())
}

fn cmd_spec(args: &[String]) -> CliResult {
    use spinfer_llm::serving::serve_ctx;
    use spinfer_llm::spec::{DraftModel, SpecConfig, TreeShape};
    use spinfer_llm::{
        framework_for_kernel, serve_spec_ctx, LengthMix, ServingConfig, SpecServingReport,
        SpecStats,
    };
    let spec = gpu(args)?;
    let model = match flag_value(args, "--model").unwrap_or("opt-13b") {
        "opt-13b" => ModelConfig::opt_13b(),
        "opt-30b" => ModelConfig::opt_30b(),
        "opt-66b" => ModelConfig::opt_66b(),
        other => return Err(format!("unknown model {other} (opt-13b/opt-30b/opt-66b)")),
    };
    let kernel_name = flag_value(args, "--kernel").unwrap_or("SpInfer");
    let framework = framework_for_kernel(kernel_name).map_err(|e| {
        let roster: Vec<&str> = spinfer_baselines::registry()
            .iter()
            .map(|k| k.name())
            .collect();
        format!("{e}; registered kernels: {}", roster.join(", "))
    })?;
    let parse_flag = |flag: &str, what: &str| -> Result<Option<f64>, String> {
        match flag_value(args, flag) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid {what}: {v}")),
            None => Ok(None),
        }
    };
    let sparsity = parse_flag("--sparsity", "sparsity")?.unwrap_or(0.6);
    let tp: usize = match flag_value(args, "--tp") {
        Some(v) => v.parse().map_err(|_| format!("invalid tp: {v}"))?,
        None => 1,
    };
    let batch: usize = match flag_value(args, "--batch") {
        Some(v) => v.parse().map_err(|_| format!("invalid batch: {v}"))?,
        None => 16,
    };
    let input_len: usize = match flag_value(args, "--input") {
        Some(v) => v.parse().map_err(|_| format!("invalid input: {v}"))?,
        None => 64,
    };
    let output_len: usize = match flag_value(args, "--output") {
        Some(v) => v.parse().map_err(|_| format!("invalid output: {v}"))?,
        None => 128,
    };
    let rps = parse_flag("--rps", "rps")?.unwrap_or(4.0);
    let duration = parse_flag("--duration", "duration")?.unwrap_or(40.0);
    let draft_frac = parse_flag("--draft-frac", "draft fraction")?.unwrap_or(0.08);
    let share = parse_flag("--share", "speculative share")?.unwrap_or(1.0);
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|_| format!("invalid seed: {v}"))?,
        None => 0,
    };
    let shapes: Vec<TreeShape> = flag_value(args, "--shapes")
        .unwrap_or("w1d4,w2d3b8")
        .split(',')
        .map(|s| TreeShape::parse(s.trim()).ok_or_else(|| format!("invalid tree shape: {s}")))
        .collect::<Result<_, _>>()?;
    let rates: Vec<f64> = flag_value(args, "--rates")
        .unwrap_or("0.0,0.5,0.8")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("invalid acceptance rate: {s}"))
        })
        .collect::<Result<_, _>>()?;
    let serving_cfg = ServingConfig {
        model,
        framework,
        sparsity,
        tp,
        max_batch: batch,
        arrival_rps: rps,
        input_len,
        output_len,
        duration_sec: duration,
        mix: LengthMix::Uniform,
    };
    serving_cfg.validate().map_err(|e| e.to_string())?;
    let json = args.iter().any(|a| a == "--json");
    let trace_dir = flag_value(args, "--trace-dir");
    let sink = trace_dir.map(|_| TraceSink::new());
    let mut reg = Registry::new();

    let mut ctx = LaunchCtx::new(&spec);
    if let Some(s) = sink.as_ref() {
        ctx = ctx.with_sink(s);
    }
    // Incremental baseline: same workload, plain one-token decode.
    let base = serve_ctx(&ctx, &serving_cfg);
    SpecServingReport {
        serving: base.clone(),
        stats: SpecStats::default(),
    }
    .write_metrics(&mut reg, "spec.incremental");

    let mut runs: Vec<(String, f64, SpecServingReport)> = Vec::new();
    for &shape in &shapes {
        for &rate in &rates {
            let sc = SpecConfig {
                shape,
                draft: DraftModel {
                    cost_frac: draft_frac,
                    ..DraftModel::default()
                },
                acceptance_rate: rate,
                spec_share: share,
                seed,
            };
            sc.validate().map_err(|e| e.to_string())?;
            let r = serve_spec_ctx(&ctx, &serving_cfg, &sc);
            let prefix = format!("spec.{}.r{:02}", shape.label(), (rate * 100.0).round());
            r.write_metrics(&mut reg, &prefix);
            reg.gauge_set(
                &format!("{prefix}.speedup_vs_incremental"),
                r.serving.tokens_per_sec / base.tokens_per_sec.max(1e-12),
            );
            runs.push((shape.label(), rate, r));
        }
    }

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
        let trace_json =
            spinfer_obs::export(&sink.expect("sink exists when trace_dir set").finish());
        spinfer_obs::validate(&trace_json).map_err(|e| format!("spec trace is invalid: {e}"))?;
        let trace_path = format!("{dir}/spec_trace.json");
        let metrics_path = format!("{dir}/spec_metrics.json");
        std::fs::write(&trace_path, &trace_json).map_err(|e| format!("write {trace_path}: {e}"))?;
        std::fs::write(&metrics_path, reg.snapshot_json())
            .map_err(|e| format!("write {metrics_path}: {e}"))?;
        if !json {
            println!("wrote {trace_path} and {metrics_path}");
        }
    }
    if json {
        println!("{}", reg.snapshot_json());
        return Ok(());
    }

    println!(
        "speculative decoding: {} via {} ({} kernel) on {}x{} | {:.1} rps for {:.0}s, batch {}, in/out {}/{}, share {:.2}",
        serving_cfg.model.name,
        framework.label(),
        kernel_name,
        tp,
        spec.name,
        rps,
        duration,
        batch,
        input_len,
        output_len,
        share
    );
    let headers = [
        "config",
        "accept",
        "tok/s",
        "tok/iter",
        "tok/launch",
        "p95 (s)",
        "speedup",
    ];
    let mut rows: Vec<Vec<String>> = vec![vec![
        "incremental".to_string(),
        "-".to_string(),
        format!("{:.0}", base.tokens_per_sec),
        format!("{:.2}", base.tokens_per_iteration),
        format!("{:.2}", base.mean_batch),
        format!("{:.2}", base.p95_latency_sec),
        "1.00x".to_string(),
    ]];
    for (label, rate, r) in &runs {
        rows.push(vec![
            label.clone(),
            format!("{rate:.2}"),
            format!("{:.0}", r.serving.tokens_per_sec),
            format!("{:.2}", r.serving.tokens_per_iteration),
            format!("{:.2}", r.tokens_per_launch()),
            format!("{:.2}", r.serving.p95_latency_sec),
            format!(
                "{:.2}x",
                r.serving.tokens_per_sec / base.tokens_per_sec.max(1e-12)
            ),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    Ok(())
}

fn cmd_quant(args: &[String]) -> CliResult {
    let spec = gpu(args)?;
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        spinfer_bench::quant::QuantConfig::smoke()
    } else {
        spinfer_bench::quant::QuantConfig::default()
    };
    if let Some(list) = flag_value(args, "--shapes") {
        cfg.shapes = list
            .split(',')
            .map(|pair| {
                let (m, k) = pair
                    .split_once('x')
                    .ok_or_else(|| format!("invalid shape {pair}, expected MxK"))?;
                Ok((
                    m.parse().map_err(|_| format!("invalid M in {pair}"))?,
                    k.parse().map_err(|_| format!("invalid K in {pair}"))?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
    }
    if let Some(list) = flag_value(args, "--sparsities") {
        cfg.sparsities = list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("invalid sparsity {s}")))
            .collect::<Result<Vec<_>, String>>()?;
    }
    if let Some(n) = flag_value(args, "--n") {
        cfg.n = n.parse().map_err(|_| format!("invalid --n: {n}"))?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| format!("invalid seed: {s}"))?;
    }
    let checkpoint = flag_value(args, "--checkpoint").map(std::path::PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    let json = args.iter().any(|a| a == "--json");
    if !json {
        eprintln!(
            "quant ablation: {} shapes x {} sparsities x 2 precisions on {}{}{}",
            cfg.shapes.len(),
            cfg.sparsities.len(),
            spec.name,
            checkpoint
                .as_deref()
                .map(|p| format!(" [checkpoint {}]", p.display()))
                .unwrap_or_default(),
            if resume { " [resume]" } else { "" }
        );
    }
    let rows = spinfer_bench::quant::run(&spec, &cfg, checkpoint.as_deref(), resume)
        .map_err(|e| format!("checkpoint I/O: {e}"))?;
    if json {
        print!("{}", spinfer_bench::quant::to_json(spec.name, &rows));
        return Ok(());
    }
    let headers = [
        "shape", "sparsity", "fp16 us", "int8 us", "speedup", "fp16 cmp", "int8 cmp", "max err",
        "fro err",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:.2}", r.sparsity),
                format!("{:.1}", r.fp16_us),
                format!("{:.1}", r.int8_us),
                format!("{:.2}x", r.speedup),
                format!("{:.2}x", r.fp16_compression),
                format!("{:.2}x", r.int8_compression),
                format!("{:.5}", r.max_abs_err),
                format!("{:.5}", r.rel_fro_err),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &table));
    Ok(())
}

fn cmd_cluster(args: &[String]) -> CliResult {
    use spinfer_llm::{
        simulate_cluster_instrumented, ClusterConfig, ClusterFaultPlan, DegradationPolicy,
        RetryPolicy, RouterPolicy,
    };
    let spec = gpu(args)?;
    let mut cfg = ClusterConfig::default();
    let parse_flag = |flag: &str, what: &str| -> Result<Option<f64>, String> {
        match flag_value(args, flag) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid {what}: {v}")),
            None => Ok(None),
        }
    };
    if let Some(v) = flag_value(args, "--replicas") {
        cfg.replicas = v.parse().map_err(|_| format!("invalid replicas: {v}"))?;
    }
    if let Some(v) = parse_flag("--rps", "rps")? {
        cfg.arrival_rps = v;
    }
    if let Some(v) = parse_flag("--duration", "duration")? {
        cfg.duration_sec = v;
    }
    if let Some(v) = parse_flag("--deadline", "deadline")? {
        cfg.deadline_sec = v;
    }
    if let Some(v) = flag_value(args, "--batch") {
        cfg.max_batch = v.parse().map_err(|_| format!("invalid batch: {v}"))?;
    }
    if let Some(v) = flag_value(args, "--seed") {
        cfg.seed = v.parse().map_err(|_| format!("invalid seed: {v}"))?;
    }
    if let Some(v) = flag_value(args, "--router") {
        cfg.router = RouterPolicy::parse(v)
            .ok_or_else(|| format!("unknown router {v} (round-robin/least-loaded/failover)"))?;
    }
    if args.iter().any(|a| a == "--no-retries") {
        cfg.retry = RetryPolicy::disabled();
    }
    if args.iter().any(|a| a == "--no-degradation") {
        cfg.degradation = DegradationPolicy::disabled();
    }
    if let Some(name) = flag_value(args, "--fallback-kernel") {
        cfg.degradation.fallback_kernel = Some(name.to_string());
    }
    if let Some(rate) = parse_flag("--spec", "spec acceptance rate")? {
        use spinfer_llm::spec::{SpecConfig, TreeShape};
        let shape = match flag_value(args, "--tree") {
            Some(s) => TreeShape::parse(s).ok_or_else(|| format!("invalid tree shape: {s}"))?,
            None => SpecConfig::default().shape,
        };
        cfg.spec = Some(SpecConfig {
            shape,
            acceptance_rate: rate,
            seed: cfg.seed,
            ..SpecConfig::default()
        });
    }
    let faults = match parse_flag("--faults", "fault rate")? {
        Some(rate) => {
            let mut plan = ClusterFaultPlan {
                seed: 1234,
                crash_rate: rate,
                slow_rate: rate,
                launch_fail_rate: rate,
                ..ClusterFaultPlan::default()
            };
            if let Some(v) = flag_value(args, "--fault-seed") {
                plan.seed = v.parse().map_err(|_| format!("invalid fault seed: {v}"))?;
            }
            if let Some(v) = parse_flag("--recovery", "recovery")? {
                plan.recovery_sec = v;
            }
            Some(plan)
        }
        None => None,
    };
    let json = args.iter().any(|a| a == "--json");
    let trace_dir = flag_value(args, "--trace-dir");

    let sink = trace_dir.map(|_| TraceSink::new());
    let mut reg = Registry::new();
    let report =
        simulate_cluster_instrumented(&spec, &cfg, faults.as_ref(), Some(&mut reg), sink.as_ref())
            .map_err(|e| format!("cluster simulation failed: {e}"))?;

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
        let trace_json =
            spinfer_obs::export(&sink.expect("sink exists when trace_dir set").finish());
        spinfer_obs::validate(&trace_json).map_err(|e| format!("cluster trace is invalid: {e}"))?;
        let trace_path = format!("{dir}/cluster_trace.json");
        let metrics_path = format!("{dir}/cluster_metrics.json");
        std::fs::write(&trace_path, &trace_json).map_err(|e| format!("write {trace_path}: {e}"))?;
        std::fs::write(&metrics_path, reg.snapshot_json())
            .map_err(|e| format!("write {metrics_path}: {e}"))?;
        if !json {
            println!("wrote {trace_path} and {metrics_path}");
        }
    }
    if json {
        println!("{}", reg.snapshot_json());
        return Ok(());
    }

    println!(
        "fleet: {} replicas of {} via {} on {} | {:.1} rps for {:.0}s, SLO {:.1}s, router {}{}",
        cfg.replicas,
        cfg.model.name,
        cfg.framework.label(),
        spec.name,
        cfg.arrival_rps,
        cfg.duration_sec,
        cfg.deadline_sec,
        cfg.router.label(),
        faults
            .map(|p| format!(
                " | faults crash/slow/launch={} seed={}",
                p.crash_rate, p.seed
            ))
            .unwrap_or_default()
    );
    println!(
        "  requests      : {} arrived | {} completed ({} in SLO) | {} failed | {} shed | {} incomplete",
        report.arrivals,
        report.completed,
        report.completed_in_slo,
        report.failed,
        report.shed,
        report.incomplete
    );
    println!(
        "  goodput       : {:.2} rps in-SLO ({:.2} rps total)",
        report.goodput_rps, report.throughput_rps
    );
    println!(
        "  latency       : p50 {:.2}s | p95 {:.2}s | p99 {:.2}s",
        report.p50_latency_s, report.p95_latency_s, report.p99_latency_s
    );
    println!(
        "  resilience    : {} retries | {} timeouts | {} crashes | {} recoveries | {} launch faults | {} slow steps",
        report.retries,
        report.timeouts,
        report.crashes,
        report.recoveries,
        report.launch_faults,
        report.slow_steps
    );
    println!(
        "  ladder        : {} escalations | {} de-escalations | {} rung-3 rejects",
        report.degrade_escalations, report.degrade_deescalations, report.degraded_rejects
    );
    if let Some(sc) = &cfg.spec {
        println!(
            "  speculation   : tree {} rate {:.2} | {} spec requests | {} verify steps | {} accepted / {} proposed (+{} bonus) | {} rolled back",
            sc.shape.label(),
            sc.acceptance_rate,
            report.spec_requests,
            report.spec_steps,
            report.spec_accepted,
            report.spec_proposed,
            report.spec_bonus,
            report.spec_rolled_back
        );
    }
    let headers = [
        "replica",
        "completed",
        "crashes",
        "steps",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "queue",
        "rung",
    ];
    let rows: Vec<Vec<String>> = report
        .per_replica
        .iter()
        .enumerate()
        .map(|(r, s)| {
            vec![
                r.to_string(),
                s.completed.to_string(),
                s.crashes.to_string(),
                s.steps.to_string(),
                format!("{:.2}", s.p50_latency_s),
                format!("{:.2}", s.p95_latency_s),
                format!("{:.2}", s.p99_latency_s),
                s.final_queue.to_string(),
                s.final_level.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    Ok(())
}
