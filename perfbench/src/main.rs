//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! with the end-to-end metrics when untraced and the per-layer metrics
//! when traced. A traced run also writes its Chrome trace to `out/`
//! beside this package's manifest.

use std::process::ExitCode;

use spinfer_perfbench::harness::{keep_freed_memory, peak_rss_mib, Metric};
use spinfer_perfbench::{run, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e: std::num::ParseIntError| bad(e.to_string()))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0) {
        return Err("--seconds must be > 0".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One worker: the host has two cores, and the second stays free for
    // everything else on the machine.
    gpu_sim::exec::set_jobs(1);
    keep_freed_memory();
    println!(
        "workload {} seed {} seconds {} trace {} jobs {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gpu_sim::exec::num_jobs()
    );
    let Some(mut outcome) = run(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let wanted: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        if let Some(rss) = peak_rss_mib() {
            outcome.metrics.push(Metric::host("peak_rss_mib", rss, "MiB"));
        }
        &END_TO_END
    };
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<40} {value:>18} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "ops attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
