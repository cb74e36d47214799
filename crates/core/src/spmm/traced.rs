//! Trace emission for kernel launches: per-phase attribution for the
//! SpInfer kernels (FP16 and INT8) and a generic per-launch chain
//! exporter any [`SpmmKernel`](super::SpmmKernel) can use.

use gpu_sim::counters::Counters;
use gpu_sim::kernel::LaunchChain;
use gpu_sim::trace::{attribution_weight, pids, TraceEvent, TraceSink};

/// Kernel phase labels for the trace seam (see [`gpu_sim::trace`]). One
/// record per GroupTile iteration and phase, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TracePhase {
    /// Bitmap + sparse-value LDGSTS stream and its cp.async commit.
    StreamW,
    /// Dense X-tile LDGSTS stream, its commit, and the sparse-group wait.
    StreamX,
    /// Per-TCTile SMBD decode (accumulated over the block's warps).
    Decode,
    /// Tensor-core mma waves (plus iteration-end barrier bookkeeping).
    Mma,
    /// Accumulator store to the reduction workspace.
    Epilogue,
}

impl TracePhase {
    fn name(self) -> &'static str {
        match self {
            TracePhase::StreamW => "stream_w",
            TracePhase::StreamX => "stream_x",
            TracePhase::Decode => "smbd_decode",
            TracePhase::Mma => "mma",
            TracePhase::Epilogue => "epilogue",
        }
    }
}

/// Per-task phase recorder for a traced SpInfer launch. `run_block` pushes
/// `(phase, attribution weight)` pairs in execution order; weights are
/// counter deltas through [`attribution_weight`], so they are pure
/// functions of simulated events — deterministic at any host job count.
/// The launch body converts weights into sim-time spans once the
/// launch's estimated time is known (weights scale so all phase spans
/// of a launch sum exactly to its simulated time).
#[derive(Default)]
pub(crate) struct BlockTracer {
    pub(crate) spans: Vec<(TracePhase, u64)>,
    pub(crate) mark: u64,
}

impl BlockTracer {
    /// Re-baselines the weight cursor at a phase boundary.
    pub(crate) fn sync(&mut self, counters: &Counters) {
        self.mark = attribution_weight(counters);
    }

    /// Closes a phase: records the weight accumulated since the last
    /// boundary and re-baselines.
    pub(crate) fn phase(&mut self, phase: TracePhase, counters: &Counters) {
        let now = attribution_weight(counters);
        self.spans.push((phase, now - self.mark));
        self.mark = now;
    }
}

/// Converts per-task phase weights into sim-time trace events.
///
/// Weights scale uniformly by `launch time / total weight`, so the
/// `cat:"phase"` spans of the main launch sum *exactly* to its estimated
/// time; each block row gets a compute track (phases laid end to end)
/// and a cp.async track whose in-flight windows span commit→wait, with
/// flow arrows into the consuming phase. Everything here is a pure
/// function of the deterministic weight records, so the emitted trace is
/// byte-identical at any host job count.
pub(crate) fn emit_kernel_trace(
    sink: &TraceSink,
    kname: &str,
    chain: &LaunchChain,
    task_spans: &[Vec<(TracePhase, u64)>],
) {
    let t_main_us = chain.launches[0].time_us();
    let total_w: u64 = task_spans
        .iter()
        .flat_map(|s| s.iter().map(|&(_, wgt)| wgt))
        .sum();
    let scale = if total_w == 0 {
        0.0
    } else {
        t_main_us / total_w as f64
    };
    let mut evs = Vec::new();
    for (gty, spans) in task_spans.iter().enumerate() {
        let compute = (pids::KERNEL, (gty as u32) * 2);
        let copy = (pids::KERNEL, (gty as u32) * 2 + 1);
        sink.name_track(compute, kname, &format!("block-row {gty} compute"));
        sink.name_track(copy, kname, &format!("block-row {gty} cp.async"));
        let mut cursor = 0u64;
        let mut iter_idx = 0u64;
        // Boundaries of the current GroupTile iteration (sim-time µs).
        let mut w_end = 0.0f64;
        let mut x_end = 0.0f64;
        let mut decode_ts = 0.0f64;
        for &(phase, wgt) in spans {
            let ts = cursor as f64 * scale;
            cursor += wgt;
            let end = cursor as f64 * scale;
            let mut ev = TraceEvent::span(compute, phase.name(), "phase", ts, end - ts);
            ev.arg = Some(("weight", wgt as f64));
            evs.push(ev);
            match phase {
                TracePhase::StreamW => w_end = end,
                TracePhase::StreamX => x_end = end,
                TracePhase::Decode => decode_ts = ts,
                TracePhase::Mma => {
                    // cp.async windows: the sparse group commits at the
                    // end of stream_w and retires at the wait before
                    // decode; the dense group commits at the end of
                    // stream_x and retires at the iteration-end
                    // wait_group(0). Flow arrows land on the phase that
                    // consumed the copied bytes.
                    let id = ((gty as u64) << 32) | (iter_idx << 1);
                    evs.push(TraceEvent::span(
                        copy,
                        "cp.async sparse",
                        "cp.async",
                        w_end,
                        decode_ts - w_end,
                    ));
                    evs.push(TraceEvent::flow(
                        copy,
                        "cp.async sparse",
                        "cp.async",
                        w_end,
                        true,
                        id,
                    ));
                    evs.push(TraceEvent::flow(
                        compute,
                        "cp.async sparse",
                        "cp.async",
                        decode_ts,
                        false,
                        id,
                    ));
                    evs.push(TraceEvent::span(
                        copy,
                        "cp.async dense",
                        "cp.async",
                        x_end,
                        end - x_end,
                    ));
                    evs.push(TraceEvent::flow(
                        copy,
                        "cp.async dense",
                        "cp.async",
                        x_end,
                        true,
                        id | 1,
                    ));
                    evs.push(TraceEvent::flow(
                        compute,
                        "cp.async dense",
                        "cp.async",
                        ts,
                        false,
                        id | 1,
                    ));
                    iter_idx += 1;
                }
                TracePhase::Epilogue => {}
            }
        }
    }
    if let Some(reduction) = chain.launches.get(1) {
        let track = (pids::KERNEL, u32::MAX);
        sink.name_track(track, kname, "split-K reduction");
        evs.push(TraceEvent::span(
            track,
            "reduction",
            "phase",
            t_main_us,
            reduction.time_us(),
        ));
    }
    sink.extend(evs);
}

/// Generic launch-chain trace for kernels without per-phase attribution:
/// one track per launch (named after the launch), with a single
/// `cat:"phase"` span per launch laid end to end on the sim-time clock.
/// The spans sum exactly to [`LaunchChain::time_us`], so chain traces
/// pass the same phase-sum gate as the attributed SpInfer trace. Pure
/// function of the chain — byte-identical at any host job count.
pub fn emit_chain_trace(sink: &TraceSink, kernel: &str, chain: &LaunchChain) {
    let mut evs = Vec::new();
    let mut ts = 0.0f64;
    for (i, launch) in chain.launches.iter().enumerate() {
        let track = (pids::KERNEL, i as u32);
        sink.name_track(track, kernel, &launch.name);
        let dur = launch.time_us();
        evs.push(TraceEvent::span(track, "launch", "phase", ts, dur));
        ts += dur;
    }
    sink.extend(evs);
}
