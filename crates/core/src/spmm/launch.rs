//! The kernel launch abstraction: [`LaunchCtx`], the [`SpmmKernel`]
//! trait every SpMM backend implements, the object-safe
//! [`DynSpmmKernel`] wrapper, and the unified SpInfer-SpMM launch body
//! shared by the FP16 and INT8 kernels.
//!
//! Every entry point funnels into one body parameterised by a
//! [`LaunchCtx`]: `run` and `run_traced` build a context, and fault-aware
//! callers pass theirs to [`SpmmKernel::launch`] directly. Capabilities
//! therefore compose (traced **and** checked in one launch) and apply
//! uniformly to every registered kernel — and, through the `Datapath`
//! type parameter, to both SpInfer payload precisions.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::error::SpinferError;
use crate::tca_bme::TcaBme;
use gpu_sim::counters::Counters;
use gpu_sim::cpu::Simd;
use gpu_sim::exec;
use gpu_sim::fault::FaultInjector;
use gpu_sim::fp16::Half;
use gpu_sim::global::GlobalMemory;
use gpu_sim::kernel::{LaunchChain, LaunchResult};
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;
use gpu_sim::timing::L2Reuse;
use gpu_sim::trace::TraceSink;

use super::block::{
    x_operands, x_requested_bytes, BlockBases, BlockGrid, BlockScratch, CheckedState, Datapath,
};
use super::traced::{emit_kernel_trace, BlockTracer, TracePhase};
use super::{FormatStats, SpinferSpmm, SpmmConfig, SpmmRun};

/// Capability bundle for one kernel launch: the device plus every
/// optional seam.
///
/// | field    | absent (`None`)            | present                       |
/// |----------|----------------------------|-------------------------------|
/// | `fault`  | golden counter stream      | injection + D1–D3 detection   |
/// | `policy` | panic-on-contract semantics| validated inputs, typed errors|
/// | `sink`   | no trace events            | per-phase Chrome-trace spans  |
///
/// A context carrying neither `fault` nor `policy` runs the *golden*
/// path: bit-identical counters and output to the historical `run`
/// entry points, with no integrity work. Attaching a `sink` never
/// perturbs output, counters, or simulated time — tracing only reads
/// the counter stream.
#[derive(Clone, Copy)]
pub struct LaunchCtx<'a> {
    /// Simulated device executing the launch.
    pub spec: &'a GpuSpec,
    /// Fault injector driving bit flips, commit faults, and FP16 poison.
    pub fault: Option<&'a FaultInjector>,
    /// Recovery policy; its presence alone enables input validation and
    /// typed-error semantics even with no injector attached.
    pub policy: Option<&'a FaultPolicy>,
    /// Trace sink receiving phase spans and cp.async flow arrows.
    pub sink: Option<&'a TraceSink>,
}

impl<'a> LaunchCtx<'a> {
    /// A bare golden-path context: no faults, no checking, no tracing.
    pub fn new(spec: &'a GpuSpec) -> Self {
        LaunchCtx {
            spec,
            fault: None,
            policy: None,
            sink: None,
        }
    }

    /// Attaches a fault injector (enables the checked arms).
    pub fn with_fault(mut self, fault: &'a FaultInjector) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a recovery policy (enables the checked arms).
    pub fn with_policy(mut self, policy: &'a FaultPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a trace sink.
    pub fn with_sink(mut self, sink: &'a TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether this launch runs with integrity checking: any fault or
    /// policy attachment opts in. A policy alone still validates the
    /// container, with no injector attached.
    pub fn checked(&self) -> bool {
        self.fault.is_some() || self.policy.is_some()
    }

    /// The recovery policy in effect (default when only an injector was
    /// attached).
    pub fn effective_policy(&self) -> FaultPolicy {
        self.policy.copied().unwrap_or_default()
    }
}

impl fmt::Debug for LaunchCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaunchCtx")
            .field("fault", &self.fault.is_some())
            .field("policy", &self.policy)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// Recovery policy for checked launches: how hard to try before giving
/// up on a GroupTile, and what giving up means.
///
/// A checked launch (a [`LaunchCtx`] carrying a fault injector or a
/// policy) runs four defence layers:
/// * **D1** — per-GroupTile FNV-1a checksums verify the landed
///   shared-memory image; mismatches re-stream from DRAM with a
///   reseeded draw stream.
/// * **D2** — checked SMBD decode surfaces packed-value offset
///   overruns from corrupted bitmaps.
/// * **D3** — checked decode rejects non-finite FP16 weights
///   (NaN/Inf poison).
/// * **D4** — container validation before launch, so a corrupt or
///   truncated container is rejected with a typed error instead of a
///   panic.
///
/// With no injector (or an unarmed one) a checked launch is
/// bit-identical to the golden path in both output and counter digest —
/// fault tallies are excluded from
/// [`Counters::digest`](gpu_sim::counters::Counters::digest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum load/decode attempts per site (first try + retries).
    pub max_attempts: u32,
    /// After exhausting retries: `true` falls back to a reference
    /// product of the pristine GroupTile (slow but exact), `false`
    /// surfaces a typed [`KernelError`](crate::error::KernelError).
    pub fallback: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            fallback: true,
        }
    }
}

/// One SpMM backend: a weight format, a launch routine and an analytic
/// estimate.
///
/// Every kernel in the workspace — SpInfer at both payload precisions
/// and the six baselines — implements this trait, so sweeps, caches,
/// serving, and the CLI
/// dispatch generically instead of through per-kernel match arms. The
/// `run`/`run_encoded` provided methods replace the hand-written shims
/// each baseline used to carry.
///
/// # Contract
///
/// Pinned by `tests/kernel_contract.rs` for every registered kernel:
///
/// * `run(spec, w, x)` ≡ `launch(LaunchCtx::new(spec), encode(w), x)`
///   bit-identically (output, counters, and simulated-time bits).
/// * Results are bit-identical at any host job count.
/// * Attaching a trace sink is output-neutral.
pub trait SpmmKernel {
    /// The kernel's encoded weight format.
    type Encoded: Send + Sync + 'static;

    /// Display name, matching the figure labels (e.g. `"SpInfer"`,
    /// `"Flash-LLM"`). Registry lookups key on this.
    fn name(&self) -> &'static str;

    /// Identifier of the *encoding* this kernel consumes. Kernels
    /// sharing a format (Sputnik and cuSPARSE both read CSR) return the
    /// same key so caches encode once per format, not once per kernel.
    fn format_key(&self) -> &'static str {
        self.name()
    }

    /// Encodes a dense weight matrix into this kernel's format.
    fn encode(&self, w: &DenseMatrix) -> Self::Encoded;

    /// Structural validation of an encoded container. Called by checked
    /// launches before any decode consumes the data; formats without
    /// integrity metadata accept unconditionally.
    fn validate(&self, _enc: &Self::Encoded) -> Result<(), SpinferError> {
        Ok(())
    }

    /// Analytic launch for an `m×k` weight at `sparsity` times a `k×n`
    /// activation, from synthetic format statistics (no weights are
    /// generated or encoded). This is the estimate every figure sweep,
    /// the snapshot and the serving cost model price.
    fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun;

    /// Executes `W × X` under the capabilities in `ctx`.
    ///
    /// With a bare [`LaunchCtx::new`] this is infallible for
    /// well-dimensioned inputs; dimension mismatches and fault-path
    /// hazards surface as typed [`SpinferError`]s.
    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &Self::Encoded,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError>;

    /// Encode-then-launch convenience: `run(w, x) = launch(encode(w), x)`
    /// on a bare context.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `K×N` for the `M×K` weights (CUDA
    /// launch-failure semantics; use [`Self::launch`] for typed errors).
    fn run(&self, spec: &GpuSpec, w: &DenseMatrix, x: &DenseMatrix) -> SpmmRun {
        let enc = self.encode(w);
        self.run_encoded(spec, &enc, x)
    }

    /// [`Self::run`] against pre-encoded weights.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `K×N` for the `M×K` weights.
    fn run_encoded(&self, spec: &GpuSpec, enc: &Self::Encoded, x: &DenseMatrix) -> SpmmRun {
        match self.launch(&LaunchCtx::new(spec), enc, x) {
            Ok(run) => run,
            Err(e) => panic!("{} launch failed outside a fault context: {e}", self.name()),
        }
    }
}

/// Type-erased encoded weights produced by [`DynSpmmKernel::encode`].
///
/// Carries the originating [`format key`](SpmmKernel::format_key) so
/// caches can share one encoding across kernels that read the same
/// format. Cloning is cheap (the payload is reference-counted).
#[derive(Clone)]
pub struct DynEncoded {
    format_key: &'static str,
    payload: Arc<dyn Any + Send + Sync>,
}

impl DynEncoded {
    /// Wraps an already-encoded container under a format key. Prefer
    /// [`DynSpmmKernel::encode`], which keys the payload automatically.
    pub fn new<E: Send + Sync + 'static>(format_key: &'static str, enc: E) -> Self {
        DynEncoded {
            format_key,
            payload: Arc::new(enc),
        }
    }

    /// The format identifier this encoding was produced under.
    pub fn format_key(&self) -> &'static str {
        self.format_key
    }

    /// Borrows the typed container, if `E` matches the payload.
    pub fn downcast<E: 'static>(&self) -> Option<&E> {
        self.payload.downcast_ref::<E>()
    }

    /// Whether two handles share one underlying encoding (pointer
    /// identity — used to assert encode-once cache behaviour).
    pub fn shares_encoding(&self, other: &DynEncoded) -> bool {
        Arc::ptr_eq(&self.payload, &other.payload)
    }
}

impl fmt::Debug for DynEncoded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynEncoded")
            .field("format_key", &self.format_key)
            .finish()
    }
}

/// Object-safe view of an [`SpmmKernel`] (the associated `Encoded` type
/// is erased behind [`DynEncoded`]).
trait ErasedSpmm: Send + Sync {
    fn name(&self) -> &'static str;
    fn format_key(&self) -> &'static str;
    fn encode_dyn(&self, w: &DenseMatrix) -> DynEncoded;
    fn validate_dyn(&self, enc: &DynEncoded) -> Result<(), SpinferError>;
    fn estimate_synthetic_dyn(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun;
    fn launch_dyn(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &DynEncoded,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError>;
}

impl<K: SpmmKernel + Send + Sync + 'static> ErasedSpmm for K {
    fn name(&self) -> &'static str {
        SpmmKernel::name(self)
    }

    fn format_key(&self) -> &'static str {
        SpmmKernel::format_key(self)
    }

    fn encode_dyn(&self, w: &DenseMatrix) -> DynEncoded {
        DynEncoded::new(SpmmKernel::format_key(self), self.encode(w))
    }

    fn validate_dyn(&self, enc: &DynEncoded) -> Result<(), SpinferError> {
        self.validate(self.expect_typed(enc))
    }

    fn estimate_synthetic_dyn(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun {
        self.estimate_synthetic(spec, m, k, n, sparsity)
    }

    fn launch_dyn(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &DynEncoded,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        self.launch(ctx, self.expect_typed(enc), x)
    }
}

/// Downcast helper shared by the erased entry points.
trait ExpectTyped: SpmmKernel {
    fn expect_typed<'e>(&self, enc: &'e DynEncoded) -> &'e Self::Encoded {
        enc.downcast::<Self::Encoded>().unwrap_or_else(|| {
            panic!(
                "encoded weights carry format '{}' but kernel '{}' expects format '{}'",
                enc.format_key(),
                self.name(),
                self.format_key()
            )
        })
    }
}

impl<K: SpmmKernel + ?Sized> ExpectTyped for K {}

/// A clonable, type-erased handle to any [`SpmmKernel`] — the currency
/// of the kernel registry, the benchmark sweeps, and the CLI.
#[derive(Clone)]
pub struct DynSpmmKernel {
    inner: Arc<dyn ErasedSpmm>,
}

impl DynSpmmKernel {
    /// Erases a concrete kernel.
    pub fn new<K: SpmmKernel + Send + Sync + 'static>(kernel: K) -> Self {
        DynSpmmKernel {
            inner: Arc::new(kernel),
        }
    }

    /// Display name (see [`SpmmKernel::name`]).
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Encoding identifier (see [`SpmmKernel::format_key`]).
    pub fn format_key(&self) -> &'static str {
        self.inner.format_key()
    }

    /// Encodes dense weights into this kernel's format, type-erased.
    pub fn encode(&self, w: &DenseMatrix) -> DynEncoded {
        self.inner.encode_dyn(w)
    }

    /// Structural validation of an erased container.
    ///
    /// # Panics
    ///
    /// Panics if `enc` was produced by a kernel with a different format.
    pub fn validate(&self, enc: &DynEncoded) -> Result<(), SpinferError> {
        self.inner.validate_dyn(enc)
    }

    /// Analytic launch from synthetic statistics (see
    /// [`SpmmKernel::estimate_synthetic`]).
    pub fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun {
        self.inner.estimate_synthetic_dyn(spec, m, k, n, sparsity)
    }

    /// Executes `W × X` under the capabilities in `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `enc` was produced by a kernel with a different format.
    pub fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &DynEncoded,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        self.inner.launch_dyn(ctx, enc, x)
    }

    /// Encode-then-launch on a bare context.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `K×N` for the `M×K` weights.
    pub fn run(&self, spec: &GpuSpec, w: &DenseMatrix, x: &DenseMatrix) -> SpmmRun {
        let enc = self.encode(w);
        match self.launch(&LaunchCtx::new(spec), &enc, x) {
            Ok(run) => run,
            Err(e) => panic!("{} launch failed outside a fault context: {e}", self.name()),
        }
    }
}

impl fmt::Debug for DynSpmmKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynSpmmKernel")
            .field("name", &self.name())
            .field("format_key", &self.format_key())
            .finish()
    }
}

impl SpmmKernel for SpinferSpmm {
    type Encoded = TcaBme;

    fn name(&self) -> &'static str {
        "SpInfer"
    }

    fn format_key(&self) -> &'static str {
        "tca-bme"
    }

    fn encode(&self, w: &DenseMatrix) -> TcaBme {
        TcaBme::encode(w)
    }

    fn validate(&self, enc: &TcaBme) -> Result<(), SpinferError> {
        enc.validate().map_err(SpinferError::from)
    }

    fn estimate_synthetic(
        &self,
        spec: &GpuSpec,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> SpmmRun {
        self.estimate(spec, &FormatStats::synthetic(m, k, sparsity), n)
    }

    fn launch(
        &self,
        ctx: &LaunchCtx<'_>,
        enc: &TcaBme,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        self.config.launch::<Half>(ctx, enc, x)
    }
}

impl SpinferSpmm {
    /// Functional execution: computes the product and records counters
    /// from real addresses and bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != w.k`.
    pub fn run(&self, spec: &GpuSpec, w: &TcaBme, x: &DenseMatrix) -> SpmmRun {
        assert_eq!(x.rows(), w.k, "X must be K×N");
        self.launch(&LaunchCtx::new(spec), w, x)
            .expect("golden-path launch is infallible once dimensions are checked")
    }

    /// [`Self::run`] with span recording into `sink` (see
    /// [`gpu_sim::trace`]): per GroupTile iteration, `stream_w` /
    /// `stream_x` / `smbd_decode` / `mma` phase spans on one compute
    /// track per block row, cp.async in-flight windows with
    /// issue→commit→wait flow arrows on a sibling track, one `epilogue`
    /// span per block, and a `reduction` span when split-K > 1.
    ///
    /// Output, counters, and simulated time are bit-identical to
    /// [`Self::run`]: tracing only *reads* the counter stream. Spans are
    /// timestamped in simulated µs — phase attribution weights scaled so
    /// the main launch's phase spans sum exactly to its estimated time —
    /// so traces are byte-identical at any host job count.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != w.k`.
    pub fn run_traced(
        &self,
        spec: &GpuSpec,
        w: &TcaBme,
        x: &DenseMatrix,
        sink: &TraceSink,
    ) -> SpmmRun {
        assert_eq!(x.rows(), w.k, "X must be K×N");
        self.launch(&LaunchCtx::new(spec).with_sink(sink), w, x)
            .expect("golden-path launch is infallible once dimensions are checked")
    }
}

impl SpmmConfig {
    /// The one launch body behind every `SpinferSpmm` and
    /// `SpinferSpmmInt8` entry point, at payload precision `P`.
    ///
    /// The context decides which arms are live: a checked launch
    /// ([`LaunchCtx::checked`]) validates the container and threads
    /// per-GroupTile checksums into the block routine; a sink threads a
    /// phase tracer. Neither arm costs anything when absent, so the
    /// golden path is bit-identical to the historical `run`.
    pub(crate) fn launch<P: Datapath>(
        &self,
        ctx: &LaunchCtx<'_>,
        w: &P::Container,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        let spec = ctx.spec;
        let t = P::tiles(w);
        if x.rows() != t.k {
            return Err(SpinferError::DimensionMismatch {
                expected_k: t.k,
                got: x.rows(),
            });
        }
        // Integrity preflight (checked launches only): structural
        // validation plus pristine per-GroupTile checksums for D1.
        let checksums = if ctx.checked() {
            P::validate(w)?;
            t.gtile_checksums()
        } else {
            Vec::new()
        };
        let checked = ctx.checked().then(|| CheckedState {
            checksums: &checksums,
            policy: ctx.effective_policy(),
        });
        let fault = ctx.fault;
        let sink = ctx.sink;

        let n = x.cols();
        let stats = FormatStats::from_encoded(t);
        let geo = self.geometry::<P>(spec, &stats, n);
        let x_scale = P::x_scale(x);
        // X converted to `mma` operands once for the whole launch; every
        // block reads its K rows and N tile from this buffer.
        let xb = x_operands::<P>(x, t.k_pad, &geo, x_scale);
        let simd = Simd::detect();

        // Virtual address space for coalescing analysis.
        let mut gm = GlobalMemory::new();
        let _offsets_base = gm.alloc(4 * t.gtile_offsets.len());
        let values_base = gm.alloc(P::BYTES * t.values.len());
        let bitmaps_base = gm.alloc(8 * t.bitmaps.len());
        let x_base = gm.alloc(2 * t.k * geo.n_pad);
        let ws_base = gm.alloc(4 * t.m_pad * geo.n_pad * geo.split_k);

        // Shared-memory virtual layout within a block (one buffer; the
        // second buffer has identical bank behaviour).
        let bases = BlockBases {
            values: values_base,
            bitmaps: bitmaps_base,
            x: x_base,
            ws: ws_base,
            smem_values: (t.config.bts_per_gt() * 8) as u64,
        };

        let gtiles_y = t.gtiles_y();
        let gtiles_x = t.gtiles_x();
        let slice_len = t.m_pad * geo.n_pad;
        let band_len = t.config.gt_rows * geo.n_pad;

        let (workspace, counters, task_spans) = fan_out_block_rows(
            gtiles_y,
            geo.split_k,
            slice_len,
            band_len,
            BlockScratch::<P>::new,
            |block_scratch, bands, gty| {
                let mut shard = Counters::new();
                let mut tracer = sink.map(|_| BlockTracer::default());
                for nt in 0..geo.grid_x {
                    let n0 = nt * geo.tile_n;
                    for (split, band) in bands.iter_mut().enumerate() {
                        let gx0 = split * geo.gtx_per_split;
                        let gx1 = (gx0 + geo.gtx_per_split).min(gtiles_x);
                        self.run_block(
                            simd,
                            w,
                            &xb,
                            x_scale,
                            &mut shard,
                            band,
                            block_scratch,
                            &geo,
                            &BlockGrid { gty, n0, gx0, gx1 },
                            &bases,
                            checked.as_ref(),
                            fault,
                            tracer.as_mut(),
                        )?;
                    }
                }
                Ok((shard, tracer.map(|t| t.spans)))
            },
        )?;

        let l2 = [L2Reuse {
            buffer_bytes: (2 * t.k * geo.n_pad) as u64,
            requested_bytes: x_requested_bytes(x_base, gtiles_y, gtiles_x, t.config.gt_cols, &geo),
        }];

        let name = P::kernel_name(self.ablation);
        let mut chain = LaunchChain::new();
        chain.push(LaunchResult::from_execution(
            name,
            spec,
            self.launch_shape(&geo),
            counters,
            &l2,
        ));

        // Reduce the split-K workspace through the functional reduction
        // kernel (its counters come from real addresses too). With one
        // split the workspace already is the padded output.
        let out_pad = if geo.split_k > 1 {
            let mut out_pad = vec![0.0f32; slice_len];
            let out_base = gm.alloc(4 * slice_len);
            chain.push(crate::reduction::run_reduction(
                spec,
                &workspace,
                &mut out_pad,
                slice_len,
                geo.split_k,
                ws_base,
                out_base,
            ));
            out_pad
        } else {
            workspace
        };

        // Slice to logical M×N.
        let mut output = vec![0.0f32; t.m * n];
        for r in 0..t.m {
            output[r * n..(r + 1) * n].copy_from_slice(&out_pad[r * geo.n_pad..r * geo.n_pad + n]);
        }
        if let Some(sink) = sink {
            emit_kernel_trace(sink, name, &chain, &task_spans);
        }
        Ok(SpmmRun {
            output: Some(output),
            chain,
        })
    }
}

/// Per-block-row outcome from a [`fan_out_block_rows`] body: the
/// counter shard plus optional per-phase trace spans.
type RowOutcome = (Counters, Option<Vec<(TracePhase, u64)>>);

/// Aggregated [`fan_out_block_rows`] result: the filled split-K
/// workspace, merged counters, and per-block-row trace spans in
/// block-row order.
type FanOutResult = (Vec<f32>, Counters, Vec<Vec<(TracePhase, u64)>>);

/// Block-level fan-out of the launch body (see `gpu_sim::exec`): block
/// rows `gty` write disjoint workspace row bands, so they distribute
/// across host cores. The split-K workspace
/// (`split_k × slice_len` FP32) is pre-cut into per-(split, gty) bands
/// and each task gets the bands it owns, one per split (`body`'s second
/// argument) — safe disjoint `&mut` access with no runtime aliasing
/// checks. Block routines write their bands directly, indexing rows
/// relative to the band. Event counts shard per task and merge
/// field-wise (`u64` addition commutes), so both the numerics (disjoint
/// bands) and the counters are bit-identical to the serial loop at any
/// job count. A block row that aborts on an unrecoverable fault carries
/// the typed error out through the shard results, and the launch
/// returns it. Per-task span records come back in task (block-row)
/// order, so traces built from them are independent of scheduling.
fn fan_out_block_rows<S: Send>(
    gtiles_y: usize,
    split_k: usize,
    slice_len: usize,
    band_len: usize,
    init: impl Fn() -> S + Send + Sync,
    body: impl Fn(&mut S, &mut [&mut [f32]], usize) -> Result<RowOutcome, crate::error::KernelError>
        + Send
        + Sync,
) -> Result<FanOutResult, SpinferError> {
    let mut workspace = vec![0.0f32; split_k * slice_len];
    let mut split_bands: Vec<_> = workspace
        .chunks_mut(slice_len)
        .map(|s| s.chunks_mut(band_len))
        .collect();
    let tasks: Vec<(usize, Vec<&mut [f32]>)> = (0..gtiles_y)
        .map(|gty| {
            let bands = split_bands
                .iter_mut()
                .map(|it| {
                    it.next().expect(
                        "workspace band iterator exhausted: every split slice must hold \
                         one band per block row (workspace sized split_k * m_pad * n_pad \
                         with m_pad = gtiles_y * gt_rows)",
                    )
                })
                .collect();
            (gty, bands)
        })
        .collect();

    // Worker-scoped state: the block-level scratch (accumulators,
    // decode buffers), allocated once per worker and reused across every
    // block invocation instead of per launch-grid cell.
    let shards = exec::par_map_with(tasks, init, |state, (gty, mut bands)| {
        body(state, &mut bands, gty)
    });
    let mut counters = Counters::new();
    let mut task_spans: Vec<Vec<(TracePhase, u64)>> = Vec::new();
    for res in shards {
        let (shard, spans) = res.map_err(SpinferError::Kernel)?;
        counters.merge(&shard);
        if let Some(spans) = spans {
            task_spans.push(spans);
        }
    }
    Ok((workspace, counters, task_spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KernelError;

    /// Each block row gets its own band of every split slice, in split
    /// order and zeroed, and what it writes there is the workspace;
    /// shards merge and spans come back in block-row order.
    #[test]
    fn fan_out_hands_each_block_row_its_bands() {
        let (gtiles_y, split_k, band_len) = (5, 3, 4);
        let slice_len = gtiles_y * band_len;
        let (ws, counters, spans) = fan_out_block_rows(
            gtiles_y,
            split_k,
            slice_len,
            band_len,
            || (),
            |_, bands, gty| {
                assert_eq!(bands.len(), split_k);
                for (split, band) in bands.iter_mut().enumerate() {
                    assert_eq!(band.len(), band_len);
                    assert!(band.iter().all(|&v| v == 0.0), "bands start zeroed");
                    band.fill((100 * split + gty) as f32);
                }
                let mut shard = Counters::new();
                shard.barriers = gty as u64 + 1;
                Ok((shard, Some(vec![(TracePhase::Mma, gty as u64)])))
            },
        )
        .expect("no block row fails");
        for (i, &v) in ws.iter().enumerate() {
            let (split, gty) = (i / slice_len, i % slice_len / band_len);
            assert_eq!(v, (100 * split + gty) as f32, "workspace element {i}");
        }
        assert_eq!(counters.barriers, 15);
        let order: Vec<_> = (0..5).map(|g| vec![(TracePhase::Mma, g)]).collect();
        assert_eq!(spans, order);
    }

    /// A block row that aborts fails the whole fan-out with its typed
    /// error.
    #[test]
    fn fan_out_carries_a_block_rows_error_out() {
        let err = fan_out_block_rows(
            4,
            2,
            8,
            2,
            || (),
            |_, _, gty| match gty {
                2 => Err(KernelError::RetryBudgetExhausted { gt: 7, attempts: 3 }),
                _ => Ok((Counters::new(), None)),
            },
        )
        .expect_err("block row 2 fails");
        assert!(matches!(
            err,
            SpinferError::Kernel(KernelError::RetryBudgetExhausted { gt: 7, attempts: 3 })
        ));
    }
}
