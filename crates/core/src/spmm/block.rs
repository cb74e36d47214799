//! The per-thread-block routine, its fault-aware load helpers, and the
//! [`Datapath`] hooks that make both payload precisions share them.
//!
//! One function — `run_block` — serves FP16 and INT8, and within each
//! the golden, traced, and checked paths. Value precision changes only
//! how an element is stored, widened and flipped, which Tensor Core pipe
//! runs the `mma`, and how accumulators reach the `f32` epilogue; those
//! steps are the [`Datapath`] hooks, implemented here for [`Half`] and
//! in `int8` for `i8`. The checked/traced merge is free on the golden
//! path by construction:
//!
//! * the golden path records its counter stream at the coarsest grain
//!   that determines it: the X stream from the launch's per-(N tile,
//!   GroupTile column) table, and per GroupTile the SMBD decodes
//!   (`smbd::record_decodes` over its bitmaps) and the `ldmatrix` and
//!   `mma` of its TCTiles, so the per-TCTile loop only decodes and
//!   multiplies;
//! * a checked launch decodes through `decode_tctile_rows_f`, which
//!   records each attempt itself; the fault-aware hooks
//!   (`record_ldgsts_stream_f`, `commit_group_f`, `decode_tctile_rows_f`)
//!   record the golden counter stream when no injector is attached;
//! * the tracer only *reads* counters, once per phase per GroupTile;
//! * the D1 checksum loop is gated on an armed injector, and the D2/D3
//!   retry machinery on the checked state — neither executes otherwise.

use std::ops::{AddAssign, Mul};

use crate::error::{IntegrityError, KernelError};
use crate::payload::Payload;
#[cfg(target_arch = "x86_64")]
use crate::smbd::row_shuffle;
use crate::smbd::{decode_tctile_rows, decode_tctile_rows_f, record_decodes, DecodeFault};
use crate::tca_bme::{checksum_gtile, TcaBme, TcaBmeConfig, TcaBmeOf, TT_DIM};
use gpu_sim::bitops::popc64;
use gpu_sim::counters::Counters;
use gpu_sim::cpu::{Isa, Portable, Simd};
use gpu_sim::fault::{flip_bit_u16, flip_bit_u64, CommitFault, FaultInjector};
use gpu_sim::fp16::{f16_to_f32_slice, Half};
use gpu_sim::global::{warp_global_store, warp_ldgsts_runs, VAddr};
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::shared_memory::warp_ldsm_x4_rows;
use gpu_sim::tensor_core::{
    mma_m16n8k16_bslice_body, AccF32, MAX_NTILES, MMA_K, MMA_M, MMA_N, QUAD_ORIGINS,
};

use super::traced::{BlockTracer, TracePhase};
use super::{Ablation, FaultPolicy, Geometry, SpmmConfig};

/// One 16×8 `f32` output tile — what every datapath hands the epilogue.
pub(crate) type OutTile = [[f32; MMA_N]; MMA_M];

/// One decoded 16×16 TCTile as `mma` A-operand rows.
pub(crate) type TcRows<P> = [[<P as Datapath>::Operand; MMA_K]; MMA_M];

/// The precision-specific steps of the one SpInfer-SpMM datapath
/// (GTile stream → SMBD decode → `ldmatrix` → `mma` → split-K
/// reduction). Everything else — launch body, block routine, fault
/// images, checked retries, fallback, tracing, estimator — is written
/// once over this trait. Implemented for [`Half`] (here) and `i8`
/// (`spmm::int8`); crate-private, and sealed through [`Payload`].
pub(crate) trait Datapath: Payload {
    /// The weight container a launch reads (`TcaBme` / `TcaBmeInt8`).
    type Container: Sync;
    /// Decoded `mma` operand element (`f32` / `i32`).
    type Operand: Copy + Default + Send + Sync + Mul<Output = Self::Operand> + AddAssign;
    /// Per-warp `mma` accumulator tile, row-major (`AccF32` / `AccS8`).
    type Acc: Clone + Send;
    /// A cleared accumulator tile.
    const ACC_ZERO: Self::Acc;
    /// Warp-wide FP instructions per accumulator tile of the
    /// end-of-GroupTile fold (0 when there is no fold).
    const FOLD_INSTS_PER_TILE: u64;

    /// Launch-chain display name of the main kernel.
    fn kernel_name(ablation: Ablation) -> &'static str;
    /// The bitmap/offset/value arrays of a container.
    fn tiles(w: &Self::Container) -> &TcaBmeOf<Self>;
    /// Structural validation run by checked launches before any decode.
    fn validate(w: &Self::Container) -> Result<(), IntegrityError>;
    /// The counter of the Tensor Core pipe this precision's `mma` runs on.
    fn mma_pipe(c: &mut Counters) -> &mut u64;
    /// Flips bit `bit` of byte `byte` (little-endian) of one element —
    /// the in-element half of a fault-image bit flip.
    fn flip_bit(&mut self, byte: usize, bit: u32);
    /// Launch-global activation scale fed to [`Self::fill_x_row`].
    fn x_scale(x: &DenseMatrix) -> f32;
    /// Converts one X row to `mma` operands.
    fn fill_x_row(src: &[Half], dst: &mut [Self::Operand], x_scale: f32);
    /// Widens one stored element to an `mma` operand.
    fn widen(self) -> Self::Operand;
    /// One quadrant row of the SIMD SMBD expansion: `packed` holds the
    /// row's eight packed values from its running offset on; through
    /// this payload's `pshufb` table, the `r`-th set bit of `byte` at
    /// column `c` takes `packed[r]`, and all eight columns are widened
    /// into `dst`, the clear ones as the operand's zero.
    ///
    /// # Safety
    ///
    /// The host has the [`Simd`] features.
    #[cfg(target_arch = "x86_64")]
    unsafe fn expand_row(packed: &[Self; 8], byte: u8, dst: &mut [Self::Operand; 8]);
    /// Post-decode scan of a checked TCTile decode (D3).
    fn scan(rows: &TcRows<Self>) -> Result<(), DecodeFault>;
    /// Batched `mma.m16n8k16` MAC of one decoded TCTile against adjacent
    /// 8-column B tiles (`b` row-major with leading dimension `ld`), on
    /// the block's capability; the block records the instructions
    /// ([`Self::mma_pipe`]). Implementations are `#[inline(always)]`,
    /// so the MAC compiles into the block's copy.
    fn mma<C: Isa>(
        cap: C,
        a: &TcRows<Self>,
        b: &[Self::Operand],
        ld: usize,
        accs: &mut [Self::Acc],
    );
    /// Adds `tile(r, c)` into every element of one accumulator tile.
    fn accumulate(acc: &mut Self::Acc, tile: impl Fn(usize, usize) -> Self::Operand);
    /// End-of-GroupTile fold of the accumulators into the `f32` bank.
    fn fold(
        counters: &mut Counters,
        w: &Self::Container,
        gt: usize,
        x_scale: f32,
        accs: &mut [Self::Acc],
        out: &mut [OutTile],
    );
    /// Moves whatever the folds left in the accumulators into the `f32`
    /// bank the epilogue stores.
    fn finish(accs: &[Self::Acc], out: &mut [OutTile]);
}

/// FP16: `Half` values widened by `Half::to_f32` or, eight per quadrant
/// row, through F16C; FP32-accumulating `mma.f16`, D3 finiteness scan,
/// no fold — the accumulators already are the `f32` output.
impl Datapath for Half {
    type Container = TcaBme;
    type Operand = f32;
    type Acc = AccF32;
    const ACC_ZERO: AccF32 = [[0.0; MMA_N]; MMA_M];
    const FOLD_INSTS_PER_TILE: u64 = 0;

    fn kernel_name(ablation: Ablation) -> &'static str {
        match (ablation.smbd, ablation.async_pipe) {
            (true, true) => "spinfer_spmm",
            (false, true) => "spinfer_spmm_no_smbd",
            (true, false) => "spinfer_spmm_no_asyncpipe",
            (false, false) => "spinfer_spmm_no_smbd_no_asyncpipe",
        }
    }

    fn tiles(w: &TcaBme) -> &TcaBme {
        w
    }

    fn validate(w: &TcaBme) -> Result<(), IntegrityError> {
        w.validate()
    }

    fn mma_pipe(c: &mut Counters) -> &mut u64 {
        &mut c.mma_insts
    }

    fn flip_bit(&mut self, byte: usize, bit: u32) {
        *self = Half::from_bits(flip_bit_u16(self.to_bits(), (byte as u32) * 8 + bit));
    }

    fn x_scale(_x: &DenseMatrix) -> f32 {
        1.0
    }

    fn fill_x_row(src: &[Half], dst: &mut [f32], _x_scale: f32) {
        f16_to_f32_slice(src, dst);
    }

    fn widen(self) -> f32 {
        self.to_f32()
    }

    /// A 16-byte load of eight halves, `pshufb` through a
    /// [`row_shuffle`](crate::smbd::row_shuffle) table of 2-byte lanes,
    /// `vcvtph2ps`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn expand_row(packed: &[Half; 8], byte: u8, dst: &mut [f32; 8]) {
        use std::arch::x86_64::{
            _mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128, _mm_shuffle_epi8,
        };
        static ROW_SHUFFLE: [[u8; 16]; 256] = row_shuffle::<2, 16>();
        let ctl = _mm_loadu_si128(ROW_SHUFFLE[usize::from(byte)].as_ptr().cast());
        let row = _mm_shuffle_epi8(_mm_loadu_si128(packed.as_ptr().cast()), ctl);
        _mm256_storeu_ps(dst.as_mut_ptr(), _mm256_cvtph_ps(row));
    }

    fn scan(rows: &[[f32; MMA_K]; MMA_M]) -> Result<(), DecodeFault> {
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            return Err(DecodeFault::NonFinite);
        }
        Ok(())
    }

    #[inline(always)]
    fn mma<C: Isa>(cap: C, a: &[[f32; MMA_K]; MMA_M], b: &[f32], ld: usize, accs: &mut [AccF32]) {
        mma_m16n8k16_bslice_body(cap, a, b, ld, accs);
    }

    fn accumulate(acc: &mut AccF32, tile: impl Fn(usize, usize) -> f32) {
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot += tile(r, c);
            }
        }
    }

    fn fold(
        _counters: &mut Counters,
        _w: &TcaBme,
        _gt: usize,
        _x_scale: f32,
        _accs: &mut [AccF32],
        _out: &mut [OutTile],
    ) {
    }

    fn finish(accs: &[AccF32], out: &mut [OutTile]) {
        out.copy_from_slice(accs);
    }
}

/// Grid coordinates of one block invocation: block row `gty`, N tile
/// starting at `n0`, GroupTile columns `gx0..gx1`.
pub(crate) struct BlockGrid {
    pub(crate) gty: usize,
    pub(crate) n0: usize,
    pub(crate) gx0: usize,
    pub(crate) gx1: usize,
}

/// Virtual-address bases shared by every block of a launch, and the
/// launch's X stream.
pub(crate) struct BlockBases {
    pub(crate) values: VAddr,
    pub(crate) bitmaps: VAddr,
    pub(crate) ws: VAddr,
    pub(crate) x_stream: XStreams,
}

/// Integrity state threaded into checked launches: pristine
/// per-GroupTile checksums plus the recovery policy.
pub(crate) struct CheckedState<'a> {
    pub(crate) checksums: &'a [u32],
    pub(crate) policy: FaultPolicy,
}

/// Reusable per-worker buffers for [`SpmmConfig::run_block`], hoisted
/// out of the launch's N/split loops so a worker allocates once and
/// every block invocation runs allocation-free: the per-warp
/// accumulators (flat, `warps × n8`) and their `f32` output bank, the
/// GroupTile shared-memory image under injection, and the per-TCTile
/// value-offset prefix (`tc_base[tc] = Σ popc64` of preceding bitmaps,
/// computed once per GroupTile instead of once per warp × TCTile). The
/// X operands are not here: the launch converts X once
/// ([`x_operands`]) and every block reads that buffer.
pub(crate) struct BlockScratch<P: Datapath> {
    accs: Vec<P::Acc>,
    out: Vec<OutTile>,
    bms_img: Vec<u64>,
    vals_img: Vec<P>,
    tc_base: Vec<usize>,
}

impl<P: Datapath> BlockScratch<P> {
    pub(crate) fn new() -> Self {
        BlockScratch {
            accs: Vec::new(),
            out: Vec::new(),
            bms_img: Vec::new(),
            vals_img: Vec::new(),
            tc_base: Vec::new(),
        }
    }
}

/// The launch's X as `mma` operands, converted once ([`Datapath::fill_x_row`]):
/// `k_pad` rows of `geo.x_ld()` operands, X's `K × N` in the top-left
/// corner and zero elsewhere, so the padding K rows and the columns past
/// N of the last N tile read zero, as the predicated fragment loads
/// produce. Every block of every worker reads it.
pub(crate) fn x_operands<P: Datapath>(
    x: &DenseMatrix,
    k_pad: usize,
    geo: &Geometry,
    x_scale: f32,
) -> Vec<P::Operand> {
    let (n, ld) = (x.cols(), geo.x_ld());
    let mut xb = vec![P::Operand::default(); k_pad * ld];
    for (dst, src) in xb.chunks_exact_mut(ld).zip(x.as_slice().chunks_exact(n)) {
        P::fill_x_row(src, &mut dst[..n], x_scale);
    }
    xb
}

impl SpmmConfig {
    /// One thread block's work at payload precision `P`: all GroupTiles
    /// in `at.gx0..at.gx1` for block row `at.gty` and N tile starting at
    /// `at.n0`.
    ///
    /// With `checked` absent this is the golden kernel (panic-on-contract
    /// semantics, no integrity work); with it, every hazard becomes a
    /// typed outcome — D1 checksum verification of the landed image with
    /// bounded re-streams, and checked SMBD decode surfacing offset
    /// overruns (D2) and, where the payload has one, the post-decode scan
    /// (D3) with bounded re-decodes. With `fault` absent (or unarmed) the
    /// counter stream and numerics are bit-identical to the golden path:
    /// the `_f` hooks collapse to the golden functions and no
    /// shared-memory image is materialised.
    ///
    /// `xb` is the launch's X operand buffer ([`x_operands`]).
    /// `workspace` is the block row's band of its split's workspace
    /// slice: `gt_rows × n_pad` values, indexed relative to the band.
    ///
    /// An entry point: the body is compiled twice, on [`Portable`], and
    /// on [`Simd`] inside one [`Simd::vectorize`] when the launch holds a
    /// `simd` token. On `Simd` the SMBD decode and the per-GroupTile
    /// prefix scan use hardware popcounts and set-bit sweeps, quadrant
    /// rows expand through `pshufb` (F16C for FP16, `vpmovsxbd` for
    /// INT8), and the `mma` runs its AVX2 body, all inlined into that
    /// one region. Both compute the same bits, pinned equal by this
    /// module's, `smbd`'s and `tensor_core`'s tests.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_block<P: Datapath>(
        &self,
        simd: Option<Simd>,
        w: &P::Container,
        xb: &[P::Operand],
        x_scale: f32,
        counters: &mut Counters,
        workspace: &mut [f32],
        scratch: &mut BlockScratch<P>,
        geo: &Geometry,
        at: &BlockGrid,
        bases: &BlockBases,
        checked: Option<&CheckedState<'_>>,
        fault: Option<&FaultInjector>,
        tracer: Option<&mut BlockTracer>,
    ) -> Result<(), KernelError> {
        match simd {
            Some(s) => s.vectorize(
                #[inline(always)]
                move || {
                    self.run_block_body(
                        s, w, xb, x_scale, counters, workspace, scratch, geo, at, bases, checked,
                        fault, tracer,
                    )
                },
            ),
            None => self.run_block_body(
                Portable, w, xb, x_scale, counters, workspace, scratch, geo, at, bases, checked,
                fault, tracer,
            ),
        }
    }

    /// The body of [`Self::run_block`], inlined into both of its copies
    /// with every `#[inline(always)]` helper it calls; `cap` picks the
    /// decode's row expansion and the `mma`'s MAC.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn run_block_body<P: Datapath, C: Isa>(
        &self,
        cap: C,
        w: &P::Container,
        xb: &[P::Operand],
        x_scale: f32,
        counters: &mut Counters,
        workspace: &mut [f32],
        scratch: &mut BlockScratch<P>,
        geo: &Geometry,
        at: &BlockGrid,
        bases: &BlockBases,
        checked: Option<&CheckedState<'_>>,
        fault: Option<&FaultInjector>,
        mut tracer: Option<&mut BlockTracer>,
    ) -> Result<(), KernelError> {
        let BlockGrid { gty, n0, gx0, gx1 } = *at;
        let t = P::tiles(w);
        let cfg = t.config;
        let tt_rows = cfg.tt_rows();
        let tt_cols = cfg.tt_cols();
        let n8 = geo.tile_n / 8;
        debug_assert!(
            fault.is_none() || checked.is_some(),
            "an injector is only ever threaded through a checked launch"
        );
        // Tracing only *reads* the counter stream (attribution-weight
        // checkpoints at phase boundaries, once per phase per GroupTile);
        // with `tracer` absent, no extra work runs.
        if let Some(tr) = tracer.as_deref_mut() {
            tr.sync(counters);
        }

        // Per-warp accumulators (warp = TCTile row strip) and their f32
        // output bank, flat `warps × n8` in the worker-scoped scratch —
        // reset here, but only (re)allocated on the first block a worker
        // runs.
        let BlockScratch {
            accs,
            out,
            bms_img,
            vals_img,
            tc_base,
        } = scratch;
        accs.clear();
        accs.resize(geo.warps * n8, P::ACC_ZERO);
        out.clear();
        out.resize(geo.warps * n8, [[0.0; MMA_N]; MMA_M]);

        // The decoded TCTile every decode overwrites and every mma reads.
        let mut a_rows: TcRows<P> = [[P::Operand::default(); MMA_K]; MMA_M];

        // Algorithm 1's cp.async discipline: two independent commit groups
        // per iteration (bitmap+sparse, then dense), retired in order with
        // wait_group(1) before SMBD and wait_group(0) before the Tensor
        // Core consumes the X fragments. Data moves eagerly in the
        // functional simulator; the tracker verifies the ordering.
        let mut cp_async = gpu_sim::async_copy::AsyncCopyState::new();
        for gtx in gx0..gx1 {
            let gt = t.gt_index(gty, gtx);
            let pristine_vals = t.gtile_values(gt);
            let pristine_bms = t.gtile_bitmaps(gt);
            let bm_addr = bases.bitmaps + (gt * cfg.bts_per_gt() * 8) as u64;
            let val_addr = bases.values + u64::from(t.gtile_offsets[gt]) * P::BYTES as u64;
            // Injection only matters for this tile when the plan is
            // armed and the tile filter admits it; otherwise the golden
            // path runs against the pristine slices directly.
            let inject = fault.filter(|i| i.plan().armed() && i.gtile_enabled(gt));

            // --- 1. GTile loading (bitmaps + values) via LDGSTS.128,
            //        fault-aware ---
            load_gtile_image(
                counters,
                inject,
                pristine_bms,
                pristine_vals,
                bm_addr,
                val_addr,
                bms_img,
                vals_img,
            );
            cp_async.issue();
            // Bitmap + sparse values group.
            apply_commit_fault(
                cp_async.commit_group_f(counters, inject, bm_addr),
                bms_img,
                vals_img,
                inject.is_some(),
            );
            if let Some(tr) = tracer.as_deref_mut() {
                tr.phase(TracePhase::StreamW, counters);
            }

            // --- 3. XTile loading (no integrity metadata; golden path),
            //        recorded once per launch ---
            counters.merge(bases.x_stream.at(n0, gtx));
            cp_async.issue();
            cp_async.commit_group(); // Dense XTile group.
                                     // SMBD may start once the sparse group lands (dense still in
                                     // flight) — Algorithm 1 line 24.
            let retired = cp_async.wait_group(1);
            debug_assert_eq!(retired, 1, "sparse group retires first");
            if let Some(tr) = tracer.as_deref_mut() {
                tr.phase(TracePhase::StreamX, counters);
            }

            // --- D1: checksum the landed image; retry from DRAM ---
            let mut verified = true;
            if let (Some(chk), Some(inj0)) = (checked, inject) {
                let expected = chk.checksums[gt];
                let mut attempt: u32 = 0;
                verified = loop {
                    attempt += 1;
                    if checksum_gtile(bms_img, vals_img) == expected {
                        if attempt > 1 {
                            counters.faults_recovered += 1;
                        }
                        break true;
                    }
                    counters.faults_detected += 1;
                    if attempt >= chk.policy.max_attempts {
                        break false;
                    }
                    // Synchronous re-stream of the GroupTile with a
                    // reseeded draw stream (a fresh DRAM transfer hits
                    // fresh fault sites, not the same ones again).
                    let inj_r = inj0.reseeded(u64::from(attempt));
                    load_gtile_image(
                        counters,
                        Some(&inj_r),
                        pristine_bms,
                        pristine_vals,
                        bm_addr,
                        val_addr,
                        bms_img,
                        vals_img,
                    );
                    cp_async.issue();
                    apply_commit_fault(
                        cp_async.commit_group_f(counters, Some(&inj_r), bm_addr),
                        bms_img,
                        vals_img,
                        true,
                    );
                    cp_async.wait_group(0);
                };
            }
            if !verified {
                let chk = checked.expect("D1 only fails inside a checked launch");
                if !chk.policy.fallback {
                    return Err(KernelError::RetryBudgetExhausted {
                        gt,
                        attempts: chk.policy.max_attempts,
                    });
                }
                // Reference product from the pristine encoding: slower,
                // but guaranteed correct — nothing from the corrupted
                // image reaches the accumulators.
                counters.fault_fallbacks += 1;
                let x_tile = &xb[gtx * cfg.gt_cols * geo.x_ld() + n0..];
                fallback_gtile_product::<P>(cfg, pristine_bms, pristine_vals, x_tile, geo, accs);
                cp_async.wait_group(0);
                counters.barriers += 1;
                P::fold(counters, w, gt, x_scale, accs, out);
                if let Some(tr) = tracer.as_deref_mut() {
                    // Keep the per-iteration span shape intact: the
                    // host-side fallback has no decode/mma events, so the
                    // residual (retry streams, barrier, fold) folds into
                    // mma.
                    tr.close_iteration(counters);
                }
                continue;
            }
            let (bms, vals): (&[u64], &[P]) = if inject.is_some() {
                (bms_img, vals_img)
            } else {
                (pristine_bms, pristine_vals)
            };

            // Per-TCTile base offsets into the value buffer: one prefix
            // scan per GroupTile, replacing the popcount sum every
            // warp × TCTile iteration used to recompute.
            tc_base.clear();
            let mut running = 0usize;
            for tc_bms in bms.chunks_exact(4) {
                tc_base.push(running);
                running += tc_bms.iter().map(|&b| popc64(b) as usize).sum::<usize>();
            }

            // --- 2. WTile decoding, 4./5. fragment loads + Tensor Cores
            //        (checked arms: D2, D3) ---
            // The golden path records the GroupTile's decodes here at
            // once; a checked decode records each of its attempts.
            if let Some(tr) = tracer.as_deref_mut() {
                tr.decode_begin(counters);
            }
            if checked.is_none() {
                record_decodes(counters, bms, self.ablation.smbd);
            }
            for warp in 0..geo.warps {
                let tty = warp % tt_rows;
                for ttx in 0..tt_cols {
                    let tc_idx = ttx * tt_rows + tty;
                    // Base offset: popcounts of preceding TCTiles,
                    // prefix-scanned once per GroupTile above.
                    let base = tc_base[tc_idx];
                    let tc_bms: [u64; 4] = bms[tc_idx * 4..tc_idx * 4 + 4].try_into().expect(
                        "TCTile bitmap slice must hold exactly 4 BitmapTiles: gtile_bitmaps \
                         returns bts_per_gt() words, a multiple of BTS_PER_TT = 4",
                    );
                    match checked {
                        None => {
                            decode_tctile_rows(cap, &tc_bms, vals, base, &mut a_rows);
                        }
                        Some(chk) => decode_tctile_checked(
                            cap,
                            counters,
                            DecodeSite {
                                gt,
                                tc_idx,
                                bm_addr,
                            },
                            &tc_bms,
                            vals,
                            base,
                            pristine_bms,
                            pristine_vals,
                            self.ablation.smbd,
                            inject,
                            chk,
                            &mut a_rows,
                        )?,
                    }
                    // The TCTile's 16 K rows of X, from column `n0`.
                    let k0 = gtx * cfg.gt_cols + ttx * TT_DIM;
                    mma_row::<P, C>(
                        cap,
                        &xb[k0 * geo.x_ld() + n0..],
                        geo,
                        &a_rows,
                        &mut accs[warp * n8..(warp + 1) * n8],
                    );
                }
            }
            if let Some(tr) = tracer.as_deref_mut() {
                tr.decode_end(counters);
            }
            record_mma::<P>(counters, (geo.warps * tt_cols) as u64, n8 as u64);
            // The dense group must land before its fragments feed the
            // Tensor Cores of the *next* mma wave — Algorithm 1 line 26.
            cp_async.wait_group(0);
            // Pipeline bookkeeping (barrier between iterations).
            counters.barriers += 1;
            // End-of-GroupTile fold (a no-op unless the payload scales
            // its accumulators per GroupTile).
            P::fold(counters, w, gt, x_scale, accs, out);
            if let Some(tr) = tracer.as_deref_mut() {
                // The mma, the iteration-end barrier and the fold weight
                // join the mma span (pipeline bookkeeping that gates the
                // next wave).
                tr.close_iteration(counters);
            }
        }
        cp_async.assert_drained();
        P::finish(accs, out);

        // --- Epilogue: store the f32 output bank to the reduction
        //     workspace ---
        for (warp, out_row) in out.chunks(n8).enumerate() {
            let tty = warp % tt_rows;
            for (j, tile) in out_row.iter().enumerate() {
                for (r, row) in tile.iter().enumerate() {
                    // Row within the band; the store addresses below
                    // stay global.
                    let br = tty * TT_DIM + r;
                    for (c, &v) in row.iter().enumerate() {
                        let gc = n0 + j * 8 + c;
                        if gc < geo.n_pad {
                            workspace[br * geo.n_pad + gc] += v;
                        }
                    }
                }
                // Two warp stores of 8 B (c0,c1 then c2,c3 pairs).
                for half in 0..2 {
                    let mut addrs = [None; 32];
                    for (lane, slot) in addrs.iter_mut().enumerate() {
                        let group = lane / 4;
                        let tid = lane % 4;
                        let gr = gty * cfg.gt_rows + tty * TT_DIM + group + 8 * half;
                        let gc = n0 + j * 8 + 2 * tid;
                        *slot = Some(bases.ws + (gr * geo.n_pad + gc) as u64 * 4);
                    }
                    warp_global_store(counters, &addrs, 8);
                }
            }
        }
        if let Some(tr) = tracer {
            tr.phase(TracePhase::Epilogue, counters);
        }
        Ok(())
    }
}

/// Checked SMBD decode of one TCTile with bounded re-decodes (D2, and
/// D3 through [`Datapath::scan`]) and the pristine re-decode fallback,
/// each attempt recording its own decode (with the register decode
/// when `smbd` is off). With `inject` absent the checked decode records
/// the golden counter stream and succeeds on the first attempt. The
/// decoded tile lands in `rows`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn decode_tctile_checked<P: Datapath, C: Isa>(
    cap: C,
    counters: &mut Counters,
    site: DecodeSite,
    tc_bms: &[u64; 4],
    vals: &[P],
    base: usize,
    pristine_bms: &[u64],
    pristine_vals: &[P],
    smbd: bool,
    inject: Option<&FaultInjector>,
    chk: &CheckedState<'_>,
    rows: &mut TcRows<P>,
) -> Result<(), KernelError> {
    // Distinct per TCTile: BitmapTiles are 8 B apart and a TCTile
    // owns four of them.
    let site_key = site.bm_addr + (site.tc_idx * 32) as u64;
    let mut last_fault: Option<DecodeFault> = None;
    let mut att: u32 = 0;
    while att < chk.policy.max_attempts {
        let inj_a = inject.map(|i| {
            if att == 0 {
                *i
            } else {
                i.reseeded(0x0de0_0000 | u64::from(att))
            }
        });
        let attempt = decode_tctile_rows_f(
            cap,
            counters,
            tc_bms,
            vals,
            base,
            smbd,
            inj_a.as_ref(),
            site_key,
            rows,
        )
        .and_then(|_| P::scan(rows));
        att += 1;
        match attempt {
            Ok(()) => {
                if att > 1 {
                    counters.faults_recovered += 1;
                }
                return Ok(());
            }
            Err(f) => {
                counters.faults_detected += 1;
                last_fault = Some(f);
            }
        }
    }
    if !chk.policy.fallback {
        return Err(match last_fault {
            Some(DecodeFault::Overrun { needed, available }) => KernelError::DecodeOverrun {
                gt: site.gt,
                needed,
                available,
            },
            Some(DecodeFault::NonFinite) => KernelError::NonFiniteDecode { gt: site.gt },
            None => KernelError::RetryBudgetExhausted {
                gt: site.gt,
                attempts: chk.policy.max_attempts,
            },
        });
    }
    // Pristine re-decode: the validated encoding cannot overrun and
    // weights are finite by contract.
    counters.fault_fallbacks += 1;
    let pbase: usize = pristine_bms[..site.tc_idx * 4]
        .iter()
        .map(|&b| popc64(b) as usize)
        .sum();
    let pbms: [u64; 4] = pristine_bms[site.tc_idx * 4..site.tc_idx * 4 + 4]
        .try_into()
        .expect("pristine bitmaps carry 4 BitmapTiles per TCTile");
    decode_tctile_rows(cap, &pbms, pristine_vals, pbase, rows);
    record_decodes(counters, &pbms, smbd);
    Ok(())
}

/// Tensor Core computation for one decoded TCTile against every n8
/// column of the block's X tile, recording nothing ([`record_mma`]).
/// `x_tile` starts at the TCTile's first K row and the block's first
/// column in the launch's X operands ([`x_operands`], leading dimension
/// `geo.x_ld()`); `a_rows` is the TCTile's decode-once A view. The N
/// loop is amortized: one batched sweep ([`Datapath::mma`]) carries
/// each A row across all adjacent accumulator tiles at once.
#[inline(always)]
fn mma_row<P: Datapath, C: Isa>(
    cap: C,
    x_tile: &[P::Operand],
    geo: &Geometry,
    a_rows: &TcRows<P>,
    accs: &mut [P::Acc],
) {
    for (jc, chunk) in accs.chunks_mut(MAX_NTILES).enumerate() {
        let b = &x_tile[jc * MAX_NTILES * 8..];
        P::mma(cap, a_rows, b, geo.x_ld(), chunk);
    }
}

/// Records the fragment loads and Tensor Core work of `tctiles`
/// TCTiles, each against `n8` 8-column X tiles: one `ldmatrix.x4` per
/// two B fragments (16×16 of X), read as conflict-free row-major X tile
/// rows (16 B rows), and one `mma` per X tile on the payload's pipe.
fn record_mma<P: Datapath>(counters: &mut Counters, tctiles: u64, n8: u64) {
    warp_ldsm_x4_rows(counters, tctiles * n8.div_ceil(2));
    *P::mma_pipe(counters) += tctiles * n8;
    counters.insts_issued += tctiles * n8;
}

/// Identifies one TCTile decode site for fault keying and error reports.
struct DecodeSite {
    gt: usize,
    tc_idx: usize,
    bm_addr: VAddr,
}

/// Streams `bytes` from `base` as LDGSTS.128 warp instructions, recording
/// coalesced traffic.
fn record_ldgsts_stream(counters: &mut Counters, base: VAddr, bytes: u64) {
    record_ldgsts_stream_f(counters, base, bytes, None, &mut |_, _| {});
}

/// [`record_ldgsts_stream`] with a fault hook: when the injector strikes
/// a warp access, `on_flip(stream_byte, bit_in_byte)` reports which byte
/// of the streamed payload took the hit. With `fault` absent the counter
/// stream is bit-identical to the golden recorder.
fn record_ldgsts_stream_f(
    counters: &mut Counters,
    base: VAddr,
    bytes: u64,
    fault: Option<&FaultInjector>,
    on_flip: &mut dyn FnMut(u64, u32),
) {
    let mut off = 0u64;
    while off < bytes {
        // One warp chunk: up to 32 lanes of 16 B, contiguous from lane 0
        // (the last lane of a ragged tail still copies a full 16 B).
        let lanes = (bytes - off).div_ceil(16).min(32) as u32;
        if let Some(hit) = warp_ldgsts_runs(counters, &[(base + off, lanes)], 16, fault) {
            on_flip(
                off + hit.lane_sel as u64 * 16 + u64::from(hit.bit / 8),
                hit.bit % 8,
            );
        }
        // LDGSTS writes shared memory directly (conflict-free stream).
        counters.smem_store_transactions += (bytes - off).min(512).div_ceil(128);
        off += 512;
    }
}

/// Streams one GroupTile column's X tile (FP16 rows of `tile_n`
/// elements) into shared memory. Both payloads read FP16 activations
/// from global memory; [`Datapath::fill_x_row`] converts after the load.
fn stream_x_tile(
    counters: &mut Counters,
    x_base: VAddr,
    gtx: usize,
    gt_cols: usize,
    geo: &Geometry,
    n0: usize,
) {
    let row_bytes = (geo.tile_n * 2) as u64;
    let row_lanes = row_bytes.div_ceil(16) as u32;
    for kr in (0..gt_cols).step_by(4) {
        // Four X rows per group (4 lanes × 16 B each when tile_n = 32),
        // one run per row. Lanes fill row by row, 32 per warp
        // instruction: past tile_n = 64 the rows overflow into further
        // instructions, each picking up where the last one stopped.
        let mut runs = [(0, 0); 4];
        let (mut used, mut free) = (0, 32u32);
        for dr in 0..4 {
            let krow = gtx * gt_cols + kr + dr;
            let mut addr = x_base + (krow * geo.n_pad + n0) as u64 * 2;
            let mut left = row_lanes;
            while left > 0 {
                let lanes = left.min(free);
                runs[used] = (addr, lanes);
                used += 1;
                addr += u64::from(lanes) * 16;
                left -= lanes;
                free -= lanes;
                if free == 0 {
                    warp_ldgsts_runs(counters, &runs[..used], 16, None);
                    (used, free) = (0, 32);
                }
            }
        }
        if used > 0 {
            warp_ldgsts_runs(counters, &runs[..used], 16, None);
        }
        // LDGSTS writes shared memory directly; conflict-free rows.
        counters.smem_store_transactions += (4 * row_bytes).div_ceil(128);
    }
}

/// A launch's X stream, recorded once: the counters [`stream_x_tile`]
/// records for each (N tile, GroupTile column). Every block row streams
/// the same X tiles, so a block adds the entry of each GroupTile column
/// it visits instead of recording the stream again.
pub(crate) struct XStreams {
    /// Entry `nt · gtiles_x + gtx`, N tile major.
    per_tile: Vec<Counters>,
    gtiles_x: usize,
    tile_n: usize,
}

impl XStreams {
    pub(crate) fn new(x_base: VAddr, gtiles_x: usize, gt_cols: usize, geo: &Geometry) -> Self {
        let per_tile = (0..geo.grid_x * gtiles_x)
            .map(|i| {
                let mut c = Counters::new();
                let (nt, gtx) = (i / gtiles_x, i % gtiles_x);
                stream_x_tile(&mut c, x_base, gtx, gt_cols, geo, nt * geo.tile_n);
                c
            })
            .collect();
        XStreams {
            per_tile,
            gtiles_x,
            tile_n: geo.tile_n,
        }
    }

    /// What the block whose N tile starts at column `n0` records for
    /// GroupTile column `gtx`.
    pub(crate) fn at(&self, n0: usize, gtx: usize) -> &Counters {
        &self.per_tile[n0 / self.tile_n * self.gtiles_x + gtx]
    }

    /// DRAM bytes the X streams of a launch request, for
    /// `L2Reuse::requested_bytes`: every one of the `gtiles_y` block rows
    /// streams every GroupTile column of every N tile once, whatever its
    /// split, fault outcome or fallback.
    pub(crate) fn requested_bytes(&self, gtiles_y: usize) -> u64 {
        gtiles_y as u64 * self.per_tile.iter().map(|c| c.dram_read_bytes).sum::<u64>()
    }
}

/// Loads one GroupTile's bitmaps and values as LDGSTS streams into the
/// caller's shared-memory image, applying any injected load bit flips.
/// With `inject` absent no image is materialised (the buffers are
/// cleared) and only the golden counter stream is recorded.
#[allow(clippy::too_many_arguments)]
fn load_gtile_image<P: Datapath>(
    counters: &mut Counters,
    inject: Option<&FaultInjector>,
    pristine_bms: &[u64],
    pristine_vals: &[P],
    bm_addr: VAddr,
    val_addr: VAddr,
    bms_img: &mut Vec<u64>,
    vals_img: &mut Vec<P>,
) {
    let bm_bytes = (pristine_bms.len() * 8) as u64;
    let val_bytes = (pristine_vals.len() * P::BYTES) as u64;
    bms_img.clear();
    vals_img.clear();
    if inject.is_none() {
        record_ldgsts_stream(counters, bm_addr, bm_bytes);
        record_ldgsts_stream(counters, val_addr, val_bytes);
        return;
    }
    bms_img.extend_from_slice(pristine_bms);
    vals_img.extend_from_slice(pristine_vals);
    record_ldgsts_stream_f(counters, bm_addr, bm_bytes, inject, &mut |byte, bit| {
        // A flip can land in the tail padding of the last 16 B lane;
        // only bytes inside the payload reach the image.
        let b = byte as usize;
        if b < bms_img.len() * 8 {
            let word = b / 8;
            bms_img[word] = flip_bit_u64(bms_img[word], ((b % 8) as u32) * 8 + bit);
        }
    });
    record_ldgsts_stream_f(counters, val_addr, val_bytes, inject, &mut |byte, bit| {
        let b = byte as usize;
        if b < vals_img.len() * P::BYTES {
            vals_img[b / P::BYTES].flip_bit(b % P::BYTES, bit);
        }
    });
}

/// Applies a `cp.async` commit outcome to the GroupTile image. A
/// corrupt commit flips one byte of the landed payload; a dropped
/// commit leaves the (zero-initialised) destination stale.
fn apply_commit_fault<P: Datapath>(
    outcome: CommitFault,
    bms_img: &mut [u64],
    vals_img: &mut [P],
    armed: bool,
) {
    if !armed {
        return;
    }
    let bm_bytes = bms_img.len() * 8;
    let total = bm_bytes + vals_img.len() * P::BYTES;
    match outcome {
        CommitFault::None => {}
        CommitFault::Corrupt { byte_sel, bit } => {
            if total > 0 {
                let b = (byte_sel % total as u64) as usize;
                if b < bm_bytes {
                    let word = b / 8;
                    bms_img[word] = flip_bit_u64(bms_img[word], ((b % 8) as u32) * 8 + bit);
                } else {
                    let v = b - bm_bytes;
                    vals_img[v / P::BYTES].flip_bit(v % P::BYTES, bit);
                }
            }
        }
        CommitFault::Dropped => {
            bms_img.iter_mut().for_each(|w| *w = 0);
            vals_img.iter_mut().for_each(|v| *v = P::ZERO);
        }
    }
}

/// Reference scalar product of one GroupTile from its pristine
/// encoding, accumulated into the block's accumulators — the
/// guaranteed-correct slow path taken when the retry budget is
/// exhausted. Walks the bitmaps in packed-value order, so it touches
/// exactly the encoded non-zeros. `x_tile` starts at the GroupTile's
/// first K row and the block's first column in the launch's X operands
/// (leading dimension `geo.x_ld()`). The caller folds the result like
/// any other GroupTile, so the fallback is exact.
fn fallback_gtile_product<P: Datapath>(
    cfg: TcaBmeConfig,
    bms: &[u64],
    vals: &[P],
    x_tile: &[P::Operand],
    geo: &Geometry,
    accs: &mut [P::Acc],
) {
    let (tile_n, ld) = (geo.tile_n, geo.x_ld());
    let n8 = tile_n / 8;
    let mut contrib = vec![P::Operand::default(); cfg.gt_rows * tile_n];
    let mut vi = 0usize;
    for (bi, &bm) in bms.iter().enumerate() {
        let tc_idx = bi / 4;
        // Quadrant order within a TCTile: TL, BL, TR, BR (column-major
        // 8×8 blocks).
        let (qr, qc) = QUAD_ORIGINS[bi % 4];
        let ttx = tc_idx / cfg.tt_rows();
        let tty = tc_idx % cfg.tt_rows();
        for bit in 0..64 {
            if (bm >> bit) & 1 == 1 {
                let v = vals[vi].widen();
                vi += 1;
                let lr = tty * TT_DIM + qr + bit / 8;
                let lc = ttx * TT_DIM + qc + bit % 8;
                let xrow = &x_tile[lc * ld..][..tile_n];
                let dst = &mut contrib[lr * tile_n..(lr + 1) * tile_n];
                for (d, &xv) in dst.iter_mut().zip(xrow) {
                    *d += v * xv;
                }
            }
        }
    }
    for (warp, acc_row) in accs.chunks_mut(n8).enumerate() {
        let tty = warp % cfg.tt_rows();
        for (j, acc) in acc_row.iter_mut().enumerate() {
            P::accumulate(acc, |r, c| contrib[(tty * TT_DIM + r) * tile_n + j * 8 + c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::FormatStats;
    use gpu_sim::fault::FaultPlan;
    use gpu_sim::global::sectors_touched;
    use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
    use gpu_sim::occupancy::BlockResources;
    use gpu_sim::spec::GpuSpec;
    use proptest::prelude::*;

    /// A launch geometry with only the X-stream fields set.
    fn x_geometry(tile_n: usize, n_pad: usize) -> Geometry {
        Geometry {
            tile_n,
            n_pad,
            grid_x: n_pad.div_ceil(tile_n),
            split_k: 1,
            gtx_per_split: 1,
            grid_blocks: 1,
            warps: 1,
            block: BlockResources {
                threads: 32,
                regs_per_thread: 32,
                smem_bytes: 0,
            },
            iters_per_block: 1.0,
        }
    }

    /// The X stream as per-lane address arrays: each group of four rows
    /// lists every lane's 16 B address row by row, and warp
    /// instructions take them 32 at a time, sectors counted by
    /// [`sectors_touched`]. The oracle [`stream_x_tile`] is pinned to.
    fn x_stream_by_lanes(
        x_base: VAddr,
        gtx: usize,
        gt_cols: usize,
        geo: &Geometry,
        n0: usize,
    ) -> Counters {
        let mut c = Counters::new();
        for kr in (0..gt_cols).step_by(4) {
            let lanes: Vec<Option<VAddr>> = (0..4)
                .flat_map(|dr| {
                    let krow = gtx * gt_cols + kr + dr;
                    let base = x_base + (krow * geo.n_pad + n0) as u64 * 2;
                    (0..geo.tile_n as u64 * 2 / 16).map(move |l| Some(base + l * 16))
                })
                .collect();
            for warp in lanes.chunks(32) {
                c.dram_read_bytes += sectors_touched(warp, 16) * 32;
                c.useful_read_bytes += warp.len() as u64 * 16;
                c.ldgsts_insts += 1;
                c.insts_issued += 1;
            }
        }
        c
    }

    /// Streams one GroupTile column's X tile and returns its counters,
    /// less the shared-memory stores (the oracle models the loads).
    fn x_stream(x_base: VAddr, gtx: usize, gt_cols: usize, geo: &Geometry, n0: usize) -> Counters {
        let mut c = Counters::new();
        stream_x_tile(&mut c, x_base, gtx, gt_cols, geo, n0);
        c.smem_store_transactions = 0;
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The X stream's run formula records the per-lane analysis'
        /// counters over tile widths 8..=128, padded row pitches and N
        /// offsets; at `tile_n = 8` adjacent 16 B rows share sectors.
        #[test]
        fn x_stream_matches_per_lane_analysis(
            tile_n8 in 1usize..=16,
            pad8 in 0usize..=16,
            nt in 0usize..4,
            gtx in 0usize..4,
            gt_cols in prop::sample::select(vec![16usize, 32, 64]),
            x_base256 in 0u64..64,
        ) {
            let tile_n = 8 * tile_n8;
            let n_pad = tile_n + 8 * pad8;
            let geo = x_geometry(tile_n, n_pad);
            let n0 = (nt % geo.grid_x) * tile_n;
            let x_base = 0x1000_0000 + 256 * x_base256;
            prop_assert_eq!(
                x_stream(x_base, gtx, gt_cols, &geo, n0),
                x_stream_by_lanes(x_base, gtx, gt_cols, &geo, n0)
            );
        }

        /// The launch's X request formula equals the DRAM bytes every
        /// block's X stream records, summed over the whole grid: block
        /// rows, N tiles, and each split's GroupTile columns, over tile
        /// widths 8..=128, ragged row pitches and split-K 1..=4.
        #[test]
        fn x_request_formula_matches_the_summed_block_streams(
            tile_n8 in 1usize..=16,
            pad8 in 0usize..=40,
            split_k in 1usize..=4,
            gtiles_x in 1usize..=9,
            gtiles_y in 1usize..=3,
            gt_cols in prop::sample::select(vec![16usize, 32, 64]),
        ) {
            let tile_n = 8 * tile_n8;
            let n_pad = tile_n + 8 * pad8;
            let geo = Geometry {
                split_k,
                gtx_per_split: gtiles_x.div_ceil(split_k),
                ..x_geometry(tile_n, n_pad)
            };
            let x_base = 0x3000_0000;
            let mut summed = 0;
            for _gty in 0..gtiles_y {
                for nt in 0..geo.grid_x {
                    for split in 0..geo.split_k {
                        let gx0 = split * geo.gtx_per_split;
                        for gtx in gx0..(gx0 + geo.gtx_per_split).min(gtiles_x) {
                            let n0 = nt * geo.tile_n;
                            summed += x_stream(x_base, gtx, gt_cols, &geo, n0).dram_read_bytes;
                        }
                    }
                }
            }
            prop_assert_eq!(
                XStreams::new(x_base, gtiles_x, gt_cols, &geo).requested_bytes(gtiles_y),
                summed
            );
        }

        /// The X-stream table hands the block at each N tile, for each
        /// GroupTile column, the counters its X stream records there,
        /// over tile widths 8..=128 (where N tiles start at different
        /// sector offsets), ragged row pitches and several N tiles.
        #[test]
        fn x_stream_table_holds_each_blocks_stream(
            tile_n8 in 1usize..=16,
            pad8 in 0usize..=40,
            gtiles_x in 1usize..=5,
            gt_cols in prop::sample::select(vec![16usize, 32, 64]),
            x_base16 in 0u64..64,
        ) {
            let tile_n = 8 * tile_n8;
            let geo = x_geometry(tile_n, tile_n + 8 * pad8);
            let x_base = 0x3000_0000 + 16 * x_base16;
            let table = XStreams::new(x_base, gtiles_x, gt_cols, &geo);
            for n0 in (0..geo.grid_x).map(|nt| nt * tile_n) {
                for gtx in 0..gtiles_x {
                    let mut c = Counters::new();
                    stream_x_tile(&mut c, x_base, gtx, gt_cols, &geo, n0);
                    prop_assert_eq!(table.at(n0, gtx), &c);
                }
            }
        }
    }

    /// At `tile_n = 8` with no padding the four 16 B rows of a warp are
    /// one contiguous 64 B run: two sectors, each shared by two rows.
    #[test]
    fn x_stream_rows_share_boundary_sectors_at_tile_n_8() {
        let geo = x_geometry(8, 8);
        for x_base in [0x1000_0000, 0x1000_0010] {
            let c = x_stream(x_base, 0, 4, &geo, 0);
            assert_eq!(c, x_stream_by_lanes(x_base, 0, 4, &geo, 0));
            assert_eq!(c.dram_read_bytes, if x_base % 32 == 0 { 64 } else { 96 });
            assert_eq!(c.useful_read_bytes, 64);
        }
    }

    /// At N = 128 a four-row X group needs 64 lanes, two warp
    /// instructions. Against N = 64 (same weights, same one N tile and
    /// split) the launch must stream twice the X bytes with one more
    /// LDGSTS per four rows; the W stream is identical.
    #[test]
    fn x_stream_loads_every_row_at_n_128() {
        let spec = GpuSpec::rtx4090();
        let (m, k) = (128, 256);
        let enc = TcaBme::encode(&random_sparse(m, k, 0.6, ValueDist::Uniform, 44));
        let run = |n| {
            let x = random_dense(k, n, ValueDist::Uniform, 45);
            crate::SpinferSpmm::new()
                .run(&spec, &enc, &x)
                .chain
                .launches[0]
                .counters
                .clone()
        };
        let (c64, c128) = (run(64), run(128));
        let x_rows = (enc.gtiles_y() * enc.k_pad) as u64;
        assert_eq!(c128.useful_read_bytes - c64.useful_read_bytes, x_rows * 128);
        assert_eq!(c128.ldgsts_insts - c64.ldgsts_insts, x_rows / 4);
    }

    /// Every block of one launch through [`run_block`] on `simd` (the
    /// portable body with `None`): workspace bits, the counters, and each
    /// block's outcome. `fault` runs a checked launch under that
    /// injector.
    ///
    /// [`run_block`]: SpmmConfig::run_block
    fn all_blocks<P: Datapath>(
        w: &P::Container,
        x: &DenseMatrix,
        fault: Option<&FaultInjector>,
        simd: Option<Simd>,
    ) -> (Vec<u32>, Counters, Vec<Result<(), KernelError>>) {
        let cfg = SpmmConfig::default();
        let t = P::tiles(w);
        let geo = cfg.geometry::<P>(&GpuSpec::rtx4090(), &FormatStats::from_encoded(t), x.cols());
        let checksums = t.gtile_checksums();
        let checked = fault.map(|_| CheckedState {
            checksums: &checksums,
            policy: FaultPolicy::default(),
        });
        let bases = BlockBases {
            values: 0x1000_0000,
            bitmaps: 0x2000_0000,
            ws: 0x4000_0000,
            x_stream: XStreams::new(0x3000_0000, t.gtiles_x(), t.config.gt_cols, &geo),
        };
        let slice_len = t.m_pad * geo.n_pad;
        let band_len = t.config.gt_rows * geo.n_pad;
        let mut ws = vec![0.0f32; geo.split_k * slice_len];
        let x_scale = P::x_scale(x);
        let xb = x_operands::<P>(x, t.k_pad, &geo, x_scale);
        let mut c = Counters::new();
        let mut scratch = BlockScratch::<P>::new();
        let mut outcomes = Vec::new();
        for gty in 0..t.gtiles_y() {
            for nt in 0..geo.grid_x {
                for split in 0..geo.split_k {
                    let gx0 = split * geo.gtx_per_split;
                    let at = BlockGrid {
                        gty,
                        n0: nt * geo.tile_n,
                        gx0,
                        gx1: (gx0 + geo.gtx_per_split).min(t.gtiles_x()),
                    };
                    let band = &mut ws[split * slice_len + gty * band_len..][..band_len];
                    outcomes.push(cfg.run_block(
                        simd,
                        w,
                        &xb,
                        x_scale,
                        &mut c,
                        band,
                        &mut scratch,
                        &geo,
                        &at,
                        &bases,
                        checked.as_ref(),
                        fault,
                        None,
                    ));
                }
            }
        }
        (ws.iter().map(|v| v.to_bits()).collect(), c, outcomes)
    }

    /// The portable body (set-bit walk and portable MAC) is the only one
    /// hosts without the [`Simd`] features run, so it is pinned to the
    /// dispatched body — on such hosts the same body twice — on FP16 and
    /// INT8, golden and under an armed injector: output bits, full
    /// counters (fault tallies included) and every block's outcome.
    #[test]
    fn portable_body_matches_dispatched_body() {
        let w = random_sparse(96, 160, 0.6, ValueDist::Uniform, 41);
        let x = random_dense(160, 24, ValueDist::Uniform, 42);
        let enc = TcaBme::encode(&w);
        let enc8 = enc.quantize_int8();
        let inj = FaultInjector::new(FaultPlan::uniform(43, 0.05));
        for fault in [None, Some(&inj)] {
            let fp16 = all_blocks::<Half>(&enc, &x, fault, Simd::detect());
            assert_eq!(fp16, all_blocks::<Half>(&enc, &x, fault, None));
            let int8 = all_blocks::<i8>(&enc8, &x, fault, Simd::detect());
            assert_eq!(int8, all_blocks::<i8>(&enc8, &x, fault, None));
            if fault.is_some() {
                assert!(fp16.1.faults_injected > 0 && int8.1.faults_injected > 0);
                assert!(fp16.1.faults_detected > 0 && int8.1.faults_detected > 0);
            }
        }
    }
}
