//! The INT8 SpInfer-SpMM kernel: the quantized-precision sibling of the
//! FP16 kernel, running on the same TCA-BME structure.
//!
//! There is no separate INT8 datapath: `SpinferSpmmInt8` runs the one
//! SpInfer launch body and block routine (GTile streaming, SMBD decode,
//! `ldmatrix` X fragments, Tensor Core mma, split-K reduction) at
//! payload `i8`. This module holds the INT8 [`Datapath`] hooks — the
//! only places the precisions differ:
//!
//! 1. **Stored values are `i8` codes** (half the value traffic), decoded
//!    by the *same* SMBD implementation at the 1-byte element width and
//!    widened to `i32` operand rows; fault images flip a single byte.
//! 2. **Activations are quantized** to codes once per X tile against one
//!    global scale per launch (`max|x| / 127`, order-independent and
//!    therefore job-count invariant).
//! 3. **The mma work runs on the integer pipe**
//!    ([`mma_m16n8k16_s8_body`], `mma.m16n8k16.s8.s8.s32`): exact
//!    `i32` accumulation, priced at twice the FP16 Tensor Core
//!    throughput by the timing model. Like FP16, the MAC and the SMBD
//!    row expansion run their AVX2 bodies on the block's `Simd`
//!    capability.
//! 4. **A scale fold** at each GroupTile-column boundary moves the `i32`
//!    accumulators into the `f32` output bank with
//!    `scale_w[gt] × scale_x` (per-GroupTile symmetric weight scales from
//!    the container).
//!
//! Everything else is shared with FP16: checked launches validate the
//! container (including scales) and run the D1 checksum retry loop over
//! the landed `i8` image; decode overruns (D2) retry and fall back; the
//! ablation switches, trace spans and split-K behave identically. The
//! D3 scan has no integer analogue — injected poison lands as a
//! plausible code, detectable by D1 but not by any per-value scan (the
//! detector-coverage gap documented in DESIGN.md §14).

use crate::error::{IntegrityError, SpinferError};
#[cfg(target_arch = "x86_64")]
use crate::smbd::row_shuffle;
use crate::smbd::DecodeFault;
use crate::tca_bme::{TcaBme, TcaBmeInt8, TcaBmeOf};
use gpu_sim::counters::Counters;
use gpu_sim::cpu::Isa;
use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;
use gpu_sim::tensor_core::{mma_m16n8k16_s8_body, AccS8, MMA_K, MMA_M, MMA_N};

use super::block::OutTile;
use super::{Ablation, Datapath, FormatStats, LaunchCtx, SpmmConfig, SpmmKernel, SpmmRun};

/// The INT8 SpInfer-SpMM kernel (registry name `"SpInfer-INT8"`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpinferSpmmInt8 {
    /// Kernel configuration, shared in shape and meaning with the FP16
    /// kernel: split-K and the ablation switches both apply (both
    /// precisions run the same launch body).
    pub config: SpmmConfig,
}

impl SpinferSpmmInt8 {
    /// Creates a kernel with the default configuration.
    pub fn new() -> Self {
        SpinferSpmmInt8::default()
    }

    /// Analytic timing estimate from format statistics — the shared
    /// estimator body at the INT8 precision: half the stored value
    /// traffic, `mma.s8` work, plus the scale-fold FP instructions.
    pub fn estimate(&self, spec: &GpuSpec, stats: &FormatStats, n: usize) -> SpmmRun {
        self.config.estimate::<i8>(spec, stats, n)
    }

    /// Functional execution against a pre-quantized container.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != w.tiles.k`.
    pub fn run(&self, spec: &GpuSpec, w: &TcaBmeInt8, x: &DenseMatrix) -> SpmmRun {
        assert_eq!(x.rows(), w.tiles.k, "X must be K×N");
        self.launch(&LaunchCtx::new(spec), w, x)
            .expect("golden-path launch is infallible once dimensions are checked")
    }
}

impl SpmmKernel for SpinferSpmmInt8 {
    type Encoded = TcaBmeInt8;

    fn name(&self) -> &'static str {
        "SpInfer-INT8"
    }

    fn format_key(&self) -> &'static str {
        "tca-bme-int8"
    }

    fn encode(&self, w: &DenseMatrix) -> TcaBmeInt8 {
        TcaBme::encode(w).quantize_int8()
    }

    fn validate(&self, enc: &TcaBmeInt8) -> Result<(), SpinferError> {
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
        enc: &TcaBmeInt8,
        x: &DenseMatrix,
    ) -> Result<SpmmRun, SpinferError> {
        self.config.launch::<i8>(ctx, enc, x)
    }
}

/// INT8: `i8` codes widened to `i32`, activations quantized against the
/// launch-global scale, exact `mma.s8`, no D3 scan, and a per-GroupTile
/// scale fold into the `f32` bank.
impl Datapath for i8 {
    type Container = TcaBmeInt8;
    type Operand = i32;
    type Acc = AccS8;
    const ACC_ZERO: AccS8 = [[0; MMA_N]; MMA_M];
    /// Convert + FMA of a 16×8 tile: 128 lanes / 32 = 4 warp-wide FP
    /// instructions.
    const FOLD_INSTS_PER_TILE: u64 = 4;

    fn kernel_name(_ablation: Ablation) -> &'static str {
        "spinfer_spmm_int8"
    }

    fn tiles(w: &TcaBmeInt8) -> &TcaBmeOf<i8> {
        &w.tiles
    }

    fn validate(w: &TcaBmeInt8) -> Result<(), IntegrityError> {
        w.validate()
    }

    fn mma_pipe(c: &mut Counters) -> &mut u64 {
        &mut c.mma_s8_insts
    }

    fn flip_bit(&mut self, _byte: usize, bit: u32) {
        *self = (*self as u8 ^ (1u8 << (bit % 8))) as i8;
    }

    /// A commutative max reduction, so the same at any job count or
    /// visit order; all-zero activations fall back to 1.0.
    fn x_scale(x: &DenseMatrix) -> f32 {
        let x_max = x
            .as_slice()
            .iter()
            .map(|h| h.to_f32().abs())
            .fold(0.0f32, f32::max);
        if x_max > 0.0 {
            x_max / 127.0
        } else {
            1.0
        }
    }

    /// Symmetric quantization, clamped to ±127. Pure per element, so
    /// visit order and job count cannot change the result.
    fn fill_x_row(src: &[Half], dst: &mut [i32], x_scale: f32) {
        for (d, h) in dst.iter_mut().zip(src) {
            *d = (h.to_f32() / x_scale).round().clamp(-127.0, 127.0) as i32;
        }
    }

    fn widen(self) -> i32 {
        i32::from(self)
    }

    /// An 8-byte load of eight codes, `pshufb` through a
    /// [`row_shuffle`](crate::smbd::row_shuffle) table of 1-byte lanes,
    /// `vpmovsxbd`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn expand_row(packed: &[i8; 8], byte: u8, dst: &mut [i32; 8]) {
        use std::arch::x86_64::{
            _mm256_cvtepi8_epi32, _mm256_storeu_si256, _mm_loadl_epi64, _mm_shuffle_epi8,
        };
        static CODE_SHUFFLE: [[u8; 8]; 256] = row_shuffle::<1, 8>();
        let ctl = _mm_loadl_epi64(CODE_SHUFFLE[usize::from(byte)].as_ptr().cast());
        let row = _mm_shuffle_epi8(_mm_loadl_epi64(packed.as_ptr().cast()), ctl);
        _mm256_storeu_si256(dst.as_mut_ptr().cast(), _mm256_cvtepi8_epi32(row));
    }

    /// Every `i8` bit pattern is a plausible code: nothing to scan (the
    /// documented D3 gap).
    fn scan(_rows: &[[i32; MMA_K]; MMA_M]) -> Result<(), DecodeFault> {
        Ok(())
    }

    #[inline(always)]
    fn mma<C: Isa>(
        cap: C,
        counters: &mut Counters,
        a: &[[i32; MMA_K]; MMA_M],
        b: &[i32],
        ld: usize,
        accs: &mut [AccS8],
    ) {
        mma_m16n8k16_s8_body(cap, counters, a, b, ld, accs);
    }

    fn accumulate(acc: &mut AccS8, tile: impl Fn(usize, usize) -> i32) {
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot += tile(r, c);
            }
        }
    }

    /// Folds one GroupTile column's exact `i32` sums into the `f32` bank
    /// with `scale_w[gt] × scale_x`, resetting the integer bank.
    fn fold(
        counters: &mut Counters,
        w: &TcaBmeInt8,
        gt: usize,
        x_scale: f32,
        accs: &mut [AccS8],
        out: &mut [OutTile],
    ) {
        let factor = w.scales[gt] * x_scale;
        for (ai, af) in accs.iter_mut().zip(out.iter_mut()) {
            for (ri, rf) in ai.iter_mut().zip(af.iter_mut()) {
                for (vi, vf) in ri.iter_mut().zip(rf.iter_mut()) {
                    *vf += *vi as f32 * factor;
                    *vi = 0;
                }
            }
        }
        let insts = accs.len() as u64 * Self::FOLD_INSTS_PER_TILE;
        counters.cuda_fp_insts += insts;
        counters.insts_issued += insts;
    }

    /// Every GroupTile already folded: the bank is complete.
    fn finish(_accs: &[AccS8], _out: &mut [OutTile]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::tests::rel_gap;
    use crate::spmm::{FaultPolicy, SpinferSpmm};
    use gpu_sim::fault::{FaultInjector, FaultPlan};
    use gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, ValueDist};
    use gpu_sim::trace::TraceSink;

    fn quantized(m: usize, k: usize, s: f64, seed: u64) -> (DenseMatrix, TcaBmeInt8) {
        let w = random_sparse(m, k, s, ValueDist::Uniform, seed);
        let enc = TcaBme::encode(&w).quantize_int8();
        (w, enc)
    }

    #[test]
    fn int8_product_tracks_fp32_reference_within_quantization_error() {
        let spec = GpuSpec::rtx4090();
        for &s in &[0.3, 0.5, 0.7] {
            let (w, enc) = quantized(128, 128, s, 200);
            let x = random_dense(128, 16, ValueDist::Uniform, 201);
            let run = SpinferSpmmInt8::new().run(&spec, &enc, &x);
            let out = run.output.as_ref().expect("functional output");
            let err = max_abs_diff(out, &w.matmul_ref(&x));
            // K=128 uniform[-1,1] terms, each within half a step on both
            // operands: ≈ K·(s_w + s_x)/2 ≈ 1.0 worst case.
            assert!(err < 1.5, "max err {err} at sparsity {s}");
            assert!(run.time_us() > 0.0);
        }
    }

    #[test]
    fn int8_unaligned_dims_and_split_k_are_correct() {
        let spec = GpuSpec::rtx4090();
        let (w, enc) = quantized(100, 200, 0.5, 202);
        let x = random_dense(200, 12, ValueDist::Uniform, 203);
        let kernel = SpinferSpmmInt8 {
            config: SpmmConfig {
                split_k: 2,
                ..SpmmConfig::default()
            },
        };
        let run = kernel.run(&spec, &enc, &x);
        let err = max_abs_diff(run.output.as_ref().unwrap(), &w.matmul_ref(&x));
        assert!(err < 2.0, "max err {err}");
        assert_eq!(run.chain.launches.len(), 2, "split-K appends a reduction");
    }

    #[test]
    fn zero_activations_produce_zero_output() {
        // The degenerate global scale (max|x| = 0 → scale 1.0) must not
        // poison anything.
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(64, 64, 0.5, 204);
        let x = DenseMatrix::zeros(64, 8);
        let run = SpinferSpmmInt8::new().run(&spec, &enc, &x);
        assert!(run.output.unwrap().iter().all(|&v| v == 0.0));
    }

    /// The INT8 estimate against the functional run over the FP16
    /// test's grid (sparsity 0.3/0.6/0.9, N 1/16/40/128, 300×500 and
    /// 1024×512) at both SMBD settings — including the -SMBD
    /// register-decode charge, which the functional path applies per
    /// BitmapTile. As there, N 128 (past 64 columns) has bands of its
    /// own; the FP16 test gives each gap's cause.
    #[test]
    fn estimate_matches_functional_counters() {
        let spec = GpuSpec::rtx4090();
        // Per ablation, the band of the issue-slot gap at N ≤ 40 and at
        // N 128 (measured 3.8–5.7 % and 1.6–2.2 % below the estimate with
        // SMBD, 1.4–1.8 % and 0.7–1.0 % below without): the estimate
        // charges one slot per decode shared-memory transaction where the
        // functional path charges one per gather instruction, and none
        // for LDGSTS, which the functional path does. The -SMBD
        // register-decode slots, equal on both sides, dilute it, and so
        // do the mma slots as N grows.
        for (smbd, issued_bands) in [
            (true, [-0.06..-0.03, -0.025..-0.01]),
            (false, [-0.02..-0.01, -0.012..-0.005]),
        ] {
            let kernel = SpinferSpmmInt8 {
                config: SpmmConfig {
                    ablation: Ablation {
                        smbd,
                        ..Default::default()
                    },
                    ..SpmmConfig::default()
                },
            };
            for (m, k) in [(300, 500), (1024, 512)] {
                for (i, s) in [0.3, 0.6, 0.9].into_iter().enumerate() {
                    let (_, enc) = quantized(m, k, s, 205 + i as u64);
                    let stats = FormatStats::from_encoded(&enc.tiles);
                    for n in [1, 16, 40, 128] {
                        let x = random_dense(k, n, ValueDist::Uniform, 206);
                        let run = kernel.run(&spec, &enc, &x);
                        let est = kernel.estimate(&spec, &stats, n);
                        let (lf, le) = (&run.chain.launches[0], &est.chain.launches[0]);
                        let (cf, ce) = (&lf.counters, &le.counters);
                        let at = format!("smbd={smbd} {m}x{k} s={s} n={n}");
                        let wide = n > 64;
                        assert_eq!(cf.mma_s8_insts, ce.mma_s8_insts, "{at} mma_s8");
                        assert_eq!(cf.cuda_int_insts, ce.cuda_int_insts, "{at} int");
                        assert_eq!(cf.smem_bank_conflicts, ce.smem_bank_conflicts, "{at} bank");
                        assert_eq!(cf.cuda_fp_insts, ce.cuda_fp_insts, "{at} scale folds");
                        assert_eq!(cf.shfl_insts, ce.shfl_insts, "{at} shfl");
                        // LDGSTS, measured −2.2 to +3.4 % at N ≤ 40 (the W
                        // stream's per-GroupTile rounding) and +67 to +89 %
                        // at N 128 (two X LDGSTS per four-row group).
                        let ldgsts = rel_gap(cf.ldgsts_insts, ce.ldgsts_insts);
                        let band = if wide { 0.6..0.95 } else { -0.025..0.04 };
                        assert!(band.contains(&ldgsts), "{at} ldgsts gap {ldgsts}");
                        // Post-L2 DRAM bytes, functional 0.1–3.2 % above
                        // the estimate at N ≤ 40: the W stream's sector
                        // rounding, which the estimate's `w_bytes` does
                        // not charge, as in the FP16 test. At 1024×512 it
                        // is 22 656, 15 296 and 4 416 B at sparsity 0.3,
                        // 0.6 and 0.9 for every N and both SMBD settings.
                        // At N 128, −0.12 to +0.48 %, diluted and offset
                        // (the 12 padded K rows of X on 300×500) as in
                        // the FP16 test.
                        let dram = rel_gap(lf.timing.dram_bytes, le.timing.dram_bytes);
                        let band = if wide { -0.005..0.01 } else { 0.0..0.035 };
                        assert!(band.contains(&dram), "{at} dram gap {dram}");
                        let issued = rel_gap(cf.insts_issued, ce.insts_issued);
                        let band = &issued_bands[usize::from(wide)];
                        assert!(band.contains(&issued), "{at} issued gap {issued}");
                        // Shared-memory store transactions, measured −64 to +18 % off
                        // the estimate, bounded just outside: the estimate charges one X
                        // store per X row and none for the W stream, where the
                        // functional run charges one per 128 B of each four-row X warp
                        // (a quarter of the estimate's at N ≤ 16, three quarters at N
                        // 40) plus the LDGSTS W stream, which grows with density. At
                        // N 128 only the W stream is left: +6 to +21 %.
                        let stores =
                            rel_gap(cf.smem_store_transactions, ce.smem_store_transactions);
                        let band = if wide { 0.03..0.25 } else { -0.65..0.2 };
                        assert!(band.contains(&stores), "{at} smem_stores gap {stores}");
                        // Launch-chain time, measured −0.9 to +0.9 % at
                        // N ≤ 40: the W-stream DRAM surplus slows
                        // memory-bound points and the issue deficit speeds
                        // issue-bound ones, so the sign flips. At N 128,
                        // −0.05 to +0.23 %.
                        let (tf, te) = (run.time_us(), est.time_us());
                        let tol = if wide { 0.005 } else { 0.015 };
                        assert!((tf - te).abs() / te < tol, "{at} time {tf} vs {te}");
                    }
                }
            }
        }
    }

    #[test]
    fn int8_beats_fp16_spinfer_in_the_memory_bound_regime() {
        // Half the value bytes and double-rate tensor cores: the decode
        // phase must get faster, tracking the paper's §3.2.2 argument
        // that compression converts to speedup when memory bound.
        let spec = GpuSpec::rtx4090();
        let stats = FormatStats::synthetic(8192, 8192, 0.5);
        let t_fp16 = SpinferSpmm::new().estimate(&spec, &stats, 16).time_us();
        let t_int8 = SpinferSpmmInt8::new().estimate(&spec, &stats, 16).time_us();
        assert!(
            t_int8 < t_fp16,
            "INT8 {t_int8} us must beat FP16 {t_fp16} us"
        );
    }

    #[test]
    fn checked_run_with_no_faults_is_bit_identical_to_golden() {
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(128, 128, 0.6, 210);
        let x = random_dense(128, 16, ValueDist::Uniform, 211);
        let kernel = SpinferSpmmInt8::new();
        let golden = kernel.run(&spec, &enc, &x);
        let policy = FaultPolicy::default();
        let checked = kernel
            .launch(&LaunchCtx::new(&spec).with_policy(&policy), &enc, &x)
            .expect("clean container, clean run");
        assert_eq!(checked.output, golden.output, "bit-identical output");
        assert_eq!(
            checked.chain.launches[0].counters, golden.chain.launches[0].counters,
            "bit-identical counters"
        );
    }

    #[test]
    fn checked_run_detects_recovers_and_stays_correct_under_injection() {
        let spec = GpuSpec::rtx4090();
        let (w, enc) = quantized(128, 128, 0.5, 212);
        let x = random_dense(128, 16, ValueDist::Uniform, 213);
        let kernel = SpinferSpmmInt8::new();
        let inj = FaultInjector::new(FaultPlan::uniform(77, 0.02));
        let run = kernel
            .launch(&LaunchCtx::new(&spec).with_fault(&inj), &enc, &x)
            .expect("default policy always recovers or falls back");
        let c = &run.chain.launches[0].counters;
        assert!(c.faults_injected > 0, "2% over many sites must fire");
        assert!(c.faults_detected > 0, "injected faults must be detected");
        assert!(c.faults_recovered + c.fault_fallbacks > 0);
        let out = run.output.as_ref().unwrap();
        assert!(out.iter().all(|v| v.is_finite()));
        let err = max_abs_diff(out, &w.matmul_ref(&x));
        assert!(err < 1.5, "recovered product must stay correct, err {err}");
    }

    #[test]
    fn checked_run_seeded_injection_is_deterministic() {
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(128, 128, 0.5, 214);
        let x = random_dense(128, 16, ValueDist::Uniform, 215);
        let kernel = SpinferSpmmInt8::new();
        let inj = FaultInjector::new(FaultPlan::uniform(31, 0.03));
        let ctx = LaunchCtx::new(&spec).with_fault(&inj);
        let a = kernel.launch(&ctx, &enc, &x).unwrap();
        let b = kernel.launch(&ctx, &enc, &x).unwrap();
        assert_eq!(a.output, b.output, "same seed, same output");
        assert_eq!(
            a.chain.launches[0].counters, b.chain.launches[0].counters,
            "same seed, same fault sites and counters"
        );
        assert!(a.chain.launches[0].counters.faults_injected > 0);
    }

    #[test]
    fn retry_exhaustion_without_fallback_is_a_typed_error() {
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(128, 128, 0.5, 216);
        let x = random_dense(128, 16, ValueDist::Uniform, 217);
        let kernel = SpinferSpmmInt8::new();
        let plan = FaultPlan {
            only_gtile: Some(0),
            ..FaultPlan::uniform(5, 1.0)
        };
        let inj = FaultInjector::new(plan);
        let policy = FaultPolicy {
            max_attempts: 2,
            fallback: false,
        };
        let err = kernel
            .launch(
                &LaunchCtx::new(&spec).with_fault(&inj).with_policy(&policy),
                &enc,
                &x,
            )
            .expect_err("unrecoverable corruption must surface");
        assert!(matches!(err, SpinferError::Kernel(_)), "got {err:?}");
    }

    #[test]
    fn retry_exhaustion_with_fallback_completes_correctly() {
        let spec = GpuSpec::rtx4090();
        let (w, enc) = quantized(128, 128, 0.5, 218);
        let x = random_dense(128, 16, ValueDist::Uniform, 219);
        let kernel = SpinferSpmmInt8::new();
        let plan = FaultPlan {
            only_gtile: Some(0),
            ..FaultPlan::uniform(5, 1.0)
        };
        let inj = FaultInjector::new(plan);
        let policy = FaultPolicy {
            max_attempts: 2,
            fallback: true,
        };
        let run = kernel
            .launch(
                &LaunchCtx::new(&spec).with_fault(&inj).with_policy(&policy),
                &enc,
                &x,
            )
            .expect("fallback path completes the run");
        assert!(run.chain.launches[0].counters.fault_fallbacks > 0);
        let err = max_abs_diff(run.output.as_ref().unwrap(), &w.matmul_ref(&x));
        assert!(err < 1.5, "fallback product must be correct, err {err}");
    }

    #[test]
    fn integer_poison_is_the_documented_d3_gap() {
        // FP16 poison surfaces as NaN and is caught by the finiteness
        // scan; an i8 poison is just another plausible code. The checked
        // run must complete with finite output — the corruption is
        // bounded by |code| ≤ 127 × scale, not caught per-value.
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(128, 128, 0.5, 220);
        let x = random_dense(128, 16, ValueDist::Uniform, 221);
        let kernel = SpinferSpmmInt8::new();
        let plan = FaultPlan {
            fp16_poison_rate: 0.10,
            seed: 21,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let run = kernel
            .launch(&LaunchCtx::new(&spec).with_fault(&inj), &enc, &x)
            .unwrap();
        let out = run.output.as_ref().unwrap();
        assert!(out.iter().all(|v| v.is_finite()), "no NaN can exist in i8");
    }

    #[test]
    fn trace_sink_is_output_neutral_and_records_phase_spans() {
        // One launch body means one trace shape: INT8 emits the same
        // per-phase spans as FP16, summing to the simulated time.
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(64, 128, 0.5, 222);
        let x = random_dense(128, 8, ValueDist::Uniform, 223);
        let kernel = SpinferSpmmInt8 {
            config: SpmmConfig {
                split_k: 2,
                ..SpmmConfig::default()
            },
        };
        let plain = kernel.run(&spec, &enc, &x);
        let sink = TraceSink::new();
        let traced = kernel
            .launch(&LaunchCtx::new(&spec).with_sink(&sink), &enc, &x)
            .unwrap();
        assert_eq!(plain.output, traced.output);
        assert_eq!(
            plain.chain.merged_counters(),
            traced.chain.merged_counters()
        );
        assert_eq!(plain.time_us().to_bits(), traced.time_us().to_bits());
        let t = sink.finish();
        let phases = [
            "stream_w",
            "stream_x",
            "smbd_decode",
            "mma",
            "epilogue",
            "reduction",
        ];
        for name in phases {
            assert!(t.phase_total_us(name) > 0.0, "missing phase {name}");
        }
        let phase_sum: f64 = phases.iter().map(|name| t.phase_total_us(name)).sum();
        let total = traced.time_us();
        assert!(
            (phase_sum - total).abs() <= 0.01 * total,
            "phase sum {phase_sum} vs simulated {total}"
        );
    }

    #[test]
    fn dimension_mismatch_and_corrupt_container_are_typed_errors() {
        let spec = GpuSpec::rtx4090();
        let (_, enc) = quantized(64, 64, 0.5, 224);
        let kernel = SpinferSpmmInt8::new();
        let bad_x = random_dense(32, 8, ValueDist::Uniform, 225);
        assert!(matches!(
            kernel.launch(&LaunchCtx::new(&spec), &enc, &bad_x),
            Err(SpinferError::DimensionMismatch { .. })
        ));
        let policy = FaultPolicy::default();
        let mut corrupt = enc.clone();
        corrupt.scales[0] = f32::NAN;
        let x = random_dense(64, 8, ValueDist::Uniform, 226);
        assert!(matches!(
            kernel.launch(&LaunchCtx::new(&spec).with_policy(&policy), &corrupt, &x),
            Err(SpinferError::Integrity(_))
        ));
    }
}
