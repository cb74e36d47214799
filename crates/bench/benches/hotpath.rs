//! Microbenchmarks for the SpMM wall-clock hot path: the register-blocked
//! `mma` kernels and the SMBD TCTile expansions, each at FP16 and INT8,
//! one whole SpInfer launch at a decode shape, the batched FP16 → f32
//! conversion (next to its per-element form), and the setup
//! pipeline (weight generation, pruning, encode), so a regression shows
//! up here before it shows up in `spinfer snapshot` or `perfbench/`. The
//! test oracles these paths are pinned to live with the tests, not here.
//!
//! The MAC kernel body, the block-routine body and the SMBD expansion
//! are picked from the host CPU by one token, `gpu_sim::cpu::Simd`
//! (AVX2, BMI1, BMI2, F16C, LZCNT and POPCNT, when all are present).
//! `smbd/decode_tctile_{f32,s8}_sweep` pick the expansion the block
//! picks: the `pshufb` row expansion (F16C for halves, `vpmovsxbd` for
//! codes), or the set-bit walk, on a GroupTile's value buffer as the
//! block does (`_tail`: on values that end at the tile's population).
//!
//! ```text
//! cargo bench -p spinfer-bench --bench hotpath
//! ```
//!
//! Setting `SPINFER_BENCH_SMOKE=1` drops to two samples per benchmark —
//! the CI smoke mode that only proves the harness runs.

use criterion::{criterion_main, Criterion};
use gpu_sim::cpu::Simd;
use gpu_sim::exec;
use gpu_sim::fp16::{f16_to_f32_slice, Half};
use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
use gpu_sim::tensor_core::{
    mma_m16n8k16_bslice_ntiles, mma_m16n8k16_s8_ntiles, MAX_NTILES, MMA_K, MMA_M, MMA_N,
};
use gpu_sim::{Counters, GpuSpec};
use spinfer_core::smbd::{decode_tctile_f32, decode_tctile_s8};
use spinfer_core::{SpinferSpmm, TcaBme};
use spinfer_pruning::{magnitude_prune, nm_prune, wanda_prune, Calibration};
use std::hint::black_box;

/// Deterministic pseudo-random f32 in [-1, 1) from SplitMix64.
fn mix(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn a_tile(seed: u64) -> [[f32; MMA_K]; MMA_M] {
    let mut s = seed;
    let mut a = [[0.0f32; MMA_K]; MMA_M];
    for row in a.iter_mut() {
        for v in row.iter_mut() {
            *v = mix(&mut s);
        }
    }
    a
}

fn b_buf(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed;
    (0..len).map(|_| mix(&mut s)).collect()
}

/// An `i8`-range code in [-127, 127] from [`mix`].
fn code(state: &mut u64) -> i32 {
    (mix(state) * 127.0).round() as i32
}

fn bench_mma(c: &mut Criterion) {
    let a = a_tile(1);
    let mut g = c.benchmark_group(if Simd::detect().is_some() {
        "mma(simd)"
    } else {
        "mma(flat)"
    });
    // The SpMM launch's widest tile: ld spans the full 128-column X
    // window the batched call sweeps in one pass.
    let ld = MAX_NTILES * MMA_N;
    let bw = b_buf(3, MMA_K * ld);
    g.bench_function("bslice_ntiles16_batched", |bench| {
        let mut counters = Counters::new();
        let mut accs = vec![[[0.0f32; MMA_N]; MMA_M]; MAX_NTILES];
        bench.iter(|| {
            mma_m16n8k16_bslice_ntiles(&mut counters, black_box(&a), black_box(&bw), ld, &mut accs)
        });
    });
    // The decode-step shape: N = 16 is two accumulator tiles, one
    // register block of the batched kernel per four A rows.
    g.bench_function("bslice_ntiles2_batched", |bench| {
        let ld2 = 2 * MMA_N;
        let b2w = b_buf(5, MMA_K * ld2);
        let mut counters = Counters::new();
        let mut accs = [[[0.0f32; MMA_N]; MMA_M]; 2];
        bench.iter(|| {
            mma_m16n8k16_bslice_ntiles(
                &mut counters,
                black_box(&a),
                black_box(&b2w),
                ld2,
                &mut accs,
            )
        });
    });
    // The INT8 `mma.s8` kernel at the same two widths, on codes.
    let a8: [[i32; MMA_K]; MMA_M] = {
        let mut s = 9;
        core::array::from_fn(|_| core::array::from_fn(|_| code(&mut s)))
    };
    for ntiles in [MAX_NTILES, 2] {
        let ld = ntiles * MMA_N;
        let mut s = 11;
        let b8: Vec<i32> = (0..MMA_K * ld).map(|_| code(&mut s)).collect();
        g.bench_function(&format!("s8_ntiles{ntiles}_batched"), |bench| {
            let mut counters = Counters::new();
            let mut accs = vec![[[0i32; MMA_N]; MMA_M]; ntiles];
            bench.iter(|| {
                mma_m16n8k16_s8_ntiles(&mut counters, black_box(&a8), black_box(&b8), ld, &mut accs)
            });
        });
    }
    g.finish();
}

/// A GroupTile's first TCTile from its value buffer (the unchecked fast
/// path), and `_tail`: a lone 16×16 tile, whose last rows take the tail.
fn bench_smbd(c: &mut Criterion) {
    let gt = TcaBme::encode(&random_sparse(64, 64, 0.6, ValueDist::Uniform, 4));
    let lone = TcaBme::encode(&random_sparse(16, 16, 0.6, ValueDist::Uniform, 4));
    let mut g = c.benchmark_group("smbd");
    for (suffix, enc) in [("", &gt), ("_tail", &lone)] {
        let bitmaps: [u64; 4] = enc.gtile_bitmaps(0)[0..4].try_into().unwrap();
        let values = enc.gtile_values(0);
        g.bench_function(&format!("decode_tctile_f32_sweep{suffix}"), |bench| {
            let mut counters = Counters::new();
            bench.iter(|| black_box(decode_tctile_f32(&mut counters, &bitmaps, values, 0)));
        });
        let enc8 = enc.quantize_int8();
        let codes = enc8.tiles.gtile_values(0);
        g.bench_function(&format!("decode_tctile_s8_sweep{suffix}"), |bench| {
            let mut counters = Counters::new();
            bench.iter(|| black_box(decode_tctile_s8(&mut counters, &bitmaps, codes, 0)));
        });
    }
    g.finish();
}

/// One golden SpInfer launch at a decode shape (1024×1024 at 60 %
/// sparsity, N = 16) on one worker: GTile and X streams, SMBD decode and
/// `mma` through the block-routine body the host CPU selects, which
/// `smbd/decode_tctile_f32_sweep` bypasses.
fn bench_spmm(c: &mut Criterion) {
    let spec = GpuSpec::rtx4090();
    let enc = TcaBme::encode(&random_sparse(1024, 1024, 0.6, ValueDist::Uniform, 6));
    let x = random_dense(1024, 16, ValueDist::Uniform, 7);
    let kernel = SpinferSpmm::new();
    let mut g = c.benchmark_group("spmm");
    g.bench_function("spinfer_decode_1kx1k_n16_jobs1", |bench| {
        exec::set_jobs(1);
        bench.iter(|| black_box(kernel.run(&spec, black_box(&enc), black_box(&x))));
    });
    g.finish();
    exec::set_jobs(0);
}

fn bench_fp16(c: &mut Criterion) {
    // One GroupTile column of X at the hero shape: 64 rows × 16 cols.
    let src: Vec<Half> = (0..1024)
        .map(|i| Half::from_f32(i as f32 * 0.125))
        .collect();
    let mut dst = vec![0.0f32; src.len()];
    let mut g = c.benchmark_group("fp16");
    g.bench_function("f16_to_f32_slice_1k", |bench| {
        bench.iter(|| f16_to_f32_slice(black_box(&src), black_box(&mut dst)));
    });
    g.bench_function("f16_to_f32_per_element_1k", |bench| {
        bench.iter(|| {
            for (d, h) in dst.iter_mut().zip(black_box(&src)) {
                *d = h.to_f32();
            }
        });
    });
    g.finish();
}

/// Setup-pipeline benchmarks: weight generation (Uniform and Normal
/// values, one sparse walk), the TCA-BME / CSR
/// encoders and the Wanda / magnitude pruners' selection kernel — the host
/// wall-clock that `perfbench/` measures at full scale in its setup
/// phase, measured here at a shape small enough for quick iteration.
fn bench_setup(c: &mut Criterion) {
    const M: usize = 1024;
    const K: usize = 1024;
    const S: f64 = 0.6;
    let w = random_sparse(M, K, S, ValueDist::Uniform, 42);
    let mut g = c.benchmark_group("setup");
    g.bench_function("generate_1kx1k", |bench| {
        bench.iter(|| black_box(random_sparse(M, K, S, ValueDist::Uniform, 42)));
    });
    g.bench_function("generate_normal_1kx1k", |bench| {
        let dist = ValueDist::Normal { std: 0.02 };
        bench.iter(|| black_box(random_sparse(M, K, S, dist, 42)));
    });
    g.bench_function("encode_tca_bme_1kx1k", |bench| {
        bench.iter(|| black_box(TcaBme::encode(black_box(&w))));
    });
    g.bench_function("encode_csr_1kx1k", |bench| {
        bench.iter(|| black_box(spinfer_baselines::Csr::encode(black_box(&w))));
    });
    g.bench_function("gtile_checksums_1kx1k", |bench| {
        let enc = TcaBme::encode(&w);
        bench.iter(|| black_box(enc.gtile_checksums()));
    });
    let dense = random_dense(M, K, ValueDist::Normal { std: 0.03 }, 43);
    let calib = Calibration::synthetic(K, 32, 44);
    g.bench_function("wanda_1kx1k", |bench| {
        bench.iter(|| black_box(wanda_prune(black_box(&dense), &calib, S)));
    });
    g.bench_function("nm_2of4_1kx1k", |bench| {
        bench.iter(|| black_box(nm_prune(black_box(&dense), Some(&calib), 2, 4)));
    });
    g.bench_function("magnitude_1kx1k", |bench| {
        bench.iter(|| black_box(magnitude_prune(black_box(&dense), S)));
    });
    g.finish();
}

fn configured() -> Criterion {
    let mut c = Criterion::default();
    // CI smoke mode: prove the harness runs without paying for samples.
    if std::env::var_os("SPINFER_BENCH_SMOKE").is_some() {
        c.sample_size(2);
    } else {
        c.sample_size(200);
    }
    c
}

pub fn benches() {
    let mut criterion = configured();
    bench_mma(&mut criterion);
    bench_smbd(&mut criterion);
    bench_spmm(&mut criterion);
    bench_fp16(&mut criterion);
    bench_setup(&mut criterion);
}
criterion_main!(benches);
