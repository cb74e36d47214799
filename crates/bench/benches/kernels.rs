//! Criterion benchmarks over the simulated kernels.
//!
//! Two kinds of measurements:
//!
//! * `estimate/*` — host-side cost of the analytic kernel estimators at
//!   the paper's hero shape (these are what the `fig*` harnesses sweep,
//!   so their speed bounds full-figure regeneration time);
//! * `functional/*` — the bit-exact simulated kernels (Tensor Core
//!   emulation, SMBD decoding) at a reduced shape.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};
use gpu_sim::GpuSpec;
use spinfer_bench::{kernels, HERO_K, HERO_M};
use spinfer_core::{SpMMHandle, TcaBme};
use std::hint::black_box;

fn bench_estimates(c: &mut Criterion) {
    let spec = GpuSpec::rtx4090();
    let mut g = c.benchmark_group("estimate");
    for kernel in kernels([
        "cuBLAS_TC",
        "SpInfer",
        "Flash-LLM",
        "SparTA",
        "Sputnik",
        "cuSPARSE",
        "SMaT",
    ]) {
        g.bench_function(kernel.name(), |b| {
            b.iter(|| {
                black_box(
                    kernel
                        .estimate_synthetic(&spec, HERO_M, HERO_K, 16, 0.6)
                        .time_us(),
                )
            })
        });
    }
    g.finish();
}

fn bench_functional(c: &mut Criterion) {
    let spec = GpuSpec::rtx4090();
    let w = random_sparse(512, 512, 0.6, ValueDist::Uniform, 1);
    let x = random_dense(512, 16, ValueDist::Uniform, 2);
    let mut g = c.benchmark_group("functional");
    g.sample_size(10);
    g.bench_function("tca_bme_encode_512", |b| {
        b.iter(|| black_box(TcaBme::encode(&w)))
    });
    let handle = SpMMHandle::encode(&w);
    g.bench_function("spinfer_spmm_512x512x16", |b| {
        b.iter(|| black_box(handle.matmul(&spec, &x).time_us()))
    });
    g.bench_function("spinfer_spmm_decode_roundtrip", |b| {
        b.iter_batched(
            || handle.weights.clone(),
            |enc| black_box(enc.decode()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_smbd(c: &mut Criterion) {
    use gpu_sim::Counters;
    use spinfer_core::smbd::decode_tctile_f32;
    let w = random_sparse(16, 16, 0.5, ValueDist::Uniform, 3);
    let enc = TcaBme::encode(&w);
    let bitmaps: [u64; 4] = enc.bitmaps[0..4].try_into().unwrap();
    c.bench_function("smbd/decode_tctile", |b| {
        b.iter(|| {
            let mut counters = Counters::new();
            black_box(decode_tctile_f32(&mut counters, &bitmaps, &enc.values, 0))
        })
    });
}

criterion_group!(benches, bench_estimates, bench_functional, bench_smbd);
criterion_main!(benches);
