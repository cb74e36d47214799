//! Pins the two-pass parallel encoders to their serial semantics.
//!
//! The iron rule of the setup pipeline is that host parallelism must
//! never change a single output byte. For TCA-BME the tests compare
//! the complete serialize-v2 container — header, per-GroupTile
//! checksums, offsets, values including alignment padding, bitmaps —
//! produced by [`TcaBme::encode_with`] at several job counts against
//! the serial encoder in `common/encode_oracle.rs`, over random shapes
//! (edge dimensions included), fixed sparsities 0.0 and 1.0, and two
//! non-default GroupTile geometries. The four
//! baseline formats (CSR, Tiled-CSL, BCSR, SparTA) are compared
//! field-for-field via `PartialEq`, and SparTA's directly-assembled
//! residual is additionally pinned to `Csr::encode` of the dense spill
//! matrix the old serial encoder built.
//!
//! The job count is process-global, so every test that flips it takes
//! [`jobs_lock`] and restores the default (0 = auto) before releasing.

use gpu_sim::exec;
use gpu_sim::fp16::Half;
use gpu_sim::matrix::{random_sparse, DenseMatrix, ValueDist};
use proptest::prelude::*;
use spinfer_baselines::{Bcsr, Csr, SpartaFormat, TiledCsl};
use spinfer_core::{serialize, TcaBme, TcaBmeConfig};
use std::sync::{Mutex, MutexGuard};

#[path = "common/encode_oracle.rs"]
mod encode_oracle;
use encode_oracle::encode_serial_oracle;

/// Serialises the jobs flip: tests in this binary run concurrently and
/// `exec::set_jobs` is process-global.
fn jobs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The full v2 wire bytes of one encoding — the strictest equality
/// available: it covers every array plus the per-GroupTile checksums.
fn v2_bytes(w: &TcaBme) -> Vec<u8> {
    serialize::to_bytes(w)
}

/// Asserts the parallel TCA-BME encoder reproduces the serial oracle's
/// bytes at jobs 1, 2, and 8. Must be called with `jobs_lock` held.
fn assert_tca_bme_parity(m: &DenseMatrix, config: TcaBmeConfig, label: &str) {
    let oracle = v2_bytes(&encode_serial_oracle(m, config));
    for jobs in [1usize, 2, 8] {
        exec::set_jobs(jobs);
        let parallel = v2_bytes(&TcaBme::encode_with(m, config));
        assert_eq!(
            parallel, oracle,
            "{label}: serialize-v2 bytes diverged from the serial oracle at jobs={jobs}"
        );
    }
    exec::set_jobs(0);
}

/// Encodes `m` in all four baseline formats at the current job count.
fn encode_baselines(m: &DenseMatrix) -> (Csr, TiledCsl, Bcsr, SpartaFormat) {
    (
        Csr::encode(m),
        TiledCsl::encode(m),
        Bcsr::encode(m),
        SpartaFormat::encode(m),
    )
}

/// Asserts all four baseline encoders produce identical containers at
/// jobs 1, 2, and 8. Must be called with `jobs_lock` held.
fn assert_baseline_parity(m: &DenseMatrix, label: &str) {
    exec::set_jobs(1);
    let serial = encode_baselines(m);
    for jobs in [2usize, 8] {
        exec::set_jobs(jobs);
        let parallel = encode_baselines(m);
        assert_eq!(parallel.0, serial.0, "{label}: CSR diverged at jobs={jobs}");
        assert_eq!(
            parallel.1, serial.1,
            "{label}: Tiled-CSL diverged at jobs={jobs}"
        );
        assert_eq!(
            parallel.2, serial.2,
            "{label}: BCSR diverged at jobs={jobs}"
        );
        assert_eq!(
            parallel.3, serial.3,
            "{label}: SparTA diverged at jobs={jobs}"
        );
    }
    exec::set_jobs(0);
}

/// Dimensions biased toward the grid boundaries the encoders cut at:
/// SparTA's 4-groups, BitmapTile/TCTile/BCSR edges (8/16), and the
/// 64-element GroupTile / Tiled-CSL tile edge, each with one-off
/// neighbours, plus interior values.
fn edge_dims() -> Vec<usize> {
    vec![1, 3, 4, 5, 7, 8, 15, 16, 17, 37, 63, 64, 65, 96]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tca_bme_encode_matches_serial_oracle_at_every_job_count(
        rows in prop::sample::select(edge_dims()),
        cols in prop::sample::select(edge_dims()),
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let _guard = jobs_lock();
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        assert_tca_bme_parity(&m, TcaBmeConfig::default(), "default 64x64 GroupTile");
        // A non-default geometry exercises different band/tile cuts.
        let narrow = TcaBmeConfig { gt_rows: 16, gt_cols: 32 };
        assert_tca_bme_parity(&m, narrow, "16x32 GroupTile");
    }

    #[test]
    fn baseline_encoders_match_across_job_counts(
        rows in prop::sample::select(edge_dims()),
        cols in prop::sample::select(edge_dims()),
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let _guard = jobs_lock();
        let m = random_sparse(rows, cols, sparsity, ValueDist::Uniform, seed);
        assert_baseline_parity(&m, "random point");
    }
}

#[test]
fn hero_slice_parity_and_checksum_stability() {
    let _guard = jobs_lock();
    // A multi-GroupTile slice of the hero point (28672x8192 @ 0.6):
    // big enough that every band split is non-trivial at jobs 8.
    let m = random_sparse(256, 192, 0.6, ValueDist::Uniform, 42);
    assert_tca_bme_parity(&m, TcaBmeConfig::default(), "hero slice");
    assert_baseline_parity(&m, "hero slice");

    // The checksum vector itself is also job-count invariant (it is
    // what the v2 container embeds and the checked kernel verifies).
    exec::set_jobs(1);
    let enc = TcaBme::encode(&m);
    let serial_sums = enc.gtile_checksums();
    for jobs in [2usize, 8] {
        exec::set_jobs(jobs);
        assert_eq!(enc.gtile_checksums(), serial_sums, "jobs={jobs}");
    }
    exec::set_jobs(0);
}

#[test]
fn empty_and_full_matrices_encode_identically() {
    let _guard = jobs_lock();
    let zero = DenseMatrix::zeros(64, 64);
    assert_tca_bme_parity(&zero, TcaBmeConfig::default(), "all-zero");
    assert_baseline_parity(&zero, "all-zero");
    let dense = random_sparse(64, 64, 0.0, ValueDist::Uniform, 7);
    assert_tca_bme_parity(&dense, TcaBmeConfig::default(), "fully dense");
    assert_baseline_parity(&dense, "fully dense");
}

/// Fixed points the random draws cannot pin: sparsity exactly 0.0 and
/// 1.0, edge and interior shapes, under the default and the wide 32×128
/// GroupTile geometry.
#[test]
fn fixed_sparsities_and_wide_grouptile_match_serial_oracle() {
    let _guard = jobs_lock();
    let wide = TcaBmeConfig {
        gt_rows: 32,
        gt_cols: 128,
    };
    for config in [TcaBmeConfig::default(), wide] {
        for (r, c, s) in [
            (64, 64, 0.6),
            (100, 70, 0.5),
            (17, 200, 0.0),
            (130, 66, 1.0),
        ] {
            let m = random_sparse(r, c, s, ValueDist::Uniform, 11);
            assert_tca_bme_parity(&m, config, &format!("{r}x{c} s={s} {config:?}"));
        }
    }
}

#[test]
fn sparta_residual_matches_csr_of_dense_spill() {
    let _guard = jobs_lock();
    for jobs in [1usize, 2, 8] {
        exec::set_jobs(jobs);
        let m = random_sparse(96, 70, 0.4, ValueDist::Uniform, 11);
        let enc = SpartaFormat::encode(&m);
        // Reconstruct the dense spill matrix the old encoder built:
        // everything past the first two non-zeros of each 4-group.
        let mut spill = DenseMatrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            for g in 0..m.cols().div_ceil(4) {
                let mut kept = 0usize;
                for i in 0..4 {
                    let c = g * 4 + i;
                    if c >= m.cols() {
                        break;
                    }
                    let v = m.get(r, c);
                    if v.is_zero() {
                        continue;
                    }
                    if kept < 2 {
                        kept += 1;
                    } else {
                        spill.set(r, c, v);
                    }
                }
            }
        }
        assert_eq!(
            enc.residual,
            Csr::encode(&spill),
            "residual must be field-identical to CSR of the spill at jobs={jobs}"
        );
        assert!(enc.residual.values.iter().all(|v| *v != Half::ZERO));
    }
    exec::set_jobs(0);
}
