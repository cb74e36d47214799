//! Unstructured and semi-structured weight pruners.
//!
//! The paper relies on state-of-the-art one-shot pruning (SparseGPT,
//! Wanda) reaching ~50-60% unstructured sparsity with acceptable accuracy;
//! SpInfer's job is to turn that sparsity into speed. This module
//! implements the pruning side:
//!
//! * [`magnitude_prune`] — classic per-row |W| threshold.
//! * [`wanda_prune`] — Wanda's `|W| · ‖X_j‖₂` metric (Sun et al., ICLR'24)
//!   with per-output-row comparison groups, no weight update.
//! * [`sparsegpt_prune`] — OBS-style block pruning (Frantar & Alistarh,
//!   ICML'23): within each column block, prune by `w² / [H⁻¹]_jj` and
//!   compensate remaining in-block weights with the exact OBS update.
//! * [`nm_prune`] — N:M semi-structured (2:4) pruning for the SparTA
//!   decomposition comparison.
//!
//! Magnitude, Wanda and N:M share one selection kernel. Each row's
//! metrics are mapped once to integer keys in a scratch row; per group
//! (the whole row, or each run of `m_group` columns) the kernel finds
//! the `keep`-th largest metric, the threshold. A histogram over the
//! keys' top bits (`log2` of the group width, at most 12) finds the
//! threshold's bucket, and `select_nth_unstable` runs over that
//! bucket's keys only; one masked pass then keeps every column above
//! the threshold. Columns that tie at it keep the lowest column first,
//! exactly like a stable descending sort of `0..k`. A row reads nothing
//! but itself, so rows fan out over the [`gpu_sim::exec`] pool in bands
//! and the output bytes are the same at every job count.

use crate::calibration::Calibration;
use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;

/// Prunes each row to `sparsity` by smallest absolute value.
pub fn magnitude_prune(weights: &DenseMatrix, sparsity: f64) -> DenseMatrix {
    prune_rows_by_metric(weights, None, sparsity)
}

/// Wanda: prune per output row by the metric `|W_ij| · ‖X_j‖₂`.
/// # Examples
///
/// ```
/// use gpu_sim::matrix::{random_dense, ValueDist};
/// use spinfer_pruning::{wanda_prune, Calibration};
///
/// let w = random_dense(32, 64, ValueDist::Normal { std: 0.05 }, 0);
/// let calib = Calibration::synthetic(64, 16, 1);
/// let pruned = wanda_prune(&w, &calib, 0.5);
/// assert!((pruned.sparsity() - 0.5).abs() < 0.05);
/// ```
pub fn wanda_prune(weights: &DenseMatrix, calib: &Calibration, sparsity: f64) -> DenseMatrix {
    assert_eq!(
        weights.cols(),
        calib.features(),
        "calibration features must match K"
    );
    prune_rows_by_metric(weights, Some(&calib.feature_norms()), sparsity)
}

/// SparseGPT-style pruning: per row, process columns in blocks of
/// `block`; within a block, repeatedly remove the weight with the least
/// saliency `w² / [H⁻¹]_jj` (diagonal-damped Hessian restricted to the
/// block) and apply the OBS compensation `w ← w − w_p · H⁻¹ e_p / [H⁻¹]_pp`
/// to the surviving in-block weights.
pub fn sparsegpt_prune(
    weights: &DenseMatrix,
    calib: &Calibration,
    sparsity: f64,
    block: usize,
) -> DenseMatrix {
    assert_eq!(weights.cols(), calib.features());
    assert!(block > 0);
    let m = weights.rows();
    let k = weights.cols();
    let x = &calib.activations;
    let samples = x.cols();
    let damping = 0.01 * (calib.hessian_diagonal(0.0).iter().sum::<f32>() / k as f32).max(1e-6);

    let mut out = DenseMatrix::zeros(m, k);
    let mut hinv_buf = vec![0.0f64; block * block];
    for c0 in (0..k).step_by(block) {
        let b = block.min(k - c0);
        // Block Hessian H = X_b X_bᵀ + λI, then invert (Gauss-Jordan; the
        // block is small).
        let mut h = vec![0.0f64; b * b];
        for i in 0..b {
            for j in i..b {
                let mut s = 0.0f64;
                for t in 0..samples {
                    s +=
                        f64::from(x.get(c0 + i, t).to_f32()) * f64::from(x.get(c0 + j, t).to_f32());
                }
                h[i * b + j] = s;
                h[j * b + i] = s;
            }
            h[i * b + i] += f64::from(damping);
        }
        invert_spd(&mut h, &mut hinv_buf, b);
        let hinv = &hinv_buf[..b * b];

        let prune_per_row = ((b as f64) * sparsity).round() as usize;
        for r in 0..m {
            let mut w: Vec<f64> = (0..b)
                .map(|j| f64::from(weights.get(r, c0 + j).to_f32()))
                .collect();
            let mut pruned = vec![false; b];
            for _ in 0..prune_per_row {
                // Least-saliency surviving weight.
                let mut best = usize::MAX;
                let mut best_s = f64::INFINITY;
                for j in 0..b {
                    if !pruned[j] {
                        let s = w[j] * w[j] / hinv[j * b + j];
                        if s < best_s {
                            best_s = s;
                            best = j;
                        }
                    }
                }
                if best == usize::MAX {
                    break;
                }
                // OBS compensation on the survivors.
                let wp = w[best];
                let hpp = hinv[best * b + best];
                for j in 0..b {
                    if j != best && !pruned[j] {
                        w[j] -= wp * hinv[best * b + j] / hpp;
                    }
                }
                w[best] = 0.0;
                pruned[best] = true;
            }
            for j in 0..b {
                out.set(
                    r,
                    c0 + j,
                    if pruned[j] {
                        Half::ZERO
                    } else {
                        Half::from_f32(w[j] as f32)
                    },
                );
            }
        }
    }
    out
}

/// N:M semi-structured pruning: keep the `n` largest-metric weights in
/// every group of `m_group` consecutive row elements (2:4 by default in
/// callers). Uses the Wanda metric when calibration is supplied. A
/// ragged last group keeps `min(n, len)`.
pub fn nm_prune(
    weights: &DenseMatrix,
    calib: Option<&Calibration>,
    n: usize,
    m_group: usize,
) -> DenseMatrix {
    assert!(n <= m_group && m_group > 0);
    let norms = calib.map(Calibration::feature_norms);
    prune_top_per_group(weights, norms.as_deref(), m_group, n)
}

/// Per-row pruning to `sparsity`: one group spanning the whole row.
fn prune_rows_by_metric(
    weights: &DenseMatrix,
    norms: Option<&[f32]>,
    sparsity: f64,
) -> DenseMatrix {
    assert!((0.0..=1.0).contains(&sparsity));
    let k = weights.cols();
    let keep = ((k as f64) * (1.0 - sparsity)).round() as usize;
    prune_top_per_group(weights, norms, k, keep)
}

/// The one selection kernel behind every metric pruner: in each run of
/// `group` consecutive row elements, keep the `keep` with the largest
/// metric `|w|` (times `norms[c]` when given). Row bands go to the
/// worker pool and write disjoint slices of the output; each row reads
/// only itself, so the bytes do not depend on the job count.
fn prune_top_per_group(
    weights: &DenseMatrix,
    norms: Option<&[f32]>,
    group: usize,
    keep: usize,
) -> DenseMatrix {
    let (m, k) = (weights.rows(), weights.cols());
    if k == 0 {
        return DenseMatrix::zeros(m, 0);
    }
    let src = weights.as_slice();
    let mut data = vec![Half::ZERO; m * k];
    let bands = gpu_sim::exec::chunk_ranges(m, gpu_sim::exec::num_jobs());
    let mut jobs = Vec::with_capacity(bands.len());
    let mut rest = data.as_mut_slice();
    for rows in bands {
        let (band, tail) = rest.split_at_mut(rows.len() * k);
        rest = tail;
        jobs.push((rows, band));
    }
    gpu_sim::exec::par_map_untraced(jobs, |(rows, band)| {
        let mut keys = vec![0u32; k];
        let mut scratch = Selection::new(group.min(k));
        for (r, dst) in rows.zip(band.chunks_exact_mut(k)) {
            let row = &src[r * k..(r + 1) * k];
            match norms {
                Some(norms) => {
                    for ((key, w), n) in keys.iter_mut().zip(row).zip(norms) {
                        *key = descending_key(w.to_f32().abs() * n);
                    }
                }
                None => {
                    for (key, w) in keys.iter_mut().zip(row) {
                        *key = descending_key(w.to_f32().abs());
                    }
                }
            }
            for ((row, dst), keys) in row
                .chunks(group)
                .zip(dst.chunks_mut(group))
                .zip(keys.chunks(group))
            {
                scratch.keep_top(row, keys, keep.min(row.len()), dst);
            }
        }
    });
    DenseMatrix::from_vec(m, k, data)
}

/// Maps a metric to a `u32` whose ascending order is `f32::total_cmp`'s
/// descending order, so the selection runs on plain integers and NaN
/// and signed zeros rank exactly as `total_cmp` ranks them.
#[inline]
fn descending_key(metric: f32) -> u32 {
    let bits = metric.to_bits();
    let flip = ((bits as i32 >> 31) as u32) | 0x8000_0000;
    !(bits ^ flip)
}

/// The most key bits a histogram bucket is picked by: 4 096 buckets.
const MAX_BUCKET_BITS: u32 = 12;

/// One worker's scratch for the selection kernel, sized for its widest
/// group.
struct Selection {
    /// A key's bucket is its top `32 - shift` bits.
    shift: u32,
    /// Keys per bucket, cleared before each group.
    counts: Vec<u32>,
    /// The candidates' columns, ascending.
    cols: Vec<u32>,
    /// The candidates' keys, permuted by `select_nth_unstable`.
    keys: Vec<u32>,
}

impl Selection {
    /// Buckets by the top `log2(group)` key bits, two to
    /// [`MAX_BUCKET_BITS`]: never more buckets than keys, so clearing
    /// and walking the histogram costs at most one pass over the group.
    fn new(group: usize) -> Self {
        let bits = group.max(2).ilog2().min(MAX_BUCKET_BITS);
        Selection {
            shift: 32 - bits,
            counts: vec![0; 1 << bits],
            cols: vec![0; group],
            keys: vec![0; group],
        }
    }

    /// Copies the `keep` entries of `row` with the smallest `keys` into
    /// `dst` (which holds zeros). The `keep`-th key, the threshold, is
    /// found in two steps: a histogram over the keys' top bits finds its
    /// bucket and counts the keys below that bucket, then
    /// `select_nth_unstable` runs over the bucket's keys only. Every
    /// entry whose key is strictly below the threshold is kept by one
    /// branchless masked copy; entries equal to it are kept lowest
    /// column first until `keep` is reached.
    fn keep_top(&mut self, row: &[Half], keys: &[u32], keep: usize, dst: &mut [Half]) {
        if keep == 0 {
            return;
        }
        let shift = self.shift;
        self.counts.fill(0);
        for &key in keys {
            self.counts[(key >> shift) as usize] += 1;
        }
        let (mut bucket, mut below) = (0, 0);
        while below + (self.counts[bucket] as usize) < keep {
            below += self.counts[bucket] as usize;
            bucket += 1;
        }
        // The bucket's keys are `lo..=lo + span`.
        let lo = (bucket as u32) << shift;
        let span = u32::MAX >> (32 - shift);
        let mut n = 0;
        for (c, &key) in keys.iter().enumerate() {
            self.cols[n] = c as u32;
            n += usize::from(key.wrapping_sub(lo) <= span);
        }
        for (dk, &c) in self.keys.iter_mut().zip(&self.cols[..n]) {
            *dk = keys[c as usize];
        }
        let (less, &mut threshold, _) = self.keys[..n].select_nth_unstable(keep - 1 - below);
        let kept = below + less.iter().filter(|&&key| key < threshold).count();
        for ((d, &w), &key) in dst.iter_mut().zip(row).zip(keys) {
            *d = Half::from_bits(w.to_bits() & u16::from(key < threshold).wrapping_neg());
        }
        let mut ties = keep - kept;
        for &c in &self.cols[..n] {
            if ties == 0 {
                break;
            }
            let c = c as usize;
            if keys[c] == threshold {
                dst[c] = row[c];
                ties -= 1;
            }
        }
    }
}

/// In-place inversion of a symmetric positive-definite `n×n` matrix via
/// Gauss-Jordan with partial pivoting; result written to `out`.
fn invert_spd(a: &mut [f64], out: &mut [f64], n: usize) {
    // Initialise out = I.
    for v in out.iter_mut().take(n * n) {
        *v = 0.0;
    }
    for i in 0..n {
        out[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
                out.swap(col * n + j, piv * n + j);
            }
        }
        let d = a[col * n + col];
        assert!(d.abs() > 1e-12, "singular Hessian block");
        for j in 0..n {
            a[col * n + j] /= d;
            out[col * n + j] /= d;
        }
        for r in 0..n {
            if r != col {
                let f = a[r * n + col];
                if f != 0.0 {
                    for j in 0..n {
                        a[r * n + j] -= f * a[col * n + j];
                        out[r * n + j] -= f * out[col * n + j];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_dense, ValueDist};
    use proptest::prelude::*;

    fn base() -> (DenseMatrix, Calibration) {
        (
            random_dense(32, 128, ValueDist::Normal { std: 0.05 }, 101),
            Calibration::synthetic(128, 64, 102),
        )
    }

    #[test]
    fn magnitude_hits_target_sparsity() {
        let (w, _) = base();
        let p = magnitude_prune(&w, 0.5);
        assert!((p.sparsity() - 0.5).abs() < 0.02);
    }

    #[test]
    fn magnitude_keeps_largest() {
        let w = DenseMatrix::from_f32(1, 4, &[0.1, -0.9, 0.5, -0.2]);
        let p = magnitude_prune(&w, 0.5);
        assert!(p.get(0, 0).is_zero());
        assert_eq!(p.get(0, 1), Half::from_f32(-0.9));
        assert_eq!(p.get(0, 2), Half::from_f32(0.5));
        assert!(p.get(0, 3).is_zero());
    }

    #[test]
    fn wanda_differs_from_magnitude_under_skewed_activations() {
        let (w, c) = base();
        let pm = magnitude_prune(&w, 0.5);
        let pw = wanda_prune(&w, &c, 0.5);
        assert!((pw.sparsity() - 0.5).abs() < 0.02);
        assert_ne!(pm, pw, "heavy-tailed norms must change the kept set");
    }

    #[test]
    fn sparsegpt_hits_target_and_compensates() {
        let (w, c) = base();
        let p = sparsegpt_prune(&w, &c, 0.5, 32);
        assert!(
            (p.sparsity() - 0.5).abs() < 0.03,
            "sparsity {}",
            p.sparsity()
        );
        // Compensation must beat no-compensation (Wanda mask) on the
        // calibration output error.
        let pw = wanda_prune(&w, &c, 0.5);
        let err_gpt = output_error(&w, &p, &c);
        let err_wanda = output_error(&w, &pw, &c);
        assert!(
            err_gpt < err_wanda,
            "sparsegpt {err_gpt} should beat wanda {err_wanda}"
        );
    }

    fn output_error(dense: &DenseMatrix, pruned: &DenseMatrix, c: &Calibration) -> f64 {
        let yd = dense.matmul_ref(&c.activations);
        let yp = pruned.matmul_ref(&c.activations);
        let num: f64 = yd
            .iter()
            .zip(&yp)
            .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
            .sum();
        let den: f64 = yd.iter().map(|a| f64::from(*a) * f64::from(*a)).sum();
        (num / den.max(1e-12)).sqrt()
    }

    #[test]
    fn nm_prune_enforces_2_4_pattern() {
        let (w, _) = base();
        let p = nm_prune(&w, None, 2, 4);
        for r in 0..p.rows() {
            for g in (0..p.cols()).step_by(4) {
                let nnz = (g..(g + 4).min(p.cols()))
                    .filter(|&c| !p.get(r, c).is_zero())
                    .count();
                assert!(nnz <= 2, "row {r} group {g} has {nnz} non-zeros");
            }
        }
        assert!((p.sparsity() - 0.5).abs() < 0.05);
    }

    #[test]
    fn zero_sparsity_is_identity() {
        let (w, _) = base();
        assert_eq!(magnitude_prune(&w, 0.0), w);
    }

    #[test]
    fn full_sparsity_is_zero() {
        let (w, _) = base();
        assert_eq!(magnitude_prune(&w, 1.0).nnz(), 0);
    }

    /// Order-sensitive FNV-1a over the little-endian FP16 bit patterns.
    fn digest(m: &DenseMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in m.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Output-byte pins for the Wanda and N:M pruners. Odd `k` exercises
    /// the `keep` rounding and a ragged last N:M group.
    #[test]
    fn pruner_output_digests_are_pinned() {
        let w = random_dense(512, 1024, ValueDist::Normal { std: 0.05 }, 11);
        let c = Calibration::synthetic(1024, 32, 12);
        assert_eq!(digest(&wanda_prune(&w, &c, 0.6)), 0xd1ef_93af_9539_676f);
        let w = random_dense(300, 777, ValueDist::Normal { std: 0.05 }, 13);
        let c = Calibration::synthetic(777, 32, 14);
        assert_eq!(digest(&wanda_prune(&w, &c, 0.5)), 0x88a0_c76a_62f2_e0db);
        assert_eq!(digest(&nm_prune(&w, None, 2, 4)), 0xf06b_41c4_cf3d_35f9);
        assert_eq!(digest(&nm_prune(&w, Some(&c), 2, 4)), 0x11ca_c59e_1364_87af);
    }

    /// The sort this module's selection kernel replaced, kept as the
    /// reference: per group, a fresh `0..len` index stably sorted by
    /// metric descending, first `keep` kept — ties keep the lowest
    /// column.
    fn oracle(w: &DenseMatrix, norms: Option<&[f32]>, group: usize, keep: usize) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(w.rows(), w.cols());
        let metric = |r: usize, c: usize| {
            let base = w.get(r, c).to_f32().abs();
            norms.map_or(base, |n| base * n[c])
        };
        for r in 0..w.rows() {
            for g0 in (0..w.cols()).step_by(group) {
                let mut idx: Vec<usize> = (g0..(g0 + group).min(w.cols())).collect();
                idx.sort_by(|&a, &b| metric(r, b).total_cmp(&metric(r, a)));
                for &c in idx.iter().take(keep) {
                    out.set(r, c, w.get(r, c));
                }
            }
        }
        out
    }

    /// A small xorshift stream for building test matrices from a seed.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Values from a handful of FP16 magnitudes with both signs, so most
    /// rows tie at their threshold.
    fn tie_heavy(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut next = stream(seed);
        let data = (0..rows * cols)
            .map(|_| {
                let v = next();
                let mag = [0.25f32, 0.5, 1.0][(v % 3) as usize];
                Half::from_f32(if v & 8 == 0 { mag } else { -mag })
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// Random FP16 values laced with ±0, ±Inf, NaN and repeats.
    fn with_specials(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let specials = [
            0x0000u16, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE01, 0x3C00, 0xBC00,
        ];
        let mut next = stream(seed);
        let data = (0..rows * cols)
            .map(|_| {
                let v = next();
                Half::from_bits(if v.is_multiple_of(3) {
                    specials[(v >> 8) as usize % specials.len()]
                } else {
                    (v >> 16) as u16
                })
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    #[test]
    fn magnitude_ties_do_not_depend_on_other_rows() {
        let w = tie_heavy(64, 97, 5);
        let whole = magnitude_prune(&w, 0.6);
        for r in 0..w.rows() {
            let row =
                DenseMatrix::from_vec(1, w.cols(), w.as_slice()[r * 97..(r + 1) * 97].to_vec());
            let alone = magnitude_prune(&row, 0.6);
            assert_eq!(
                &whole.as_slice()[r * 97..(r + 1) * 97],
                alone.as_slice(),
                "row {r} depends on the rows above it"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pruners_match_the_sort_oracle(
            rows in prop::sample::select(vec![1usize, 2, 7, 33]),
            cols in prop::sample::select(vec![1usize, 2, 3, 4, 5, 31, 64, 101]),
            sparsity in prop::sample::select(vec![0.0f64, 0.25, 0.5, 0.6, 0.9, 1.0]),
            nm in prop::sample::select(vec![(0usize, 1usize), (1, 1), (2, 4), (1, 4), (4, 8), (3, 5)]),
            seed: u64,
        ) {
            let (n, m_group) = nm;
            let w = if seed.is_multiple_of(2) {
                with_specials(rows, cols, seed)
            } else {
                tie_heavy(rows, cols, seed)
            };
            // A zero feature norm turns an infinite weight into a NaN metric.
            let mut acts = random_dense(cols, 4, ValueDist::Normal { std: 1.0 }, seed);
            for s in 0..4 {
                acts.set(0, s, Half::ZERO);
            }
            let c = Calibration { activations: acts };
            let norms = c.feature_norms();
            let keep = ((cols as f64) * (1.0 - sparsity)).round() as usize;
            prop_assert_eq!(magnitude_prune(&w, sparsity), oracle(&w, None, cols, keep));
            prop_assert_eq!(wanda_prune(&w, &c, sparsity), oracle(&w, Some(&norms), cols, keep));
            prop_assert_eq!(nm_prune(&w, None, n, m_group), oracle(&w, None, m_group, n));
            prop_assert_eq!(nm_prune(&w, Some(&c), n, m_group), oracle(&w, Some(&norms), m_group, n));
        }
    }

    /// Metrics at the edges of the selection's key buckets: with
    /// `|w| = 1`, `1.0` (bits `0x3F80_0000`) is the top key of its
    /// bucket at every width up to 9 bits (groups up to 1 023 columns)
    /// and of its 12-bit bucket, `0x3F8F_FFFF` the bottom of that 12-bit
    /// bucket; the others sit one ULP across an edge.
    const BUCKET_EDGES: [u32; 6] = [
        0x3F7F_FFFF,
        0x3F80_0000,
        0x3F80_0001,
        0x3F8F_FFFE,
        0x3F8F_FFFF,
        0x3F90_0000,
    ];

    /// Group widths 4, 777 (a ragged last group at k = 4096) and 4096,
    /// against the sort oracle at every `keep` that matters: rows of
    /// Normal weights, of three tied magnitudes, of ±0/±Inf/NaN with
    /// zero norms (NaN and ±0 metrics), and of metrics on key-bucket
    /// edges, so the threshold lands on an edge from either side.
    #[test]
    fn selection_matches_the_oracle_at_wide_groups() {
        let k = 4096;
        let mut next = stream(77);
        let mut data = random_dense(2, k, ValueDist::Normal { std: 0.05 }, 78)
            .as_slice()
            .to_vec();
        data.extend_from_slice(tie_heavy(2, k, 79).as_slice());
        data.extend_from_slice(with_specials(2, k, 80).as_slice());
        data.extend((0..2 * k).map(|_| {
            let v = next();
            Half::from_f32([1.0f32, -1.0, 0.5][(v % 3) as usize])
        }));
        let w = DenseMatrix::from_vec(8, k, data);
        let edges: Vec<f32> = (0..k)
            .map(|_| f32::from_bits(BUCKET_EDGES[(next() % 6) as usize]))
            .collect();
        let mut norms = random_dense(1, k, ValueDist::Uniform, 81)
            .as_slice()
            .iter()
            .map(|h| h.to_f32().abs())
            .collect::<Vec<_>>();
        for c in (0..k).step_by(5) {
            norms[c] = 0.0;
        }
        for group in [4, 777, 4096] {
            let mid = [group / 3, group * 2 / 5, group / 2, group - 1, group];
            for keep in (0..=4).chain(mid).filter(|&n| n <= group) {
                for norms in [None, Some(&norms[..]), Some(&edges[..])] {
                    assert_eq!(
                        prune_top_per_group(&w, norms, group, keep),
                        oracle(&w, norms, group, keep),
                        "group {group} keep {keep} norms {}",
                        norms.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_is_byte_identical_at_any_job_count() {
        let w = with_specials(203, 130, 9);
        let c = Calibration::synthetic(130, 16, 10);
        let run = |jobs| {
            gpu_sim::exec::set_jobs(jobs);
            let out = (
                magnitude_prune(&w, 0.6),
                wanda_prune(&w, &c, 0.6),
                nm_prune(&w, Some(&c), 2, 4),
            );
            gpu_sim::exec::set_jobs(0);
            out
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(8), serial);
    }

    #[test]
    fn invert_spd_small_known() {
        // [[2,0],[0,4]]^-1 = [[0.5,0],[0,0.25]]
        let mut a = vec![2.0, 0.0, 0.0, 4.0];
        let mut out = vec![0.0; 4];
        invert_spd(&mut a, &mut out, 2);
        assert!((out[0] - 0.5).abs() < 1e-12);
        assert!((out[3] - 0.25).abs() < 1e-12);
        assert!(out[1].abs() < 1e-12);
    }
}
