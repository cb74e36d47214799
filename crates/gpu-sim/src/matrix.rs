//! Dense FP16 matrices and workload generators.
//!
//! The paper's SpMM computes `O[M×N] = Ws[M×K] × X[K×N]` where `Ws` is the
//! (sparse) weight matrix and `X` the dense activations. All host-side
//! matrices here are row-major FP16; reference products accumulate in FP32,
//! matching Tensor Core semantics.

use crate::fp16::Half;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::{BufferedRng, StdRng, BUFFER_WORDS};
use rand::{f32_from_word, Rng, RngCore, SeedableRng};

/// A dense row-major FP16 matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Half>,
}

impl DenseMatrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![Half::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Half>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix from row-major `f32` data (converted to FP16).
    pub fn from_f32(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols);
        DenseMatrix {
            rows,
            cols,
            data: data.iter().copied().map(Half::from_f32).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Half {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Half) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Half] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Half] {
        &mut self.data
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|h| !h.is_zero()).count()
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Storage footprint of the dense representation in bytes (2B/element),
    /// the numerator of the paper's compression-ratio metric (Eq. 1).
    pub fn dense_bytes(&self) -> usize {
        2 * self.rows * self.cols
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Reference matrix product `self × rhs` with FP32 accumulation.
    ///
    /// This is the golden model every simulated kernel is validated
    /// against; the output is FP32 to match the `mma` accumulator type.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_ref(&self, rhs: &DenseMatrix) -> Vec<f32> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        // Convert the right operand once: the f16→f32 conversion of
        // each rhs element is hoisted out of the per-output-row loop
        // (it is value-exact, so results are unchanged).
        let rhs_f32 = rhs.to_f32_vec();
        let mut out = vec![0.0f32; self.rows * rhs.cols];
        self.matmul_ref_rows(&rhs_f32, rhs.cols, 0..self.rows, &mut out);
        out
    }

    /// Row-major `f32` conversion of every element, in one batch LUT
    /// sweep ([`crate::fp16::f16_to_f32_vec`]).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        crate::fp16::f16_to_f32_vec(&self.data)
    }

    /// Serial inner loop of the reference product for output rows
    /// `rows`, writing into `out` (densely packed starting at the first
    /// requested row). `rhs_f32` is the pre-converted right operand with
    /// `n` columns. Shared by [`Self::matmul_ref`] and
    /// [`Self::par_matmul_ref`] so the accumulation order — ascending
    /// `k` per output row, skipping zero lhs elements — is identical by
    /// construction at every job count.
    fn matmul_ref_rows(
        &self,
        rhs_f32: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        let r0 = rows.start;
        // One reusable lhs-row conversion buffer per band: each row is
        // batch-converted through the FP16 LUT before the MAC loop. The
        // zero-skip test sees the identical f32 values (±0.0 included),
        // so the accumulation stream is unchanged.
        let mut lhs_f32 = vec![0.0f32; self.cols];
        for r in rows {
            crate::fp16::f16_to_f32_slice(
                &self.data[r * self.cols..(r + 1) * self.cols],
                &mut lhs_f32,
            );
            let out_row = &mut out[(r - r0) * n..(r - r0 + 1) * n];
            for (k, &a) in lhs_f32.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs_f32[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// [`DenseMatrix::matmul_ref`] fanned across host cores (see
    /// [`crate::exec`]).
    ///
    /// Each worker computes a contiguous band of output rows with the
    /// serial element loop, so every `out[r][c]` accumulates in the
    /// same order as `matmul_ref` and the result is bit-identical at
    /// any job count.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn par_matmul_ref(&self, rhs: &DenseMatrix) -> Vec<f32> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let n = rhs.cols;
        // One shared conversion of rhs, read by every worker — the
        // serial band loop previously re-converted each rhs element
        // once per output row.
        let rhs_f32 = rhs.to_f32_vec();
        let bands = crate::exec::par_chunks(self.rows, |rows| {
            let mut band = vec![0.0f32; rows.len() * n];
            self.matmul_ref_rows(&rhs_f32, n, rows, &mut band);
            band
        });
        bands.concat()
    }
}

/// Distribution of non-zero values in generated matrices.
#[derive(Clone, Copy, Debug)]
pub enum ValueDist {
    /// Uniform in `[-1, 1]`, quantised to FP16.
    Uniform,
    /// Approximately normal (sum of uniforms), scaled to the given std-dev.
    Normal { std: f32 },
}

/// Staging-chunk size (elements) shared by the batched generator paths:
/// one full [`BufferedRng`] refill's worth of words.
const GEN_CHUNK: usize = BUFFER_WORDS;

/// One `Uniform::new_inclusive(-1.0, 1.0)` draw applied to a raw word —
/// exactly `lo + u·(hi − lo)` with the `Standard` f32 mapping, the
/// expression `sample(rng, ValueDist::Uniform)` evaluates per element.
#[inline]
fn uniform_pm1(w: u64) -> f32 {
    -1.0f32 + f32_from_word(w) * 2.0f32
}

/// Generates a dense matrix with i.i.d. values (no sparsity).
///
/// Batched form of the element-at-a-time draw (one `sample` per
/// element), byte-identical by construction and pinned against it by
/// this module's tests: every element consumes a fixed
/// number of words — one for `Uniform`, twelve for `Normal` — so whole
/// chunks of raw words are mapped through the same per-word formulas
/// the serial draw path applies, then batch-converted to FP16.
pub fn random_dense(rows: usize, cols: usize, dist: ValueDist, seed: u64) -> DenseMatrix {
    let n = rows * cols;
    let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
    let mut data = vec![Half::ZERO; n];
    let mut tmp = [0.0f32; GEN_CHUNK];
    let mut i = 0;
    while i < n {
        let (words_per_elem, words) = match dist {
            ValueDist::Uniform => (1, rng.buffered(1)),
            ValueDist::Normal { .. } => (12, rng.buffered(12)),
        };
        let cnt = (words.len() / words_per_elem).min(n - i).min(GEN_CHUNK);
        match dist {
            ValueDist::Uniform => {
                for (slot, &w) in tmp[..cnt].iter_mut().zip(words) {
                    *slot = uniform_pm1(w);
                }
            }
            ValueDist::Normal { std } => {
                for (e, slot) in tmp[..cnt].iter_mut().enumerate() {
                    // Irwin-Hall: sum of 12 uniforms minus 6, summed in
                    // the same ascending-draw order as the serial path.
                    let mut s = 0.0f32;
                    for &w in &words[e * 12..e * 12 + 12] {
                        s += f32_from_word(w);
                    }
                    *slot = (s - 6.0) * std;
                }
            }
        }
        rng.advance(cnt * words_per_elem);
        crate::fp16::f32_to_f16_slice(&tmp[..cnt], &mut data[i..i + cnt]);
        i += cnt;
    }
    DenseMatrix::from_vec(rows, cols, data)
}

/// Generates a sparse matrix where each element is zero with probability
/// `sparsity`, matching the uniform-random model the paper uses for kernel
/// benchmarks (non-zeros follow `dist`). Exact zeros are re-rolled so that
/// "non-zero" positions genuinely carry non-zero values.
///
/// Batched form of the element-at-a-time draw (one gate draw, then the
/// re-rolling non-zero sample), byte-identical by construction and
/// pinned against it by this module's tests. `Uniform` non-zeros take the
/// chunked optimistic path (see `fill_sparse_uniform`); `Normal`
/// keeps the per-element draw loop — it is off the sweep hot path and
/// its re-roll probability is distribution-dependent.
pub fn random_sparse(
    rows: usize,
    cols: usize,
    sparsity: f64,
    dist: ValueDist,
    seed: u64,
) -> DenseMatrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let n = rows * cols;
    let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
    let mut data = vec![Half::ZERO; n];
    match dist {
        ValueDist::Uniform => fill_sparse_uniform(&mut rng, sparsity, &mut data, false),
        ValueDist::Normal { .. } => {
            for slot in data.iter_mut() {
                *slot = sparse_element(&mut rng, sparsity, dist);
            }
        }
    }
    DenseMatrix::from_vec(rows, cols, data)
}

/// One element of the serial sparse draw sequence: a gate draw, then
/// (if kept) the re-rolling non-zero sample.
#[inline]
fn sparse_element<R: RngCore>(rng: &mut R, sparsity: f64, dist: ValueDist) -> Half {
    if rng.gen::<f64>() < sparsity {
        Half::ZERO
    } else {
        nonzero_sample(rng, dist)
    }
}

/// Chunked optimistic filler for `Uniform` sparse matrices,
/// byte-identical to the serial per-element loop.
///
/// Each chunk peeks a run of buffered raw words and maps them through
/// the exact per-word draw formulas, assuming no kept draw lands on
/// exact `0.0` (the only case where the serial path would re-roll and
/// consume extra words). Uniform `[-1, 1]` samples are multiples of
/// 2⁻²³, which FP16 conversion only underflows to zero for `0.0`
/// itself, so `x == 0.0` detects the hazard exactly; it strikes with
/// probability 2⁻²⁴ per kept element. On a hit the chunk's words are
/// *not* consumed — the whole run is replayed through
/// [`sparse_element`], which re-serves the identical words from the
/// buffer and performs the true re-roll sequence.
///
/// `force_replay` pretends every chunk hit the hazard, driving the
/// replay path deterministically for tests (the rare path must also be
/// byte-faithful, including its word accounting across chunks).
fn fill_sparse_uniform(
    rng: &mut BufferedRng<StdRng>,
    sparsity: f64,
    data: &mut [Half],
    force_replay: bool,
) {
    // Integer form of the gate compare. `f64_from_word(w) = u · 2⁻⁵³`
    // with `u = w >> 11 < 2⁵³`, and both `u · 2⁻⁵³` (a 53-bit integer
    // scaled by a power of two) and `T = sparsity · 2⁵³` (a mantissa
    // rescaling, no overflow for sparsity ≤ 1) are exact, so the f64
    // compare `u · 2⁻⁵³ < sparsity` is the real-number compare `u < T`.
    // For integer `u` that is `u < ceil(T)` (when `T` is an integer,
    // `ceil(T) = T`), a pure integer compare per word.
    let thresh = (sparsity * 9007199254740992.0).ceil() as u64; // 2⁵³
    debug_assert!((0.0..=1.0).contains(&sparsity));
    let n = data.len();
    let mut tmp = [0.0f32; GEN_CHUNK];
    let mut i = 0;
    while i < n {
        // Worst case two words per element (gate + value).
        let words = rng.buffered(2);
        let avail = words.len();
        let lim = (n - i).min(GEN_CHUNK);
        let (wp, cnt, replay) = scan_sparse_run(words, thresh, &mut tmp, lim, avail, force_replay);
        let out = &mut data[i..i + cnt];
        if replay {
            // Rare path: leave the peeked words unconsumed and replay
            // the run through the exact serial logic.
            for slot in out.iter_mut() {
                *slot = sparse_element(rng, sparsity, ValueDist::Uniform);
            }
        } else {
            rng.advance(wp);
            crate::fp16::f32_to_f16_slice(&tmp[..cnt], out);
        }
        i += cnt;
    }
}

/// One optimistic run of the sparse scan: maps buffered words to `f32`
/// samples in `tmp` until `lim` elements are produced or fewer than two
/// words remain. Returns `(words consumed, elements produced, hazard)`.
/// Dispatch wrapper: see [`scan_sparse_run_generic`] for the logic.
#[inline]
fn scan_sparse_run(
    words: &[u64],
    thresh: u64,
    tmp: &mut [f32; GEN_CHUNK],
    lim: usize,
    avail: usize,
    force_replay: bool,
) -> (usize, usize, bool) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 requirement was just checked at runtime.
        return unsafe { scan_sparse_run_avx2(words, thresh, tmp, lim, avail, force_replay) };
    }
    scan_sparse_run_generic(words, thresh, tmp, lim, avail, force_replay)
}

/// The same scan compiled with AVX2/BMI enabled (see
/// [`crate::fp16::f32_to_f16_slice`] for why the baseline SSE2 build
/// can't vectorize these patterns). Identical arithmetic — invisible to
/// the stream-fidelity pins.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (which implies the BMI1
/// and LZCNT levels enabled here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
unsafe fn scan_sparse_run_avx2(
    words: &[u64],
    thresh: u64,
    tmp: &mut [f32; GEN_CHUNK],
    lim: usize,
    avail: usize,
    force_replay: bool,
) -> (usize, usize, bool) {
    scan_sparse_run_generic(words, thresh, tmp, lim, avail, force_replay)
}

#[inline]
fn scan_sparse_run_generic(
    words: &[u64],
    thresh: u64,
    tmp: &mut [f32; GEN_CHUNK],
    lim: usize,
    avail: usize,
    force_replay: bool,
) -> (usize, usize, bool) {
    let mut wp = 0usize;
    let mut cnt = 0usize;
    let mut replay = force_replay;

    // Block path: classify 64 words at once. Each block starts at a gate
    // word (the scalar loop below also always stops at element
    // boundaries), `k` collects per-word kept-gate decisions, and
    // [`value_word_mask`] splits the block into gate words and value
    // words without walking the serial word-position chain. Elements are
    // emitted in gate-word order — zeros via one bulk fill, kept values
    // by rank — which is exactly the serial emission order. A block
    // needs one lookahead word (`wp + 65`) in case bit 63 is a kept
    // gate, and room for its worst case of 64 elements.
    while wp + 65 <= avail && cnt + 64 <= lim {
        let mut k = 0u64;
        for (j, &w) in words[wp..wp + 64].iter().enumerate() {
            k |= u64::from((w >> 11) >= thresh) << j;
        }
        let gates = !value_word_mask(k);
        let elems = gates.count_ones() as usize;
        tmp[cnt..cnt + elems].fill(0.0);
        let mut kept_gates = gates & k;
        let consumed_lookahead = (kept_gates >> 63) as usize;
        while kept_gates != 0 {
            let j = kept_gates.trailing_zeros() as usize;
            kept_gates &= kept_gates - 1;
            let rank = (gates & ((1u64 << j) - 1)).count_ones() as usize;
            let x = uniform_pm1(words[wp + j + 1]);
            tmp[cnt + rank] = x;
            replay |= x == 0.0;
        }
        cnt += elems;
        wp += 64 + consumed_lookahead;
    }

    // Scalar tail: remaining elements / buffered words, one at a time.
    while cnt < lim && wp + 2 <= avail {
        let gate = (words[wp] >> 11) < thresh;
        let x = uniform_pm1(words[wp + 1]);
        wp += 2 - gate as usize;
        let kept = !gate;
        tmp[cnt] = if kept { x } else { 0.0 };
        replay |= kept && x == 0.0;
        cnt += 1;
    }
    (wp, cnt, replay)
}

/// Given that word 0 of a 64-word run is a gate word and bit `j` of `k`
/// says "word `j`'s draw keeps the element *if* word `j` is a gate",
/// returns the mask of words that are value words — the solution of
/// `v[j] = k[j-1] & !v[j-1]`, `v[0] = 0`: a word is a value word exactly
/// when an odd-length run of kept-gate bits immediately precedes it.
///
/// Branch-free run-parity form (the carry-propagation technique
/// simdjson uses for escaped-character masks): runs of `k` starting on
/// even positions keep their odd members, runs starting on odd
/// positions keep their even members, and one 64-bit add propagates
/// each run's start parity to its members. Pinned against the serial
/// recurrence in `value_word_mask_matches_serial_recurrence`.
#[inline]
fn value_word_mask(k: u64) -> u64 {
    const EVEN: u64 = 0x5555_5555_5555_5555;
    let follows_kept = k << 1;
    let odd_starts = k & !EVEN & !follows_kept;
    let (sum, _) = odd_starts.overflowing_add(k);
    let invert = sum << 1;
    (EVEN ^ invert) & follows_kept
}

/// Generates a sparse matrix with an *exact* number of non-zeros per row
/// (balanced), the pattern magnitude-style per-row pruning produces.
pub fn random_sparse_balanced(
    rows: usize,
    cols: usize,
    sparsity: f64,
    dist: ValueDist,
    seed: u64,
) -> DenseMatrix {
    assert!((0.0..=1.0).contains(&sparsity));
    let keep_per_row = ((cols as f64) * (1.0 - sparsity)).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = DenseMatrix::zeros(rows, cols);
    let mut idx: Vec<usize> = (0..cols).collect();
    for r in 0..rows {
        // Partial Fisher-Yates: choose `keep_per_row` distinct columns.
        for i in 0..keep_per_row.min(cols) {
            let j = rng.gen_range(i..cols);
            idx.swap(i, j);
        }
        for &c in idx.iter().take(keep_per_row) {
            out.set(r, c, nonzero_sample(&mut rng, dist));
        }
    }
    out
}

/// Generates an extremely sparse matrix whose non-zeros cluster into a
/// `block_density` fraction of `block×block` tiles (each chosen tile is
/// `fill` dense inside) — the structure of scientific/graph matrices that
/// block-skipping kernels like SMaT exploit (paper Fig. 11).
pub fn random_sparse_clustered(
    rows: usize,
    cols: usize,
    block: usize,
    block_density: f64,
    fill: f64,
    dist: ValueDist,
    seed: u64,
) -> DenseMatrix {
    assert!(block > 0);
    assert!((0.0..=1.0).contains(&block_density) && (0.0..=1.0).contains(&fill));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = DenseMatrix::zeros(rows, cols);
    for br in 0..rows.div_ceil(block) {
        for bc in 0..cols.div_ceil(block) {
            if rng.gen::<f64>() >= block_density {
                continue;
            }
            for lr in 0..block {
                for lc in 0..block {
                    let (r, c) = (br * block + lr, bc * block + lc);
                    if r < rows && c < cols && rng.gen::<f64>() < fill {
                        out.set(r, c, nonzero_sample(&mut rng, dist));
                    }
                }
            }
        }
    }
    out
}

fn sample<R: RngCore>(rng: &mut R, dist: ValueDist) -> f32 {
    match dist {
        ValueDist::Uniform => Uniform::new_inclusive(-1.0f32, 1.0).sample(rng),
        ValueDist::Normal { std } => {
            // Irwin-Hall approximation: sum of 12 uniforms minus 6 is ~N(0,1).
            let s: f32 = (0..12).map(|_| rng.gen::<f32>()).sum::<f32>() - 6.0;
            s * std
        }
    }
}

fn nonzero_sample<R: RngCore>(rng: &mut R, dist: ValueDist) -> Half {
    loop {
        let h = Half::from_f32(sample(rng, dist));
        if !h.is_zero() {
            return h;
        }
    }
}

/// Order-sensitive FNV-1a digest over the raw bit patterns of an FP32
/// buffer. Golden-output regression tests pin this value: any change to
/// a single output bit (or to the element order) changes the digest.
pub fn checksum_f32(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Maximum absolute difference between a kernel output and the reference.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Relative L2 error `‖a−b‖₂ / max(‖b‖₂, ε)`.
pub fn rel_l2_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        num += f64::from(x - y) * f64::from(x - y);
        den += f64::from(*y) * f64::from(*y);
    }
    (num.sqrt() / den.sqrt().max(1e-30)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original element-at-a-time generator [`random_dense`] batches:
    /// one `sample` draw per element. Retained as the stream oracle the
    /// batched path is pinned against.
    fn random_dense_oracle(rows: usize, cols: usize, dist: ValueDist, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(Half::from_f32(sample(&mut rng, dist)));
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// The original element-at-a-time generator [`random_sparse`] batches:
    /// one f64 gate draw per element, then the re-rolling non-zero sample
    /// for kept positions. Retained as the stream oracle the batched path
    /// is pinned against.
    fn random_sparse_oracle(
        rows: usize,
        cols: usize,
        sparsity: f64,
        dist: ValueDist,
        seed: u64,
    ) -> DenseMatrix {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(sparse_element(&mut rng, sparsity, dist));
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    #[test]
    fn zeros_has_full_sparsity() {
        let m = DenseMatrix::zeros(8, 8);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.sparsity(), 1.0);
        assert_eq!(m.dense_bytes(), 128);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(4, 6);
        m.set(2, 5, Half::from_f32(2.5));
        assert_eq!(m.get(2, 5).to_f32(), 2.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn transpose_involution() {
        let m = random_dense(7, 13, ValueDist::Uniform, 1);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn random_sparse_hits_target_sparsity() {
        let m = random_sparse(256, 256, 0.6, ValueDist::Uniform, 42);
        let s = m.sparsity();
        assert!((s - 0.6).abs() < 0.02, "sparsity {s}");
    }

    #[test]
    fn balanced_sparsity_is_exact_per_row() {
        let m = random_sparse_balanced(64, 100, 0.7, ValueDist::Uniform, 7);
        for r in 0..64 {
            let nnz_row = (0..100).filter(|&c| !m.get(r, c).is_zero()).count();
            assert_eq!(nnz_row, 30, "row {r}");
        }
    }

    #[test]
    fn matmul_ref_identity() {
        let mut id = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            id.set(i, i, Half::ONE);
        }
        let x = random_dense(4, 3, ValueDist::Uniform, 3);
        let y = id.matmul_ref(&x);
        for r in 0..4 {
            for c in 0..3 {
                assert_eq!(y[r * 3 + c], x.get(r, c).to_f32());
            }
        }
    }

    #[test]
    fn matmul_ref_small_known() {
        // [1 2; 3 4] x [5; 6] = [17; 39]
        let a = DenseMatrix::from_f32(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_f32(2, 1, &[5.0, 6.0]);
        assert_eq!(a.matmul_ref(&b), vec![17.0, 39.0]);
    }

    #[test]
    fn par_matmul_ref_is_bit_identical_to_serial() {
        let a = random_sparse(97, 130, 0.6, ValueDist::Uniform, 11);
        let x = random_dense(130, 13, ValueDist::Uniform, 12);
        assert_eq!(a.par_matmul_ref(&x), a.matmul_ref(&x));
    }

    #[test]
    fn error_metrics() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.5, 3.0];
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(rel_l2_error(&a, &a) < 1e-12);
    }

    #[test]
    fn clustered_generator_concentrates_nonzeros() {
        let m = random_sparse_clustered(256, 256, 16, 0.1, 0.8, ValueDist::Uniform, 17);
        // Count non-empty 16x16 blocks.
        let mut nonempty = 0;
        for br in 0..16 {
            for bc in 0..16 {
                let any = (0..16)
                    .any(|lr| (0..16).any(|lc| !m.get(br * 16 + lr, bc * 16 + lc).is_zero()));
                if any {
                    nonempty += 1;
                }
            }
        }
        let density = f64::from(nonempty) / 256.0;
        assert!((density - 0.1).abs() < 0.07, "block density {density}");
        // Overall sparsity is extreme even though blocks are dense inside.
        assert!(m.sparsity() > 0.88);
    }

    #[test]
    fn normal_dist_generates_fp16_range_values() {
        let m = random_dense(32, 32, ValueDist::Normal { std: 0.02 }, 9);
        assert!(m.as_slice().iter().all(|h| !h.is_nan() && !h.is_infinite()));
    }

    #[test]
    fn batched_dense_generator_matches_oracle() {
        // Shapes straddling the chunk size, both distributions.
        for (r, c) in [(1, 1), (3, 5), (16, 32), (7, 111), (64, 64), (37, 53)] {
            for dist in [ValueDist::Uniform, ValueDist::Normal { std: 0.02 }] {
                for seed in [0u64, 1, 42, u64::MAX] {
                    let a = random_dense(r, c, dist, seed);
                    let b = random_dense_oracle(r, c, dist, seed);
                    assert_eq!(a, b, "dense {r}x{c} {dist:?} seed {seed}");
                }
            }
        }
    }

    /// Serial form of the [`value_word_mask`] recurrence
    /// `v[j] = k[j-1] & !v[j-1]`, `v[0] = 0`.
    fn value_word_mask_serial(k: u64) -> u64 {
        let mut v = 0u64;
        for j in 1..64 {
            let prev_gate_kept = (k >> (j - 1)) & 1 == 1 && (v >> (j - 1)) & 1 == 0;
            v |= u64::from(prev_gate_kept) << j;
        }
        v
    }

    #[test]
    fn value_word_mask_matches_serial_recurrence() {
        // Structured patterns: empty, full, alternating phases, run
        // boundaries at the word edges, single bits.
        let structured = [
            0u64,
            !0,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            1,
            1 << 63,
            0b111,
            0b110,
            (1 << 63) | (1 << 62),
            !0 << 60,
            !0 >> 60,
            0x00FF_FF00_0FF0_F0F0,
        ];
        for k in structured {
            assert_eq!(value_word_mask(k), value_word_mask_serial(k), "k={k:#018x}");
        }
        // And a deterministic pseudo-random sweep.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4096 {
            let k = rng.next_u64();
            assert_eq!(value_word_mask(k), value_word_mask_serial(k), "k={k:#018x}");
        }
    }

    #[test]
    fn batched_sparse_generator_matches_oracle() {
        // Shapes above 129 words exercise the 64-word block classifier;
        // the small ones exercise the scalar tail only.
        for (r, c) in [(1, 1), (16, 32), (7, 111), (64, 64), (129, 65), (200, 173)] {
            for sparsity in [0.0, 0.3, 0.6, 0.95, 1.0] {
                for seed in [0u64, 7, 42] {
                    let a = random_sparse(r, c, sparsity, ValueDist::Uniform, seed);
                    let b = random_sparse_oracle(r, c, sparsity, ValueDist::Uniform, seed);
                    assert_eq!(a, b, "sparse {r}x{c} s={sparsity} seed {seed}");
                }
            }
        }
        // Normal keeps the serial element loop but now runs buffered.
        let a = random_sparse(48, 48, 0.5, ValueDist::Normal { std: 0.02 }, 5);
        let b = random_sparse_oracle(48, 48, 0.5, ValueDist::Normal { std: 0.02 }, 5);
        assert_eq!(a, b);
    }

    /// The optimistic filler's rare path — decline to consume the
    /// peeked words and replay the run serially — must also be
    /// byte-faithful, including word accounting across chunk
    /// boundaries. The 2⁻²⁴-per-element hazard never fires organically
    /// at test sizes, so force it on every chunk.
    #[test]
    fn sparse_replay_path_matches_oracle() {
        for (r, c) in [(16, 32), (7, 111), (129, 65)] {
            for sparsity in [0.0, 0.3, 0.6, 1.0] {
                for seed in [0u64, 7, 42] {
                    let n = r * c;
                    let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
                    let mut data = vec![Half::ZERO; n];
                    fill_sparse_uniform(&mut rng, sparsity, &mut data, true);
                    let replayed = DenseMatrix::from_vec(r, c, data);
                    let oracle = random_sparse_oracle(r, c, sparsity, ValueDist::Uniform, seed);
                    assert_eq!(replayed, oracle, "replay {r}x{c} s={sparsity} seed {seed}");
                }
            }
        }
    }
}
