//! Dense FP16 matrices and workload generators.
//!
//! The paper's SpMM computes `O[M×N] = Ws[M×K] × X[K×N]` where `Ws` is the
//! (sparse) weight matrix and `X` the dense activations. All host-side
//! matrices here are row-major FP16; reference products accumulate in FP32,
//! matching Tensor Core semantics.

use crate::cpu::Simd;
use crate::fp16::{f32_to_f16_slice, Half};
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

    /// Row-major `f32` conversion of every element.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        self.data.iter().map(|h| h.to_f32()).collect()
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
        // batch-converted before the MAC loop. The
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
/// the widest window of words [`BufferedRng::buffered`] returns.
const GEN_CHUNK: usize = BUFFER_WORDS;

/// Raw words one `Normal` value consumes: the twelve uniforms of its
/// Irwin-Hall sum.
const NORMAL_WORDS: usize = 12;

/// One `Uniform::new_inclusive(-1.0, 1.0)` draw applied to a raw word —
/// exactly `lo + u·(hi − lo)` with the `Standard` f32 mapping, the
/// expression `sample(rng, ValueDist::Uniform)` evaluates per element.
#[inline]
fn uniform_pm1(w: u64) -> f32 {
    -1.0f32 + f32_from_word(w) * 2.0f32
}

/// One `Normal { std }` value from its raw words: the Irwin-Hall sum of
/// twelve `Standard` f32 uniforms in ascending draw order, minus 6
/// (≈ N(0, 1)), times `std`. The one formula every generator path uses.
#[inline]
fn irwin_hall(words: &[u64; NORMAL_WORDS], std: f32) -> f32 {
    let mut s = 0.0f32;
    for &w in words {
        s += f32_from_word(w);
    }
    (s - 6.0) * std
}

/// Rejects a `Normal` scale whose non-zero draws could never leave FP16
/// zero, which would make the re-rolling sampler spin forever.
fn assert_nonzero_dist(dist: ValueDist) {
    if let ValueDist::Normal { std } = dist {
        assert!(
            std.is_finite() && !Half::from_f32(std).is_zero(),
            "Normal std must be finite and non-zero in FP16"
        );
    }
}

/// Generates a dense matrix with i.i.d. values (no sparsity).
///
/// Batched form of the element-at-a-time draw (one `sample` per
/// element), byte-identical by construction and pinned against it by
/// this module's tests: every element consumes a fixed
/// number of words — one for `Uniform`, twelve for `Normal` — so whole
/// chunks of raw words are mapped through the same per-word formulas
/// the serial draw path applies, then batch-converted to FP16.
///
/// An entry point: the whole matrix fills inside one
/// [`Simd::vectorize`] region where [`Simd::detect`] finds the features.
pub fn random_dense(rows: usize, cols: usize, dist: ValueDist, seed: u64) -> DenseMatrix {
    let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
    let mut data = vec![Half::ZERO; rows * cols];
    // A `move` closure would copy the generator: hand it references.
    let (rng, out) = (&mut rng, data.as_mut_slice());
    match Simd::detect() {
        Some(s) => s.vectorize(
            #[inline(always)]
            move || fill_dense(rng, dist, out),
        ),
        None => fill_dense(rng, dist, out),
    }
    DenseMatrix::from_vec(rows, cols, data)
}

/// The body of [`random_dense`]: `data` in chunks of mapped raw words,
/// each batch-converted to FP16.
#[inline(always)]
fn fill_dense(rng: &mut BufferedRng<StdRng>, dist: ValueDist, data: &mut [Half]) {
    let n = data.len();
    let mut tmp = [0.0f32; GEN_CHUNK];
    let mut i = 0;
    while i < n {
        let (words_per_elem, words) = match dist {
            ValueDist::Uniform => (1, rng.buffered(1)),
            ValueDist::Normal { .. } => (NORMAL_WORDS, rng.buffered(NORMAL_WORDS)),
        };
        let cnt = (words.len() / words_per_elem).min(n - i).min(GEN_CHUNK);
        match dist {
            ValueDist::Uniform => {
                for (slot, &w) in tmp[..cnt].iter_mut().zip(words) {
                    *slot = uniform_pm1(w);
                }
            }
            ValueDist::Normal { std } => {
                for (slot, w) in tmp[..cnt].iter_mut().zip(words.as_chunks().0) {
                    *slot = irwin_hall(w, std);
                }
            }
        }
        rng.advance(cnt * words_per_elem);
        f32_to_f16_slice(&tmp[..cnt], &mut data[i..i + cnt]);
        i += cnt;
    }
}

/// Generates a sparse matrix where each element is zero with probability
/// `sparsity`, matching the uniform-random model the paper uses for kernel
/// benchmarks (non-zeros follow `dist`). Exact zeros are re-rolled so that
/// "non-zero" positions genuinely carry non-zero values.
///
/// Batched form of the element-at-a-time draw (one gate draw, then the
/// re-rolling non-zero sample), byte-identical by construction and
/// pinned against it by this module's tests. Both distributions take
/// the chunked bitmask walk (see `fill_sparse`).
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`, or if a `Normal` std is not
/// finite or rounds to FP16 zero.
pub fn random_sparse(
    rows: usize,
    cols: usize,
    sparsity: f64,
    dist: ValueDist,
    seed: u64,
) -> DenseMatrix {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    assert_nonzero_dist(dist);
    let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
    let mut data = vec![Half::ZERO; rows * cols];
    fill_sparse(&mut rng, sparsity, dist, &mut data, false);
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

/// Chunked optimistic filler for sparse matrices of either
/// distribution, byte-identical to the serial [`sparse_element`] loop.
///
/// Each chunk walks the buffered raw words as the serial loop would
/// consume them ([`scan_sparse`]), assuming no kept value rounds to FP16
/// zero — the only case where the serial path re-rolls and draws extra
/// words — and batch-converts the chunk to FP16. The hazard test is then
/// exact: a kept element converted to zero. It strikes with probability
/// 2⁻²⁴ per kept `Uniform` element (only `0.0` itself underflows) and
/// with a `std`-dependent probability for `Normal`. On a hit the
/// chunk's words are *not* consumed — the chunk is replayed through
/// [`sparse_element`], which re-serves the identical words from the
/// buffer and performs the true re-roll sequence.
///
/// `force_replay` pretends every chunk hit the hazard, driving the
/// replay path deterministically for tests (the rare path must also be
/// byte-faithful, including its word accounting across chunks).
///
/// An entry point: the whole matrix fills inside one
/// [`Simd::vectorize`] region where [`Simd::detect`] finds the features.
fn fill_sparse(
    rng: &mut BufferedRng<StdRng>,
    sparsity: f64,
    dist: ValueDist,
    data: &mut [Half],
    force_replay: bool,
) {
    match Simd::detect() {
        Some(s) => s.vectorize(
            #[inline(always)]
            move || fill_sparse_chunks(rng, sparsity, dist, data, force_replay),
        ),
        None => fill_sparse_chunks(rng, sparsity, dist, data, force_replay),
    }
}

/// The body of [`fill_sparse`].
#[inline(always)]
fn fill_sparse_chunks(
    rng: &mut BufferedRng<StdRng>,
    sparsity: f64,
    dist: ValueDist,
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
        let chunk = &mut tmp[..(n - i).min(GEN_CHUNK)];
        let (wp, cnt, kept) = match dist {
            ValueDist::Uniform => scan_sparse(rng, thresh, chunk, |w: &[u64; 1]| uniform_pm1(w[0])),
            ValueDist::Normal { std } => scan_sparse(rng, thresh, chunk, |w| irwin_hall(w, std)),
        };
        debug_assert!(cnt > 0, "the sparse walk made no progress");
        let out = &mut data[i..i + cnt];
        f32_to_f16_slice(&tmp[..cnt], out);
        if force_replay || out.iter().filter(|h| !h.is_zero()).count() != kept {
            for slot in out.iter_mut() {
                *slot = sparse_element(rng, sparsity, dist);
            }
        } else {
            rng.advance(wp);
        }
        i += cnt;
    }
}

/// One optimistic chunk of the sparse walk over the buffered words,
/// with `W` value words per kept element: fills `tmp` from the front
/// and returns `(words walked, elements produced, kept elements)`
/// without consuming anything. Always inlined, so inside
/// [`fill_sparse`]'s [`Simd::vectorize`] region the whole walk compiles
/// with the features (see [`crate::fp16::f32_to_f16_slice`] for why the
/// baseline SSE2 build can't vectorize these patterns): identical
/// arithmetic, invisible to the stream-fidelity pins.
#[inline(always)]
fn scan_sparse<const W: usize>(
    rng: &mut BufferedRng<StdRng>,
    thresh: u64,
    tmp: &mut [f32],
    value: impl Fn(&[u64; W]) -> f32,
) -> (usize, usize, usize) {
    let words = rng.buffered(1 + W);
    // A gate below `end` has all `W` of its value words peeked, so its
    // element is decidable whether it is kept or dropped.
    let end = words.len() - W;
    // Bit `j` of the mask: word `j`, read as a gate, keeps its element.
    // Value words get a bit too; the walk skips them. Bits from `end` on
    // stay clear.
    let mut kept_bits = [0u64; BUFFER_WORDS / 64];
    let (full, tail) = words[..end].as_chunks::<64>();
    for (k, block) in kept_bits.iter_mut().zip(full) {
        for (j, &w) in block.iter().enumerate() {
            *k |= u64::from((w >> 11) >= thresh) << j;
        }
    }
    for (j, &w) in tail.iter().enumerate() {
        kept_bits[end / 64] |= u64::from((w >> 11) >= thresh) << j;
    }
    // Dropped elements are zeros, written in bulk up front: the walk only
    // stores kept values. `wp` is the gate position of the next element.
    let lim = tmp.len();
    tmp[..lim.min(end)].fill(0.0);
    let gate_and_values = (1u64 << (W + 1)) - 1;
    let (mut wp, mut cnt, mut kept) = (0usize, 0usize, 0usize);
    for (q, &bits) in kept_bits[..end.div_ceil(64)].iter().enumerate() {
        // This block's kept gates, minus words the walk has already
        // passed: the value words of the previous block's last kept
        // element may spill into it. An all-clear block is 64 dropped
        // elements, not the end of the walk.
        let mut m = bits & (u64::MAX << wp.saturating_sub(q * 64));
        while m != 0 {
            // The lowest set bit is the next kept gate `p`: `wp..p` are
            // dropped elements, one word each, and the bits of `p`'s
            // value words are not gates.
            let tz = m.trailing_zeros() as usize;
            m &= !(gate_and_values << tz);
            let p = q * 64 + tz;
            if cnt + (p - wp) >= lim {
                return (wp + (lim - cnt), lim, kept);
            }
            cnt += p - wp;
            tmp[cnt] = value(words[p + 1..].first_chunk().expect("value words peeked"));
            cnt += 1;
            kept += 1;
            wp = p + 1 + W;
        }
    }
    // Dropped gates after the last kept element, up to `end`.
    let z = end.saturating_sub(wp).min(lim - cnt);
    (wp + z, cnt + z, kept)
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
    assert_nonzero_dist(dist);
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
        ValueDist::Normal { std } => irwin_hall(&std::array::from_fn(|_| rng.next_u64()), std),
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
    crate::counters::fnv1a64(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Maximum absolute difference between a kernel output and the reference.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
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
    fn from_f32_roundtrip() {
        let m = DenseMatrix::from_f32(2, 2, &[0.5, -1.25, 2.0, 0.0]);
        assert_eq!(m.get(0, 1).to_f32(), -1.25);
        assert_eq!(m.get(1, 1).to_f32(), 0.0);
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

    /// Both distributions, with Normal scales whose kept draws re-roll
    /// (round to FP16 zero) at about 0.02 % (1e-4) and 2 % (1e-6) of
    /// kept elements, so replayed chunks occur without forcing them.
    const SPARSE_DISTS: [ValueDist; 4] = [
        ValueDist::Uniform,
        ValueDist::Normal { std: 0.02 },
        ValueDist::Normal { std: 1e-4 },
        ValueDist::Normal { std: 1e-6 },
    ];

    #[test]
    fn batched_sparse_generator_matches_oracle() {
        // Shapes from one element to several chunks; the larger ones
        // cross 512-word buffer refills mid-chunk for both word widths.
        for (r, c) in [(1, 1), (16, 32), (7, 111), (64, 64), (129, 65), (200, 173)] {
            for sparsity in [0.0, 0.3, 0.6, 0.95, 1.0] {
                for seed in [0u64, 7, 42] {
                    for dist in SPARSE_DISTS {
                        let a = random_sparse(r, c, sparsity, dist, seed);
                        let b = random_sparse_oracle(r, c, sparsity, dist, seed);
                        assert_eq!(a, b, "sparse {r}x{c} s={sparsity} {dist:?} seed {seed}");
                    }
                }
            }
        }
    }

    /// Where the host has the [`Simd`] features the entry fills inside
    /// `vectorize`; the body called directly is the baseline copy a host
    /// without them runs. Both must write the same bytes.
    #[test]
    fn dense_body_outside_the_region_matches_the_entry() {
        for (r, c) in [(3, 5), (7, 111), (64, 64)] {
            for dist in [ValueDist::Uniform, ValueDist::Normal { std: 0.02 }] {
                let mut rng = BufferedRng::new(StdRng::seed_from_u64(9));
                let mut data = vec![Half::ZERO; r * c];
                fill_dense(&mut rng, dist, &mut data);
                let body = DenseMatrix::from_vec(r, c, data);
                assert_eq!(body, random_dense(r, c, dist, 9), "dense {r}x{c} {dist:?}");
            }
        }
    }

    /// [`dense_body_outside_the_region_matches_the_entry`] for the sparse
    /// walk, on both the optimistic and the replay path.
    #[test]
    fn sparse_body_outside_the_region_matches_the_entry() {
        for (r, c) in [(16, 32), (129, 65)] {
            for sparsity in [0.0, 0.6, 0.95] {
                for dist in SPARSE_DISTS {
                    for replay in [false, true] {
                        let fill = |entry: bool| {
                            let mut rng = BufferedRng::new(StdRng::seed_from_u64(11));
                            let mut data = vec![Half::ZERO; r * c];
                            if entry {
                                fill_sparse(&mut rng, sparsity, dist, &mut data, replay);
                            } else {
                                fill_sparse_chunks(&mut rng, sparsity, dist, &mut data, replay);
                            }
                            data
                        };
                        assert_eq!(
                            fill(false),
                            fill(true),
                            "sparse {r}x{c} s={sparsity} {dist:?} replay {replay}"
                        );
                    }
                }
            }
        }
    }

    /// The optimistic filler's rare path — decline to consume the
    /// peeked words and replay the run serially — must also be
    /// byte-faithful, including word accounting across chunk
    /// boundaries. Force it on every chunk.
    #[test]
    fn sparse_replay_path_matches_oracle() {
        for (r, c) in [(16, 32), (7, 111), (129, 65)] {
            for sparsity in [0.0, 0.3, 0.6, 1.0] {
                for seed in [0u64, 7, 42] {
                    for dist in SPARSE_DISTS {
                        let mut rng = BufferedRng::new(StdRng::seed_from_u64(seed));
                        let mut data = vec![Half::ZERO; r * c];
                        fill_sparse(&mut rng, sparsity, dist, &mut data, true);
                        let replayed = DenseMatrix::from_vec(r, c, data);
                        let oracle = random_sparse_oracle(r, c, sparsity, dist, seed);
                        assert_eq!(
                            replayed, oracle,
                            "replay {r}x{c} s={sparsity} {dist:?} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    /// A chunk ends only when it is full or when the next element could
    /// need more words than were peeked — an all-clear 64-bit window of
    /// gates is 64 dropped elements, not the end of the walk.
    #[test]
    fn sparse_walk_ends_chunk_only_when_full_or_out_of_words() {
        fn check<const W: usize>(sparsity: f64, lim: usize) {
            let thresh = (sparsity * 9007199254740992.0).ceil() as u64;
            let mut rng = BufferedRng::new(StdRng::seed_from_u64(3));
            let mut tmp = [0.0f32; GEN_CHUNK];
            for chunk in 0..64 {
                let (wp, cnt, _) =
                    scan_sparse(&mut rng, thresh, &mut tmp[..lim], |_: &[u64; W]| 1.0);
                let peeked = rng.buffered(0).len();
                assert!(
                    cnt == lim || wp + 1 + W > peeked,
                    "W={W} s={sparsity} lim={lim} chunk {chunk}: stopped at word {wp} of {peeked} after {cnt}"
                );
                rng.advance(wp);
            }
        }
        for sparsity in [0.0, 0.6, 0.9, 0.95, 0.98, 0.999, 1.0] {
            for lim in [1, 63, 64, 65, 200, GEN_CHUNK] {
                check::<1>(sparsity, lim);
                check::<NORMAL_WORDS>(sparsity, lim);
            }
        }
    }

    /// Absolute pins of the generator's bytes at 1024×1024: a change
    /// that moves the batched path and the oracle together (their shared
    /// Irwin-Hall formula, say) still fails here.
    #[test]
    fn random_sparse_matches_pinned_digests() {
        let pins = [
            (ValueDist::Uniform, 0.3, 0x90b2_e00b_1795_db7b),
            (ValueDist::Uniform, 0.6, 0xe325_602e_b24e_5c2a),
            (ValueDist::Uniform, 0.9, 0x54e5_c41a_5b74_fdd7),
            (ValueDist::Normal { std: 0.02 }, 0.3, 0xcc9f_504b_b0d1_1602),
            (ValueDist::Normal { std: 0.02 }, 0.6, 0xa7a8_cf70_1a55_3518),
            (ValueDist::Normal { std: 0.02 }, 0.9, 0x2445_4b4f_5e1d_1006),
        ];
        for (dist, sparsity, pin) in pins {
            let m = random_sparse(1024, 1024, sparsity, dist, 7);
            let digest = checksum_f32(&m.to_f32_vec());
            assert_eq!(digest, pin, "{dist:?} s={sparsity}: {digest:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "Normal std must be finite and non-zero in FP16")]
    fn zero_normal_std_is_rejected() {
        random_sparse(4, 4, 0.5, ValueDist::Normal { std: 0.0 }, 1);
    }

    #[test]
    #[should_panic(expected = "Normal std must be finite and non-zero in FP16")]
    fn nan_normal_std_is_rejected() {
        random_sparse(4, 4, 0.5, ValueDist::Normal { std: f32::NAN }, 1);
    }

    #[test]
    #[should_panic(expected = "Normal std must be finite and non-zero in FP16")]
    fn subnormal_normal_std_is_rejected() {
        random_sparse_clustered(4, 4, 2, 1.0, 1.0, ValueDist::Normal { std: 1e-9 }, 1);
    }
}
