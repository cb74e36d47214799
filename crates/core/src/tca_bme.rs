//! Tensor-Core-Aware Bitmap Encoding (TCA-BME), paper §4.2.
//!
//! The format partitions the weight matrix into three tile levels aligned
//! with GPU hardware:
//!
//! * **BitmapTile (BT)** — 8×8, the Tensor Core's minimum matrix unit. A
//!   `u64` bitmap marks non-zero positions; bit `i` corresponds to the
//!   row-major element `i` of the tile, so lane `l` of a warp owns bits
//!   `2l` and `2l + 1` (matching the `mma` fragment layout).
//! * **TCTile (TT)** — 16×16 = 2×2 BitmapTiles stored *column-major*
//!   (top-left, bottom-left, top-right, bottom-right), matching the
//!   `Ra0..Ra3` registers of `mma.m16n8k16`.
//! * **GroupTile (GT)** — `GT_H × GT_W` elements, the thread-block work
//!   unit. TCTiles within a GroupTile are column-major; GroupTiles
//!   themselves are row-major over the matrix.
//!
//! Storage uses three arrays (paper Eq. 9):
//! `GTileOffset` (`u32`, `NGT + 1` entries), `Values` (non-zeros in
//! nested tile order, padded per GroupTile to an 8-byte boundary for
//! `LDGSTS.128`), and `Bitmap` (`u64` per BitmapTile).
//!
//! The container is generic over the value precision
//! ([`crate::payload::Payload`]): [`TcaBme`] is the FP16 instantiation
//! the paper describes, and [`TcaBmeInt8`] pairs an `i8` instantiation
//! with per-GroupTile `f32` scales for the quantized deployment path.
//! All offset/bitmap/geometry machinery — validation, checksums,
//! storage accounting, tile accessors — is shared, not cloned.

use crate::error::IntegrityError;
use crate::payload::Payload;
use gpu_sim::cpu::Simd;
use gpu_sim::fp16::{self, Half};
use gpu_sim::matrix::DenseMatrix;
use std::ops::Range;

/// FNV-1a (32-bit) over one GroupTile's image: bitmaps (LE bytes) then
/// values (LE payload bytes, *including* alignment padding — padding is
/// part of the bytes `LDGSTS.128` moves, so a flip there must still be
/// detected). Free function so the checked kernel can checksum its
/// shared-memory copy without owning a [`TcaBmeOf`]. For FP16 values
/// the byte stream — and therefore every stored v2 checksum — is
/// exactly the pre-generic implementation's.
pub fn checksum_gtile<P: Payload>(bitmaps: &[u64], values: &[P]) -> u32 {
    let mut h = FNV_OFFSET;
    for bm in bitmaps {
        for b in bm.to_le_bytes() {
            h = fnv_step(h, b);
        }
    }
    for v in values {
        v.feed_checksum(|b| h = fnv_step(h, b));
    }
    h
}

/// FNV-1a's 32-bit offset basis.
const FNV_OFFSET: u32 = 0x811c_9dc5;

/// One FNV-1a byte step.
#[inline(always)]
fn fnv_step(h: u32, b: u8) -> u32 {
    (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
}

/// [`checksum_gtile`] of GroupTiles `first..first + out.len()` into
/// `out`, four tiles' chains stepped in lockstep: each step's multiply
/// waits on the one before it, so one chain leaves the multiplier idle
/// most of the time, and four independent ones fill it. The bitmap
/// streams have one length; the value streams run together to the
/// shortest one, then each finishes alone. Every chain sees its own
/// bytes in its own order, so each sum is [`checksum_gtile`]'s.
fn checksum_band<P: Payload>(w: &TcaBmeOf<P>, first: usize, out: &mut [u32]) {
    let tail = first + out.len() / 4 * 4;
    let mut quads = out.chunks_exact_mut(4);
    for (gt, sums) in (first..).step_by(4).zip(quads.by_ref()) {
        let bms: [&[u64]; 4] = std::array::from_fn(|i| w.gtile_bitmaps(gt + i));
        let vals: [&[P]; 4] = std::array::from_fn(|i| w.gtile_values(gt + i));
        let mut h = [FNV_OFFSET; 4];
        for j in 0..bms[0].len() {
            let words = bms.map(|bm| bm[j].to_le_bytes());
            for byte in 0..8 {
                for t in 0..4 {
                    h[t] = fnv_step(h[t], words[t][byte]);
                }
            }
        }
        let common = vals.iter().map(|v| v.len()).min().unwrap_or(0);
        for i in 0..common {
            for t in 0..4 {
                vals[t][i].feed_checksum(|b| h[t] = fnv_step(h[t], b));
            }
        }
        for t in 0..4 {
            for v in &vals[t][common..] {
                v.feed_checksum(|b| h[t] = fnv_step(h[t], b));
            }
        }
        sums.copy_from_slice(&h);
    }
    for (gt, sum) in (tail..).zip(quads.into_remainder()) {
        *sum = w.gtile_checksum(gt);
    }
}

/// Height and width of a BitmapTile in elements.
pub const BT_DIM: usize = 8;
/// Height and width of a TCTile in elements.
pub const TT_DIM: usize = 16;
/// BitmapTiles per TCTile.
pub const BTS_PER_TT: usize = 4;
/// Value-array padding granularity in elements, ensuring every
/// GroupTile's FP16 values start 8-byte aligned (8 bytes / 2 bytes
/// each). The INT8 container keeps the same 4-element granularity: its
/// GroupTile spans start 4-byte aligned, still a legal `LDGSTS` word,
/// and quantization preserves the FP16 span layout element-for-element.
pub const VALUE_PAD: usize = 4;

/// Tiling configuration for the GroupTile level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcaBmeConfig {
    /// GroupTile height in elements (multiple of 16).
    pub gt_rows: usize,
    /// GroupTile width in elements (multiple of 16).
    pub gt_cols: usize,
}

impl Default for TcaBmeConfig {
    fn default() -> Self {
        // 64×64 GroupTiles: 16 TCTiles, 4 KiB of values when dense —
        // a good fit for 4-warp thread blocks.
        TcaBmeConfig {
            gt_rows: 64,
            gt_cols: 64,
        }
    }
}

impl TcaBmeConfig {
    /// TCTile rows per GroupTile.
    pub fn tt_rows(&self) -> usize {
        self.gt_rows / TT_DIM
    }

    /// TCTile columns per GroupTile.
    pub fn tt_cols(&self) -> usize {
        self.gt_cols / TT_DIM
    }

    /// BitmapTiles per GroupTile.
    pub fn bts_per_gt(&self) -> usize {
        self.tt_rows() * self.tt_cols() * BTS_PER_TT
    }

    fn validate(&self) {
        assert!(
            self.gt_rows.is_multiple_of(TT_DIM) && self.gt_rows > 0,
            "gt_rows must be a positive multiple of {TT_DIM}"
        );
        assert!(
            self.gt_cols.is_multiple_of(TT_DIM) && self.gt_cols > 0,
            "gt_cols must be a positive multiple of {TT_DIM}"
        );
    }
}

/// A sparse matrix in TCA-BME format, generic over the value payload.
///
/// [`TcaBme`] (= `TcaBmeOf<Half>`) is the FP16 format the paper
/// describes; `TcaBmeOf<i8>` carries quantized codes and is always
/// wrapped in [`TcaBmeInt8`] alongside its per-GroupTile scales.
#[derive(Clone, Debug, PartialEq)]
pub struct TcaBmeOf<P: Payload> {
    /// Logical (unpadded) rows.
    pub m: usize,
    /// Logical (unpadded) columns.
    pub k: usize,
    /// Rows padded to a GroupTile multiple.
    pub m_pad: usize,
    /// Columns padded to a GroupTile multiple.
    pub k_pad: usize,
    /// Tiling configuration.
    pub config: TcaBmeConfig,
    /// Start offset of each GroupTile in `values` (element units),
    /// plus one trailing end offset. Every entry is 4-element aligned.
    pub gtile_offsets: Vec<u32>,
    /// Non-zero values in nested GT → TT → BT → bit order, padded per
    /// GroupTile to [`VALUE_PAD`].
    pub values: Vec<P>,
    /// One 64-bit bitmap per BitmapTile, same nesting order.
    pub bitmaps: Vec<u64>,
    /// True non-zero count (excludes padding).
    pub nnz: usize,
}

/// The FP16 instantiation of [`TcaBmeOf`] — the paper's format.
pub type TcaBme = TcaBmeOf<Half>;

impl<P: Payload> TcaBmeOf<P> {
    /// Number of GroupTiles.
    pub fn num_gtiles(&self) -> usize {
        self.gtile_offsets.len() - 1
    }

    /// GroupTile columns (along K).
    pub fn gtiles_x(&self) -> usize {
        self.k_pad / self.config.gt_cols
    }

    /// GroupTile rows (along M).
    pub fn gtiles_y(&self) -> usize {
        self.m_pad / self.config.gt_rows
    }

    /// Number of BitmapTiles.
    pub fn num_btiles(&self) -> usize {
        self.bitmaps.len()
    }

    /// GroupTile index for GroupTile coordinates (row-major).
    pub fn gt_index(&self, gty: usize, gtx: usize) -> usize {
        gty * self.gtiles_x() + gtx
    }

    /// Slice of `values` belonging to a GroupTile (including padding).
    pub fn gtile_values(&self, gt: usize) -> &[P] {
        let s = self.gtile_offsets[gt] as usize;
        let e = self.gtile_offsets[gt + 1] as usize;
        &self.values[s..e]
    }

    /// Slice of `bitmaps` belonging to a GroupTile, in TCTile-column-major
    /// then BT order.
    pub fn gtile_bitmaps(&self, gt: usize) -> &[u64] {
        let per = self.config.bts_per_gt();
        &self.bitmaps[gt * per..(gt + 1) * per]
    }

    /// Actual storage footprint in bytes, including value padding. The
    /// value term scales with the payload width ([`Payload::BYTES`]).
    pub fn storage_bytes(&self) -> usize {
        4 * self.gtile_offsets.len() + 8 * self.bitmaps.len() + P::BYTES * self.values.len()
    }

    /// Compression ratio (paper Eq. 1): dense *FP16* bytes over format
    /// bytes. The dense reference stays FP16 for every payload so
    /// precision×format ratios are comparable (an INT8 container's ratio
    /// folds the 2× payload shrink in).
    pub fn compression_ratio(&self) -> f64 {
        (2 * self.m * self.k) as f64 / self.storage_bytes() as f64
    }

    /// Largest per-GroupTile value count (with padding), for shared-memory
    /// buffer sizing in the kernel.
    pub fn max_values_per_gtile(&self) -> usize {
        (0..self.num_gtiles())
            .map(|g| self.gtile_values(g).len())
            .max()
            .unwrap_or(0)
    }

    /// Integrity checksum of one GroupTile (see [`checksum_gtile`]).
    pub fn gtile_checksum(&self, gt: usize) -> u32 {
        checksum_gtile(self.gtile_bitmaps(gt), self.gtile_values(gt))
    }

    /// Checksums for every GroupTile, in GroupTile order — the reference
    /// the checked kernel path and the v2/v3 wire formats verify against.
    pub fn gtile_checksums(&self) -> Vec<u32> {
        self.leading_gtile_checksums(self.num_gtiles())
    }

    /// Checksums of the first `n` GroupTiles, whose value spans must lie
    /// in `values`. Bands of GroupTiles go to the [`gpu_sim::exec`] pool
    /// (untraced — setup work, not kernel work), each stepping four
    /// tiles at a time; per-GroupTile checksums are independent, so the
    /// vector is identical at every job count.
    pub(crate) fn leading_gtile_checksums(&self, n: usize) -> Vec<u32> {
        let mut sums = vec![0u32; n];
        let mut jobs = Vec::new();
        let mut rest = &mut sums[..];
        for band in gpu_sim::exec::chunk_ranges(n, gpu_sim::exec::num_jobs()) {
            let (head, tail) = rest.split_at_mut(band.len());
            rest = tail;
            jobs.push((band.start, head));
        }
        gpu_sim::exec::par_map_untraced(jobs, |(first, out)| checksum_band(self, first, out));
        sums
    }

    /// Structural validation of the three-array format: offset count,
    /// monotonicity, [`VALUE_PAD`] alignment, end-of-array agreement,
    /// bitmap count, per-GroupTile `popc64`-vs-value-span consistency,
    /// and the stored `nnz`. A container that passes cannot make SMBD
    /// decode index out of bounds. Payload-independent: the checks never
    /// look inside a value.
    pub fn validate(&self) -> Result<(), IntegrityError> {
        let ngt = self.gtiles_y() * self.gtiles_x();
        if self.gtile_offsets.len() != ngt + 1 {
            return Err(IntegrityError::OffsetCount {
                expected: ngt + 1,
                got: self.gtile_offsets.len(),
            });
        }
        for (i, &off) in self.gtile_offsets.iter().enumerate() {
            if !(off as usize).is_multiple_of(VALUE_PAD) {
                return Err(IntegrityError::OffsetAlignment {
                    index: i,
                    offset: off,
                });
            }
        }
        for gt in 0..ngt {
            let (start, end) = (self.gtile_offsets[gt], self.gtile_offsets[gt + 1]);
            if start > end {
                return Err(IntegrityError::OffsetOrder { gt, start, end });
            }
        }
        let last = self.gtile_offsets[ngt] as usize;
        if last != self.values.len() {
            return Err(IntegrityError::OffsetEnd {
                expected: self.values.len(),
                got: last,
            });
        }
        let expected_bts = ngt * self.config.bts_per_gt();
        if self.bitmaps.len() != expected_bts {
            return Err(IntegrityError::BitmapCount {
                expected: expected_bts,
                got: self.bitmaps.len(),
            });
        }
        let mut total_pop = 0usize;
        for gt in 0..ngt {
            let pop: usize = self
                .gtile_bitmaps(gt)
                .iter()
                .map(|bm| bm.count_ones() as usize)
                .sum();
            let span = self.gtile_offsets[gt + 1] as usize - self.gtile_offsets[gt] as usize;
            // Padding adds at most VALUE_PAD - 1 zero elements per tile.
            if pop > span || span - pop >= VALUE_PAD {
                return Err(IntegrityError::PopulationMismatch {
                    gt,
                    population: pop,
                    span,
                });
            }
            total_pop += pop;
        }
        if total_pop != self.nnz {
            return Err(IntegrityError::NnzMismatch {
                expected: total_pop,
                got: self.nnz,
            });
        }
        Ok(())
    }
}

impl TcaBmeOf<Half> {
    /// # Examples
    ///
    /// ```
    /// use gpu_sim::matrix::{random_sparse, ValueDist};
    /// use spinfer_core::TcaBme;
    ///
    /// let w = random_sparse(128, 128, 0.6, ValueDist::Uniform, 0);
    /// let enc = TcaBme::encode(&w);
    /// assert_eq!(enc.decode(), w);                  // Lossless.
    /// assert!(enc.compression_ratio() > 1.0);       // CR > 1 at 60%.
    /// ```
    /// Encodes a dense matrix with the default 64×64 GroupTile.
    pub fn encode(matrix: &DenseMatrix) -> Self {
        Self::encode_with(matrix, TcaBmeConfig::default())
    }

    /// Encodes a dense matrix with an explicit configuration. Dimensions
    /// that are not GroupTile multiples are zero-padded.
    ///
    /// # Panics
    ///
    /// Panics on an invalid tiling configuration, or if the padded value
    /// array would overflow the `u32` `GTileOffset` space (beyond 2³²−1
    /// encoded elements — 8 GiB of values).
    pub fn encode_with(matrix: &DenseMatrix, config: TcaBmeConfig) -> Self {
        config.validate();
        let enc = Self::encode_impl(matrix, config)
            .unwrap_or_else(|e| panic!("TcaBme::encode_with: {e}"));
        debug_assert!(enc.values.len() <= u32::MAX as usize);
        enc
    }

    /// The two-pass parallel encode behind [`Self::encode_with`].
    ///
    /// Both passes hand each [`gpu_sim::exec`] worker a band of
    /// GroupTiles (one [`gpu_sim::exec::chunk_ranges`] banding for both),
    /// and each band enters one [`Simd::vectorize`] region per pass.
    /// Pass 1 builds every GroupTile's bitmaps into disjoint slices of
    /// the pre-allocated bitmap array and per-GroupTile non-zero counts
    /// as popcounts; a serial
    /// prefix sum over the pad-rounded counts produces `gtile_offsets`
    /// (with an explicit `u32` overflow check — the serial encoder used
    /// to truncate silently). Pass 2 fills each GroupTile's disjoint
    /// pre-zeroed value span by sweeping the set bits of its bitmaps
    /// (ascending `trailing_zeros` order ≡ the serial per-bit loop), so
    /// the output — offsets, values incl. padding, bitmaps, `nnz` — is
    /// byte-identical to the element-at-a-time serial encoder at every
    /// job count (pinned by `tests/encode_parity.rs`).
    fn encode_impl(
        matrix: &DenseMatrix,
        config: TcaBmeConfig,
    ) -> Result<Self, crate::error::SpinferError> {
        let m = matrix.rows();
        let k = matrix.cols();
        let m_pad = m.div_ceil(config.gt_rows) * config.gt_rows;
        let k_pad = k.div_ceil(config.gt_cols) * config.gt_cols;
        let gts_y = m_pad / config.gt_rows;
        let gts_x = k_pad / config.gt_cols;
        let ngt = gts_y * gts_x;
        let bts = config.bts_per_gt();
        let simd = Simd::detect();

        // Each worker takes a band of GroupTiles and enters one region
        // per band and pass.
        let bands = gpu_sim::exec::chunk_ranges(ngt, gpu_sim::exec::num_jobs());

        // Pass 1: bitmaps + per-GroupTile counts.
        let mut bitmaps = vec![0u64; ngt * bts];
        let mut counts = vec![0usize; ngt];
        let mut jobs = Vec::with_capacity(bands.len());
        let (mut bms_rest, mut counts_rest) = (&mut bitmaps[..], &mut counts[..]);
        for band in bands.iter().cloned() {
            let (bms, tail) = bms_rest.split_at_mut(band.len() * bts);
            bms_rest = tail;
            let (band_counts, tail) = counts_rest.split_at_mut(band.len());
            counts_rest = tail;
            jobs.push((band, bms, band_counts));
        }
        gpu_sim::exec::par_map_untraced(jobs, |(band, bms, counts)| match simd {
            Some(s) => s.vectorize(
                #[inline(always)]
                move || build_band_bitmaps(matrix, config, band, bms, counts),
            ),
            None => build_band_bitmaps(matrix, config, band, bms, counts),
        });

        let (gtile_offsets, total) = prefix_offsets(&counts)?;
        let nnz: usize = counts.iter().sum();

        // Pass 2: fill disjoint pre-zeroed value spans (zero-init makes
        // the per-GroupTile alignment padding free).
        let mut values = vec![Half::ZERO; total];
        let mut jobs = Vec::with_capacity(bands.len());
        let mut rest = &mut values[..];
        for band in bands {
            let span = gtile_offsets[band.end] - gtile_offsets[band.start];
            let (head, tail) = rest.split_at_mut(span as usize);
            rest = tail;
            jobs.push((band, head));
        }
        let (bms, counts, offsets) = (&bitmaps[..], &counts[..], &gtile_offsets[..]);
        gpu_sim::exec::par_map_untraced(jobs, |(band, vals)| match simd {
            Some(s) => s.vectorize(
                #[inline(always)]
                move || fill_band_values(matrix, config, band, bms, counts, offsets, vals),
            ),
            None => fill_band_values(matrix, config, band, bms, counts, offsets, vals),
        });

        Ok(TcaBme {
            m,
            k,
            m_pad,
            k_pad,
            config,
            gtile_offsets,
            values,
            bitmaps,
            nnz,
        })
    }

    /// The paper's Eq. 9 (no padding): `4B×(NGT+1) + 8B×NBT + 2B×NNZ`.
    pub fn storage_bytes_formula(m: usize, k: usize, nnz: usize, config: TcaBmeConfig) -> usize {
        config.validate();
        let m_pad = m.div_ceil(config.gt_rows) * config.gt_rows;
        let k_pad = k.div_ceil(config.gt_cols) * config.gt_cols;
        let ngt = (m_pad / config.gt_rows) * (k_pad / config.gt_cols);
        let nbt = (m_pad / BT_DIM) * (k_pad / BT_DIM);
        4 * (ngt + 1) + 8 * nbt + 2 * nnz
    }

    /// Decodes back to a dense matrix (logical dimensions). Used as the
    /// format's correctness oracle.
    pub fn decode(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.m, self.k);
        self.for_each_nonzero(|r, c, v| out.set(r, c, v));
        out
    }

    /// Quantizes this FP16 encoding into an INT8 container — see
    /// [`TcaBmeInt8::quantize`].
    pub fn quantize_int8(&self) -> TcaBmeInt8 {
        TcaBmeInt8::quantize(self)
    }
}

impl<P: Payload> TcaBmeOf<P> {
    /// Walks every encoded non-zero in nested GT → TT → BT → bit order,
    /// invoking `visit(row, col, value)` for in-extent cells — the one
    /// shared traversal behind [`TcaBme::decode`] and
    /// [`TcaBmeInt8::dequantize_dense`].
    fn for_each_nonzero(&self, mut visit: impl FnMut(usize, usize, P)) {
        let cfg = self.config;
        for gty in 0..self.gtiles_y() {
            for gtx in 0..self.gtiles_x() {
                let gt = self.gt_index(gty, gtx);
                let vals = self.gtile_values(gt);
                let bms = self.gtile_bitmaps(gt);
                let mut vi = 0usize;
                let mut bi = 0usize;
                for ttx in 0..cfg.tt_cols() {
                    for tty in 0..cfg.tt_rows() {
                        for (dr, dc) in [(0, 0), (BT_DIM, 0), (0, BT_DIM), (BT_DIM, BT_DIM)] {
                            let bm = bms[bi];
                            bi += 1;
                            let bt_r = gty * cfg.gt_rows + tty * TT_DIM + dr;
                            let bt_c = gtx * cfg.gt_cols + ttx * TT_DIM + dc;
                            for bit in 0..64 {
                                if (bm >> bit) & 1 == 1 {
                                    let r = bt_r + bit / BT_DIM;
                                    let c = bt_c + bit % BT_DIM;
                                    let v = vals[vi];
                                    vi += 1;
                                    if r < self.m && c < self.k {
                                        visit(r, c, v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The quantized TCA-BME container: an `i8` code instantiation of
/// [`TcaBmeOf`] plus one symmetric `f32` scale per GroupTile.
///
/// Quantization is per-GroupTile symmetric (`scale = max|v| / 127`,
/// codes clamped to ±127), matching how the kernel consumes it: each
/// GroupTile's `i32` Tensor Core accumulator is folded into the `f32`
/// output with `scale_w[gt] × scale_x` in the epilogue. Bitmaps,
/// offsets, geometry, padding layout, and `nnz` are *shared structure*
/// — `tiles` carries exactly the FP16 encoding's metadata with codes in
/// place of FP16 payloads, so every generic accessor, the validator,
/// and the SMBD decode work unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct TcaBmeInt8 {
    /// The `i8` container (geometry + bitmaps + offsets + codes).
    pub tiles: TcaBmeOf<i8>,
    /// One symmetric scale per GroupTile (`value ≈ code × scale`).
    /// Empty GroupTiles carry `1.0`.
    pub scales: Vec<f32>,
}

impl TcaBmeInt8 {
    /// Quantizes an FP16 encoding. The bitmap/offset/geometry arrays are
    /// copied verbatim; each GroupTile's value span (padding included —
    /// zeros map to code 0) is quantized against that tile's own
    /// symmetric scale. Deterministic: every step is a pure function of
    /// the span's values. An entry point: it enters
    /// [`Simd::vectorize`] once, where the per-value divide, `round` and
    /// clamp compile to vector instructions (the baseline build calls
    /// `roundf` per value).
    pub fn quantize(w: &TcaBme) -> Self {
        let mut codes = vec![0i8; w.values.len()];
        let mut scales = vec![0.0f32; w.num_gtiles()];
        let (offsets, values) = (&w.gtile_offsets[..], &w.values[..]);
        let (to, scale_to) = (&mut codes[..], &mut scales[..]);
        match Simd::detect() {
            Some(s) => s.vectorize(
                #[inline(always)]
                move || quantize_spans(offsets, values, to, scale_to),
            ),
            None => quantize_spans(offsets, values, to, scale_to),
        }
        TcaBmeInt8 {
            tiles: TcaBmeOf {
                m: w.m,
                k: w.k,
                m_pad: w.m_pad,
                k_pad: w.k_pad,
                config: w.config,
                gtile_offsets: w.gtile_offsets.clone(),
                values: codes,
                bitmaps: w.bitmaps.clone(),
                nnz: w.nnz,
            },
            scales,
        }
    }

    /// Per-GroupTile scale accessor.
    pub fn scale(&self, gt: usize) -> f32 {
        self.scales[gt]
    }

    /// Storage bytes: the `i8` container plus 4 bytes of scale per
    /// GroupTile.
    pub fn storage_bytes(&self) -> usize {
        self.tiles.storage_bytes() + 4 * self.scales.len()
    }

    /// Compression ratio against the dense *FP16* reference — the
    /// deployment-relevant ratio (sparsity and quantization compound).
    pub fn compression_ratio(&self) -> f64 {
        (2 * self.tiles.m * self.tiles.k) as f64 / self.storage_bytes() as f64
    }

    /// Structural validation: the shared container checks plus the
    /// scale-per-GroupTile pairing and scale finiteness/positivity.
    pub fn validate(&self) -> Result<(), IntegrityError> {
        self.tiles.validate()?;
        self.validate_scales()
    }

    /// The scale checks of [`Self::validate`] alone, for a reader that
    /// has already validated `tiles`.
    pub(crate) fn validate_scales(&self) -> Result<(), IntegrityError> {
        if self.scales.len() != self.tiles.num_gtiles() {
            return Err(IntegrityError::ScaleCount {
                expected: self.tiles.num_gtiles(),
                got: self.scales.len(),
            });
        }
        if let Some(gt) = self
            .scales
            .iter()
            .position(|s| !(s.is_finite() && *s > 0.0))
        {
            return Err(IntegrityError::BadScale {
                gt,
                bits: self.scales[gt].to_bits(),
            });
        }
        Ok(())
    }

    /// Dequantizes to a dense row-major `f32` matrix (logical `m × k`)
    /// — the reconstruction the quantization-error metrics compare
    /// against the FP16 original.
    pub fn dequantize_dense(&self) -> Vec<f32> {
        let (m, k) = (self.tiles.m, self.tiles.k);
        let mut out = vec![0.0f32; m * k];
        let gtiles_x = self.tiles.gtiles_x();
        let cfg = self.tiles.config;
        self.tiles.for_each_nonzero(|r, c, code| {
            let gt = (r / cfg.gt_rows) * gtiles_x + c / cfg.gt_cols;
            out[r * k + c] = f32::from(code) * self.scales[gt];
        });
        out
    }
}

/// The body of [`TcaBmeInt8::quantize`]: quantizes each GroupTile's
/// value span of `values` (cut by `offsets`) into the same span of
/// `codes`, and writes its scale to `scales`. Always inlined into the
/// entry's [`Simd::vectorize`] region, like both helpers.
#[inline(always)]
fn quantize_spans(offsets: &[u32], values: &[Half], codes: &mut [i8], scales: &mut [f32]) {
    for (span, scale) in offsets.windows(2).zip(scales) {
        let (s, e) = (span[0] as usize, span[1] as usize);
        *scale = span_scale(&values[s..e]);
        quantize_codes(&values[s..e], *scale, &mut codes[s..e]);
    }
}

/// A span's symmetric scale, `max|v| / 127`, or `1.0` when every value
/// is zero or NaN. The maximum is taken over the FP16 magnitude bits,
/// which order like the values for every non-NaN pattern; NaN patterns
/// (above `0x7C00`) count as zero, just as `f32::max` skips them. So
/// this equals folding `|v|` with `f32::max` from `0.0`, and the
/// reduction is an integer one the compiler vectorizes.
#[inline(always)]
fn span_scale(vals: &[Half]) -> f32 {
    let mut max_bits = 0u16;
    for v in vals {
        let a = v.to_bits() & 0x7FFF;
        max_bits = max_bits.max(if a > 0x7C00 { 0 } else { a });
    }
    let max_abs = Half::from_bits(max_bits).to_f32();
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// `codes[i] = round(vals[i] / scale)`, clamped to ±127 (NaN gives 0).
#[inline(always)]
fn quantize_codes(vals: &[Half], scale: f32, codes: &mut [i8]) {
    for (dst, &v) in codes.iter_mut().zip(vals) {
        let q = (fp16::widen(v) / scale).round().clamp(-127.0, 127.0);
        let q = if q.is_nan() { 0.0 } else { q };
        // `q` is an integer in ±127: adding 1.5·2²³ is exact and leaves
        // it, two's complement, in the sum's low mantissa byte. That is
        // `q as i8`, without the saturating cast the compiler does not
        // vectorize.
        *dst = (q + 12_582_912.0).to_bits() as u8 as i8;
    }
}

/// Pass 1 over a band of GroupTiles: builds each one's bitmaps into
/// `bms` and its non-zero count into `counts`, both cut at the band's
/// start. Always inlined into the pass's [`Simd::vectorize`] region,
/// with the per-tile worker below it.
#[inline(always)]
fn build_band_bitmaps(
    matrix: &DenseMatrix,
    config: TcaBmeConfig,
    band: Range<usize>,
    bms: &mut [u64],
    counts: &mut [usize],
) {
    let (m, k, data) = (matrix.rows(), matrix.cols(), matrix.as_slice());
    let gts_x = k.div_ceil(config.gt_cols);
    for ((gt, bms), count) in band.zip(bms.chunks_mut(config.bts_per_gt())).zip(counts) {
        *count = build_gtile_bitmaps(data, m, k, config, gt / gts_x, gt % gts_x, bms);
    }
}

/// Pass 2 over a band of GroupTiles: fills `vals`, the band's run of
/// pre-zeroed value spans, one GroupTile at a time from the pass-1
/// `bitmaps`, `counts` and `offsets` of the whole matrix. Always
/// inlined into the pass's [`Simd::vectorize`] region, with the
/// per-tile worker below it.
#[inline(always)]
fn fill_band_values(
    matrix: &DenseMatrix,
    config: TcaBmeConfig,
    band: Range<usize>,
    bitmaps: &[u64],
    counts: &[usize],
    offsets: &[u32],
    mut vals: &mut [Half],
) {
    let (k, data) = (matrix.cols(), matrix.as_slice());
    let (gts_x, bts) = (k.div_ceil(config.gt_cols), config.bts_per_gt());
    for gt in band {
        let (head, tail) = vals.split_at_mut((offsets[gt + 1] - offsets[gt]) as usize);
        vals = tail;
        let bms = &bitmaps[gt * bts..(gt + 1) * bts];
        fill_gtile_values(
            data,
            k,
            config,
            gt / gts_x,
            gt % gts_x,
            bms,
            counts[gt],
            head,
        );
    }
}

/// Pass 1 worker: builds one GroupTile's bitmaps (nested TT-column-major
/// → BT-quadrant order) into `bms` and returns the tile's non-zero count
/// as the sum of popcounts. Interior GroupTiles (fully inside the
/// logical `m × k` extent) take a per-row-slice fast path with no
/// per-element bounds logic; edge tiles clamp row/column spans so
/// out-of-extent bits stay zero, exactly like the serial `at(r, c)`
/// closure's zero padding. Always inlined, with its BitmapTile helpers,
/// into pass 1's [`Simd::vectorize`] region, where the row-slice
/// `!is_zero` reduction vectorizes (the baseline SSE2 build cannot
/// encode the 16-lane compare + movemask pattern).
#[inline(always)]
fn build_gtile_bitmaps(
    data: &[Half],
    m: usize,
    k: usize,
    config: TcaBmeConfig,
    gty: usize,
    gtx: usize,
    bms: &mut [u64],
) -> usize {
    let base_r = gty * config.gt_rows;
    let base_c = gtx * config.gt_cols;
    let interior = base_r + config.gt_rows <= m && base_c + config.gt_cols <= k;
    let mut count = 0usize;
    let mut bi = 0usize;
    for ttx in 0..config.tt_cols() {
        for tty in 0..config.tt_rows() {
            let tt_r = base_r + tty * TT_DIM;
            let tt_c = base_c + ttx * TT_DIM;
            for (dr, dc) in [(0, 0), (BT_DIM, 0), (0, BT_DIM), (BT_DIM, BT_DIM)] {
                let bm = if interior {
                    bt_bitmap_interior(data, k, tt_r + dr, tt_c + dc)
                } else {
                    bt_bitmap_edge(data, m, k, tt_r + dr, tt_c + dc)
                };
                count += bm.count_ones() as usize;
                bms[bi] = bm;
                bi += 1;
            }
        }
    }
    count
}

/// Branchless bitmap of one fully-interior 8×8 BitmapTile: each row is
/// an 8-element slice of the row-major backing store, OR-ing
/// `!is_zero` straight into bit `row·8 + col`.
#[inline(always)]
fn bt_bitmap_interior(data: &[Half], k: usize, bt_r: usize, bt_c: usize) -> u64 {
    let mut bm = 0u64;
    for rb in 0..BT_DIM {
        let row = &data[(bt_r + rb) * k + bt_c..][..BT_DIM];
        let mut rowbits = 0u64;
        for (i, v) in row.iter().enumerate() {
            rowbits |= u64::from(!v.is_zero()) << i;
        }
        bm |= rowbits << (rb * BT_DIM);
    }
    bm
}

/// Bitmap of a BitmapTile that may overhang the logical extent: only
/// in-extent row/column spans are scanned, so overhanging bits are zero
/// (the serial encoder's zero padding).
#[inline(always)]
fn bt_bitmap_edge(data: &[Half], m: usize, k: usize, bt_r: usize, bt_c: usize) -> u64 {
    let cols = BT_DIM.min(k.saturating_sub(bt_c));
    let rows = BT_DIM.min(m.saturating_sub(bt_r));
    if cols == 0 {
        // Entirely right of the logical extent: all padding.
        return 0;
    }
    let mut bm = 0u64;
    for rb in 0..rows {
        let row = &data[(bt_r + rb) * k + bt_c..][..cols];
        let mut rowbits = 0u64;
        for (i, v) in row.iter().enumerate() {
            rowbits |= u64::from(!v.is_zero()) << i;
        }
        bm |= rowbits << (rb * BT_DIM);
    }
    bm
}

/// Pass 2 worker: fills one GroupTile's pre-zeroed value span by
/// sweeping the set bits of its pass-1 bitmaps in ascending order —
/// `trailing_zeros` yields bits in exactly the order the serial
/// per-bit loop pushes values, and set bits are in-extent by
/// construction, so each value is a direct row-major load. The span's
/// tail beyond `count` stays zero: that is the GroupTile's
/// [`VALUE_PAD`] alignment padding. Always inlined into pass 2's
/// [`Simd::vectorize`] region, where the per-bit `trailing_zeros` /
/// clear-lowest-set-bit sweep compiles to single `tzcnt` / `blsr`
/// instructions.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fill_gtile_values(
    data: &[Half],
    k: usize,
    config: TcaBmeConfig,
    gty: usize,
    gtx: usize,
    bms: &[u64],
    count: usize,
    vals: &mut [Half],
) {
    let base_r = gty * config.gt_rows;
    let base_c = gtx * config.gt_cols;
    let mut cursor = 0usize;
    let mut bi = 0usize;
    for ttx in 0..config.tt_cols() {
        for tty in 0..config.tt_rows() {
            let tt_r = base_r + tty * TT_DIM;
            let tt_c = base_c + ttx * TT_DIM;
            for (dr, dc) in [(0, 0), (BT_DIM, 0), (0, BT_DIM), (BT_DIM, BT_DIM)] {
                let mut bm = bms[bi];
                bi += 1;
                let row0 = (tt_r + dr) * k + tt_c + dc;
                while bm != 0 {
                    let bit = bm.trailing_zeros() as usize;
                    bm &= bm - 1;
                    vals[cursor] = data[row0 + (bit / BT_DIM) * k + bit % BT_DIM];
                    cursor += 1;
                }
            }
        }
    }
    debug_assert_eq!(cursor, count, "pass-2 fill disagrees with pass-1 count");
}

/// Prefix-sums pad-rounded per-GroupTile counts into the `NGT + 1`
/// `gtile_offsets` array, rejecting totals beyond the `u32` offset
/// space (which the serial push-based encoder silently truncated).
/// Returns the offsets and the total padded value length.
fn prefix_offsets(counts: &[usize]) -> Result<(Vec<u32>, usize), crate::error::SpinferError> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    offsets.push(0u32);
    let mut total = 0usize;
    for &c in counts {
        let padded = c.div_ceil(VALUE_PAD) * VALUE_PAD;
        total = total.saturating_add(padded);
        if total > u32::MAX as usize {
            return Err(crate::error::SpinferError::OffsetOverflow { total });
        }
        offsets.push(total as u32);
    }
    Ok((offsets, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_sparse, ValueDist};

    /// The pass bodies called outside any `vectorize` region — the
    /// baseline copies a host without the [`Simd`] features runs — write
    /// the entry's bitmaps, counts and values, padding included, on
    /// interior and edge GroupTiles.
    #[test]
    fn encode_bodies_outside_the_region_match_the_entry() {
        for (m, k, s) in [(128, 192, 0.6), (100, 70, 0.3)] {
            let w = random_sparse(m, k, s, ValueDist::Uniform, 17);
            let enc = TcaBme::encode(&w);
            let (config, data) = (enc.config, w.as_slice());
            for gt in 0..enc.num_gtiles() {
                let (gty, gtx) = (gt / enc.gtiles_x(), gt % enc.gtiles_x());
                let mut bms = vec![0u64; config.bts_per_gt()];
                let count = build_gtile_bitmaps(data, m, k, config, gty, gtx, &mut bms);
                assert_eq!(bms, enc.gtile_bitmaps(gt), "{m}x{k} gt {gt}");
                let mut vals = vec![Half::ZERO; enc.gtile_values(gt).len()];
                fill_gtile_values(data, k, config, gty, gtx, &bms, count, &mut vals);
                assert_eq!(vals, enc.gtile_values(gt), "{m}x{k} gt {gt}");
            }
        }
    }

    /// The quantize formula before it was vectorized, the oracle for
    /// [`span_scale`] and [`quantize_codes`].
    fn scale_oracle(vals: &[Half]) -> f32 {
        let max_abs = vals.iter().map(|v| v.to_f32().abs()).fold(0.0f32, f32::max);
        if max_abs > 0.0 {
            max_abs / 127.0
        } else {
            1.0
        }
    }

    fn codes_oracle(vals: &[Half], scale: f32) -> Vec<i8> {
        let code = |v: &Half| (v.to_f32() / scale).round().clamp(-127.0, 127.0) as i8;
        vals.iter().map(code).collect()
    }

    /// Every FP16 pattern through both copies of the quantize body: the
    /// baseline one (what a host without the [`Simd`] features runs) and
    /// the vectorized one, in a test-local region. The codes are checked
    /// at seven scales: those of tiles whose largest value is the
    /// smallest or the largest FP16 subnormal, an `f32` subnormal, 1/127,
    /// 1, 65504/127 (the largest finite FP16) and infinity (a tile
    /// holding one). The span
    /// scale is checked over runs of every pattern, mixing NaN, ±0 and
    /// infinities in every lane position.
    #[test]
    fn quantize_matches_the_formula_for_every_pattern() {
        let vals: Vec<Half> = (0..=u16::MAX).map(Half::from_bits).collect();
        let scales = [
            Half::from_bits(0x0001).to_f32() / 127.0,
            Half::from_bits(0x03FF).to_f32() / 127.0,
            f32::from_bits(0x0000_1234),
            1.0 / 127.0,
            1.0,
            65504.0 / 127.0,
            f32::INFINITY,
        ];
        for simd in [None, Simd::detect()] {
            let copy = if simd.is_some() {
                "vectorized"
            } else {
                "baseline"
            };
            for scale in scales {
                let mut codes = vec![0i8; vals.len()];
                let (src, to) = (&vals[..], &mut codes[..]);
                match simd {
                    Some(s) => s.vectorize(
                        #[inline(always)]
                        move || quantize_codes(src, scale, to),
                    ),
                    None => quantize_codes(src, scale, to),
                }
                assert_eq!(codes, codes_oracle(&vals, scale), "{copy}, scale {scale:e}");
            }
            for len in [1, 7, 97, 4096] {
                for span in vals.chunks(len) {
                    let got = match simd {
                        Some(s) => s.vectorize(
                            #[inline(always)]
                            move || span_scale(span),
                        ),
                        None => span_scale(span),
                    };
                    let want = scale_oracle(span);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{copy}, span at {:?}",
                        span[0]
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_exact() {
        for &s in &[0.0, 0.3, 0.5, 0.7, 0.95] {
            let m = random_sparse(128, 192, s, ValueDist::Uniform, 5);
            let enc = TcaBme::encode(&m);
            assert_eq!(enc.decode(), m, "sparsity {s}");
            assert_eq!(enc.nnz, m.nnz());
        }
    }

    #[test]
    fn roundtrip_with_padding_dims() {
        // 100×70 is not a GroupTile multiple in either dimension.
        let m = random_sparse(100, 70, 0.5, ValueDist::Uniform, 6);
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.m_pad, 128);
        assert_eq!(enc.k_pad, 128);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn prefix_offsets_rejects_u32_overflow() {
        // Synthetic counts — no giant allocation needed to hit the check.
        let too_big = vec![u32::MAX as usize / 2, u32::MAX as usize / 2, 42];
        match prefix_offsets(&too_big) {
            Err(crate::error::SpinferError::OffsetOverflow { total }) => {
                assert!(total > u32::MAX as usize)
            }
            other => panic!("expected OffsetOverflow, got {other:?}"),
        }
        // And the boundary itself is accepted: one tile of exactly
        // u32::MAX rounded down to the pad granularity.
        let max_ok = (u32::MAX as usize / VALUE_PAD) * VALUE_PAD;
        let (offs, total) = prefix_offsets(&[max_ok]).unwrap();
        assert_eq!(total, max_ok);
        assert_eq!(offs, vec![0, max_ok as u32]);
    }

    #[test]
    fn prefix_offsets_pads_each_tile() {
        let (offs, total) = prefix_offsets(&[3, 0, 5, 4]).unwrap();
        assert_eq!(offs, vec![0, 4, 4, 12, 16]);
        assert_eq!(total, 16);
    }

    #[test]
    fn empty_matrix_encodes() {
        let m = DenseMatrix::zeros(64, 64);
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.nnz, 0);
        assert!(enc.values.is_empty());
        assert_eq!(enc.bitmaps.len(), 64);
        assert!(enc.bitmaps.iter().all(|&b| b == 0));
    }

    #[test]
    fn gtile_offsets_are_aligned() {
        let m = random_sparse(256, 256, 0.47, ValueDist::Uniform, 7);
        let enc = TcaBme::encode(&m);
        for &off in &enc.gtile_offsets {
            assert_eq!(off as usize % VALUE_PAD, 0);
        }
    }

    #[test]
    fn storage_matches_formula_up_to_padding() {
        let m = random_sparse(512, 512, 0.5, ValueDist::Uniform, 8);
        let enc = TcaBme::encode(&m);
        let formula = TcaBme::storage_bytes_formula(512, 512, enc.nnz, enc.config);
        let actual = enc.storage_bytes();
        assert!(actual >= formula);
        // Padding adds at most VALUE_PAD-1 elements (2B each) per GroupTile.
        let max_pad = enc.num_gtiles() * (VALUE_PAD - 1) * 2;
        assert!(actual - formula <= max_pad);
    }

    #[test]
    fn compression_ratio_above_one_at_30_percent() {
        // The paper's headline format property: CR > 1 even at 30%.
        let m = random_sparse(1024, 1024, 0.3, ValueDist::Uniform, 9);
        let enc = TcaBme::encode(&m);
        assert!(
            enc.compression_ratio() > 1.0,
            "CR {}",
            enc.compression_ratio()
        );
    }

    #[test]
    fn compression_ratio_formula_at_50_percent() {
        // Analytical CR at 50%: 2 / (1 + 1/8 + eps) ≈ 1.78 for large M=K.
        let bytes =
            TcaBme::storage_bytes_formula(4096, 4096, 4096 * 4096 / 2, TcaBmeConfig::default());
        let cr = (2.0 * 4096.0 * 4096.0) / bytes as f64;
        assert!((cr - 1.78).abs() < 0.02, "CR {cr}");
    }

    #[test]
    fn bitmap_tile_order_is_column_major_quadrants() {
        // Single non-zero in each quadrant of the first TCTile; check the
        // bitmap array ordering TL, BL, TR, BR.
        let mut m = DenseMatrix::zeros(64, 64);
        m.set(0, 0, Half::ONE); // TL -> bitmap 0, bit 0.
        m.set(8, 0, Half::ONE); // BL -> bitmap 1, bit 0.
        m.set(0, 8, Half::ONE); // TR -> bitmap 2, bit 0.
        m.set(8, 8, Half::ONE); // BR -> bitmap 3, bit 0.
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.bitmaps[0], 1);
        assert_eq!(enc.bitmaps[1], 1);
        assert_eq!(enc.bitmaps[2], 1);
        assert_eq!(enc.bitmaps[3], 1);
        assert_eq!(&enc.bitmaps[4..16], &[0u64; 12]);
    }

    #[test]
    fn bit_positions_are_rowmajor_within_bt() {
        let mut m = DenseMatrix::zeros(64, 64);
        m.set(3, 5, Half::ONE); // Row-major index 3*8+5 = 29.
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.bitmaps[0], 1u64 << 29);
    }

    #[test]
    fn tctile_order_is_column_major_in_gtile() {
        // Non-zero at TCTile (row 1, col 0) of a 64×64 GroupTile: TCTiles
        // are column-major, so it lands in the second TCTile's bitmaps
        // (indices 4..8).
        let mut m = DenseMatrix::zeros(64, 64);
        m.set(16, 0, Half::ONE);
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.bitmaps[4], 1);
        // And one at TCTile (0, 1): with 4 TCTile rows, column 1 starts at
        // TCTile index 4 -> bitmaps 16..20.
        let mut m2 = DenseMatrix::zeros(64, 64);
        m2.set(0, 16, Half::ONE);
        let enc2 = TcaBme::encode(&m2);
        assert_eq!(enc2.bitmaps[16], 1);
    }

    #[test]
    fn values_follow_bitmap_order() {
        let mut m = DenseMatrix::zeros(64, 64);
        m.set(0, 0, Half::from_f32(1.0)); // TL BT, bit 0.
        m.set(0, 1, Half::from_f32(2.0)); // TL BT, bit 1.
        m.set(8, 0, Half::from_f32(3.0)); // BL BT, bit 0.
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.values[0].to_f32(), 1.0);
        assert_eq!(enc.values[1].to_f32(), 2.0);
        assert_eq!(enc.values[2].to_f32(), 3.0);
        assert_eq!(enc.nnz, 3);
    }

    #[test]
    fn custom_config_roundtrip() {
        let cfg = TcaBmeConfig {
            gt_rows: 32,
            gt_cols: 128,
        };
        let m = random_sparse(96, 256, 0.6, ValueDist::Uniform, 10);
        let enc = TcaBme::encode_with(&m, cfg);
        assert_eq!(enc.decode(), m);
        assert_eq!(enc.gtiles_y(), 3);
        assert_eq!(enc.gtiles_x(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn invalid_config_panics() {
        TcaBmeConfig {
            gt_rows: 24,
            gt_cols: 64,
        }
        .validate();
    }

    #[test]
    fn validate_accepts_every_encode() {
        for &s in &[0.0, 0.5, 0.95] {
            let m = random_sparse(100, 70, s, ValueDist::Uniform, 12);
            TcaBme::encode(&m)
                .validate()
                .expect("fresh encode is valid");
        }
    }

    #[test]
    fn validate_catches_each_corruption_class() {
        use crate::error::IntegrityError;
        let fresh = || TcaBme::encode(&random_sparse(128, 128, 0.5, ValueDist::Uniform, 13));

        let mut e = fresh();
        e.gtile_offsets.pop();
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::OffsetCount { .. })
        ));

        let mut e = fresh();
        e.gtile_offsets[1] = e.gtile_offsets[2] + 8;
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::OffsetOrder { gt: 1, .. })
        ));

        let mut e = fresh();
        e.gtile_offsets[1] += 1;
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::OffsetAlignment { index: 1, .. })
        ));

        let mut e = fresh();
        let n = e.gtile_offsets.len();
        e.gtile_offsets[n - 1] -= VALUE_PAD as u32;
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::OffsetEnd { .. })
        ));

        let mut e = fresh();
        e.bitmaps.pop();
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::BitmapCount { .. })
        ));

        // A flipped bitmap bit changes a tile's population but not its
        // span — exactly the silent-corruption case the paper's popc64
        // offsets are vulnerable to.
        let mut e = fresh();
        e.bitmaps[0] ^= 1u64 << 63;
        let v = e.validate();
        assert!(
            matches!(
                v,
                Err(IntegrityError::PopulationMismatch { gt: 0, .. })
                    | Err(IntegrityError::NnzMismatch { .. })
            ),
            "bitmap flip must be caught, got {v:?}"
        );

        let mut e = fresh();
        e.nnz += 1;
        assert!(matches!(
            e.validate(),
            Err(IntegrityError::NnzMismatch { .. })
        ));
    }

    #[test]
    fn gtile_checksums_detect_single_bit_damage() {
        let m = random_sparse(128, 128, 0.6, ValueDist::Uniform, 14);
        let enc = TcaBme::encode(&m);
        let sums = enc.gtile_checksums();
        assert_eq!(sums.len(), enc.num_gtiles());
        for gt in 0..enc.num_gtiles() {
            assert_eq!(enc.gtile_checksum(gt), sums[gt], "checksums are pure");
        }
        // Any single-bit flip in a tile's bitmaps or values moves its sum.
        let mut bad = enc.clone();
        bad.bitmaps[0] ^= 1;
        assert_ne!(bad.gtile_checksum(0), sums[0]);
        let mut bad = enc.clone();
        let s = bad.gtile_offsets[0] as usize;
        bad.values[s] = Half::from_bits(bad.values[s].to_bits() ^ 0x0400);
        assert_ne!(bad.gtile_checksum(0), sums[0]);
        // Checksums are per-tile: damage in tile 0 leaves tile 1 intact.
        assert_eq!(bad.gtile_checksum(1), sums[1]);
    }

    #[test]
    fn checksum_covers_padding_bytes() {
        // 3 non-zeros in one GroupTile -> one padding element. A flip in
        // the padding region must still change the checksum.
        let mut m = DenseMatrix::zeros(64, 64);
        m.set(0, 0, Half::ONE);
        m.set(1, 1, Half::ONE);
        m.set(2, 2, Half::ONE);
        let enc = TcaBme::encode(&m);
        assert_eq!(enc.values.len(), 4, "3 nnz + 1 pad");
        let clean = enc.gtile_checksum(0);
        let mut bad = enc.clone();
        bad.values[3] = Half::from_bits(0x0001);
        assert_ne!(bad.gtile_checksum(0), clean);
    }

    #[test]
    fn max_values_per_gtile_bounds_buffer() {
        let m = random_sparse(256, 256, 0.5, ValueDist::Uniform, 11);
        let enc = TcaBme::encode(&m);
        let max = enc.max_values_per_gtile();
        assert!(max <= 64 * 64);
        for g in 0..enc.num_gtiles() {
            assert!(enc.gtile_values(g).len() <= max);
        }
    }

    #[test]
    fn quantize_shares_structure_exactly() {
        let m = random_sparse(128, 192, 0.6, ValueDist::Uniform, 21);
        let enc = TcaBme::encode(&m);
        let q = TcaBmeInt8::quantize(&enc);
        assert_eq!(q.tiles.bitmaps, enc.bitmaps);
        assert_eq!(q.tiles.gtile_offsets, enc.gtile_offsets);
        assert_eq!(q.tiles.nnz, enc.nnz);
        assert_eq!(q.tiles.values.len(), enc.values.len());
        assert_eq!(q.scales.len(), enc.num_gtiles());
        q.validate().expect("fresh quantization is valid");
        // The shared validator accepts the i8 instantiation directly.
        q.tiles
            .validate()
            .expect("i8 container is structurally valid");
    }

    #[test]
    fn quantize_reconstruction_within_half_step() {
        let m = random_sparse(128, 128, 0.5, ValueDist::Uniform, 22);
        let enc = TcaBme::encode(&m);
        let q = enc.quantize_int8();
        let deq = q.dequantize_dense();
        for r in 0..128 {
            for c in 0..128 {
                let orig = m.get(r, c).to_f32();
                let got = deq[r * 128 + c];
                let gt = (r / 64) * enc.gtiles_x() + c / 64;
                // Half a quantization step, with float slack.
                let bound = 0.5 * q.scales[gt] * 1.0001;
                assert!(
                    (orig - got).abs() <= bound,
                    "({r},{c}): {orig} vs {got}, bound {bound}"
                );
                if orig == 0.0 {
                    assert_eq!(got, 0.0, "zeros stay exactly zero");
                }
            }
        }
    }

    #[test]
    fn quantize_halves_value_storage() {
        let m = random_sparse(256, 256, 0.6, ValueDist::Uniform, 23);
        let enc = TcaBme::encode(&m);
        let q = enc.quantize_int8();
        // i8 values + f32 scales must undercut FP16 values.
        assert!(q.storage_bytes() < enc.storage_bytes());
        assert!(q.compression_ratio() > enc.compression_ratio());
        // The value term specifically is exactly half.
        assert_eq!(
            q.tiles.storage_bytes() + enc.values.len(),
            enc.storage_bytes()
        );
    }

    #[test]
    fn quantize_empty_gtile_scale_is_one() {
        let m = DenseMatrix::zeros(128, 64); // Two GroupTiles, both empty.
        let q = TcaBme::encode(&m).quantize_int8();
        assert_eq!(q.scales, vec![1.0, 1.0]);
        q.validate().expect("empty quantization is valid");
    }

    #[test]
    fn int8_validate_catches_scale_corruption() {
        let m = random_sparse(128, 128, 0.5, ValueDist::Uniform, 24);
        let mut q = TcaBme::encode(&m).quantize_int8();
        q.scales.pop();
        assert!(matches!(
            q.validate(),
            Err(IntegrityError::ScaleCount { .. })
        ));
        let mut q = TcaBme::encode(&m).quantize_int8();
        q.scales[1] = f32::NAN;
        assert!(matches!(
            q.validate(),
            Err(IntegrityError::BadScale { gt: 1, .. })
        ));
        let mut q = TcaBme::encode(&m).quantize_int8();
        q.scales[0] = -1.0;
        assert!(matches!(
            q.validate(),
            Err(IntegrityError::BadScale { gt: 0, .. })
        ));
    }

    #[test]
    fn int8_checksums_use_one_byte_per_code() {
        // A code flip moves the tile checksum; the generic checksum over
        // the i8 container is well-defined and per-tile localised.
        let m = random_sparse(128, 128, 0.5, ValueDist::Uniform, 25);
        let q = TcaBme::encode(&m).quantize_int8();
        let sums = q.tiles.gtile_checksums();
        let mut bad = q.clone();
        let s = bad.tiles.gtile_offsets[0] as usize;
        bad.tiles.values[s] = bad.tiles.values[s].wrapping_add(1);
        assert_ne!(bad.tiles.gtile_checksum(0), sums[0]);
        assert_eq!(bad.tiles.gtile_checksum(1), sums[1]);
    }
}
