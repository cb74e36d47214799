//! Tiled-CSL — Flash-LLM's sparse format (paper §3.2.1, Eq. 2).
//!
//! Non-zeros are grouped by tile. Each entry packs the FP16 value with a
//! 16-bit *in-tile position* into one 32-bit word (`NonZeros`); a
//! `TileOffsets` array marks each tile's start:
//! `Stor_Tiled-CSL = 4B × NT + 4B × NNZ`. The 16-bit per-element position
//! makes the index overhead equal to the payload — CR reaches 1.0 only at
//! 50% sparsity.

use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;

/// Default Flash-LLM tile height (rows).
pub const TILE_ROWS: usize = 64;
/// Default Flash-LLM tile width (columns).
pub const TILE_COLS: usize = 64;

/// One packed non-zero: value in the low half, in-tile position in the
/// high half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedNz(pub u32);

impl PackedNz {
    /// Packs a value and its in-tile position.
    pub fn new(value: Half, pos: u16) -> Self {
        PackedNz(u32::from(value.to_bits()) | (u32::from(pos) << 16))
    }

    /// The FP16 value.
    pub fn value(self) -> Half {
        Half::from_bits((self.0 & 0xFFFF) as u16)
    }

    /// The in-tile position (row-major within the tile).
    pub fn pos(self) -> u16 {
        (self.0 >> 16) as u16
    }
}

/// A sparse matrix in Tiled-CSL format.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledCsl {
    /// Logical rows.
    pub m: usize,
    /// Logical columns.
    pub k: usize,
    /// Rows padded to the tile grid.
    pub m_pad: usize,
    /// Columns padded to the tile grid.
    pub k_pad: usize,
    /// Start of each tile in `non_zeros`, plus end sentinel.
    pub tile_offsets: Vec<u32>,
    /// Packed (value, position) entries, tile-major (row-major tiles).
    pub non_zeros: Vec<PackedNz>,
    /// True non-zero count.
    pub nnz: usize,
}

impl TiledCsl {
    /// Encodes a dense matrix with 64×64 tiles.
    ///
    /// Two-pass scheme over the row-major tile grid: pass 1 counts each
    /// tile's non-zeros in parallel (row-sliced scans clamped to the
    /// logical extent — overhanging tile cells were always skipped), a
    /// serial prefix sum builds `tile_offsets`, and pass 2 fills each
    /// tile's disjoint `non_zeros` span. Entries are emitted in the
    /// serial scan order (row-major within the tile), so the encoding
    /// is bit-identical at every job count.
    pub fn encode(matrix: &DenseMatrix) -> Self {
        let m = matrix.rows();
        let k = matrix.cols();
        let data = matrix.as_slice();
        let m_pad = m.div_ceil(TILE_ROWS) * TILE_ROWS;
        let k_pad = k.div_ceil(TILE_COLS) * TILE_COLS;
        let ty = m_pad / TILE_ROWS;
        let tx = k_pad / TILE_COLS;
        let nt = ty * tx;

        // Pass 1: per-tile counts.
        let counts: Vec<usize> = gpu_sim::exec::par_map_untraced((0..nt).collect(), |t| {
            let mut count = 0usize;
            for_each_tile_row(data, m, k, t / tx, t % tx, |row, _| {
                count += row.iter().filter(|v| !v.is_zero()).count();
            });
            count
        });
        let mut tile_offsets = Vec::with_capacity(nt + 1);
        tile_offsets.push(0u32);
        let mut nnz = 0usize;
        for c in &counts {
            nnz += c;
            tile_offsets.push(nnz as u32);
        }

        // Pass 2: fill disjoint per-tile spans.
        let mut non_zeros = vec![PackedNz(0); nnz];
        let mut spans = Vec::with_capacity(nt);
        let mut rest = non_zeros.as_mut_slice();
        for (t, &count) in counts.iter().enumerate() {
            let (span, tail) = rest.split_at_mut(count);
            rest = tail;
            spans.push((t, span));
        }
        gpu_sim::exec::par_map_untraced(spans, |(t, span)| {
            let mut i = 0usize;
            for_each_tile_row(data, m, k, t / tx, t % tx, |row, lr| {
                for (lc, v) in row.iter().enumerate() {
                    if !v.is_zero() {
                        span[i] = PackedNz::new(*v, (lr * TILE_COLS + lc) as u16);
                        i += 1;
                    }
                }
            });
            debug_assert_eq!(i, span.len(), "pass-2 fill disagrees with pass-1 count");
        });
        TiledCsl {
            m,
            k,
            m_pad,
            k_pad,
            tile_offsets,
            non_zeros,
            nnz,
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tile_offsets.len() - 1
    }

    /// Tiles along K.
    pub fn tiles_x(&self) -> usize {
        self.k_pad / TILE_COLS
    }

    /// Entries of one tile.
    pub fn tile_entries(&self, t: usize) -> &[PackedNz] {
        &self.non_zeros[self.tile_offsets[t] as usize..self.tile_offsets[t + 1] as usize]
    }

    /// Actual storage bytes.
    pub fn storage_bytes(&self) -> usize {
        4 * self.num_tiles() + 4 * self.nnz
    }

    /// Paper Eq. 2: `4B × NT + 4B × NNZ`.
    pub fn storage_bytes_formula(m: usize, k: usize, nnz: usize) -> usize {
        let nt = m.div_ceil(TILE_ROWS) * k.div_ceil(TILE_COLS);
        4 * nt + 4 * nnz
    }

    /// Compression ratio vs dense.
    pub fn compression_ratio(&self) -> f64 {
        (2 * self.m * self.k) as f64 / self.storage_bytes() as f64
    }

    /// Decodes back to dense.
    pub fn decode(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.m, self.k);
        let tx = self.tiles_x();
        for t in 0..self.num_tiles() {
            let (t_r, t_c) = (t / tx, t % tx);
            for e in self.tile_entries(t) {
                let pos = e.pos() as usize;
                let r = t_r * TILE_ROWS + pos / TILE_COLS;
                let c = t_c * TILE_COLS + pos % TILE_COLS;
                if r < self.m && c < self.k {
                    out.set(r, c, e.value());
                }
            }
        }
        out
    }
}

/// Visits each in-bounds row of tile `(t_r, t_c)` as a dense slice
/// clamped to the logical matrix extent, calling `f(row, lr)` with the
/// local row index. Overhanging tile cells (row ≥ `m` or col ≥ `k`)
/// are never visited, matching the serial scan's bounds guard.
#[inline]
fn for_each_tile_row(
    data: &[Half],
    m: usize,
    k: usize,
    t_r: usize,
    t_c: usize,
    mut f: impl FnMut(&[Half], usize),
) {
    let r0 = t_r * TILE_ROWS;
    let c0 = t_c * TILE_COLS;
    let rlim = TILE_ROWS.min(m.saturating_sub(r0));
    let clim = TILE_COLS.min(k.saturating_sub(c0));
    for lr in 0..rlim {
        let base = (r0 + lr) * k + c0;
        f(&data[base..base + clim], lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_sparse, ValueDist};

    #[test]
    fn packed_nz_roundtrip() {
        let p = PackedNz::new(Half::from_f32(2.5), 4095);
        assert_eq!(p.value().to_f32(), 2.5);
        assert_eq!(p.pos(), 4095);
    }

    #[test]
    fn roundtrip() {
        for &s in &[0.3, 0.5, 0.8] {
            let m = random_sparse(128, 192, s, ValueDist::Uniform, 11);
            let enc = TiledCsl::encode(&m);
            assert_eq!(enc.decode(), m, "sparsity {s}");
        }
    }

    #[test]
    fn roundtrip_unaligned() {
        let m = random_sparse(70, 100, 0.5, ValueDist::Uniform, 12);
        let enc = TiledCsl::encode(&m);
        assert_eq!(enc.decode(), m);
        assert_eq!(enc.m_pad, 128);
        assert_eq!(enc.k_pad, 128);
    }

    #[test]
    fn storage_matches_formula() {
        let m = random_sparse(256, 256, 0.6, ValueDist::Uniform, 13);
        let enc = TiledCsl::encode(&m);
        assert_eq!(
            enc.storage_bytes(),
            TiledCsl::storage_bytes_formula(256, 256, enc.nnz)
        );
    }

    #[test]
    fn cr_is_one_at_exactly_half_sparsity() {
        // 4B per non-zero vs 2B per dense element: CR = 2B·MK / 4B·NNZ
        // ≈ 1 / (2(1−s)) → exactly 1.0 at s = 0.5 (plus tiny tile offsets).
        let m = random_sparse(1024, 1024, 0.5, ValueDist::Uniform, 14);
        let enc = TiledCsl::encode(&m);
        let cr = enc.compression_ratio();
        assert!((cr - 1.0).abs() < 0.03, "CR {cr}");
    }

    #[test]
    fn cr_below_one_at_40_percent() {
        let m = random_sparse(1024, 1024, 0.4, ValueDist::Uniform, 15);
        assert!(TiledCsl::encode(&m).compression_ratio() < 1.0);
    }
}
