//! The element-at-a-time serial TCA-BME encoder, the reference the
//! two-pass parallel `TcaBme::encode_with` is pinned against. Include it
//! with `#[path = "common/encode_oracle.rs"] mod encode_oracle;`.

use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;
use spinfer_core::tca_bme::{BT_DIM, TT_DIM, VALUE_PAD};
use spinfer_core::{TcaBme, TcaBmeConfig};

/// Encodes `matrix` one element at a time: GroupTiles row-major,
/// TCTiles column-major within a GroupTile, BitmapTiles TL, BL, TR, BR
/// within a TCTile, bits row-major within a BitmapTile, and each
/// GroupTile's values padded to [`VALUE_PAD`]. Assumes the encoding
/// fits the `u32` offset space.
pub fn encode_serial_oracle(matrix: &DenseMatrix, config: TcaBmeConfig) -> TcaBme {
    let m = matrix.rows();
    let k = matrix.cols();
    let m_pad = m.div_ceil(config.gt_rows) * config.gt_rows;
    let k_pad = k.div_ceil(config.gt_cols) * config.gt_cols;
    let gts_y = m_pad / config.gt_rows;
    let gts_x = k_pad / config.gt_cols;

    let mut gtile_offsets = Vec::with_capacity(gts_y * gts_x + 1);
    let mut values: Vec<Half> = Vec::new();
    let mut bitmaps: Vec<u64> = Vec::new();
    let mut nnz = 0usize;
    let at = |r: usize, c: usize| {
        if r < m && c < k {
            matrix.get(r, c)
        } else {
            Half::ZERO
        }
    };

    for gty in 0..gts_y {
        for gtx in 0..gts_x {
            gtile_offsets.push(values.len() as u32);
            let base_r = gty * config.gt_rows;
            let base_c = gtx * config.gt_cols;
            for ttx in 0..config.tt_cols() {
                for tty in 0..config.tt_rows() {
                    let tt_r = base_r + tty * TT_DIM;
                    let tt_c = base_c + ttx * TT_DIM;
                    for (dr, dc) in [(0, 0), (BT_DIM, 0), (0, BT_DIM), (BT_DIM, BT_DIM)] {
                        let mut bitmap = 0u64;
                        for bit in 0..64 {
                            let v = at(tt_r + dr + bit / BT_DIM, tt_c + dc + bit % BT_DIM);
                            if !v.is_zero() {
                                bitmap |= 1u64 << bit;
                                values.push(v);
                                nnz += 1;
                            }
                        }
                        bitmaps.push(bitmap);
                    }
                }
            }
            while !values.len().is_multiple_of(VALUE_PAD) {
                values.push(Half::ZERO);
            }
        }
    }
    gtile_offsets.push(values.len() as u32);

    TcaBme {
        m,
        k,
        m_pad,
        k_pad,
        config,
        gtile_offsets,
        values,
        bitmaps,
        nnz,
    }
}
