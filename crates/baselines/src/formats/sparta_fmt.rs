//! SparTA's composable sparse format (paper §3.2.1, Eqs. 4–5).
//!
//! The matrix is decomposed into a 2:4 semi-structured part — at most two
//! non-zeros per group of four consecutive row elements, stored as two
//! FP16 values plus two 2-bit indices per group — and a CSR residual
//! holding any third/fourth non-zero of a group. Sparse Tensor Cores
//! execute the 2:4 part; CUDA cores execute the residual.
//!
//! Expected residual size under uniform sparsity `s` (Eq. 4):
//! `E = (MK/4) × (4(1−s)³s + 2(1−s)⁴)`, and total storage (Eq. 5):
//! `Stor = (2B + B/4) × MK/2 + Stor_CSR(E)`.

use crate::formats::csr::Csr;
use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;

/// A sparse matrix decomposed as 2:4 + CSR residual.
#[derive(Clone, Debug, PartialEq)]
pub struct SpartaFormat {
    /// Rows.
    pub m: usize,
    /// Logical columns.
    pub k: usize,
    /// Columns padded to a multiple of 4.
    pub k_pad: usize,
    /// Two FP16 values per 4-element group, row-major: `m × k_pad / 2`.
    pub nm_values: Vec<Half>,
    /// Per kept value, its 2-bit position within the group (packed four
    /// per byte in storage; kept unpacked here for clarity).
    pub nm_indices: Vec<u8>,
    /// Residual non-zeros that did not fit the 2:4 pattern.
    pub residual: Csr,
}

impl SpartaFormat {
    /// Decomposes a dense matrix. The first two non-zeros of each group
    /// (by position) go to the 2:4 part; the rest spill to CSR.
    ///
    /// Row bands are processed in parallel: each band fills its disjoint
    /// `nm_values` / `nm_indices` slice and collects spilled non-zeros as
    /// in-order `(col, value)` lists plus per-row counts. The residual
    /// CSR is then assembled directly from those lists — spills appear
    /// in ascending column order within each row, so the result is
    /// field-for-field identical to `Csr::encode` of the old dense
    /// spill matrix (which this replaces) at every job count.
    pub fn encode(matrix: &DenseMatrix) -> Self {
        let m = matrix.rows();
        let k = matrix.cols();
        let data = matrix.as_slice();
        let k_pad = k.div_ceil(4) * 4;
        let gpr = k_pad / 4;
        let bands = gpu_sim::exec::chunk_ranges(m, gpu_sim::exec::num_jobs());

        let mut nm_values = vec![Half::ZERO; m * gpr * 2];
        let mut nm_indices = vec![0u8; m * gpr * 2];
        let mut jobs = Vec::with_capacity(bands.len());
        let (mut v_rest, mut i_rest) = (nm_values.as_mut_slice(), nm_indices.as_mut_slice());
        for rows in bands {
            let len = rows.len() * gpr * 2;
            let (v_band, v_tail) = v_rest.split_at_mut(len);
            let (i_band, i_tail) = i_rest.split_at_mut(len);
            v_rest = v_tail;
            i_rest = i_tail;
            jobs.push((rows, v_band, i_band));
        }
        type BandSpill = (Vec<u32>, Vec<u32>, Vec<Half>);
        let band_spills: Vec<BandSpill> =
            gpu_sim::exec::par_map_untraced(jobs, |(rows, v_band, i_band)| {
                let mut counts = Vec::with_capacity(rows.len());
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                let r0 = rows.start;
                for r in rows {
                    let before = cols.len();
                    for g in 0..gpr {
                        let mut kept = 0usize;
                        for i in 0..4 {
                            let c = g * 4 + i;
                            if c >= k {
                                break;
                            }
                            let v = data[r * k + c];
                            if v.is_zero() {
                                continue;
                            }
                            if kept < 2 {
                                let slot = ((r - r0) * gpr + g) * 2 + kept;
                                v_band[slot] = v;
                                i_band[slot] = i as u8;
                                kept += 1;
                            } else {
                                cols.push(c as u32);
                                vals.push(v);
                            }
                        }
                    }
                    counts.push((cols.len() - before) as u32);
                }
                (counts, cols, vals)
            });

        // Assemble the residual CSR directly from the in-order spills.
        let total: usize = band_spills.iter().map(|(_, c, _)| c.len()).sum();
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0u32);
        let mut nnz = 0usize;
        let mut col_idx = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for (counts, cols, vals) in band_spills {
            for c in counts {
                nnz += c as usize;
                row_ptr.push(nnz as u32);
            }
            col_idx.extend_from_slice(&cols);
            values.extend_from_slice(&vals);
        }
        let residual = Csr {
            m,
            k,
            row_ptr,
            col_idx,
            values,
        };
        SpartaFormat {
            m,
            k,
            k_pad,
            nm_values,
            nm_indices,
            residual,
        }
    }

    /// Actual storage bytes: 2:4 values (2 B each, `MK/2` slots) + 2-bit
    /// indices (packed) + residual CSR.
    pub fn storage_bytes(&self) -> usize {
        let slots = self.m * self.k_pad / 2;
        2 * slots + slots.div_ceil(4) + self.residual.storage_bytes()
    }

    /// Paper Eq. 4: expected residual non-zeros under uniform sparsity.
    pub fn expected_csr_nnz(m: usize, k: usize, s: f64) -> f64 {
        let groups = (m * k) as f64 / 4.0;
        let d = 1.0 - s;
        groups * (4.0 * d.powi(3) * s + 2.0 * d.powi(4))
    }

    /// Paper Eq. 5: expected total storage under uniform sparsity.
    pub fn storage_bytes_formula(m: usize, k: usize, s: f64) -> f64 {
        let e_nnz = Self::expected_csr_nnz(m, k, s);
        (2.0 + 0.25) * (m * k) as f64 / 2.0
            + Csr::storage_bytes_formula(m, e_nnz.round() as usize) as f64
    }

    /// Compression ratio vs dense.
    pub fn compression_ratio(&self) -> f64 {
        (2 * self.m * self.k) as f64 / self.storage_bytes() as f64
    }

    /// Decodes back to dense (2:4 part + residual).
    pub fn decode(&self) -> DenseMatrix {
        let mut out = self.residual.decode();
        let groups_per_row = self.k_pad / 4;
        for r in 0..self.m {
            for g in 0..groups_per_row {
                for slot in 0..2 {
                    let i = (r * groups_per_row + g) * 2 + slot;
                    let v = self.nm_values[i];
                    if !v.is_zero() {
                        let c = g * 4 + self.nm_indices[i] as usize;
                        if c < self.k {
                            out.set(r, c, v);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_sparse, ValueDist};

    #[test]
    fn roundtrip() {
        for &s in &[0.3, 0.5, 0.7] {
            let m = random_sparse(64, 128, s, ValueDist::Uniform, 21);
            let enc = SpartaFormat::encode(&m);
            assert_eq!(enc.decode(), m, "sparsity {s}");
        }
    }

    #[test]
    fn roundtrip_unaligned_k() {
        let m = random_sparse(32, 50, 0.5, ValueDist::Uniform, 22);
        let enc = SpartaFormat::encode(&m);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn residual_is_empty_for_true_2_4_pattern() {
        // A matrix with exactly 2 non-zeros in each group of 4.
        let mut m = DenseMatrix::zeros(8, 16);
        for r in 0..8 {
            for g in 0..4 {
                m.set(r, g * 4, Half::ONE);
                m.set(r, g * 4 + 3, Half::from_f32(2.0));
            }
        }
        let enc = SpartaFormat::encode(&m);
        assert_eq!(enc.residual.nnz(), 0);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn dense_matrix_spills_half_to_csr() {
        let m = random_sparse(32, 32, 0.0, ValueDist::Uniform, 23);
        let enc = SpartaFormat::encode(&m);
        // 4 non-zeros per group: 2 kept, 2 spilled.
        assert_eq!(enc.residual.nnz(), 32 * 32 / 2);
    }

    #[test]
    fn expected_csr_nnz_matches_measurement() {
        let s = 0.5;
        let m = random_sparse(512, 512, s, ValueDist::Uniform, 24);
        let enc = SpartaFormat::encode(&m);
        let expected = SpartaFormat::expected_csr_nnz(512, 512, s);
        let actual = enc.residual.nnz() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected {expected}, measured {actual}"
        );
    }

    #[test]
    fn cr_slightly_above_one_at_50_percent() {
        // Paper Figure 3: SparTA's CR is a bit above 1 at 50%.
        let m = random_sparse(1024, 1024, 0.5, ValueDist::Uniform, 25);
        let enc = SpartaFormat::encode(&m);
        let cr = enc.compression_ratio();
        assert!(cr > 1.0 && cr < 1.4, "CR {cr}");
    }

    #[test]
    fn formula_tracks_actual_storage() {
        let m = random_sparse(1024, 1024, 0.6, ValueDist::Uniform, 26);
        let enc = SpartaFormat::encode(&m);
        let formula = SpartaFormat::storage_bytes_formula(1024, 1024, 0.6);
        let actual = enc.storage_bytes() as f64;
        assert!((actual - formula).abs() / formula < 0.05);
    }
}
