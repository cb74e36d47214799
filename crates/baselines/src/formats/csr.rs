//! Compressed Sparse Row format (paper §3.2.1, Eq. 3).
//!
//! CSR stores non-zero values with 32-bit column indices plus a row-pointer
//! array: `Stor_CSR = (2B + 4B) × NNZ + 4B × (M + 1)`. The 4-byte column
//! index per 2-byte value is why CSR's compression ratio stays below 1
//! until ~67% sparsity — the indexing-overhead problem SpInfer attacks.

use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;

/// A sparse matrix in CSR format.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub k: usize,
    /// Row pointers, `m + 1` entries.
    pub row_ptr: Vec<u32>,
    /// Column index per non-zero.
    pub col_idx: Vec<u32>,
    /// Non-zero values.
    pub values: Vec<Half>,
}

impl Csr {
    /// Encodes a dense matrix.
    ///
    /// Two-pass scheme over row bands (see `gpu_sim::exec`): pass 1
    /// counts non-zeros per row in parallel, a serial prefix sum builds
    /// `row_ptr`, and pass 2 fills disjoint pre-allocated `col_idx` /
    /// `values` slices cut at band boundaries. Both passes visit rows
    /// in ascending order within a band and bands tile the row space in
    /// order, so the output is bit-identical to the serial row-major
    /// scan at every job count.
    pub fn encode(matrix: &DenseMatrix) -> Self {
        let m = matrix.rows();
        let k = matrix.cols();
        let data = matrix.as_slice();
        let bands = gpu_sim::exec::chunk_ranges(m, gpu_sim::exec::num_jobs());

        // Pass 1: per-row non-zero counts.
        let band_counts: Vec<Vec<u32>> = gpu_sim::exec::par_map_untraced(bands.clone(), |rows| {
            rows.map(|r| {
                data[r * k..(r + 1) * k]
                    .iter()
                    .filter(|v| !v.is_zero())
                    .count() as u32
            })
            .collect()
        });
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0u32);
        let mut nnz = 0usize;
        for c in band_counts.iter().flatten() {
            nnz += *c as usize;
            row_ptr.push(nnz as u32);
        }

        // Pass 2: fill disjoint per-band slices.
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![Half::ZERO; nnz];
        let mut jobs = Vec::with_capacity(bands.len());
        let (mut c_rest, mut v_rest) = (col_idx.as_mut_slice(), values.as_mut_slice());
        for rows in bands {
            let len = (row_ptr[rows.end] - row_ptr[rows.start]) as usize;
            let (c_band, c_tail) = c_rest.split_at_mut(len);
            let (v_band, v_tail) = v_rest.split_at_mut(len);
            c_rest = c_tail;
            v_rest = v_tail;
            jobs.push((rows, c_band, v_band));
        }
        gpu_sim::exec::par_map_untraced(jobs, |(rows, c_band, v_band)| {
            let mut i = 0usize;
            for r in rows {
                for (c, v) in data[r * k..(r + 1) * k].iter().enumerate() {
                    if !v.is_zero() {
                        c_band[i] = c as u32;
                        v_band[i] = *v;
                        i += 1;
                    }
                }
            }
            debug_assert_eq!(i, c_band.len(), "pass-2 fill disagrees with pass-1 count");
        });
        Csr {
            m,
            k,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zeros in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Actual storage bytes.
    pub fn storage_bytes(&self) -> usize {
        Self::storage_bytes_formula(self.m, self.nnz())
    }

    /// Paper Eq. 3: `(2B + 4B) × NNZ + 4B × (M + 1)`.
    pub fn storage_bytes_formula(m: usize, nnz: usize) -> usize {
        6 * nnz + 4 * (m + 1)
    }

    /// Compression ratio vs the dense matrix (paper Eq. 1).
    pub fn compression_ratio(&self) -> f64 {
        (2 * self.m * self.k) as f64 / self.storage_bytes() as f64
    }

    /// Decodes back to dense (correctness oracle).
    pub fn decode(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.m, self.k);
        for r in 0..self.m {
            for i in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                out.set(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
        out
    }

    /// Serial inner loop for output rows `rows`, writing into `out`
    /// (densely packed from the first requested row). `x_f32` is the
    /// pre-converted activation matrix with `n` columns and `v_f32` the
    /// pre-converted nonzero values — hoisting every per-element
    /// `f16 → f32` conversion and the X row slicing out of the
    /// per-nonzero loop. Shared by [`Csr::par_spmm_ref`] and the serial
    /// test oracle, so accumulation order is identical by construction at
    /// every job count.
    fn spmm_ref_rows(
        &self,
        v_f32: &[f32],
        x_f32: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        out: &mut [f32],
    ) {
        let r0 = rows.start;
        for r in rows {
            let out_row = &mut out[(r - r0) * n..(r - r0 + 1) * n];
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for (&v, &c) in v_f32[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                let x_row = &x_f32[c as usize * n..(c as usize + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(x_row) {
                    *o += v * b;
                }
            }
        }
    }

    /// Reference SpMM `self × x` with FP32 accumulation, fanned across
    /// host cores via [`gpu_sim::exec`]: each worker computes a
    /// contiguous band of output rows with the serial per-row loop (one
    /// shared pre-converted X and value buffer read by all workers), so
    /// the result is bit-identical to one serial pass at any job count.
    pub fn par_spmm_ref(&self, x: &DenseMatrix) -> Vec<f32> {
        assert_eq!(x.rows(), self.k);
        let n = x.cols();
        let x_f32 = x.to_f32_vec();
        let v_f32 = self.values.iter().map(|h| h.to_f32()).collect::<Vec<_>>();
        let bands = gpu_sim::exec::par_chunks(self.m, |rows| {
            let mut band = vec![0.0f32; rows.len() * n];
            self.spmm_ref_rows(&v_f32, &x_f32, n, rows, &mut band);
            band
        });
        bands.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_dense, random_sparse, ValueDist};

    /// The serial oracle [`Csr::par_spmm_ref`] is pinned against: one
    /// pass of the shared row loop over every output row.
    fn spmm_ref(enc: &Csr, x: &DenseMatrix) -> Vec<f32> {
        let n = x.cols();
        let x_f32 = x.to_f32_vec();
        let v_f32 = enc.values.iter().map(|h| h.to_f32()).collect::<Vec<_>>();
        let mut out = vec![0.0f32; enc.m * n];
        enc.spmm_ref_rows(&v_f32, &x_f32, n, 0..enc.m, &mut out);
        out
    }

    #[test]
    fn roundtrip() {
        let m = random_sparse(64, 96, 0.6, ValueDist::Uniform, 1);
        let enc = Csr::encode(&m);
        assert_eq!(enc.decode(), m);
        assert_eq!(enc.nnz(), m.nnz());
    }

    #[test]
    fn storage_formula() {
        let m = random_sparse(128, 128, 0.5, ValueDist::Uniform, 2);
        let enc = Csr::encode(&m);
        assert_eq!(enc.storage_bytes(), 6 * enc.nnz() + 4 * 129);
    }

    #[test]
    fn cr_below_one_at_half_sparsity() {
        // The paper's point: CSR *grows* memory at 50% sparsity.
        let m = random_sparse(512, 512, 0.5, ValueDist::Uniform, 3);
        let enc = Csr::encode(&m);
        assert!(
            enc.compression_ratio() < 1.0,
            "CR {}",
            enc.compression_ratio()
        );
    }

    #[test]
    fn cr_above_one_at_high_sparsity() {
        let m = random_sparse(512, 512, 0.9, ValueDist::Uniform, 4);
        let enc = Csr::encode(&m);
        assert!(enc.compression_ratio() > 2.0);
    }

    #[test]
    fn spmm_ref_matches_dense_reference() {
        let w = random_sparse(64, 64, 0.5, ValueDist::Uniform, 5);
        let x = random_dense(64, 8, ValueDist::Uniform, 6);
        let enc = Csr::encode(&w);
        let a = spmm_ref(&enc, &x);
        let b = w.matmul_ref(&x);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn par_spmm_ref_is_bit_identical_to_serial() {
        let w = random_sparse(123, 77, 0.7, ValueDist::Uniform, 7);
        let x = random_dense(77, 9, ValueDist::Uniform, 8);
        let enc = Csr::encode(&w);
        assert_eq!(enc.par_spmm_ref(&x), spmm_ref(&enc, &x));
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut m = DenseMatrix::zeros(4, 4);
        m.set(2, 1, Half::ONE);
        let enc = Csr::encode(&m);
        assert_eq!(enc.row_nnz(0), 0);
        assert_eq!(enc.row_nnz(2), 1);
        assert_eq!(enc.decode(), m);
    }
}
