//! INT8 quantisation composed with TCA-BME (paper §2.3).
//!
//! The paper positions SpInfer as *complementary* to weight quantisation:
//! the bitmap indexes positions, so nothing stops the packed `Values`
//! array from holding INT8 instead of FP16. Since the core grew a real
//! INT8 container ([`TcaBmeInt8`]) and a registered kernel
//! (`SpInfer-INT8`), this module is a thin pruning-pipeline adapter over
//! them: quantisation, storage accounting, the analytic estimate, and
//! functional execution all delegate to the core — nothing here
//! re-models the INT8 datapath.

use gpu_sim::fp16::Half;
use gpu_sim::matrix::DenseMatrix;
use gpu_sim::spec::GpuSpec;
use spinfer_core::spmm::{FormatStats, SpmmRun};
use spinfer_core::tca_bme::{TcaBme, TcaBmeInt8};
use spinfer_core::SpinferSpmmInt8;

/// TCA-BME with INT8 values and per-GroupTile scales — a pruning-stack
/// handle over the core container the registered `SpInfer-INT8` kernel
/// launches against.
#[derive(Clone, Debug)]
pub struct QuantizedTcaBme {
    /// The core INT8 container: `i8` codes in the FP16 value layout plus
    /// one dequantisation scale per GroupTile.
    pub inner: TcaBmeInt8,
}

impl QuantizedTcaBme {
    /// Quantises an encoded matrix: per GroupTile, `scale = max|v| / 127`
    /// (the core's symmetric scheme).
    pub fn quantize(w: &TcaBme) -> Self {
        QuantizedTcaBme {
            inner: w.quantize_int8(),
        }
    }

    /// Per-GroupTile dequantisation scale.
    pub fn scale(&self, gt: usize) -> f32 {
        self.inner.scale(gt)
    }

    /// Dequantises back to an FP16-valued encoding: identical geometry
    /// (bitmaps, offsets, padding), each code mapped through its
    /// GroupTile scale.
    pub fn dequantize(&self) -> TcaBme {
        let t = &self.inner.tiles;
        let mut values = Vec::with_capacity(t.values.len());
        for gt in 0..t.num_gtiles() {
            let s = t.gtile_offsets[gt] as usize;
            let e = t.gtile_offsets[gt + 1] as usize;
            let scale = self.inner.scales[gt];
            values.extend(
                t.values[s..e]
                    .iter()
                    .map(|&q| Half::from_f32(f32::from(q) * scale)),
            );
        }
        TcaBme {
            m: t.m,
            k: t.k,
            m_pad: t.m_pad,
            k_pad: t.k_pad,
            config: t.config,
            gtile_offsets: t.gtile_offsets.clone(),
            values,
            bitmaps: t.bitmaps.clone(),
            nnz: t.nnz,
        }
    }

    /// Storage bytes of the INT8 container (codes + scales + bitmaps +
    /// offsets) — the same accounting the serialized v3 container pins.
    pub fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    /// Compression ratio vs the dense FP16 matrix.
    pub fn compression_ratio(&self) -> f64 {
        self.inner.compression_ratio()
    }

    /// Analytic kernel estimate — the registered INT8 kernel's own
    /// estimator (half the value traffic, `mma.s8` pricing, scale-fold
    /// instructions), not a local re-model.
    pub fn estimate(&self, spec: &GpuSpec, n: usize) -> SpmmRun {
        SpinferSpmmInt8::new().estimate(spec, &FormatStats::from_encoded(&self.inner.tiles), n)
    }

    /// Functional execution through the registered INT8 kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows()` differs from the container's K.
    pub fn run(&self, spec: &GpuSpec, x: &DenseMatrix) -> SpmmRun {
        SpinferSpmmInt8::new().run(spec, &self.inner, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{max_abs_diff, random_dense, random_sparse, ValueDist};
    use spinfer_core::serialize;
    use spinfer_core::SpinferSpmm;

    fn encoded(sparsity: f64, seed: u64) -> TcaBme {
        TcaBme::encode(&random_sparse(
            256,
            256,
            sparsity,
            ValueDist::Normal { std: 0.05 },
            seed,
        ))
    }

    #[test]
    fn quantise_dequantise_bounded_error() {
        let w = encoded(0.6, 81);
        let q = QuantizedTcaBme::quantize(&w);
        let back = q.dequantize();
        let a = w.decode();
        let b = back.decode();
        // Per-element error ≤ scale/2; scales are per-GroupTile maxima.
        let max_scale = q.inner.scales.iter().copied().fold(0.0f32, f32::max);
        let err = max_abs_diff(
            &a.as_slice().iter().map(|h| h.to_f32()).collect::<Vec<_>>(),
            &b.as_slice().iter().map(|h| h.to_f32()).collect::<Vec<_>>(),
        );
        assert!(
            err <= max_scale * 0.51 + 1e-4,
            "err {err} scale {max_scale}"
        );
    }

    #[test]
    fn no_spurious_nonzeros_appear() {
        // Quantisation may *underflow* small values to zero but must
        // never create a non-zero where the bitmap says zero.
        let w = encoded(0.7, 82);
        let q = QuantizedTcaBme::quantize(&w);
        let orig = w.decode();
        let back = q.dequantize().decode();
        assert!(back.nnz() <= orig.nnz());
        for r in 0..orig.rows() {
            for c in 0..orig.cols() {
                if orig.get(r, c).is_zero() {
                    assert!(back.get(r, c).is_zero(), "spurious non-zero at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn storage_roughly_halves_value_bytes() {
        let w = encoded(0.5, 83);
        let q = QuantizedTcaBme::quantize(&w);
        let fp16 = w.storage_bytes();
        let int8 = q.storage_bytes();
        assert!(int8 < fp16, "int8 {int8} vs fp16 {fp16}");
        // Values dominate at 50% sparsity: expect ~35-50% total reduction.
        let ratio = int8 as f64 / fp16 as f64;
        assert!(ratio > 0.5 && ratio < 0.75, "ratio {ratio}");
        assert!(q.compression_ratio() > w.compression_ratio() * 1.3);
    }

    #[test]
    fn storage_bytes_pins_the_serialized_v3_layout() {
        // The byte accounting must agree with what actually lands on
        // disk: the v3 container is storage_bytes() plus fixed framing
        // (8 B magic + 56 B header + five 8 B section lengths) plus the
        // 4 B/GroupTile integrity checksums.
        for (sparsity, seed) in [(0.3, 91), (0.6, 92), (0.9, 93)] {
            let w = encoded(sparsity, seed);
            let q = QuantizedTcaBme::quantize(&w);
            let disk = serialize::to_bytes_int8(&q.inner).len();
            let framing = 8 + 56 + 5 * 8 + 4 * q.inner.tiles.num_gtiles();
            assert_eq!(
                disk,
                q.storage_bytes() + framing,
                "v3 bytes vs storage accounting at sparsity {sparsity}"
            );
        }
    }

    #[test]
    fn quantised_kernel_is_faster_in_the_memory_bound_regime() {
        let spec = GpuSpec::rtx4090();
        let w = TcaBme::encode(&random_sparse(
            2048,
            2048,
            0.6,
            ValueDist::Normal { std: 0.05 },
            84,
        ));
        let q = QuantizedTcaBme::quantize(&w);
        let t_fp16 = SpinferSpmm::new()
            .estimate(&spec, &FormatStats::from_encoded(&w), 16)
            .time_us();
        let t_int8 = q.estimate(&spec, 16).time_us();
        assert!(t_int8 < t_fp16, "int8 {t_int8} vs fp16 {t_fp16}");
    }

    #[test]
    fn estimate_is_the_registered_kernels_estimate() {
        // Thin-wrapper check: identical launch chain (same simulated
        // time bits and counters) as calling the kernel directly.
        let spec = GpuSpec::rtx4090();
        let w = encoded(0.6, 87);
        let q = QuantizedTcaBme::quantize(&w);
        let via_wrapper = q.estimate(&spec, 16);
        let direct =
            SpinferSpmmInt8::new().estimate(&spec, &FormatStats::from_encoded(&q.inner.tiles), 16);
        assert_eq!(
            via_wrapper.time_us().to_bits(),
            direct.time_us().to_bits(),
            "wrapper must not re-model the kernel"
        );
        assert_eq!(
            via_wrapper.chain.merged_counters(),
            direct.chain.merged_counters()
        );
    }

    #[test]
    fn functional_run_goes_through_the_real_int8_kernel() {
        let spec = GpuSpec::rtx4090();
        let dense = random_sparse(128, 128, 0.5, ValueDist::Normal { std: 0.05 }, 88);
        let x = random_dense(128, 8, ValueDist::Normal { std: 0.5 }, 89);
        let q = QuantizedTcaBme::quantize(&TcaBme::encode(&dense));
        let run = q.run(&spec, &x);
        let direct = SpinferSpmmInt8::new().run(&spec, &q.inner, &x);
        assert_eq!(run.output, direct.output, "same kernel, same bits");
        let rel = {
            let reference = dense.matmul_ref(&x);
            let out = run.output.as_ref().unwrap();
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for (a, b) in out.iter().zip(&reference) {
                num += f64::from(a - b) * f64::from(a - b);
                den += f64::from(*b) * f64::from(*b);
            }
            (num / den.max(1e-12)).sqrt()
        };
        assert!(rel < 0.02, "relative output error {rel}");
    }

    #[test]
    fn matmul_through_dequantised_weights_is_accurate() {
        let dense = random_sparse(128, 128, 0.5, ValueDist::Normal { std: 0.05 }, 85);
        let x = random_dense(128, 8, ValueDist::Normal { std: 0.5 }, 86);
        let w = TcaBme::encode(&dense);
        let q = QuantizedTcaBme::quantize(&w);
        let reference = dense.matmul_ref(&x);
        let approx = q.dequantize().decode().matmul_ref(&x);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in approx.iter().zip(&reference) {
            num += f64::from(a - b) * f64::from(a - b);
            den += f64::from(*b) * f64::from(*b);
        }
        let rel = (num / den.max(1e-12)).sqrt();
        assert!(rel < 0.02, "relative output error {rel}");
    }

    #[test]
    fn empty_grouptile_gets_unit_scale() {
        let w = TcaBme::encode(&gpu_sim::DenseMatrix::zeros(64, 128));
        let q = QuantizedTcaBme::quantize(&w);
        assert!(q.inner.scales.iter().all(|&s| s == 1.0));
        assert_eq!(q.dequantize().decode().nnz(), 0);
    }
}
