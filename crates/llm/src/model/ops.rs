//! Elementwise and reduction operations for the functional transformer.
//!
//! Activations flow as FP32 host buffers between the simulated FP16
//! matmul kernels, matching how the real framework keeps FP32 accumulator
//! output before re-quantising to FP16 for the next GEMM.

/// Numerically stable softmax over a slice, in place.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
    for x in xs.iter_mut() {
        *x *= inv;
    }
}

/// LayerNorm over `x` (length `h`) with learned `gain`/`bias`.
pub fn layernorm(x: &[f32], gain: &[f32], bias: &[f32], out: &mut [f32]) {
    let h = x.len();
    assert_eq!(gain.len(), h);
    assert_eq!(bias.len(), h);
    assert_eq!(out.len(), h);
    let mean = x.iter().sum::<f32>() / h as f32;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
    let inv_std = 1.0 / (var + 1e-5).sqrt();
    for i in 0..h {
        out[i] = (x[i] - mean) * inv_std * gain[i] + bias[i];
    }
}

/// tanh-approximation GELU, matching common transformer implementations.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6) * (x + 0.044_715 * x * x * x)).tanh())
}

/// SiLU (swish), the gated-FFN activation of the LLaMA family.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Index of the maximum element (greedy sampling); ties take the first.
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0f32, 2.0, 3.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0f32, 1001.0, 1002.0];
        let mut b = vec![0.0f32, 1.0, 2.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn softmax_handles_empty_and_single() {
        let mut empty: Vec<f32> = vec![];
        softmax_inplace(&mut empty);
        let mut one = vec![5.0f32];
        softmax_inplace(&mut one);
        assert_eq!(one[0], 1.0);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = vec![1.0f32, 2.0, 3.0, 4.0];
        let gain = vec![1.0f32; 4];
        let bias = vec![0.0f32; 4];
        let mut out = vec![0.0f32; 4];
        layernorm(&x, &gain, &bias, &mut out);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_gain_and_bias() {
        let x = vec![0.0f32, 2.0];
        let gain = vec![2.0f32, 2.0];
        let bias = vec![1.0f32, 1.0];
        let mut out = vec![0.0f32; 2];
        layernorm(&x, &gain, &bias, &mut out);
        assert!((out[0] - (1.0 - 2.0)).abs() < 1e-4);
        assert!((out[1] - (1.0 + 2.0)).abs() < 1e-4);
    }

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn silu_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.7311).abs() < 1e-3);
        assert!(silu(-20.0).abs() < 1e-3);
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[1.0, 1.0]), 0);
    }
}
