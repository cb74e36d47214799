//! Scalar oracle of the FP16 `mma` kernel, for the test crates that pin
//! `mma_m16n8k16_bslice_ntiles` bit for bit. Include it with
//! `#[path = "common/mma_oracle.rs"] mod mma_oracle;`.

use gpu_sim::tensor_core::{AccF32, MMA_K, MMA_M};
use gpu_sim::Counters;

/// One `mma.m16n8k16` written out per element: `acc += A × B`, with B
/// read from a row-major buffer of leading dimension `ld`. Each output
/// sums its products `a[m][k] * b[k * ld + n]` from `+0.0` in ascending
/// `k`, one unfused multiply and add per step, then adds the sum to its
/// accumulator once. Records one `mma` instruction, as one tile of the
/// batched kernel does.
pub fn mma_bslice_oracle(
    counters: &mut Counters,
    a: &[[f32; MMA_K]; MMA_M],
    b: &[f32],
    ld: usize,
    acc: &mut AccF32,
) {
    for (a_row, acc_row) in a.iter().zip(acc.iter_mut()) {
        for (n, out) in acc_row.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                sum += av * b[k * ld + n];
            }
            *out += sum;
        }
    }
    counters.mma_insts += 1;
    counters.insts_issued += 1;
}
