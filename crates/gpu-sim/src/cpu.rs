//! The host CPU's SIMD features, detected once per process.
//!
//! Every feature-compiled body in the workspace — the AVX2 `mma` MACs
//! (FP16 and INT8), the SpMM block copy with its `pshufb` SMBD rows
//! (F16C-widened halves, sign-extended codes), the sparse generator
//! walk, the f32 → f16 batch converter and the TCA-BME encode passes —
//! enables the one feature set [`Simd::detect`] checks, and runs only
//! where its caller holds a [`Simd`]. A body therefore cannot enable a
//! feature that was not checked. Each body has a portable twin that
//! computes the same bits; hosts without the features run those, as
//! does every non-x86_64 host and any build with
//! `RUSTFLAGS="--cfg spinfer_portable"`, which lets an x86_64 host run
//! the portable bodies end to end.

/// Proof that the host CPU has AVX2, BMI1, BMI2, F16C, LZCNT and
/// POPCNT. Only [`Simd::detect`] makes one, so a function that takes a
/// `Simd` may call a body compiled with those features.
///
/// FMA is not in the set: the MAC multiplies and adds unfused, and that
/// rounding is part of its bit contract.
#[derive(Clone, Copy, Debug)]
pub struct Simd(());

impl Simd {
    /// `Some` when the host has every feature of the set (checked once
    /// per process); always `None` off x86_64 and under
    /// `cfg(spinfer_portable)`. The answer changes only wall-clock.
    pub fn detect() -> Option<Simd> {
        #[cfg(all(target_arch = "x86_64", not(spinfer_portable)))]
        {
            static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            let has = *HAS.get_or_init(|| {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("bmi1")
                    && std::arch::is_x86_feature_detected!("bmi2")
                    && std::arch::is_x86_feature_detected!("f16c")
                    && std::arch::is_x86_feature_detected!("lzcnt")
                    && std::arch::is_x86_feature_detected!("popcnt")
            });
            has.then_some(Simd(()))
        }
        #[cfg(any(not(target_arch = "x86_64"), spinfer_portable))]
        {
            None
        }
    }
}
