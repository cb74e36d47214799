//! The host CPU's SIMD features, detected once per process, and the one
//! place in the workspace that compiles code with them.
//!
//! Every feature-compiled body — the SpMM block copy with its `pshufb`
//! SMBD rows (F16C-widened halves, sign-extended codes) and the AVX2
//! `mma` MAC it calls, the standalone TCTile decode, the MAC batches,
//! the sparse generator walk, the f32 → f16 batch converter and the
//! TCA-BME encode passes — runs through [`Simd::vectorize`], which
//! compiles its closure with the feature set [`Simd::detect`] checks.
//! Only a [`Simd`] can call it, so no body can run where a feature was
//! not checked. The intrinsic leaves enable no features of their own:
//! they are `#[inline(always)]` and inline into the `vectorize` copy.
//! Each body has a portable twin that computes the same bits; hosts
//! without the features run those, as does every non-x86_64 host and
//! any build with `RUSTFLAGS="--cfg spinfer_portable"`, which lets an
//! x86_64 host run the portable bodies end to end.

/// Proof that the host CPU has AVX2, BMI1, BMI2, F16C, LZCNT and
/// POPCNT. Only [`Simd::detect`] makes one, so a function that takes a
/// `Simd` may run code compiled with those features.
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

    /// Runs `f` compiled with the features of the set. Pass an
    /// `#[inline(always)] move` closure. The attribute makes it inline
    /// into this copy, and with it every `#[inline(always)]` function it
    /// calls, intrinsics included; without it the closure may stay out
    /// of line, compiled without the features, and its intrinsics become
    /// calls (`scripts/check_simd_inlined.sh` fails a binary that makes
    /// one). `move` hands the body its references themselves: captured
    /// by reference, each `&mut` argument is reached through the
    /// caller's frame, and the SpMM block ran about 10 % slower.
    #[inline]
    pub fn vectorize<R>(self, f: impl FnOnce() -> R) -> R {
        // SAFETY: `self` proves the host has every feature
        // `with_features` enables.
        #[cfg(target_arch = "x86_64")]
        return unsafe { with_features(f) };
        #[cfg(not(target_arch = "x86_64"))]
        f()
    }
}

/// `f()`, compiled with the [`Simd`] feature set.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,f16c,lzcnt,popcnt")]
fn with_features<R>(f: impl FnOnce() -> R) -> R {
    f()
}
