//! The host CPU's SIMD features, detected once per process, and the one
//! place in the workspace that compiles code with them.
//!
//! The capability is chosen once, at an entry point, and is a type
//! everywhere below it. Each entry point — the SpMM block, the matrix
//! generators, the two TCA-BME encode passes, the INT8 quantize and the
//! standalone MAC and TCTile-decode benchmarks — matches
//! [`Simd::detect`] once. With a token it enters [`Simd::vectorize`]
//! once, which compiles its closure with the feature set `detect`
//! checks; without one it calls the same body on [`Portable`]. Every
//! body below is generic over [`Isa`] and picks each leaf by matching
//! [`Isa::simd`], which the compiler resolves per type, so a body never
//! takes a runtime choice and `vectorize` never nests. The intrinsic
//! leaves enable no features of their own: they are `#[inline(always)]`
//! and inline into the `vectorize` copy. Bodies with no intrinsic leaf
//! (the generator walk, the f32 → f16 converter, the encode and
//! quantize workers) take no capability: they are `#[inline(always)]`,
//! so they compile with the features of the region they inline into.
//!
//! Each leaf has a portable twin that computes the same bits; hosts
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

    /// Runs `f` compiled with the features of the set. Only entry points
    /// call it, once each; the bodies below them are generic over
    /// [`Isa`] and never call it again. Pass an `#[inline(always)] move`
    /// closure. The attribute makes it inline
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

/// The portable capability: nothing beyond the target's baseline. Every
/// host can run it; hosts without the [`Simd`] features run every body
/// on it.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

/// A SIMD capability as a static type: [`Simd`] or [`Portable`]. A body
/// generic over it picks its leaf with `match cap.simd()`; each type
/// answers a constant, so the compiler keeps one arm.
pub trait Isa: Copy {
    /// The token when this capability runs the intrinsic leaves: `Some`
    /// on [`Simd`], `None` on [`Portable`].
    fn simd(self) -> Option<Simd>;
}

impl Isa for Simd {
    #[inline(always)]
    fn simd(self) -> Option<Simd> {
        Some(self)
    }
}

impl Isa for Portable {
    #[inline(always)]
    fn simd(self) -> Option<Simd> {
        None
    }
}

/// `f()`, compiled with the [`Simd`] feature set. Never inlined, so each
/// region is a function of its own: callers without the features could
/// not inline it anyway, and a nested region, which a caller with the
/// features could absorb, stays visible to `scripts/check_simd_inlined.sh`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,f16c,lzcnt,popcnt")]
#[inline(never)]
fn with_features<R>(f: impl FnOnce() -> R) -> R {
    f()
}
