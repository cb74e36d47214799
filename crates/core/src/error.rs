//! Typed errors for the public API.
//!
//! The ergonomic entry points (`SpMMHandle::matmul`, `TcaBme::encode`)
//! panic on contract violations, matching CUDA's launch-failure
//! semantics; `SpmmKernel::launch` and the serving, speculation and
//! fleet configs return these typed errors for callers that handle
//! invalid inputs at runtime (e.g. the CLI).

/// Errors from the SpInfer public API.
#[derive(Clone, Debug, PartialEq)]
pub enum SpinferError {
    /// `X` must be `K×N` for a `M×K` weight matrix.
    DimensionMismatch {
        /// The weight matrix's K.
        expected_k: usize,
        /// The supplied activation row count.
        got: usize,
    },
    /// A TCA-BME container failed structural validation.
    Integrity(IntegrityError),
    /// A kernel detected corruption at runtime and could not recover.
    Kernel(KernelError),
    /// A kernel name not present in the registry
    /// (`spinfer_baselines::kernel_by_name`).
    UnknownKernel {
        /// The name that failed to resolve.
        name: String,
    },
    /// An encoding's padded value array exceeds the `u32` `GTileOffset`
    /// space, so offsets cannot address it (the serial encoder used to
    /// truncate silently).
    OffsetOverflow {
        /// Padded value elements required (saturating at `usize::MAX`).
        total: usize,
    },
    /// A `LengthMix::RoundRobin` workload with no profiles — request
    /// lengths would be undefined (the serving loop used to panic with a
    /// divide-by-zero on the profile index).
    EmptyLengthMix,
    /// A fleet cluster configuration that cannot be simulated (zero
    /// replicas, non-positive horizon, a retry policy with no attempts,
    /// ...). The reason names the offending field.
    InvalidCluster {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A speculative-decoding configuration that cannot be simulated
    /// (an out-of-range acceptance rate or speculative share, an
    /// oversized tree budget, ...). The reason names the offending
    /// field.
    InvalidSpec {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

/// Structural defects in an encoded container. The variants name the
/// invariants of the TCA-BME three-array format (paper Eq. 9) checked by
/// [`crate::TcaBme::validate`]; the offset variants double as the
/// validation vocabulary for the offset-indexed baseline formats (CSR
/// row pointers, Tiled-CSL tile offsets, BCSR block rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// `gtile_offsets` must hold `NGT + 1` entries.
    OffsetCount {
        /// Required entry count (`NGT + 1`).
        expected: usize,
        /// Entries actually present.
        got: usize,
    },
    /// GroupTile offsets must be monotonically non-decreasing.
    OffsetOrder {
        /// GroupTile whose span is inverted.
        gt: usize,
        /// The tile's start offset.
        start: u32,
        /// The tile's (smaller) end offset.
        end: u32,
    },
    /// Every offset must be [`crate::tca_bme::VALUE_PAD`]-aligned for
    /// `LDGSTS.128`.
    OffsetAlignment {
        /// Index into `gtile_offsets` of the misaligned entry.
        index: usize,
        /// The misaligned offset.
        offset: u32,
    },
    /// The final offset must equal the value-array length.
    OffsetEnd {
        /// Value-array length.
        expected: usize,
        /// Final offset actually stored.
        got: usize,
    },
    /// The bitmap array must hold `bts_per_gt` entries per GroupTile.
    BitmapCount {
        /// Required bitmap count.
        expected: usize,
        /// Bitmaps actually present.
        got: usize,
    },
    /// A GroupTile's bitmap population must match its value span
    /// (up to `VALUE_PAD - 1` padding elements).
    PopulationMismatch {
        /// GroupTile with the inconsistency.
        gt: usize,
        /// Total `popc64` over the tile's bitmaps.
        population: usize,
        /// Value span implied by the tile's offsets.
        span: usize,
    },
    /// The stored `nnz` must equal the total bitmap population.
    NnzMismatch {
        /// Population summed over all bitmaps.
        expected: usize,
        /// Stored `nnz`.
        got: usize,
    },
    /// An INT8 container must carry exactly one scale per GroupTile.
    ScaleCount {
        /// Required scale count (`NGT`).
        expected: usize,
        /// Scales actually present.
        got: usize,
    },
    /// An INT8 GroupTile scale must be finite and positive, or
    /// dequantization is meaningless.
    BadScale {
        /// GroupTile with the defective scale.
        gt: usize,
        /// IEEE-754 bits of the stored scale (bits, not the value —
        /// NaN payloads survive the round trip).
        bits: u32,
    },
}

/// Corruption detected *during* an SpMM launch by the checked kernel
/// path (a [`LaunchCtx`](crate::spmm::LaunchCtx) carrying a fault
/// injector or a [`FaultPolicy`](crate::spmm::FaultPolicy)). These
/// carry the GroupTile where detection fired so operators can correlate
/// with injected fault sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// A GroupTile's shared-memory image no longer matches its encoded
    /// checksum.
    ChecksumMismatch {
        /// GroupTile whose image failed verification.
        gt: usize,
        /// Checksum of the pristine encoding.
        expected: u32,
        /// Checksum of the loaded image.
        got: u32,
    },
    /// SMBD decode asked for more values than the GroupTile holds —
    /// a flipped bitmap bit inflated the `popc64` offsets.
    DecodeOverrun {
        /// GroupTile whose decode overran.
        gt: usize,
        /// Values the bitmaps demanded.
        needed: usize,
        /// Values actually present.
        available: usize,
    },
    /// A decoded fragment contained NaN/Inf not present in the encoding.
    NonFiniteDecode {
        /// GroupTile whose fragment went non-finite.
        gt: usize,
    },
    /// The recovery retry budget ran out before a clean load.
    RetryBudgetExhausted {
        /// GroupTile that kept failing.
        gt: usize,
        /// Attempts consumed (initial load + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::OffsetCount { expected, got } => {
                write!(f, "gtile_offsets has {got} entries, need {expected}")
            }
            IntegrityError::OffsetOrder { gt, start, end } => {
                write!(f, "GroupTile {gt} offsets decrease: {start} -> {end}")
            }
            IntegrityError::OffsetAlignment { index, offset } => {
                write!(f, "offset[{index}] = {offset} is not 4-element aligned")
            }
            IntegrityError::OffsetEnd { expected, got } => {
                write!(f, "final offset {got} != value count {expected}")
            }
            IntegrityError::BitmapCount { expected, got } => {
                write!(f, "bitmap array has {got} entries, need {expected}")
            }
            IntegrityError::PopulationMismatch {
                gt,
                population,
                span,
            } => write!(
                f,
                "GroupTile {gt}: bitmap population {population} inconsistent with value span {span}"
            ),
            IntegrityError::NnzMismatch { expected, got } => {
                write!(f, "stored nnz {got} != bitmap population {expected}")
            }
            IntegrityError::ScaleCount { expected, got } => {
                write!(
                    f,
                    "INT8 container has {got} scales, need one per GroupTile ({expected})"
                )
            }
            IntegrityError::BadScale { gt, bits } => {
                write!(
                    f,
                    "GroupTile {gt}: scale {:e} (bits {bits:#010x}) is not finite and positive",
                    f32::from_bits(*bits)
                )
            }
        }
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ChecksumMismatch { gt, expected, got } => write!(
                f,
                "GroupTile {gt}: checksum {got:#010x} != expected {expected:#010x}"
            ),
            KernelError::DecodeOverrun {
                gt,
                needed,
                available,
            } => write!(
                f,
                "GroupTile {gt}: SMBD decode needs {needed} values but only {available} present"
            ),
            KernelError::NonFiniteDecode { gt } => {
                write!(f, "GroupTile {gt}: decoded fragment contains NaN/Inf")
            }
            KernelError::RetryBudgetExhausted { gt, attempts } => {
                write!(f, "GroupTile {gt}: still corrupt after {attempts} attempts")
            }
        }
    }
}

impl std::fmt::Display for SpinferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpinferError::DimensionMismatch { expected_k, got } => {
                write!(f, "X has {got} rows but the weights need K = {expected_k}")
            }
            SpinferError::Integrity(e) => write!(f, "encoding integrity violation: {e}"),
            SpinferError::Kernel(e) => write!(f, "kernel fault: {e}"),
            SpinferError::UnknownKernel { name } => {
                write!(f, "unknown kernel '{name}': not in the kernel registry")
            }
            SpinferError::OffsetOverflow { total } => write!(
                f,
                "encoded values need {total} padded elements, beyond the u32 GTileOffset space"
            ),
            SpinferError::EmptyLengthMix => write!(
                f,
                "LengthMix::RoundRobin needs at least one (input, output) profile"
            ),
            SpinferError::InvalidCluster { reason } => {
                write!(f, "invalid cluster config: {reason}")
            }
            SpinferError::InvalidSpec { reason } => {
                write!(f, "invalid speculative-decoding config: {reason}")
            }
        }
    }
}

impl From<IntegrityError> for SpinferError {
    fn from(e: IntegrityError) -> Self {
        SpinferError::Integrity(e)
    }
}

impl From<KernelError> for SpinferError {
    fn from(e: KernelError) -> Self {
        SpinferError::Kernel(e)
    }
}

impl std::error::Error for SpinferError {}
impl std::error::Error for IntegrityError {}
impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = SpinferError::DimensionMismatch {
            expected_k: 128,
            got: 64,
        };
        assert!(e.to_string().contains("128"));
    }

    /// One instance of every `SpinferError` variant (and every nested
    /// `IntegrityError`/`KernelError` variant). The match arms below use
    /// no wildcard, so adding a variant without extending this list is a
    /// compile error — the Display test stays exhaustive by force.
    fn every_error() -> Vec<SpinferError> {
        let integrity = [
            IntegrityError::OffsetCount {
                expected: 5,
                got: 4,
            },
            IntegrityError::OffsetOrder {
                gt: 2,
                start: 96,
                end: 64,
            },
            IntegrityError::OffsetAlignment {
                index: 3,
                offset: 97,
            },
            IntegrityError::OffsetEnd {
                expected: 128,
                got: 120,
            },
            IntegrityError::BitmapCount {
                expected: 64,
                got: 63,
            },
            IntegrityError::PopulationMismatch {
                gt: 1,
                population: 40,
                span: 32,
            },
            IntegrityError::NnzMismatch {
                expected: 100,
                got: 99,
            },
            IntegrityError::ScaleCount {
                expected: 16,
                got: 15,
            },
            IntegrityError::BadScale {
                gt: 4,
                bits: f32::NEG_INFINITY.to_bits(),
            },
        ];
        let kernel = [
            KernelError::ChecksumMismatch {
                gt: 7,
                expected: 0xdead_beef,
                got: 0x1234_5678,
            },
            KernelError::DecodeOverrun {
                gt: 7,
                needed: 70,
                available: 64,
            },
            KernelError::NonFiniteDecode { gt: 7 },
            KernelError::RetryBudgetExhausted { gt: 7, attempts: 3 },
        ];
        let mut all = vec![
            SpinferError::DimensionMismatch {
                expected_k: 128,
                got: 64,
            },
            SpinferError::UnknownKernel {
                name: "FlashAttention".to_string(),
            },
            SpinferError::OffsetOverflow {
                total: 4_294_967_296,
            },
            SpinferError::EmptyLengthMix,
            SpinferError::InvalidCluster {
                reason: "replicas must be >= 1".to_string(),
            },
            SpinferError::InvalidSpec {
                reason: "acceptance_rate must be in [0, 1]".to_string(),
            },
        ];
        all.extend(integrity.into_iter().map(SpinferError::Integrity));
        all.extend(kernel.into_iter().map(SpinferError::Kernel));
        all
    }

    #[test]
    fn every_display_arm_is_covered_and_distinct() {
        let all = every_error();
        let mut seen = std::collections::HashSet::new();
        for e in &all {
            let text = e.to_string();
            assert!(!text.is_empty(), "{e:?} renders empty");
            assert!(seen.insert(text.clone()), "duplicate Display: {text}");
            // Each arm must surface its distinguishing payload.
            let token: &str = match e {
                SpinferError::DimensionMismatch { .. } => "K = 128",
                SpinferError::UnknownKernel { .. } => "'FlashAttention'",
                SpinferError::OffsetOverflow { .. } => "4294967296 padded elements",
                SpinferError::EmptyLengthMix => "at least one (input, output) profile",
                SpinferError::InvalidCluster { .. } => "replicas must be >= 1",
                SpinferError::InvalidSpec { .. } => "acceptance_rate must be in [0, 1]",
                SpinferError::Integrity(i) => match i {
                    IntegrityError::OffsetCount { .. } => "4 entries",
                    IntegrityError::OffsetOrder { .. } => "96 -> 64",
                    IntegrityError::OffsetAlignment { .. } => "offset[3] = 97",
                    IntegrityError::OffsetEnd { .. } => "final offset 120",
                    IntegrityError::BitmapCount { .. } => "63 entries",
                    IntegrityError::PopulationMismatch { .. } => "population 40",
                    IntegrityError::NnzMismatch { .. } => "nnz 99",
                    IntegrityError::ScaleCount { .. } => "15 scales",
                    IntegrityError::BadScale { .. } => "GroupTile 4: scale",
                },
                SpinferError::Kernel(k) => match k {
                    KernelError::ChecksumMismatch { .. } => "0x12345678",
                    KernelError::DecodeOverrun { .. } => "needs 70 values",
                    KernelError::NonFiniteDecode { .. } => "NaN/Inf",
                    KernelError::RetryBudgetExhausted { .. } => "after 3 attempts",
                },
            };
            assert!(text.contains(token), "{text:?} missing {token:?}");
        }
    }

    #[test]
    fn nested_errors_convert_into_spinfer_error() {
        let i = IntegrityError::NnzMismatch {
            expected: 10,
            got: 9,
        };
        assert_eq!(SpinferError::from(i), SpinferError::Integrity(i));
        let k = KernelError::NonFiniteDecode { gt: 0 };
        assert_eq!(SpinferError::from(k), SpinferError::Kernel(k));
        // The wrappers prefix the nested message.
        assert!(SpinferError::from(k)
            .to_string()
            .starts_with("kernel fault"));
        assert!(SpinferError::from(i)
            .to_string()
            .starts_with("encoding integrity violation"));
    }
}
