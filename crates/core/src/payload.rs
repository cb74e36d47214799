//! The sealed value-payload abstraction behind [`TcaBmeOf`].
//!
//! TCA-BME's bitmap metadata is payload-agnostic: offsets, bitmaps, and
//! tile geometry never look inside a value. Only three things about the
//! element type matter to the shared machinery — its width (storage and
//! streamed bytes), its zero (decode scatter fill), and its
//! little-endian byte image (the per-GroupTile FNV-1a checksum). This
//! trait captures exactly those, so the container, serializer, SMBD
//! decode, and checked-kernel checksum loop are written once and shared
//! between the FP16 and INT8 datapaths instead of cloned.
//!
//! The trait is sealed: the wire format, the checksum byte stream, and
//! the kernel contract all depend on the closed set of payloads, so new
//! precisions must land here (with serialization + kernel support), not
//! in downstream crates.
//!
//! [`TcaBmeOf`]: crate::tca_bme::TcaBmeOf

use gpu_sim::fp16::Half;

mod sealed {
    /// Seals [`super::Payload`] to the precisions the stack supports.
    pub trait Sealed {}
    impl Sealed for gpu_sim::fp16::Half {}
    impl Sealed for i8 {}
}

/// A value precision the TCA-BME stack can carry.
///
/// Implemented for [`Half`] (FP16, the paper's format) and `i8` (the
/// quantized deployment payload; per-GroupTile `f32` scales live beside
/// the container, not inside it — see
/// [`TcaBmeInt8`](crate::tca_bme::TcaBmeInt8)).
pub trait Payload:
    sealed::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// Storage bytes per element (2 for FP16, 1 for INT8).
    const BYTES: usize;
    /// The additive identity — what decode scatters into absent lanes
    /// and what value-array padding holds.
    const ZERO: Self;
    /// Short precision label used in format keys and reports.
    const NAME: &'static str;

    /// Feeds this element's little-endian storage bytes to a checksum.
    /// For [`Half`] this is the 2-byte `to_bits` image — byte-identical
    /// to the pre-refactor FP16 checksum stream.
    fn feed_checksum(self, eat: impl FnMut(u8));

    /// Writes this element's little-endian storage bytes into `dst`,
    /// which is [`Self::BYTES`] long (the wire format's value image).
    fn put_le(self, dst: &mut [u8]);

    /// Reads an element back from its [`Self::BYTES`] little-endian
    /// storage bytes.
    fn get_le(src: &[u8]) -> Self;

    /// Widens to `f32` (the accumulator domain both datapaths share).
    fn to_f32(self) -> f32;

    /// Maps an injected FP16 poison pattern onto this payload — the
    /// shared-memory gather fault hook yields [`Half`] patterns; an
    /// INT8 gather takes the low byte of the same draw.
    fn from_poison(poison: Half) -> Self;
}

impl Payload for Half {
    const BYTES: usize = 2;
    const ZERO: Self = Half::ZERO;
    const NAME: &'static str = "fp16";

    fn feed_checksum(self, mut eat: impl FnMut(u8)) {
        for b in self.to_bits().to_le_bytes() {
            eat(b);
        }
    }

    fn put_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_bits().to_le_bytes());
    }

    fn get_le(src: &[u8]) -> Self {
        Half::from_bits(u16::from_le_bytes([src[0], src[1]]))
    }

    fn to_f32(self) -> f32 {
        Half::to_f32(self)
    }

    fn from_poison(poison: Half) -> Self {
        poison
    }
}

impl Payload for i8 {
    const BYTES: usize = 1;
    const ZERO: Self = 0;
    const NAME: &'static str = "int8";

    fn feed_checksum(self, mut eat: impl FnMut(u8)) {
        eat(self as u8);
    }

    fn put_le(self, dst: &mut [u8]) {
        dst[0] = self as u8;
    }

    fn get_le(src: &[u8]) -> Self {
        src[0] as i8
    }

    fn to_f32(self) -> f32 {
        f32::from(self)
    }

    fn from_poison(poison: Half) -> Self {
        (poison.to_bits() & 0xFF) as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_checksum_bytes_match_to_bits_le() {
        let h = Half::from_f32(1.5);
        let mut got = Vec::new();
        h.feed_checksum(&mut |b| got.push(b));
        assert_eq!(got, h.to_bits().to_le_bytes().to_vec());
        assert_eq!(got.len(), Half::BYTES);
    }

    #[test]
    fn i8_checksum_is_one_twos_complement_byte() {
        let mut got = Vec::new();
        (-3i8).feed_checksum(&mut |b| got.push(b));
        assert_eq!(got, vec![0xFDu8]);
        assert_eq!(got.len(), <i8 as Payload>::BYTES);
    }

    #[test]
    fn poison_maps_preserve_nonzero_detectability() {
        // The injector's FP16 poison patterns are NaNs with a nonzero
        // low byte; the INT8 projection must keep a nonzero code so a
        // poisoned gather still perturbs the product.
        let p = Half::from_bits(0x7FFF);
        assert_eq!(<Half as Payload>::from_poison(p), p);
        assert_ne!(<i8 as Payload>::from_poison(p), 0);
    }

    #[test]
    fn zero_widens_to_positive_zero() {
        assert_eq!(<Half as Payload>::ZERO.to_f32().to_bits(), 0.0f32.to_bits());
        assert_eq!(<i8 as Payload>::ZERO.to_f32().to_bits(), 0.0f32.to_bits());
    }
}
