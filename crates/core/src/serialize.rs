//! Binary serialisation of TCA-BME weights.
//!
//! A serving deployment converts checkpoints once and loads the encoded
//! weights at startup (the artifact's "Downloading & Converting OPT
//! models" step). The layout is a little-endian, versioned container:
//!
//! ```text
//! magic   [8]  b"TCABME\0\2"  (FP16)  /  b"TCABME\0\3"  (INT8)
//! m, k, m_pad, k_pad, gt_rows, gt_cols, nnz        u64 × 7
//! len(checksums)     u64, then u32 entries          (v2/v3; = NGT)
//! len(gtile_offsets) u64, then u32 entries
//! len(values)        u64, then payload entries      (v1/v2: u16 FP16
//!                                                    bits; v3: i8)
//! len(bitmaps)       u64, then u64 entries
//! len(scales)        u64, then f32-bit u32 entries  (v3 only; = NGT)
//! ```
//!
//! Version 2 adds one FNV-1a checksum per GroupTile (over that tile's
//! bitmaps + values, see [`crate::tca_bme::checksum_gtile`]) directly
//! after the header; version-1 containers are still readable, just
//! without checksum verification. Version 3 carries the quantized
//! payload — 1-byte `i8` codes, checksums computed over those code
//! bytes, and a trailing per-GroupTile `f32` scale section — and is
//! decoded by [`from_bytes_int8`] into a [`TcaBmeInt8`]. The two
//! readers share one generic section parser; handing a container to
//! the reader of the other payload fails with the typed
//! [`DecodeError::PayloadMismatch`] rather than a magic error, since
//! the bytes *are* a valid TCA-BME container — just not of the
//! expected precision.
//!
//! Deserialisation validates the header, cross-checks array lengths
//! against the geometry, verifies the per-tile checksums, and runs full
//! structural validation ([`TcaBme::validate`] /
//! [`TcaBmeInt8::validate`]), so corrupted or truncated inputs fail
//! with a typed error rather than producing a malformed matrix — and
//! *never* panic or over-allocate, however adversarial the bytes (all
//! declared lengths are bounded against the remaining input before
//! allocation).

use crate::error::IntegrityError;
use crate::payload::Payload;
use crate::tca_bme::{TcaBme, TcaBmeConfig, TcaBmeInt8, TcaBmeOf};
use gpu_sim::fp16::Half;

/// Container magic: format name + version 2 (per-GroupTile checksums).
const MAGIC_V2: &[u8; 8] = b"TCABME\x00\x02";
/// Version-1 magic (no checksum section), still accepted on read.
const MAGIC_V1: &[u8; 8] = b"TCABME\x00\x01";
/// Version-3 magic: INT8 codes + per-GroupTile scales.
const MAGIC_V3: &[u8; 8] = b"TCABME\x00\x03";

/// Deserialisation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic/version.
    BadMagic,
    /// Input ended before the declared payload.
    Truncated,
    /// Header fields are mutually inconsistent.
    Inconsistent(&'static str),
    /// A GroupTile's payload doesn't match its stored checksum.
    Checksum {
        /// First GroupTile that failed verification.
        gt: usize,
    },
    /// A well-formed TCA-BME container of the *other* value precision
    /// was handed to this reader — e.g. a v3 INT8 container to
    /// [`from_bytes`], or a v1/v2 FP16 container to
    /// [`from_bytes_int8`]. The payload widths differ, so reading on
    /// regardless would misparse every section after the header.
    PayloadMismatch {
        /// Payload precision this reader decodes.
        expected: &'static str,
        /// Payload precision the container actually carries.
        got: &'static str,
    },
    /// The container parsed but failed structural validation.
    Integrity(IntegrityError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a TCA-BME container (bad magic/version)"),
            DecodeError::Truncated => write!(f, "truncated TCA-BME container"),
            DecodeError::Inconsistent(what) => write!(f, "inconsistent container: {what}"),
            DecodeError::Checksum { gt } => {
                write!(f, "GroupTile {gt} failed checksum verification")
            }
            DecodeError::PayloadMismatch { expected, got } => write!(
                f,
                "container carries {got} values but this reader expects {expected}"
            ),
            DecodeError::Integrity(e) => write!(f, "invalid container structure: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a length-prefixed section: `items.len()` as a `u64`, then
/// each item's `width` little-endian bytes, written by `put` into one
/// pre-sized tail of `out`.
fn put_section<T: Copy>(out: &mut Vec<u8>, items: &[T], width: usize, put: impl Fn(T, &mut [u8])) {
    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
    let start = out.len();
    out.resize(start + width * items.len(), 0);
    for (dst, &item) in out[start..].chunks_exact_mut(width).zip(items) {
        put(item, dst);
    }
}

/// Writes the shared post-magic sections: header, optional checksums,
/// offsets, payload values, bitmaps.
fn write_container<P: Payload>(out: &mut Vec<u8>, w: &TcaBmeOf<P>, checksums: Option<&[u32]>) {
    for v in [
        w.m as u64,
        w.k as u64,
        w.m_pad as u64,
        w.k_pad as u64,
        w.config.gt_rows as u64,
        w.config.gt_cols as u64,
        w.nnz as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let put_u32 = |v: u32, dst: &mut [u8]| dst.copy_from_slice(&v.to_le_bytes());
    if let Some(sums) = checksums {
        put_section(out, sums, 4, put_u32);
    }
    put_section(out, &w.gtile_offsets, 4, put_u32);
    put_section(out, &w.values, P::BYTES, P::put_le);
    put_section(out, &w.bitmaps, 8, |v, dst| {
        dst.copy_from_slice(&v.to_le_bytes())
    });
}

/// Serialises an encoded matrix to bytes (version 2, checksummed).
pub fn to_bytes(w: &TcaBme) -> Vec<u8> {
    let sums = w.gtile_checksums();
    let mut out = Vec::with_capacity(8 + 7 * 8 + 4 * 8 + 4 * sums.len() + w.storage_bytes());
    out.extend_from_slice(MAGIC_V2);
    write_container(&mut out, w, Some(&sums));
    out
}

/// Serialises a quantized container to bytes (version 3: `i8` codes,
/// checksums over the code bytes, trailing per-GroupTile scales).
pub fn to_bytes_int8(w: &TcaBmeInt8) -> Vec<u8> {
    let sums = w.tiles.gtile_checksums();
    let mut out = Vec::with_capacity(8 + 7 * 8 + 5 * 8 + 4 * sums.len() + w.storage_bytes());
    out.extend_from_slice(MAGIC_V3);
    write_container(&mut out, &w.tiles, Some(&sums));
    put_section(&mut out, &w.scales, 4, |v, dst| {
        dst.copy_from_slice(&v.to_bits().to_le_bytes())
    });
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bytes left in the input — the bound every declared array length
    /// is checked against *before* allocation, so a mutated length field
    /// can neither overflow arithmetic nor trigger a huge allocation.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a declared element count and bounds it: `count * elem_size`
    /// must fit in the remaining input.
    fn bounded_len(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        match n.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Reads `n` items of `width` bytes each, decoding each with `get`;
    /// `n` comes from [`Self::bounded_len`] with the same `width`.
    fn items<T>(
        &mut self,
        n: usize,
        width: usize,
        get: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        Ok(self.take(n * width)?.chunks_exact(width).map(get).collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        self.items(n, 4, |b| u32::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Container versions distinguished by the magic.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Version {
    V1,
    V2,
    V3,
}

fn read_magic(r: &mut Reader) -> Result<Version, DecodeError> {
    let magic = r.take(8)?;
    if magic == MAGIC_V1 {
        Ok(Version::V1)
    } else if magic == MAGIC_V2 {
        Ok(Version::V2)
    } else if magic == MAGIC_V3 {
        Ok(Version::V3)
    } else {
        Err(DecodeError::BadMagic)
    }
}

/// `pad` is the smallest multiple of `tile` that is ≥ `dim` — checked
/// without the `div_ceil * tile` product, which overflows on
/// adversarial 64-bit header fields.
fn valid_padding(dim: usize, pad: usize, tile: usize) -> bool {
    pad >= dim && pad.is_multiple_of(tile) && pad - dim < tile
}

/// Reads the shared post-magic sections — header, optional checksum
/// section, offsets, payload values, bitmaps — verifies per-tile
/// checksums when present, and runs structural validation. One parser
/// serves every version/payload pair: the payload only determines the
/// element width and decoder ([`Payload::get_le`]).
fn read_container<P: Payload>(
    r: &mut Reader,
    with_checksums: bool,
) -> Result<TcaBmeOf<P>, DecodeError> {
    let m = r.u64()? as usize;
    let k = r.u64()? as usize;
    let m_pad = r.u64()? as usize;
    let k_pad = r.u64()? as usize;
    let gt_rows = r.u64()? as usize;
    let gt_cols = r.u64()? as usize;
    let nnz = r.u64()? as usize;

    if gt_rows == 0 || gt_cols == 0 || !gt_rows.is_multiple_of(16) || !gt_cols.is_multiple_of(16) {
        return Err(DecodeError::Inconsistent("GroupTile geometry"));
    }
    if !valid_padding(m, m_pad, gt_rows) || !valid_padding(k, k_pad, gt_cols) {
        return Err(DecodeError::Inconsistent("padded dimensions"));
    }
    let ngt = (m_pad / gt_rows)
        .checked_mul(k_pad / gt_cols)
        .ok_or(DecodeError::Inconsistent("GroupTile count overflow"))?;
    let nbt = (m_pad / 8)
        .checked_mul(k_pad / 8)
        .ok_or(DecodeError::Inconsistent("BitmapTile count overflow"))?;

    let checksums = if with_checksums {
        let n_sums = r.bounded_len(4)?;
        if n_sums != ngt {
            return Err(DecodeError::Inconsistent("checksum count"));
        }
        Some(r.u32s(n_sums)?)
    } else {
        None
    };

    let n_off = r.bounded_len(4)?;
    if n_off != ngt.checked_add(1).ok_or(DecodeError::Truncated)? {
        return Err(DecodeError::Inconsistent("GTileOffset length"));
    }
    let gtile_offsets = r.u32s(n_off)?;

    let n_vals = r.bounded_len(P::BYTES)?;
    if n_vals < nnz || *gtile_offsets.last().expect("n_off >= 1") as usize != n_vals {
        return Err(DecodeError::Inconsistent("Values length"));
    }
    let values = r.items(n_vals, P::BYTES, P::get_le)?;

    let n_bm = r.bounded_len(8)?;
    if n_bm != nbt {
        return Err(DecodeError::Inconsistent("Bitmap length"));
    }
    let bitmaps = r.items(n_bm, 8, |b| u64::from_le_bytes(b.try_into().unwrap()))?;

    let out = TcaBmeOf {
        m,
        k,
        m_pad,
        k_pad,
        config: TcaBmeConfig { gt_rows, gt_cols },
        gtile_offsets,
        values,
        bitmaps,
        nnz,
    };

    // v2/v3: per-tile checksums localise the damage before the (coarser)
    // structural pass. The slice accessors need consistent offsets, so
    // only the tiles before the first one with inconsistent bounds are
    // summed; that tile fails after any checksum mismatch before it, as
    // a tile-by-tile check would report them.
    if let Some(sums) = checksums {
        let bounded = out
            .gtile_offsets
            .windows(2)
            .position(|span| span[0] > span[1] || span[1] as usize > out.values.len())
            .unwrap_or(ngt);
        let got = out.leading_gtile_checksums(bounded);
        if let Some(gt) = got.iter().zip(&sums).position(|(got, want)| got != want) {
            return Err(DecodeError::Checksum { gt });
        }
        if bounded < ngt {
            return Err(DecodeError::Inconsistent("GTileOffset bounds"));
        }
    }
    out.validate().map_err(DecodeError::Integrity)?;
    Ok(out)
}

/// Deserialises an FP16 encoded matrix, validating structure. Accepts
/// version 2 (verifying per-GroupTile checksums) and version 1 (no
/// checksums stored; structural validation only). A version-3 INT8
/// container fails with [`DecodeError::PayloadMismatch`].
pub fn from_bytes(buf: &[u8]) -> Result<TcaBme, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    let with_checksums = match read_magic(&mut r)? {
        Version::V1 => false,
        Version::V2 => true,
        Version::V3 => {
            return Err(DecodeError::PayloadMismatch {
                expected: Half::NAME,
                got: <i8 as Payload>::NAME,
            })
        }
    };
    read_container(&mut r, with_checksums)
}

/// Deserialises a version-3 quantized container, verifying checksums
/// over the `i8` code bytes, pairing the trailing scale section with
/// the GroupTile count, and running full structural validation
/// (including scale finiteness). A v1/v2 FP16 container fails with
/// [`DecodeError::PayloadMismatch`].
pub fn from_bytes_int8(buf: &[u8]) -> Result<TcaBmeInt8, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    match read_magic(&mut r)? {
        Version::V3 => {}
        Version::V1 | Version::V2 => {
            return Err(DecodeError::PayloadMismatch {
                expected: <i8 as Payload>::NAME,
                got: Half::NAME,
            })
        }
    }
    let tiles = read_container(&mut r, true)?;
    let n_scales = r.bounded_len(4)?;
    if n_scales != tiles.num_gtiles() {
        return Err(DecodeError::Inconsistent("scale count"));
    }
    let scales = r.items(n_scales, 4, |b| {
        f32::from_bits(u32::from_le_bytes(b.try_into().unwrap()))
    })?;
    let out = TcaBmeInt8 { tiles, scales };
    // `read_container` validated the tiles; only the scales are new.
    out.validate_scales().map_err(DecodeError::Integrity)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::{random_sparse, ValueDist};

    #[test]
    fn roundtrip() {
        let m = random_sparse(192, 128, 0.55, ValueDist::Uniform, 61);
        let enc = TcaBme::encode(&m);
        let bytes = to_bytes(&enc);
        let back = from_bytes(&bytes).expect("valid container");
        assert_eq!(back.decode(), m);
        assert_eq!(back.nnz, enc.nnz);
        assert_eq!(back.bitmaps, enc.bitmaps);
        assert_eq!(back.gtile_offsets, enc.gtile_offsets);
    }

    #[test]
    fn bad_magic_rejected() {
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 62);
        let mut bytes = to_bytes(&TcaBme::encode(&m));
        bytes[0] ^= 0xFF;
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::BadMagic);
        assert_eq!(from_bytes_int8(&bytes).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 63);
        let bytes = to_bytes(&TcaBme::encode(&m));
        for cut in [10usize, 60, bytes.len() - 1] {
            assert_eq!(
                from_bytes(&bytes[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupted_bitmap_population_rejected() {
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 64);
        let enc = TcaBme::encode(&m);
        let mut bytes = to_bytes(&enc);
        // Flip a bit inside the last 8 bytes (a bitmap word). v2 catches
        // this at the checksum layer, pinpointing the damaged tile.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::Checksum { gt: 0 }
        );
    }

    /// Writes the version-1 layout (no checksum section) so read-compat
    /// stays covered now that `to_bytes` emits v2.
    fn to_bytes_v1(w: &TcaBme) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V1);
        for v in [
            w.m as u64,
            w.k as u64,
            w.m_pad as u64,
            w.k_pad as u64,
            w.config.gt_rows as u64,
            w.config.gt_cols as u64,
            w.nnz as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(w.gtile_offsets.len() as u64).to_le_bytes());
        for o in &w.gtile_offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&(w.values.len() as u64).to_le_bytes());
        for v in &w.values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(w.bitmaps.len() as u64).to_le_bytes());
        for b in &w.bitmaps {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    #[test]
    fn v1_containers_still_load() {
        let m = random_sparse(192, 128, 0.55, ValueDist::Uniform, 65);
        let enc = TcaBme::encode(&m);
        let back = from_bytes(&to_bytes_v1(&enc)).expect("v1 read-compat");
        assert_eq!(back.decode(), m);
        // v1 has no checksums, but a bitmap flip (changing population)
        // still dies in structural validation.
        let mut bytes = to_bytes_v1(&enc);
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert!(matches!(
            from_bytes(&bytes),
            Err(DecodeError::Integrity(_)) | Err(DecodeError::Inconsistent(_))
        ));
    }

    #[test]
    fn value_corruption_detected_by_checksum_only() {
        // A flipped FP16 payload bit changes no length or population —
        // only the v2 checksum can see it. Locate the first value byte:
        // header + checksums + offsets sections precede it.
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 66);
        let enc = TcaBme::encode(&m);
        assert!(enc.nnz > 0);
        let mut bytes = to_bytes(&enc);
        let value_pos = 8 + 7 * 8 + 8 + 4 * enc.num_gtiles() + 8 + 4 * enc.gtile_offsets.len() + 8;
        bytes[value_pos] ^= 0x10;
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::Checksum { gt: 0 }
        );
        // The same corruption in a v1 stream loads silently — the gap
        // the version bump exists to close.
        let mut v1 = to_bytes_v1(&enc);
        let v1_value_pos = 8 + 7 * 8 + 8 + 4 * enc.gtile_offsets.len() + 8;
        v1[v1_value_pos] ^= 0x10;
        assert!(from_bytes(&v1).is_ok());
    }

    /// Checksums are verified tile by tile up to the first GroupTile
    /// whose offsets leave the value section: damage before that tile
    /// reports its checksum, and the bad bounds report only when every
    /// tile before them sums right.
    #[test]
    fn checksum_and_bounds_errors_keep_the_tile_order() {
        let m = random_sparse(192, 128, 0.5, ValueDist::Uniform, 68);
        let enc = TcaBme::encode(&m);
        let ngt = enc.num_gtiles();
        assert!(ngt >= 3);
        let bytes = to_bytes(&enc);
        let offsets_at = 8 + 7 * 8 + 8 + 4 * ngt + 8;
        let values_at = offsets_at + 4 * (ngt + 1) + 8;
        // Tile ngt - 2 ends far past the value section.
        let mut bounds = bytes.clone();
        let at = offsets_at + 4 * (ngt - 1);
        bounds[at..at + 4].copy_from_slice(&(!3u32).to_le_bytes());
        assert_eq!(
            from_bytes(&bounds).unwrap_err(),
            DecodeError::Inconsistent("GTileOffset bounds")
        );
        let mut both = bounds.clone();
        both[values_at] ^= 0x10;
        assert_eq!(
            from_bytes(&both).unwrap_err(),
            DecodeError::Checksum { gt: 0 }
        );
    }

    #[test]
    fn mutated_length_fields_fail_without_allocating() {
        // Set every plausible length-field position to u64::MAX: decode
        // must fail with a typed error, not a capacity panic or OOM.
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 67);
        let bytes = to_bytes(&TcaBme::encode(&m));
        for pos in (8..bytes.len().min(256)).step_by(8) {
            let mut bad = bytes.clone();
            bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(from_bytes(&bad).is_err(), "length bomb at {pos} accepted");
        }
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let enc = TcaBme::encode(&gpu_sim::DenseMatrix::zeros(64, 64));
        let back = from_bytes(&to_bytes(&enc)).unwrap();
        assert_eq!(back.nnz, 0);
    }

    #[test]
    fn int8_roundtrip_is_exact() {
        let m = random_sparse(192, 128, 0.55, ValueDist::Uniform, 71);
        let q = TcaBme::encode(&m).quantize_int8();
        let bytes = to_bytes_int8(&q);
        let back = from_bytes_int8(&bytes).expect("valid v3 container");
        // Codes, scales (bit-exact), and all shared structure round-trip.
        assert_eq!(back, q);
        assert_eq!(
            back.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            q.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn int8_storage_bytes_pins_the_v3_layout() {
        // The byte accounting must agree with what lands on disk: the v3
        // container is storage_bytes() plus fixed framing (8 B magic +
        // 56 B header + five 8 B section lengths) plus the 4 B/GroupTile
        // integrity checksums.
        for (sparsity, seed) in [(0.3, 91), (0.6, 92), (0.9, 93)] {
            let dist = ValueDist::Normal { std: 0.05 };
            let q = TcaBme::encode(&random_sparse(256, 256, sparsity, dist, seed)).quantize_int8();
            let framing = 8 + 56 + 5 * 8 + 4 * q.tiles.num_gtiles();
            assert_eq!(
                to_bytes_int8(&q).len(),
                q.storage_bytes() + framing,
                "v3 bytes vs storage accounting at sparsity {sparsity}"
            );
        }
    }

    #[test]
    fn cross_payload_reads_fail_typed() {
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 72);
        let enc = TcaBme::encode(&m);
        let v2 = to_bytes(&enc);
        let v3 = to_bytes_int8(&enc.quantize_int8());
        assert_eq!(
            from_bytes(&v3).unwrap_err(),
            DecodeError::PayloadMismatch {
                expected: "fp16",
                got: "int8"
            }
        );
        assert_eq!(
            from_bytes_int8(&v2).unwrap_err(),
            DecodeError::PayloadMismatch {
                expected: "int8",
                got: "fp16"
            }
        );
        // v1 is FP16 too.
        assert!(matches!(
            from_bytes_int8(&to_bytes_v1(&enc)).unwrap_err(),
            DecodeError::PayloadMismatch { .. }
        ));
    }

    #[test]
    fn int8_truncation_and_damage_detected() {
        let m = random_sparse(128, 64, 0.5, ValueDist::Uniform, 73);
        let q = TcaBme::encode(&m).quantize_int8();
        assert!(q.tiles.nnz > 0);
        let bytes = to_bytes_int8(&q);
        for cut in [10usize, 60, bytes.len() - 3, bytes.len() - 1] {
            assert_eq!(
                from_bytes_int8(&bytes[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut {cut}"
            );
        }
        // A flipped code byte is caught by the per-tile checksum.
        let code_pos =
            8 + 7 * 8 + 8 + 4 * q.tiles.num_gtiles() + 8 + 4 * q.tiles.gtile_offsets.len() + 8;
        let mut bad = bytes.clone();
        bad[code_pos] ^= 0x01;
        assert_eq!(
            from_bytes_int8(&bad).unwrap_err(),
            DecodeError::Checksum { gt: 0 }
        );
    }

    #[test]
    fn int8_scale_corruption_detected() {
        let m = random_sparse(128, 64, 0.5, ValueDist::Uniform, 74);
        let q = TcaBme::encode(&m).quantize_int8();
        let bytes = to_bytes_int8(&q);
        // The scale section is the trailing 8 + 4*NGT bytes; NaN-bomb the
        // first scale.
        let scale_pos = bytes.len() - 4 * q.scales.len();
        let mut bad = bytes.clone();
        bad[scale_pos..scale_pos + 4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            from_bytes_int8(&bad).unwrap_err(),
            DecodeError::Integrity(IntegrityError::BadScale { gt: 0, .. })
        ));
    }

    #[test]
    fn int8_length_bombs_fail_without_allocating() {
        let m = random_sparse(64, 64, 0.5, ValueDist::Uniform, 75);
        let bytes = to_bytes_int8(&TcaBme::encode(&m).quantize_int8());
        for pos in (8..bytes.len().min(256)).step_by(8) {
            let mut bad = bytes.clone();
            bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                from_bytes_int8(&bad).is_err(),
                "length bomb at {pos} accepted"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::Inconsistent("x").to_string().contains('x'));
        assert!(DecodeError::Checksum { gt: 3 }
            .to_string()
            .contains("GroupTile 3"));
        let pm = DecodeError::PayloadMismatch {
            expected: "fp16",
            got: "int8",
        };
        assert!(pm.to_string().contains("carries int8"));
        assert!(pm.to_string().contains("expects fp16"));
        assert!(DecodeError::Integrity(IntegrityError::NnzMismatch {
            expected: 2,
            got: 1
        })
        .to_string()
        .contains("nnz 1"));
    }
}
