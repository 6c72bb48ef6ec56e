//! Compact binary serialization of trained models.
//!
//! Edge deployments train offline and ship the model over the
//! accelerator's `config` port (§4.1), so models need a stable,
//! allocation-light wire format. The format is versioned little-endian:
//!
//! ```text
//! magic "GHDC" | u8 version | u8 kind | u8 bit_width | pad
//! u32 dim | u32 n_classes | payload (class elements, LE)
//! u32 crc32 (version 2 only)
//! ```
//!
//! `kind` 0 = full-precision [`HdcModel`] (i32 elements),
//! `kind` 1 = [`QuantizedModel`] (i16 elements),
//! `kind` 2 = packed sign/magnitude bit planes (version 3 only).
//!
//! Version 2 seals the stream with a CRC32 (IEEE) footer over
//! everything before it, so a model damaged in transit or storage fails
//! with [`ReadModelError::ChecksumMismatch`] instead of silently loading
//! flipped class elements. Version 1 streams (no footer) remain readable.
//!
//! Version 3 (current for packed models) is a *mappable* layout: every
//! section sits at a fixed, header-computable offset and every bit plane
//! begins on a 64-byte boundary, so a file mapped straight off disk can
//! be scored zero-copy through
//! [`PackedModelView`](crate::PackedModelView) with no deserialization.
//! See [`PackedLayout`] for the exact section arithmetic. The CRC32
//! footer is retained; v1/v2 streams stay readable through their
//! original entry points.
//!
//! This module is part of the panic-free serving surface: no code path
//! reachable from a public API may `unwrap`/`expect` — every failure
//! surfaces as a typed [`ReadModelError`] (or an `io::Error` on writes).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read, Write};

use crate::{HdcError, HdcModel, IntHv, QuantizedModel};

const MAGIC: [u8; 4] = *b"GHDC";
const VERSION: u8 = 2;
const LEGACY_VERSION: u8 = 1;
pub(crate) const PACKED_VERSION: u8 = 3;
const KIND_FULL: u8 = 0;
const KIND_QUANTIZED: u8 = 1;
pub(crate) const KIND_PACKED: u8 = 2;

/// Alignment (bytes) of every v3 section and bit plane. 64 bytes covers
/// a cache line and the widest vector the kernels dispatch (AVX-512).
pub const PACKED_ALIGN: usize = 64;

/// Size of the fixed v3 header (one aligned block).
pub const PACKED_HEADER_LEN: usize = 64;

/// Errors produced while reading a serialized model.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadModelError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a GHDC model (bad magic).
    BadMagic,
    /// The stream uses an unsupported format version.
    UnsupportedVersion(u8),
    /// The stream encodes a different model kind than requested.
    WrongKind {
        /// Kind byte found in the stream.
        found: u8,
        /// Kind byte the caller expected.
        expected: u8,
    },
    /// The CRC32 footer disagrees with the stream contents: the model
    /// was corrupted (or truncated) after it was written.
    ChecksumMismatch {
        /// CRC32 stored in the stream footer.
        stored: u32,
        /// CRC32 computed over the received bytes.
        computed: u32,
    },
    /// The decoded header or payload is inconsistent.
    Corrupt(HdcError),
    /// A v3 stream's byte length disagrees with the exact length its
    /// header computes — the file was truncated or grew. Checked before
    /// the checksum so a short mapping is reported as what it is.
    Truncated {
        /// Byte length the header-computed layout requires.
        expected: u64,
        /// Byte length actually available.
        actual: u64,
    },
    /// A buffer offered for zero-copy reinterpretation is not aligned
    /// to [`PACKED_ALIGN`]; constructing a view over it would misalign
    /// every plane slice.
    Misaligned {
        /// Required base alignment in bytes.
        required: usize,
        /// `ptr % required` of the offered buffer.
        offset: usize,
    },
    /// A pruned v3 stream's support mask disagrees with its header: the
    /// mask must hold exactly `dim` set bits, all below `parent_dim`.
    /// Checked before any view is constructed over the stream.
    SupportMismatch {
        /// Set-bit count the header's pruned `dim` requires.
        expected: usize,
        /// Set-bit count actually stored in the mask section.
        actual: usize,
    },
}

impl std::fmt::Display for ReadModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadModelError::Io(e) => write!(f, "i/o failure: {e}"),
            ReadModelError::BadMagic => write!(f, "not a GHDC model stream"),
            ReadModelError::UnsupportedVersion(v) => {
                write!(f, "unsupported model format version {v}")
            }
            ReadModelError::WrongKind { found, expected } => {
                write!(f, "model kind {found} found where kind {expected} expected")
            }
            ReadModelError::ChecksumMismatch { stored, computed } => write!(
                f,
                "model checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            ReadModelError::Corrupt(e) => write!(f, "corrupt model payload: {e}"),
            ReadModelError::Truncated { expected, actual } => write!(
                f,
                "stream length {actual} disagrees with the header-computed {expected} bytes"
            ),
            ReadModelError::Misaligned { required, offset } => write!(
                f,
                "buffer base is {offset} bytes past a {required}-byte boundary"
            ),
            ReadModelError::SupportMismatch { expected, actual } => write!(
                f,
                "support mask carries {actual} set bits where the header requires {expected}"
            ),
        }
    }
}

impl std::error::Error for ReadModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadModelError::Io(e) => Some(e),
            ReadModelError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadModelError {
    fn from(e: io::Error) -> Self {
        ReadModelError::Io(e)
    }
}

impl From<HdcError> for ReadModelError {
    fn from(e: HdcError) -> Self {
        ReadModelError::Corrupt(e)
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — hand-rolled so
/// the wire format needs no external dependency. Slicing-by-8: the
/// per-byte bit loop made checksum validation the dominant cost of a
/// cold model load; the const-built tables keep values identical while
/// processing eight input bytes per step.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = build_crc_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Appends the CRC32 footer sealing everything currently in `buf`.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

fn unexpected_eof(what: &str) -> ReadModelError {
    ReadModelError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        what.to_owned(),
    ))
}

/// Reads a whole GHDC stream and validates its envelope: magic, a known
/// version byte, and (version 2) the CRC32 footer, which is stripped.
/// Returns the header + payload bytes ready for parsing.
pub(crate) fn read_envelope<R: Read>(mut reader: R) -> Result<Vec<u8>, ReadModelError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
        return Err(ReadModelError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(unexpected_eof("stream shorter than a model header"));
    }
    match bytes[4] {
        LEGACY_VERSION => Ok(bytes),
        VERSION => {
            if bytes.len() < 12 {
                return Err(unexpected_eof("stream shorter than a sealed header"));
            }
            let body_len = bytes.len() - 4;
            let mut footer = [0u8; 4];
            footer.copy_from_slice(&bytes[body_len..]);
            let stored = u32::from_le_bytes(footer);
            let computed = crc32(&bytes[..body_len]);
            if stored != computed {
                return Err(ReadModelError::ChecksumMismatch { stored, computed });
            }
            bytes.truncate(body_len);
            Ok(bytes)
        }
        v => Err(ReadModelError::UnsupportedVersion(v)),
    }
}

/// Fails when a parser left unconsumed bytes — a v2 stream carries its
/// exact length, so trailing garbage means the header lied.
pub(crate) fn expect_consumed(rest: &[u8]) -> Result<(), ReadModelError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(ReadModelError::Corrupt(HdcError::invalid(
            "stream",
            format!("{} trailing bytes after the payload", rest.len()),
        )))
    }
}

/// Writes a full-precision model. A `&mut` writer works too.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_model<W: Write>(model: &HdcModel, mut writer: W) -> io::Result<()> {
    let mut buf = Vec::new();
    write_header(&mut buf, KIND_FULL, 16, model.dim(), model.n_classes());
    for class in model.iter() {
        for &v in class.values() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    seal(&mut buf);
    writer.write_all(&buf)
}

/// Reads a full-precision model written by [`write_model`].
///
/// # Errors
///
/// Returns [`ReadModelError`] on I/O failure, a malformed stream, or a
/// checksum mismatch.
pub fn read_model<R: Read>(reader: R) -> Result<HdcModel, ReadModelError> {
    let bytes = read_envelope(reader)?;
    let mut slice: &[u8] = &bytes;
    let header = read_header(&mut slice, KIND_FULL)?;
    let mut classes = Vec::with_capacity(header.n_classes);
    let mut buf = [0u8; 4];
    for _ in 0..header.n_classes {
        let mut values = Vec::with_capacity(header.dim);
        for _ in 0..header.dim {
            slice.read_exact(&mut buf)?;
            values.push(i32::from_le_bytes(buf));
        }
        classes.push(IntHv::from_values(values)?);
    }
    expect_consumed(slice)?;
    Ok(HdcModel::from_class_vectors(classes)?)
}

/// Writes a quantized model.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_quantized<W: Write>(model: &QuantizedModel, mut writer: W) -> io::Result<()> {
    let mut buf = Vec::new();
    write_header(
        &mut buf,
        KIND_QUANTIZED,
        model.bit_width(),
        model.dim(),
        model.n_classes(),
    );
    for c in 0..model.n_classes() {
        for &v in model.class(c) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    seal(&mut buf);
    writer.write_all(&buf)
}

/// Reads a quantized model written by [`write_quantized`].
///
/// # Errors
///
/// Returns [`ReadModelError`] on I/O failure, a malformed stream, or a
/// checksum mismatch.
pub fn read_quantized<R: Read>(reader: R) -> Result<QuantizedModel, ReadModelError> {
    let bytes = read_envelope(reader)?;
    let mut slice: &[u8] = &bytes;
    let header = read_header(&mut slice, KIND_QUANTIZED)?;
    let mut classes = Vec::with_capacity(header.n_classes);
    let mut buf = [0u8; 2];
    for _ in 0..header.n_classes {
        let mut values = Vec::with_capacity(header.dim);
        for _ in 0..header.dim {
            slice.read_exact(&mut buf)?;
            values.push(i16::from_le_bytes(buf));
        }
        classes.push(values);
    }
    expect_consumed(slice)?;
    Ok(QuantizedModel::from_parts(
        header.dim,
        header.bit_width,
        classes,
    )?)
}

// ---------------------------------------------------------------------------
// GHDC v3: the mappable packed layout
// ---------------------------------------------------------------------------

const fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

/// The header-computable geometry of a GHDC v3 stream.
///
/// A v3 stream is a [`QuantizedModel`] already decomposed into
/// sign/magnitude bit planes (a signs plane, bit set ⇔ negative, then
/// plane `k` holding bit `k` of every `|value|`), laid out so a
/// memory-mapped file can be scored in place:
///
/// ```text
/// offset 0                        64-byte header:
///   [0..4)   magic "GHDC"
///   [4]      version = 3
///   [5]      kind = 2 (packed)
///   [6]      bit_width
///   [7]      0
///   [8..12)  dim        (u32 LE)
///   [12..16) n_classes  (u32 LE)
///   [16..20) n_planes   (u32 LE, uniform across classes)
///   [20..24) parent_dim (u32 LE, 0 = full support)
///   [24..64) reserved, zero
/// norms_offset                    n_classes × f64 LE  (‖C‖, scores() fold)
/// plane_pop_offset                n_classes × n_planes × i64 LE
/// planes_offset                   per class: signs plane, then plane 0
///                                 … plane n_planes−1; every plane is
///                                 ceil(dim/64) u64 LE words padded to a
///                                 64-byte stride
/// support_offset                  pruned streams only: ceil(parent_dim/64)
///                                 u64 LE words padded to a 64-byte stride;
///                                 bit `i` set ⇔ parent dimension `i` is in
///                                 the pruned support (exactly `dim` bits)
/// total_len − 4                   u32 CRC32 over everything before it
/// ```
///
/// A *pruned* stream (`parent_dim > 0`) stores a model whose `dim`
/// class elements live on a subset of a larger `parent_dim`-dimensional
/// space; the trailing support mask names that subset so parent-space
/// queries can be compacted at score time. Full-support streams write
/// `parent_dim = 0` and no mask section, which keeps every pre-pruning
/// v3 image byte-identical.
///
/// Every section offset is a multiple of [`PACKED_ALIGN`], so on a
/// 64-byte-aligned base (an `mmap` is page-aligned) every plane
/// reinterprets as an aligned `&[u64]` with no copy. `n_planes` is the
/// *maximum* plane count over all classes: classes with a smaller
/// magnitude range carry explicit all-zero planes, which contribute
/// exactly zero to the masked-popcount dot product, keeping mapped
/// scores bit-identical to [`QuantizedModel::scores`]. This layout is
/// the crate's one packed form: [`QuantizedModel::pack`] returns it as
/// an owned [`PackedModel`](crate::PackedModel), and
/// [`PackedModelView`](crate::PackedModelView) is its one reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedLayout {
    dim: usize,
    n_classes: usize,
    n_planes: usize,
    bit_width: u8,
    n_words: usize,
    plane_stride: usize,
    norms_offset: usize,
    plane_pop_offset: usize,
    planes_offset: usize,
    /// Byte offset of the support-mask section (end of the planes
    /// region; the mask itself exists only when `parent_dim > 0`).
    support_offset: usize,
    /// Aligned byte length of the support-mask section (0 when
    /// full-support).
    support_len: usize,
    /// Parent-space dimensionality of a pruned stream; 0 = full
    /// support.
    parent_dim: usize,
    total_len: usize,
}

impl PackedLayout {
    /// Computes the layout from model geometry (the writer's side).
    fn from_geometry(
        dim: usize,
        n_classes: usize,
        n_planes: usize,
        bit_width: u8,
        parent_dim: usize,
    ) -> Result<Self, ReadModelError> {
        if dim == 0 || n_classes == 0 {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "header",
                "zero dimension or class count",
            )));
        }
        if dim > 1 << 24 || n_classes > 1 << 16 {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "header",
                "implausible dimension or class count",
            )));
        }
        if bit_width == 0 || bit_width > 16 || n_planes > usize::from(bit_width) {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "header",
                "plane count inconsistent with bit width",
            )));
        }
        if parent_dim != 0 && (parent_dim < dim || parent_dim > 1 << 24) {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "header",
                "parent dimension inconsistent with the pruned dimension",
            )));
        }
        let n_words = dim.div_ceil(64);
        let plane_stride = align_up(n_words * 8, PACKED_ALIGN);
        let norms_offset = PACKED_HEADER_LEN;
        let plane_pop_offset = norms_offset + align_up(n_classes * 8, PACKED_ALIGN);
        let planes_offset = plane_pop_offset + align_up(n_classes * n_planes * 8, PACKED_ALIGN);
        // Bounded by the plausibility checks above: ≤ 2^16 classes of
        // ≤ 17 planes of ≤ 2^18-word strides stays far below usize::MAX.
        let support_offset = planes_offset + n_classes * (1 + n_planes) * plane_stride;
        let support_len = if parent_dim == 0 {
            0
        } else {
            align_up(parent_dim.div_ceil(64) * 8, PACKED_ALIGN)
        };
        let total_len = support_offset + support_len + 4;
        Ok(PackedLayout {
            dim,
            n_classes,
            n_planes,
            bit_width,
            n_words,
            plane_stride,
            norms_offset,
            plane_pop_offset,
            planes_offset,
            support_offset,
            support_len,
            parent_dim,
            total_len,
        })
    }

    /// Parses and validates a v3 header against the buffer's length.
    /// Structural only — [`PackedLayout::validate`] adds the checksum.
    ///
    /// # Errors
    ///
    /// Returns the usual envelope errors plus
    /// [`ReadModelError::Truncated`] when the byte length disagrees with
    /// the header arithmetic.
    pub fn parse(bytes: &[u8]) -> Result<Self, ReadModelError> {
        if bytes.len() < 8 {
            if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
                return Err(ReadModelError::BadMagic);
            }
            return Err(unexpected_eof("stream shorter than a model header"));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(ReadModelError::BadMagic);
        }
        if bytes[4] != PACKED_VERSION {
            return Err(ReadModelError::UnsupportedVersion(bytes[4]));
        }
        if bytes[5] != KIND_PACKED {
            return Err(ReadModelError::WrongKind {
                found: bytes[5],
                expected: KIND_PACKED,
            });
        }
        if bytes.len() < PACKED_HEADER_LEN {
            return Err(ReadModelError::Truncated {
                expected: PACKED_HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let dim = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let n_classes = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let n_planes = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
        let parent_dim = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]) as usize;
        let layout = Self::from_geometry(dim, n_classes, n_planes, bytes[6], parent_dim)?;
        if bytes.len() != layout.total_len {
            return Err(ReadModelError::Truncated {
                expected: layout.total_len as u64,
                actual: bytes.len() as u64,
            });
        }
        Ok(layout)
    }

    /// Parses the header *and* verifies the CRC32 footer — the full
    /// integrity gate a file must pass before a view may be built over
    /// it or a tenant may serve from it.
    ///
    /// # Errors
    ///
    /// Everything [`PackedLayout::parse`] returns, plus
    /// [`ReadModelError::ChecksumMismatch`].
    pub fn validate(bytes: &[u8]) -> Result<Self, ReadModelError> {
        let layout = Self::parse(bytes)?;
        let body = layout.total_len - 4;
        let mut footer = [0u8; 4];
        footer.copy_from_slice(&bytes[body..]);
        let stored = u32::from_le_bytes(footer);
        let computed = crc32(&bytes[..body]);
        if stored != computed {
            return Err(ReadModelError::ChecksumMismatch { stored, computed });
        }
        layout.check_support(bytes)?;
        Ok(layout)
    }

    /// Verifies a pruned stream's support mask against its header: the
    /// mask must carry exactly `dim` set bits, none at or beyond
    /// `parent_dim`, and the alignment padding after the mask words must
    /// be zero. A no-op for full-support streams. Runs inside
    /// [`PackedLayout::validate`] and again when a view is constructed
    /// over pre-validated bytes, so no scoring path ever sees a mask
    /// whose population disagrees with the stored model.
    ///
    /// # Errors
    ///
    /// Returns [`ReadModelError::SupportMismatch`] on a population-count
    /// disagreement and [`ReadModelError::Corrupt`] for set padding bits.
    pub(crate) fn check_support(&self, bytes: &[u8]) -> Result<(), ReadModelError> {
        if self.parent_dim == 0 {
            return Ok(());
        }
        let words = self.parent_dim.div_ceil(64);
        let mut pop = 0usize;
        for w in 0..words {
            let word = u64::from_le_bytes(read_8(bytes, self.support_offset + w * 8));
            pop += word.count_ones() as usize;
        }
        // Bits past `parent_dim` in the last mask word, and every byte of
        // the alignment padding, must be zero: they are outside the
        // parent space and would corrupt query compaction.
        let rem = self.parent_dim % 64;
        if rem != 0 {
            let last = u64::from_le_bytes(read_8(bytes, self.support_offset + (words - 1) * 8));
            if last >> rem != 0 {
                return Err(ReadModelError::Corrupt(HdcError::invalid(
                    "support",
                    "support mask sets bits beyond the parent dimensionality",
                )));
            }
        }
        let pad = &bytes[self.support_offset + words * 8..self.support_offset + self.support_len];
        if pad.iter().any(|&b| b != 0) {
            return Err(ReadModelError::Corrupt(HdcError::invalid(
                "support",
                "support mask padding must be zero",
            )));
        }
        if pop != self.dim {
            return Err(ReadModelError::SupportMismatch {
                expected: self.dim,
                actual: pop,
            });
        }
        Ok(())
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Magnitude bit planes per class (uniform; 0 for an all-zero
    /// model).
    pub fn n_planes(&self) -> usize {
        self.n_planes
    }

    /// Effective bit-width of the source model.
    pub fn bit_width(&self) -> u8 {
        self.bit_width
    }

    /// `u64` words per plane (`ceil(dim / 64)`).
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Bytes between consecutive planes (`n_words × 8` rounded up to
    /// [`PACKED_ALIGN`]).
    pub fn plane_stride(&self) -> usize {
        self.plane_stride
    }

    /// Byte offset of the norms section.
    pub fn norms_offset(&self) -> usize {
        self.norms_offset
    }

    /// Byte offset of the plane-popcount section.
    pub fn plane_pop_offset(&self) -> usize {
        self.plane_pop_offset
    }

    /// Byte offset of the first class's signs plane.
    pub fn planes_offset(&self) -> usize {
        self.planes_offset
    }

    /// Byte offset of class `c`'s signs plane.
    pub fn class_offset(&self, c: usize) -> usize {
        self.planes_offset + c * (1 + self.n_planes) * self.plane_stride
    }

    /// Byte offset of the support-mask section (meaningful only when
    /// [`PackedLayout::is_pruned`]; otherwise the end of the planes
    /// region).
    pub fn support_offset(&self) -> usize {
        self.support_offset
    }

    /// Whether the stream stores a pruned model with a support mask.
    pub fn is_pruned(&self) -> bool {
        self.parent_dim != 0
    }

    /// Parent-space dimensionality of a pruned stream (`dim` for a
    /// full-support stream). This is the dimensionality queries arrive
    /// at — the dimension the registry and the serving encoders agree
    /// on.
    pub fn parent_dim(&self) -> usize {
        if self.parent_dim == 0 {
            self.dim
        } else {
            self.parent_dim
        }
    }

    /// `u64` words in the support mask (`ceil(parent_dim / 64)`; 0 for a
    /// full-support stream, which stores no mask).
    pub fn support_words(&self) -> usize {
        if self.parent_dim == 0 {
            0
        } else {
            self.parent_dim.div_ceil(64)
        }
    }

    /// Copies the support-mask words out of a pruned stream (`None` for
    /// a full-support stream).
    pub fn support_mask(&self, bytes: &[u8]) -> Option<Vec<u64>> {
        if self.parent_dim == 0 {
            return None;
        }
        Some(
            (0..self.support_words())
                .map(|w| u64::from_le_bytes(read_8(bytes, self.support_offset + w * 8)))
                .collect(),
        )
    }

    /// Exact stream length in bytes, CRC footer included.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// ‖C‖ of class `c`, read straight out of the stream bytes.
    pub(crate) fn norm(&self, bytes: &[u8], c: usize) -> f64 {
        let off = self.norms_offset + c * 8;
        f64::from_le_bytes(read_8(bytes, off))
    }

    /// Hoisted popcount of class `c`'s magnitude plane `k`.
    pub(crate) fn plane_pop(&self, bytes: &[u8], c: usize, k: usize) -> i64 {
        let off = self.plane_pop_offset + (c * self.n_planes + k) * 8;
        i64::from_le_bytes(read_8(bytes, off))
    }
}

fn read_8(bytes: &[u8], off: usize) -> [u8; 8] {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[off..off + 8]);
    word
}

/// Serializes a quantized model as a GHDC v3 packed stream — the
/// sign/magnitude bit-plane decomposition of
/// [`QuantizedModel::pack`](crate::QuantizedModel::pack) at rest, ready
/// for zero-copy mapped scoring.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_packed<W: Write>(model: &QuantizedModel, mut writer: W) -> io::Result<()> {
    let buf = packed_bytes(model).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    writer.write_all(&buf)
}

/// Serializes a pruned quantized model as a GHDC v3 packed stream with a
/// trailing support mask: `model` holds the compacted (support-sized)
/// class elements, `parent_dim` the original dimensionality, and
/// `support` the parent-space membership mask (`ceil(parent_dim/64)`
/// little-endian words with exactly `model.dim()` set bits).
///
/// # Errors
///
/// Returns an `InvalidInput` error when the mask disagrees with the
/// model geometry, plus any underlying I/O error.
pub fn write_packed_pruned<W: Write>(
    model: &QuantizedModel,
    parent_dim: usize,
    support: &[u64],
    mut writer: W,
) -> io::Result<()> {
    let buf = packed_bytes_pruned(model, parent_dim, support)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    writer.write_all(&buf)
}

/// Builds the complete v3 byte image of `model`.
pub(crate) fn packed_bytes(model: &QuantizedModel) -> Result<Vec<u8>, ReadModelError> {
    packed_bytes_pruned(model, 0, &[])
}

/// Builds the complete v3 byte image of a pruned `model`
/// (`parent_dim == 0` writes the full-support layout, byte-identical to
/// [`packed_bytes`]).
pub(crate) fn packed_bytes_pruned(
    model: &QuantizedModel,
    parent_dim: usize,
    support: &[u64],
) -> Result<Vec<u8>, ReadModelError> {
    let dim = model.dim();
    let n_classes = model.n_classes();
    let max_mag: u16 = (0..n_classes)
        .flat_map(|c| model.class(c).iter())
        .map(|&v| v.unsigned_abs())
        .max()
        .unwrap_or(0);
    let n_planes = (16 - max_mag.leading_zeros()) as usize;
    let layout =
        PackedLayout::from_geometry(dim, n_classes, n_planes, model.bit_width(), parent_dim)?;
    if parent_dim == 0 && !support.is_empty() {
        return Err(ReadModelError::Corrupt(HdcError::invalid(
            "support",
            "full-support streams must not carry a mask",
        )));
    }
    if parent_dim != 0 && support.len() != layout.support_words() {
        return Err(ReadModelError::Corrupt(HdcError::invalid(
            "support",
            "support mask word count disagrees with the parent dimension",
        )));
    }

    let mut buf = vec![0u8; layout.total_len];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4] = PACKED_VERSION;
    buf[5] = KIND_PACKED;
    buf[6] = model.bit_width();
    buf[8..12].copy_from_slice(&(dim as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&(n_classes as u32).to_le_bytes());
    buf[16..20].copy_from_slice(&(n_planes as u32).to_le_bytes());
    buf[20..24].copy_from_slice(&(parent_dim as u32).to_le_bytes());
    for (w, &word) in support.iter().enumerate() {
        let off = layout.support_offset + w * 8;
        buf[off..off + 8].copy_from_slice(&word.to_le_bytes());
    }

    for c in 0..n_classes {
        let values = model.class(c);
        // Same left-to-right fold as `QuantizedModel::scores`, so mapped
        // scores divide by bit-identical norms.
        let norm = values
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        let norm_off = layout.norms_offset + c * 8;
        buf[norm_off..norm_off + 8].copy_from_slice(&norm.to_le_bytes());

        let class_off = layout.class_offset(c);
        for (i, &v) in values.iter().enumerate() {
            let (byte, bit) = (i / 8, 1u8 << (i % 8));
            if v < 0 {
                buf[class_off + byte] |= bit;
            }
            let mag = v.unsigned_abs();
            for k in 0..n_planes {
                if (mag >> k) & 1 == 1 {
                    buf[class_off + (1 + k) * layout.plane_stride + byte] |= bit;
                }
            }
        }
        for k in 0..n_planes {
            let plane_off = class_off + (1 + k) * layout.plane_stride;
            let pop: i64 = buf[plane_off..plane_off + layout.n_words * 8]
                .iter()
                .map(|b| i64::from(b.count_ones()))
                .sum();
            let pop_off = layout.plane_pop_offset + (c * n_planes + k) * 8;
            buf[pop_off..pop_off + 8].copy_from_slice(&pop.to_le_bytes());
        }
    }

    // Never seal an image whose mask disagrees with its geometry: the
    // same gate every reader applies, applied at write time.
    layout.check_support(&buf)?;
    let body = layout.total_len - 4;
    let crc = crc32(&buf[..body]);
    buf[body..].copy_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Reads a v3 packed stream back into a heap [`QuantizedModel`] — the
/// scalar-side inverse of [`write_packed`], and the deserialization
/// oracle the conformance registry stage replays mapped scores against.
///
/// # Errors
///
/// Returns [`ReadModelError`] on I/O failure, a malformed stream, a
/// length/alignment lie, or a checksum mismatch.
pub fn read_packed<R: Read>(mut reader: R) -> Result<QuantizedModel, ReadModelError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let layout = PackedLayout::validate(&bytes)?;
    let mut classes = Vec::with_capacity(layout.n_classes);
    for c in 0..layout.n_classes {
        let class_off = layout.class_offset(c);
        let mut values = Vec::with_capacity(layout.dim);
        for i in 0..layout.dim {
            let (byte, bit) = (i / 8, i % 8);
            let mut mag: i32 = 0;
            for k in 0..layout.n_planes {
                let plane_off = class_off + (1 + k) * layout.plane_stride;
                mag |= i32::from((bytes[plane_off + byte] >> bit) & 1) << k;
            }
            let negative = (bytes[class_off + byte] >> bit) & 1 == 1;
            let v = if negative { -mag } else { mag };
            let clamped = i16::try_from(v).map_err(|_| {
                ReadModelError::Corrupt(HdcError::invalid(
                    "payload",
                    "plane magnitude exceeds the i16 element range",
                ))
            })?;
            values.push(clamped);
        }
        classes.push(values);
    }
    Ok(QuantizedModel::from_parts(
        layout.dim,
        layout.bit_width,
        classes,
    )?)
}

struct Header {
    bit_width: u8,
    dim: usize,
    n_classes: usize,
}

fn write_header(buf: &mut Vec<u8>, kind: u8, bit_width: u8, dim: usize, n_classes: usize) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[VERSION, kind, bit_width, 0]);
    buf.extend_from_slice(&(dim as u32).to_le_bytes());
    buf.extend_from_slice(&(n_classes as u32).to_le_bytes());
}

fn read_header<R: Read>(reader: &mut R, expected_kind: u8) -> Result<Header, ReadModelError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(ReadModelError::BadMagic);
    }
    let mut meta = [0u8; 4];
    reader.read_exact(&mut meta)?;
    if meta[0] != VERSION && meta[0] != LEGACY_VERSION {
        return Err(ReadModelError::UnsupportedVersion(meta[0]));
    }
    if meta[1] != expected_kind {
        return Err(ReadModelError::WrongKind {
            found: meta[1],
            expected: expected_kind,
        });
    }
    let mut word = [0u8; 4];
    reader.read_exact(&mut word)?;
    let dim = u32::from_le_bytes(word) as usize;
    reader.read_exact(&mut word)?;
    let n_classes = u32::from_le_bytes(word) as usize;
    if dim == 0 || n_classes == 0 {
        return Err(ReadModelError::Corrupt(HdcError::invalid(
            "header",
            "zero dimension or class count",
        )));
    }
    // Plausibility bounds so a hostile header cannot trigger a huge
    // allocation before the payload read fails.
    if dim > 1 << 24 || n_classes > 1 << 16 {
        return Err(ReadModelError::Corrupt(HdcError::invalid(
            "header",
            "implausible dimension or class count",
        )));
    }
    Ok(Header {
        bit_width: meta[2],
        dim,
        n_classes,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::BinaryHv;

    fn sample_model() -> HdcModel {
        let encoded: Vec<IntHv> = (0..3u64)
            .map(|s| IntHv::from(BinaryHv::random_seeded(256, s).expect("dim > 0")))
            .collect();
        HdcModel::fit(&encoded, &[0, 1, 2], 3).expect("valid inputs")
    }

    /// The same stream [`write_model`] produced before the CRC footer
    /// existed: a version-1 header followed by the bare payload.
    fn legacy_v1_stream(model: &HdcModel) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[LEGACY_VERSION, KIND_FULL, 16, 0]);
        buf.extend_from_slice(&(model.dim() as u32).to_le_bytes());
        buf.extend_from_slice(&(model.n_classes() as u32).to_le_bytes());
        for class in model.iter() {
            for &v in class.values() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn full_model_round_trips() {
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("vec write cannot fail");
        let restored = read_model(buf.as_slice()).expect("well-formed stream");
        assert_eq!(model, restored);
    }

    #[test]
    fn quantized_model_round_trips() {
        for bw in [1u8, 2, 4, 8, 16] {
            let q = QuantizedModel::from_model(&sample_model(), bw).expect("valid width");
            let mut buf = Vec::new();
            write_quantized(&q, &mut buf).expect("vec write cannot fail");
            let restored = read_quantized(buf.as_slice()).expect("well-formed stream");
            assert_eq!(q, restored, "bw = {bw}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn legacy_v1_stream_still_loads() {
        let model = sample_model();
        let restored =
            read_model(legacy_v1_stream(&model).as_slice()).expect("v1 must stay readable");
        assert_eq!(model, restored);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_model(&b"NOPE...."[..]).expect_err("must fail");
        assert!(matches!(err, ReadModelError::BadMagic));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let q = QuantizedModel::from_model(&sample_model(), 4).expect("valid width");
        let mut buf = Vec::new();
        write_quantized(&q, &mut buf).expect("vec write cannot fail");
        let err = read_model(buf.as_slice()).expect_err("kind mismatch");
        assert!(matches!(err, ReadModelError::WrongKind { .. }));
    }

    #[test]
    fn truncated_stream_fails_the_checksum() {
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("vec write cannot fail");
        buf.truncate(buf.len() / 2);
        let err = read_model(buf.as_slice()).expect_err("truncated");
        assert!(matches!(err, ReadModelError::ChecksumMismatch { .. }));
    }

    #[test]
    fn any_single_flipped_byte_is_rejected() {
        let model = sample_model();
        let mut clean = Vec::new();
        write_model(&model, &mut clean).expect("vec write cannot fail");
        for pos in 0..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 0x40;
            let err = read_model(buf.as_slice()).expect_err("flip must be caught");
            match pos {
                0..=3 => assert!(matches!(err, ReadModelError::BadMagic), "pos {pos}"),
                4 => assert!(
                    matches!(err, ReadModelError::UnsupportedVersion(_)),
                    "pos {pos}"
                ),
                _ => assert!(
                    matches!(err, ReadModelError::ChecksumMismatch { .. }),
                    "pos {pos}: {err}"
                ),
            }
        }
    }

    #[test]
    fn version_byte_flipped_to_v1_cannot_smuggle_a_sealed_stream() {
        // A v2 stream whose version byte degrades to 1 must not decode
        // through the legacy path: the CRC footer becomes trailing bytes.
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("vec write cannot fail");
        buf[4] = LEGACY_VERSION;
        let err = read_model(buf.as_slice()).expect_err("footer must not be payload");
        assert!(matches!(err, ReadModelError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let model = sample_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).expect("vec write cannot fail");
        buf[4] = 99; // version byte
        let err = read_model(buf.as_slice()).expect_err("bad version");
        assert!(matches!(err, ReadModelError::UnsupportedVersion(99)));
    }

    fn packed_stream(bw: u8) -> (QuantizedModel, Vec<u8>) {
        let q = QuantizedModel::from_model(&sample_model(), bw).expect("valid width");
        let mut buf = Vec::new();
        write_packed(&q, &mut buf).expect("vec write cannot fail");
        (q, buf)
    }

    #[test]
    fn packed_v3_round_trips_every_bit_width() {
        for bw in [1u8, 2, 4, 8, 16] {
            let (q, buf) = packed_stream(bw);
            let restored = read_packed(buf.as_slice()).expect("well-formed stream");
            assert_eq!(q, restored, "bw = {bw}");
        }
    }

    #[test]
    fn packed_v3_sections_are_64_byte_aligned() {
        let (_, buf) = packed_stream(8);
        let layout = PackedLayout::validate(&buf).expect("sealed stream");
        assert_eq!(layout.norms_offset() % PACKED_ALIGN, 0);
        assert_eq!(layout.plane_pop_offset() % PACKED_ALIGN, 0);
        assert_eq!(layout.planes_offset() % PACKED_ALIGN, 0);
        assert_eq!(layout.plane_stride() % PACKED_ALIGN, 0);
        for c in 0..layout.n_classes() {
            assert_eq!(layout.class_offset(c) % PACKED_ALIGN, 0, "class {c}");
        }
        assert_eq!(layout.total_len(), buf.len());
    }

    #[test]
    fn packed_v3_length_mismatch_is_a_typed_truncation() {
        let (_, buf) = packed_stream(4);
        // One byte short: header-computed length disagrees.
        let err = PackedLayout::parse(&buf[..buf.len() - 1]).expect_err("short stream");
        assert!(matches!(err, ReadModelError::Truncated { .. }), "{err}");
        // One byte long is just as wrong — a mapped file must be exact.
        let mut long = buf.clone();
        long.push(0);
        let err = PackedLayout::parse(&long).expect_err("oversized stream");
        assert!(matches!(err, ReadModelError::Truncated { .. }), "{err}");
    }

    #[test]
    fn packed_v3_any_single_flipped_byte_is_rejected() {
        let (_, buf) = packed_stream(2);
        // Exhaustive over the stream: every byte is covered by either a
        // header check or the CRC footer.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                PackedLayout::validate(&bad).is_err(),
                "flipped byte {i} must not validate"
            );
        }
    }

    #[test]
    fn packed_v3_header_is_pinned() {
        let (q, buf) = packed_stream(8);
        assert_eq!(&buf[..4], &MAGIC);
        assert_eq!(buf[4], PACKED_VERSION);
        assert_eq!(buf[5], KIND_PACKED);
        assert_eq!(buf[6], q.bit_width());
        assert_eq!(&buf[8..12], &(q.dim() as u32).to_le_bytes());
        assert_eq!(&buf[12..16], &(q.n_classes() as u32).to_le_bytes());
        assert!(buf[20..64].iter().all(|&b| b == 0), "reserved must be zero");
    }

    /// A deterministic pruned stream: a 200-dim parent space keeping
    /// every third dimension (67 kept — deliberately not a multiple of
    /// 64 so the mask has a partial last word).
    fn pruned_stream(bw: u8) -> (QuantizedModel, usize, Vec<u64>, Vec<u8>) {
        let parent_dim = 200usize;
        let keep: Vec<usize> = (0..parent_dim).filter(|i| i % 3 == 0).collect();
        let dim = keep.len();
        let q_max = if bw == 1 { 1 } else { (1i32 << (bw - 1)) - 1 };
        let classes: Vec<Vec<i16>> = (0..3i32)
            .map(|c| {
                (0..dim as i32)
                    .map(|i| {
                        let v = ((i * 7 + c * 5) % (2 * q_max + 1)) - q_max;
                        if bw == 1 {
                            if v < 0 {
                                -1
                            } else {
                                1
                            }
                        } else {
                            v as i16
                        }
                    })
                    .collect()
            })
            .collect();
        let q = QuantizedModel::from_parts(dim, bw, classes).expect("values fit bw");
        let mut mask = vec![0u64; parent_dim.div_ceil(64)];
        for &i in &keep {
            mask[i / 64] |= 1 << (i % 64);
        }
        let mut buf = Vec::new();
        write_packed_pruned(&q, parent_dim, &mask, &mut buf).expect("vec write cannot fail");
        (q, parent_dim, mask, buf)
    }

    /// Recomputes the CRC footer after deliberate in-place edits, so the
    /// tests below exercise the *semantic* support checks rather than
    /// the checksum.
    fn reseal(buf: &mut [u8]) {
        let body = buf.len() - 4;
        let crc = crc32(&buf[..body]);
        buf[body..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn pruned_v3_round_trips_every_bit_width() {
        for bw in [1u8, 2, 4, 8, 16] {
            let (q, parent_dim, mask, buf) = pruned_stream(bw);
            let layout = PackedLayout::validate(&buf).expect("sealed pruned stream");
            assert!(layout.is_pruned());
            assert_eq!(layout.dim(), q.dim(), "bw = {bw}");
            assert_eq!(layout.parent_dim(), parent_dim);
            assert_eq!(layout.support_mask(&buf).as_deref(), Some(&mask[..]));
            let restored = read_packed(buf.as_slice()).expect("well-formed stream");
            assert_eq!(q, restored, "bw = {bw}");
        }
    }

    #[test]
    fn pruned_v3_sections_are_64_byte_aligned() {
        let (_, _, _, buf) = pruned_stream(4);
        let layout = PackedLayout::validate(&buf).expect("sealed stream");
        assert_eq!(layout.support_offset() % PACKED_ALIGN, 0);
        assert_eq!(layout.total_len(), buf.len());
        assert!(layout.support_offset() > layout.class_offset(layout.n_classes() - 1));
    }

    #[test]
    fn full_support_streams_carry_no_mask_and_stay_byte_identical() {
        let (q, buf) = packed_stream(8);
        let layout = PackedLayout::validate(&buf).expect("sealed stream");
        assert!(!layout.is_pruned());
        assert_eq!(layout.parent_dim(), q.dim());
        assert_eq!(layout.support_words(), 0);
        assert!(layout.support_mask(&buf).is_none());
        let via_pruned = packed_bytes_pruned(&q, 0, &[]).expect("full support");
        assert_eq!(
            via_pruned, buf,
            "full-support writer must be byte-identical"
        );
    }

    #[test]
    fn pruned_v3_writer_rejects_inconsistent_masks() {
        let (q, parent_dim, mask, _) = pruned_stream(4);
        // One support bit short of the model's dimension.
        let mut short = mask.clone();
        short[0] &= !1u64;
        let mut out = Vec::new();
        assert!(write_packed_pruned(&q, parent_dim, &short, &mut out).is_err());
        // Wrong word count for the parent space.
        let mut out = Vec::new();
        assert!(write_packed_pruned(&q, parent_dim, &mask[..1], &mut out).is_err());
        // Parent smaller than the pruned dimension.
        let mut out = Vec::new();
        assert!(write_packed_pruned(&q, q.dim() - 1, &[u64::MAX], &mut out).is_err());
        // Full-support images must not smuggle a mask.
        let mut out = Vec::new();
        assert!(write_packed_pruned(&q, 0, &mask, &mut out).is_err());
    }

    #[test]
    fn pruned_v3_population_mismatch_is_typed() {
        // Clear one support bit and reseal: the CRC passes, so only the
        // semantic population check can refuse the stream — before any
        // view is constructed over it.
        let (_, _, _, mut buf) = pruned_stream(2);
        let layout = PackedLayout::parse(&buf).expect("structural parse");
        buf[layout.support_offset()] &= !1u8;
        reseal(&mut buf);
        match PackedLayout::validate(&buf) {
            Err(ReadModelError::SupportMismatch { expected, actual }) => {
                assert_eq!(expected, layout.dim());
                assert_eq!(actual, layout.dim() - 1);
            }
            other => panic!("expected SupportMismatch, got {other:?}"),
        }
    }

    #[test]
    fn pruned_v3_mask_bits_beyond_parent_are_rejected() {
        let (_, parent_dim, _, mut buf) = pruned_stream(2);
        let layout = PackedLayout::parse(&buf).expect("structural parse");
        // Set a bit at parent_dim (position 200 = word 3, bit 8) and
        // clear an in-range bit so the population still matches.
        let word_off = layout.support_offset() + (parent_dim / 64) * 8;
        buf[word_off + (parent_dim % 64) / 8] |= 1 << (parent_dim % 8);
        buf[layout.support_offset()] &= !1u8;
        reseal(&mut buf);
        assert!(matches!(
            PackedLayout::validate(&buf),
            Err(ReadModelError::Corrupt(_))
        ));
    }

    #[test]
    fn pruned_v3_parent_smaller_than_dim_is_rejected() {
        let (_, _, _, mut buf) = pruned_stream(2);
        // Rewrite parent_dim to 1 (< dim): structurally impossible.
        buf[20..24].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            PackedLayout::parse(&buf),
            Err(ReadModelError::Corrupt(_))
        ));
    }

    #[test]
    fn pruned_v3_truncation_is_typed() {
        let (_, _, _, buf) = pruned_stream(2);
        let err = PackedLayout::parse(&buf[..buf.len() - 1]).expect_err("short stream");
        assert!(matches!(err, ReadModelError::Truncated { .. }), "{err}");
        // Cutting the whole mask section leaves a stream whose length
        // matches *no* header arithmetic: still a typed truncation.
        let layout = PackedLayout::parse(&buf).expect("structural parse");
        let err =
            PackedLayout::parse(&buf[..layout.support_offset()]).expect_err("maskless stream");
        assert!(matches!(err, ReadModelError::Truncated { .. }), "{err}");
    }

    #[test]
    fn pruned_v3_any_single_flipped_byte_is_rejected() {
        let (_, _, _, buf) = pruned_stream(2);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                PackedLayout::validate(&bad).is_err(),
                "flipped byte {i} must not validate"
            );
        }
    }
}
