//! Model quantization and bit-accurate fault injection.
//!
//! The accelerator stores class elements in 16-bit words; an input
//! parameter `bw` selects the *effective* bit-width and a mask unit zeroes
//! the unused bits (§4.3.4, Fig. 4 block 5). Narrow models both cut the
//! dot-product switching power and tolerate far more bit-flips, which is
//! what enables voltage over-scaling of the class memories (Fig. 6).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::flip_class_bits;
use crate::io::{PackedLayout, ReadModelError, PACKED_ALIGN};
use crate::kernels::{self, KernelSet};
use crate::{mapped, BinaryHv, HdcError, HdcModel, IntHv};

/// A quantized HDC model: class elements stored as `bit_width`-bit signed
/// integers (in 16-bit words, as in the accelerator).
///
/// ```
/// use generic_hdc::{BinaryHv, HdcModel, IntHv, QuantizedModel};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let a = IntHv::from(BinaryHv::random_seeded(512, 1)?);
/// let b = IntHv::from(BinaryHv::random_seeded(512, 2)?);
/// let model = HdcModel::fit(&[a.clone(), b], &[0, 1], 2)?;
///
/// // A 1-bit (sign-only) model still separates orthogonal classes...
/// let mut narrow = QuantizedModel::from_model(&model, 1)?;
/// assert_eq!(narrow.predict(&a), 0);
/// // ...even after injecting 2% bit errors (voltage over-scaling).
/// narrow.inject_bit_flips(0.02, 7)?;
/// assert_eq!(narrow.predict(&a), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    dim: usize,
    bit_width: u8,
    classes: Vec<Vec<i16>>,
}

impl QuantizedModel {
    /// Quantizes a trained model to `bit_width` bits per class element
    /// (symmetric, per-class scaling; `bit_width = 1` keeps only the sign).
    ///
    /// # Errors
    ///
    /// Returns an error if `bit_width` is not in `1..=16`.
    pub fn from_model(model: &HdcModel, bit_width: u8) -> Result<Self, HdcError> {
        if !(1..=16).contains(&bit_width) {
            return Err(HdcError::invalid("bit_width", "must be in 1..=16"));
        }
        let classes = model
            .iter()
            .map(|class| quantize_class(class.values(), bit_width))
            .collect();
        Ok(QuantizedModel {
            dim: model.dim(),
            bit_width,
            classes,
        })
    }

    /// Reassembles a quantized model from raw parts (e.g. deserialized
    /// class rows).
    ///
    /// # Errors
    ///
    /// Returns an error if `bit_width` is out of range, `classes` is
    /// empty, rows are ragged, or any element exceeds the `bit_width`
    /// range.
    pub fn from_parts(dim: usize, bit_width: u8, classes: Vec<Vec<i16>>) -> Result<Self, HdcError> {
        if !(1..=16).contains(&bit_width) {
            return Err(HdcError::invalid("bit_width", "must be in 1..=16"));
        }
        if classes.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        if let Some(bad) = classes.iter().find(|c| c.len() != dim) {
            return Err(HdcError::DimensionMismatch {
                expected: dim,
                actual: bad.len(),
            });
        }
        if bit_width < 16 {
            let lo = -(1i16 << (bit_width - 1));
            let hi = (1i16 << (bit_width - 1)) - 1;
            let (lo, hi) = if bit_width == 1 { (-1, 1) } else { (lo, hi) };
            for row in &classes {
                if let Some(&bad) = row.iter().find(|&&v| v < lo || v > hi) {
                    return Err(HdcError::invalid(
                        "classes",
                        format!("element {bad} exceeds the {bit_width}-bit range"),
                    ));
                }
            }
        }
        Ok(QuantizedModel {
            dim,
            bit_width,
            classes,
        })
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Effective bit-width of the stored class elements.
    pub fn bit_width(&self) -> u8 {
        self.bit_width
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The quantized elements of class `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn class(&self, label: usize) -> &[i16] {
        &self.classes[label]
    }

    /// Mutable access to the raw class rows, for in-crate fault injection.
    pub(crate) fn classes_mut(&mut self) -> &mut [Vec<i16>] {
        &mut self.classes
    }

    /// Total number of *effective* class-memory bits
    /// (`n_classes * dim * bit_width`) — the bits exposed to voltage
    /// over-scaling errors.
    pub fn storage_bits(&self) -> usize {
        self.classes.len() * self.dim * self.bit_width as usize
    }

    /// Cosine-ranked similarity scores of a query against all classes.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()`.
    pub fn scores(&self, query: &IntHv) -> Vec<f64> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        self.classes
            .iter()
            .map(|class| {
                let mut dot: i64 = 0;
                let mut norm2: f64 = 0.0;
                for (&q, &c) in query.values().iter().zip(class) {
                    dot += i64::from(q) * i64::from(c);
                    norm2 += f64::from(c) * f64::from(c);
                }
                if norm2 == 0.0 {
                    0.0
                } else {
                    dot as f64 / norm2.sqrt()
                }
            })
            .collect()
    }

    /// True cosine similarities (`H·C / (‖H‖‖C‖)`) of a query against all
    /// classes over the first `dims` dimensions (on-demand dimension
    /// reduction, §4.3.3). Unlike [`scores`](QuantizedModel::scores) the
    /// query norm is included, so margins between the top scores are
    /// comparable across queries — what confidence-based escalation needs.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `dims` is zero or exceeds
    /// the model dimensionality.
    pub fn cosine_scores(&self, query: &IntHv, dims: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.cosine_scores_into(query, dims, &mut out);
        out
    }

    /// [`cosine_scores`](QuantizedModel::cosine_scores) written into a
    /// reusable buffer — the allocation-free inner loop the resilient
    /// pipeline issues once per (possibly redundant) class-memory read.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `dims` is zero or exceeds
    /// the model dimensionality.
    pub fn cosine_scores_into(&self, query: &IntHv, dims: usize, out: &mut Vec<f64>) {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        assert!(
            dims > 0 && dims <= self.dim,
            "dims {} out of range (1..={})",
            dims,
            self.dim
        );
        let q = &query.values()[..dims];
        let q_norm2: f64 = q.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        out.clear();
        out.reserve(self.classes.len());
        out.extend(self.classes.iter().map(|class| {
            let mut dot: i64 = 0;
            let mut c_norm2: f64 = 0.0;
            for (&qv, &cv) in q.iter().zip(&class[..dims]) {
                dot += i64::from(qv) * i64::from(cv);
                c_norm2 += f64::from(cv) * f64::from(cv);
            }
            let denom2 = q_norm2 * c_norm2;
            if denom2 == 0.0 {
                0.0
            } else {
                dot as f64 / denom2.sqrt()
            }
        }));
    }

    /// Decomposes every class row into sign/magnitude bit planes for
    /// word-parallel binary-query scoring: the GHDC v3 image
    /// [`write_packed`](crate::io::write_packed) emits, byte for byte,
    /// held in an aligned buffer and scored through
    /// [`PackedModel::view`]. At `bit_width = 1` this is the binarized
    /// associative memory: sign vectors (0 ↦ +1) scored
    /// `(D − 2·Hamming)/√D`.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is degenerate (zero-dimensional
    /// rows from hand-built parts).
    pub fn pack(&self) -> Result<PackedModel, HdcError> {
        crate::io::packed_bytes(self)
            .and_then(|bytes| PackedModel::from_mapping(mapped::Mapping::from_bytes(&bytes)?))
            .map_err(|e| HdcError::invalid("model", e.to_string()))
    }

    /// Predicts the class of an encoded query.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()`.
    pub fn predict(&self, query: &IntHv) -> usize {
        self.scores(query)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
            .map(|(i, _)| i)
            .expect("model has at least one class")
    }

    /// Fraction of `encoded` samples predicted as their `labels`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or dimensions.
    pub fn accuracy(&self, encoded: &[IntHv], labels: &[usize]) -> f64 {
        assert_eq!(
            encoded.len(),
            labels.len(),
            "samples/labels length mismatch"
        );
        if encoded.is_empty() {
            return 0.0;
        }
        let correct = encoded
            .iter()
            .zip(labels)
            .filter(|&(hv, &label)| self.predict(hv) == label)
            .count();
        correct as f64 / encoded.len() as f64
    }

    /// Flips each *effective* stored bit independently with probability
    /// `ber`, emulating SRAM read upsets under voltage over-scaling.
    /// Returns the number of bits flipped.
    ///
    /// Elements are interpreted as `bit_width`-bit two's-complement values;
    /// a flip of the top effective bit changes the sign, exactly as it
    /// would in the masked 16-bit hardware word.
    ///
    /// This is the transient special case of the general fault engine:
    /// identical to [`FaultModel::transient`](crate::FaultModel::transient)
    /// followed by a read-0
    /// [`corrupt_model`](crate::FaultModel::corrupt_model).
    ///
    /// # Errors
    ///
    /// Returns an error if `ber` is not a probability in `[0, 1]`.
    pub fn inject_bit_flips(&mut self, ber: f64, seed: u64) -> Result<usize, HdcError> {
        if !(0.0..=1.0).contains(&ber) || ber.is_nan() {
            return Err(HdcError::invalid("ber", "must be a probability in [0, 1]"));
        }
        if ber == 0.0 {
            return Ok(0);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let bw = u32::from(self.bit_width);
        Ok(flip_class_bits(&mut self.classes, bw, ber, &mut rng))
    }
}

/// The one packed form of a [`QuantizedModel`]: an owned, validated
/// GHDC v3 image in a 64-byte-aligned buffer (an OS mapping or an
/// aligned heap copy), scored through [`PackedModel::view`].
///
/// Scoring a packed binary query against a packed class costs one
/// XOR + AND + popcount pass per magnitude plane (≤ `bit_width`
/// planes) instead of `dim` scalar multiply-adds — the software analogue
/// of the accelerator's masked bit-serial dot product (§4.3.4). Scores
/// are bit-identical to [`QuantizedModel::scores`] on the same query
/// (`IntHv::from(binary)`): the dot product is exact integer arithmetic
/// and the class norms are folded in the same left-to-right order.
///
/// The image is validated once, at construction; [`PackedModel::view`]
/// only re-checks the cheap structural invariants.
///
/// ```
/// use generic_hdc::{BinaryHv, HdcModel, IntHv, QuantizedModel};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let a = BinaryHv::random_seeded(512, 1)?;
/// let b = BinaryHv::random_seeded(512, 2)?;
/// let model = HdcModel::fit(&[IntHv::from(a.clone()), IntHv::from(b)], &[0, 1], 2)?;
/// let quantized = QuantizedModel::from_model(&model, 4)?;
/// let packed = quantized.pack()?;
/// assert_eq!(packed.view().predict(&a)?, quantized.predict(&IntHv::from(a.clone())));
///
/// // The 1-bit mode: a binarized associative memory.
/// let binary = QuantizedModel::from_model(&model, 1)?.pack()?;
/// assert_eq!(binary.view().predict(&a)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PackedModel {
    bytes: mapped::Mapping,
    layout: PackedLayout,
}

impl PackedModel {
    /// Validates a v3 image (structure, length, alignment, CRC, support
    /// mask) and takes ownership of it.
    ///
    /// # Errors
    ///
    /// Every [`ReadModelError`] [`PackedModelView::new`] reports.
    pub fn from_mapping(bytes: mapped::Mapping) -> Result<Self, ReadModelError> {
        let layout = PackedModelView::new(&bytes)?.layout();
        Ok(PackedModel { bytes, layout })
    }

    /// The zero-copy scoring view over the owned image.
    pub fn view(&self) -> PackedModelView<'_> {
        // The cheap invariants cannot fail: `layout` was validated
        // against these exact bytes, and the buffer base is 64-byte
        // aligned by construction.
        match PackedModelView::with_layout(&self.bytes, self.layout) {
            Ok(view) => view,
            Err(_) => unreachable!("image bytes were validated at construction"),
        }
    }

    /// The v3 image bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the image is a real OS memory mapping.
    pub fn is_mmap(&self) -> bool {
        self.bytes.is_mmap()
    }
}

/// A borrowed, zero-copy view of a GHDC v3 packed stream: the mapped
/// bytes of a model file reinterpreted as a servable model — the one
/// bit-plane scoring loop in the crate.
///
/// The view carries no per-class `Vec`s — every plane is a sub-slice of
/// the mapped region, scored in place through a dispatched
/// [`KernelSet`], so scores are **bit-identical** to
/// [`QuantizedModel::scores`] on the same query (v3 pads every class to
/// a uniform plane count with explicit all-zero planes, whose masked
/// popcount and hoisted popcount are both zero).
///
/// Construction performs the full typed-error gauntlet *before* any
/// reinterpretation: magic/version/kind, header plausibility, exact
/// length, base alignment, then the CRC32 footer. No view exists over
/// bytes that failed any check.
///
/// ```
/// use generic_hdc::io::write_packed;
/// use generic_hdc::{BinaryHv, HdcModel, IntHv, PackedModelView, QuantizedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = BinaryHv::random_seeded(512, 1)?;
/// let b = BinaryHv::random_seeded(512, 2)?;
/// let model = HdcModel::fit(&[IntHv::from(a.clone()), IntHv::from(b)], &[0, 1], 2)?;
/// let quantized = QuantizedModel::from_model(&model, 4)?;
///
/// let mut bytes = Vec::new();
/// write_packed(&quantized, &mut bytes)?;
/// let mapping = generic_hdc::mapped::Mapping::from_bytes(&bytes)?;
/// let view = PackedModelView::new(&mapping)?;
/// assert_eq!(view.predict(&a)?, quantized.predict(&IntHv::from(a)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PackedModelView<'a> {
    bytes: &'a [u8],
    /// One aligned `u64` reinterpretation of the whole planes region;
    /// individual planes are sub-slices at word offsets.
    words: &'a [u64],
    /// Aligned reinterpretation of the support-mask words (empty for a
    /// full-support stream).
    support: &'a [u64],
    layout: PackedLayout,
}

impl<'a> PackedModelView<'a> {
    /// Validates `bytes` (structure, length, alignment, CRC) and builds
    /// the view. This is the cold-load entry point; reuse the parsed
    /// [`PackedLayout`] via [`PackedModelView::with_layout`] to rebuild
    /// views over already-validated bytes without re-hashing.
    ///
    /// # Errors
    ///
    /// Every [`ReadModelError`] the validation gauntlet produces; in
    /// particular [`ReadModelError::Misaligned`] when the buffer base is
    /// not [`PACKED_ALIGN`]-aligned (map the file, or stage it through
    /// [`mapped::Mapping::from_bytes`]).
    pub fn new(bytes: &'a [u8]) -> Result<Self, ReadModelError> {
        let layout = PackedLayout::validate(bytes)?;
        Self::over_validated(bytes, layout)
    }

    /// Rebuilds a view over bytes already validated by
    /// [`PackedLayout::validate`], re-checking only the cheap structural
    /// invariants (length and alignment) — not the checksum. The
    /// registry uses this on its per-request hot path.
    ///
    /// # Errors
    ///
    /// [`ReadModelError::Truncated`] or [`ReadModelError::Misaligned`]
    /// if `bytes` is not the buffer `layout` was validated against.
    pub fn with_layout(bytes: &'a [u8], layout: PackedLayout) -> Result<Self, ReadModelError> {
        if bytes.len() != layout.total_len() {
            return Err(ReadModelError::Truncated {
                expected: layout.total_len() as u64,
                actual: bytes.len() as u64,
            });
        }
        Self::over_validated(bytes, layout)
    }

    fn over_validated(bytes: &'a [u8], layout: PackedLayout) -> Result<Self, ReadModelError> {
        let offset = bytes.as_ptr() as usize % PACKED_ALIGN;
        if offset != 0 {
            return Err(ReadModelError::Misaligned {
                required: PACKED_ALIGN,
                offset,
            });
        }
        // A pruned view must never exist over a mask whose population
        // disagrees with the stored model — re-checked here so the
        // `with_layout` fast path keeps the same guarantee as the full
        // validation gauntlet.
        layout.check_support(bytes)?;
        let planes_region = &bytes[layout.planes_offset()..layout.support_offset()];
        let words = mapped::as_u64_slice(planes_region).ok_or(ReadModelError::Misaligned {
            required: PACKED_ALIGN,
            offset: planes_region.as_ptr() as usize % PACKED_ALIGN,
        })?;
        let mask_region =
            &bytes[layout.support_offset()..layout.support_offset() + layout.support_words() * 8];
        let support = mapped::as_u64_slice(mask_region).ok_or(ReadModelError::Misaligned {
            required: PACKED_ALIGN,
            offset: mask_region.as_ptr() as usize % PACKED_ALIGN,
        })?;
        Ok(PackedModelView {
            bytes,
            words,
            support,
            layout,
        })
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.layout.dim()
    }

    /// Effective bit-width of the source model.
    pub fn bit_width(&self) -> u8 {
        self.layout.bit_width()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.layout.n_classes()
    }

    /// Whether the stream stores a pruned model with a support mask.
    pub fn is_pruned(&self) -> bool {
        self.layout.is_pruned()
    }

    /// Parent-space dimensionality queries may arrive at
    /// ([`PackedModelView::dim`] for a full-support stream).
    pub fn parent_dim(&self) -> usize {
        self.layout.parent_dim()
    }

    /// The support-mask words of a pruned stream (`None` when
    /// full-support): bit `i` set ⇔ parent dimension `i` survives
    /// pruning.
    pub fn support(&self) -> Option<&'a [u64]> {
        if self.layout.is_pruned() {
            Some(self.support)
        } else {
            None
        }
    }

    /// The layout this view was constructed over.
    pub fn layout(&self) -> PackedLayout {
        self.layout
    }

    /// Class `c`'s plane `p` (0 = signs, `1 + k` = magnitude plane `k`)
    /// as an aligned word slice of the mapped region.
    fn plane(&self, c: usize, p: usize) -> &'a [u64] {
        let stride_words = self.layout.plane_stride() / 8;
        let base = (c * (1 + self.layout.n_planes()) + p) * stride_words;
        &self.words[base..base + self.layout.n_words()]
    }

    /// Similarity scores of a packed binary query against all classes
    /// (`H·C / ‖C‖`) — the same bits as [`QuantizedModel::scores`] on
    /// `IntHv::from(query)`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width query.
    pub fn scores(&self, query: &BinaryHv) -> Result<Vec<f64>, HdcError> {
        let mut out = Vec::new();
        self.scores_into(query, &mut out)?;
        Ok(out)
    }

    /// [`scores`](PackedModelView::scores) written into a reusable
    /// buffer; allocation-free once `out` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width query.
    pub fn scores_into(&self, query: &BinaryHv, out: &mut Vec<f64>) -> Result<(), HdcError> {
        self.scores_into_with(query, kernels::active(), out)
    }

    /// [`scores_into`](PackedModelView::scores_into) through an explicit
    /// kernel set — the hook the differential harness uses to pin every
    /// dispatched ISA against the heap oracle bit-for-bit.
    ///
    /// On a pruned view, queries may arrive at either dimensionality:
    /// support-sized queries score directly, parent-sized queries are
    /// first compacted through the support mask (a bit gather that keeps
    /// padding bits zero), then scored through the same kernel fold —
    /// bit-identical to compacting the query by hand and scoring the
    /// support-sized model.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width query.
    pub fn scores_into_with(
        &self,
        query: &BinaryHv,
        kernels: &KernelSet,
        out: &mut Vec<f64>,
    ) -> Result<(), HdcError> {
        let compacted: Vec<u64>;
        let q: &[u64] = if query.dim() == self.layout.dim() {
            query.words()
        } else if self.layout.is_pruned() && query.dim() == self.layout.parent_dim() {
            let mut gathered = vec![0u64; self.layout.dim().div_ceil(64)];
            compact_query_words(query.words(), self.support, &mut gathered);
            compacted = gathered;
            &compacted
        } else {
            return Err(HdcError::DimensionMismatch {
                expected: self.layout.parent_dim(),
                actual: query.dim(),
            });
        };
        out.clear();
        out.reserve(self.layout.n_classes());
        for c in 0..self.layout.n_classes() {
            let signs = self.plane(c, 0);
            // Per plane: 2^k · (popcount(P_k) − 2·popcount(P_k ∧ (q⊕σ))),
            // over mapped slices.
            let mut dot: i64 = 0;
            for k in 0..self.layout.n_planes() {
                let disagree = kernels.masked_popcount(q, signs, self.plane(c, 1 + k));
                dot += (self.layout.plane_pop(self.bytes, c, k) - 2 * disagree) << k;
            }
            let norm = self.layout.norm(self.bytes, c);
            out.push(if norm == 0.0 { 0.0 } else { dot as f64 / norm });
        }
        Ok(())
    }

    /// Predicts the class of a packed binary query (last class wins
    /// score ties, matching [`QuantizedModel::predict`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width query.
    pub fn predict(&self, query: &BinaryHv) -> Result<usize, HdcError> {
        let scores = self.scores(query)?;
        Ok(scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
            .map(|(i, _)| i)
            .expect("model has at least one class"))
    }

    /// Reconstructs the heap [`QuantizedModel`] this stream encodes —
    /// the scalar oracle mapped scoring is differentially replayed
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`ReadModelError::Corrupt`] if the planes encode values
    /// outside the element range.
    pub fn to_quantized(&self) -> Result<QuantizedModel, ReadModelError> {
        crate::io::read_packed(self.bytes)
    }
}

/// Gathers the support-masked bits of `src` (parent-space words) into a
/// densely packed prefix of `out` (support-space words): output bit `j`
/// is input bit `i` where `i` is the `j`-th set bit of `support`. `out`
/// must arrive zeroed and sized for the compacted dimensionality; bits
/// past the last support position are never written, so the packed-
/// padding invariant of [`BinaryHv`] is preserved and no kernel ever
/// reads a padding bit as signal.
pub(crate) fn compact_query_words(src: &[u64], support: &[u64], out: &mut [u64]) {
    let mut pos = 0usize;
    for (&s, &m) in src.iter().zip(support) {
        let mut m = m;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            if (s >> b) & 1 == 1 {
                out[pos / 64] |= 1 << (pos % 64);
            }
            pos += 1;
            m &= m - 1;
        }
    }
}

pub(crate) fn mask(bw: u32) -> u16 {
    if bw >= 16 {
        u16::MAX
    } else {
        (1u16 << bw) - 1
    }
}

pub(crate) fn sign_extend(bits: u16, bw: u32) -> i16 {
    if bw >= 16 {
        bits as i16
    } else if bits & (1 << (bw - 1)) != 0 {
        (bits | !mask(bw)) as i16
    } else {
        bits as i16
    }
}

/// Packs one stored class element into its `bw` effective memory bits.
///
/// For `bw >= 2` this is plain two's-complement truncation. 1-bit models
/// are sign-only (they store `+1` / `-1`, never `0`), so the single
/// memory bit is `1` for negative elements and `0` otherwise; naive
/// two's-complement truncation would pack `+1` as bit `1`, which
/// [`unpack_bits`] — and the hardware's sign-extending read port — would
/// then read back as `-1`, silently negating every positive element that
/// crossed the memory boundary. All in-crate bit-level fault injection
/// goes through this pair, so pack∘unpack is the identity on every
/// representable value at every width.
///
/// # Panics
///
/// Panics if `bw` is not in `1..=16`.
pub fn pack_bits(value: i16, bw: u32) -> u16 {
    assert!((1..=16).contains(&bw), "bit width {bw} out of range 1..=16");
    if bw == 1 {
        u16::from(value < 0)
    } else {
        (value as u16) & mask(bw)
    }
}

/// Unpacks `bw` effective memory bits into a stored class element — the
/// exact inverse of [`pack_bits`] on every representable value
/// (`{-1, +1}` at one bit, the two's-complement range otherwise).
///
/// At `bw == 1` the decode is sign-only: bit `1` reads as `-1`, bit `0`
/// as `+1`. A hand-built zero element (allowed by
/// [`QuantizedModel::from_parts`] but never produced by quantization) is
/// not representable in one bit and reads back as `+1` after a memory
/// round-trip.
///
/// # Panics
///
/// Panics if `bw` is not in `1..=16`.
pub fn unpack_bits(bits: u16, bw: u32) -> i16 {
    assert!((1..=16).contains(&bw), "bit width {bw} out of range 1..=16");
    if bw == 1 {
        if bits & 1 != 0 {
            -1
        } else {
            1
        }
    } else {
        sign_extend(bits, bw)
    }
}

fn quantize_class(values: &[i32], bit_width: u8) -> Vec<i16> {
    if bit_width == 1 {
        // Sign-only model: +1 / -1 (0 maps to +1).
        return values.iter().map(|&v| if v < 0 { -1 } else { 1 }).collect();
    }
    let n = values.len() as f64;
    if bit_width == 2 {
        // Ternary quantization: zero inside a dead-zone of 0.7 · mean|v|,
        // sign outside — the standard ternary-weight rule; a plain
        // round-to-nearest 2-bit grid would zero out concentrated
        // magnitude distributions entirely.
        let mean_abs = values.iter().map(|&v| f64::from(v).abs()).sum::<f64>() / n;
        let tau = 0.7 * mean_abs;
        return values
            .iter()
            .map(|&v| {
                if f64::from(v).abs() <= tau {
                    0
                } else if v < 0 {
                    -1
                } else {
                    1
                }
            })
            .collect();
    }
    // Clipped symmetric quantization: scale by ~2.5 standard deviations
    // rather than the maximum so heavy-tailed outliers do not waste the
    // narrow ranges (with max-abs scaling a 4-bit model would map almost
    // every element to zero).
    let var = values
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        / n;
    let clip = (2.5 * var.sqrt()).max(1.0);
    let q_max = (1i32 << (bit_width - 1)) - 1;
    values
        .iter()
        .map(|&v| {
            let scaled = (f64::from(v) / clip * f64::from(q_max)).round() as i32;
            scaled.clamp(-q_max, q_max) as i16
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryHv;

    fn trained_model(dim: usize) -> (HdcModel, Vec<IntHv>, Vec<usize>) {
        let proto0 = BinaryHv::random_seeded(dim, 50).unwrap();
        let proto1 = BinaryHv::random_seeded(dim, 60).unwrap();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            for (label, proto) in [(0usize, &proto0), (1usize, &proto1)] {
                let mut hv = proto.clone();
                for k in 0..dim / 12 {
                    hv.flip_bit((k * 11 + i * 3) % dim);
                }
                encoded.push(IntHv::from(hv));
                labels.push(label);
            }
        }
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        (model, encoded, labels)
    }

    #[test]
    fn sixteen_bit_quantization_preserves_predictions() {
        let (model, encoded, labels) = trained_model(1024);
        let q = QuantizedModel::from_model(&model, 16).unwrap();
        for (hv, &label) in encoded.iter().zip(&labels) {
            assert_eq!(q.predict(hv), label, "model predicts {}", model.predict(hv));
        }
    }

    #[test]
    fn narrow_widths_remain_accurate_on_separable_data() {
        let (model, encoded, labels) = trained_model(2048);
        for bw in [8, 4, 2, 1] {
            let q = QuantizedModel::from_model(&model, bw).unwrap();
            let acc = q.accuracy(&encoded, &labels);
            assert!(acc >= 0.95, "bw={bw}: acc={acc}");
        }
    }

    #[test]
    fn quantized_range_respected() {
        let (model, _, _) = trained_model(512);
        for bw in [2u8, 4, 8] {
            let q = QuantizedModel::from_model(&model, bw).unwrap();
            let q_max = (1i16 << (bw - 1)) - 1;
            for c in 0..q.n_classes() {
                assert!(q.class(c).iter().all(|&v| (-q_max..=q_max).contains(&v)));
            }
        }
    }

    #[test]
    fn one_bit_model_is_sign() {
        let (model, _, _) = trained_model(256);
        let q = QuantizedModel::from_model(&model, 1).unwrap();
        for c in 0..2 {
            for (&qv, &mv) in q.class(c).iter().zip(model.class(c).values()) {
                assert_eq!(qv, if mv < 0 { -1 } else { 1 });
            }
        }
    }

    #[test]
    fn zero_ber_flips_nothing() {
        let (model, encoded, _) = trained_model(512);
        let mut q = QuantizedModel::from_model(&model, 4).unwrap();
        let before = q.clone();
        assert_eq!(q.inject_bit_flips(0.0, 1).unwrap(), 0);
        assert_eq!(q, before);
        let _ = q.predict(&encoded[0]);
    }

    #[test]
    fn flip_count_tracks_ber() {
        let (model, _, _) = trained_model(1024);
        let mut q = QuantizedModel::from_model(&model, 8).unwrap();
        let total_bits = q.storage_bits();
        let flipped = q.inject_bit_flips(0.05, 7).unwrap();
        let expected = total_bits as f64 * 0.05;
        assert!(
            (flipped as f64) > expected * 0.6 && (flipped as f64) < expected * 1.4,
            "flipped {flipped} of {total_bits} (expected ~{expected})"
        );
    }

    #[test]
    fn small_ber_degrades_gracefully() {
        let (model, encoded, labels) = trained_model(2048);
        let mut q = QuantizedModel::from_model(&model, 1).unwrap();
        q.inject_bit_flips(0.02, 3).unwrap();
        let acc = q.accuracy(&encoded, &labels);
        assert!(acc >= 0.9, "1-bit model at 2% BER should hold up: {acc}");
    }

    #[test]
    fn sign_extension_is_correct() {
        assert_eq!(sign_extend(0b1111, 4), -1);
        assert_eq!(sign_extend(0b1000, 4), -8);
        assert_eq!(sign_extend(0b0111, 4), 7);
        assert_eq!(sign_extend(0b1, 1), -1);
        assert_eq!(sign_extend(0b0, 1), 0);
        assert_eq!(sign_extend(0xFFFF, 16), -1);
    }

    #[test]
    fn pack_unpack_round_trips_every_representable_value() {
        for bw in 1..=16u32 {
            let representable: Vec<i16> = if bw == 1 {
                vec![-1, 1]
            } else {
                (0..1u32 << bw)
                    .map(|bits| sign_extend(bits as u16, bw))
                    .collect()
            };
            for v in representable {
                let bits = pack_bits(v, bw);
                assert_eq!(bits & !mask(bw), 0, "bw={bw}: packed bits exceed the mask");
                assert_eq!(unpack_bits(bits, bw), v, "bw={bw} v={v}");
            }
            // Every effective bit pattern decodes and re-encodes to itself,
            // so XOR fault masks act on a closed set of states.
            let patterns: u32 = if bw == 1 { 2 } else { 1u32 << bw };
            for bits in 0..patterns {
                let bits = bits as u16;
                assert_eq!(
                    pack_bits(unpack_bits(bits, bw), bw),
                    bits,
                    "bw={bw} bits={bits:#b}"
                );
            }
        }
    }

    #[test]
    fn one_bit_pack_boundary_keeps_positive_signs() {
        // The regression this pair exists for: +1 must survive a memory
        // round-trip (two's-complement truncation would read it back
        // as -1).
        assert_eq!(pack_bits(1, 1), 0);
        assert_eq!(pack_bits(-1, 1), 1);
        assert_eq!(unpack_bits(pack_bits(1, 1), 1), 1);
        assert_eq!(unpack_bits(pack_bits(-1, 1), 1), -1);
        // Hand-built zeros are not representable and normalize to +1.
        assert_eq!(unpack_bits(pack_bits(0, 1), 1), 1);
    }

    #[test]
    fn one_bit_round_trip_matches_unquantized_model_exhaustively() {
        use crate::FaultModel;
        // Every 8-dim sign pattern, quantized to one bit, must survive the
        // pack/unpack boundary with its signs intact and score queries
        // exactly like a scalar sign oracle over the unquantized model.
        for pattern in 0u32..256 {
            let row: Vec<i32> = (0..8)
                .map(|i| {
                    let magnitude = i + 1;
                    if pattern >> i & 1 == 1 {
                        -magnitude
                    } else {
                        magnitude
                    }
                })
                .collect();
            let classes = vec![
                IntHv::from_values(row.clone()).unwrap(),
                IntHv::from_values(row.iter().map(|v| -v).collect()).unwrap(),
            ];
            let model = HdcModel::from_class_vectors(classes).unwrap();
            let q = QuantizedModel::from_model(&model, 1).unwrap();

            // Elementwise: quantized class = sign of the unquantized class,
            // unchanged by a pack/unpack memory round-trip.
            for c in 0..2 {
                for (&qv, &mv) in q.class(c).iter().zip(model.class(c).values()) {
                    let expected = if mv < 0 { -1 } else { 1 };
                    assert_eq!(qv, expected, "pattern={pattern:#010b} class={c}");
                    assert_eq!(unpack_bits(pack_bits(qv, 1), 1), qv);
                }
            }

            // Scoring: the 1-bit model must agree exactly with the scalar
            // sign oracle (all class norms are sqrt(8), folded in the same
            // left-to-right order as `scores`).
            let query = IntHv::from_values((0..8).map(|i| i - 3).collect()).unwrap();
            let scores = q.scores(&query);
            for (c, &score) in scores.iter().enumerate() {
                let dot: i64 = query
                    .values()
                    .iter()
                    .zip(q.class(c))
                    .map(|(&a, &b)| i64::from(a) * i64::from(b))
                    .sum();
                let norm2: f64 = (0..8).map(|_| 1.0f64).sum();
                assert_eq!(score, dot as f64 / norm2.sqrt(), "pattern={pattern:#010b}");
            }

            // A full defect flip is an involution through the boundary:
            // flipping every stored bit twice restores the model exactly.
            let full_flip = FaultModel::persistent(1.0, 3).unwrap();
            let map = full_flip.defect_map(2, 8, 1).unwrap();
            let mut flipped = q.clone();
            map.apply(&mut flipped).unwrap();
            for c in 0..2 {
                for (&fv, &qv) in flipped.class(c).iter().zip(q.class(c)) {
                    assert_eq!(fv, -qv, "full flip negates every 1-bit element");
                }
            }
            map.apply(&mut flipped).unwrap();
            assert_eq!(
                flipped, q,
                "double flip must round-trip, pattern={pattern:#010b}"
            );
        }
    }

    #[test]
    fn defect_involution_round_trips_every_width() {
        use crate::FaultModel;
        for bw in [1u8, 2, 4, 8, 16] {
            let (model, _, _) = trained_model(256);
            let q = QuantizedModel::from_model(&model, bw).unwrap();
            let map = FaultModel::persistent(1.0, 17)
                .unwrap()
                .defect_map(q.n_classes(), q.dim(), bw)
                .unwrap();
            let mut m = q.clone();
            map.apply(&mut m).unwrap();
            assert_ne!(m, q, "bw={bw}: a full flip must change the model");
            map.apply(&mut m).unwrap();
            assert_eq!(m, q, "bw={bw}: XOR defects must be an involution");
        }
    }

    #[test]
    fn packed_model_matches_scalar_scores_on_binary_queries() {
        let (model, encoded, _) = trained_model(1000); // not a multiple of 64
        for bw in [1u8, 2, 4, 8, 16] {
            let q = QuantizedModel::from_model(&model, bw).unwrap();
            let packed = q.pack().unwrap();
            let mut written = Vec::new();
            crate::io::write_packed(&q, &mut written).unwrap();
            assert_eq!(
                packed.bytes(),
                &written[..],
                "bw={bw}: pack() is the v3 image"
            );
            let view = packed.view();
            assert_eq!(view.dim(), q.dim());
            assert_eq!(view.bit_width(), bw);
            assert_eq!(view.n_classes(), q.n_classes());
            for hv in &encoded {
                let binary = hv.to_binary();
                let slow = q.scores(&IntHv::from(binary.clone()));
                for isa in kernels::available() {
                    let mut fast = Vec::new();
                    view.scores_into_with(&binary, kernels::for_isa(isa).unwrap(), &mut fast)
                        .unwrap();
                    assert_eq!(
                        fast, slow,
                        "bw={bw} isa={isa}: scores must be bit-identical"
                    );
                }
                assert_eq!(
                    view.predict(&binary).unwrap(),
                    q.predict(&IntHv::from(binary)),
                    "bw={bw}"
                );
            }
        }
    }

    #[test]
    fn packed_model_rejects_wrong_width_queries() {
        let (model, _, _) = trained_model(256);
        let packed = QuantizedModel::from_model(&model, 4)
            .unwrap()
            .pack()
            .unwrap();
        let wrong = BinaryHv::random_seeded(128, 5).unwrap();
        assert!(packed.view().scores(&wrong).is_err());
        assert!(packed.view().predict(&wrong).is_err());
    }

    fn packed_accuracy(packed: &PackedModel, encoded: &[IntHv], labels: &[usize]) -> f64 {
        let correct = encoded
            .iter()
            .zip(labels)
            .filter(|&(hv, &label)| packed.view().predict(&hv.to_binary()).unwrap() == label)
            .count();
        correct as f64 / encoded.len() as f64
    }

    #[test]
    fn one_bit_packed_model_tolerates_heavy_bit_errors() {
        // The associative-memory headline: sign-only class memories
        // survive double-digit bit error rates.
        let (model, encoded, labels) = trained_model(4096);
        let mut q = QuantizedModel::from_model(&model, 1).unwrap();
        q.inject_bit_flips(0.15, 9).unwrap();
        let acc = packed_accuracy(&q.pack().unwrap(), &encoded, &labels);
        assert!(acc >= 0.95, "accuracy {acc} under 15% BER");
    }

    #[test]
    fn one_bit_packed_model_scores_by_hamming_distance() {
        // The binarized associative memory: sign vectors (0 ↦ +1),
        // score (D − 2·Hamming)/√D, ties to the last maximum.
        let (model, encoded, _) = trained_model(1000);
        let packed = QuantizedModel::from_model(&model, 1)
            .unwrap()
            .pack()
            .unwrap();
        let signs: Vec<BinaryHv> = model.iter().map(IntHv::to_binary).collect();
        let d = 1000.0f64;
        for hv in &encoded {
            let query = hv.to_binary();
            let expected: Vec<f64> = signs
                .iter()
                .map(|s| (d - 2.0 * query.hamming(s).unwrap() as f64) / d.sqrt())
                .collect();
            assert_eq!(packed.view().scores(&query).unwrap(), expected);
        }
        let tied = QuantizedModel::from_parts(64, 1, vec![vec![1; 64], vec![1; 64], vec![-1; 64]])
            .unwrap()
            .pack()
            .unwrap();
        let query = BinaryHv::zeros(64).unwrap();
        assert_eq!(tied.view().predict(&query).unwrap(), 1, "last maximum wins");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (model, _, _) = trained_model(128);
        assert!(QuantizedModel::from_model(&model, 0).is_err());
        assert!(QuantizedModel::from_model(&model, 17).is_err());
        let mut q = QuantizedModel::from_model(&model, 4).unwrap();
        assert!(q.inject_bit_flips(1.5, 1).is_err());
        assert!(q.inject_bit_flips(-0.1, 1).is_err());
    }

    /// A deterministic pruned fixture: keep all but every 7th dimension
    /// of a 300-dim parent space (neither dim is word-aligned).
    fn pruned_fixture(
        bw: u8,
    ) -> (
        usize,
        Vec<usize>,
        Vec<u64>,
        QuantizedModel,
        Vec<IntHv>,
        Vec<u8>,
    ) {
        let parent_dim = 300usize;
        let keep: Vec<usize> = (0..parent_dim).filter(|i| i % 7 != 3).collect();
        let dim = keep.len();
        let mut mask_words = vec![0u64; parent_dim.div_ceil(64)];
        for &i in &keep {
            mask_words[i / 64] |= 1 << (i % 64);
        }
        let (model, encoded, _) = trained_model(parent_dim);
        let q_full = QuantizedModel::from_model(&model, bw).unwrap();
        let classes: Vec<Vec<i16>> = (0..q_full.n_classes())
            .map(|c| keep.iter().map(|&i| q_full.class(c)[i]).collect())
            .collect();
        let pruned = QuantizedModel::from_parts(dim, bw, classes).unwrap();
        let bytes = crate::io::packed_bytes_pruned(&pruned, parent_dim, &mask_words).unwrap();
        (parent_dim, keep, mask_words, pruned, encoded, bytes)
    }

    #[test]
    fn pruned_view_scores_match_hand_compacted_oracle_on_every_kernel_set() {
        for bw in [1u8, 2, 4, 8, 16] {
            let (parent_dim, keep, _, pruned, encoded, bytes) = pruned_fixture(bw);
            let mapping = crate::Mapping::from_bytes(&bytes).unwrap();
            let view = PackedModelView::new(&mapping).unwrap();
            assert!(view.is_pruned());
            assert_eq!(view.parent_dim(), parent_dim);
            assert_eq!(view.dim(), keep.len());
            assert_eq!(view.support().unwrap().len(), parent_dim.div_ceil(64));
            for hv in encoded.iter().take(4) {
                let parent_query = hv.to_binary();
                // Scalar pruned oracle: compact the query by hand, score
                // the compacted heap model.
                let bits: Vec<bool> = keep.iter().map(|&i| parent_query.bit(i)).collect();
                let compacted = BinaryHv::from_bits(&bits).unwrap();
                let oracle = pruned.scores(&IntHv::from(compacted.clone()));
                for isa in crate::kernels::available() {
                    let ks = crate::kernels::for_isa(isa).unwrap();
                    let mut fast = Vec::new();
                    view.scores_into_with(&parent_query, ks, &mut fast).unwrap();
                    assert_eq!(fast, oracle, "bw={bw}: parent-dim query");
                    let mut direct = Vec::new();
                    view.scores_into_with(&compacted, ks, &mut direct).unwrap();
                    assert_eq!(direct, oracle, "bw={bw}: support-dim query");
                }
            }
            // Any other query width is a typed mismatch naming the
            // logical (parent) dimensionality.
            let wrong = BinaryHv::random_seeded(parent_dim + 1, 9).unwrap();
            let mut out = Vec::new();
            match view.scores_into_with(&wrong, crate::kernels::active(), &mut out) {
                Err(HdcError::DimensionMismatch { expected, .. }) => {
                    assert_eq!(expected, parent_dim)
                }
                other => panic!("expected a dimension mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn tampered_support_mask_is_rejected_before_view_construction() {
        let (_, _, _, _, _, mut bytes) = pruned_fixture(4);
        let layout = PackedLayout::validate(&bytes).unwrap();
        // Clear one support bit and reseal the CRC: only the semantic
        // support check stands between these bytes and a view.
        bytes[layout.support_offset()] &= !1u8;
        let body = bytes.len() - 4;
        let crc = crate::io::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let mapping = crate::Mapping::from_bytes(&bytes).unwrap();
        assert!(matches!(
            PackedModelView::new(&mapping),
            Err(ReadModelError::SupportMismatch { .. })
        ));
        // The pre-validated-layout fast path must uphold the same gate.
        assert!(matches!(
            PackedModelView::with_layout(&mapping, layout),
            Err(ReadModelError::SupportMismatch { .. })
        ));
    }
}
