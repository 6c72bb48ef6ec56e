//! Post-training model compression: saliency-guided dimension pruning
//! composed with quantization, and an automatic accuracy/size Pareto
//! search (the DPQ-HD recipe adapted to the GENERIC datapath).
//!
//! The registry byte budget — not the hardware — caps how many tenants
//! fit in RAM, and every tenant image carries the full D-dimensional
//! model whether or not all D dimensions earn their keep. This module
//! shrinks trained models *after* training, in three composable steps:
//!
//! 1. **Saliency** ([`saliency`]): score every dimension by its summed
//!    contribution to the margin between the true class and the
//!    strongest rival over a labeled sample set — exact integer
//!    arithmetic, computed through the same dispatched kernels as
//!    inference, with [`saliency_scalar`] as the retained scalar
//!    reference.
//! 2. **Pruning** ([`prune`]): keep the top-S dimensions, compact the
//!    class memory onto that support, and recover accuracy with
//!    mispredict-driven retraining on the pruned support
//!    ([`PrunedModel::recover`], reusing
//!    [`HdcModel::retrain_epoch_parallel`]).
//! 3. **Quantization** ([`CompressedModel`]): the existing 1–16-bit
//!    quantizer applied to the compacted model, serialized as a GHDC v3
//!    image whose trailing support mask makes the pruned model
//!    first-class through the mapped view, the registry, and serving.
//!
//! [`pareto_search`] sweeps support sizes × bit widths, measures
//! held-out accuracy per candidate, and returns the smallest image
//! meeting a target accuracy together with the full accuracy/size
//! frontier. Everything here is deterministic: same model, data, and
//! options ⇒ the same chosen image, byte for byte.

use crate::kernels::{self, KernelSet};
use crate::{
    io, HdcError, HdcModel, IntHv, Mapping, PackedModel, PredictOptions, QuantizedModel, ScoreBatch,
};

/// Per-dimension saliency of a trained model over a labeled sample set.
///
/// `scores[d]` is the exact integer sum over samples of
/// `q[d] · (C_true[d] − C_rival[d])` — how much dimension `d` pushed
/// each query toward its true class and away from the strongest
/// impostor. Dimensions with large positive saliency carry the class
/// margins; dimensions near zero are noise the model can shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaliencyMap {
    dim: usize,
    scores: Vec<i64>,
}

impl SaliencyMap {
    /// Dimensionality of the scored model.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of the per-dimension saliency scores.
    pub fn scores(&self) -> &[i64] {
        &self.scores
    }

    /// Dimension indices in descending saliency order; ties break toward
    /// the lower index so rankings are deterministic.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.dim).collect();
        order.sort_by(|&a, &b| self.scores[b].cmp(&self.scores[a]).then(a.cmp(&b)));
        order
    }
}

/// Scores every dimension's class-margin contribution over `encoded`,
/// through the actively dispatched kernel set.
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] on empty or mismatched
/// inputs, or a label out of class range.
pub fn saliency(
    model: &HdcModel,
    encoded: &[IntHv],
    labels: &[usize],
) -> Result<SaliencyMap, HdcError> {
    saliency_with(model, encoded, labels, kernels::active())
}

/// [`saliency`] through an explicit kernel set — the hook the
/// differential oracles use to pin every SIMD variant against
/// [`saliency_scalar`].
pub(crate) fn saliency_with(
    model: &HdcModel,
    encoded: &[IntHv],
    labels: &[usize],
    kernels: &'static KernelSet,
) -> Result<SaliencyMap, HdcError> {
    check_samples(model, encoded, labels)?;
    let opts = PredictOptions::full(model.dim());
    let mut batch = ScoreBatch::with_kernels(kernels);
    let mut scores = Vec::new();
    batch.scores_into(model, encoded, opts, &mut scores);
    let k = model.n_classes();
    let mut sal = vec![0i64; model.dim()];
    for (i, (hv, &label)) in encoded.iter().zip(labels).enumerate() {
        let rival = strongest_rival(&scores[i * k..(i + 1) * k], label);
        accumulate_margin(&mut sal, hv, model, label, rival);
    }
    Ok(SaliencyMap {
        dim: model.dim(),
        scores: sal,
    })
}

/// The retained scalar reference for [`saliency`]: one dimension at a
/// time, scored through [`HdcModel::scores_scalar`]. The differential
/// harness pins the kernel-dispatched path against this bit-for-bit.
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] on empty or mismatched
/// inputs, or a label out of class range.
pub fn saliency_scalar(
    model: &HdcModel,
    encoded: &[IntHv],
    labels: &[usize],
) -> Result<SaliencyMap, HdcError> {
    check_samples(model, encoded, labels)?;
    let opts = PredictOptions::full(model.dim());
    let mut sal = vec![0i64; model.dim()];
    for (hv, &label) in encoded.iter().zip(labels) {
        let scores = model.scores_scalar(hv, opts);
        let rival = strongest_rival(&scores, label);
        accumulate_margin(&mut sal, hv, model, label, rival);
    }
    Ok(SaliencyMap {
        dim: model.dim(),
        scores: sal,
    })
}

fn check_samples(model: &HdcModel, encoded: &[IntHv], labels: &[usize]) -> Result<(), HdcError> {
    if encoded.is_empty() {
        return Err(HdcError::EmptyInput);
    }
    if encoded.len() != labels.len() {
        return Err(HdcError::invalid(
            "labels",
            "must have one label per encoded sample",
        ));
    }
    if let Some(bad) = encoded.iter().find(|hv| hv.dim() != model.dim()) {
        return Err(HdcError::DimensionMismatch {
            expected: model.dim(),
            actual: bad.dim(),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= model.n_classes()) {
        return Err(HdcError::invalid(
            "labels",
            format!("label {bad} exceeds the class count {}", model.n_classes()),
        ));
    }
    Ok(())
}

/// Index of the strongest class other than `label` (last max wins,
/// matching the model's argmax tie rule); `None` for single-class
/// models.
fn strongest_rival(scores: &[f64], label: usize) -> Option<usize> {
    let mut best = f64::NEG_INFINITY;
    let mut idx = None;
    for (c, &s) in scores.iter().enumerate() {
        if c != label && s >= best {
            best = s;
            idx = Some(c);
        }
    }
    idx
}

/// Adds `q[d] · (C_label[d] − C_rival[d])` into `sal` — exact i64
/// arithmetic, so every kernel set accumulates identical saliency.
fn accumulate_margin(
    sal: &mut [i64],
    query: &IntHv,
    model: &HdcModel,
    label: usize,
    rival: Option<usize>,
) {
    let q = query.values();
    let true_class = model.class(label).values();
    match rival {
        Some(r) => {
            let rival_class = model.class(r).values();
            for (d, slot) in sal.iter_mut().enumerate() {
                *slot += i64::from(q[d]) * (i64::from(true_class[d]) - i64::from(rival_class[d]));
            }
        }
        None => {
            for (d, slot) in sal.iter_mut().enumerate() {
                *slot += i64::from(q[d]) * i64::from(true_class[d]);
            }
        }
    }
}

/// A trained model compacted onto a pruned support: `support[j]` is the
/// parent-space dimension stored at compacted position `j` (strictly
/// ascending), and `model` is the support-sized [`HdcModel`] ready for
/// retrain-after-prune recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedModel {
    parent_dim: usize,
    support: Vec<usize>,
    model: HdcModel,
}

/// Selects the `keep` most salient dimensions and compacts `model` onto
/// that support. `keep == model.dim()` is total and yields the identity
/// support (all dimensions, original class values).
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] when `keep` is zero or
/// exceeds the model dimensionality, or on a saliency/model dimension
/// mismatch.
pub fn prune(
    model: &HdcModel,
    saliency: &SaliencyMap,
    keep: usize,
) -> Result<PrunedModel, HdcError> {
    if saliency.dim() != model.dim() {
        return Err(HdcError::DimensionMismatch {
            expected: model.dim(),
            actual: saliency.dim(),
        });
    }
    if keep == 0 {
        return Err(HdcError::invalid("keep", "support must be non-empty"));
    }
    if keep > model.dim() {
        return Err(HdcError::invalid(
            "keep",
            format!(
                "support {keep} exceeds the model dimensionality {}",
                model.dim()
            ),
        ));
    }
    let mut support = saliency.ranked();
    support.truncate(keep);
    support.sort_unstable();
    let classes = model
        .iter()
        .map(|class| {
            let values = class.values();
            IntHv::from_values(support.iter().map(|&d| values[d]).collect())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PrunedModel {
        parent_dim: model.dim(),
        support,
        model: HdcModel::from_class_vectors(classes)?,
    })
}

impl PrunedModel {
    /// Parent-space dimensionality the support was pruned from.
    pub fn parent_dim(&self) -> usize {
        self.parent_dim
    }

    /// Compacted (support) dimensionality.
    pub fn dim(&self) -> usize {
        self.support.len()
    }

    /// The kept parent-space dimensions, strictly ascending.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// The compacted model.
    pub fn model(&self) -> &HdcModel {
        &self.model
    }

    /// The support as a parent-space bitmask (`ceil(parent_dim/64)`
    /// little-endian words), the GHDC v3 on-disk representation.
    pub fn support_mask(&self) -> Vec<u64> {
        let mut mask = vec![0u64; self.parent_dim.div_ceil(64)];
        for &d in &self.support {
            mask[d / 64] |= 1 << (d % 64);
        }
        mask
    }

    /// Gathers a parent-space encoded hypervector onto the support.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width input.
    pub fn compact(&self, hv: &IntHv) -> Result<IntHv, HdcError> {
        if hv.dim() != self.parent_dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.parent_dim,
                actual: hv.dim(),
            });
        }
        let values = hv.values();
        IntHv::from_values(self.support.iter().map(|&d| values[d]).collect())
    }

    /// [`PrunedModel::compact`] over a batch.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on any wrong-width input.
    pub fn compact_batch(&self, encoded: &[IntHv]) -> Result<Vec<IntHv>, HdcError> {
        encoded.iter().map(|hv| self.compact(hv)).collect()
    }

    /// Retrain-after-prune accuracy recovery: compacts `encoded` onto
    /// the support and runs up to `epochs` mispredict-driven retraining
    /// epochs through [`HdcModel::retrain_epoch_parallel`], stopping
    /// early once an epoch is mispredict-free. Returns the last epoch's
    /// mispredict count.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on wrong-width samples or
    /// mismatched label counts.
    pub fn recover(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
        epochs: usize,
        n_threads: usize,
    ) -> Result<usize, HdcError> {
        let compacted = self.compact_batch(encoded)?;
        let mut mispredicts = 0;
        for _ in 0..epochs {
            mispredicts = self
                .model
                .retrain_epoch_parallel(&compacted, labels, n_threads)?;
            if mispredicts == 0 {
                break;
            }
        }
        Ok(mispredicts)
    }

    /// Held-out accuracy of the compacted full-precision model on
    /// parent-space samples.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on wrong-width samples.
    pub fn accuracy(&self, encoded: &[IntHv], labels: &[usize]) -> Result<f64, HdcError> {
        let compacted = self.compact_batch(encoded)?;
        Ok(self.model.accuracy(&compacted, labels))
    }
}

/// A pruned *and* quantized model plus everything needed to serialize
/// it as a first-class GHDC v3 image: the publishable artifact of the
/// compression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedModel {
    parent_dim: usize,
    support: Vec<usize>,
    quantized: QuantizedModel,
}

impl CompressedModel {
    /// Quantizes a pruned model to `bit_width` bits per element.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `bit_width` is not in
    /// `1..=16`.
    pub fn from_pruned(pruned: &PrunedModel, bit_width: u8) -> Result<Self, HdcError> {
        Ok(CompressedModel {
            parent_dim: pruned.parent_dim,
            support: pruned.support.clone(),
            quantized: QuantizedModel::from_model(&pruned.model, bit_width)?,
        })
    }

    /// Parent-space dimensionality (what queries arrive at).
    pub fn parent_dim(&self) -> usize {
        self.parent_dim
    }

    /// Compacted (support) dimensionality.
    pub fn dim(&self) -> usize {
        self.support.len()
    }

    /// The kept parent-space dimensions, strictly ascending.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// Effective bit-width of the quantized elements.
    pub fn bit_width(&self) -> u8 {
        self.quantized.bit_width()
    }

    /// The compacted quantized model.
    pub fn quantized(&self) -> &QuantizedModel {
        &self.quantized
    }

    /// The support as a parent-space bitmask.
    pub fn support_mask(&self) -> Vec<u64> {
        let mut mask = vec![0u64; self.parent_dim.div_ceil(64)];
        for &d in &self.support {
            mask[d / 64] |= 1 << (d % 64);
        }
        mask
    }

    /// Packs the complete GHDC v3 image — the one packed form, scored
    /// through [`PackedModel::view`]. A full-dimension support packs
    /// the plain (maskless) v3 layout, byte-identical to
    /// [`QuantizedModel::pack`] — pruning none is not a format change.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] on implausible geometry.
    pub fn pack(&self) -> Result<PackedModel, HdcError> {
        if self.support.len() == self.parent_dim {
            return self.quantized.pack();
        }
        io::packed_bytes_pruned(&self.quantized, self.parent_dim, &self.support_mask())
            .and_then(|bytes| PackedModel::from_mapping(Mapping::from_bytes(&bytes)?))
            .map_err(|e| HdcError::invalid("image", e.to_string()))
    }

    /// Gathers a parent-space encoded hypervector onto the support.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a wrong-width input.
    pub fn compact(&self, hv: &IntHv) -> Result<IntHv, HdcError> {
        if hv.dim() != self.parent_dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.parent_dim,
                actual: hv.dim(),
            });
        }
        let values = hv.values();
        IntHv::from_values(self.support.iter().map(|&d| values[d]).collect())
    }

    /// Accuracy of the quantized compacted model on parent-space
    /// samples — the number the Pareto search optimizes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on wrong-width samples.
    pub fn accuracy(&self, encoded: &[IntHv], labels: &[usize]) -> Result<f64, HdcError> {
        let compacted = encoded
            .iter()
            .map(|hv| self.compact(hv))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.quantized.accuracy(&compacted, labels))
    }
}

/// Options steering [`pareto_search`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompressOptions {
    /// Minimum held-out accuracy the chosen model must reach.
    pub target_accuracy: f64,
    /// Optional hard ceiling on the chosen image's byte size.
    pub max_bytes: Option<usize>,
    /// Bit widths to sweep (each must be in `1..=16`).
    pub bit_widths: Vec<u8>,
    /// Support sizes to sweep, as fractions of the parent dimension
    /// (each in `(0, 1]`; rounded to at least one dimension).
    pub keep_fractions: Vec<f64>,
    /// Retraining epochs per pruned support
    /// ([`PrunedModel::recover`]).
    pub recover_epochs: usize,
    /// Worker threads for recovery retraining.
    pub n_threads: usize,
}

impl CompressOptions {
    /// Defaults: sweep 1/16 … 1 supports × {1, 2, 4, 8} bits with 5
    /// recovery epochs on one thread.
    pub fn new(target_accuracy: f64) -> Self {
        CompressOptions {
            target_accuracy,
            max_bytes: None,
            bit_widths: vec![1, 2, 4, 8],
            keep_fractions: vec![
                1.0 / 16.0,
                1.0 / 8.0,
                3.0 / 16.0,
                1.0 / 4.0,
                3.0 / 8.0,
                1.0 / 2.0,
                3.0 / 4.0,
                1.0,
            ],
            recover_epochs: 5,
            n_threads: 1,
        }
    }
}

/// One evaluated (support size, bit width) candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Dimensions kept.
    pub keep_dims: usize,
    /// Quantization bit width.
    pub bit_width: u8,
    /// Serialized GHDC v3 image size in bytes.
    pub bytes: usize,
    /// Held-out accuracy of the quantized pruned model.
    pub accuracy: f64,
}

/// The result of a [`pareto_search`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionOutcome {
    /// The chosen compressed model (smallest feasible image, or the
    /// most accurate candidate when nothing is feasible).
    pub chosen: CompressedModel,
    /// The chosen candidate's evaluation.
    pub chosen_point: ParetoPoint,
    /// Whether the chosen model meets the target accuracy (and byte
    /// ceiling, when set).
    pub meets_target: bool,
    /// Every evaluated candidate, in sweep order.
    pub points: Vec<ParetoPoint>,
    /// The non-dominated accuracy/size frontier, ascending by bytes.
    pub frontier: Vec<ParetoPoint>,
}

/// Sweeps support sizes × bit widths, recovering accuracy after each
/// prune on `train` and measuring candidates on `holdout`, and returns
/// the smallest image whose held-out accuracy reaches
/// `opts.target_accuracy` (and fits `opts.max_bytes`, when set). When
/// no candidate is feasible the most accurate one is returned with
/// [`CompressionOutcome::meets_target`] `false` — callers decide
/// whether best-effort is acceptable.
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] on empty sweeps, out-of-range
/// fractions or bit widths, or mismatched samples.
pub fn pareto_search(
    model: &HdcModel,
    train: &[IntHv],
    train_labels: &[usize],
    holdout: &[IntHv],
    holdout_labels: &[usize],
    opts: &CompressOptions,
) -> Result<CompressionOutcome, HdcError> {
    if opts.bit_widths.is_empty() || opts.keep_fractions.is_empty() {
        return Err(HdcError::invalid(
            "opts",
            "bit_widths and keep_fractions must be non-empty",
        ));
    }
    if let Some(&bad) = opts
        .keep_fractions
        .iter()
        .find(|f| !(f > &&0.0 && f <= &&1.0))
    {
        return Err(HdcError::invalid(
            "keep_fractions",
            format!("fraction {bad} outside (0, 1]"),
        ));
    }
    let sal = saliency(model, train, train_labels)?;

    // Distinct support sizes, descending so the identity support (when
    // swept) anchors the frontier's accurate end.
    let mut keeps: Vec<usize> = opts
        .keep_fractions
        .iter()
        .map(|f| ((f * model.dim() as f64).round() as usize).clamp(1, model.dim()))
        .collect();
    keeps.sort_unstable();
    keeps.dedup();
    keeps.reverse();

    let mut points = Vec::new();
    let mut candidates = Vec::new();
    for &keep in &keeps {
        let mut pruned = prune(model, &sal, keep)?;
        pruned.recover(train, train_labels, opts.recover_epochs, opts.n_threads)?;
        for &bw in &opts.bit_widths {
            let compressed = CompressedModel::from_pruned(&pruned, bw)?;
            let accuracy = compressed.accuracy(holdout, holdout_labels)?;
            let bytes = compressed.pack()?.bytes().len();
            points.push(ParetoPoint {
                keep_dims: keep,
                bit_width: bw,
                bytes,
                accuracy,
            });
            candidates.push(compressed);
        }
    }

    let feasible = |p: &ParetoPoint| {
        p.accuracy >= opts.target_accuracy && opts.max_bytes.is_none_or(|m| p.bytes <= m)
    };
    // Smallest feasible image; ties break toward higher accuracy, then
    // sweep order. Infeasible searches fall back to the most accurate
    // candidate (ties toward fewer bytes).
    let chosen_idx = points
        .iter()
        .enumerate()
        .filter(|(_, p)| feasible(p))
        .min_by(|(_, a), (_, b)| {
            a.bytes
                .cmp(&b.bytes)
                .then(b.accuracy.total_cmp(&a.accuracy))
        })
        .map(|(i, _)| i)
        .or_else(|| {
            points
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    b.accuracy
                        .total_cmp(&a.accuracy)
                        .then(a.bytes.cmp(&b.bytes))
                })
                .map(|(i, _)| i)
        })
        .ok_or(HdcError::EmptyInput)?;

    let chosen_point = points[chosen_idx];
    let meets_target = feasible(&chosen_point);

    // Non-dominated frontier: ascending bytes, strictly improving
    // accuracy.
    let mut by_size: Vec<ParetoPoint> = points.clone();
    by_size.sort_by(|a, b| {
        a.bytes
            .cmp(&b.bytes)
            .then(b.accuracy.total_cmp(&a.accuracy))
    });
    let mut frontier: Vec<ParetoPoint> = Vec::new();
    for p in by_size {
        if frontier.last().is_none_or(|f| p.accuracy > f.accuracy) {
            frontier.push(p);
        }
    }

    Ok(CompressionOutcome {
        chosen: candidates.swap_remove(chosen_idx),
        chosen_point,
        meets_target,
        points,
        frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryHv;

    /// Two well-separated classes over a 512-dim space where only the
    /// first half carries signal: the perfect pruning testbed.
    fn structured_model() -> (HdcModel, Vec<IntHv>, Vec<usize>) {
        let dim = 512;
        let proto0 = BinaryHv::random_seeded(dim, 70).unwrap();
        let proto1 = BinaryHv::random_seeded(dim, 71).unwrap();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            for (label, proto) in [(0usize, &proto0), (1usize, &proto1)] {
                let mut hv = proto.clone();
                // Noise lives in the back half; signal in the front.
                for k in 0..dim / 8 {
                    hv.flip_bit(dim / 2 + (k * 13 + i * 7) % (dim / 2));
                }
                encoded.push(IntHv::from(hv));
                labels.push(label);
            }
        }
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        (model, encoded, labels)
    }

    #[test]
    fn saliency_matches_scalar_reference_on_every_kernel_set() {
        let (model, encoded, labels) = structured_model();
        let reference = saliency_scalar(&model, &encoded, &labels).unwrap();
        for isa in kernels::available() {
            let ks = kernels::for_isa(isa).unwrap();
            let fast = saliency_with(&model, &encoded, &labels, ks).unwrap();
            assert_eq!(fast, reference, "isa {}", isa.name());
        }
    }

    #[test]
    fn saliency_validates_inputs() {
        let (model, encoded, labels) = structured_model();
        assert!(saliency(&model, &[], &[]).is_err());
        assert!(saliency(&model, &encoded, &labels[..1]).is_err());
        let wrong = vec![IntHv::zeros(64).unwrap()];
        assert!(saliency(&model, &wrong, &[0]).is_err());
        let bad_labels = vec![9; encoded.len()];
        assert!(saliency(&model, &encoded, &bad_labels).is_err());
    }

    #[test]
    fn ranked_order_is_monotone_and_deterministic() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let order = sal.ranked();
        assert_eq!(order.len(), model.dim());
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                sal.scores()[a] > sal.scores()[b] || (sal.scores()[a] == sal.scores()[b] && a < b),
                "ranking must be strictly monotone with index tie-break"
            );
        }
    }

    #[test]
    fn prune_keeps_the_most_salient_support() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let pruned = prune(&model, &sal, 128).unwrap();
        assert_eq!(pruned.dim(), 128);
        assert_eq!(pruned.parent_dim(), model.dim());
        assert!(pruned.support().windows(2).all(|w| w[0] < w[1]));
        // The signal half must dominate the kept support.
        let in_front = pruned.support().iter().filter(|&&d| d < 256).count();
        assert!(in_front > 96, "only {in_front}/128 kept dims carry signal");
        // Compacted classes are exact gathers of the parent classes.
        for (c, class) in pruned.model().iter().enumerate() {
            for (j, &d) in pruned.support().iter().enumerate() {
                assert_eq!(class.values()[j], model.class(c).values()[d]);
            }
        }
    }

    #[test]
    fn full_support_prune_is_the_identity() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let pruned = prune(&model, &sal, model.dim()).unwrap();
        assert_eq!(pruned.support(), (0..model.dim()).collect::<Vec<_>>());
        for (c, class) in pruned.model().iter().enumerate() {
            assert_eq!(class, model.class(c));
        }
    }

    #[test]
    fn degenerate_supports_are_typed_errors() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        assert!(prune(&model, &sal, 0).is_err());
        assert!(prune(&model, &sal, model.dim() + 1).is_err());
    }

    #[test]
    fn recovery_restores_accuracy_after_aggressive_pruning() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let mut pruned = prune(&model, &sal, 64).unwrap();
        pruned.recover(&encoded, &labels, 5, 2).unwrap();
        let acc = pruned.accuracy(&encoded, &labels).unwrap();
        assert!(acc >= 0.95, "recovered accuracy {acc}");
    }

    #[test]
    fn compressed_image_round_trips_through_the_mapped_view() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let mut pruned = prune(&model, &sal, 96).unwrap();
        pruned.recover(&encoded, &labels, 3, 1).unwrap();
        for bw in [1u8, 4, 8] {
            let compressed = CompressedModel::from_pruned(&pruned, bw).unwrap();
            let packed = compressed.pack().unwrap();
            let view = packed.view();
            assert!(view.is_pruned());
            assert_eq!(view.dim(), 96);
            assert_eq!(view.parent_dim(), model.dim());
            assert_eq!(view.to_quantized().unwrap(), *compressed.quantized());
        }
    }

    #[test]
    fn full_support_image_is_byte_identical_to_write_packed() {
        let (model, encoded, labels) = structured_model();
        let sal = saliency(&model, &encoded, &labels).unwrap();
        let pruned = prune(&model, &sal, model.dim()).unwrap();
        let compressed = CompressedModel::from_pruned(&pruned, 8).unwrap();
        let mut plain = Vec::new();
        io::write_packed(compressed.quantized(), &mut plain).unwrap();
        assert_eq!(compressed.pack().unwrap().bytes(), plain);
    }

    #[test]
    fn pareto_search_finds_a_small_accurate_model() {
        let (model, encoded, labels) = structured_model();
        let (train, holdout): (Vec<_>, Vec<_>) = (
            encoded.iter().step_by(2).cloned().collect(),
            encoded.iter().skip(1).step_by(2).cloned().collect(),
        );
        let (train_labels, holdout_labels): (Vec<_>, Vec<_>) = (
            labels.iter().step_by(2).copied().collect(),
            labels.iter().skip(1).step_by(2).copied().collect(),
        );
        let opts = CompressOptions::new(0.95);
        let outcome = pareto_search(
            &model,
            &train,
            &train_labels,
            &holdout,
            &holdout_labels,
            &opts,
        )
        .unwrap();
        assert!(outcome.meets_target);
        assert!(outcome.chosen_point.accuracy >= 0.95);
        // The baseline (full-dim 8-bit) image must dwarf the choice.
        let baseline = io::packed_bytes(&QuantizedModel::from_model(&model, 8).unwrap())
            .unwrap()
            .len();
        assert!(
            outcome.chosen_point.bytes * 2 <= baseline,
            "chosen {} vs baseline {baseline}",
            outcome.chosen_point.bytes
        );
        // Frontier is strictly improving in both axes.
        for pair in outcome.frontier.windows(2) {
            assert!(pair[0].bytes < pair[1].bytes);
            assert!(pair[0].accuracy < pair[1].accuracy);
        }
        // Determinism: a second search reproduces the same choice.
        let again = pareto_search(
            &model,
            &train,
            &train_labels,
            &holdout,
            &holdout_labels,
            &opts,
        )
        .unwrap();
        assert_eq!(again.chosen_point, outcome.chosen_point);
        assert_eq!(
            again.chosen.pack().unwrap().bytes().len(),
            outcome.chosen_point.bytes
        );
    }

    #[test]
    fn pareto_search_validates_options() {
        let (model, encoded, labels) = structured_model();
        let mut opts = CompressOptions::new(0.9);
        opts.bit_widths.clear();
        assert!(pareto_search(&model, &encoded, &labels, &encoded, &labels, &opts).is_err());
        let mut opts = CompressOptions::new(0.9);
        opts.keep_fractions = vec![1.5];
        assert!(pareto_search(&model, &encoded, &labels, &encoded, &labels, &opts).is_err());
    }
}
