//! HDC classification model: training, retraining, and inference.
//!
//! This module is part of the panic-free serving surface: apart from the
//! documented contract `assert!`s on the scoring fast paths, no code path
//! reachable from a public API may `unwrap`/`expect` — fallible
//! operations return typed [`HdcError`]s instead.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::kernels::{self, KernelSet};
use crate::{HdcError, IntHv, SUB_NORM_CHUNK};

/// Queries scored together per [`ScoreBatch`] tile: small enough that a
/// tile of query chunks plus one class chunk stays L1-resident, large
/// enough that each class chunk loaded from cache is reused eight times.
const SCORE_TILE: usize = 8;

/// Serial retraining falls back to the scalar scoring kernel when a
/// sample's score work (`dims × classes`) is below this — too little to
/// amortize the blocked path's chunk bookkeeping (the two paths are
/// bit-identical, so the choice is invisible in results).
const RETRAIN_BLOCKED_MIN_WORK: usize = 4 * SUB_NORM_CHUNK;

/// Minimum samples per worker thread for the parallel retraining gather:
/// below this, thread spawn and join overhead outweighs the scoring work,
/// so the effective thread count is clamped down.
const RETRAIN_MIN_SAMPLES_PER_THREAD: usize = 16;

/// Which class-vector L2 norms inference uses when running with reduced
/// dimensions (§4.3.3, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormMode {
    /// Norms recomputed over exactly the dimensions in use, assembled from
    /// the per-128-dimension sub-norms the accelerator stores in its norm2
    /// memory. This is the paper's fix for dimension reduction.
    #[default]
    Updated,
    /// The full-model norms regardless of how many dimensions are used —
    /// the naive scheme Fig. 5 shows losing up to 20.1 % accuracy.
    Constant,
}

/// Options for [`HdcModel::predict_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictOptions {
    /// Number of leading dimensions to use (on-demand dimension reduction).
    pub dims: usize,
    /// Norm handling under dimension reduction.
    pub norm: NormMode,
}

impl PredictOptions {
    /// Full-dimensional prediction with updated norms.
    pub fn full(dim: usize) -> Self {
        PredictOptions {
            dims: dim,
            norm: NormMode::Updated,
        }
    }

    /// Reduced-dimension prediction.
    pub fn reduced(dims: usize, norm: NormMode) -> Self {
        PredictOptions { dims, norm }
    }
}

/// A trained (or in-training) HDC classification model: one integer class
/// hypervector per category plus the squared-norm bookkeeping the
/// similarity metric needs.
///
/// ```
/// use generic_hdc::{BinaryHv, HdcModel, IntHv};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let class_a = IntHv::from(BinaryHv::random_seeded(512, 1)?);
/// let class_b = IntHv::from(BinaryHv::random_seeded(512, 2)?);
/// let model = HdcModel::fit(&[class_a.clone(), class_b], &[0, 1], 2)?;
/// assert_eq!(model.predict(&class_a), 0);
/// # Ok(())
/// # }
/// ```
///
/// Similarity is cosine; since the query norm is constant across classes,
/// the model ranks classes by `(H·C_i) / ‖C_i‖` (§4.2.1 drops `‖H‖` and
/// works with `(H·C_i)² / ‖C_i‖²` in hardware — sign-preserving here).
#[derive(Debug, Clone, PartialEq)]
pub struct HdcModel {
    dim: usize,
    classes: Vec<IntHv>,
    /// Per class: squared L2 norm of each 128-dim chunk (norm2 memory).
    sub_norms2: Vec<Vec<f64>>,
    /// Per class: running (left-to-right) prefix sums of `sub_norms2`, so
    /// `norm2_prefix[c][k]` is the squared norm of the first `k` chunks.
    /// Length `n_chunks + 1`; the last entry is the full squared norm.
    norm2_prefix: Vec<Vec<f64>>,
    /// Per class: `sqrt` of the full squared norm, shared by every
    /// [`NormMode::Constant`] score instead of re-rooting per query.
    full_norms: Vec<f64>,
}

impl HdcModel {
    /// Creates an empty model with all-zero class hypervectors.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim == 0` or `n_classes == 0`.
    pub fn new(dim: usize, n_classes: usize) -> Result<Self, HdcError> {
        if n_classes == 0 {
            return Err(HdcError::invalid("n_classes", "must be positive"));
        }
        let classes = (0..n_classes)
            .map(|_| IntHv::zeros(dim))
            .collect::<Result<Vec<_>, _>>()?;
        let n_chunks = dim.div_ceil(SUB_NORM_CHUNK);
        Ok(HdcModel {
            dim,
            classes,
            sub_norms2: vec![vec![0.0; n_chunks]; n_classes],
            norm2_prefix: vec![vec![0.0; n_chunks + 1]; n_classes],
            full_norms: vec![0.0; n_classes],
        })
    }

    /// Single-pass training (model initialization, Fig. 1a): bundles each
    /// encoded sample into its class hypervector.
    ///
    /// # Errors
    ///
    /// Returns an error for empty input, mismatched `encoded`/`labels`
    /// lengths, out-of-range labels, or dimension mismatches.
    pub fn fit(encoded: &[IntHv], labels: &[usize], n_classes: usize) -> Result<Self, HdcError> {
        if encoded.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        if encoded.len() != labels.len() {
            return Err(HdcError::invalid(
                "labels",
                format!(
                    "got {} labels for {} encoded samples",
                    labels.len(),
                    encoded.len()
                ),
            ));
        }
        let mut model = HdcModel::new(encoded[0].dim(), n_classes)?;
        for (hv, &label) in encoded.iter().zip(labels) {
            model.bundle(hv, label)?;
        }
        Ok(model)
    }

    /// Builds a model directly from per-class accumulator hypervectors
    /// (e.g. class rows read back from an accelerator).
    ///
    /// # Errors
    ///
    /// Returns an error if `classes` is empty or dimensionalities differ.
    pub fn from_class_vectors(classes: Vec<IntHv>) -> Result<Self, HdcError> {
        if classes.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        let dim = classes[0].dim();
        if let Some(bad) = classes.iter().find(|c| c.dim() != dim) {
            return Err(HdcError::DimensionMismatch {
                expected: dim,
                actual: bad.dim(),
            });
        }
        let mut model = HdcModel::new(dim, classes.len())?;
        for (label, class) in classes.into_iter().enumerate() {
            model.classes[label] = class;
            model.refresh_class_norms(label);
        }
        Ok(model)
    }

    /// Adds one encoded sample to class `label`.
    ///
    /// # Errors
    ///
    /// Returns an error on an out-of-range label or dimension mismatch.
    pub fn bundle(&mut self, encoded: &IntHv, label: usize) -> Result<(), HdcError> {
        self.check_label(label)?;
        self.classes[label].add_assign(encoded)?;
        self.refresh_class_norms(label);
        Ok(())
    }

    /// One retraining epoch (Fig. 1c): every mispredicted sample is
    /// subtracted from the wrong class and added to the correct one.
    /// Returns the number of mispredictions in this epoch.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched inputs, bad labels, or dimension
    /// mismatches.
    pub fn retrain_epoch(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
    ) -> Result<usize, HdcError> {
        if encoded.len() != labels.len() {
            return Err(HdcError::invalid(
                "labels",
                format!(
                    "got {} labels for {} encoded samples",
                    labels.len(),
                    encoded.len()
                ),
            ));
        }
        let opts = PredictOptions::full(self.dim);
        let k = self.classes.len();
        let kernels = kernels::active();
        // One scratch pair for the whole epoch: no per-sample allocation.
        let mut dots = vec![0i64; k];
        let mut scores: Vec<f64> = Vec::with_capacity(k);
        let mut errors = 0;
        for (hv, &label) in encoded.iter().zip(labels) {
            self.check_label(label)?;
            if hv.dim() != self.dim {
                return Err(HdcError::DimensionMismatch {
                    expected: self.dim,
                    actual: hv.dim(),
                });
            }
            dots.iter_mut().for_each(|d| *d = 0);
            self.accumulate_dots(hv, opts, kernels, &mut dots);
            scores.clear();
            for (c, &dot) in dots.iter().enumerate() {
                scores.push(self.normalize_score(dot, c, opts));
            }
            let predicted = argmax(&scores);
            if predicted != label {
                errors += 1;
                self.classes[predicted].sub_assign(hv)?;
                self.classes[label].add_assign(hv)?;
                self.refresh_class_norms(predicted);
                self.refresh_class_norms(label);
            }
        }
        Ok(errors)
    }

    /// Single-sample online update (streaming edge learning): predicts the
    /// encoded sample and, on a mistake, applies the retraining correction
    /// (subtract from the wrong class, add to the right one). Returns
    /// whether the prediction was already correct.
    ///
    /// # Errors
    ///
    /// Returns an error on an out-of-range label or dimension mismatch.
    pub fn update(&mut self, encoded: &IntHv, label: usize) -> Result<bool, HdcError> {
        self.check_label(label)?;
        if encoded.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: encoded.dim(),
            });
        }
        let predicted = self.predict(encoded);
        if predicted == label {
            return Ok(true);
        }
        self.classes[predicted].sub_assign(encoded)?;
        self.classes[label].add_assign(encoded)?;
        self.refresh_class_norms(predicted);
        self.refresh_class_norms(label);
        Ok(false)
    }

    /// Runs up to `epochs` retraining epochs, stopping early once an epoch
    /// makes no mistakes. Returns the per-epoch error counts.
    ///
    /// # Errors
    ///
    /// Returns an error if `encoded`/`labels` disagree with the model
    /// (lengths, labels, or dimensions).
    pub fn retrain(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
        epochs: usize,
    ) -> Result<Vec<usize>, HdcError> {
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let errors = self.retrain_epoch(encoded, labels)?;
            let done = errors == 0;
            history.push(errors);
            if done {
                break;
            }
        }
        Ok(history)
    }

    /// One retraining epoch through the retained scalar scoring kernel
    /// ([`scores_scalar`](HdcModel::scores_scalar)): the same
    /// mispredict-driven updates as [`retrain_epoch`](HdcModel::retrain_epoch)
    /// — and the same resulting model, since the blocked and scalar scores
    /// are bit-identical — but walking every class one dimension at a
    /// time. Kept as the perf-regression baseline of the `hotpaths`
    /// harness; hot paths must use [`retrain_epoch`](HdcModel::retrain_epoch)
    /// or [`retrain_epoch_parallel`](HdcModel::retrain_epoch_parallel).
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched inputs, bad labels, or dimension
    /// mismatches.
    pub fn retrain_epoch_scalar(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
    ) -> Result<usize, HdcError> {
        if encoded.len() != labels.len() {
            return Err(HdcError::invalid(
                "labels",
                format!(
                    "got {} labels for {} encoded samples",
                    labels.len(),
                    encoded.len()
                ),
            ));
        }
        let opts = PredictOptions::full(self.dim);
        let mut errors = 0;
        for (hv, &label) in encoded.iter().zip(labels) {
            self.check_label(label)?;
            if hv.dim() != self.dim {
                return Err(HdcError::DimensionMismatch {
                    expected: self.dim,
                    actual: hv.dim(),
                });
            }
            let predicted = argmax(&self.scores_scalar(hv, opts));
            if predicted != label {
                errors += 1;
                self.classes[predicted].sub_assign(hv)?;
                self.classes[label].add_assign(hv)?;
                self.refresh_class_norms(predicted);
                self.refresh_class_norms(label);
            }
        }
        Ok(errors)
    }

    /// Runs up to `epochs` scalar-kernel retraining epochs
    /// ([`retrain_epoch_scalar`](HdcModel::retrain_epoch_scalar)) with
    /// early stopping, mirroring [`retrain`](HdcModel::retrain) — the
    /// retained end-to-end scalar baseline.
    ///
    /// # Errors
    ///
    /// Returns an error if `encoded`/`labels` disagree with the model
    /// (lengths, labels, or dimensions).
    pub fn retrain_scalar(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
        epochs: usize,
    ) -> Result<Vec<usize>, HdcError> {
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let errors = self.retrain_epoch_scalar(encoded, labels)?;
            let done = errors == 0;
            history.push(errors);
            if done {
                break;
            }
        }
        Ok(history)
    }

    /// One retraining epoch with the prediction work fanned out over
    /// `n_threads` scoped worker threads, **bit-identical** to
    /// [`retrain_epoch`](HdcModel::retrain_epoch).
    ///
    /// Samples are processed in chunks: each chunk's score vectors are
    /// gathered in parallel against the chunk-entry model, then the
    /// mispredict-update sweep runs serially in sample order. An update
    /// only moves two class vectors, so a later sample's gathered scores
    /// stay valid except for the *dirty* classes, whose scores are
    /// recomputed on the spot with the same kernel — the serial semantics
    /// (every sample scored against the model after all previous updates)
    /// are preserved exactly.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched inputs, bad labels, or dimension
    /// mismatches.
    pub fn retrain_epoch_parallel(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
        n_threads: usize,
    ) -> Result<usize, HdcError> {
        // Adaptive thread clamp: below ~16 samples per worker the scoped
        // spawn/join overhead exceeds the gathered scoring work.
        let n_threads = n_threads
            .max(1)
            .min((encoded.len() / RETRAIN_MIN_SAMPLES_PER_THREAD).max(1));
        if n_threads == 1 {
            // Serial fallback: pick the scoring kernel by per-sample work.
            // Both paths produce bit-identical models, so the adaptive
            // choice only affects throughput, never results.
            return if self.dim * self.classes.len() < RETRAIN_BLOCKED_MIN_WORK {
                self.retrain_epoch_scalar(encoded, labels)
            } else {
                self.retrain_epoch(encoded, labels)
            };
        }
        if encoded.len() != labels.len() {
            return Err(HdcError::invalid(
                "labels",
                format!(
                    "got {} labels for {} encoded samples",
                    labels.len(),
                    encoded.len()
                ),
            ));
        }
        for &label in labels {
            self.check_label(label)?;
        }
        if let Some(bad) = encoded.iter().find(|hv| hv.dim() != self.dim) {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: bad.dim(),
            });
        }

        let opts = PredictOptions::full(self.dim);
        let k = self.classes.len();
        // Large enough chunks to amortize thread spawn, small enough that
        // dirty-class rescoring stays cheap in error-heavy early epochs.
        let chunk_len = (n_threads * 32).max(64);
        let mut errors = 0;
        let mut dirty = vec![false; k];
        for (chunk, chunk_labels) in encoded.chunks(chunk_len).zip(labels.chunks(chunk_len)) {
            // Parallel gather: score vectors against the chunk-entry model.
            let model = &*self;
            let part_len = chunk.len().div_ceil(n_threads);
            let mut gathered: Vec<Vec<f64>> = Vec::with_capacity(chunk.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunk
                    .chunks(part_len)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut out = Vec::with_capacity(part.len());
                            let mut scores = Vec::with_capacity(k);
                            for hv in part {
                                model.score_all(hv, opts, &mut scores);
                                out.push(scores.clone());
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok(part) => gathered.extend(part),
                        // A worker only panics if the process is already
                        // unwinding from a bug; propagate, don't mask.
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });

            // Serial sweep in sample order, patching dirty-class scores.
            dirty.iter_mut().for_each(|d| *d = false);
            let mut any_dirty = false;
            for ((hv, &label), scores) in chunk.iter().zip(chunk_labels).zip(&mut gathered) {
                if any_dirty {
                    for (c, scr) in scores.iter_mut().enumerate() {
                        if dirty[c] {
                            let dot = hv.dot_prefix(&self.classes[c], opts.dims)?;
                            *scr = self.normalize_score(dot, c, opts);
                        }
                    }
                }
                let predicted = argmax(scores);
                if predicted != label {
                    errors += 1;
                    self.classes[predicted].sub_assign(hv)?;
                    self.classes[label].add_assign(hv)?;
                    self.refresh_class_norms(predicted);
                    self.refresh_class_norms(label);
                    dirty[predicted] = true;
                    dirty[label] = true;
                    any_dirty = true;
                }
            }
        }
        Ok(errors)
    }

    /// Runs up to `epochs` parallel retraining epochs
    /// ([`retrain_epoch_parallel`](HdcModel::retrain_epoch_parallel)) with
    /// early stopping, mirroring [`retrain`](HdcModel::retrain) — same
    /// per-epoch error counts, same final model, for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if `encoded`/`labels` disagree with the model
    /// (lengths, labels, or dimensions).
    pub fn retrain_parallel(
        &mut self,
        encoded: &[IntHv],
        labels: &[usize],
        epochs: usize,
        n_threads: usize,
    ) -> Result<Vec<usize>, HdcError> {
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let errors = self.retrain_epoch_parallel(encoded, labels, n_threads)?;
            let done = errors == 0;
            history.push(errors);
            if done {
                break;
            }
        }
        Ok(history)
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class hypervector for `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn class(&self, label: usize) -> &IntHv {
        &self.classes[label]
    }

    /// Iterator over class hypervectors in label order.
    pub fn iter(&self) -> std::slice::Iter<'_, IntHv> {
        self.classes.iter()
    }

    /// The stored per-chunk squared norms for class `label` (what the
    /// accelerator's norm2 memory holds).
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn sub_norms2(&self, label: usize) -> &[f64] {
        &self.sub_norms2[label]
    }

    /// Similarity scores against every class using the full dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()`.
    pub fn scores(&self, query: &IntHv) -> Vec<f64> {
        self.scores_with(query, PredictOptions::full(self.dim))
    }

    /// Similarity scores with explicit dimension-reduction options.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `opts.dims > self.dim()` or
    /// `opts.dims == 0`.
    pub fn scores_with(&self, query: &IntHv, opts: PredictOptions) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_all(query, opts, &mut out);
        out
    }

    /// Scores a query against **all** classes in one cache-blocked pass,
    /// writing into a reusable buffer.
    ///
    /// The query is walked in [`SUB_NORM_CHUNK`]-dimension blocks; each
    /// block is held hot while every class row streams through it once, so
    /// the per-query working set stays in L1 regardless of the class count.
    /// Dot products are exact `i64` sums and the norm lookups come from the
    /// per-model prefix tables, so the scores are bit-identical to the
    /// retained scalar reference
    /// ([`scores_scalar`](HdcModel::scores_scalar)).
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `opts.dims > self.dim()` or
    /// `opts.dims == 0`.
    pub fn score_all(&self, query: &IntHv, opts: PredictOptions, out: &mut Vec<f64>) {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        assert!(
            opts.dims > 0 && opts.dims <= self.dim,
            "dims {} out of range (1..={})",
            opts.dims,
            self.dim
        );
        let k = self.classes.len();
        let mut dots = vec![0i64; k];
        self.accumulate_dots(query, opts, kernels::active(), &mut dots);
        out.clear();
        out.reserve(k);
        for (c, &dot) in dots.iter().enumerate() {
            out.push(self.normalize_score(dot, c, opts));
        }
    }

    /// Adds every class's exact `i64` dot product with `query` (over the
    /// leading `opts.dims` dimensions) into `dots`, walking the query in
    /// [`SUB_NORM_CHUNK`] blocks and dispatching each block through the
    /// given SIMD kernel set. Integer sums are associative, so every
    /// kernel — and every chunk traversal order — produces bit-identical
    /// dots.
    fn accumulate_dots(
        &self,
        query: &IntHv,
        opts: PredictOptions,
        kernels: &KernelSet,
        dots: &mut [i64],
    ) {
        let q = &query.values()[..opts.dims];
        for start in (0..opts.dims).step_by(SUB_NORM_CHUNK) {
            let end = (start + SUB_NORM_CHUNK).min(opts.dims);
            let qb = &q[start..end];
            for (dot, class) in dots.iter_mut().zip(&self.classes) {
                *dot += kernels.dot_i32(qb, &class.values()[start..end]);
            }
        }
    }

    /// Divides a class dot product by the class norm the options select,
    /// using the precomputed norm tables.
    fn normalize_score(&self, dot: i64, c: usize, opts: PredictOptions) -> f64 {
        match opts.norm {
            NormMode::Constant => {
                let norm = self.full_norms[c];
                if norm == 0.0 {
                    0.0
                } else {
                    dot as f64 / norm
                }
            }
            NormMode::Updated => {
                let full_chunks = opts.dims / SUB_NORM_CHUNK;
                let mut n2 = self.norm2_prefix[c][full_chunks];
                // Partial trailing chunk: fall back to exact values.
                let rem_start = full_chunks * SUB_NORM_CHUNK;
                if rem_start < opts.dims {
                    n2 += self.classes[c].values()[rem_start..opts.dims]
                        .iter()
                        .map(|&v| f64::from(v) * f64::from(v))
                        .sum::<f64>();
                }
                if n2 == 0.0 {
                    0.0
                } else {
                    dot as f64 / n2.sqrt()
                }
            }
        }
    }

    /// The retained scalar reference implementation of
    /// [`scores_with`](HdcModel::scores_with): one class at a time,
    /// re-summing the sub-norm chunks per query. Kept for the
    /// kernel-equivalence property tests and the `hotpaths` baseline; hot
    /// paths must use [`score_all`](HdcModel::score_all).
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()` or `opts.dims > self.dim()` or
    /// `opts.dims == 0`.
    pub fn scores_scalar(&self, query: &IntHv, opts: PredictOptions) -> Vec<f64> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        assert!(
            opts.dims > 0 && opts.dims <= self.dim,
            "dims {} out of range (1..={})",
            opts.dims,
            self.dim
        );
        self.classes
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let dot = match query.dot_prefix(class, opts.dims) {
                    Ok(d) => d as f64,
                    Err(_) => unreachable!("dims validated by the asserts above"),
                };
                let norm2 = match opts.norm {
                    NormMode::Constant => self.sub_norms2[c].iter().sum::<f64>(),
                    NormMode::Updated => {
                        let full_chunks = opts.dims / SUB_NORM_CHUNK;
                        let mut n2: f64 = self.sub_norms2[c][..full_chunks].iter().sum();
                        // Partial trailing chunk: fall back to exact values.
                        let rem_start = full_chunks * SUB_NORM_CHUNK;
                        if rem_start < opts.dims {
                            n2 += class.values()[rem_start..opts.dims]
                                .iter()
                                .map(|&v| f64::from(v) * f64::from(v))
                                .sum::<f64>();
                        }
                        n2
                    }
                };
                if norm2 == 0.0 {
                    0.0
                } else {
                    dot / norm2.sqrt()
                }
            })
            .collect()
    }

    /// Predicts the class of an encoded query (highest similarity score).
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != self.dim()`.
    pub fn predict(&self, query: &IntHv) -> usize {
        self.predict_with(query, PredictOptions::full(self.dim))
    }

    /// Predicts with explicit dimension-reduction options.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality or `opts.dims` is inconsistent
    /// with the model.
    pub fn predict_with(&self, query: &IntHv, opts: PredictOptions) -> usize {
        let scores = self.scores_with(query, opts);
        argmax(&scores)
    }

    /// Non-panicking [`predict_with`](HdcModel::predict_with): the
    /// serving-surface entry point, validating the query dimensionality
    /// and `opts.dims` instead of asserting on them.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the query width
    /// disagrees with the model and [`HdcError::InvalidParameter`] when
    /// `opts.dims` is zero or exceeds the model dimensionality.
    pub fn try_predict_with(&self, query: &IntHv, opts: PredictOptions) -> Result<usize, HdcError> {
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: query.dim(),
            });
        }
        if opts.dims == 0 || opts.dims > self.dim {
            return Err(HdcError::invalid(
                "dims",
                format!("{} out of range (1..={})", opts.dims, self.dim),
            ));
        }
        Ok(self.predict_with(query, opts))
    }

    /// Predicts every query in one cache-blocked pass through a throwaway
    /// [`ScoreBatch`] engine. Callers on a steady-state serving path
    /// should hold their own [`ScoreBatch`] and use
    /// [`ScoreBatch::predict_into`] to avoid the per-call scratch
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if any query dimensionality or `opts.dims` is inconsistent
    /// with the model.
    pub fn predict_batch(&self, queries: &[IntHv], opts: PredictOptions) -> Vec<usize> {
        let mut batch = ScoreBatch::new();
        let mut out = Vec::with_capacity(queries.len());
        batch.predict_into(self, queries, opts, &mut out);
        out
    }

    /// Fraction of `encoded` samples predicted as their `labels`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or dimensions.
    pub fn accuracy(&self, encoded: &[IntHv], labels: &[usize]) -> f64 {
        self.accuracy_with(encoded, labels, PredictOptions::full(self.dim))
    }

    /// Accuracy with explicit dimension-reduction options.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or dimensions.
    pub fn accuracy_with(&self, encoded: &[IntHv], labels: &[usize], opts: PredictOptions) -> f64 {
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
            .filter(|&(hv, &label)| self.predict_with(hv, opts) == label)
            .count();
        correct as f64 / encoded.len() as f64
    }

    fn refresh_class_norms(&mut self, label: usize) {
        let values = self.classes[label].values();
        for (ci, chunk) in values.chunks(SUB_NORM_CHUNK).enumerate() {
            self.sub_norms2[label][ci] = chunk.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        }
        // Rebuild the prefix table with the same left-to-right fold the
        // scalar reference uses, so cached lookups are bit-identical.
        let mut running = 0.0f64;
        self.norm2_prefix[label][0] = 0.0;
        for (ci, &chunk2) in self.sub_norms2[label].iter().enumerate() {
            running += chunk2;
            self.norm2_prefix[label][ci + 1] = running;
        }
        self.full_norms[label] = if running == 0.0 { 0.0 } else { running.sqrt() };
    }

    fn check_label(&self, label: usize) -> Result<(), HdcError> {
        if label >= self.classes.len() {
            return Err(HdcError::LabelOutOfRange {
                label,
                n_classes: self.classes.len(),
            });
        }
        Ok(())
    }
}

/// Index of the maximum score with [`Iterator::max_by`] tie semantics
/// (the last maximal element wins), shared by every prediction path so
/// serial and parallel retraining agree bit-for-bit. Panic-free: NaN
/// scores are never selected (all comparisons against them are false)
/// and an empty slice — impossible for a constructed model, which always
/// has at least one class — maps to index 0.
pub(crate) fn argmax(scores: &[f64]) -> usize {
    let mut best = f64::NEG_INFINITY;
    let mut idx = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s >= best {
            best = s;
            idx = i;
        }
    }
    idx
}

/// Batched inference engine: scores B queries × C classes in cache-blocked
/// tiles with a reusable scratch arena.
///
/// Queries are processed [`SCORE_TILE`] at a time; within a tile the walk
/// is dimension-chunk-major so each class chunk loaded from cache is
/// reused across every query in the tile, and each chunk's dot product is
/// dispatched through the SIMD [`kernels`] layer. Dot products are exact
/// `i64` sums and normalization reuses the model's prefix-norm tables, so
/// batched scores are **bit-identical** to per-query
/// [`HdcModel::score_all`] and to the retained scalar reference
/// [`HdcModel::scores_scalar`].
///
/// The engine owns its dot-accumulator scratch and the output APIs write
/// into caller-provided buffers, so a warmed-up engine performs **zero
/// heap allocations** on the steady-state path (pinned by the
/// `alloc_regression` test and the `throughput` bench gate).
///
/// ```
/// use generic_hdc::{BinaryHv, HdcModel, IntHv, PredictOptions, ScoreBatch};
///
/// # fn main() -> Result<(), generic_hdc::HdcError> {
/// let class_a = IntHv::from(BinaryHv::random_seeded(512, 1)?);
/// let class_b = IntHv::from(BinaryHv::random_seeded(512, 2)?);
/// let queries = vec![class_a.clone(), class_b.clone()];
/// let model = HdcModel::fit(&[class_a, class_b], &[0, 1], 2)?;
///
/// let mut engine = ScoreBatch::new();
/// let mut labels = Vec::new();
/// engine.predict_into(&model, &queries, PredictOptions::full(512), &mut labels);
/// assert_eq!(labels, [0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScoreBatch {
    /// Kernel set every chunk dot dispatches through (not part of the
    /// value — all sets are bit-identical).
    kernels: &'static KernelSet,
    /// Scratch: row-major tile-query × class dot accumulators.
    dots: Vec<i64>,
}

impl Default for ScoreBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreBatch {
    /// Creates an engine dispatching through the fastest kernel set the
    /// host supports (see [`kernels::active`]).
    pub fn new() -> Self {
        Self::with_kernels(kernels::active())
    }

    /// Creates an engine pinned to a specific kernel set (used by the
    /// conformance harness to sweep every detected ISA).
    pub(crate) fn with_kernels(kernels: &'static KernelSet) -> Self {
        ScoreBatch {
            kernels,
            dots: Vec::new(),
        }
    }

    /// The ISA this engine's kernels run on.
    pub fn isa(&self) -> kernels::Isa {
        self.kernels.isa()
    }

    /// Scores every query against every class, appending the row-major
    /// `queries.len() × model.n_classes()` score matrix to `out`
    /// (`out` is cleared first). Bit-identical to calling
    /// [`HdcModel::score_all`] per query.
    ///
    /// # Panics
    ///
    /// Panics if any query dimensionality or `opts.dims` is inconsistent
    /// with the model.
    pub fn scores_into(
        &mut self,
        model: &HdcModel,
        queries: &[IntHv],
        opts: PredictOptions,
        out: &mut Vec<f64>,
    ) {
        let k = model.classes.len();
        out.clear();
        out.reserve(queries.len() * k);
        self.for_each_tile(model, queries, opts, |model, dots, _tile| {
            for row in dots.chunks_exact(k) {
                for (c, &dot) in row.iter().enumerate() {
                    out.push(model.normalize_score(dot, c, opts));
                }
            }
        });
    }

    /// Predicts every query, appending one label per query to `out`
    /// (`out` is cleared first). Ties resolve exactly as
    /// [`HdcModel::predict`]: the last maximal score wins.
    ///
    /// # Panics
    ///
    /// Panics if any query dimensionality or `opts.dims` is inconsistent
    /// with the model.
    pub fn predict_into(
        &mut self,
        model: &HdcModel,
        queries: &[IntHv],
        opts: PredictOptions,
        out: &mut Vec<usize>,
    ) {
        let k = model.classes.len();
        out.clear();
        out.reserve(queries.len());
        self.for_each_tile(model, queries, opts, |model, dots, _tile| {
            for row in dots.chunks_exact(k) {
                // Inline argmax over normalized scores with the shared
                // last-max-wins tie rule, without materializing the row.
                let mut best = f64::NEG_INFINITY;
                let mut idx = 0;
                for (c, &dot) in row.iter().enumerate() {
                    let s = model.normalize_score(dot, c, opts);
                    if s >= best {
                        best = s;
                        idx = c;
                    }
                }
                out.push(idx);
            }
        });
    }

    /// Validates inputs, then gathers each [`SCORE_TILE`]-query tile's dot
    /// products into the scratch arena and hands the row-major
    /// `tile.len() × n_classes` slice to `emit`.
    fn for_each_tile(
        &mut self,
        model: &HdcModel,
        queries: &[IntHv],
        opts: PredictOptions,
        mut emit: impl FnMut(&HdcModel, &[i64], &[IntHv]),
    ) {
        assert!(
            opts.dims > 0 && opts.dims <= model.dim,
            "dims {} out of range (1..={})",
            opts.dims,
            model.dim
        );
        for query in queries {
            assert_eq!(query.dim(), model.dim, "query dimension mismatch");
        }
        let k = model.classes.len();
        if self.dots.len() < SCORE_TILE * k {
            self.dots.resize(SCORE_TILE * k, 0);
        }
        for tile in queries.chunks(SCORE_TILE) {
            let dots = &mut self.dots[..tile.len() * k];
            dots.iter_mut().for_each(|d| *d = 0);
            // Chunk-major over the tile: one class chunk is reused by
            // every query in the tile before the walk moves on.
            for start in (0..opts.dims).step_by(SUB_NORM_CHUNK) {
                let end = (start + SUB_NORM_CHUNK).min(opts.dims);
                for (c, class) in model.classes.iter().enumerate() {
                    let cb = &class.values()[start..end];
                    for (qi, query) in tile.iter().enumerate() {
                        let qb = &query.values()[start..end];
                        dots[qi * k + c] += self.kernels.dot_i32(qb, cb);
                    }
                }
            }
            emit(model, dots, tile);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::BinaryHv;

    /// Builds encoded samples from two well-separated prototypes.
    fn two_class_data(dim: usize, per_class: usize) -> (Vec<IntHv>, Vec<usize>) {
        let proto0 = BinaryHv::random_seeded(dim, 100).unwrap();
        let proto1 = BinaryHv::random_seeded(dim, 200).unwrap();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..per_class {
            for (label, proto) in [(0usize, &proto0), (1usize, &proto1)] {
                // Corrupt ~10% of bits deterministically.
                let mut hv = proto.clone();
                for k in 0..dim / 10 {
                    hv.flip_bit((k * 7 + i * 13 + label * 29) % dim);
                }
                encoded.push(IntHv::from(hv));
                labels.push(label);
            }
        }
        (encoded, labels)
    }

    #[test]
    fn fit_then_predict_separable() {
        let (encoded, labels) = two_class_data(2048, 10);
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        assert_eq!(model.accuracy(&encoded, &labels), 1.0);
    }

    #[test]
    fn retrain_reduces_errors() {
        let (encoded, labels) = two_class_data(1024, 20);
        let mut model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let history = model.retrain(&encoded, &labels, 10).unwrap();
        if history.len() > 1 {
            assert!(history.last().unwrap() <= history.first().unwrap());
        }
        assert!(model.accuracy(&encoded, &labels) >= 0.95);
    }

    #[test]
    fn retrain_stops_early_when_clean() {
        let (encoded, labels) = two_class_data(2048, 5);
        let mut model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let history = model.retrain(&encoded, &labels, 50).unwrap();
        assert!(history.len() < 50, "should converge: {history:?}");
        assert_eq!(*history.last().unwrap(), 0);
    }

    #[test]
    fn bundle_updates_norms() {
        let mut model = HdcModel::new(256, 2).unwrap();
        let hv = IntHv::from(BinaryHv::random_seeded(256, 1).unwrap());
        model.bundle(&hv, 0).unwrap();
        let total: f64 = model.sub_norms2(0).iter().sum();
        assert_eq!(total, hv.norm2());
        assert_eq!(model.sub_norms2(1).iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let mut model = HdcModel::new(128, 2).unwrap();
        let hv = IntHv::zeros(128).unwrap();
        assert!(matches!(
            model.bundle(&hv, 2),
            Err(HdcError::LabelOutOfRange {
                label: 2,
                n_classes: 2
            })
        ));
    }

    #[test]
    fn reduced_dims_with_updated_norms_still_classifies() {
        let (encoded, labels) = two_class_data(2048, 10);
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let acc = model.accuracy_with(
            &encoded,
            &labels,
            PredictOptions::reduced(512, NormMode::Updated),
        );
        assert!(acc >= 0.9, "acc = {acc}");
    }

    #[test]
    fn sub_norm_sum_equals_full_norm() {
        let (encoded, labels) = two_class_data(1024, 4);
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        for c in 0..2 {
            let stored: f64 = model.sub_norms2(c).iter().sum();
            assert!((stored - model.class(c).norm2()).abs() < 1e-9);
        }
    }

    #[test]
    fn updated_and_constant_norms_agree_at_full_dim() {
        let (encoded, labels) = two_class_data(512, 4);
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let q = &encoded[0];
        let a = model.scores_with(q, PredictOptions::reduced(512, NormMode::Updated));
        let b = model.scores_with(q, PredictOptions::reduced(512, NormMode::Constant));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_validates_input() {
        assert!(matches!(
            HdcModel::fit(&[], &[], 2),
            Err(HdcError::EmptyInput)
        ));
        let hv = IntHv::zeros(64).unwrap();
        assert!(HdcModel::fit(std::slice::from_ref(&hv), &[0, 1], 2).is_err());
        assert!(HdcModel::fit(&[hv], &[5], 2).is_err());
    }

    #[test]
    fn online_update_corrects_mistakes() {
        let (encoded, labels) = two_class_data(1024, 8);
        let mut model = HdcModel::new(1024, 2).unwrap();
        // Seed with one sample per class, then stream the rest.
        model.bundle(&encoded[0], labels[0]).unwrap();
        model.bundle(&encoded[1], labels[1]).unwrap();
        let mut corrections = 0;
        for (hv, &label) in encoded.iter().zip(&labels).skip(2) {
            if !model.update(hv, label).unwrap() {
                corrections += 1;
            }
        }
        // Streaming learning must converge on separable data.
        assert!(model.accuracy(&encoded, &labels) >= 0.95);
        // And norms must stay consistent with the class vectors.
        for c in 0..2 {
            let stored: f64 = model.sub_norms2(c).iter().sum();
            assert!((stored - model.class(c).norm2()).abs() < 1e-9);
        }
        let _ = corrections;
    }

    #[test]
    fn online_update_validates_inputs() {
        let mut model = HdcModel::new(128, 2).unwrap();
        let hv = IntHv::zeros(128).unwrap();
        assert!(model.update(&hv, 5).is_err());
        let wrong = IntHv::zeros(64).unwrap();
        assert!(model.update(&wrong, 0).is_err());
    }

    #[test]
    fn zero_model_scores_zero() {
        let model = HdcModel::new(128, 3).unwrap();
        let q = IntHv::from(BinaryHv::random_seeded(128, 9).unwrap());
        assert!(model.scores(&q).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn blocked_scores_match_scalar_reference() {
        // Includes a non-multiple-of-128 dimensionality so the partial
        // trailing chunk path is exercised.
        for dim in [512usize, 576, 1000] {
            let (encoded, labels) = two_class_data(dim, 6);
            let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
            for q in encoded.iter().take(4) {
                for dims in [dim, dim / 2, 100] {
                    for norm in [NormMode::Updated, NormMode::Constant] {
                        let opts = PredictOptions::reduced(dims, norm);
                        assert_eq!(
                            model.scores_with(q, opts),
                            model.scores_scalar(q, opts),
                            "dim={dim} dims={dims} norm={norm:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (encoded, labels) = two_class_data(1024, 8);
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let opts = PredictOptions::full(1024);
        let batch = model.predict_batch(&encoded, opts);
        for (hv, &p) in encoded.iter().zip(&batch) {
            assert_eq!(p, model.predict(hv));
        }
    }

    #[test]
    fn score_batch_matches_scalar_reference_on_every_kernel_set() {
        // Batch sizes straddle the tile width; dims include a partial
        // trailing chunk; both norm modes covered; and the sweep runs on
        // every kernel set the host supports, not just the active one.
        for dim in [512usize, 1000] {
            let (encoded, labels) = two_class_data(dim, 9); // 18 queries
            let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
            for isa in crate::kernels::available() {
                let set = crate::kernels::for_isa(isa).unwrap();
                let mut engine = ScoreBatch::with_kernels(set);
                assert_eq!(engine.isa(), isa);
                for n in [0usize, 1, 7, 8, 9, 18] {
                    let queries = &encoded[..n];
                    for dims in [dim, dim / 2, 100] {
                        for norm in [NormMode::Updated, NormMode::Constant] {
                            let opts = PredictOptions::reduced(dims, norm);
                            let mut batched = Vec::new();
                            engine.scores_into(&model, queries, opts, &mut batched);
                            let expect: Vec<f64> = queries
                                .iter()
                                .flat_map(|q| model.scores_scalar(q, opts))
                                .collect();
                            assert_eq!(
                                batched, expect,
                                "isa={isa} dim={dim} n={n} dims={dims} norm={norm:?}"
                            );
                            let mut preds = Vec::new();
                            engine.predict_into(&model, queries, opts, &mut preds);
                            let expect_preds: Vec<usize> = queries
                                .iter()
                                .map(|q| model.predict_with(q, opts))
                                .collect();
                            assert_eq!(preds, expect_preds, "isa={isa} dim={dim} n={n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn awkward_dims_match_scalar_reference_on_every_kernel_set() {
        // Pruned supports are arbitrary-length, so the blocked scorers
        // must stay exact when the dimensionality is not a multiple of
        // the 128-dim sub-norm chunk — including a lone trailing
        // dimension and a chunk-straddling 129. The tail chunk must not
        // read padding as signal.
        for dim in [1usize, 127, 129, 4095] {
            let (encoded, labels) = two_class_data(dim, 5);
            let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
            for norm in [NormMode::Updated, NormMode::Constant] {
                let opts = PredictOptions::reduced(dim, norm);
                for q in encoded.iter().take(4) {
                    let expect = model.scores_scalar(q, opts);
                    let mut blocked = Vec::new();
                    model.score_all(q, opts, &mut blocked);
                    assert_eq!(blocked, expect, "score_all dim={dim} norm={norm:?}");
                }
                for isa in crate::kernels::available() {
                    let set = crate::kernels::for_isa(isa).unwrap();
                    let mut engine = ScoreBatch::with_kernels(set);
                    let mut batched = Vec::new();
                    engine.scores_into(&model, &encoded, opts, &mut batched);
                    let expect: Vec<f64> = encoded
                        .iter()
                        .flat_map(|q| model.scores_scalar(q, opts))
                        .collect();
                    assert_eq!(batched, expect, "isa={isa} dim={dim} norm={norm:?}");
                }
            }
        }
    }

    #[test]
    fn score_batch_ties_resolve_like_argmax() {
        // A zero model scores 0.0 for every class: the shared
        // last-max-wins rule must pick the last class everywhere.
        let model = HdcModel::new(256, 3).unwrap();
        let queries: Vec<IntHv> = (0..5)
            .map(|s| IntHv::from(BinaryHv::random_seeded(256, 77 + s).unwrap()))
            .collect();
        let mut engine = ScoreBatch::new();
        let mut preds = Vec::new();
        engine.predict_into(&model, &queries, PredictOptions::full(256), &mut preds);
        assert!(preds.iter().all(|&p| p == 2), "{preds:?}");
        for q in &queries {
            assert_eq!(model.predict(q), 2);
        }
    }

    #[test]
    fn parallel_retraining_is_bit_identical_to_serial() {
        let (encoded, labels) = two_class_data(1024, 20);
        for threads in [2usize, 3, 8] {
            let mut serial = HdcModel::fit(&encoded, &labels, 2).unwrap();
            let mut parallel = serial.clone();
            let hist_s = serial.retrain(&encoded, &labels, 10).unwrap();
            let hist_p = parallel
                .retrain_parallel(&encoded, &labels, 10, threads)
                .unwrap();
            assert_eq!(hist_s, hist_p, "threads={threads}");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn scalar_retraining_is_bit_identical_to_blocked() {
        let (encoded, labels) = two_class_data(1000, 20); // not a multiple of 128
        let mut blocked = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let mut scalar = blocked.clone();
        let hist_b = blocked.retrain(&encoded, &labels, 10).unwrap();
        let hist_s = scalar.retrain_scalar(&encoded, &labels, 10).unwrap();
        assert_eq!(hist_b, hist_s);
        assert_eq!(blocked, scalar);
    }

    #[test]
    fn parallel_retraining_validates_inputs() {
        let mut model = HdcModel::new(128, 2).unwrap();
        let hv = IntHv::zeros(128).unwrap();
        assert!(model
            .retrain_epoch_parallel(std::slice::from_ref(&hv), &[0, 1], 4)
            .is_err());
        assert!(model
            .retrain_epoch_parallel(std::slice::from_ref(&hv), &[5], 4)
            .is_err());
        let wrong = IntHv::zeros(64).unwrap();
        assert!(model
            .retrain_epoch_parallel(&[wrong.clone(), wrong], &[0, 0], 4)
            .is_err());
    }
}
