//! Uniform registry of fast-kernel / scalar-oracle pairs.
//!
//! Successive optimisation passes left the crate with several "fast path
//! plus retained scalar reference" pairs: bit-sliced bundling vs scalar
//! rotate-and-add encoding, blocked similarity vs per-class scalar
//! scoring, parallel vs sequential retraining, bit-plane packed scoring
//! vs unpacked scoring. Each pair carries an equivalence contract that
//! silently erodes unless it is machine-checked. This module is the one
//! place those contracts are written down:
//!
//! - [`ORACLE_REGISTRY`] names every checked stage boundary together
//!   with its typed output [`Tolerance`] and a human-readable contract,
//! - [`DifferentialKernel`] lets a harness execute both sides of a pair
//!   without knowing which kernel it is driving, which is what the
//!   `generic-conformance` crate's scenario fuzzer builds on.
//!
//! Boundaries that live outside this crate (the cycle simulator's
//! hardware scores and activity counters) are registered here too, so a
//! conformance run can report coverage against a single list.

use crate::encoding::GenericEncoder;
use crate::kernels::{self, Isa};
use crate::{
    BinaryHv, BitSliceAccumulator, HdcError, HdcModel, IntHv, PackedModel, PredictOptions,
    QuantizedModel, ScoreBatch,
};

/// How far a fast implementation may stray from its scalar oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Outputs must be bit-identical: integer arithmetic is exact and
    /// floating-point reductions fold in the same order on both sides.
    BitIdentical,
    /// Outputs may differ elementwise by at most this absolute amount
    /// (different but documented floating-point association).
    AbsEpsilon(f64),
    /// Only the induced ranking must agree (same winner under the
    /// documented tie-break); score magnitudes are approximate.
    RankEquivalent,
}

/// The pipeline stage a checked boundary belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Feature bins → hypervector (bit-sliced vs scalar bundling).
    Encode,
    /// Epoch-level model updates (blocked/parallel vs scalar retraining).
    Retrain,
    /// Full- and reduced-dimension similarity scoring.
    Score,
    /// Quantized scoring, packed bit-plane vs unpacked.
    QuantScore,
    /// Resilient pipeline at baseline vs direct quantized inference.
    Resilient,
    /// Pipeline serialization / checkpoint-store round-trips.
    CheckpointRestore,
    /// Simulator hardware scores vs independent scalar recomputation.
    SimScore,
    /// Simulator activity counters vs the closed-form cost model.
    SimActivity,
    /// Sharded concurrent serving vs the scalar oracle replayed on the
    /// answer's pinned snapshot.
    ConcurrentServe,
    /// Multi-tenant mapped-model registry (cold-load, hot-swap, evict)
    /// vs heap-deserialized scalar scoring.
    Registry,
    /// Framed-TCP front-end vs the in-process serving oracle: answers
    /// transported over a real socket replay bit-identically.
    Network,
    /// Post-training compression: saliency, pruning, and pruned-support
    /// scoring vs their scalar references.
    Compress,
}

impl StageKind {
    /// Every stage, in canonical reporting order.
    pub const ALL: [StageKind; 12] = [
        StageKind::Encode,
        StageKind::Retrain,
        StageKind::Score,
        StageKind::QuantScore,
        StageKind::Resilient,
        StageKind::CheckpointRestore,
        StageKind::SimScore,
        StageKind::SimActivity,
        StageKind::ConcurrentServe,
        StageKind::Registry,
        StageKind::Network,
        StageKind::Compress,
    ];

    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Encode => "encode",
            StageKind::Retrain => "retrain",
            StageKind::Score => "score",
            StageKind::QuantScore => "quant_score",
            StageKind::Resilient => "resilient",
            StageKind::CheckpointRestore => "checkpoint_restore",
            StageKind::SimScore => "sim_score",
            StageKind::SimActivity => "sim_activity",
            StageKind::ConcurrentServe => "concurrent_serve",
            StageKind::Registry => "registry",
            StageKind::Network => "network",
            StageKind::Compress => "compress",
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One registered fast-path / oracle boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleEntry {
    /// Stable identifier (matches the fast-path method name where one
    /// exists).
    pub name: &'static str,
    /// The pipeline stage the boundary belongs to.
    pub stage: StageKind,
    /// The permitted divergence between the two sides.
    pub tolerance: Tolerance,
    /// Why the tolerance holds — the equivalence contract being tested.
    pub contract: &'static str,
}

/// Every checked stage boundary, in pipeline order.
pub const ORACLE_REGISTRY: &[OracleEntry] = &[
    OracleEntry {
        name: "encode_bins",
        stage: StageKind::Encode,
        tolerance: Tolerance::BitIdentical,
        contract: "bit-sliced window bundling accumulates the same \
                   integers as the scalar rotate-and-add reference; all \
                   arithmetic is exact",
    },
    OracleEntry {
        name: "score_all",
        stage: StageKind::Score,
        tolerance: Tolerance::BitIdentical,
        contract: "blocked dot products are exact i64 sums; class norms \
                   fold the precomputed sub-norm chunks in the same \
                   left-to-right order as the scalar reference",
    },
    OracleEntry {
        name: "retrain_epoch",
        stage: StageKind::Retrain,
        tolerance: Tolerance::BitIdentical,
        contract: "the blocked epoch applies the same sequential \
                   mispredict corrections as the scalar reference, in \
                   sample order",
    },
    OracleEntry {
        name: "retrain_epoch_parallel",
        stage: StageKind::Retrain,
        tolerance: Tolerance::BitIdentical,
        contract: "worker partitions replay their corrections in \
                   deterministic sample order, so the merged model is \
                   bit-identical to the sequential epoch",
    },
    OracleEntry {
        name: "packed_scores",
        stage: StageKind::QuantScore,
        tolerance: Tolerance::BitIdentical,
        contract: "the packed view's masked bit-plane popcount dot products \
                   are exact integers on every dispatched ISA (SIMD lanes \
                   only reassociate integer addition) and the stored class \
                   norms are the same left-to-right f64 fold as the \
                   unpacked model",
    },
    OracleEntry {
        name: "bundle_ripple_simd",
        stage: StageKind::Encode,
        tolerance: Tolerance::BitIdentical,
        contract: "the ripple-carry plane update is pure word-wise XOR/AND \
                   with no cross-word dependency, so vectorizing the word \
                   loop leaves every bit plane — and the decoded integer \
                   accumulator — identical to scalar bundling",
    },
    OracleEntry {
        name: "dot_i32_simd",
        stage: StageKind::Score,
        tolerance: Tolerance::BitIdentical,
        contract: "the i32×i32 dot product widens every product to i64 \
                   before summing; the sum cannot overflow and integer \
                   addition is associative, so SIMD lane order is \
                   irrelevant",
    },
    OracleEntry {
        name: "score_batch",
        stage: StageKind::Score,
        tolerance: Tolerance::BitIdentical,
        contract: "batched tiles accumulate the same exact i64 chunk dots \
                   as per-query scoring and normalize through the same \
                   prefix-norm tables, so the B×C score matrix equals the \
                   per-query scalar reference row for row",
    },
    OracleEntry {
        name: "resilient_baseline",
        stage: StageKind::Resilient,
        tolerance: Tolerance::BitIdentical,
        contract: "with the baseline config and no faults, the resilient \
                   pipeline is one full-dimension cosine pass; its answer \
                   is the first-maximum argmax of the quantized cosine \
                   scores",
    },
    OracleEntry {
        name: "pipeline_checkpoint",
        stage: StageKind::CheckpointRestore,
        tolerance: Tolerance::BitIdentical,
        contract: "the GHDC wire format is canonical: write∘read∘write \
                   emits identical bytes and the restored pipeline \
                   predicts identically",
    },
    OracleEntry {
        name: "sim_hw_scores",
        stage: StageKind::SimScore,
        tolerance: Tolerance::BitIdentical,
        contract: "hardware scores are recomputable from the stored class \
                   rows and chunked norm2 memory via the same Mitchell \
                   division; the prediction is the first-maximum argmax",
    },
    OracleEntry {
        name: "sim_activity",
        stage: StageKind::SimActivity,
        tolerance: Tolerance::BitIdentical,
        contract: "engine activity counter deltas equal the closed-form \
                   mitigation cost formulas for the same operation",
    },
    OracleEntry {
        name: "serve_answer",
        stage: StageKind::ConcurrentServe,
        tolerance: Tolerance::BitIdentical,
        contract: "every answer from the sharded server carries the \
                   immutable snapshot it was scored against and the \
                   dimensions used; replaying the request through the \
                   scalar predictor on that snapshot at those dimensions \
                   reproduces the label exactly, regardless of shard \
                   count, batching, or concurrent writer updates",
    },
    OracleEntry {
        name: "registry_view",
        stage: StageKind::Registry,
        tolerance: Tolerance::BitIdentical,
        contract: "a zero-copy view over a mapped GHDC v3 tenant file \
                   scores exactly as the scalar quantized model \
                   deserialized from the same bytes, on every dispatched \
                   ISA — across cold loads, atomic hot-swaps, and \
                   evict/reload cycles",
    },
    OracleEntry {
        name: "net_answer",
        stage: StageKind::Network,
        tolerance: Tolerance::BitIdentical,
        contract: "an answer decoded from the framed TCP front-end \
                   carries the label, dimensions, and status the \
                   in-process ServerHandle oracle produces for the same \
                   request; replaying the features through the scalar \
                   predictor on a pinned snapshot at the answered \
                   dimensions reproduces the label exactly, for shared \
                   and tenant-routed requests alike — the socket, frame \
                   codec, and CRC trailer add transport, never drift",
    },
    OracleEntry {
        name: "saliency",
        stage: StageKind::Compress,
        tolerance: Tolerance::BitIdentical,
        contract: "per-dimension class-margin saliency accumulates exact \
                   i64 products; the rival class on each side comes from \
                   scores proven bit-identical by the score-stage \
                   contracts, so every dispatched ISA totals the same \
                   saliency as the per-query scalar reference",
    },
    OracleEntry {
        name: "prune",
        stage: StageKind::Compress,
        tolerance: Tolerance::BitIdentical,
        contract: "support selection is a deterministic total order \
                   (descending saliency, ties toward the lower index) and \
                   class compaction is an exact integer gather, so the \
                   pruned model matches an independent scalar selection \
                   exactly",
    },
    OracleEntry {
        name: "pruned_score",
        stage: StageKind::Compress,
        tolerance: Tolerance::BitIdentical,
        contract: "the mapped pruned view gathers parent-space query bits \
                   through the support mask and then runs the exact \
                   bit-plane popcount dots; compacting the query first and \
                   scoring through the heap quantized model visits the \
                   same bits in the same order, so scores match bit for \
                   bit on every dispatched ISA",
    },
];

/// Looks up a registry entry by its stable name.
pub fn lookup(name: &str) -> Option<&'static OracleEntry> {
    ORACLE_REGISTRY.iter().find(|e| e.name == name)
}

/// A fast implementation paired with its retained scalar reference,
/// executable by a harness that knows nothing about the kernel.
///
/// Both sides receive the same input; a conformance harness compares the
/// outputs under [`OracleEntry::tolerance`] (every in-crate kernel is
/// [`Tolerance::BitIdentical`], so plain equality is the check).
pub trait DifferentialKernel {
    /// The per-invocation input.
    type Input: ?Sized;
    /// The comparable output of both sides.
    type Output: PartialEq + std::fmt::Debug;

    /// The registry entry describing this boundary.
    fn entry(&self) -> &'static OracleEntry;

    /// Runs the optimised path.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (dimension mismatches, bad labels).
    fn fast(&self, input: &Self::Input) -> Result<Self::Output, HdcError>;

    /// Runs the retained scalar reference.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (dimension mismatches, bad labels).
    fn reference(&self, input: &Self::Input) -> Result<Self::Output, HdcError>;
}

/// [`GenericEncoder::encode_bins`] vs
/// [`GenericEncoder::encode_bins_scalar`]: quantized level bins in,
/// bundled hypervector out.
#[derive(Debug, Clone, Copy)]
pub struct EncodeKernel<'a> {
    /// The encoder under test.
    pub encoder: &'a GenericEncoder,
}

impl DifferentialKernel for EncodeKernel<'_> {
    type Input = [usize];
    type Output = IntHv;

    fn entry(&self) -> &'static OracleEntry {
        lookup("encode_bins").expect("registered")
    }

    fn fast(&self, bins: &[usize]) -> Result<IntHv, HdcError> {
        self.encoder.encode_bins(bins)
    }

    fn reference(&self, bins: &[usize]) -> Result<IntHv, HdcError> {
        self.encoder.encode_bins_scalar(bins)
    }
}

/// [`HdcModel::score_all`] vs [`HdcModel::scores_scalar`] under one set
/// of prediction options (full or reduced dimensions, either norm mode).
#[derive(Debug, Clone, Copy)]
pub struct ScoreKernel<'a> {
    /// The trained model under test.
    pub model: &'a HdcModel,
    /// Scoring options applied identically to both sides.
    pub opts: PredictOptions,
}

impl DifferentialKernel for ScoreKernel<'_> {
    type Input = IntHv;
    type Output = Vec<f64>;

    fn entry(&self) -> &'static OracleEntry {
        lookup("score_all").expect("registered")
    }

    fn fast(&self, query: &IntHv) -> Result<Vec<f64>, HdcError> {
        let mut out = Vec::new();
        self.model.score_all(query, self.opts, &mut out);
        Ok(out)
    }

    fn reference(&self, query: &IntHv) -> Result<Vec<f64>, HdcError> {
        Ok(self.model.scores_scalar(query, self.opts))
    }
}

/// One retraining epoch, blocked (and optionally parallel) vs scalar.
/// The input is the epoch's `(encoded, labels)` batch; the output is the
/// updated class matrix plus the epoch's mispredict count.
#[derive(Debug, Clone, Copy)]
pub struct RetrainKernel<'a> {
    /// The starting model; both sides run on their own clone.
    pub model: &'a HdcModel,
    /// Worker threads for the fast side (`> 1` exercises
    /// [`HdcModel::retrain_epoch_parallel`], otherwise
    /// [`HdcModel::retrain_epoch`]).
    pub threads: usize,
}

impl DifferentialKernel for RetrainKernel<'_> {
    type Input = (Vec<IntHv>, Vec<usize>);
    type Output = (Vec<Vec<i32>>, usize);

    fn entry(&self) -> &'static OracleEntry {
        if self.threads > 1 {
            lookup("retrain_epoch_parallel").expect("registered")
        } else {
            lookup("retrain_epoch").expect("registered")
        }
    }

    fn fast(&self, batch: &(Vec<IntHv>, Vec<usize>)) -> Result<Self::Output, HdcError> {
        let (encoded, labels) = batch;
        let mut model = self.model.clone();
        let errors = if self.threads > 1 {
            model.retrain_epoch_parallel(encoded, labels, self.threads)?
        } else {
            model.retrain_epoch(encoded, labels)?
        };
        Ok((class_rows(&model), errors))
    }

    fn reference(&self, batch: &(Vec<IntHv>, Vec<usize>)) -> Result<Self::Output, HdcError> {
        let (encoded, labels) = batch;
        let mut model = self.model.clone();
        let errors = model.retrain_epoch_scalar(encoded, labels)?;
        Ok((class_rows(&model), errors))
    }
}

/// [`PackedModel`] view scoring on one ISA vs the scalar
/// [`QuantizedModel::scores`] on a binarized query.
#[derive(Debug, Clone, Copy)]
pub struct PackedScoreKernel<'a> {
    /// The unpacked quantized model (the reference side).
    pub quantized: &'a QuantizedModel,
    /// Its packed v3 image (the fast side).
    pub packed: &'a PackedModel,
    /// The ISA variant the fast side dispatches through.
    pub isa: Isa,
}

impl DifferentialKernel for PackedScoreKernel<'_> {
    type Input = BinaryHv;
    type Output = Vec<f64>;

    fn entry(&self) -> &'static OracleEntry {
        lookup("packed_scores").expect("registered")
    }

    fn fast(&self, query: &BinaryHv) -> Result<Vec<f64>, HdcError> {
        let mut out = Vec::new();
        self.packed
            .view()
            .scores_into_with(query, kernel_set(self.isa)?, &mut out)?;
        Ok(out)
    }

    fn reference(&self, query: &BinaryHv) -> Result<Vec<f64>, HdcError> {
        Ok(self.quantized.scores(&IntHv::from(query.clone())))
    }
}

/// Resolves the kernel set for `isa`, erroring when the host CPU does not
/// support it (conformance harnesses should sweep
/// [`kernels::available`], which never yields an unsupported ISA).
fn kernel_set(isa: Isa) -> Result<&'static kernels::KernelSet, HdcError> {
    kernels::for_isa(isa)
        .ok_or_else(|| HdcError::invalid("isa", format!("{isa} not supported on this host")))
}

/// SIMD-rippled bit-sliced bundling vs the scalar rotate-free
/// [`IntHv::bundle_binary`] accumulation of the same hypervector batch.
#[derive(Debug, Clone, Copy)]
pub struct BundleKernel {
    /// The ISA variant under test (the fast side).
    pub isa: Isa,
}

impl DifferentialKernel for BundleKernel {
    type Input = [BinaryHv];
    type Output = IntHv;

    fn entry(&self) -> &'static OracleEntry {
        lookup("bundle_ripple_simd").expect("registered")
    }

    fn fast(&self, hvs: &[BinaryHv]) -> Result<IntHv, HdcError> {
        let dim = hvs.first().map_or(1, BinaryHv::dim);
        let mut acc = BitSliceAccumulator::with_kernels(dim, kernel_set(self.isa)?)?;
        for hv in hvs {
            acc.add(hv)?;
        }
        Ok(acc.to_int_hv())
    }

    fn reference(&self, hvs: &[BinaryHv]) -> Result<IntHv, HdcError> {
        let dim = hvs.first().map_or(1, BinaryHv::dim);
        let mut acc = IntHv::zeros(dim)?;
        for hv in hvs {
            acc.bundle_binary(hv)?;
        }
        Ok(acc)
    }
}

/// SIMD vs scalar exact widening `i32×i32 → i64` dot product — the inner
/// reduction of every similarity score.
#[derive(Debug, Clone, Copy)]
pub struct DotI32Kernel {
    /// The ISA variant under test (the fast side).
    pub isa: Isa,
}

impl DifferentialKernel for DotI32Kernel {
    type Input = (IntHv, IntHv);
    type Output = i64;

    fn entry(&self) -> &'static OracleEntry {
        lookup("dot_i32_simd").expect("registered")
    }

    fn fast(&self, input: &(IntHv, IntHv)) -> Result<i64, HdcError> {
        if input.0.dim() != input.1.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: input.0.dim(),
                actual: input.1.dim(),
            });
        }
        Ok(kernel_set(self.isa)?.dot_i32(input.0.values(), input.1.values()))
    }

    fn reference(&self, input: &(IntHv, IntHv)) -> Result<i64, HdcError> {
        input.0.dot(&input.1)
    }
}

/// [`ScoreBatch`] batched scoring (pinned to one ISA) vs per-query
/// [`HdcModel::scores_scalar`]: the input is the query batch, the output
/// is the flattened row-major B×C score matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScoreBatchKernel<'a> {
    /// The trained model under test.
    pub model: &'a HdcModel,
    /// Scoring options applied identically to both sides.
    pub opts: PredictOptions,
    /// The ISA variant the batched side dispatches through.
    pub isa: Isa,
}

impl DifferentialKernel for ScoreBatchKernel<'_> {
    type Input = [IntHv];
    type Output = Vec<f64>;

    fn entry(&self) -> &'static OracleEntry {
        lookup("score_batch").expect("registered")
    }

    fn fast(&self, queries: &[IntHv]) -> Result<Vec<f64>, HdcError> {
        let mut engine = ScoreBatch::with_kernels(kernel_set(self.isa)?);
        let mut out = Vec::new();
        engine.scores_into(self.model, queries, self.opts, &mut out);
        Ok(out)
    }

    fn reference(&self, queries: &[IntHv]) -> Result<Vec<f64>, HdcError> {
        Ok(queries
            .iter()
            .flat_map(|q| self.model.scores_scalar(q, self.opts))
            .collect())
    }
}

/// Saliency scoring dispatched through one ISA vs the per-query scalar
/// reference ([`crate::saliency_scalar`]). The input is the labeled
/// sample batch; the output is the full per-dimension saliency map.
#[derive(Debug, Clone, Copy)]
pub struct SaliencyKernel<'a> {
    /// The trained model under test.
    pub model: &'a HdcModel,
    /// The ISA variant the fast side dispatches through.
    pub isa: Isa,
}

impl DifferentialKernel for SaliencyKernel<'_> {
    type Input = (Vec<IntHv>, Vec<usize>);
    type Output = crate::SaliencyMap;

    fn entry(&self) -> &'static OracleEntry {
        lookup("saliency").expect("registered")
    }

    fn fast(&self, input: &(Vec<IntHv>, Vec<usize>)) -> Result<Self::Output, HdcError> {
        crate::compress::saliency_with(self.model, &input.0, &input.1, kernel_set(self.isa)?)
    }

    fn reference(&self, input: &(Vec<IntHv>, Vec<usize>)) -> Result<Self::Output, HdcError> {
        crate::saliency_scalar(self.model, &input.0, &input.1)
    }
}

/// [`crate::prune`] vs an independent scalar support selection: the
/// reference picks the support by repeated max-scan (no sort) and
/// gathers class rows one element at a time. The input is a saliency
/// map; the output is the ascending support plus the compacted class
/// matrix.
#[derive(Debug, Clone, Copy)]
pub struct PruneKernel<'a> {
    /// The trained model under test.
    pub model: &'a HdcModel,
    /// Dimensions to keep.
    pub keep: usize,
}

impl DifferentialKernel for PruneKernel<'_> {
    type Input = crate::SaliencyMap;
    type Output = (Vec<usize>, Vec<Vec<i32>>);

    fn entry(&self) -> &'static OracleEntry {
        lookup("prune").expect("registered")
    }

    fn fast(&self, sal: &crate::SaliencyMap) -> Result<Self::Output, HdcError> {
        let pruned = crate::prune(self.model, sal, self.keep)?;
        Ok((pruned.support().to_vec(), class_rows(pruned.model())))
    }

    fn reference(&self, sal: &crate::SaliencyMap) -> Result<Self::Output, HdcError> {
        if sal.dim() != self.model.dim() || self.keep == 0 || self.keep > self.model.dim() {
            return Err(HdcError::invalid("keep", "degenerate prune input"));
        }
        // Selection by repeated max-scan: highest score wins, ties go to
        // the lower index — the same total order as the fast side, found
        // without sorting.
        let scores = sal.scores();
        let mut taken = vec![false; scores.len()];
        for _ in 0..self.keep {
            let mut best: Option<usize> = None;
            for (d, &s) in scores.iter().enumerate() {
                if !taken[d] && best.is_none_or(|b| s > scores[b]) {
                    best = Some(d);
                }
            }
            taken[best.expect("keep <= dim")] = true;
        }
        let support: Vec<usize> = (0..scores.len()).filter(|&d| taken[d]).collect();
        let classes = self
            .model
            .iter()
            .map(|class| support.iter().map(|&d| class.values()[d]).collect())
            .collect();
        Ok((support, classes))
    }
}

/// Pruned-support scoring through the mapped [`crate::PackedModelView`]
/// on one ISA vs the scalar pruned oracle (query compacted first, then
/// scored through the heap [`QuantizedModel`]). The input is a
/// parent-width binarized query; the output is the per-class score
/// vector.
#[derive(Debug, Clone, Copy)]
pub struct PrunedScoreKernel<'a> {
    /// The packed v3 image of the compressed model (the fast side
    /// scores it in place).
    pub packed: &'a PackedModel,
    /// The compressed model (support + heap quantized reference side).
    pub compressed: &'a crate::CompressedModel,
    /// The ISA variant the fast side dispatches through.
    pub isa: Isa,
}

impl DifferentialKernel for PrunedScoreKernel<'_> {
    type Input = BinaryHv;
    type Output = Vec<f64>;

    fn entry(&self) -> &'static OracleEntry {
        lookup("pruned_score").expect("registered")
    }

    fn fast(&self, query: &BinaryHv) -> Result<Vec<f64>, HdcError> {
        let mut out = Vec::new();
        self.packed
            .view()
            .scores_into_with(query, kernel_set(self.isa)?, &mut out)?;
        Ok(out)
    }

    fn reference(&self, query: &BinaryHv) -> Result<Vec<f64>, HdcError> {
        let bits: Vec<bool> = self
            .compressed
            .support()
            .iter()
            .map(|&d| query.bit(d))
            .collect();
        let compact = BinaryHv::from_bits(&bits)?;
        Ok(self.compressed.quantized().scores(&IntHv::from(compact)))
    }
}

fn class_rows(model: &HdcModel) -> Vec<Vec<i32>> {
    model.iter().map(|hv| hv.values().to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoder, GenericEncoderSpec};

    fn fixture() -> (GenericEncoder, HdcModel, Vec<IntHv>, Vec<usize>) {
        let features: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..6).map(|j| ((i * 7 + j * 3) % 10) as f64).collect())
            .collect();
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let spec = GenericEncoderSpec::new(256, 6).with_seed(9);
        let encoder = GenericEncoder::from_data(spec, &features).unwrap();
        let encoded: Vec<IntHv> = features
            .iter()
            .map(|s| encoder.encode(s).unwrap())
            .collect();
        let model = HdcModel::fit(&encoded, &labels, 3).unwrap();
        (encoder, model, encoded, labels)
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for entry in ORACLE_REGISTRY {
            assert_eq!(lookup(entry.name).unwrap().name, entry.name);
        }
        let mut names: Vec<_> = ORACLE_REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            ORACLE_REGISTRY.len(),
            "duplicate registry name"
        );
        // Every stage is represented.
        for stage in StageKind::ALL {
            assert!(
                ORACLE_REGISTRY.iter().any(|e| e.stage == stage),
                "stage {stage} has no registered boundary"
            );
        }
    }

    #[test]
    fn kernels_agree_on_a_trained_fixture() {
        let (encoder, model, encoded, labels) = fixture();

        let encode = EncodeKernel { encoder: &encoder };
        let bins = encoder.quantizer().bins(&[1.0; 6]).unwrap();
        assert_eq!(
            encode.fast(&bins).unwrap(),
            encode.reference(&bins).unwrap()
        );

        let score = ScoreKernel {
            model: &model,
            opts: PredictOptions::full(model.dim()),
        };
        assert_eq!(
            score.fast(&encoded[0]).unwrap(),
            score.reference(&encoded[0]).unwrap()
        );

        for threads in [1, 3] {
            let retrain = RetrainKernel {
                model: &model,
                threads,
            };
            let batch = (encoded.clone(), labels.clone());
            assert_eq!(
                retrain.fast(&batch).unwrap(),
                retrain.reference(&batch).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn simd_kernels_agree_with_their_scalar_oracles_on_every_isa() {
        let (_, model, encoded, _) = fixture();
        let a = encoded[0].to_binary();
        let quantized = QuantizedModel::from_model(&model, 4).unwrap();
        let packed = quantized.pack().unwrap();
        let hvs: Vec<BinaryHv> = encoded.iter().map(IntHv::to_binary).collect();
        let pair = (encoded[0].clone(), encoded[1].clone());
        let opts = PredictOptions::full(model.dim());

        for isa in kernels::available() {
            let packed_scores = PackedScoreKernel {
                quantized: &quantized,
                packed: &packed,
                isa,
            };
            assert_eq!(
                packed_scores.fast(&a).unwrap(),
                packed_scores.reference(&a).unwrap(),
                "packed_scores isa={isa}"
            );

            let bundle = BundleKernel { isa };
            assert_eq!(
                bundle.fast(&hvs).unwrap(),
                bundle.reference(&hvs).unwrap(),
                "bundle isa={isa}"
            );

            let dot = DotI32Kernel { isa };
            assert_eq!(
                dot.fast(&pair).unwrap(),
                dot.reference(&pair).unwrap(),
                "dot_i32 isa={isa}"
            );

            let batch = ScoreBatchKernel {
                model: &model,
                opts,
                isa,
            };
            assert_eq!(
                batch.fast(&encoded).unwrap(),
                batch.reference(&encoded).unwrap(),
                "score_batch isa={isa}"
            );
        }
    }

    #[test]
    fn compress_kernels_agree_with_their_scalar_oracles_on_every_isa() {
        let (_, model, encoded, labels) = fixture();
        let batch = (encoded.clone(), labels.clone());

        for isa in kernels::available() {
            let kernel = SaliencyKernel { model: &model, isa };
            assert_eq!(
                kernel.fast(&batch).unwrap(),
                kernel.reference(&batch).unwrap(),
                "saliency isa={isa}"
            );
        }

        let sal = crate::saliency(&model, &encoded, &labels).unwrap();
        for keep in [1, 50, 128, model.dim()] {
            let kernel = PruneKernel {
                model: &model,
                keep,
            };
            assert_eq!(
                kernel.fast(&sal).unwrap(),
                kernel.reference(&sal).unwrap(),
                "prune keep={keep}"
            );
        }

        let pruned = crate::prune(&model, &sal, 100).unwrap();
        let compressed = crate::CompressedModel::from_pruned(&pruned, 4).unwrap();
        let packed = compressed.pack().unwrap();
        for isa in kernels::available() {
            let kernel = PrunedScoreKernel {
                packed: &packed,
                compressed: &compressed,
                isa,
            };
            for q in encoded.iter().take(4) {
                let query = q.to_binary();
                assert_eq!(
                    kernel.fast(&query).unwrap(),
                    kernel.reference(&query).unwrap(),
                    "pruned_score isa={isa}"
                );
            }
        }
    }

    #[test]
    fn isa_kernels_reject_unsupported_hosts_gracefully() {
        // An ISA for the other architecture can never be detected here,
        // so the kernel must error instead of executing the wrong code.
        #[cfg(target_arch = "x86_64")]
        let foreign = Isa::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Isa::Avx2;
        if kernels::for_isa(foreign).is_some() {
            return; // host genuinely supports it; nothing to reject
        }
        let dot = DotI32Kernel { isa: foreign };
        let a = IntHv::from(BinaryHv::random_seeded(128, 1).unwrap());
        let b = IntHv::from(BinaryHv::random_seeded(128, 2).unwrap());
        assert!(dot.fast(&(a, b)).is_err());
    }
}
