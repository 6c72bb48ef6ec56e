//! # generic-hdc
//!
//! A hyperdimensional computing (HDC) library reproducing the algorithms of
//! *GENERIC: Highly Efficient Learning Engine on Edge using Hyperdimensional
//! Computing* (Khaleghi et al., DAC 2022).
//!
//! HDC encodes raw inputs into high-dimensional (~2–8 K) binary/bipolar
//! *hypervectors* and learns with element-wise, massively bit-parallel
//! operations. This crate provides:
//!
//! - bit-packed binary hypervectors and integer accumulator hypervectors
//!   ([`BinaryHv`], [`IntHv`]),
//! - distance-preserving *level* item memories and *id* memories, including
//!   the hardware-faithful seed-permutation id generator the GENERIC
//!   accelerator uses for its 1024× id-memory compression ([`LevelMemory`],
//!   [`IdMemory`]),
//! - the five encodings evaluated in the paper: random projection, level-id,
//!   ngram, permutation, and the proposed **GENERIC** encoding of Eq. (1)
//!   (module [`encoding`]),
//! - HDC classification — single-pass training, mispredict-driven
//!   retraining, and cosine-similarity inference with on-demand dimension
//!   reduction ([`HdcModel`]),
//! - model quantization to 1/2/4/8/16-bit class elements with bit-accurate
//!   fault injection hooks used by the voltage over-scaling study
//!   ([`QuantizedModel`]), packed into the GHDC v3 bit-plane image and
//!   scored word-parallel ([`PackedModel`], [`PackedModelView`]); the
//!   1-bit image is the binarized associative memory,
//! - a seeded fault-injection engine distinguishing transient (per-read),
//!   persistent (stuck-cell), and accumulating (retention) faults across
//!   class memories, item/id memories, and encoded queries ([`FaultModel`]),
//! - resilient inference: confidence-gated escalation from reduced to full
//!   dimensions, majority voting over redundant reads, and periodic class
//!   memory scrubbing ([`ResilientPipeline`]),
//! - a crash-safe streaming online-learning runtime: atomic
//!   generation-numbered checkpoints, deadline-aware graceful degradation
//!   over the sub-norm reduction tiers, and quarantine-not-panic input
//!   handling (module [`runtime`]),
//! - a sharded serving runtime: panic-isolated, self-supervising worker
//!   shards scoring RCU snapshots behind bounded queues with
//!   backpressure, deadline-aware admission control, restart backoff
//!   with a circuit breaker, and graceful drain (module [`serve`]),
//! - a dependency-free framed TCP front-end over the serving runtime:
//!   length-prefixed, CRC32-trailed binary frames with per-request status
//!   codes for shed/deadline/quarantine outcomes (module [`net`]),
//! - post-training compression: saliency-guided dimension pruning with
//!   retrain-after-prune recovery, composed with quantization, and an
//!   automatic accuracy/size Pareto search emitting the smallest model
//!   meeting a target accuracy (module [`compress`]),
//! - HDC clustering with copy-centroid epochs ([`HdcClustering`]),
//! - evaluation metrics: accuracy and normalized mutual information
//!   (module [`metrics`]).
//!
//! ## Quick example
//!
//! ```
//! use generic_hdc::{encoding::{Encoder, GenericEncoder, GenericEncoderSpec}, HdcModel};
//!
//! # fn main() -> Result<(), generic_hdc::HdcError> {
//! // Two trivially separable 8-feature classes.
//! let train: Vec<Vec<f64>> = (0..40)
//!     .map(|i| vec![if i % 2 == 0 { 0.1 } else { 0.9 }; 8])
//!     .collect();
//! let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
//!
//! let spec = GenericEncoderSpec::new(2_048, 8).with_seed(7);
//! let encoder = GenericEncoder::from_data(spec, &train)?;
//!
//! let encoded = encoder.encode_batch(&train)?;
//! let mut model = HdcModel::fit(&encoded, &labels, 2)?;
//! model.retrain(&encoded, &labels, 5)?;
//!
//! let query = encoder.encode(&[0.1; 8])?;
//! assert_eq!(model.predict(&query), 0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod fault;
mod hv;
mod id;
mod level;
mod model;
mod pipeline;
mod quant;
mod resilient;

pub mod compress;
pub mod encoding;
pub mod io;
// The SIMD dispatch layer is one of the two modules allowed to contain
// `unsafe` (detection-guarded `#[target_feature]` calls and unaligned
// vector loads); everything else in the crate stays `unsafe`-free.
#[allow(unsafe_code)]
pub mod kernels;
// The other `unsafe` module: raw-syscall `mmap` ownership and the one
// checked byte→word reinterpretation backing zero-copy model views.
pub mod ledger;
#[allow(unsafe_code)]
pub mod mapped;
pub mod metrics;
pub mod net;
pub mod oracle;
pub mod registry;
pub mod runtime;
pub mod serve;

pub use cluster::{ClusteringOutcome, HdcClustering, HdcClusteringSpec};
pub use compress::{
    pareto_search, prune, saliency, saliency_scalar, CompressOptions, CompressedModel,
    CompressionOutcome, ParetoPoint, PrunedModel, SaliencyMap,
};
pub use error::HdcError;
pub use fault::{DefectMap, FaultKind, FaultModel};
pub use hv::{BinaryHv, BitSliceAccumulator, IntHv};
pub use id::IdMemory;
pub use ledger::{FsOp, Ledger, LedgerFs, Manifest, ManifestError, RecoveryOutcome};
pub use level::{LevelMemory, Quantizer};
pub use mapped::Mapping;
pub use model::{HdcModel, NormMode, PredictOptions, ScoreBatch};
pub use net::{Frame, FrameError, FrameReader, LatencySummary, NetFrontend, NetStats, NetStatus};
pub use pipeline::HdcPipeline;
pub use quant::{pack_bits, unpack_bits, PackedModel, PackedModelView, QuantizedModel};
pub use registry::{ModelRegistry, RegistryConfig, RegistryError, RegistryStats, TenantHandle};
pub use resilient::{ResilienceConfig, ResilienceStats, ResilientPipeline};
pub use runtime::{
    CheckpointStore, DegradationLadder, MicroBatcher, ModelSnapshot, OnlineRuntime, RetryPolicy,
    RuntimeConfig, RuntimeError, RuntimeStats, SnapshotCell,
};
pub use serve::{
    DrainReport, ServeAnswer, ServeConfig, ServeError, ServeStats, Server, ServerHandle,
    SubmitError, Ticket,
};

/// Number of encoding dimensions the GENERIC accelerator produces per pass
/// over the stored input (the architectural constant *m* of §4.1).
pub const LANES: usize = 16;

/// Granularity (in dimensions) at which sub-hypervector L2 norms are stored
/// for on-demand dimension reduction (§4.3.3).
pub const SUB_NORM_CHUNK: usize = 128;

/// Tests of the binary model: the 1-bit mode
/// `QuantizedModel::from_model(m, 1)?.pack()?`, whose sign vectors
/// (0 ↦ +1) score binarized queries by Hamming distance.
#[cfg(test)]
mod binary_model {
    mod tests {
        use crate::{BinaryHv, HdcModel, IntHv, PackedModel, QuantizedModel};

        fn trained(dim: usize) -> (HdcModel, Vec<IntHv>, Vec<usize>) {
            let protos: Vec<BinaryHv> = (0..3u64)
                .map(|s| BinaryHv::random_seeded(dim, 70 + s).unwrap())
                .collect();
            let mut encoded = Vec::new();
            let mut labels = Vec::new();
            for i in 0..15 {
                let c = i % 3;
                let mut hv = protos[c].clone();
                for k in 0..dim / 10 {
                    hv.flip_bit((k * 13 + i * 7) % dim);
                }
                encoded.push(IntHv::from(hv));
                labels.push(c);
            }
            let model = HdcModel::fit(&encoded, &labels, 3).unwrap();
            (model, encoded, labels)
        }

        fn accuracy(packed: &PackedModel, encoded: &[IntHv], labels: &[usize]) -> f64 {
            let correct = encoded
                .iter()
                .zip(labels)
                .filter(|&(hv, &label)| packed.view().predict(&hv.to_binary()).unwrap() == label)
                .count();
            correct as f64 / encoded.len() as f64
        }

        #[test]
        fn binarized_model_classifies_separable_data() {
            let (model, encoded, labels) = trained(2048);
            let packed = QuantizedModel::from_model(&model, 1)
                .unwrap()
                .pack()
                .unwrap();
            assert_eq!(accuracy(&packed, &encoded, &labels), 1.0);
        }

        #[test]
        fn flip_count_tracks_ber() {
            let (model, _, _) = trained(1024);
            let mut binary = QuantizedModel::from_model(&model, 1).unwrap();
            let flipped = binary.inject_bit_flips(0.1, 4).unwrap();
            let expected = (3 * 1024) as f64 * 0.1;
            assert!((flipped as f64 - expected).abs() < expected * 0.5);
            assert_eq!(binary.inject_bit_flips(0.0, 4).unwrap(), 0);
        }

        #[test]
        fn validates_inputs() {
            assert!(QuantizedModel::from_parts(64, 1, vec![]).is_err());
            let mixed = vec![vec![1; 64], vec![-1; 128]];
            assert!(QuantizedModel::from_parts(64, 1, mixed).is_err());
            let mut binary = QuantizedModel::from_parts(64, 1, vec![vec![1; 64]]).unwrap();
            let wrong = BinaryHv::random_seeded(128, 3).unwrap();
            assert!(binary.pack().unwrap().view().predict(&wrong).is_err());
            assert!(binary.inject_bit_flips(2.0, 1).is_err());
        }
    }
}
