//! Registry tenants: built from the trained pipeline, published through
//! `ModelRegistry`, and kept on the heap as the oracle their served
//! answers are checked against.

use std::path::Path;
use std::time::{Duration, Instant};

use generic_hdc::encoding::Encoder;
use generic_hdc::{
    prune, saliency, BinaryHv, CompressedModel, HdcModel, HdcPipeline, IntHv, ModelRegistry,
    QuantizedModel, RegistryConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{is_pruned_tenant, mix, tenant_name, Inputs};
use crate::BenchResult;

/// Encoded training rows tenants draw their samples from.
const SOURCE_ROWS: usize = 1024;
/// Samples each tenant model is bundled from.
const TENANT_ROWS: usize = 256;

/// One tenant's model as published: a full 8-bit image, or a pruned
/// (25 % of dimensions kept) 4-bit image.
pub enum TenantModel {
    Full(QuantizedModel),
    Pruned(CompressedModel),
}

impl TenantModel {
    /// Dimensions the server reports scoring for this tenant.
    pub fn dims(&self) -> usize {
        match self {
            TenantModel::Full(q) => q.dim(),
            TenantModel::Pruned(c) => c.dim(),
        }
    }

    /// The label the mapped view must reproduce, from the heap copy of
    /// the same image (the `registry_view` and `pruned_score` oracle
    /// contracts): a pruned query is compacted through the support
    /// first.
    pub fn oracle_label(&self, query: &BinaryHv) -> BenchResult<usize> {
        let scores = match self {
            TenantModel::Full(q) => q.scores(&IntHv::from(query.clone())),
            TenantModel::Pruned(c) => {
                let bits: Vec<bool> = c.support().iter().map(|&d| query.bit(d)).collect();
                c.quantized()
                    .scores(&IntHv::from(BinaryHv::from_bits(&bits)?))
            }
        };
        Ok(argmax_last(&scores))
    }
}

/// Index of the highest score, the last one winning ties — the serving
/// path's rule.
pub fn argmax_last(scores: &[f64]) -> usize {
    let mut best = f64::NEG_INFINITY;
    let mut index = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s >= best {
            best = s;
            index = i;
        }
    }
    index
}

/// Builds `count` tenant models, each bundled from its own seeded draw
/// of encoded training rows, in the trained pipeline's encoding space.
pub fn build(
    pipeline: &HdcPipeline,
    inputs: &Inputs,
    count: usize,
    seed: u64,
) -> BenchResult<Vec<TenantModel>> {
    let rows = inputs.train.len().min(SOURCE_ROWS);
    let encoded = pipeline.encoder().encode_batch(&inputs.train[..rows])?;
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 100 + i as u64));
            let picks: Vec<usize> = (0..TENANT_ROWS)
                .map(|_| rng.random_range(0..rows))
                .collect();
            let sample: Vec<IntHv> = picks.iter().map(|&j| encoded[j].clone()).collect();
            let labels: Vec<usize> = picks.iter().map(|&j| inputs.train_labels[j]).collect();
            let model = HdcModel::fit(&sample, &labels, inputs.n_classes)?;
            Ok(if is_pruned_tenant(i) {
                let map = saliency(&model, &sample, &labels)?;
                let pruned = prune(&model, &map, model.dim() / 4)?;
                TenantModel::Pruned(CompressedModel::from_pruned(&pruned, 4)?)
            } else {
                TenantModel::Full(QuantizedModel::from_model(&model, 8)?)
            })
        })
        .collect()
}

/// The registry configuration `generic serve` opens with.
pub fn registry_config(dim: usize) -> RegistryConfig {
    RegistryConfig {
        dim,
        ..RegistryConfig::default()
    }
}

/// Publishes every tenant into the registry at `dir` and returns the
/// time of each publish. The registry is closed on return, releasing
/// its writer lock for the server.
pub fn publish_all(dir: &Path, dim: usize, tenants: &[TenantModel]) -> BenchResult<Vec<Duration>> {
    let registry = ModelRegistry::open(dir, registry_config(dim))?;
    tenants
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let name = tenant_name(i);
            let start = Instant::now();
            match tenant {
                TenantModel::Full(q) => registry.publish(&name, q)?,
                TenantModel::Pruned(c) => registry.publish_compressed(&name, c)?,
            };
            Ok(start.elapsed())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_prefers_the_last_maximum() {
        assert_eq!(argmax_last(&[0.5, 0.9, 0.9, 0.1]), 2);
        assert_eq!(argmax_last(&[1.0]), 0);
        assert_eq!(argmax_last(&[]), 0);
    }
}
