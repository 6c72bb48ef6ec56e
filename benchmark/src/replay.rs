//! The layer-replay stage of a traced run: times each layer's public
//! functions on a seeded slice of the workload's own requests, with one
//! span per request and a child span per layer call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use generic_hdc::encoding::Encoder;
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    kernels, Frame, HdcModel, HdcPipeline, IntHv, ModelRegistry, NormMode, PredictOptions,
    ScoreBatch,
};

use crate::report::Metric;
use crate::stats::median;
use crate::tenants::{self, argmax_last};
use crate::trace::Tracer;
use crate::workload::{mix, tenant_name, Inputs, Mix, Workload};
use crate::BenchResult;

/// Requests in the replayed slice.
pub const SLICE: usize = 4096;
/// Tenants the replay publishes (a quarter of them pruned).
const REPLAY_TENANTS: usize = 8;
/// Queries of the registry and single-query scoring passes.
const PASS: usize = 1024;

/// Spans plus the per-call durations (ns) each metric is a median of.
struct Timer<'a> {
    tracer: &'a mut Tracer,
    ns: BTreeMap<&'static str, Vec<f64>>,
}

impl Timer<'_> {
    fn time<T>(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.tracer.open(name, rid, parent);
        let start = Instant::now();
        let out = black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        self.tracer.close(span, rid, 0);
        self.ns.entry(name).or_default().push(ns);
        out
    }

    fn median(&self, name: &str) -> f64 {
        self.ns.get(name).map_or(0.0, |v| median(v))
    }
}

fn scratch(dir: &Path, name: &str) -> BenchResult<std::path::PathBuf> {
    let path = dir.join(name);
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

/// Runs every replay pass and returns the replay metrics.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    pipeline: &HdcPipeline,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> BenchResult<Vec<Metric>> {
    let mut t = Timer {
        tracer,
        ns: BTreeMap::new(),
    };
    let dim = pipeline.model().dim();
    let model = pipeline.model();
    let opts = PredictOptions::reduced(dim, NormMode::Updated);

    // Registry: publish, then cold-load each tenant from a fresh open.
    let registry_dir = scratch(dir, "registry")?;
    let tenant_models = tenants::build(pipeline, inputs, REPLAY_TENANTS, seed)?;
    for publish in tenants::publish_all(&registry_dir, dim, &tenant_models)? {
        t.ns.entry("registry.publish")
            .or_default()
            .push(publish.as_nanos() as f64);
    }
    for i in 0..REPLAY_TENANTS {
        let registry = ModelRegistry::open(&registry_dir, tenants::registry_config(dim))?;
        t.time("registry.cold_load", i as u64, None, || {
            registry.get(&tenant_name(i))
        })?;
    }
    let registry = ModelRegistry::open(&registry_dir, tenants::registry_config(dim))?;

    // The request chain: decode → (learn | encode → score → answer).
    let mut runtime = OnlineRuntime::new(
        pipeline.clone(),
        CheckpointStore::open(scratch(dir, "chain-ckpt")?, 3, RetryPolicy::default())?,
        RuntimeConfig::default(),
    )?;
    runtime.checkpoint()?;
    let mut engine = ScoreBatch::new();
    let mut preds = Vec::new();
    let mut scores = Vec::new();
    let mut encoded: Vec<IntHv> = Vec::with_capacity(SLICE);
    let mut mix_of = Mix::new(workload, mix(seed, 60));
    for rid in 0..SLICE as u64 {
        let req = mix_of.next_req();
        let bytes = inputs.frame(req, rid).encode();
        let root = t.tracer.open("replay.request", rid, None);
        match t.time("net.decode", rid, root, || Frame::decode(&bytes))? {
            Frame::Learn {
                label, features, ..
            } => {
                t.time("runtime.learn", rid, root, || {
                    runtime.learn(&features, label as usize)
                })?;
            }
            Frame::Infer {
                features, tenant, ..
            } => {
                let hv = t.time("encoding.encode", rid, root, || pipeline.encode(&features))?;
                let (label, dims) = match tenant {
                    None => {
                        t.time("model.score_b1", rid, root, || {
                            engine.predict_into(model, std::slice::from_ref(&hv), opts, &mut preds)
                        });
                        (preds[0], dim)
                    }
                    Some(name) => {
                        let index: usize = name[1..].parse()?;
                        let name = tenant_name(index % REPLAY_TENANTS);
                        let label =
                            score_tenant(&mut t, &registry, &name, &hv, &mut scores, rid, root)?;
                        (label, tenant_models[index % REPLAY_TENANTS].dims())
                    }
                };
                encoded.push(hv);
                t.time("net.encode", rid, root, || {
                    Frame::Answer {
                        request_id: rid,
                        elapsed_us: 0,
                        label: label as u64,
                        dims_used: dims as u32,
                        tier: 0,
                        shard: 0,
                        degraded: false,
                    }
                    .encode()
                });
            }
            other => return Err(format!("replayed request decoded as {other:?}").into()),
        }
        t.tracer.close(root, rid, 0);
    }

    // Single and batched scoring, and both tenant kinds, on every
    // workload's queries.
    for (i, hv) in encoded.iter().take(PASS).enumerate() {
        let rid = i as u64;
        t.time("model.score_b1", rid, None, || {
            engine.predict_into(model, std::slice::from_ref(hv), opts, &mut preds)
        });
        // Alternate a full tenant and a pruned one.
        let index = if i % 2 == 0 { 0 } else { 3 };
        score_tenant(
            &mut t,
            &registry,
            &tenant_name(index),
            hv,
            &mut scores,
            rid,
            None,
        )?;
    }
    for (i, batch) in encoded.chunks_exact(16).enumerate() {
        t.time("model.score_b16", i as u64, None, || {
            engine.predict_into(model, batch, opts, &mut preds)
        });
    }

    // The online runtime on a scratch store: learn, checkpoint, publish.
    let mut learner = OnlineRuntime::new(
        pipeline.clone(),
        CheckpointStore::open(scratch(dir, "runtime-ckpt")?, 3, RetryPolicy::default())?,
        RuntimeConfig::default(),
    )?;
    learner.checkpoint()?;
    let mut learn_ns = Vec::with_capacity(SLICE);
    for (i, row) in inputs.pool.iter().take(SLICE).enumerate() {
        let span = t.tracer.open("runtime.learn", i as u64, None);
        let start = Instant::now();
        let outcome = learner.learn(row, inputs.pool_labels[i])?;
        let ns = start.elapsed().as_nanos() as f64;
        t.tracer.close(span, i as u64, 0);
        if outcome.checkpoint.is_none() {
            learn_ns.push(ns);
        }
    }
    for i in 0..5 {
        t.time("runtime.checkpoint", i, None, || learner.checkpoint())?;
    }
    for i in 0..32 {
        t.time("runtime.publish", i, None, || learner.publish_snapshot());
    }

    // Training-time layers, on the training rows.
    let train_encoded = t.time("pipeline.encode_batch", 0, None, || {
        pipeline.encoder().encode_batch(&inputs.train)
    })?;
    let mut fitted = t.time("pipeline.fit", 0, None, || {
        HdcModel::fit(&train_encoded, &inputs.train_labels, inputs.n_classes)
    })?;
    t.time("pipeline.retrain_epoch", 0, None, || {
        fitted.retrain_epoch(&train_encoded, &inputs.train_labels)
    })?;

    Ok(vec![
        Metric::new("net.decode_ns", t.median("net.decode"), "ns"),
        Metric::new("net.encode_ns", t.median("net.encode"), "ns"),
        Metric::new("encoding.encode_ns", t.median("encoding.encode"), "ns"),
        Metric::new("model.score_ns_b1", t.median("model.score_b1"), "ns"),
        Metric::new(
            "model.score_ns_b16",
            t.median("model.score_b16") / 16.0,
            "ns",
        ),
        Metric::new("registry.get_ns", t.median("registry.get"), "ns"),
        Metric::new("registry.binarize_ns", t.median("registry.binarize"), "ns"),
        Metric::new(
            "registry.view_score_ns",
            t.median("registry.view_score"),
            "ns",
        ),
        Metric::new(
            "registry.view_score_pruned_ns",
            t.median("registry.view_score_pruned"),
            "ns",
        ),
        Metric::new(
            "registry.cold_load_us",
            t.median("registry.cold_load") / 1e3,
            "us",
        ),
        Metric::new(
            "registry.publish_ms",
            t.median("registry.publish") / 1e6,
            "ms",
        ),
        Metric::new("runtime.learn_us_p50", median(&learn_ns) / 1e3, "us"),
        Metric::new(
            "runtime.checkpoint_ms",
            t.median("runtime.checkpoint") / 1e6,
            "ms",
        ),
        Metric::new(
            "runtime.publish_us",
            t.median("runtime.publish") / 1e3,
            "us",
        ),
        Metric::new(
            "pipeline.encode_batch_ms",
            t.median("pipeline.encode_batch") / 1e6,
            "ms",
        ),
        Metric::new("pipeline.fit_ms", t.median("pipeline.fit") / 1e6, "ms"),
        Metric::new(
            "pipeline.retrain_epoch_ms",
            t.median("pipeline.retrain_epoch") / 1e6,
            "ms",
        ),
    ])
}

/// Registry get → binarize → mapped-view score for one query; returns
/// the predicted label.
fn score_tenant(
    t: &mut Timer,
    registry: &ModelRegistry,
    name: &str,
    hv: &IntHv,
    scores: &mut Vec<f64>,
    rid: u64,
    parent: Option<u32>,
) -> BenchResult<usize> {
    let handle = t.time("registry.get", rid, parent, || registry.get(name))?;
    let query = t.time("registry.binarize", rid, parent, || hv.to_binary());
    let view = handle.view();
    let span = if view.is_pruned() {
        "registry.view_score_pruned"
    } else {
        "registry.view_score"
    };
    t.time(span, rid, parent, || {
        view.scores_into_with(&query, kernels::active(), scores)
    })?;
    Ok(argmax_last(scores))
}
