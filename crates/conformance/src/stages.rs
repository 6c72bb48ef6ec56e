//! Differential stage executors: one scenario through every
//! implementation pair, comparing outputs at each boundary.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use generic_hdc::encoding::{Encoder, GenericEncoderSpec};
use generic_hdc::io::{read_packed, ReadModelError};
use generic_hdc::kernels;
use generic_hdc::ledger::{FsOp, LedgerFs, MANIFEST_NAME};
use generic_hdc::net::{read_frame, Frame, NetFrontend, NetStatus};
use generic_hdc::oracle::{
    BundleKernel, DifferentialKernel, DotI32Kernel, EncodeKernel, PackedScoreKernel, PruneKernel,
    PrunedScoreKernel, RetrainKernel, SaliencyKernel, ScoreBatchKernel, ScoreKernel, StageKind,
};
use generic_hdc::registry::{ModelRegistry, RegistryConfig};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    BinaryHv, HdcModel, HdcPipeline, IntHv, Mapping, NormMode, PackedModel, PredictOptions,
    QuantizedModel, ResilienceConfig, ResilientPipeline, ServeConfig, Server,
};
use generic_sim::{mitchell_divide_wide, Accelerator, AcceleratorConfig};

use crate::scenario::{synth_dataset, Scenario};

/// Quantization levels used by every scenario — the simulator's
/// architectural constant, so the software and hardware encoders are
/// programmed identically.
pub const SCENARIO_LEVELS: usize = 64;

/// A deliberately injected kernel bug, used to prove the harness catches
/// and shrinks real divergences (the mutation-testing acceptance check).
/// Mutations perturb the *fast* side of one boundary on the first
/// affected sample, exactly as a silent kernel regression would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No injected bug: every boundary must agree.
    None,
    /// Corrupts dimension 0 of the bit-sliced encoder's output for
    /// sample 0.
    EncodeBitFlip,
    /// Skews the packed scorer's class-0 score for sample 0.
    PackedScoreSkew,
    /// Drifts class 0 of the fast retraining result in the first epoch.
    RetrainDrift,
}

/// A boundary where the fast path and its oracle disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The stage whose boundary broke.
    pub stage: StageKind,
    /// The registry kernel (or harness step) that disagreed.
    pub kernel: String,
    /// A truncated human-readable description of the first difference.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.kernel, self.detail)
    }
}

/// Everything one scenario execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The executed scenario.
    pub scenario: Scenario,
    /// Comparisons performed per stage, in [`StageKind::ALL`] order.
    /// Stages after a divergence report zero checks.
    pub coverage: Vec<(StageKind, u64)>,
    /// The first boundary disagreement, if any.
    pub divergence: Option<Divergence>,
}

impl ScenarioReport {
    /// Total comparisons across all stages.
    pub fn total_checks(&self) -> u64 {
        self.coverage.iter().map(|&(_, n)| n).sum()
    }
}

/// Runs one clean scenario through every implementation pair.
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    run_scenario_mutated(scenario, Mutation::None)
}

/// Runs one scenario with an optional injected kernel bug.
pub fn run_scenario_mutated(scenario: &Scenario, mutation: Mutation) -> ScenarioReport {
    let mut coverage = Coverage::new();
    let divergence = execute(scenario, mutation, &mut coverage).err();
    ScenarioReport {
        scenario: scenario.clone(),
        coverage: coverage.finish(),
        divergence,
    }
}

struct Coverage {
    counts: [u64; StageKind::ALL.len()],
}

impl Coverage {
    fn new() -> Self {
        Coverage {
            counts: [0; StageKind::ALL.len()],
        }
    }

    fn add(&mut self, stage: StageKind, n: u64) {
        let index = StageKind::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage registered in StageKind::ALL");
        self.counts[index] += n;
    }

    fn finish(self) -> Vec<(StageKind, u64)> {
        StageKind::ALL.iter().copied().zip(self.counts).collect()
    }
}

fn execute(
    scenario: &Scenario,
    mutation: Mutation,
    coverage: &mut Coverage,
) -> Result<(), Divergence> {
    let (features, labels) = synth_dataset(scenario);
    let spec = GenericEncoderSpec::new(scenario.dim, scenario.n_features)
        .with_levels(SCENARIO_LEVELS)
        .with_window(scenario.window)
        .with_id_binding(scenario.id_binding)
        .with_seeded_ids(true)
        .with_seed(scenario.seed);
    let pipeline = HdcPipeline::train(
        spec,
        &features,
        &labels,
        scenario.n_classes,
        scenario.epochs,
    )
    .map_err(|e| harness_failure(StageKind::Encode, "pipeline_train", &e))?;

    let encoded = stage_encode(scenario, mutation, coverage, &pipeline, &features)?;
    stage_retrain(scenario, mutation, coverage, &encoded, &labels)?;
    stage_score(scenario, coverage, &pipeline, &encoded)?;
    let quantized = stage_quant_score(scenario, mutation, coverage, &pipeline, &encoded)?;
    stage_resilient(scenario, coverage, &pipeline, &quantized, &encoded)?;
    stage_checkpoint(scenario, coverage, &pipeline, &features)?;
    stage_sim(scenario, coverage, &pipeline, &features)?;
    stage_concurrent_serve(scenario, coverage, &pipeline, &features, &labels)?;
    stage_registry(scenario, coverage, &pipeline, &encoded)?;
    stage_network(scenario, coverage, &pipeline, &features)?;
    stage_compress(scenario, coverage, &pipeline, &features, &encoded, &labels)?;
    Ok(())
}

/// Bit-sliced vs scalar encoding, plus pipeline-path parity; returns the
/// (reference) encoded dataset for downstream stages.
fn stage_encode(
    _scenario: &Scenario,
    mutation: Mutation,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
) -> Result<Vec<IntHv>, Divergence> {
    const STAGE: StageKind = StageKind::Encode;
    let encoder = pipeline.encoder();
    let kernel = EncodeKernel { encoder };
    let mut encoded = Vec::with_capacity(features.len());
    for (i, sample) in features.iter().enumerate() {
        let bins = encoder
            .quantizer()
            .bins(sample)
            .map_err(|e| harness_failure(STAGE, "quantizer_bins", &e))?;
        let mut fast = kernel
            .fast(&bins)
            .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
        if mutation == Mutation::EncodeBitFlip && i == 0 {
            fast = perturb_hv(fast);
        }
        let reference = kernel
            .reference(&bins)
            .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
        if fast != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: kernel.entry().name.to_string(),
                detail: format!(
                    "sample {i}: {}",
                    first_i32_diff(fast.values(), reference.values())
                ),
            });
        }
        let via_pipeline = pipeline
            .encode(sample)
            .map_err(|e| harness_failure(STAGE, "pipeline_encode", &e))?;
        if via_pipeline != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: "pipeline_encode".to_string(),
                detail: format!(
                    "sample {i}: {}",
                    first_i32_diff(via_pipeline.values(), reference.values())
                ),
            });
        }
        coverage.add(STAGE, 2);
        encoded.push(reference);
    }

    // Every ISA variant detected on this host must ripple-bundle the
    // binarized dataset exactly like scalar accumulation.
    let binarized: Vec<BinaryHv> = encoded.iter().map(IntHv::to_binary).collect();
    for isa in kernels::available() {
        let kernel = BundleKernel { isa };
        let name = format!("{}[{isa}]", kernel.entry().name);
        let fast = kernel
            .fast(&binarized)
            .map_err(|e| harness_failure(STAGE, &name, &e))?;
        let reference = kernel
            .reference(&binarized)
            .map_err(|e| harness_failure(STAGE, &name, &e))?;
        if fast != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: name,
                detail: first_i32_diff(fast.values(), reference.values()),
            });
        }
        coverage.add(STAGE, 1);
    }
    Ok(encoded)
}

/// Blocked and parallel retraining epochs vs the scalar epoch, evolving
/// the model between epochs so later epochs start from realistic state.
fn stage_retrain(
    scenario: &Scenario,
    mutation: Mutation,
    coverage: &mut Coverage,
    encoded: &[IntHv],
    labels: &[usize],
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Retrain;
    let mut base = HdcModel::fit(encoded, labels, scenario.n_classes)
        .map_err(|e| harness_failure(STAGE, "fit", &e))?;
    let batch = (encoded.to_vec(), labels.to_vec());
    for epoch in 0..scenario.epochs.max(1) {
        // Odd epochs exercise the multi-threaded kernel so both fast
        // paths are covered in every scenario.
        let threads = if epoch % 2 == 1 { 3 } else { 1 };
        let kernel = RetrainKernel {
            model: &base,
            threads,
        };
        let mut fast = kernel
            .fast(&batch)
            .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
        if mutation == Mutation::RetrainDrift && epoch == 0 {
            fast.0[0][0] += 1;
        }
        let reference = kernel
            .reference(&batch)
            .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
        if fast.1 != reference.1 {
            return Err(Divergence {
                stage: STAGE,
                kernel: kernel.entry().name.to_string(),
                detail: format!(
                    "epoch {epoch}: fast counted {} errors, reference {}",
                    fast.1, reference.1
                ),
            });
        }
        for (c, (fc, rc)) in fast.0.iter().zip(&reference.0).enumerate() {
            if fc != rc {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: kernel.entry().name.to_string(),
                    detail: format!("epoch {epoch} class {c}: {}", first_i32_diff(fc, rc)),
                });
            }
        }
        coverage.add(STAGE, 1 + scenario.n_classes as u64);
        base.retrain_epoch_scalar(encoded, labels)
            .map_err(|e| harness_failure(STAGE, "retrain_epoch_scalar", &e))?;
    }
    Ok(())
}

/// Blocked vs scalar similarity scoring at full dimension and at the
/// scenario's reduction tier, in both norm modes.
fn stage_score(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    encoded: &[IntHv],
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Score;
    let model = pipeline.model();
    let variants = [
        PredictOptions::full(scenario.dim),
        PredictOptions::reduced(scenario.reduced_dims, NormMode::Updated),
        PredictOptions::reduced(scenario.reduced_dims, NormMode::Constant),
    ];
    for opts in variants {
        let kernel = ScoreKernel { model, opts };
        for (i, query) in encoded.iter().enumerate() {
            let fast = kernel
                .fast(query)
                .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
            let reference = kernel
                .reference(query)
                .map_err(|e| harness_failure(STAGE, kernel.entry().name, &e))?;
            if fast != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: kernel.entry().name.to_string(),
                    detail: format!(
                        "sample {i} ({opts:?}): {}",
                        first_f64_diff(&fast, &reference)
                    ),
                });
            }
            coverage.add(STAGE, 1);
        }
    }

    // Per-ISA sweeps: the SIMD widening-dot primitive and the batched
    // scoring engine against their scalar oracles, on every kernel set
    // `kernels::available` reports.
    for isa in kernels::available() {
        let dot = DotI32Kernel { isa };
        for (i, pair) in encoded.windows(2).take(4).enumerate() {
            let name = format!("{}[{isa}]", dot.entry().name);
            let input = (pair[0].clone(), pair[1].clone());
            let fast = dot
                .fast(&input)
                .map_err(|e| harness_failure(STAGE, &name, &e))?;
            let reference = dot
                .reference(&input)
                .map_err(|e| harness_failure(STAGE, &name, &e))?;
            if fast != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: name,
                    detail: format!("pair {i}: fast {fast} vs reference {reference}"),
                });
            }
            coverage.add(STAGE, 1);
        }

        for opts in variants {
            let batch = ScoreBatchKernel { model, opts, isa };
            let name = format!("{}[{isa}]", batch.entry().name);
            let fast = batch
                .fast(encoded)
                .map_err(|e| harness_failure(STAGE, &name, &e))?;
            let reference = batch
                .reference(encoded)
                .map_err(|e| harness_failure(STAGE, &name, &e))?;
            if fast != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: name,
                    detail: format!("({opts:?}): {}", first_f64_diff(&fast, &reference)),
                });
            }
            coverage.add(STAGE, 1);
        }
    }
    Ok(())
}

/// Packed bit-plane scoring (the v3 view, on every detected ISA) vs
/// unpacked quantized scoring on binarized queries, plus the
/// `from_parts` reassembly boundary; returns the quantized model for the
/// resilient stage.
fn stage_quant_score(
    scenario: &Scenario,
    mutation: Mutation,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    encoded: &[IntHv],
) -> Result<QuantizedModel, Divergence> {
    const STAGE: StageKind = StageKind::QuantScore;
    let quantized = QuantizedModel::from_model(pipeline.model(), scenario.bit_width)
        .map_err(|e| harness_failure(STAGE, "from_model", &e))?;
    let packed = quantized
        .pack()
        .map_err(|e| harness_failure(STAGE, "pack", &e))?;

    // The raw-parts boundary must reassemble the identical model (this is
    // where the historical 1-bit sign regression lived).
    let rows: Vec<Vec<i16>> = (0..quantized.n_classes())
        .map(|c| quantized.class(c).to_vec())
        .collect();
    let reassembled = QuantizedModel::from_parts(scenario.dim, scenario.bit_width, rows)
        .map_err(|e| harness_failure(STAGE, "from_parts", &e))?;
    if reassembled != quantized {
        return Err(Divergence {
            stage: STAGE,
            kernel: "from_parts".to_string(),
            detail: "reassembled quantized model differs from the original".to_string(),
        });
    }
    coverage.add(STAGE, 1);

    for isa in kernels::available() {
        let kernel = PackedScoreKernel {
            quantized: &quantized,
            packed: &packed,
            isa,
        };
        let name = kernel.entry().name;
        for (i, query) in encoded.iter().enumerate() {
            let binary = query.to_binary();
            let mut fast = kernel
                .fast(&binary)
                .map_err(|e| harness_failure(STAGE, name, &e))?;
            if mutation == Mutation::PackedScoreSkew && i == 0 {
                fast[0] += 1e-3;
            }
            let reference = kernel
                .reference(&binary)
                .map_err(|e| harness_failure(STAGE, name, &e))?;
            if fast != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: name.to_string(),
                    detail: format!("[{isa}] sample {i}: {}", first_f64_diff(&fast, &reference)),
                });
            }
            coverage.add(STAGE, 1);
        }
    }
    Ok(quantized)
}

/// The resilient pipeline at its unmitigated baseline vs direct
/// quantized cosine inference at full dimension.
fn stage_resilient(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    quantized: &QuantizedModel,
    encoded: &[IntHv],
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Resilient;
    let mut resilient = ResilientPipeline::new(
        pipeline.clone(),
        scenario.bit_width,
        ResilienceConfig::baseline(),
    )
    .map_err(|e| harness_failure(STAGE, "resilient_new", &e))?;
    for (i, query) in encoded.iter().enumerate() {
        let got = resilient.predict_encoded(query);
        // The baseline contract: one fault-free full-dimension cosine
        // pass, first maximum wins.
        let scores = quantized.cosine_scores(query, scenario.dim);
        let expected = argmax_first(&scores);
        if got != expected {
            return Err(Divergence {
                stage: STAGE,
                kernel: "resilient_baseline".to_string(),
                detail: format!("sample {i}: resilient predicted {got}, cosine oracle {expected}"),
            });
        }
        coverage.add(STAGE, 1);
    }
    Ok(())
}

/// Pipeline serialization canonicality, checkpoint-store save/load, and
/// the online runtime's full-dimension tier vs direct prediction.
fn stage_checkpoint(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::CheckpointRestore;
    const KERNEL: &str = "pipeline_checkpoint";

    // write ∘ read ∘ write must be byte-identical (canonical format).
    let mut bytes = Vec::new();
    pipeline
        .write_to(&mut bytes)
        .map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
    let restored =
        HdcPipeline::read_from(&bytes[..]).map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
    let mut rewritten = Vec::new();
    restored
        .write_to(&mut rewritten)
        .map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
    if rewritten != bytes {
        return Err(Divergence {
            stage: STAGE,
            kernel: KERNEL.to_string(),
            detail: format!(
                "serialization is not canonical: {} vs {} bytes",
                rewritten.len(),
                bytes.len()
            ),
        });
    }
    coverage.add(STAGE, 1);
    for (i, sample) in features.iter().enumerate() {
        let a = pipeline
            .predict(sample)
            .map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
        let b = restored
            .predict(sample)
            .map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
        if a != b {
            return Err(Divergence {
                stage: STAGE,
                kernel: KERNEL.to_string(),
                detail: format!("sample {i}: original predicts {a}, restored {b}"),
            });
        }
        coverage.add(STAGE, 1);
    }

    if !scenario.checkpoint {
        return Ok(());
    }

    // Atomic store round-trip plus the runtime's no-budget (full
    // dimension) inference tier.
    let dir = unique_temp_dir(scenario.seed);
    let result = checkpoint_store_cycle(scenario, coverage, pipeline, features, &bytes, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn checkpoint_store_cycle(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    canonical: &[u8],
    dir: &std::path::Path,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::CheckpointRestore;
    const KERNEL: &str = "checkpoint_store";
    let io_err = |e: &dyn std::fmt::Display| Divergence {
        stage: STAGE,
        kernel: KERNEL.to_string(),
        detail: format!("store error: {e}"),
    };
    let mut store =
        CheckpointStore::open(dir, 2, RetryPolicy::default()).map_err(|e| io_err(&e))?;
    store
        .save(pipeline, 1, features.len() as u64, 0.0)
        .map_err(|e| io_err(&e))?;
    let checkpoint = store.load_generation(1).map_err(|e| io_err(&e))?;
    let mut reloaded = Vec::new();
    checkpoint
        .pipeline
        .write_to(&mut reloaded)
        .map_err(|e| io_err(&e))?;
    if reloaded != canonical {
        return Err(Divergence {
            stage: STAGE,
            kernel: KERNEL.to_string(),
            detail: "checkpointed pipeline bytes differ from a direct serialization".to_string(),
        });
    }
    coverage.add(STAGE, 1);

    let mut runtime = OnlineRuntime::new(pipeline.clone(), store, RuntimeConfig::default())
        .map_err(|e| io_err(&e))?;
    if runtime.ladder().choose(None) != runtime.ladder().full_tier() {
        return Err(Divergence {
            stage: STAGE,
            kernel: "degradation_ladder".to_string(),
            detail: "no-budget requests must choose the full-dimension tier".to_string(),
        });
    }
    coverage.add(STAGE, 1);
    for (i, sample) in features.iter().enumerate() {
        let outcome = runtime.infer(sample, None).map_err(|e| io_err(&e))?;
        let direct = pipeline
            .predict(sample)
            .map_err(|e| harness_failure(STAGE, KERNEL, &e))?;
        if outcome.degraded || outcome.dims_used != scenario.dim {
            return Err(Divergence {
                stage: STAGE,
                kernel: "degradation_ladder".to_string(),
                detail: format!(
                    "sample {i}: no-budget inference served at {} of {} dims",
                    outcome.dims_used, scenario.dim
                ),
            });
        }
        if outcome.label != direct {
            return Err(Divergence {
                stage: STAGE,
                kernel: "runtime_infer".to_string(),
                detail: format!(
                    "sample {i}: runtime predicted {}, direct pipeline {direct}",
                    outcome.label
                ),
            });
        }
        coverage.add(STAGE, 1);
    }
    Ok(())
}

/// The cycle simulator vs independent scalar recomputation: encoder
/// parity, hardware scores from the class rows + chunked norms, and
/// activity counters vs the closed-form cost model.
fn stage_sim(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
) -> Result<(), Divergence> {
    let sim_err = |kernel: &str, e: &dyn std::fmt::Display| Divergence {
        stage: StageKind::SimScore,
        kernel: kernel.to_string(),
        detail: format!("simulator error: {e}"),
    };
    let config = AcceleratorConfig::new(scenario.dim, scenario.n_features, scenario.n_classes)
        .with_window(scenario.window)
        .with_bit_width(scenario.bit_width)
        .with_id_binding(scenario.id_binding)
        .with_seed(scenario.seed);
    let mut accelerator =
        Accelerator::new(config, features).map_err(|e| sim_err("accelerator_new", &e))?;
    accelerator
        .load_model(pipeline.model())
        .map_err(|e| sim_err("load_model", &e))?;

    // The hardware class memory must hold exactly the quantized rows.
    let quantized = QuantizedModel::from_model(pipeline.model(), scenario.bit_width)
        .map_err(|e| sim_err("from_model", &e))?;
    for c in 0..scenario.n_classes {
        if accelerator.class_row(c) != quantized.class(c) {
            return Err(Divergence {
                stage: StageKind::SimScore,
                kernel: "sim_class_memory".to_string(),
                detail: format!("class {c}: loaded rows differ from software quantization"),
            });
        }
        coverage.add(StageKind::SimScore, 1);
    }

    for (i, sample) in features.iter().enumerate() {
        // Encoder parity: the simulator programs the same item memories.
        accelerator.reset_activity();
        let hw_encoded = accelerator
            .encode(sample)
            .map_err(|e| sim_err("sim_encoder", &e))?;
        let encode_activity = *accelerator.activity();
        let sw_encoded = pipeline
            .encode(sample)
            .map_err(|e| sim_err("sim_encoder", &e))?;
        if hw_encoded != sw_encoded {
            return Err(Divergence {
                stage: StageKind::SimScore,
                kernel: "sim_encoder".to_string(),
                detail: format!(
                    "sample {i}: {}",
                    first_i32_diff(hw_encoded.values(), sw_encoded.values())
                ),
            });
        }
        coverage.add(StageKind::SimScore, 1);
        let expected_encode = generic_sim::mitigation::encode_activity(accelerator.config(), true);
        if encode_activity != expected_encode {
            return Err(Divergence {
                stage: StageKind::SimActivity,
                kernel: "sim_activity".to_string(),
                detail: format!(
                    "sample {i}: encode charged {encode_activity:?}, formula {expected_encode:?}"
                ),
            });
        }
        coverage.add(StageKind::SimActivity, 1);

        // Full-dimension and reduced-tier inference.
        for dims in [scenario.dim, scenario.reduced_dims] {
            accelerator.reset_activity();
            let outcome = accelerator
                .infer_reduced(sample, dims)
                .map_err(|e| sim_err("sim_hw_scores", &e))?;
            let activity = *accelerator.activity();
            let oracle = hw_score_oracle(&accelerator, &sw_encoded, dims, scenario.n_classes);
            if outcome.scores != oracle {
                return Err(Divergence {
                    stage: StageKind::SimScore,
                    kernel: "sim_hw_scores".to_string(),
                    detail: format!(
                        "sample {i} dims {dims}: {}",
                        first_f64_diff(&outcome.scores, &oracle)
                    ),
                });
            }
            let expected_prediction = argmax_first(&oracle);
            if outcome.prediction != expected_prediction {
                return Err(Divergence {
                    stage: StageKind::SimScore,
                    kernel: "sim_hw_scores".to_string(),
                    detail: format!(
                        "sample {i} dims {dims}: predicted {}, oracle argmax {expected_prediction}",
                        outcome.prediction
                    ),
                });
            }
            coverage.add(StageKind::SimScore, 2);

            let expected_activity = generic_sim::mitigation::infer_activity(
                accelerator.config(),
                dims,
                scenario.n_classes,
            );
            if activity != expected_activity {
                return Err(Divergence {
                    stage: StageKind::SimActivity,
                    kernel: "sim_activity".to_string(),
                    detail: format!(
                        "sample {i} dims {dims}: inference charged {activity:?}, formula {expected_activity:?}"
                    ),
                });
            }
            coverage.add(StageKind::SimActivity, 1);
        }
    }
    Ok(())
}

/// Independent scalar recomputation of the hardware score path:
/// exact integer dot products over the stored class rows, freshly
/// recomputed 128-dim chunk norms, and the same Mitchell division.
fn hw_score_oracle(
    accelerator: &Accelerator,
    query: &IntHv,
    dims: usize,
    n_classes: usize,
) -> Vec<f64> {
    (0..n_classes)
        .map(|c| {
            let row = &accelerator.class_row(c)[..dims];
            let dot: i64 = query.values()[..dims]
                .iter()
                .zip(row)
                .map(|(&q, &w)| i64::from(q) * i64::from(w))
                .sum();
            let norm2: u64 = row
                .chunks(128)
                .map(|chunk| {
                    chunk
                        .iter()
                        .map(|&v| (i64::from(v) * i64::from(v)) as u64)
                        .sum::<u64>()
                })
                .sum();
            if norm2 == 0 {
                return 0.0;
            }
            let dot2 = (i128::from(dot) * i128::from(dot)) as u128;
            let quotient = mitchell_divide_wide(dot2, norm2);
            if dot < 0 {
                -quotient
            } else {
                quotient
            }
        })
        .collect()
}

/// First-maximum argmax — the tie-break both the resilient first pass
/// and the simulator's score finalization use.
fn argmax_first(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

fn perturb_hv(hv: IntHv) -> IntHv {
    let mut values = hv.into_values();
    values[0] += 1;
    IntHv::from_values(values).expect("non-empty vector stays valid")
}

fn harness_failure(stage: StageKind, kernel: &str, error: &dyn std::fmt::Display) -> Divergence {
    Divergence {
        stage,
        kernel: kernel.to_string(),
        detail: format!("harness step failed: {error}"),
    }
}

fn first_i32_diff(fast: &[i32], reference: &[i32]) -> String {
    match fast.iter().zip(reference).position(|(a, b)| a != b) {
        Some(i) => format!(
            "first difference at dim {i}: fast {} vs reference {}",
            fast[i], reference[i]
        ),
        None => format!(
            "lengths differ: fast {} vs reference {}",
            fast.len(),
            reference.len()
        ),
    }
}

fn first_f64_diff(fast: &[f64], reference: &[f64]) -> String {
    match fast.iter().zip(reference).position(|(a, b)| a != b) {
        Some(i) => format!(
            "first difference at class {i}: fast {} vs reference {}",
            fast[i], reference[i]
        ),
        None => format!(
            "lengths differ: fast {} vs reference {}",
            fast.len(),
            reference.len()
        ),
    }
}

/// The sharded concurrent server vs the scalar oracle: every answer
/// carries the immutable snapshot it was scored against, so replaying
/// the request through the scalar predictor on that snapshot at the
/// answered dimensionality must reproduce the label bit-for-bit — even
/// while the writer shard folds labeled samples in concurrently.
fn stage_concurrent_serve(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    labels: &[usize],
) -> Result<(), Divergence> {
    let dir = unique_temp_dir(scenario.seed ^ 0x5E_57_E0);
    let result = concurrent_serve_cycle(coverage, pipeline, features, labels, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn concurrent_serve_cycle(
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    labels: &[usize],
    dir: &std::path::Path,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::ConcurrentServe;
    const KERNEL: &str = "serve_answer";
    let err = |e: &dyn std::fmt::Display| harness_failure(STAGE, KERNEL, &e);

    let store = CheckpointStore::open(dir, 2, RetryPolicy::default()).map_err(|e| err(&e))?;
    let config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime = OnlineRuntime::new(pipeline.clone(), store, config).map_err(|e| err(&e))?;
    let serve_config = ServeConfig {
        shards: 2,
        batch_max: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(runtime, serve_config).map_err(|e| err(&e))?;
    let handle = server.handle();

    // Interleave learn submissions with inference so answers race a
    // live writer: snapshots pin whatever model state each batch saw.
    let mut tickets = Vec::new();
    for (i, sample) in features.iter().enumerate() {
        if i % 3 == 0 {
            // Fire-and-forget: writer backpressure may drop some under
            // load, which is fine — the oracle replays the *pinned*
            // snapshot, not a predicted model state.
            let _ = handle.submit_learn(sample.clone(), labels[i]);
        }
        match handle.submit(sample.clone(), None) {
            Ok(ticket) => tickets.push((i, ticket)),
            Err(e) => {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("sample {i}: clean unbudgeted row refused admission: {e}"),
                })
            }
        }
    }

    for (i, ticket) in tickets {
        let answer = match ticket.wait() {
            Ok(answer) => answer,
            Err(e) => {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("sample {i}: admitted request not answered: {e}"),
                })
            }
        };
        let snapshot_pipeline = answer.snapshot.pipeline();
        let encoded = snapshot_pipeline
            .encoder()
            .encode(&features[i])
            .map_err(|e| err(&e))?;
        let opts = PredictOptions::reduced(answer.dims_used, NormMode::Updated);
        let oracle = snapshot_pipeline
            .model()
            .try_predict_with(&encoded, opts)
            .map_err(|e| err(&e))?;
        if oracle != answer.label {
            return Err(Divergence {
                stage: STAGE,
                kernel: KERNEL.to_string(),
                detail: format!(
                    "sample {i}: shard {} answered {} but the scalar oracle on the \
                     pinned snapshot ({} dims) predicts {oracle}",
                    answer.shard, answer.label, answer.dims_used
                ),
            });
        }
        coverage.add(STAGE, 1);
    }

    let report = server.drain().map_err(|e| err(&e))?;
    if report.serve.admitted != report.workers.answered + report.serve.canceled {
        return Err(Divergence {
            stage: STAGE,
            kernel: "serve_accounting".to_string(),
            detail: format!(
                "admitted {} != answered {} + canceled {}",
                report.serve.admitted, report.workers.answered, report.serve.canceled
            ),
        });
    }
    coverage.add(STAGE, 1);
    Ok(())
}

/// The framed TCP front-end vs the in-process `ServerHandle` oracle:
/// seeded requests are replayed through a loopback [`NetFrontend`] and
/// every answered frame must carry exactly the label the in-process
/// path produces, with the scalar predictor on the pinned snapshot
/// agreeing bit-for-bit at the answered dimensionality. Tenant-routed
/// frames are checked against the published model's scalar oracle, a
/// deliberately tight deadline must come back as either a valid answer
/// or a [`NetStatus::Shed`] refusal, a malformed frame must drop only
/// its own connection, and graceful shutdown must end the surviving
/// connection with a [`Frame::Goodbye`] status frame.
fn stage_network(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
) -> Result<(), Divergence> {
    let dir = unique_temp_dir(scenario.seed ^ 0x4E_E7_50);
    let result = network_cycle(scenario, coverage, pipeline, features, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn network_cycle(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    dir: &std::path::Path,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Network;
    const KERNEL: &str = "net_answer";
    let err = |e: &dyn std::fmt::Display| harness_failure(STAGE, KERNEL, &e);

    // Shared-model server plus one published tenant, no learn traffic:
    // the snapshot pinned before any request stays the scoring model
    // for the whole stage, so every oracle replay is deterministic.
    let registry_dir = dir.join("registry");
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&registry_dir).map_err(|e| err(&e))?;
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| err(&e))?;
    let registry_config = RegistryConfig {
        dim: scenario.dim,
        ..RegistryConfig::default()
    };
    let registry = ModelRegistry::open(&registry_dir, registry_config).map_err(|e| err(&e))?;
    let tenant_model =
        QuantizedModel::from_model(pipeline.model(), scenario.bit_width).map_err(|e| err(&e))?;
    registry
        .publish("conformance", &tenant_model)
        .map_err(|e| err(&e))?;

    let store = CheckpointStore::open(&ckpt_dir, 2, RetryPolicy::default()).map_err(|e| err(&e))?;
    let config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime = OnlineRuntime::new(pipeline.clone(), store, config).map_err(|e| err(&e))?;
    let serve_config = ServeConfig {
        shards: 2,
        batch_max: 4,
        ..ServeConfig::default()
    };
    let server = Server::start_with_registry(runtime, serve_config, Some(registry.into()))
        .map_err(|e| err(&e))?;
    let handle = server.handle();
    let snapshot = handle.snapshots().load();

    let frontend = NetFrontend::bind("127.0.0.1:0", handle.clone()).map_err(|e| err(&e))?;
    let addr = frontend.local_addr();
    let stage_result = (|| -> Result<(), Divergence> {
        let mut conn = std::net::TcpStream::connect(addr).map_err(|e| err(&e))?;
        conn.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .map_err(|e| err(&e))?;

        // Pipeline shared and tenant-routed requests on one connection;
        // responses arrive in request order.
        let shared_n = features.len().min(8);
        let tenant_n = features.len().min(4);
        for (i, sample) in features.iter().take(shared_n).enumerate() {
            let frame = Frame::Infer {
                request_id: i as u64,
                deadline_us: 0,
                tenant: None,
                features: sample.clone(),
            };
            std::io::Write::write_all(&mut conn, &frame.encode()).map_err(|e| err(&e))?;
        }
        for (i, sample) in features.iter().take(tenant_n).enumerate() {
            let frame = Frame::Infer {
                request_id: 100 + i as u64,
                deadline_us: 0,
                tenant: Some("conformance".to_owned()),
                features: sample.clone(),
            };
            std::io::Write::write_all(&mut conn, &frame.encode()).map_err(|e| err(&e))?;
        }

        // Shared answers: the frame's label must match both the scalar
        // oracle replayed on the pinned snapshot at the answered
        // dimensionality AND the in-process ServerHandle for the same
        // request (same static snapshot, so both are deterministic).
        for (i, sample) in features.iter().take(shared_n).enumerate() {
            let frame = read_frame(&mut conn)
                .map_err(|e| err(&e))?
                .ok_or_else(|| harness_failure(STAGE, KERNEL, &"connection closed mid-stream"))?;
            let Frame::Answer {
                request_id,
                label,
                dims_used,
                ..
            } = frame
            else {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("sample {i}: expected an Answer frame, got {frame:?}"),
                });
            };
            if request_id != i as u64 {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "responses out of order: expected request {i}, got {request_id}"
                    ),
                });
            }
            let encoded = snapshot
                .pipeline()
                .encoder()
                .encode(sample)
                .map_err(|e| err(&e))?;
            let opts = PredictOptions::reduced(dims_used as usize, NormMode::Updated);
            let oracle = snapshot
                .pipeline()
                .model()
                .try_predict_with(&encoded, opts)
                .map_err(|e| err(&e))?;
            if oracle != label as usize {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "sample {i}: the socket answered {label} but the scalar oracle on \
                         the pinned snapshot ({dims_used} dims) predicts {oracle}"
                    ),
                });
            }
            let in_process = handle
                .submit(sample.clone(), None)
                .map_err(|e| err(&e))?
                .wait()
                .map_err(|e| err(&e))?;
            if in_process.label != label as usize {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "sample {i}: the socket answered {label} but the in-process \
                         ServerHandle answers {}",
                        in_process.label
                    ),
                });
            }
            coverage.add(STAGE, 2);
        }

        // Tenant-routed answers against the published model's scalar
        // oracle (last-wins argmax, the documented tie-break).
        for (i, sample) in features.iter().take(tenant_n).enumerate() {
            let frame = read_frame(&mut conn)
                .map_err(|e| err(&e))?
                .ok_or_else(|| harness_failure(STAGE, KERNEL, &"connection closed mid-stream"))?;
            let Frame::Answer {
                request_id, label, ..
            } = frame
            else {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("tenant sample {i}: expected an Answer frame, got {frame:?}"),
                });
            };
            if request_id != 100 + i as u64 {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "tenant responses out of order: expected request {}, got {request_id}",
                        100 + i
                    ),
                });
            }
            let query = snapshot
                .pipeline()
                .encoder()
                .encode(sample)
                .map_err(|e| err(&e))?
                .to_binary();
            let scores = tenant_model.scores(&IntHv::from(query));
            let mut oracle = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (c, &s) in scores.iter().enumerate() {
                if s >= best {
                    best = s;
                    oracle = c;
                }
            }
            if oracle != label as usize {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "tenant sample {i}: the socket answered {label} but the published \
                         model's scalar oracle predicts {oracle}"
                    ),
                });
            }
            coverage.add(STAGE, 1);
        }

        // A deliberately hopeless 1µs deadline: the front-end must
        // answer with either a genuine (oracle-checked) answer or a
        // Shed refusal — exactly one check either way, so the report
        // stays deterministic even though the shed decision depends on
        // the live latency estimate.
        let frame = Frame::Infer {
            request_id: 200,
            deadline_us: 1,
            tenant: None,
            features: features[0].clone(),
        };
        std::io::Write::write_all(&mut conn, &frame.encode()).map_err(|e| err(&e))?;
        let frame = read_frame(&mut conn)
            .map_err(|e| err(&e))?
            .ok_or_else(|| harness_failure(STAGE, KERNEL, &"connection closed mid-stream"))?;
        match frame {
            Frame::Answer {
                request_id: 200,
                label,
                dims_used,
                ..
            } => {
                let encoded = snapshot
                    .pipeline()
                    .encoder()
                    .encode(&features[0])
                    .map_err(|e| err(&e))?;
                let opts = PredictOptions::reduced(dims_used as usize, NormMode::Updated);
                let oracle = snapshot
                    .pipeline()
                    .model()
                    .try_predict_with(&encoded, opts)
                    .map_err(|e| err(&e))?;
                if oracle != label as usize {
                    return Err(Divergence {
                        stage: STAGE,
                        kernel: KERNEL.to_string(),
                        detail: format!(
                            "deadline probe: answered {label} at {dims_used} dims but the \
                             oracle predicts {oracle}"
                        ),
                    });
                }
            }
            Frame::Refusal {
                request_id: 200,
                status: NetStatus::Shed,
                ..
            } => {}
            other => {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!(
                        "deadline probe: expected an Answer or a Shed refusal, got {other:?}"
                    ),
                });
            }
        }
        coverage.add(STAGE, 1);

        // A malformed frame (CRC tampered) on a *second* connection:
        // that connection gets a Malformed refusal and is dropped; the
        // shards keep serving untouched.
        let mut bad_conn = std::net::TcpStream::connect(addr).map_err(|e| err(&e))?;
        bad_conn
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .map_err(|e| err(&e))?;
        let mut tampered = Frame::Ping { request_id: 300 }.encode();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xFF;
        std::io::Write::write_all(&mut bad_conn, &tampered).map_err(|e| err(&e))?;
        match read_frame(&mut bad_conn).map_err(|e| err(&e))? {
            Some(Frame::Refusal {
                status: NetStatus::Malformed,
                ..
            }) => {}
            other => {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("tampered frame: expected a Malformed refusal, got {other:?}"),
                });
            }
        }
        if !matches!(read_frame(&mut bad_conn), Ok(None) | Err(_)) {
            return Err(Divergence {
                stage: STAGE,
                kernel: KERNEL.to_string(),
                detail: "the connection survived a tampered frame".to_string(),
            });
        }
        // The poisoned connection must not have poisoned the fleet.
        let healthy = handle
            .submit(features[0].clone(), None)
            .map_err(|e| err(&e))?
            .wait()
            .map_err(|e| err(&e))?;
        let _ = healthy;
        coverage.add(STAGE, 2);

        // Graceful shutdown: the surviving connection receives a final
        // Goodbye status frame, then EOF.
        let net_stats = frontend.shutdown();
        match read_frame(&mut conn).map_err(|e| err(&e))? {
            Some(Frame::Goodbye) => {}
            other => {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: KERNEL.to_string(),
                    detail: format!("shutdown: expected a Goodbye frame, got {other:?}"),
                });
            }
        }
        if !matches!(read_frame(&mut conn), Ok(None) | Err(_)) {
            return Err(Divergence {
                stage: STAGE,
                kernel: KERNEL.to_string(),
                detail: "the connection stayed open after Goodbye".to_string(),
            });
        }
        coverage.add(STAGE, 1);

        // Accounting: every well-formed request was answered or
        // refused, the tampered frame was counted (and only it), and
        // its best-effort Malformed refusal is the single extra
        // response beyond the well-formed frames.
        let expected_frames = (shared_n + tenant_n + 1) as u64;
        if net_stats.connections != 2
            || net_stats.frames_received != expected_frames
            || net_stats.malformed != 1
            || net_stats.answered + net_stats.refused != expected_frames + net_stats.malformed
        {
            return Err(Divergence {
                stage: STAGE,
                kernel: "net_accounting".to_string(),
                detail: format!(
                    "expected 2 connections, {expected_frames} frames, 1 malformed, \
                     answered+refused == frames+malformed; counted {} / {} / {} / {}",
                    net_stats.connections,
                    net_stats.frames_received,
                    net_stats.malformed,
                    net_stats.answered + net_stats.refused
                ),
            });
        }
        coverage.add(STAGE, 1);
        Ok(())
    })();
    drop(snapshot);
    let drain = server.drain().map_err(|e| err(&e));
    stage_result?;
    drain.map(|_| ())
}

/// The zero-copy mapped registry vs the heap-deserialized scalar
/// oracle: a tenant is published, cold-loaded, hot-swapped, evicted,
/// and reloaded; at every step the mapped view's scores must be
/// bit-identical — on every dispatched ISA — to deserializing the same
/// on-disk bytes onto the heap and scoring there.
fn stage_registry(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    encoded: &[IntHv],
) -> Result<(), Divergence> {
    let dir = unique_temp_dir(scenario.seed ^ 0x4E_61_57);
    let result = registry_cycle(scenario, coverage, pipeline, encoded, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Scores every query through the tenant's mapped view on every
/// detected ISA and compares bit-for-bit against the scalar oracle
/// (`read_packed` of the same file, scored unpacked).
fn check_registry_tenant(
    coverage: &mut Coverage,
    registry: &ModelRegistry,
    queries: &[BinaryHv],
    step: &str,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Registry;
    const KERNEL: &str = "registry_view";
    let err = |e: &dyn std::fmt::Display| harness_failure(STAGE, KERNEL, &e);

    let handle = registry.get("conformance").map_err(|e| err(&e))?;
    let path = registry.tenant_path("conformance").map_err(|e| err(&e))?;
    let bytes = std::fs::read(&path).map_err(|e| err(&e))?;
    let scalar = read_packed(bytes.as_slice()).map_err(|e| err(&e))?;
    let view = handle.view();
    let mut mapped = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        let reference = scalar.scores(&IntHv::from(query.clone()));
        for isa in kernels::available() {
            let kernel_set = kernels::for_isa(isa).ok_or_else(|| {
                harness_failure(STAGE, KERNEL, &format!("{isa} not dispatchable"))
            })?;
            view.scores_into_with(query, kernel_set, &mut mapped)
                .map_err(|e| err(&e))?;
            if mapped != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: format!("{KERNEL}[{isa}]"),
                    detail: format!(
                        "{step}, sample {i}: {}",
                        first_f64_diff(&mapped, &reference)
                    ),
                });
            }
            coverage.add(STAGE, 1);
        }
    }
    Ok(())
}

fn registry_cycle(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    encoded: &[IntHv],
    dir: &std::path::Path,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Registry;
    const KERNEL: &str = "registry_view";
    let err = |e: &dyn std::fmt::Display| harness_failure(STAGE, KERNEL, &e);

    let config = RegistryConfig {
        dim: scenario.dim,
        ..RegistryConfig::default()
    };
    let registry = ModelRegistry::open(dir, config).map_err(|e| err(&e))?;
    let first =
        QuantizedModel::from_model(pipeline.model(), scenario.bit_width).map_err(|e| err(&e))?;
    // The hot-swap replacement: the same model at a different width, so
    // a stale mapping is guaranteed to score differently.
    let swapped_width = if scenario.bit_width == 1 { 4 } else { 1 };
    let second =
        QuantizedModel::from_model(pipeline.model(), swapped_width).map_err(|e| err(&e))?;
    let queries: Vec<BinaryHv> = encoded.iter().take(6).map(IntHv::to_binary).collect();

    // Cold load: publish, then score through the freshly mapped view.
    registry
        .publish("conformance", &first)
        .map_err(|e| err(&e))?;
    check_registry_tenant(coverage, &registry, &queries, "cold load")?;

    // Hot swap: a pinned reader must keep scoring the *old* bytes while
    // new gets see the replacement.
    let pinned = registry.get("conformance").map_err(|e| err(&e))?;
    registry
        .publish("conformance", &second)
        .map_err(|e| err(&e))?;
    check_registry_tenant(coverage, &registry, &queries, "hot swap")?;
    for (i, query) in queries.iter().enumerate() {
        let stale = pinned.view().scores(query).map_err(|e| err(&e))?;
        let reference = first.scores(&IntHv::from(query.clone()));
        if stale != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: "registry_rcu_pin".to_string(),
                detail: format!(
                    "sample {i}: a handle pinned across a hot-swap drifted: {}",
                    first_f64_diff(&stale, &reference)
                ),
            });
        }
        coverage.add(STAGE, 1);
    }
    drop(pinned);

    // Evict, then reload through the cold path again.
    if !registry.evict("conformance") {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_evict".to_string(),
            detail: "evicting a resident tenant reported nothing evicted".to_string(),
        });
    }
    check_registry_tenant(coverage, &registry, &queries, "reload after evict")?;

    // Accounting: the cycle performed two cold loads (initial publish
    // counts as a swap, post-evict get reloads) and stayed in budget.
    let stats = registry.stats();
    if stats.swaps != 2 || stats.cold_loads == 0 || stats.evictions != 1 {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_accounting".to_string(),
            detail: format!(
                "expected 2 swaps, ≥1 cold load, 1 eviction; counted {} / {} / {}",
                stats.swaps, stats.cold_loads, stats.evictions
            ),
        });
    }
    if registry.resident_bytes() > registry.config().byte_budget {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_accounting".to_string(),
            detail: format!(
                "resident {} B exceeds the {} B budget",
                registry.resident_bytes(),
                registry.config().byte_budget
            ),
        });
    }
    coverage.add(STAGE, 2);

    // --- Generational ledger replay: publish → crash → recover →
    // rollback → torn manifest, the mapped view checked bit-for-bit
    // against the scalar oracle of whichever generation must be live
    // after each transition.
    drop(registry);

    // A publish killed before its image rename must leave the
    // committed generation untouched and its staging file behind.
    let fs = LedgerFs::new();
    let crashing = ModelRegistry::open_with_fs(dir, config, fs.clone()).map_err(|e| err(&e))?;
    fs.crash_at(FsOp::Rename, 1);
    if crashing.publish("conformance", &first).is_ok() {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_ledger".to_string(),
            detail: "a publish with a crash armed at the image rename succeeded".to_string(),
        });
    }
    drop(crashing);

    let registry = ModelRegistry::open(dir, config).map_err(|e| err(&e))?;
    if registry.recovery().swept_tmp == 0 {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_ledger".to_string(),
            detail: "recovery after a crashed publish swept no staging files".to_string(),
        });
    }
    check_live_generation(
        coverage,
        &registry,
        &second,
        &queries,
        "recovered after crashed publish",
    )?;
    check_registry_tenant(
        coverage,
        &registry,
        &queries,
        "recovered after crashed publish",
    )?;

    // Explicit rollback: the previous generation becomes live again and
    // scores exactly as its scalar oracle.
    let target = registry
        .rollback("conformance", None)
        .map_err(|e| err(&e))?;
    check_live_generation(coverage, &registry, &first, &queries, "after rollback")?;
    check_registry_tenant(coverage, &registry, &queries, "after rollback")?;
    let records = registry.history("conformance").map_err(|e| err(&e))?;
    let live: Vec<u64> = records
        .iter()
        .filter(|r| r.live)
        .map(|r| r.generation)
        .collect();
    let retained: Vec<u64> = records.iter().map(|r| r.generation).collect();
    if live != [target] || retained != [1, 2] {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_ledger".to_string(),
            detail: format!(
                "after rollback to {target}, history shows live {live:?} retained {retained:?} \
                 (expected live [{target}], retained [1, 2])"
            ),
        });
    }
    coverage.add(STAGE, 1);
    drop(registry);

    // Torn manifest: flip one byte, reopen, and the rebuild must elect
    // the newest CRC-valid image — never the corrupt text's claim.
    let manifest = dir.join(MANIFEST_NAME);
    let mut bytes = std::fs::read(&manifest).map_err(|e| err(&e))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&manifest, bytes).map_err(|e| err(&e))?;
    let registry = ModelRegistry::open(dir, config).map_err(|e| err(&e))?;
    if !registry.recovery().repaired {
        return Err(Divergence {
            stage: STAGE,
            kernel: "registry_ledger".to_string(),
            detail: "a torn manifest was not repaired at open".to_string(),
        });
    }
    check_live_generation(
        coverage,
        &registry,
        &second,
        &queries,
        "rebuilt from torn manifest",
    )?;
    check_registry_tenant(coverage, &registry, &queries, "rebuilt from torn manifest")?;
    coverage.add(STAGE, 1);
    Ok(())
}

/// Scores every query through the live mapped view and compares
/// bit-for-bit against the scalar oracle of the generation that the
/// ledger replay expects to be serving after `step`.
fn check_live_generation(
    coverage: &mut Coverage,
    registry: &ModelRegistry,
    oracle: &QuantizedModel,
    queries: &[BinaryHv],
    step: &str,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Registry;
    const KERNEL: &str = "registry_ledger";
    let err = |e: &dyn std::fmt::Display| harness_failure(STAGE, KERNEL, &e);
    let handle = registry.get("conformance").map_err(|e| err(&e))?;
    let view = handle.view();
    for (i, query) in queries.iter().enumerate() {
        let reference = oracle.scores(&IntHv::from(query.clone()));
        let mapped = view.scores(query).map_err(|e| err(&e))?;
        if mapped != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: KERNEL.to_string(),
                detail: format!(
                    "{step}, sample {i}: the live view diverges from the expected \
                     generation's oracle: {}",
                    first_f64_diff(&mapped, &reference)
                ),
            });
        }
        coverage.add(STAGE, 1);
    }
    Ok(())
}

/// Compress → publish → serve replay on a pruned tenant: saliency and
/// prune checked differentially per ISA, then the pruned image is
/// published through a real registry, scored through the mapped view on
/// every ISA, and served through the sharded server with tenant
/// routing — every answer replayed against the scalar pruned oracle
/// (query compacted by the support, scored through the heap quantized
/// model, last-wins argmax).
fn stage_compress(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    encoded: &[IntHv],
    labels: &[usize],
) -> Result<(), Divergence> {
    let dir = unique_temp_dir(scenario.seed ^ 0xC0_4B_12);
    let result = compress_cycle(
        scenario, coverage, pipeline, features, encoded, labels, &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_lines)]
fn compress_cycle(
    scenario: &Scenario,
    coverage: &mut Coverage,
    pipeline: &HdcPipeline,
    features: &[Vec<f64>],
    encoded: &[IntHv],
    labels: &[usize],
    dir: &std::path::Path,
) -> Result<(), Divergence> {
    const STAGE: StageKind = StageKind::Compress;
    let err =
        |kernel: &str, e: &dyn std::fmt::Display| harness_failure(STAGE, kernel, &e.to_string());

    let model = pipeline.model();
    let batch = (encoded.to_vec(), labels.to_vec());

    // Saliency: every dispatched ISA vs the per-query scalar reference.
    for isa in kernels::available() {
        let kernel = SaliencyKernel { model, isa };
        let name = format!("{}[{isa}]", kernel.entry().name);
        let fast = kernel.fast(&batch).map_err(|e| err(&name, &e))?;
        let reference = kernel.reference(&batch).map_err(|e| err(&name, &e))?;
        if fast != reference {
            let (d, (f, r)) = fast
                .scores()
                .iter()
                .zip(reference.scores())
                .enumerate()
                .map(|(d, (&f, &r))| (d, (f, r)))
                .find(|&(_, (f, r))| f != r)
                .unwrap_or((0, (0, 0)));
            return Err(Divergence {
                stage: STAGE,
                kernel: name,
                detail: format!("dim {d}: fast {f} vs reference {r}"),
            });
        }
        coverage.add(STAGE, 1);
    }

    // Prune: sort-based selection vs the independent max-scan oracle,
    // at an aggressive support and the identity support.
    let sal = generic_hdc::saliency(model, encoded, labels).map_err(|e| err("saliency", &e))?;
    let keep = (scenario.dim / 4).max(1);
    for keep in [keep, scenario.dim] {
        let kernel = PruneKernel { model, keep };
        let name = kernel.entry().name;
        let fast = kernel.fast(&sal).map_err(|e| err(name, &e))?;
        let reference = kernel.reference(&sal).map_err(|e| err(name, &e))?;
        if fast != reference {
            return Err(Divergence {
                stage: STAGE,
                kernel: name.to_string(),
                detail: format!("keep {keep}: support or class matrix diverged"),
            });
        }
        coverage.add(STAGE, 1);
    }

    // Compress: prune to a quarter of the dimensions, recover, quantize
    // at the scenario's width.
    let mut pruned = generic_hdc::prune(model, &sal, keep).map_err(|e| err("prune", &e))?;
    pruned
        .recover(encoded, labels, 2, 2)
        .map_err(|e| err("recover", &e))?;
    let compressed = generic_hdc::CompressedModel::from_pruned(&pruned, scenario.bit_width)
        .map_err(|e| err("compress", &e))?;

    // Publish the pruned tenant through a real registry.
    let registry_dir = dir.join("registry");
    std::fs::create_dir_all(&registry_dir).map_err(|e| err("publish", &e))?;
    let registry = ModelRegistry::open(
        &registry_dir,
        RegistryConfig {
            dim: scenario.dim,
            ..RegistryConfig::default()
        },
    )
    .map_err(|e| err("publish", &e))?;
    registry
        .publish_compressed("pruned", &compressed)
        .map_err(|e| err("publish", &e))?;

    // The published bytes, scored through the mapped view on every ISA,
    // must match the scalar pruned oracle bit for bit.
    let path = registry
        .tenant_path("pruned")
        .map_err(|e| err("publish", &e))?;
    let packed = Mapping::map_file(&path)
        .map_err(ReadModelError::from)
        .and_then(PackedModel::from_mapping)
        .map_err(|e| err("publish", &e))?;
    let queries: Vec<BinaryHv> = encoded.iter().take(6).map(IntHv::to_binary).collect();
    for isa in kernels::available() {
        let kernel = PrunedScoreKernel {
            packed: &packed,
            compressed: &compressed,
            isa,
        };
        let name = format!("{}[{isa}]", kernel.entry().name);
        for (i, query) in queries.iter().enumerate() {
            let fast = kernel.fast(query).map_err(|e| err(&name, &e))?;
            let reference = kernel.reference(query).map_err(|e| err(&name, &e))?;
            if fast != reference {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: name,
                    detail: format!("sample {i}: {}", first_f64_diff(&fast, &reference)),
                });
            }
            coverage.add(STAGE, 1);
        }
    }

    // Serve: tenant-routed answers from the sharded server must replay
    // exactly on the scalar pruned oracle.
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| err("serve", &e))?;
    let store = CheckpointStore::open(&ckpt_dir, 2, RetryPolicy::default())
        .map_err(|e| err("serve", &e))?;
    let runtime = OnlineRuntime::new(
        pipeline.clone(),
        store,
        RuntimeConfig {
            checkpoint_every: 0,
            ..RuntimeConfig::default()
        },
    )
    .map_err(|e| err("serve", &e))?;
    let server = Server::start_with_registry(
        runtime,
        ServeConfig {
            shards: 2,
            batch_max: 4,
            ..ServeConfig::default()
        },
        Some(registry.into()),
    )
    .map_err(|e| err("serve", &e))?;
    let handle = server.handle();
    let snapshot = handle.snapshots().load();
    let serve_result = (|| -> Result<(), Divergence> {
        for (i, sample) in features.iter().take(6).enumerate() {
            let answer = handle
                .submit_tenant("pruned", sample.clone(), None)
                .map_err(|e| err("serve", &e))?
                .wait()
                .map_err(|e| err("serve", &e))?;
            let query = snapshot
                .pipeline()
                .encoder()
                .encode(sample)
                .map_err(|e| err("serve", &e))?
                .to_binary();
            let bits: Vec<bool> = compressed.support().iter().map(|&d| query.bit(d)).collect();
            let compact = BinaryHv::from_bits(&bits).map_err(|e| err("serve", &e))?;
            let scores = compressed.quantized().scores(&IntHv::from(compact));
            let mut oracle = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (c, &s) in scores.iter().enumerate() {
                if s >= best {
                    best = s;
                    oracle = c;
                }
            }
            if answer.label != oracle {
                return Err(Divergence {
                    stage: STAGE,
                    kernel: "pruned_serve".to_string(),
                    detail: format!(
                        "sample {i}: the server answered {} but the scalar pruned oracle \
                         predicts {oracle}",
                        answer.label
                    ),
                });
            }
            coverage.add(STAGE, 1);
        }
        Ok(())
    })();
    let drain = server.drain();
    serve_result?;
    drain
        .map(|_| ())
        .map_err(|e| harness_failure(STAGE, "pruned_serve", &e))
}

fn unique_temp_dir(seed: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "generic-conformance-{}-{seed}-{n}",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn clean_scenarios_have_no_divergence_and_cover_every_stage() {
        for seed in 0..4 {
            let scenario = Scenario::generate(seed);
            let report = run_scenario(&scenario);
            assert!(
                report.divergence.is_none(),
                "seed {seed} ({}): {}",
                scenario.token(),
                report.divergence.unwrap()
            );
            for (stage, checks) in &report.coverage {
                assert!(*checks > 0, "seed {seed}: stage {stage} ran no checks");
            }
            assert!(report.total_checks() > 0);
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let scenario = Scenario::generate(5);
        assert_eq!(run_scenario(&scenario), run_scenario(&scenario));
    }

    #[test]
    fn every_mutation_is_detected_at_its_own_stage() {
        let scenario = Scenario::generate(9);
        let cases = [
            (Mutation::EncodeBitFlip, StageKind::Encode),
            (Mutation::RetrainDrift, StageKind::Retrain),
            (Mutation::PackedScoreSkew, StageKind::QuantScore),
        ];
        for (mutation, stage) in cases {
            let report = run_scenario_mutated(&scenario, mutation);
            let divergence = report
                .divergence
                .unwrap_or_else(|| panic!("{mutation:?} must diverge"));
            assert_eq!(divergence.stage, stage, "{mutation:?}");
            // Stages after the divergence never ran.
            let diverged_at = StageKind::ALL.iter().position(|&s| s == stage).unwrap();
            for &(s, checks) in &report.coverage[diverged_at + 1..] {
                assert_eq!(checks, 0, "{mutation:?}: stage {s} ran after divergence");
            }
        }
    }
}
