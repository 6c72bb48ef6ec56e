//! Post-training compression bench: accuracy/size Pareto curves per
//! dataset, and writes `BENCH_compress.json`.
//!
//! Exercises the `generic_hdc::compress` pipeline end to end on
//! ISOLET- and MNIST-class workloads and enforces the three claims the
//! compression design makes:
//!
//! 1. **Size at accuracy**: on every dataset the Pareto search must
//!    find a model ≥ 4× smaller than the full-dimension 8-bit image
//!    while losing ≤ 1 accuracy point on held-out data. Always
//!    enforced.
//! 2. **Bit-identity**: the chosen pruned image, scored through the
//!    mapped view on **every** dispatched ISA with full-width queries,
//!    must match the scalar pruned oracle (query compacted by the
//!    support, scored through the heap quantized model) bit for bit.
//!    Always enforced.
//! 3. **Tenant capacity**: under the same registry byte budget, the
//!    compressed image must keep ≥ 3× more tenants resident than the
//!    uncompressed baseline. Always enforced.
//!
//! Usage: `cargo run -p generic-bench --release --bin compress
//! [seed] [--smoke]`

use std::time::Instant;

use generic_bench::cli;
use generic_datasets::Benchmark;
use generic_hdc::encoding::{Encoder, GenericEncoderSpec};
use generic_hdc::io::write_packed;
use generic_hdc::kernels;
use generic_hdc::{
    pareto_search, CompressOptions, CompressionOutcome, HdcPipeline, IntHv, ModelRegistry,
    ParetoPoint, QuantizedModel, RegistryConfig,
};

struct Config {
    dim: usize,
    train_epochs: usize,
    recover_epochs: usize,
    /// Uncompressed tenants offered to the capacity registry.
    capacity_unc: usize,
    /// Compressed tenants offered to the capacity registry.
    capacity_cmp: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 4096,
            train_epochs: 10,
            recover_epochs: 3,
            capacity_unc: 8,
            capacity_cmp: 64,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 2048,
            train_epochs: 3,
            recover_epochs: 2,
            capacity_unc: 6,
            capacity_cmp: 32,
        }
    }
}

struct DatasetResult {
    name: &'static str,
    baseline_bytes: usize,
    baseline_accuracy: f64,
    target_accuracy: f64,
    outcome: CompressionOutcome,
    size_reduction: f64,
    size_gate_ok: bool,
    identity_checks: u64,
    identity_ok: bool,
    search_secs: f64,
}

fn evaluate(bench: Benchmark, config: &Config, seed: u64) -> DatasetResult {
    let dataset = bench.load(seed);
    let spec = GenericEncoderSpec::new(config.dim, dataset.n_features).with_seed(seed);
    let pipeline = HdcPipeline::train(
        spec,
        &dataset.train.features,
        &dataset.train.labels,
        dataset.n_classes,
        config.train_epochs,
    )
    .expect("benchmark dataset trains");
    let train = pipeline
        .encoder()
        .encode_batch(&dataset.train.features)
        .expect("train split encodes");
    let test = pipeline
        .encoder()
        .encode_batch(&dataset.test.features)
        .expect("test split encodes");

    // The baseline every gate compares against: what the registry
    // publishes today — the full-dimension 8-bit image.
    let baseline_model = QuantizedModel::from_model(pipeline.model(), 8).expect("8-bit quantizes");
    let mut baseline_image = Vec::new();
    write_packed(&baseline_model, &mut baseline_image).expect("baseline serializes");
    let baseline_bytes = baseline_image.len();
    let baseline_accuracy = baseline_model.accuracy(&test, &dataset.test.labels);
    // ≤ 1 accuracy point of loss.
    let target_accuracy = baseline_accuracy - 0.01;

    let opts = CompressOptions {
        recover_epochs: config.recover_epochs,
        n_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        ..CompressOptions::new(target_accuracy)
    };
    let search_start = Instant::now();
    let outcome = pareto_search(
        pipeline.model(),
        &train,
        &dataset.train.labels,
        &test,
        &dataset.test.labels,
        &opts,
    )
    .expect("pareto search runs");
    let search_secs = search_start.elapsed().as_secs_f64();

    let size_reduction = baseline_bytes as f64 / outcome.chosen_point.bytes as f64;
    let size_gate_ok = outcome.meets_target && size_reduction >= 4.0;

    // Cross-ISA bit-identity of the chosen image against the scalar
    // pruned oracle, with full-width queries (what serving receives).
    let packed = outcome.chosen.pack().expect("chosen packs");
    let view = packed.view();
    let mut identity_checks = 0u64;
    let mut identity_ok = true;
    for hv in test.iter().take(6) {
        let query = hv.to_binary();
        let bits: Vec<bool> = outcome
            .chosen
            .support()
            .iter()
            .map(|&d| query.bit(d))
            .collect();
        let compact = generic_hdc::BinaryHv::from_bits(&bits).expect("support-width query builds");
        let oracle = outcome.chosen.quantized().scores(&IntHv::from(compact));
        for isa in kernels::available() {
            let kernel = kernels::for_isa(isa).expect("listed ISA resolves");
            let mut mapped = Vec::new();
            view.scores_into_with(&query, kernel, &mut mapped)
                .expect("mapped scores");
            identity_checks += 1;
            if mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                != oracle.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
            {
                identity_ok = false;
                println!(
                    "  BIT-IDENTITY FAILURE: {} isa {}",
                    bench.name(),
                    isa.name()
                );
            }
        }
    }

    DatasetResult {
        name: bench.name(),
        baseline_bytes,
        baseline_accuracy,
        target_accuracy,
        outcome,
        size_reduction,
        size_gate_ok,
        identity_checks,
        identity_ok,
        search_secs,
    }
}

/// How many tenants stay resident when `count` copies of one image are
/// published through a registry with `budget` bytes.
fn resident_capacity(
    dir: &std::path::Path,
    dim: usize,
    budget: usize,
    count: usize,
    publish: impl Fn(&ModelRegistry, &str) -> Result<u64, generic_hdc::RegistryError>,
) -> usize {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("capacity dir is creatable");
    let registry = ModelRegistry::open(
        dir,
        RegistryConfig {
            byte_budget: budget,
            dim,
            ..RegistryConfig::default()
        },
    )
    .expect("registry opens");
    for i in 0..count {
        publish(&registry, &format!("tenant-{i:03}")).expect("tenant publishes");
    }
    let resident = registry.resident_count();
    assert!(
        registry.resident_bytes() <= budget,
        "resident set exceeds the byte budget"
    );
    resident
}

fn main() {
    let seed = cli::seed_arg(42);
    let smoke = cli::smoke_flag();
    let config = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };
    println!(
        "compress bench: dim={} train_epochs={} recover_epochs={} seed={seed} mode={}",
        config.dim,
        config.train_epochs,
        config.recover_epochs,
        if smoke { "smoke" } else { "full" }
    );

    let mut results = Vec::new();
    for bench in [Benchmark::Isolet, Benchmark::Mnist] {
        let result = evaluate(bench, &config, seed);
        println!(
            "  {}: baseline {} B @ {:.2}% → chosen {} of {} dims x {} bit = {} B \
             ({:.1}x) @ {:.2}% (target {:.2}%) — {} [{:.1} s search]",
            result.name,
            result.baseline_bytes,
            100.0 * result.baseline_accuracy,
            result.outcome.chosen_point.keep_dims,
            config.dim,
            result.outcome.chosen_point.bit_width,
            result.outcome.chosen_point.bytes,
            result.size_reduction,
            100.0 * result.outcome.chosen_point.accuracy,
            100.0 * result.target_accuracy,
            if result.size_gate_ok { "PASS" } else { "FAIL" },
            result.search_secs,
        );
        println!(
            "    bit-identity: {} checks across {:?} — {}",
            result.identity_checks,
            kernels::available()
                .iter()
                .map(|i| i.name())
                .collect::<Vec<_>>(),
            if result.identity_ok { "PASS" } else { "FAIL" }
        );
        results.push(result);
    }

    // --- Tenant capacity under one byte budget. ----------------------
    // ISOLET's baseline sizes the budget; the chosen compressed image
    // must fit ≥ 3× more tenants into the very same registry.
    let anchor = &results[0];
    let budget = anchor.baseline_bytes * 4;
    let scratch =
        std::env::temp_dir().join(format!("ghdc-compress-bench-{}-{seed}", std::process::id()));
    let baseline_model = {
        let dataset = Benchmark::Isolet.load(seed);
        let spec = GenericEncoderSpec::new(config.dim, dataset.n_features).with_seed(seed);
        let pipeline = HdcPipeline::train(
            spec,
            &dataset.train.features,
            &dataset.train.labels,
            dataset.n_classes,
            config.train_epochs,
        )
        .expect("benchmark dataset trains");
        QuantizedModel::from_model(pipeline.model(), 8).expect("8-bit quantizes")
    };
    let unc_resident = resident_capacity(
        &scratch.join("unc"),
        config.dim,
        budget,
        config.capacity_unc,
        |registry, tenant| registry.publish(tenant, &baseline_model),
    );
    let chosen = anchor.outcome.chosen.clone();
    let cmp_resident = resident_capacity(
        &scratch.join("cmp"),
        config.dim,
        budget,
        config.capacity_cmp,
        |registry, tenant| registry.publish_compressed(tenant, &chosen),
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let capacity_ratio = cmp_resident as f64 / unc_resident.max(1) as f64;
    let capacity_ok = capacity_ratio >= 3.0;
    println!(
        "  tenant capacity: {budget} B budget holds {unc_resident} uncompressed vs \
         {cmp_resident} compressed tenants = {capacity_ratio:.1}x — {}",
        if capacity_ok { "PASS" } else { "FAIL" }
    );

    let json = render_json(
        &config,
        seed,
        smoke,
        &results,
        (
            budget,
            unc_resident,
            cmp_resident,
            capacity_ratio,
            capacity_ok,
        ),
    );
    generic_bench::report::write_record("compress", smoke, &json);

    let mut failed = false;
    for result in &results {
        if !result.size_gate_ok {
            eprintln!(
                "GATE FAILED: {} must reach >= 4x size reduction within 1 accuracy point",
                result.name
            );
            failed = true;
        }
        if !result.identity_ok {
            eprintln!(
                "GATE FAILED: {} pruned scoring must be bit-identical on every ISA",
                result.name
            );
            failed = true;
        }
    }
    if !capacity_ok {
        eprintln!(
            "GATE FAILED: compressed tenants must reach >= 3x resident capacity under the \
             same byte budget"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn points_json(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{{\"keep_dims\": {}, \"bit_width\": {}, \"bytes\": {}, \"accuracy\": {:.6}}}",
                p.keep_dims, p.bit_width, p.bytes, p.accuracy
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_json(
    config: &Config,
    seed: u64,
    smoke: bool,
    results: &[DatasetResult],
    capacity: (usize, usize, usize, f64, bool),
) -> String {
    let (budget, unc_resident, cmp_resident, capacity_ratio, capacity_ok) = capacity;
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!(
        "  \"config\": {{\"dim\": {}, \"train_epochs\": {}, \"recover_epochs\": {}}},\n",
        config.dim, config.train_epochs, config.recover_epochs
    ));
    s.push_str(&format!(
        "  \"isas\": [{}],\n",
        kernels::available()
            .iter()
            .map(|i| format!("\"{}\"", i.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"datasets\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.outcome.chosen_point;
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_bytes\": {}, \"baseline_accuracy\": {:.6}, \
             \"target_accuracy\": {:.6},\n     \"chosen\": {{\"keep_dims\": {}, \
             \"bit_width\": {}, \"bytes\": {}, \"accuracy\": {:.6}}},\n     \
             \"size_reduction\": {:.3}, \"search_secs\": {:.2},\n     \
             \"pareto_frontier\": [{}],\n     \"points\": [{}]}}{}\n",
            r.name,
            r.baseline_bytes,
            r.baseline_accuracy,
            r.target_accuracy,
            c.keep_dims,
            c.bit_width,
            c.bytes,
            c.accuracy,
            r.size_reduction,
            r.search_secs,
            points_json(&r.outcome.frontier),
            points_json(&r.outcome.points),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"tenant_capacity\": {{\"budget_bytes\": {budget}, \"uncompressed_resident\": \
         {unc_resident}, \"compressed_resident\": {cmp_resident}, \"ratio\": \
         {capacity_ratio:.3}}},\n"
    ));
    let size_ok = results.iter().all(|r| r.size_gate_ok);
    let identity_ok = results.iter().all(|r| r.identity_ok);
    let identity_checks: u64 = results.iter().map(|r| r.identity_checks).sum();
    s.push_str(&format!(
        "  \"gates\": {{\n    \"size_reduction_4x_1pt\": {{\"passed\": {size_ok}, \
         \"enforced\": true}},\n    \"bit_identity\": {{\"passed\": {identity_ok}, \
         \"enforced\": true, \"checks\": {identity_checks}}},\n    \
         \"tenant_capacity_3x\": {{\"passed\": {capacity_ok}, \"enforced\": true, \
         \"ratio\": {capacity_ratio:.3}}}\n  }}\n"
    ));
    s.push_str("}\n");
    s
}
