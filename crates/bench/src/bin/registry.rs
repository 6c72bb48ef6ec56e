//! Multi-tenant registry bench: K-tenant churn against the mmap-served
//! GHDC v3 registry, and writes `BENCH_registry.json`.
//!
//! Measures three things the zero-copy design claims:
//!
//! 1. **Cold load**: mapping + validating a v3 file and scoring one
//!    query through the borrowed view, vs fully deserializing the same
//!    model from its v2 stream, repacking it into a
//!    [`PackedModel`](generic_hdc::PackedModel), and scoring. Gate
//!    (full mode): median mmap cold load ≥ 10× faster.
//! 2. **Bit-identity**: mapped-view scores equal the scalar
//!    [`QuantizedModel::scores`] bit-for-bit under **every** dispatched
//!    ISA. Always enforced.
//! 3. **Churn**: ≥ 64 tenants rotating through an LRU byte budget
//!    sized for a fraction of them; the resident set must stay under
//!    the budget after every single load. Always enforced. Steady-state
//!    QPS (get + score against resident mappings) is recorded.
//!
//! Usage: `cargo run -p generic-bench --release --bin registry
//! [seed] [--smoke]`

use std::path::Path;
use std::time::{Duration, Instant};

use generic_bench::cli;
use generic_hdc::io::{read_quantized, write_packed, write_quantized, PackedLayout};
use generic_hdc::kernels;
use generic_hdc::{
    BinaryHv, HdcModel, IntHv, Mapping, ModelRegistry, PackedModelView, QuantizedModel,
    RegistryConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Config {
    dim: usize,
    n_classes: usize,
    bit_width: u8,
    tenants: usize,
    /// Tenants the LRU budget holds at once during churn.
    resident_cap: usize,
    churn_gets: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 2048,
            n_classes: 8,
            bit_width: 8,
            tenants: 96,
            resident_cap: 24,
            churn_gets: 4_096,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 512,
            n_classes: 4,
            bit_width: 8,
            tenants: 12,
            resident_cap: 4,
            churn_gets: 256,
        }
    }
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:03}")
}

fn tenant_model(config: &Config, seed: u64, i: usize) -> QuantizedModel {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x7e4a_0000 + i as u64));
    let encoded: Vec<IntHv> = (0..config.n_classes * 4)
        .map(|_| IntHv::from(BinaryHv::random_seeded(config.dim, rng.random()).expect("dim > 0")))
        .collect();
    let labels: Vec<usize> = (0..encoded.len()).map(|s| s % config.n_classes).collect();
    let model =
        HdcModel::fit(&encoded, &labels, config.n_classes).expect("separable synthetic data");
    QuantizedModel::from_model(&model, config.bit_width).expect("valid bit width")
}

/// Median of an unsorted sample, in microseconds.
fn median_us(samples: &mut [Duration]) -> f64 {
    samples.sort_unstable();
    if samples.is_empty() {
        return f64::NAN;
    }
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// The mmap cold path: map, validate (header + CRC), borrow the view,
/// score one query. Returns the predicted label so the work cannot be
/// optimized away.
fn cold_load_mmap(path: &Path, query: &BinaryHv) -> usize {
    let bytes = Mapping::map_file(path).expect("tenant file maps");
    let layout = PackedLayout::validate(&bytes).expect("sealed v3 stream");
    let view = PackedModelView::with_layout(&bytes, layout).expect("aligned mapping");
    view.predict(query).expect("dim matches")
}

/// The heap cold path this replaces: read the v2 stream, deserialize
/// every class element, repack the bit planes, score one query.
fn cold_load_v2(path: &Path, query: &BinaryHv) -> usize {
    let bytes = std::fs::read(path).expect("tenant v2 file reads");
    let model = read_quantized(bytes.as_slice()).expect("sealed v2 stream");
    let packed = model.pack().expect("packs");
    packed.view().predict(query).expect("dim matches")
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
        "registry bench: dim={} classes={} bw={} tenants={} resident_cap={} seed={seed} mode={}",
        config.dim,
        config.n_classes,
        config.bit_width,
        config.tenants,
        config.resident_cap,
        if smoke { "smoke" } else { "full" }
    );

    let dir =
        std::env::temp_dir().join(format!("ghdc-registry-bench-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");

    // Materialize every tenant twice: the v3 file the registry serves
    // and the v2 stream the heap baseline deserializes.
    let mut model_bytes = 0usize;
    let models: Vec<QuantizedModel> = (0..config.tenants)
        .map(|i| {
            let model = tenant_model(&config, seed, i);
            let v3 = dir.join(format!("{}.ghdc", tenant_name(i)));
            let mut file = std::fs::File::create(&v3).expect("v3 file creates");
            write_packed(&model, &mut file).expect("v3 writes");
            model_bytes = std::fs::metadata(&v3).expect("v3 exists").len() as usize;
            let v2 = dir.join(format!("{}.v2", tenant_name(i)));
            let mut file = std::fs::File::create(&v2).expect("v2 file creates");
            write_quantized(&model, &mut file).expect("v2 writes");
            model
        })
        .collect();
    println!(
        "  materialized {} tenants ({} B packed each)",
        config.tenants, model_bytes
    );

    // --- Gate 1: cross-ISA bit-identity of the mapped view. ----------
    let isas = kernels::available();
    let mut identity_checks = 0u64;
    let mut identity_ok = true;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb17);
    for (i, model) in models.iter().enumerate().take(8) {
        let path = dir.join(format!("{}.ghdc", tenant_name(i)));
        let bytes = Mapping::map_file(&path).expect("tenant file maps");
        let view = PackedModelView::new(&bytes).expect("sealed v3 stream");
        for _ in 0..4 {
            let query = BinaryHv::random_seeded(config.dim, rng.random()).expect("dim > 0");
            let oracle = model.scores(&IntHv::from(query.clone()));
            for &isa in &isas {
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
                        "  BIT-IDENTITY FAILURE: tenant {i}, isa {}",
                        kernel.isa().name()
                    );
                }
            }
        }
    }
    println!(
        "  bit-identity: {identity_checks} checks across {:?} — {}",
        isas.iter().map(|i| i.name()).collect::<Vec<_>>(),
        if identity_ok { "PASS" } else { "FAIL" }
    );

    // --- Cold-load latency: mmap view vs full v2 deserialization. ----
    let query = BinaryHv::random_seeded(config.dim, seed ^ 0xc01d).expect("dim > 0");
    let mut mmap_lat = Vec::with_capacity(config.tenants);
    let mut v2_lat = Vec::with_capacity(config.tenants);
    let mut checksum = 0usize;
    for i in 0..config.tenants {
        let v3 = dir.join(format!("{}.ghdc", tenant_name(i)));
        let v2 = dir.join(format!("{}.v2", tenant_name(i)));
        let t0 = Instant::now();
        checksum ^= cold_load_v2(&v2, &query);
        v2_lat.push(t0.elapsed());
        let t0 = Instant::now();
        checksum ^= cold_load_mmap(&v3, &query);
        mmap_lat.push(t0.elapsed());
    }
    let mmap_us = median_us(&mut mmap_lat);
    let v2_us = median_us(&mut v2_lat);
    let cold_speedup = v2_us / mmap_us;
    println!(
        "  cold load: mmap view {mmap_us:.1} µs vs v2 deserialize {v2_us:.1} µs \
         = {cold_speedup:.1}× (checksum {checksum})"
    );

    // --- Churn: K tenants through a budget holding resident_cap. -----
    let budget = model_bytes * config.resident_cap;
    let registry = ModelRegistry::open(
        &dir,
        RegistryConfig {
            byte_budget: budget,
            dim: config.dim,
            ..RegistryConfig::default()
        },
    )
    .expect("registry opens");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c4a_7000);
    let mut budget_ok = true;
    let mut peak_resident = 0usize;
    let mut labels = 0usize;
    let churn_start = Instant::now();
    for _ in 0..config.churn_gets {
        // Zipf-ish skew: half the traffic hits a hot eighth of tenants,
        // the rest sprays uniformly — exercises both hits and evictions.
        let tenant = if rng.random_bool(0.5) {
            rng.random_range(0..(config.tenants / 8).max(1))
        } else {
            rng.random_range(0..config.tenants)
        };
        let handle = registry.get(&tenant_name(tenant)).expect("tenant loads");
        labels ^= handle.view().predict(&query).expect("dim matches");
        let resident = registry.resident_bytes();
        peak_resident = peak_resident.max(resident);
        if resident > budget {
            budget_ok = false;
        }
    }
    let churn_wall = churn_start.elapsed();
    let churn_qps = config.churn_gets as f64 / churn_wall.as_secs_f64();
    let stats = registry.stats();
    println!(
        "  churn: {} gets in {:.2} s = {:.0} QPS (hits {}, cold loads {}, evictions {}), \
         peak resident {} B / budget {} B — {} (labels {labels})",
        config.churn_gets,
        churn_wall.as_secs_f64(),
        churn_qps,
        stats.hits,
        stats.cold_loads,
        stats.evictions,
        peak_resident,
        budget,
        if budget_ok { "PASS" } else { "FAIL" }
    );

    // Gates: identity and budget always; the 10× cold-load ratio only
    // on full runs (smoke models are too small for stable timing).
    let cold_enforced = !smoke;
    let cold_ok = cold_speedup >= 10.0;
    println!(
        "  cold-load 10x gate: {:.1}× — {}{}",
        cold_speedup,
        if cold_ok { "PASS" } else { "FAIL" },
        if cold_enforced { "" } else { " (not enforced)" }
    );

    let json = render_json(
        &config,
        seed,
        smoke,
        &isas.iter().map(|i| i.name()).collect::<Vec<_>>(),
        identity_checks,
        identity_ok,
        mmap_us,
        v2_us,
        cold_speedup,
        cold_ok,
        cold_enforced,
        churn_qps,
        peak_resident,
        budget,
        budget_ok,
        &stats_json(&stats),
    );
    generic_bench::report::write_record("registry", smoke, &json);
    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    if !identity_ok {
        eprintln!("GATE FAILED: mapped-view scores must be bit-identical on every ISA");
        failed = true;
    }
    if !budget_ok {
        eprintln!("GATE FAILED: resident set exceeded the LRU byte budget during churn");
        failed = true;
    }
    if cold_enforced && !cold_ok {
        eprintln!("GATE FAILED: mmap cold load must be >= 10x faster than v2 deserialization");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn stats_json(stats: &generic_hdc::RegistryStats) -> String {
    format!(
        "{{\"hits\": {}, \"cold_loads\": {}, \"evictions\": {}, \"swaps\": {}, \
         \"quarantines\": {}, \"publish_retries\": {}, \"rollbacks\": {}, \
         \"recoveries\": {}, \"tmp_sweeps\": {}}}",
        stats.hits,
        stats.cold_loads,
        stats.evictions,
        stats.swaps,
        stats.quarantines,
        stats.publish_retries,
        stats.rollbacks,
        stats.recoveries,
        stats.tmp_sweeps
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &Config,
    seed: u64,
    smoke: bool,
    isas: &[&str],
    identity_checks: u64,
    identity_ok: bool,
    mmap_us: f64,
    v2_us: f64,
    cold_speedup: f64,
    cold_ok: bool,
    cold_enforced: bool,
    churn_qps: f64,
    peak_resident: usize,
    budget: usize,
    budget_ok: bool,
    stats: &str,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!(
        "  \"config\": {{\"dim\": {}, \"n_classes\": {}, \"bit_width\": {}, \"tenants\": {}, \
         \"resident_cap\": {}, \"churn_gets\": {}}},\n",
        config.dim,
        config.n_classes,
        config.bit_width,
        config.tenants,
        config.resident_cap,
        config.churn_gets
    ));
    s.push_str(&format!(
        "  \"isas\": [{}],\n",
        isas.iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"cold_load\": {{\"mmap_median_us\": {mmap_us:.2}, \"v2_median_us\": {v2_us:.2}, \
         \"speedup\": {cold_speedup:.2}}},\n"
    ));
    s.push_str(&format!(
        "  \"churn\": {{\"qps\": {churn_qps:.1}, \"peak_resident_bytes\": {peak_resident}, \
         \"budget_bytes\": {budget}, \"stats\": {stats}}},\n"
    ));
    s.push_str(&format!(
        "  \"gates\": {{\n    \"bit_identity\": {{\"passed\": {identity_ok}, \"enforced\": true, \
         \"checks\": {identity_checks}}},\n    \"resident_budget\": {{\"passed\": {budget_ok}, \
         \"enforced\": true}},\n    \"cold_load_10x\": {{\"passed\": {cold_ok}, \
         \"enforced\": {cold_enforced}, \"speedup\": {cold_speedup:.3}}}\n  }}\n"
    ));
    s.push_str("}\n");
    s
}
