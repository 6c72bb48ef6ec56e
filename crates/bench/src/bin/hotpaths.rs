//! Perf-regression harness for the word-parallel HDC kernels: times the
//! four hot paths (encode, train, retrain, infer) on the ISOLET, MNIST,
//! and PAMAP2 synthetics with both the word-parallel kernels and their
//! retained scalar references, and writes `BENCH_hotpaths.json` with
//! median ns/op for each.
//!
//! In full mode the harness *enforces* the acceptance gates — at least
//! 4× on `encode_bins` (dim 4096, ISOLET-shaped) and at least 2× on the
//! full train+retrain end-to-end path — exiting nonzero on a regression.
//! `--smoke` runs a reduced-size configuration (CI-friendly) that prints
//! the speedups without enforcing them.
//!
//! Usage: `cargo run -p generic-bench --release --bin hotpaths
//! [seed] [--threads N] [--smoke]`

use std::hint::black_box;
use std::time::Instant;

use generic_bench::cli;
use generic_bench::report::render_table;
use generic_bench::runners::DEFAULT_EPOCHS;
use generic_datasets::{Benchmark, Dataset};
use generic_hdc::encoding::{GenericEncoder, GenericEncoderSpec};
use generic_hdc::{HdcModel, IntHv, PredictOptions};

/// The acceptance gates, in full mode: minimum median speedup of the
/// bit-sliced `encode_bins` over the scalar reference on ISOLET, and of
/// the end-to-end train+retrain path over the scalar baseline.
const GATE_ENCODE_SPEEDUP: f64 = 4.0;
const GATE_E2E_SPEEDUP: f64 = 2.0;
/// Retraining must never be slower than the scalar reference, on any
/// dataset — the adaptive thread/blocking thresholds fall back to the
/// scalar path whenever the problem is too small to amortise overhead.
const GATE_RETRAIN_SPEEDUP: f64 = 1.0;

struct Config {
    dim: usize,
    epochs: usize,
    encode_reps: usize,
    infer_reps: usize,
    retrain_reps: usize,
    e2e_reps: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 4096,
            epochs: DEFAULT_EPOCHS,
            encode_reps: 7,
            infer_reps: 7,
            retrain_reps: 3,
            e2e_reps: 3,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 1024,
            epochs: 3,
            encode_reps: 3,
            infer_reps: 3,
            retrain_reps: 2,
            e2e_reps: 2,
        }
    }
}

/// One measured hot path: median ns/op of the scalar reference and the
/// word-parallel kernel.
struct Measurement {
    path: &'static str,
    scalar_ns: f64,
    fast_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        if self.fast_ns > 0.0 {
            self.scalar_ns / self.fast_ns
        } else {
            f64::INFINITY
        }
    }
}

struct DatasetReport {
    name: &'static str,
    measurements: Vec<Measurement>,
}

impl DatasetReport {
    fn speedup_of(&self, path: &str) -> f64 {
        self.measurements
            .iter()
            .find(|m| m.path == path)
            .map_or(0.0, Measurement::speedup)
    }
}

fn main() {
    let seed = cli::seed_arg(42);
    let threads = cli::threads_arg();
    let smoke = cli::smoke_flag();
    let config = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };

    println!(
        "hotpaths: dim={} epochs={} threads={} seed={} mode={}",
        config.dim,
        config.epochs,
        threads,
        seed,
        if smoke { "smoke" } else { "full" }
    );

    let benchmarks = [Benchmark::Isolet, Benchmark::Mnist, Benchmark::Pamap2];
    let mut reports = Vec::new();
    for benchmark in benchmarks {
        let dataset = benchmark.load(seed);
        println!("\n== {} ==", dataset.name);
        reports.push(measure_dataset(&dataset, &config, threads, seed));
    }

    let header: Vec<String> = ["dataset", "path", "scalar ns/op", "fast ns/op", "speedup"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let mut rows = Vec::new();
    for report in &reports {
        for m in &report.measurements {
            rows.push(vec![
                report.name.to_string(),
                m.path.to_string(),
                format!("{:.0}", m.scalar_ns),
                format!("{:.0}", m.fast_ns),
                format!("{:.2}x", m.speedup()),
            ]);
        }
    }
    println!("\n{}", render_table(&header, &rows));

    let json = render_json(&reports, &config, threads, seed, smoke);
    generic_bench::report::write_record("hotpaths", smoke, &json);

    let encode_speedup = reports[0].speedup_of("encode_bins");
    let e2e_speedup = reports[0].speedup_of("train_retrain_e2e");
    println!(
        "gates: encode_bins {encode_speedup:.2}x (need {GATE_ENCODE_SPEEDUP:.1}x), \
         train+retrain e2e {e2e_speedup:.2}x (need {GATE_E2E_SPEEDUP:.1}x), \
         retrain >= {GATE_RETRAIN_SPEEDUP:.1}x on every dataset"
    );
    if smoke {
        println!("smoke mode: gates reported, not enforced");
        return;
    }
    let mut failed = false;
    if encode_speedup < GATE_ENCODE_SPEEDUP {
        eprintln!(
            "GATE FAILED: encode_bins speedup {encode_speedup:.2}x < {GATE_ENCODE_SPEEDUP:.1}x"
        );
        failed = true;
    }
    if e2e_speedup < GATE_E2E_SPEEDUP {
        eprintln!("GATE FAILED: e2e speedup {e2e_speedup:.2}x < {GATE_E2E_SPEEDUP:.1}x");
        failed = true;
    }
    for report in &reports {
        let retrain_speedup = report.speedup_of("retrain");
        if retrain_speedup < GATE_RETRAIN_SPEEDUP {
            eprintln!(
                "GATE FAILED: retrain speedup {retrain_speedup:.2}x < \
                 {GATE_RETRAIN_SPEEDUP:.1}x on {}",
                report.name
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all gates passed");
}

fn measure_dataset(dataset: &Dataset, config: &Config, threads: usize, seed: u64) -> DatasetReport {
    let spec = GenericEncoderSpec::new(config.dim, dataset.n_features)
        .with_window(3.min(dataset.n_features).max(1))
        .with_seed(seed);
    let encoder =
        GenericEncoder::from_data(spec, &dataset.train.features).expect("dataset validated");

    // Quantize once: both encode kernels consume the same bin vectors.
    let train_bins: Vec<Vec<usize>> = dataset
        .train
        .features
        .iter()
        .map(|x| encoder.quantizer().bins(x).expect("row widths validated"))
        .collect();
    let test_bins: Vec<Vec<usize>> = dataset
        .test
        .features
        .iter()
        .map(|x| encoder.quantizer().bins(x).expect("row widths validated"))
        .collect();

    // --- encode_bins: scalar reference vs bit-sliced bundling ---
    let encode_scalar = median_ns_per_op(config.encode_reps, train_bins.len(), || {
        for bins in &train_bins {
            black_box(encoder.encode_bins_scalar(bins).expect("bins validated"));
        }
    });
    let encode_fast = median_ns_per_op(config.encode_reps, train_bins.len(), || {
        for bins in &train_bins {
            black_box(encoder.encode_bins(bins).expect("bins validated"));
        }
    });

    let train_encoded = encode_all(&encoder, &train_bins, false, threads);
    let test_encoded = encode_all(&encoder, &test_bins, false, threads);
    let fitted = HdcModel::fit(&train_encoded, &dataset.train.labels, dataset.n_classes)
        .expect("labels validated");

    // --- inference: scalar scores vs blocked batched prediction ---
    let opts = PredictOptions::full(config.dim);
    let infer_scalar = median_ns_per_op(config.infer_reps, test_encoded.len(), || {
        for q in &test_encoded {
            black_box(argmax(&fitted.scores_scalar(q, opts)));
        }
    });
    let infer_fast = median_ns_per_op(config.infer_reps, test_encoded.len(), || {
        black_box(fitted.predict_batch(&test_encoded, opts));
    });

    // --- retraining: scalar-kernel epochs vs blocked + parallel gather ---
    let retrain_ops = config.epochs * train_encoded.len();
    let retrain_scalar = median_ns_per_op(config.retrain_reps, retrain_ops, || {
        let mut model = fitted.clone();
        black_box(
            model
                .retrain_scalar(&train_encoded, &dataset.train.labels, config.epochs)
                .expect("inputs validated"),
        );
    });
    let retrain_fast = median_ns_per_op(config.retrain_reps, retrain_ops, || {
        let mut model = fitted.clone();
        black_box(
            model
                .retrain_parallel(
                    &train_encoded,
                    &dataset.train.labels,
                    config.epochs,
                    threads,
                )
                .expect("inputs validated"),
        );
    });

    // --- end-to-end: encode + fit + retrain, scalar kernels vs fast ---
    // Both sides encode with the same thread count, so the speedup
    // isolates the kernels (bit-sliced bundling + parallel retraining),
    // not threading that was already there.
    let e2e = |scalar: bool| {
        let encoded = encode_all(&encoder, &train_bins, scalar, threads);
        let mut model = HdcModel::fit(&encoded, &dataset.train.labels, dataset.n_classes)
            .expect("labels validated");
        if scalar {
            black_box(
                model
                    .retrain_scalar(&encoded, &dataset.train.labels, config.epochs)
                    .expect("inputs validated"),
            );
        } else {
            black_box(
                model
                    .retrain_parallel(&encoded, &dataset.train.labels, config.epochs, threads)
                    .expect("inputs validated"),
            );
        }
    };
    let e2e_ops = train_bins.len() * (config.epochs + 1);
    let e2e_scalar = median_ns_per_op(config.e2e_reps, e2e_ops, || e2e(true));
    let e2e_fast = median_ns_per_op(config.e2e_reps, e2e_ops, || e2e(false));

    let measurements = vec![
        Measurement {
            path: "encode_bins",
            scalar_ns: encode_scalar,
            fast_ns: encode_fast,
        },
        Measurement {
            path: "infer",
            scalar_ns: infer_scalar,
            fast_ns: infer_fast,
        },
        Measurement {
            path: "retrain",
            scalar_ns: retrain_scalar,
            fast_ns: retrain_fast,
        },
        Measurement {
            path: "train_retrain_e2e",
            scalar_ns: e2e_scalar,
            fast_ns: e2e_fast,
        },
    ];
    for m in &measurements {
        println!(
            "  {:<18} scalar {:>12.0} ns/op   fast {:>12.0} ns/op   {:>6.2}x",
            m.path,
            m.scalar_ns,
            m.fast_ns,
            m.speedup()
        );
    }
    DatasetReport {
        name: dataset.name,
        measurements,
    }
}

/// Runs `op` (a whole batch of `ops` operations) `reps` times and returns
/// the median ns per operation.
fn median_ns_per_op<F: FnMut()>(reps: usize, ops: usize, mut op: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        op();
        samples.push(start.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(samples)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Encodes every bin vector with `threads` workers, through either the
/// scalar reference kernel or the bit-sliced one — the thread fan-out is
/// identical so end-to-end comparisons isolate the kernel.
fn encode_all(
    encoder: &GenericEncoder,
    bins: &[Vec<usize>],
    scalar: bool,
    threads: usize,
) -> Vec<IntHv> {
    let encode_one = |b: &Vec<usize>| {
        if scalar {
            encoder.encode_bins_scalar(b).expect("bins validated")
        } else {
            encoder.encode_bins(b).expect("bins validated")
        }
    };
    let threads = threads.max(1).min(bins.len().max(1));
    if threads == 1 {
        return bins.iter().map(encode_one).collect();
    }
    let chunk = bins.len().div_ceil(threads);
    let mut out: Vec<Option<IntHv>> = vec![None; bins.len()];
    std::thread::scope(|scope| {
        for (chunk_bins, chunk_out) in bins.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (b, slot) in chunk_bins.iter().zip(chunk_out.iter_mut()) {
                    *slot = Some(encode_one(b));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("every slot written"))
        .collect()
}

/// Index of the best score (last max wins, matching `HdcModel::predict`).
fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("model has at least one class")
}

fn render_json(
    reports: &[DatasetReport],
    config: &Config,
    threads: usize,
    seed: u64,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hotpaths-v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"dim\": {},\n", config.dim));
    out.push_str(&format!("  \"epochs\": {},\n", config.epochs));
    out.push_str("  \"datasets\": [\n");
    for (i, report) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", report.name));
        out.push_str("      \"paths\": [\n");
        for (j, m) in report.measurements.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"path\": \"{}\", \"scalar_ns_per_op\": {:.1}, \
                 \"fast_ns_per_op\": {:.1}, \"speedup\": {:.3}}}{}\n",
                m.path,
                m.scalar_ns,
                m.fast_ns,
                m.speedup(),
                if j + 1 < report.measurements.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gates\": {{\"encode_bins_min_speedup\": {GATE_ENCODE_SPEEDUP}, \
         \"e2e_min_speedup\": {GATE_E2E_SPEEDUP}, \
         \"retrain_min_speedup\": {GATE_RETRAIN_SPEEDUP}, \"enforced\": {}}}\n",
        !smoke
    ));
    out.push_str("}\n");
    out
}
