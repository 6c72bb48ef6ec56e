//! Throughput harness for the SIMD-dispatched batched inference engine:
//! measures single-query latency (scalar reference vs the dispatched
//! kernels), batched scoring QPS at B ∈ {1, 8, 64, 256} through
//! [`ScoreBatch`], and per-ISA primitive speedups for every kernel set
//! the host exposes, then writes `BENCH_throughput.json`.
//!
//! The harness is self-checking. Three gates are always *measured* and,
//! in full mode, *enforced* (nonzero exit on failure):
//!
//! 1. batched scoring at B = 64 sustains ≥ 3× the single-query scalar
//!    QPS (a SIMD `dot_i32` carries this; with portable kernels batching
//!    alone reaches ~1×, see TESTING.md),
//! 2. every batched prediction is bit-identical to the scalar per-query
//!    argmax at every batch size,
//! 3. the steady-state batch scoring loop performs zero heap allocations
//!    (counted by a process-global counting allocator).
//!
//! Usage: `cargo run -p generic-bench --release --bin throughput
//! [seed] [--threads N] [--smoke]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use generic_bench::cli;
use generic_bench::report::render_table;
use generic_datasets::Benchmark;
use generic_hdc::encoding::{Encoder, GenericEncoder, GenericEncoderSpec};
use generic_hdc::kernels::{self, Isa, KernelSet};
use generic_hdc::{HdcModel, PredictOptions, ScoreBatch};

/// Full-mode gate: batched scoring at B = 64 must sustain at least this
/// multiple of the single-query *scalar* QPS.
const GATE_BATCH64_SPEEDUP: f64 = 3.0;

/// The batch sizes the serve path is characterised at.
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

// ---------------------------------------------------------------------
// Counting allocator backing the zero-allocation gate.
// ---------------------------------------------------------------------

/// Forwards to the system allocator while counting allocation events
/// (allocations and reallocations), so the steady-state batch loop can
/// be asserted heap-silent.
struct CountingAlloc;

static ALLOCATION_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator with the
        // caller's layout; the GlobalAlloc contract is inherited.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`System.realloc` with
        // this same layout, as the GlobalAlloc contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr`/`layout` obey the contract
        // the caller already guarantees to GlobalAlloc.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------

struct Config {
    dim: usize,
    /// Cap on the number of test queries timed (keeps smoke CI-sized).
    max_queries: usize,
    reps: usize,
    /// Iterations per timing sample of one raw kernel primitive.
    kernel_iters: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 4096,
            max_queries: usize::MAX,
            reps: 7,
            kernel_iters: 2_000,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 1024,
            max_queries: 256,
            reps: 3,
            kernel_iters: 200,
        }
    }
}

struct BatchPoint {
    batch: usize,
    ns_per_query: f64,
    qps: f64,
}

struct IsaSpeedups {
    isa: Isa,
    masked_popcount: f64,
    ripple_step: f64,
    dot_i32: f64,
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
        "throughput: dim={} threads={} seed={} mode={} active_isa={}",
        config.dim,
        threads,
        seed,
        if smoke { "smoke" } else { "full" },
        kernels::active().isa()
    );

    let dataset = Benchmark::Isolet.load(seed);
    let spec = GenericEncoderSpec::new(config.dim, dataset.n_features)
        .with_window(3.min(dataset.n_features).max(1))
        .with_seed(seed);
    let encoder =
        GenericEncoder::from_data(spec, &dataset.train.features).expect("dataset validated");
    let train_encoded = encoder
        .encode_batch(&dataset.train.features)
        .expect("rows validated");
    let mut test_encoded = encoder
        .encode_batch(&dataset.test.features)
        .expect("rows validated");
    test_encoded.truncate(config.max_queries);
    let model = HdcModel::fit(&train_encoded, &dataset.train.labels, dataset.n_classes)
        .expect("labels validated");
    let opts = PredictOptions::full(config.dim);

    // --- single-query latency: scalar reference vs dispatched kernels ---
    let single_scalar_ns = median_ns_per_op(config.reps, test_encoded.len(), || {
        for q in &test_encoded {
            black_box(argmax(&model.scores_scalar(q, opts)));
        }
    });
    let single_kernel_ns = median_ns_per_op(config.reps, test_encoded.len(), || {
        for q in &test_encoded {
            black_box(model.predict_with(q, opts));
        }
    });
    let single_scalar_qps = qps(single_scalar_ns);
    let single_kernel_qps = qps(single_kernel_ns);
    println!(
        "single-query: scalar {single_scalar_ns:.0} ns ({single_scalar_qps:.0} QPS), \
         kernel {single_kernel_ns:.0} ns ({single_kernel_qps:.0} QPS)"
    );

    // The scalar per-query oracle every batched run must reproduce.
    let expected: Vec<usize> = test_encoded
        .iter()
        .map(|q| argmax(&model.scores_scalar(q, opts)))
        .collect();

    // --- batched scoring: QPS per batch size + bit-identity check ---
    let mut engine = ScoreBatch::new();
    let mut preds: Vec<usize> = Vec::new();
    let mut got: Vec<usize> = Vec::with_capacity(test_encoded.len());
    let mut bit_identity = true;
    let mut batch_points = Vec::new();
    for batch in BATCH_SIZES {
        got.clear();
        for chunk in test_encoded.chunks(batch) {
            engine.predict_into(&model, chunk, opts, &mut preds);
            got.extend_from_slice(&preds);
        }
        if got != expected {
            bit_identity = false;
            eprintln!("CHECK FAILED: batch={batch} predictions diverge from the scalar oracle");
        }
        let ns_per_query = median_ns_per_op(config.reps, test_encoded.len(), || {
            for chunk in test_encoded.chunks(batch) {
                engine.predict_into(&model, chunk, opts, &mut preds);
                black_box(&preds);
            }
        });
        println!(
            "batched B={batch:<3}: {ns_per_query:>8.0} ns/query  {:>12.0} QPS",
            qps(ns_per_query)
        );
        batch_points.push(BatchPoint {
            batch,
            ns_per_query,
            qps: qps(ns_per_query),
        });
    }

    // --- zero-allocation check on the warm steady-state batch loop ---
    let before = ALLOCATION_EVENTS.load(Ordering::SeqCst);
    for _ in 0..4 {
        for chunk in test_encoded.chunks(64) {
            engine.predict_into(&model, chunk, opts, &mut preds);
            black_box(&preds);
        }
    }
    let allocation_events = ALLOCATION_EVENTS.load(Ordering::SeqCst) - before;
    let zero_alloc = allocation_events == 0;
    if !zero_alloc {
        eprintln!(
            "CHECK FAILED: steady-state batch loop performed {allocation_events} allocations"
        );
    }

    // --- raw kernel primitives, every detected ISA vs portable ---
    let isa_speedups = measure_isas(&config, seed);
    let header: Vec<String> = ["isa", "masked_popcount", "ripple_step", "dot_i32"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let rows: Vec<Vec<String>> = isa_speedups
        .iter()
        .map(|s| {
            vec![
                s.isa.to_string(),
                format!("{:.2}x", s.masked_popcount),
                format!("{:.2}x", s.ripple_step),
                format!("{:.2}x", s.dot_i32),
            ]
        })
        .collect();
    println!(
        "\nkernel speedups vs portable:\n{}",
        render_table(&header, &rows)
    );

    let batch64_speedup = batch_points
        .iter()
        .find(|p| p.batch == 64)
        .map_or(0.0, |p| p.qps / single_scalar_qps.max(1e-9));

    let json = render_json(
        &config,
        seed,
        threads,
        smoke,
        single_scalar_ns,
        single_kernel_ns,
        &batch_points,
        &isa_speedups,
        batch64_speedup,
        bit_identity,
        zero_alloc,
        allocation_events,
    );
    generic_bench::report::write_record("throughput", smoke, &json);

    println!(
        "gates: B=64 {batch64_speedup:.2}x vs scalar single-query (need \
         {GATE_BATCH64_SPEEDUP:.1}x), bit_identity={bit_identity}, zero_alloc={zero_alloc}"
    );
    if smoke {
        println!("smoke mode: gates reported, not enforced");
        return;
    }
    let mut failed = false;
    if batch64_speedup < GATE_BATCH64_SPEEDUP {
        eprintln!(
            "GATE FAILED: B=64 QPS speedup {batch64_speedup:.2}x < {GATE_BATCH64_SPEEDUP:.1}x \
             (active ISA {})",
            kernels::active().isa()
        );
        failed = true;
    }
    if !bit_identity {
        eprintln!("GATE FAILED: batched predictions are not bit-identical to the scalar oracle");
        failed = true;
    }
    if !zero_alloc {
        eprintln!("GATE FAILED: steady-state batch scoring touched the heap");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("all gates passed");
}

/// Times the four raw primitives on synthetic buffers for every kernel
/// set the host exposes, reporting each ISA's speedup over portable.
fn measure_isas(config: &Config, seed: u64) -> Vec<IsaSpeedups> {
    let words = config.dim / 64;
    let mut state = seed | 1;
    let a_bits: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let b_bits: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let mask: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let a_ints: Vec<i32> = (0..config.dim)
        .map(|_| (splitmix64(&mut state) % 17) as i32 - 8)
        .collect();
    let b_ints: Vec<i32> = (0..config.dim)
        .map(|_| (splitmix64(&mut state) % 17) as i32 - 8)
        .collect();
    let plane0: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
    let carry0: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();

    let time_set = |set: &'static KernelSet| -> [f64; 3] {
        let mut plane = vec![0u64; words];
        let mut carry = vec![0u64; words];
        let masked = median_ns_per_op(config.reps, config.kernel_iters, || {
            for _ in 0..config.kernel_iters {
                black_box(set.masked_popcount(
                    black_box(&a_bits),
                    black_box(&b_bits),
                    black_box(&mask),
                ));
            }
        });
        // Each iteration restores the pristine plane/carry so every ISA
        // ripples the same carry chain; the copies are part of both
        // sides of the comparison.
        let ripple = median_ns_per_op(config.reps, config.kernel_iters, || {
            for _ in 0..config.kernel_iters {
                plane.copy_from_slice(&plane0);
                carry.copy_from_slice(&carry0);
                black_box(set.ripple_step(black_box(&mut plane), black_box(&mut carry)));
            }
        });
        let dot = median_ns_per_op(config.reps, config.kernel_iters, || {
            for _ in 0..config.kernel_iters {
                black_box(set.dot_i32(black_box(&a_ints), black_box(&b_ints)));
            }
        });
        [masked, ripple, dot]
    };

    let portable = time_set(kernels::for_isa(Isa::Portable).expect("portable is always available"));
    kernels::available()
        .into_iter()
        .map(|isa| {
            let t = time_set(kernels::for_isa(isa).expect("listed by available()"));
            IsaSpeedups {
                isa,
                masked_popcount: portable[0] / t[0].max(1e-9),
                ripple_step: portable[1] / t[1].max(1e-9),
                dot_i32: portable[2] / t[2].max(1e-9),
            }
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn qps(ns_per_op: f64) -> f64 {
    if ns_per_op > 0.0 {
        1e9 / ns_per_op
    } else {
        f64::INFINITY
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

/// Index of the best score (last max wins, matching `HdcModel::predict`).
fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("model has at least one class")
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &Config,
    seed: u64,
    threads: usize,
    smoke: bool,
    single_scalar_ns: f64,
    single_kernel_ns: f64,
    batch_points: &[BatchPoint],
    isa_speedups: &[IsaSpeedups],
    batch64_speedup: f64,
    bit_identity: bool,
    zero_alloc: bool,
    allocation_events: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"throughput-v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"dim\": {},\n", config.dim));
    out.push_str(&format!(
        "  \"active_isa\": \"{}\",\n",
        kernels::active().isa()
    ));
    out.push_str(&format!(
        "  \"single_query\": {{\"scalar_ns\": {single_scalar_ns:.1}, \
         \"kernel_ns\": {single_kernel_ns:.1}, \"scalar_qps\": {:.1}, \
         \"kernel_qps\": {:.1}}},\n",
        qps(single_scalar_ns),
        qps(single_kernel_ns)
    ));
    out.push_str("  \"batched\": [\n");
    for (i, p) in batch_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch\": {}, \"ns_per_query\": {:.1}, \"qps\": {:.1}, \
             \"speedup_vs_scalar_single\": {:.3}}}{}\n",
            p.batch,
            p.ns_per_query,
            p.qps,
            p.qps / qps(single_scalar_ns).max(1e-9),
            if i + 1 < batch_points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernel_speedups_vs_portable\": [\n");
    for (i, s) in isa_speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"isa\": \"{}\", \"masked_popcount\": {:.3}, \
             \"ripple_step\": {:.3}, \"dot_i32\": {:.3}}}{}\n",
            s.isa,
            s.masked_popcount,
            s.ripple_step,
            s.dot_i32,
            if i + 1 < isa_speedups.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"checks\": {{\"batch64_speedup\": {batch64_speedup:.3}, \
         \"bit_identity\": {bit_identity}, \"zero_alloc\": {zero_alloc}, \
         \"allocation_events\": {allocation_events}}},\n"
    ));
    out.push_str(&format!(
        "  \"gates\": {{\"batch64_min_speedup\": {GATE_BATCH64_SPEEDUP}, \
         \"bit_identity\": true, \"zero_alloc\": true, \"enforced\": {}}}\n",
        !smoke
    ));
    out.push_str("}\n");
    out
}
