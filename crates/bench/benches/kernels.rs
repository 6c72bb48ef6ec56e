//! Criterion micro-benchmarks: the word-parallel kernels against their
//! retained scalar references — bit-sliced bundling vs per-dimension
//! accumulation, packed sign/magnitude scoring vs the scalar quantized
//! model, and blocked vs scalar class scoring — plus every
//! runtime-dispatched SIMD kernel set paired against the portable
//! fallback on the same buffers, and the batched scoring engine against
//! per-query scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use generic_hdc::encoding::GenericEncoder;
use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::kernels;
use generic_hdc::{
    BinaryHv, BitSliceAccumulator, HdcModel, IntHv, PredictOptions, QuantizedModel, ScoreBatch,
};
use std::hint::black_box;

const DIM: usize = 4096;
const N_VECS: usize = 62; // ISOLET-shaped: 64 features, window 3

fn bench_bundling(c: &mut Criterion) {
    let hvs: Vec<BinaryHv> = (0..N_VECS as u64)
        .map(|s| BinaryHv::random_seeded(DIM, 10 + s).expect("dim > 0"))
        .collect();

    let mut group = c.benchmark_group("bundle_62x4096");
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = IntHv::zeros(DIM).expect("dim > 0");
            for hv in &hvs {
                acc.bundle_binary(black_box(hv)).expect("dims match");
            }
            black_box(acc)
        })
    });
    group.bench_function("bit_sliced", |b| {
        b.iter(|| {
            let mut acc = BitSliceAccumulator::new(DIM).expect("dim > 0");
            for hv in &hvs {
                acc.add(black_box(hv)).expect("dims match");
            }
            black_box(acc.to_int_hv())
        })
    });
    group.finish();
}

fn bench_encode_bins(c: &mut Criterion) {
    let train: Vec<Vec<f64>> = (0..64)
        .map(|i| (0..64).map(|j| ((i * 7 + j * 3) % 17) as f64).collect())
        .collect();
    let spec = GenericEncoderSpec::new(DIM, 64).with_seed(7);
    let encoder = GenericEncoder::from_data(spec, &train).expect("valid data");
    let bins = encoder.quantizer().bins(&train[5]).expect("valid row");

    let mut group = c.benchmark_group("encode_bins_4k_64f");
    group.bench_function("scalar", |b| {
        b.iter(|| {
            black_box(
                encoder
                    .encode_bins_scalar(black_box(&bins))
                    .expect("valid bins"),
            )
        })
    });
    group.bench_function("bit_sliced", |b| {
        b.iter(|| black_box(encoder.encode_bins(black_box(&bins)).expect("valid bins")))
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let encoded: Vec<IntHv> = (0..13u64)
        .map(|s| IntHv::from(BinaryHv::random_seeded(DIM, 100 + s).expect("dim > 0")))
        .collect();
    let labels: Vec<usize> = (0..13).collect();
    let model = HdcModel::fit(&encoded, &labels, 13).expect("valid inputs");
    let query = encoded[0].clone();
    let opts = PredictOptions::full(DIM);

    let mut group = c.benchmark_group("score_13c_4096");
    group.bench_function("scalar", |b| {
        b.iter(|| black_box(model.scores_scalar(black_box(&query), opts)))
    });
    group.bench_function("blocked", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            model.score_all(black_box(&query), opts, &mut out);
            black_box(&out);
        })
    });
    group.finish();
}

fn bench_quantized_scoring(c: &mut Criterion) {
    let encoded: Vec<IntHv> = (0..13u64)
        .map(|s| IntHv::from(BinaryHv::random_seeded(DIM, 200 + s).expect("dim > 0")))
        .collect();
    let labels: Vec<usize> = (0..13).collect();
    let model = HdcModel::fit(&encoded, &labels, 13).expect("valid inputs");
    let query = encoded[0].to_binary();
    let query_int = IntHv::from(query.clone());

    let mut group = c.benchmark_group("quantized_score_13c_4096");
    for bw in [4u8, 8] {
        let quantized = QuantizedModel::from_model(&model, bw).expect("valid width");
        let packed = quantized.pack().expect("valid model");
        let view = packed.view();
        group.bench_with_input(BenchmarkId::new("scalar", bw), &query_int, |b, q| {
            b.iter(|| black_box(quantized.scores(black_box(q))))
        });
        group.bench_with_input(BenchmarkId::new("packed", bw), &query, |b, q| {
            b.iter(|| black_box(view.scores(black_box(q)).expect("dims match")))
        });
    }
    group.finish();
}

/// Every runtime-detected kernel set against the portable fallback on
/// identical buffers: one group per primitive, one entry per ISA (the
/// portable entry is the 1× baseline).
fn bench_isa_primitives(c: &mut Criterion) {
    let words = DIM / 64;
    let a_bits: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
        .collect();
    let b_bits: Vec<u64> = (0..words as u64)
        .map(|i| !i.wrapping_mul(0xbf58476d1ce4e5b9))
        .collect();
    let mask: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x94d049bb133111eb))
        .collect();
    let a_ints: Vec<i32> = (0..DIM as i64)
        .map(|i| ((i * 31 + 7) % 17 - 8) as i32)
        .collect();
    let b_ints: Vec<i32> = (0..DIM as i64)
        .map(|i| ((i * 13 + 5) % 17 - 8) as i32)
        .collect();

    let mut group = c.benchmark_group("isa_masked_popcount_4096");
    for isa in kernels::available() {
        let set = kernels::for_isa(isa).expect("listed by available()");
        group.bench_function(BenchmarkId::from_parameter(isa), |b| {
            b.iter(|| {
                black_box(set.masked_popcount(
                    black_box(&a_bits),
                    black_box(&b_bits),
                    black_box(&mask),
                ))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("isa_ripple_step_4096");
    for isa in kernels::available() {
        let set = kernels::for_isa(isa).expect("listed by available()");
        let mut plane = vec![0u64; words];
        let mut carry = vec![0u64; words];
        group.bench_function(BenchmarkId::from_parameter(isa), |b| {
            b.iter(|| {
                plane.copy_from_slice(&a_bits);
                carry.copy_from_slice(&mask);
                black_box(set.ripple_step(black_box(&mut plane), black_box(&mut carry)))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("isa_dot_i32_4096");
    for isa in kernels::available() {
        let set = kernels::for_isa(isa).expect("listed by available()");
        group.bench_function(BenchmarkId::from_parameter(isa), |b| {
            b.iter(|| black_box(set.dot_i32(black_box(&a_ints), black_box(&b_ints))))
        });
    }
    group.finish();
}

/// The batched scoring engine at B = 64 against a per-query loop over
/// the same dispatched kernels and over the scalar reference.
fn bench_score_batch(c: &mut Criterion) {
    let encoded: Vec<IntHv> = (0..64u64)
        .map(|s| IntHv::from(BinaryHv::random_seeded(DIM, 300 + s).expect("dim > 0")))
        .collect();
    let labels: Vec<usize> = (0..64).map(|i| i % 13).collect();
    let model = HdcModel::fit(&encoded, &labels, 13).expect("valid inputs");
    let opts = PredictOptions::full(DIM);

    let mut group = c.benchmark_group("predict_64q_13c_4096");
    group.bench_function("scalar_per_query", |b| {
        b.iter(|| {
            for q in &encoded {
                black_box(model.scores_scalar(black_box(q), opts));
            }
        })
    });
    group.bench_function("kernel_per_query", |b| {
        b.iter(|| {
            for q in &encoded {
                black_box(model.predict_with(black_box(q), opts));
            }
        })
    });
    group.bench_function("score_batch", |b| {
        let mut engine = ScoreBatch::new();
        let mut preds = Vec::new();
        b.iter(|| {
            engine.predict_into(&model, black_box(&encoded), opts, &mut preds);
            black_box(&preds);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bundling,
    bench_encode_bins,
    bench_scoring,
    bench_quantized_scoring,
    bench_isa_primitives,
    bench_score_batch
);
criterion_main!(benches);
