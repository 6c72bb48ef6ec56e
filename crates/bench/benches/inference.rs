//! Criterion micro-benchmarks: similarity search and full-pipeline
//! inference versus dimensionality and class count (the Fig. 5 / §4.3.3
//! trade-off at software level).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use generic_hdc::encoding::{Encoder, GenericEncoder, GenericEncoderSpec};
use generic_hdc::{BinaryHv, HdcModel, IntHv, NormMode, PredictOptions, QuantizedModel};
use std::hint::black_box;

fn trained_model(dim: usize, n_classes: usize) -> (HdcModel, IntHv) {
    let encoded: Vec<IntHv> = (0..n_classes as u64)
        .map(|s| IntHv::from(BinaryHv::random_seeded(dim, 100 + s).expect("dim > 0")))
        .collect();
    let labels: Vec<usize> = (0..n_classes).collect();
    let model = HdcModel::fit(&encoded, &labels, n_classes).expect("valid inputs");
    let query = encoded[0].clone();
    (model, query)
}

fn bench_search_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_4k_dims");
    for n_classes in [2usize, 8, 32] {
        let (model, query) = trained_model(4096, n_classes);
        group.bench_with_input(BenchmarkId::from_parameter(n_classes), &query, |b, q| {
            b.iter(|| black_box(model.predict(black_box(q))))
        });
    }
    group.finish();
}

fn bench_reduced_dimensions(c: &mut Criterion) {
    let (model, query) = trained_model(4096, 10);
    let mut group = c.benchmark_group("search_reduced_dims");
    for dims in [512usize, 1024, 2048, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(dims), &query, |b, q| {
            b.iter(|| {
                black_box(model.predict_with(
                    black_box(q),
                    PredictOptions::reduced(dims, NormMode::Updated),
                ))
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let train: Vec<Vec<f64>> = (0..32)
        .map(|i| (0..64).map(|j| ((i * 3 + j * 5) % 11) as f64).collect())
        .collect();
    let spec = GenericEncoderSpec::new(4096, 64).with_seed(3);
    let encoder = GenericEncoder::from_data(spec, &train).expect("valid data");
    let encoded = encoder.encode_batch(&train).expect("valid rows");
    let labels: Vec<usize> = (0..32).map(|i| i % 4).collect();
    let model = HdcModel::fit(&encoded, &labels, 4).expect("valid inputs");
    let sample = train[7].clone();

    c.bench_function("infer_end_to_end_4k_64f_4c", |b| {
        b.iter(|| {
            let hv = encoder.encode(black_box(&sample)).expect("valid sample");
            black_box(model.predict(&hv))
        })
    });
}

/// Integer cosine search vs the packed 1-bit model (the binarized
/// associative memory) — the software counterpart of the 1-bit
/// deployment mode.
fn bench_binary_vs_integer_search(c: &mut Criterion) {
    let (model, query) = trained_model(4096, 16);
    let binary = QuantizedModel::from_model(&model, 1)
        .and_then(|q| q.pack())
        .expect("valid model");
    let view = binary.view();
    let binary_query = query.to_binary();

    let mut group = c.benchmark_group("search_representation");
    group.bench_function("integer_cosine_4k_16c", |b| {
        b.iter(|| black_box(model.predict(black_box(&query))))
    });
    group.bench_function("packed_1bit_4k_16c", |b| {
        b.iter(|| {
            black_box(
                view.predict(black_box(&binary_query))
                    .expect("widths match"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_search_classes,
    bench_reduced_dimensions,
    bench_end_to_end,
    bench_binary_vs_integer_search
);
criterion_main!(benches);
