//! Property-based tests for the core hypervector data structures and the
//! algebraic invariants the GENERIC encoding relies on.

use generic_hdc::encoding::{Encoder, GenericEncoder, GenericEncoderSpec};
use generic_hdc::kernels;
use generic_hdc::{
    BinaryHv, BitSliceAccumulator, HdcModel, IntHv, LevelMemory, NormMode, PredictOptions,
    QuantizedModel, Quantizer,
};
use proptest::prelude::*;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(64usize),
        Just(128),
        Just(192),
        Just(70),
        Just(100),
        Just(256)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XOR binding is an involution: (a ⊕ b) ⊕ b = a.
    #[test]
    fn xor_involution(dim in arb_dim(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = BinaryHv::random_seeded(dim, s1).unwrap();
        let b = BinaryHv::random_seeded(dim, s2).unwrap();
        prop_assert_eq!(a.xor(&b).unwrap().xor(&b).unwrap(), a);
    }

    /// XOR is commutative.
    #[test]
    fn xor_commutative(dim in arb_dim(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = BinaryHv::random_seeded(dim, s1).unwrap();
        let b = BinaryHv::random_seeded(dim, s2).unwrap();
        prop_assert_eq!(a.xor(&b).unwrap(), b.xor(&a).unwrap());
    }

    /// Hamming distance is a metric: symmetric and satisfies the triangle
    /// inequality.
    #[test]
    fn hamming_is_a_metric(dim in arb_dim(), s in any::<[u64; 3]>()) {
        let a = BinaryHv::random_seeded(dim, s[0]).unwrap();
        let b = BinaryHv::random_seeded(dim, s[1]).unwrap();
        let c = BinaryHv::random_seeded(dim, s[2]).unwrap();
        let ab = a.hamming(&b).unwrap();
        let ba = b.hamming(&a).unwrap();
        let bc = b.hamming(&c).unwrap();
        let ac = a.hamming(&c).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert!(ac <= ab + bc);
        prop_assert_eq!(a.hamming(&a).unwrap(), 0);
    }

    /// XOR with a common vector preserves Hamming distance (binding is an
    /// isometry — why id binding does not destroy similarity structure).
    #[test]
    fn binding_preserves_distance(dim in arb_dim(), s in any::<[u64; 3]>()) {
        let a = BinaryHv::random_seeded(dim, s[0]).unwrap();
        let b = BinaryHv::random_seeded(dim, s[1]).unwrap();
        let key = BinaryHv::random_seeded(dim, s[2]).unwrap();
        let d0 = a.hamming(&b).unwrap();
        let d1 = a.xor(&key).unwrap().hamming(&b.xor(&key).unwrap()).unwrap();
        prop_assert_eq!(d0, d1);
    }

    /// Rotation composes additively and preserves population count.
    #[test]
    fn rotation_composes(dim in arb_dim(), seed in any::<u64>(), j in 0usize..200, k in 0usize..200) {
        let a = BinaryHv::random_seeded(dim, seed).unwrap();
        let lhs = a.rotated(j).rotated(k);
        let rhs = a.rotated((j + k) % dim);
        prop_assert_eq!(&lhs, &rhs);
        prop_assert_eq!(lhs.count_ones(), a.count_ones());
    }

    /// Rotation distributes over XOR: ρ(a ⊕ b) = ρ(a) ⊕ ρ(b) — the identity
    /// that lets the accelerator rotate ids instead of window products.
    #[test]
    fn rotation_distributes_over_xor(dim in arb_dim(), s1 in any::<u64>(), s2 in any::<u64>(), k in 0usize..300) {
        let a = BinaryHv::random_seeded(dim, s1).unwrap();
        let b = BinaryHv::random_seeded(dim, s2).unwrap();
        let lhs = a.xor(&b).unwrap().rotated(k);
        let rhs = a.rotated(k).xor(&b.rotated(k)).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// dim - 2·hamming equals the bipolar dot product computed naively.
    #[test]
    fn dot_binary_identity(dim in arb_dim(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = BinaryHv::random_seeded(dim, s1).unwrap();
        let b = BinaryHv::random_seeded(dim, s2).unwrap();
        let naive: i64 = a
            .to_bipolar()
            .iter()
            .zip(b.to_bipolar())
            .map(|(&x, y)| i64::from(x) * i64::from(y))
            .sum();
        prop_assert_eq!(a.dot_binary(&b).unwrap(), naive);
    }

    /// Bundling then binarizing an odd number of copies of one vector
    /// recovers the vector (majority rule).
    #[test]
    fn majority_recovers_dominant(dim in arb_dim(), seed in any::<u64>(), copies in 1usize..6) {
        let a = BinaryHv::random_seeded(dim, seed).unwrap();
        let mut acc = IntHv::zeros(dim).unwrap();
        for _ in 0..(2 * copies - 1) {
            acc.bundle_binary(&a).unwrap();
        }
        prop_assert_eq!(acc.to_binary(), a);
    }

    /// Quantizer bins are always in range and monotone in the value.
    #[test]
    fn quantizer_bins_in_range(
        lo in -100.0f64..0.0,
        span in 0.1f64..100.0,
        levels in 2usize..64,
        v1 in -200.0f64..200.0,
        v2 in -200.0f64..200.0,
    ) {
        let q = Quantizer::fit(&[vec![lo], vec![lo + span]], levels).unwrap();
        let b1 = q.bin(0, v1);
        let b2 = q.bin(0, v2);
        prop_assert!(b1 < levels && b2 < levels);
        if v1 <= v2 {
            prop_assert!(b1 <= b2);
        }
    }

    /// Level-memory Hamming distance is exactly linear in bin distance.
    #[test]
    fn level_distance_linear(levels in 2usize..17, i in 0usize..16, j in 0usize..16) {
        let i = i % levels;
        let j = j % levels;
        let lm = LevelMemory::new(1024, levels, 42).unwrap();
        let step = 1024 / (2 * (levels - 1));
        let d = lm.level(i).hamming(lm.level(j)).unwrap();
        prop_assert_eq!(d, step * i.abs_diff(j));
    }

    /// Encoding is deterministic and its components are bounded by the
    /// window count.
    #[test]
    fn encode_bounded_and_deterministic(seed in any::<u64>(), rows in 4usize..12) {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|r| (0..8).map(|c| ((r * 3 + c * 5) % 7) as f64).collect())
            .collect();
        let spec = GenericEncoderSpec::new(256, 8).with_seed(seed);
        let enc = GenericEncoder::from_data(spec, &data).unwrap();
        let h1 = enc.encode(&data[0]).unwrap();
        let h2 = enc.encode(&data[0]).unwrap();
        prop_assert_eq!(&h1, &h2);
        let windows = 8 - 3 + 1;
        prop_assert!(h1.values().iter().all(|v| (v.unsigned_abs() as usize) <= windows));
        // Parity: each component is a sum of `windows` ±1 terms.
        prop_assert!(h1.values().iter().all(|v| (v.rem_euclid(2)) as usize == windows % 2));
    }

    /// A model trained on a single sample per class predicts those samples.
    #[test]
    fn one_shot_model_memorizes(seeds in any::<[u64; 3]>()) {
        let encoded: Vec<IntHv> = seeds
            .iter()
            .map(|&s| IntHv::from(BinaryHv::random_seeded(512, s).unwrap()))
            .collect();
        // Seeds may collide; skip the degenerate case.
        prop_assume!(encoded[0] != encoded[1] && encoded[1] != encoded[2] && encoded[0] != encoded[2]);
        let labels = vec![0usize, 1, 2];
        let model = HdcModel::fit(&encoded, &labels, 3).unwrap();
        for (hv, &label) in encoded.iter().zip(&labels) {
            prop_assert_eq!(model.predict(hv), label);
        }
    }

    /// 16-bit quantization with per-class scaling never changes the
    /// ranking of a strongly separated query.
    #[test]
    fn wide_quantization_is_faithful(seeds in any::<[u64; 2]>()) {
        prop_assume!(seeds[0] != seeds[1]);
        let encoded: Vec<IntHv> = seeds
            .iter()
            .map(|&s| IntHv::from(BinaryHv::random_seeded(512, s).unwrap()))
            .collect();
        let labels = vec![0usize, 1];
        let model = HdcModel::fit(&encoded, &labels, 2).unwrap();
        let quantized = QuantizedModel::from_model(&model, 16).unwrap();
        for (hv, &label) in encoded.iter().zip(&labels) {
            prop_assert_eq!(quantized.predict(hv), label);
        }
    }

    /// Bit-sliced (carry-save) bundling is bit-identical to scalar
    /// per-dimension accumulation for any dimensionality (including
    /// non-multiples of 64) and any bundle size.
    #[test]
    fn bit_sliced_bundling_matches_scalar(
        dim in arb_dim(),
        seeds in proptest::collection::vec(any::<u64>(), 1..=24),
    ) {
        let mut fast = BitSliceAccumulator::new(dim).unwrap();
        let mut scalar = IntHv::zeros(dim).unwrap();
        for &s in &seeds {
            let hv = BinaryHv::random_seeded(dim, s).unwrap();
            fast.add(&hv).unwrap();
            scalar.bundle_binary(&hv).unwrap();
        }
        prop_assert_eq!(fast.count(), seeds.len());
        prop_assert_eq!(fast.to_int_hv(), scalar);
    }

    /// The fused bind-then-bundle (`add_xor`) equals materializing the
    /// XOR first — and a cleared accumulator behaves like a fresh one.
    #[test]
    fn fused_xor_bundling_matches_bind_then_bundle(
        dim in arb_dim(),
        windows in proptest::collection::vec(any::<[u64; 3]>(), 1..=12),
    ) {
        let mut fast = BitSliceAccumulator::new(dim).unwrap();
        fast.add(&BinaryHv::random_seeded(dim, 999).unwrap()).unwrap();
        fast.clear();
        let mut scalar = IntHv::zeros(dim).unwrap();
        for s in &windows {
            let a = BinaryHv::random_seeded(dim, s[0]).unwrap();
            let b = BinaryHv::random_seeded(dim, s[1]).unwrap();
            let c = BinaryHv::random_seeded(dim, s[2]).unwrap();
            fast.add_xor(&[&a, &b, &c]).unwrap();
            let bound = a.xor(&b).unwrap().xor(&c).unwrap();
            scalar.bundle_binary(&bound).unwrap();
        }
        prop_assert_eq!(fast.to_int_hv(), scalar);
    }

    /// The bit-sliced GENERIC encoder is bit-identical to the retained
    /// scalar reference for every window size and id-binding mode.
    #[test]
    fn encoder_kernels_bit_identical(
        dim in arb_dim(),
        seed in any::<u64>(),
        window in 1usize..=5,
        id_binding in any::<bool>(),
    ) {
        let data: Vec<Vec<f64>> = (0..10)
            .map(|r| (0..8).map(|c| ((r * 3 + c * 5) % 7) as f64).collect())
            .collect();
        let spec = GenericEncoderSpec::new(dim, 8)
            .with_levels(8) // small dims cannot host the default 64 levels
            .with_window(window)
            .with_id_binding(id_binding)
            .with_seed(seed);
        let enc = GenericEncoder::from_data(spec, &data).unwrap();
        for row in data.iter().take(3) {
            let bins = enc.quantizer().bins(row).unwrap();
            prop_assert_eq!(
                enc.encode_bins(&bins).unwrap(),
                enc.encode_bins_scalar(&bins).unwrap()
            );
        }
    }

    /// Packed sign/magnitude scoring through the v3 view equals the
    /// scalar quantized reference on every dispatched ISA, for every
    /// quantization width 1..=16 (values spanning the full signed range
    /// of the width, the range's extremes, and an all-zero class,
    /// including non-multiple-of-64 dims).
    #[test]
    fn packed_dot_matches_scalar(
        dim in arb_dim(),
        seed in any::<u64>(),
        bw in 1u8..=16,
    ) {
        let query = BinaryHv::random_seeded(dim, seed).unwrap();
        let hi = (1i64 << (bw - 1)) - 1;
        let hi = if bw == 1 { 1 } else { hi };
        let lo = if bw == 1 { -1 } else { -hi - 1 };
        let span = 2 * hi + 1;
        let values: Vec<i16> = (0..dim as i64)
            .map(|i| ((i.wrapping_mul(2_654_435_761) + seed as i64 % 1_000_003).rem_euclid(span) - hi) as i16)
            .collect();
        let extremes: Vec<i16> = (0..dim)
            .map(|i| if i % 2 == 0 { hi as i16 } else { lo as i16 })
            .collect();
        let model = QuantizedModel::from_parts(dim, bw, vec![values, extremes, vec![0; dim]]).unwrap();
        let packed = model.pack().unwrap();
        prop_assert_eq!(packed.view().dim(), dim);
        let reference = model.scores(&IntHv::from(query.clone()));
        for isa in kernels::available() {
            let mut fast = Vec::new();
            packed
                .view()
                .scores_into_with(&query, kernels::for_isa(isa).unwrap(), &mut fast)
                .unwrap();
            prop_assert_eq!(&fast, &reference, "isa={}", isa);
        }
    }

    /// Blocked class scoring (cache-blocked, sub-norm-chunk reuse) is
    /// bit-identical to the scalar reference in both norm modes and at
    /// reduced dimensions.
    #[test]
    fn blocked_scores_match_scalar(
        dim in arb_dim(),
        seeds in any::<[u64; 4]>(),
        dims_raw in 1usize..=256,
    ) {
        let encoded: Vec<IntHv> = seeds[..3]
            .iter()
            .map(|&s| IntHv::from(BinaryHv::random_seeded(dim, s).unwrap()))
            .collect();
        let model = HdcModel::fit(&encoded, &[0, 1, 2], 3).unwrap();
        let query = IntHv::from(BinaryHv::random_seeded(dim, seeds[3]).unwrap());
        let dims = dims_raw.min(dim);
        for mode in [NormMode::Updated, NormMode::Constant] {
            let opts = PredictOptions::reduced(dims, mode);
            prop_assert_eq!(
                model.scores_with(&query, opts),
                model.scores_scalar(&query, opts)
            );
        }
    }

    /// Fault injection at BER=0 is the identity; BER=1 flips every bit.
    #[test]
    fn fault_injection_extremes(seed in any::<u64>()) {
        let encoded = vec![
            IntHv::from(BinaryHv::random_seeded(256, seed).unwrap()),
            IntHv::from(BinaryHv::random_seeded(256, seed.wrapping_add(1)).unwrap()),
        ];
        let model = HdcModel::fit(&encoded, &[0, 1], 2).unwrap();
        let clean = QuantizedModel::from_model(&model, 4).unwrap();
        let mut zero = clean.clone();
        zero.inject_bit_flips(0.0, seed).unwrap();
        prop_assert_eq!(&zero, &clean);
        let mut full = clean.clone();
        let flipped = full.inject_bit_flips(1.0, seed).unwrap();
        prop_assert_eq!(flipped, full.storage_bits());
    }
}
