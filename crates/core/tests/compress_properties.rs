//! Property-based tests for the post-training compression pipeline:
//! saliency-guided pruning invariants and the support-mask wire
//! extension's rejection of malformed masks.

use generic_hdc::io::{PackedLayout, ReadModelError};
use generic_hdc::{
    prune, saliency, BinaryHv, CompressedModel, HdcModel, IntHv, Mapping, PackedModelView,
};
use proptest::prelude::*;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(64usize),
        Just(100),
        Just(127),
        Just(128),
        Just(129),
        Just(256)
    ]
}

/// A small trained model plus the samples it was fitted on. Per-class
/// prototypes with per-sample noise give the saliency map real signal.
fn sample_problem(dim: usize, seed: u64) -> (HdcModel, Vec<IntHv>, Vec<usize>) {
    let n_classes = 3;
    let prototypes: Vec<BinaryHv> = (0..n_classes as u64)
        .map(|c| BinaryHv::random_seeded(dim, seed ^ (c * 7919)).expect("dim > 0"))
        .collect();
    let mut encoded = Vec::new();
    let mut labels = Vec::new();
    for i in 0..18u64 {
        let label = (i % n_classes as u64) as usize;
        let noise = BinaryHv::random_seeded(dim, seed.wrapping_add(i * 104_729)).expect("dim > 0");
        let mut bits: Vec<bool> = (0..dim).map(|d| prototypes[label].bit(d)).collect();
        for (d, bit) in bits.iter_mut().enumerate() {
            // Flip ~1/8 of the positions so classes stay separable.
            if noise.bit(d) && d % 8 == 0 {
                *bit = !*bit;
            }
        }
        encoded.push(IntHv::from(BinaryHv::from_bits(&bits).expect("dim > 0")));
        labels.push(label);
    }
    let model = HdcModel::fit(&encoded, &labels, n_classes).expect("valid inputs");
    (model, encoded, labels)
}

/// Bitwise CRC-32 (IEEE, reflected 0xEDB88320) so tests can re-seal a
/// tampered stream and prove the *structural* validators also fire.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

/// Overwrites the 4-byte CRC footer with one matching the (tampered)
/// body, so corruption reaches the support-mask validator instead of
/// stopping at the checksum gate.
fn reseal(image: &mut [u8]) {
    let body = image.len() - 4;
    let crc = crc32(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The support is a strictly ascending subset of the parent
    /// dimensions, exactly `keep` long, and equals the top-`keep`
    /// saliency dimensions (the monotone-order invariant: no kept
    /// dimension is less salient than a dropped one).
    #[test]
    fn support_is_the_sorted_top_saliency_subset(
        dim in arb_dim(),
        seed in any::<u64>(),
        keep_frac in 1usize..=4,
    ) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        let keep = (dim * keep_frac / 4).max(1);
        let pruned = prune(&model, &sal, keep).expect("valid keep");

        prop_assert_eq!(pruned.support().len(), keep);
        prop_assert_eq!(pruned.parent_dim(), dim);
        prop_assert_eq!(pruned.model().dim(), keep);
        prop_assert!(pruned.support().windows(2).all(|w| w[0] < w[1]));
        prop_assert!(pruned.support().iter().all(|&d| d < dim));

        let mut expected: Vec<usize> = sal.ranked()[..keep].to_vec();
        expected.sort_unstable();
        prop_assert_eq!(pruned.support(), expected.as_slice());

        // Dropped dimensions are never strictly more salient than kept
        // ones (ties break toward the lower index, which ranked() pins).
        let kept_min = pruned
            .support()
            .iter()
            .map(|&d| sal.scores()[d])
            .min()
            .expect("keep >= 1");
        for d in 0..dim {
            if !pruned.support().contains(&d) {
                prop_assert!(sal.scores()[d] <= kept_min);
            }
        }

        // The pruned class vectors are exact gathers of the originals.
        for (label, class) in pruned.model().iter().enumerate() {
            for (j, &d) in pruned.support().iter().enumerate() {
                prop_assert_eq!(class.values()[j], model.class(label).values()[d]);
            }
        }
    }

    /// The ranked order is monotone non-increasing in saliency.
    #[test]
    fn ranked_order_is_monotone(dim in arb_dim(), seed in any::<u64>()) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        let ranked = sal.ranked();
        prop_assert_eq!(ranked.len(), dim);
        for w in ranked.windows(2) {
            let (a, b) = (sal.scores()[w[0]], sal.scores()[w[1]]);
            prop_assert!(a > b || (a == b && w[0] < w[1]));
        }
    }

    /// Prune → quantize → pack → map → unpack round-trips bit-exactly:
    /// the mapped view reproduces the heap model and the support mask,
    /// and re-serialization is byte-identical.
    #[test]
    fn prune_then_pack_roundtrips_bit_exactly(
        dim in arb_dim(),
        seed in any::<u64>(),
        bit_width in prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
    ) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        let keep = (dim / 2).max(1);
        let pruned = prune(&model, &sal, keep).expect("valid keep");
        let compressed = CompressedModel::from_pruned(&pruned, bit_width).expect("quantizes");

        let packed = compressed.pack().expect("packs");
        let view = packed.view();
        prop_assert!(view.is_pruned());
        prop_assert_eq!(view.parent_dim(), dim);
        prop_assert_eq!(view.dim(), keep);
        let mask = compressed.support_mask();
        prop_assert_eq!(view.support().expect("pruned view carries a mask"), mask.as_slice());
        prop_assert_eq!(&view.to_quantized().expect("decodes"), compressed.quantized());
        let again = compressed.pack().expect("packs");
        prop_assert_eq!(again.bytes(), packed.bytes());
    }

    /// keep = 0 is a typed error; keep = dim is the total support and
    /// serializes as a plain full-support stream (no mask section).
    #[test]
    fn zero_and_full_supports_are_total(dim in arb_dim(), seed in any::<u64>()) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        prop_assert!(prune(&model, &sal, 0).is_err());

        let full = prune(&model, &sal, dim).expect("total support");
        let support: Vec<usize> = (0..dim).collect();
        prop_assert_eq!(full.support(), support.as_slice());
        let compressed = CompressedModel::from_pruned(&full, 4).expect("quantizes");
        let packed = compressed.pack().expect("packs");
        let layout = PackedLayout::parse(packed.bytes()).expect("parses");
        prop_assert!(!layout.is_pruned(), "full support must not store a mask");
    }

    /// Truncating a pruned image anywhere in or after the support
    /// section is caught as a typed length error before any view exists.
    #[test]
    fn truncated_support_masks_are_rejected(dim in arb_dim(), seed in any::<u64>(), cut_seed in any::<u64>()) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        let pruned = prune(&model, &sal, (dim / 2).max(1)).expect("valid keep");
        let compressed = CompressedModel::from_pruned(&pruned, 2).expect("quantizes");
        let mut image = compressed.pack().expect("packs").bytes().to_vec();

        let layout = PackedLayout::parse(&image).expect("parses");
        let span = layout.total_len() - layout.support_offset();
        let cut = layout.support_offset() + (cut_seed as usize % span);
        image.truncate(cut);
        let mapping = Mapping::from_bytes(&image).expect("maps");
        let err = PackedModelView::new(&mapping).expect_err("truncation must be caught");
        prop_assert!(
            matches!(err, ReadModelError::Truncated { .. }),
            "cut {}: {}", cut, err
        );
    }

    /// A flipped support-mask bit is rejected either way: the checksum
    /// gate catches the raw tamper, and a re-sealed stream (valid CRC,
    /// corrupt mask) still fails the population-count cross-check —
    /// both before any view is constructed.
    #[test]
    fn bit_flipped_support_masks_are_rejected(dim in arb_dim(), seed in any::<u64>(), flip_seed in any::<u64>()) {
        let (model, encoded, labels) = sample_problem(dim, seed);
        let sal = saliency(&model, &encoded, &labels).expect("valid inputs");
        let pruned = prune(&model, &sal, (dim / 2).max(1)).expect("valid keep");
        let compressed = CompressedModel::from_pruned(&pruned, 2).expect("quantizes");
        let image = compressed.pack().expect("packs").bytes().to_vec();
        let layout = PackedLayout::parse(&image).expect("parses");

        // Flip a mask bit inside the parent space so only the popcount
        // (not the padding rule) is violated.
        let d = flip_seed as usize % dim;
        let pos = layout.support_offset() + d / 8;
        let mask = 1u8 << (d % 8);

        let mut raw = image.clone();
        raw[pos] ^= mask;
        let mapping = Mapping::from_bytes(&raw).expect("maps");
        let err = PackedModelView::new(&mapping).expect_err("tamper must be caught");
        prop_assert!(matches!(err, ReadModelError::ChecksumMismatch { .. }), "{err}");

        let mut resealed = image;
        resealed[pos] ^= mask;
        reseal(&mut resealed);
        let mapping = Mapping::from_bytes(&resealed).expect("maps");
        let err = PackedModelView::new(&mapping).expect_err("bad popcount must be caught");
        prop_assert!(matches!(err, ReadModelError::SupportMismatch { .. }), "{err}");
    }
}
