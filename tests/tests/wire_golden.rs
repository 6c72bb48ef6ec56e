//! Golden-vector tests for the GHDC wire format.
//!
//! Tiny committed fixture files under `tests/fixtures/` pin the exact
//! bytes of the v2 (sealed, CRC32) and v1 (legacy, unsealed) formats for
//! both payload kinds. Round-trips must be byte-exact; any unintentional
//! format change — header layout, endianness, payload width, checksum —
//! fails these tests instead of silently orphaning persisted models.
//!
//! Regenerate the fixtures (only after a *deliberate*, version-bumped
//! format change) with:
//!
//! ```text
//! cargo test -p generic-tests --test wire_golden -- --ignored regenerate
//! ```

use std::path::{Path, PathBuf};

use generic_hdc::io::{
    read_model, read_packed, read_quantized, write_model, write_packed, write_packed_pruned,
    write_quantized, PackedLayout, ReadModelError, PACKED_ALIGN,
};
use generic_hdc::{BinaryHv, HdcModel, IntHv, Mapping, PackedModelView, QuantizedModel};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); see module docs",
            path.display()
        )
    })
}

/// The deterministic tiny model every fixture derives from: 2 classes ×
/// 8 dims with distinctive, sign-mixed values.
fn golden_model() -> HdcModel {
    let classes = vec![
        IntHv::from_values(vec![3, -1, 4, -1, 5, -9, 2, 6]).unwrap(),
        IntHv::from_values(vec![-2, 7, -1, 8, -2, 8, -1, 8]).unwrap(),
    ];
    HdcModel::from_class_vectors(classes).unwrap()
}

/// A 4-bit quantization of the golden model's shape, with every value
/// representable in 4 bits.
fn golden_quantized() -> QuantizedModel {
    QuantizedModel::from_parts(
        8,
        4,
        vec![
            vec![3, -1, 4, -1, 5, -7, 2, 6],
            vec![-2, 7, -1, 7, -2, 7, -1, 7],
        ],
    )
    .unwrap()
}

/// A 1-bit quantization: sign-only rows (the historical pack/unpack
/// regression surface — +1 must survive the wire round-trip).
fn golden_one_bit() -> QuantizedModel {
    QuantizedModel::from_parts(
        8,
        1,
        vec![
            vec![1, -1, 1, -1, 1, -1, 1, 1],
            vec![-1, -1, 1, 1, -1, 1, -1, -1],
        ],
    )
    .unwrap()
}

/// Converts sealed v2 bytes to the legacy v1 encoding: version byte 1,
/// no CRC32 footer (mirrors how pre-seal files were written).
fn to_legacy(v2: &[u8]) -> Vec<u8> {
    let mut bytes = v2[..v2.len() - 4].to_vec();
    bytes[4] = 1;
    bytes
}

#[test]
fn model_v2_fixture_round_trips_byte_exact() {
    let bytes = fixture("model_v2.ghdc");
    let model = read_model(&bytes[..]).expect("golden v2 model parses");
    assert_eq!(model, golden_model());
    let mut rewritten = Vec::new();
    write_model(&model, &mut rewritten).unwrap();
    assert_eq!(rewritten, bytes, "v2 serialization is no longer canonical");
}

#[test]
fn quantized_v2_fixtures_round_trip_byte_exact() {
    for (name, expected) in [
        ("quantized_v2.ghdc", golden_quantized()),
        ("quantized1bit_v2.ghdc", golden_one_bit()),
    ] {
        let bytes = fixture(name);
        let model = read_quantized(&bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(model, expected, "{name}");
        let mut rewritten = Vec::new();
        write_quantized(&model, &mut rewritten).unwrap();
        assert_eq!(
            rewritten, bytes,
            "{name}: serialization is no longer canonical"
        );
    }
}

#[test]
fn legacy_v1_fixtures_decode_to_the_same_models() {
    let model = read_model(&fixture("model_v1.ghdc")[..]).expect("golden v1 model parses");
    assert_eq!(model, golden_model());
    let quantized =
        read_quantized(&fixture("quantized_v1.ghdc")[..]).expect("golden v1 quantized parses");
    assert_eq!(quantized, golden_quantized());
}

#[test]
fn header_layout_is_pinned() {
    let bytes = fixture("model_v2.ghdc");
    assert_eq!(&bytes[..4], b"GHDC", "magic");
    assert_eq!(bytes[4], 2, "version");
    assert_eq!(bytes[6], 16, "full models declare 16-bit width");
    assert_eq!(bytes[7], 0, "pad");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        8,
        "dim"
    );
    assert_eq!(
        u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        2,
        "n_classes"
    );
    // header (16) + 2 classes × 8 dims × 4 bytes + CRC footer (4).
    assert_eq!(bytes.len(), 16 + 2 * 8 * 4 + 4, "total length");

    let quantized = fixture("quantized_v2.ghdc");
    assert_eq!(quantized[6], 4, "quantized bit width");
    // header (16) + 2 classes × 8 dims × 2 bytes + CRC footer (4).
    assert_eq!(quantized.len(), 16 + 2 * 8 * 2 + 4, "quantized length");
}

#[test]
fn packed_v3_fixture_round_trips_byte_exact() {
    for (name, expected) in [
        ("packed_v3.ghdc", golden_quantized()),
        ("packed1bit_v3.ghdc", golden_one_bit()),
    ] {
        let bytes = fixture(name);
        let model = read_packed(&bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(model, expected, "{name}");
        let mut rewritten = Vec::new();
        write_packed(&model, &mut rewritten).unwrap();
        assert_eq!(
            rewritten, bytes,
            "{name}: v3 serialization is no longer canonical"
        );
        // The owned packed form is the same image, byte for byte.
        let packed = expected.pack().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(packed.bytes(), &bytes[..], "{name}: pack() drifted from v3");
    }
}

#[test]
fn packed_v3_header_layout_is_pinned() {
    let bytes = fixture("packed_v3.ghdc");
    assert_eq!(&bytes[..4], b"GHDC", "magic");
    assert_eq!(bytes[4], 3, "version");
    assert_eq!(bytes[5], 2, "kind (packed)");
    assert_eq!(bytes[6], 4, "bit width");
    assert_eq!(bytes[7], 0, "pad");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        8,
        "dim"
    );
    assert_eq!(
        u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        2,
        "n_classes"
    );
    // max |v| = 7 → 3 magnitude planes.
    assert_eq!(
        u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
        3,
        "n_planes"
    );
    assert!(
        bytes[20..64].iter().all(|&b| b == 0),
        "reserved header tail must be zero"
    );

    // The section map is header-computable and 64-byte aligned. With
    // dim 8 every plane occupies one padded 64-byte stride.
    let layout = PackedLayout::validate(&bytes).expect("sealed v3 stream");
    assert_eq!(layout.norms_offset(), 64, "norms follow the header");
    assert_eq!(layout.plane_pop_offset(), 128, "2×f64 norms pad to 64");
    assert_eq!(layout.planes_offset(), 192, "2×3 i64 pops pad to 64");
    assert_eq!(layout.plane_stride(), PACKED_ALIGN, "8 dims pad to 64 B");
    // 2 classes × (1 sign + 3 magnitude) planes × 64 B + CRC footer.
    assert_eq!(layout.total_len(), 192 + 2 * 4 * 64 + 4, "total length");
    assert_eq!(bytes.len(), layout.total_len());

    // Alignment padding between planes is zero (canonical bytes).
    let n_words = 8usize.div_ceil(64);
    for c in 0..2 {
        for p in 0..4 {
            let start = layout.class_offset(c) + p * layout.plane_stride();
            let pad = &bytes[start + n_words * 8..start + layout.plane_stride()];
            assert!(pad.iter().all(|&b| b == 0), "class {c} plane {p} padding");
        }
    }
}

#[test]
fn packed_v3_fixture_serves_through_the_mapped_view() {
    let bytes = fixture("packed_v3.ghdc");
    let mapping = Mapping::from_bytes(&bytes).expect("aligned copy allocates");
    let view = PackedModelView::new(&mapping).expect("fixture is servable");
    let query = generic_hdc::BinaryHv::random_seeded(8, 7).expect("dim > 0");
    let mapped = view.scores(&query).expect("mapped scores");
    let scalar = golden_quantized().scores(&IntHv::from(query));
    assert_eq!(
        mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        scalar.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "fixture scores must be bit-identical to the scalar oracle"
    );
}

#[test]
fn tampered_v3_fixture_fails_the_checksum() {
    let bytes = fixture("packed_v3.ghdc");
    // Flip one bit in a plane word (past every header check): only the
    // CRC footer can catch it, and it must.
    let mut tampered = bytes.clone();
    let layout = PackedLayout::validate(&bytes).expect("sealed v3 stream");
    tampered[layout.planes_offset()] ^= 0x01;
    match PackedLayout::validate(&tampered) {
        Err(ReadModelError::ChecksumMismatch { .. }) => {}
        other => panic!("tampered v3 stream must fail the CRC, got {other:?}"),
    }
    // And a tampered CRC footer itself is equally fatal.
    let mut tampered = bytes;
    let last = tampered.len() - 1;
    tampered[last] ^= 0x01;
    assert!(matches!(
        PackedLayout::validate(&tampered),
        Err(ReadModelError::ChecksumMismatch { .. })
    ));
}

/// Support set of the golden pruned fixture: 8 of 16 parent dims kept,
/// chosen to exercise both halves of the mask word and uneven gaps.
const GOLDEN_SUPPORT: [usize; 8] = [0, 2, 3, 5, 8, 11, 13, 15];
const GOLDEN_PARENT_DIM: usize = 16;

/// The support mask word the fixture stores: bits of [`GOLDEN_SUPPORT`].
fn golden_support_mask() -> Vec<u64> {
    let mut mask = vec![0u64; GOLDEN_PARENT_DIM.div_ceil(64)];
    for d in GOLDEN_SUPPORT {
        mask[d / 64] |= 1 << (d % 64);
    }
    mask
}

#[test]
fn packed_pruned_v3_fixture_round_trips_byte_exact() {
    let bytes = fixture("packed_pruned_v3.ghdc");
    let mapping = Mapping::from_bytes(&bytes).expect("aligned copy allocates");
    let view = PackedModelView::new(&mapping).expect("sealed pruned stream");
    assert!(view.is_pruned());
    assert_eq!(view.parent_dim(), GOLDEN_PARENT_DIM);
    assert_eq!(view.dim(), 8);
    assert_eq!(view.support().expect("mask present"), golden_support_mask());
    assert_eq!(view.to_quantized().expect("decodes"), golden_quantized());

    let mut rewritten = Vec::new();
    write_packed_pruned(
        &golden_quantized(),
        GOLDEN_PARENT_DIM,
        &golden_support_mask(),
        &mut rewritten,
    )
    .unwrap();
    assert_eq!(
        rewritten, bytes,
        "pruned v3 serialization is no longer canonical"
    );
}

#[test]
fn packed_pruned_v3_header_and_mask_layout_are_pinned() {
    let bytes = fixture("packed_pruned_v3.ghdc");
    assert_eq!(&bytes[..4], b"GHDC", "magic");
    assert_eq!(bytes[4], 3, "version");
    assert_eq!(bytes[5], 2, "kind (packed)");
    assert_eq!(bytes[6], 4, "bit width");
    assert_eq!(bytes[7], 0, "pad");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        8,
        "compacted dim"
    );
    assert_eq!(
        u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        2,
        "n_classes"
    );
    assert_eq!(
        u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
        3,
        "n_planes"
    );
    // The support extension claims header bytes [20..24): parent_dim,
    // u32 LE, 0 = full support. Everything after stays reserved-zero.
    assert_eq!(
        u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
        GOLDEN_PARENT_DIM as u32,
        "parent_dim"
    );
    assert!(
        bytes[24..64].iter().all(|&b| b == 0),
        "reserved header tail must be zero"
    );

    // The mask section sits after the planes, one 64-byte-aligned run
    // of u64 LE words with exactly `dim` set bits.
    let layout = PackedLayout::validate(&bytes).expect("sealed pruned stream");
    assert!(layout.is_pruned());
    assert_eq!(
        layout.support_offset(),
        192 + 2 * 4 * 64,
        "mask after planes"
    );
    assert_eq!(layout.support_words(), 1, "16 parent dims fit one word");
    assert_eq!(layout.support_mask(&bytes), Some(golden_support_mask()));
    assert_eq!(
        u64::from_le_bytes(
            bytes[layout.support_offset()..layout.support_offset() + 8]
                .try_into()
                .unwrap()
        ),
        0xA92D,
        "mask word bytes"
    );
    assert!(
        bytes[layout.support_offset() + 8..layout.total_len() - 4]
            .iter()
            .all(|&b| b == 0),
        "mask section padding must be zero"
    );
    // planes end + 64 B aligned mask section + CRC footer.
    assert_eq!(
        layout.total_len(),
        192 + 2 * 4 * 64 + 64 + 4,
        "total length"
    );
    assert_eq!(bytes.len(), layout.total_len());

    // A full-support image of the same model must carry no mask — and
    // stay byte-identical to the pre-extension v3 encoding.
    let full = fixture("packed_v3.ghdc");
    let full_layout = PackedLayout::validate(&full).expect("sealed v3 stream");
    assert!(!full_layout.is_pruned());
    assert_eq!(
        u32::from_le_bytes(full[20..24].try_into().unwrap()),
        0,
        "full support encodes parent_dim 0"
    );
}

#[test]
fn packed_pruned_v3_fixture_serves_full_width_queries() {
    let bytes = fixture("packed_pruned_v3.ghdc");
    let mapping = Mapping::from_bytes(&bytes).expect("aligned copy allocates");
    let view = PackedModelView::new(&mapping).expect("fixture is servable");
    // Queries arrive at parent width; the view compacts them through
    // the support. The scalar oracle compacts by hand and scores the
    // heap model.
    let query = BinaryHv::random_seeded(GOLDEN_PARENT_DIM, 7).expect("dim > 0");
    let bits: Vec<bool> = GOLDEN_SUPPORT.iter().map(|&d| query.bit(d)).collect();
    let compact = BinaryHv::from_bits(&bits).expect("dim > 0");
    let oracle = golden_quantized().scores(&IntHv::from(compact));
    let mapped = view.scores(&query).expect("mapped scores");
    assert_eq!(
        mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        oracle.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "pruned fixture scores must be bit-identical to the compacted oracle"
    );
}

#[test]
fn tampered_pruned_v3_fixture_fails_the_checksum() {
    let bytes = fixture("packed_pruned_v3.ghdc");
    let layout = PackedLayout::validate(&bytes).expect("sealed pruned stream");
    // Flip one support-mask bit: the CRC gate must catch it before the
    // popcount cross-check even runs.
    let mut tampered = bytes.clone();
    tampered[layout.support_offset()] ^= 0x02;
    match PackedLayout::validate(&tampered) {
        Err(ReadModelError::ChecksumMismatch { .. }) => {}
        other => panic!("tampered mask must fail the CRC, got {other:?}"),
    }
    // And a truncated mask section is reported as exactly that.
    let mut truncated = bytes;
    truncated.truncate(layout.support_offset() + 8);
    assert!(matches!(
        PackedLayout::validate(&truncated),
        Err(ReadModelError::Truncated { .. })
    ));
}

#[test]
fn corrupted_fixture_bytes_are_rejected() {
    let mut bytes = fixture("model_v2.ghdc");
    let payload_byte = 20;
    bytes[payload_byte] ^= 0xFF;
    match read_model(&bytes[..]) {
        Err(ReadModelError::ChecksumMismatch { .. }) => {}
        other => panic!("tampered v2 stream must fail the CRC, got {other:?}"),
    }
}

/// Writes the fixture files. `#[ignore]`d: run explicitly after a
/// deliberate format change, then commit the new bytes.
#[test]
#[ignore = "regenerates the committed golden fixtures"]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut model_v2 = Vec::new();
    write_model(&golden_model(), &mut model_v2).unwrap();
    std::fs::write(dir.join("model_v2.ghdc"), &model_v2).unwrap();
    std::fs::write(dir.join("model_v1.ghdc"), to_legacy(&model_v2)).unwrap();

    let mut quantized_v2 = Vec::new();
    write_quantized(&golden_quantized(), &mut quantized_v2).unwrap();
    std::fs::write(dir.join("quantized_v2.ghdc"), &quantized_v2).unwrap();
    std::fs::write(dir.join("quantized_v1.ghdc"), to_legacy(&quantized_v2)).unwrap();

    let mut one_bit_v2 = Vec::new();
    write_quantized(&golden_one_bit(), &mut one_bit_v2).unwrap();
    std::fs::write(dir.join("quantized1bit_v2.ghdc"), &one_bit_v2).unwrap();

    let mut packed_v3 = Vec::new();
    write_packed(&golden_quantized(), &mut packed_v3).unwrap();
    std::fs::write(dir.join("packed_v3.ghdc"), &packed_v3).unwrap();
    let mut one_bit_v3 = Vec::new();
    write_packed(&golden_one_bit(), &mut one_bit_v3).unwrap();
    std::fs::write(dir.join("packed1bit_v3.ghdc"), &one_bit_v3).unwrap();

    let mut pruned_v3 = Vec::new();
    write_packed_pruned(
        &golden_quantized(),
        GOLDEN_PARENT_DIM,
        &golden_support_mask(),
        &mut pruned_v3,
    )
    .unwrap();
    std::fs::write(dir.join("packed_pruned_v3.ghdc"), &pruned_v3).unwrap();
}
