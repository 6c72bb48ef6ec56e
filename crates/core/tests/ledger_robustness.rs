//! Robustness of the generational tenant ledger: the manifest parser
//! must reject torn, garbled, and bit-flipped commit records with typed
//! errors on *any* input, and the recovery scan must never elect a
//! CRC-invalid image as a tenant's live generation while a valid older
//! one exists. Mirrors `mapped_robustness` for the ledger surface.

use std::collections::BTreeSet;

use generic_hdc::io::write_packed;
use generic_hdc::ledger::MANIFEST_NAME;
use generic_hdc::{
    BinaryHv, HdcModel, IntHv, Ledger, Manifest, ManifestError, ModelRegistry, QuantizedModel,
    RegistryConfig,
};
use proptest::prelude::*;

/// Bitwise IEEE CRC32 — deliberately re-implemented here (rather than
/// reusing the crate's table-driven one) so a table-generation bug
/// cannot hide from its own tests.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Seals a hand-written manifest body with a correct CRC footer, so the
/// parser's structural checks are reached (a wrong CRC would mask them).
fn seal(body: &str) -> Vec<u8> {
    let mut bytes = body.as_bytes().to_vec();
    let crc = crc32(body.as_bytes());
    bytes.extend_from_slice(format!("crc {crc:08x}\n").as_bytes());
    bytes
}

fn sample_model(seed: u64) -> QuantizedModel {
    let encoded: Vec<IntHv> = (0..3u64)
        .map(|s| IntHv::from(BinaryHv::random_seeded(256, s + seed).expect("dim > 0")))
        .collect();
    let model = HdcModel::fit(&encoded, &[0, 1, 2], 3).expect("valid inputs");
    QuantizedModel::from_model(&model, 8).expect("valid width")
}

fn sample_image() -> Vec<u8> {
    let mut buf = Vec::new();
    write_packed(&sample_model(11), &mut buf).expect("vec write cannot fail");
    buf
}

#[allow(clippy::field_reassign_with_default)]
fn manifest_with(epoch: u64) -> Manifest {
    let mut manifest = Manifest::default();
    manifest.epoch = epoch;
    manifest
}

fn scratch(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ghdc-ledger-robust-{tag}-{}", std::process::id()))
}

/// A reader registry sees every commit of the writer, even one that
/// leaves the manifest with the length and mtime it had: a rollback
/// keeps the manifest's length, and a coarse timestamp can give two
/// commits the same mtime.
#[test]
fn reader_sees_a_rollback_that_keeps_the_manifest_length_and_mtime() {
    let dir = std::env::temp_dir().join(format!("ghdc-ledger-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RegistryConfig {
        dim: 256,
        watch_every: 1,
        ..RegistryConfig::default()
    };
    let (g1, g2) = (sample_model(11), sample_model(21));
    let writer = ModelRegistry::open(&dir, config).expect("writer opens");
    assert_eq!(writer.publish("acme", &g1).expect("publish g1"), 1);
    assert_eq!(writer.publish("acme", &g2).expect("publish g2"), 2);

    let reader = ModelRegistry::open(&dir, config).expect("reader opens");
    let query = BinaryHv::random_seeded(256, 99).expect("dim > 0");
    let served = |registry: &ModelRegistry| {
        let handle = registry.get("acme").expect("acme serves");
        handle.view().scores(&query).expect("query width matches")
    };
    let scores = |model: &QuantizedModel| model.scores(&IntHv::from(query.clone()));
    assert_eq!(served(&reader), scores(&g2));

    let manifest = dir.join(MANIFEST_NAME);
    let before = std::fs::metadata(&manifest).expect("manifest exists");
    assert_eq!(writer.rollback("acme", None).expect("rollback"), 1);
    let after = std::fs::metadata(&manifest).expect("manifest exists");
    assert_eq!(after.len(), before.len(), "the rollback keeps the length");
    std::fs::File::options()
        .write(true)
        .open(&manifest)
        .and_then(|f| f.set_modified(before.modified()?))
        .expect("manifest mtime resets");

    assert_eq!(served(&reader), scores(&g1), "the reader serves g1 again");
    drop((writer, reader));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_structural_corruption_gets_its_own_typed_error() {
    // Duplicate generation within one tenant line.
    let bytes = seal("GHDCLEDGER 1\nepoch 3\ntenant acme live 1 retained 1,1\n");
    assert_eq!(
        Manifest::parse(&bytes),
        Err(ManifestError::DuplicateGeneration {
            tenant: "acme".into(),
            generation: 1,
        })
    );

    // The same tenant listed twice.
    let bytes = seal(
        "GHDCLEDGER 1\nepoch 3\ntenant acme live 1 retained 1\ntenant acme live 2 retained 2\n",
    );
    assert_eq!(
        Manifest::parse(&bytes),
        Err(ManifestError::DuplicateTenant("acme".into()))
    );

    // A live generation outside the retained set.
    let bytes = seal("GHDCLEDGER 1\nepoch 3\ntenant acme live 5 retained 1,2\n");
    assert_eq!(
        Manifest::parse(&bytes),
        Err(ManifestError::LiveNotRetained {
            tenant: "acme".into(),
            live: 5,
        })
    );

    // A wrong header is not silently tolerated even with a valid CRC.
    let bytes = seal("GHDCLEDGER 2\nepoch 0\n");
    assert!(matches!(
        Manifest::parse(&bytes),
        Err(ManifestError::UnsupportedHeader(_))
    ));

    // Grammar violations name the offending line.
    let bytes = seal("GHDCLEDGER 1\nepoch 0\ntenant acme lives forever\n");
    assert!(matches!(
        Manifest::parse(&bytes),
        Err(ManifestError::Garbage { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes never panic the parser; anything it does accept
    /// re-serializes to a canonical form it parses identically.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        if let Ok(manifest) = Manifest::parse(&bytes) {
            let canonical = manifest.serialize();
            prop_assert_eq!(Manifest::parse(&canonical), Ok(manifest));
        }
    }

    /// Every canonically built manifest round-trips bit-exactly through
    /// serialize → parse.
    #[test]
    fn canonical_manifests_round_trip(
        epoch in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        let mut manifest = manifest_with(epoch);
        let mut expected: std::collections::BTreeMap<String, (u64, BTreeSet<u64>)> =
            std::collections::BTreeMap::new();
        for seed in &seeds {
            let name = format!("tenant-{}", seed % 17);
            let live = (seed >> 8) % 40;
            let retained: BTreeSet<u64> =
                (0..seed % 4).map(|i| (seed >> (16 + i)) % 40).collect();
            manifest.set_tenant(name.clone(), live, retained.iter().copied());
            let mut set = retained.clone();
            set.insert(live);
            expected.insert(name, (live, set));
        }
        let parsed = Manifest::parse(&manifest.serialize()).expect("canonical form parses");
        prop_assert_eq!(&parsed, &manifest);
        for (name, (live, retained)) in &expected {
            let entry = parsed.tenant(name).expect("tenant survives");
            prop_assert_eq!(entry.live, *live);
            prop_assert_eq!(&entry.retained, retained);
        }
    }

    /// Truncating a sealed manifest anywhere is a typed rejection —
    /// never a partially applied commit record.
    #[test]
    fn any_truncation_is_a_typed_rejection(
        epoch in 0u64..1000,
        cut_seed in any::<u64>(),
    ) {
        let mut manifest = manifest_with(epoch);
        manifest.set_tenant("acme", 3, [1, 2, 3]);
        manifest.set_tenant("globex", 7, [6, 7]);
        let bytes = manifest.serialize();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            Manifest::parse(&bytes[..cut]).is_err(),
            "cut at {cut} of {} parsed", bytes.len()
        );
    }

    /// Flipping any single bit of a sealed manifest is rejected; flips
    /// confined to the stored CRC digits are caught as a checksum or
    /// grammar error specifically.
    #[test]
    fn any_bit_flip_is_rejected(
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut manifest = manifest_with(41);
        manifest.set_tenant("acme", 2, [1, 2]);
        let mut bytes = manifest.serialize();
        let pos = (pos_seed % (bytes.len() as u64 - 1)) as usize; // keep the final newline
        bytes[pos] ^= 1 << bit;
        let err = Manifest::parse(&bytes).expect_err("a flipped manifest must not parse");
        // Flips inside the 8 stored CRC hex digits leave the body
        // intact, so only the footer checks can fire.
        let crc_digits = bytes.len() - 9..bytes.len() - 1;
        if crc_digits.contains(&pos) {
            prop_assert!(
                matches!(
                    err,
                    ManifestError::ChecksumMismatch { .. }
                        | ManifestError::Garbage { .. }
                        | ManifestError::Truncated
                ),
                "crc-digit flip at {pos}: {err}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Corrupting the newest k of n published generations and tearing
    /// up the manifest must recover live = the newest *valid*
    /// generation — recovery never elects a CRC-invalid image when an
    /// older valid one exists.
    #[test]
    fn recovery_never_selects_a_corrupt_generation(
        tag in any::<u64>(),
        n_gens in 2u64..=4,
        corrupt_hi in 1u64..=3,
        mask in 1u8..=255,
    ) {
        let n_corrupt = corrupt_hi.min(n_gens - 1);
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let image = sample_image();

        let (mut ledger, _) = Ledger::open(&dir).expect("scratch dir is creatable");
        prop_assert!(ledger.is_writer());
        for _ in 0..n_gens {
            let (gen, _) = ledger.publish_image("acme", &image).expect("clean publish");
            ledger.commit_live("acme", gen).expect("clean commit");
        }
        drop(ledger);

        // Corrupt the newest `n_corrupt` images and tear the manifest.
        for gen in (n_gens - n_corrupt + 1)..=n_gens {
            let path = dir.join(format!("acme.g{gen}.ghdc"));
            let mut bytes = std::fs::read(&path).expect("image exists");
            let mid = bytes.len() / 2;
            bytes[mid] ^= mask;
            std::fs::write(&path, bytes).expect("image rewrite");
        }
        std::fs::remove_file(dir.join(MANIFEST_NAME)).expect("manifest exists");

        let (ledger, outcome) = Ledger::open(&dir).expect("recovery opens");
        prop_assert!(outcome.repaired, "a missing manifest must trigger a rebuild");
        let entry = ledger
            .manifest()
            .tenant("acme")
            .expect("tenant survives recovery");
        let expected_live = n_gens - n_corrupt;
        prop_assert_eq!(
            entry.live, expected_live,
            "live must be the newest CRC-valid generation"
        );
        let (live_gen, live_path) = ledger.live_path("acme").expect("live path resolves");
        prop_assert_eq!(live_gen, expected_live);
        prop_assert!(
            Ledger::validate_image(&live_path).is_ok(),
            "the recovered live image must validate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
