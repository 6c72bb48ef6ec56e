//! Crash-safety of the checkpoint store: a checkpoint truncated at any
//! byte offset, or with any single corrupted byte, must either fall
//! back to the previous intact generation or fail cleanly with a typed
//! error — never panic, never load silently-wrong weights. A save
//! killed at any filesystem boundary, a directory in the pre-ledger
//! `ckpt-<gen>.ghdc` layout, a second store on a held directory, and a
//! skipped corrupt generation each leave a recoverable directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::io::ReadModelError;
use generic_hdc::runtime::{
    CheckpointAction, CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig, RuntimeError,
};
use generic_hdc::{FsOp, HdcPipeline};
use proptest::prelude::*;

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "ghdc-recovery-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir is creatable");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_pipeline(seed: u64) -> HdcPipeline {
    let features: Vec<Vec<f64>> = (0..24)
        .map(|i| (0..6).map(|j| ((i * 3 + j) % 7) as f64).collect())
        .collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let spec = GenericEncoderSpec::new(256, 6).with_seed(seed);
    HdcPipeline::train(spec, &features, &labels, 2, 3).expect("valid inputs")
}

/// The pipeline's serialized bytes: equal bytes mean equal weights.
fn weights(pipeline: &HdcPipeline) -> Vec<u8> {
    let mut buf = Vec::new();
    pipeline.write_to(&mut buf).expect("in-memory write");
    buf
}

/// Sorted file names in `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("dir readable")
        .map(|e| {
            e.expect("entry readable")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Retry without sleeping: injected crashes fail every later attempt.
const NO_SLEEP: RetryPolicy = RetryPolicy {
    attempts: 3,
    base_delay: Duration::ZERO,
    max_delay: Duration::ZERO,
    jitter: false,
};

/// A store with generation 1 (intact, from `seed = 5`) and generation 2
/// (from `seed = 9`, to be corrupted). Returns the clean gen-2 bytes
/// and the gen-2 path.
fn two_generation_store(dir: &Path) -> (CheckpointStore, Vec<u8>, PathBuf) {
    let mut store =
        CheckpointStore::open(dir, 4, RetryPolicy::default()).expect("dir is creatable");
    store
        .save(&sample_pipeline(5), 1, 10, 0.5)
        .expect("save generation 1");
    let path2 = store
        .save(&sample_pipeline(9), 2, 20, 0.5)
        .expect("save generation 2");
    let clean = std::fs::read(&path2).expect("generation 2 readable");
    (store, clean, path2)
}

/// Recovery must land on generation 1 with the exact weights that were
/// checkpointed there.
fn assert_falls_back_to_gen1(store: &CheckpointStore, context: &str) {
    let report = store.recover().expect("directory scan succeeds");
    let ckpt = report
        .checkpoint
        .unwrap_or_else(|| panic!("{context}: generation 1 must survive"));
    assert_eq!(ckpt.generation, 1, "{context}");
    assert_eq!(ckpt.seen, 10, "{context}");
    let reference = store.load_generation(1).expect("generation 1 intact");
    let probe: Vec<f64> = (0..6).map(|j| (j % 7) as f64).collect();
    assert_eq!(
        ckpt.pipeline.predict(&probe).expect("clean pipeline"),
        reference.pipeline.predict(&probe).expect("clean pipeline"),
        "{context}: recovered weights must match the stored generation"
    );
}

/// Exhaustive: truncating the newest checkpoint at EVERY byte offset
/// must reject it and fall back to the previous generation.
#[test]
fn truncation_at_every_offset_falls_back() {
    let dir = TempDir::new("truncate-all");
    let (store, clean, path2) = two_generation_store(dir.path());
    for cut in 0..clean.len() {
        std::fs::write(&path2, &clean[..cut]).expect("temp dir writable");
        assert!(
            store.load_generation(2).is_err(),
            "cut at {cut}/{} must not load",
            clean.len()
        );
        assert_falls_back_to_gen1(&store, &format!("cut at {cut}"));
    }
    // Sanity: the untruncated file loads generation 2 again.
    std::fs::write(&path2, &clean).expect("temp dir writable");
    assert_eq!(
        store
            .recover()
            .expect("scan")
            .checkpoint
            .expect("intact")
            .generation,
        2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single corrupted byte in the newest checkpoint either falls
    /// back to the previous generation or — when the corruption lands
    /// past the magic/version prefix — fails specifically with a
    /// checksum mismatch. It never panics and never loads wrong
    /// weights as generation 2.
    #[test]
    fn single_byte_corruption_falls_back(pos_seed in any::<u64>(), delta in 1u8..=255) {
        let dir = TempDir::new("flip");
        let (store, clean, path2) = two_generation_store(dir.path());
        let pos = (pos_seed % clean.len() as u64) as usize;
        let mut corrupted = clean.clone();
        corrupted[pos] = corrupted[pos].wrapping_add(delta);
        std::fs::write(&path2, &corrupted).expect("temp dir writable");

        let err = store
            .load_generation(2)
            .expect_err("corruption must be caught");
        if pos >= 5 {
            // Past magic + version, the CRC32 footer catches everything
            // before any payload byte is interpreted.
            prop_assert!(
                matches!(
                    err,
                    RuntimeError::Checkpoint(ReadModelError::ChecksumMismatch { .. })
                ),
                "pos {pos}: {err}"
            );
        }
        assert_falls_back_to_gen1(&store, &format!("flip at {pos}"));
    }

    /// Arbitrary garbage dropped into the store as the newest
    /// generation never panics recovery and never masks the intact one.
    #[test]
    fn garbage_checkpoints_never_panic_recovery(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let dir = TempDir::new("garbage");
        let (store, _clean, path2) = two_generation_store(dir.path());
        std::fs::write(&path2, &bytes).expect("temp dir writable");
        prop_assert!(store.load_generation(2).is_err());
        assert_falls_back_to_gen1(&store, "garbage generation 2");
    }
}

/// A save killed at every filesystem boundary of the image write
/// (occurrence 1) and of the manifest commit (occurrence 2) leaves a
/// directory a fresh store recovers: the old generation when the crash
/// came before the image rename, the new one after it — with exactly
/// the saved weights, and with no staging file left behind.
#[test]
fn killed_saves_recover_the_newest_renamed_generation() {
    let old = sample_pipeline(5);
    let new = sample_pipeline(9);
    for op in [
        FsOp::Create,
        FsOp::Write,
        FsOp::Sync,
        FsOp::Rename,
        FsOp::SyncDir,
    ] {
        for nth in [1, 2] {
            let context = format!("crash at {op} #{nth}");
            let dir = TempDir::new("kill-save");
            let mut store =
                CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("dir is creatable");
            store.save(&old, 1, 10, 0.5).expect("save generation 1");
            store.fs().crash_at(op, nth);
            assert!(store.save(&new, 2, 20, 0.5).is_err(), "{context}");
            assert!(store.fs().crashed(), "{context}");
            drop(store);

            let store = CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("reopens");
            let ckpt = store
                .recover()
                .expect("scan")
                .checkpoint
                .unwrap_or_else(|| panic!("{context}: a generation must survive"));
            let renamed = nth == 2 || op == FsOp::SyncDir;
            let (generation, seen, saved) = if renamed {
                (2, 20, &new)
            } else {
                (1, 10, &old)
            };
            assert_eq!(ckpt.generation, generation, "{context}");
            assert_eq!(ckpt.seen, seen, "{context}");
            assert_eq!(weights(&ckpt.pipeline), weights(saved), "{context}");
            let names = listing(dir.path());
            assert!(
                names.iter().all(|n| !n.ends_with(".tmp")),
                "{context}: {names:?}"
            );
        }
    }
}

/// A directory written in the pre-ledger layout — `ckpt-<gen:020>.ghdc`
/// files plus a torn staging file, no manifest — recovers the same
/// generation and weights, and the next save is numbered after it.
#[test]
fn legacy_checkpoint_directories_are_adopted() {
    let staging = TempDir::new("legacy-src");
    let mut store = CheckpointStore::open(staging.path(), 4, NO_SLEEP).expect("dir is creatable");
    store.save(&sample_pipeline(5), 1, 10, 0.5).expect("save 1");
    store.save(&sample_pipeline(9), 2, 20, 0.5).expect("save 2");

    let dir = TempDir::new("legacy");
    for gen in [1u64, 2] {
        std::fs::copy(
            store.path(gen),
            dir.path().join(format!("ckpt-{gen:020}.ghdc")),
        )
        .expect("copy checkpoint");
    }
    std::fs::write(
        dir.path().join("ckpt-00000000000000000003.ghdc.tmp"),
        b"torn half-written checkpoint",
    )
    .expect("temp dir writable");

    let legacy = CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("adopts");
    let (mut rt, report) =
        OnlineRuntime::recover(legacy, RuntimeConfig::default()).expect("recovers");
    assert!(report.rejected.is_empty(), "{:?}", report.rejected);
    assert_eq!(rt.generation(), 2);
    assert_eq!(rt.seen(), 20);
    assert_eq!(weights(rt.pipeline()), weights(&sample_pipeline(9)));
    assert!(matches!(
        rt.checkpoint().expect("checkpoint"),
        CheckpointAction::Saved { generation: 3 }
    ));
    let names = listing(dir.path());
    assert!(
        names
            .iter()
            .all(|n| !n.starts_with("ckpt-") && !n.ends_with(".tmp")),
        "{names:?}"
    );
}

/// A second store on a directory a live store holds refuses to save
/// and writes nothing; the holder keeps saving.
#[test]
fn a_store_without_the_writer_lock_refuses_to_save() {
    let dir = TempDir::new("reader");
    let mut holder = CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("dir is creatable");
    holder
        .save(&sample_pipeline(5), 1, 10, 0.5)
        .expect("save 1");

    let mut reader = CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("opens as reader");
    let before = listing(dir.path());
    assert!(reader.save(&sample_pipeline(9), 2, 20, 0.5).is_err());
    assert_eq!(listing(dir.path()), before);

    holder
        .save(&sample_pipeline(9), 2, 20, 0.5)
        .expect("holder saves");
}

/// A corrupt newest generation is skipped by recovery, never
/// overwritten: the next checkpoint is numbered past it and its file
/// stays byte-for-byte as it was.
#[test]
fn skipped_corrupt_generations_are_never_rewritten() {
    let dir = TempDir::new("skip");
    let (store, clean, path2) = two_generation_store(dir.path());
    drop(store);
    let mut corrupted = clean;
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x20;
    std::fs::write(&path2, &corrupted).expect("temp dir writable");

    let store = CheckpointStore::open(dir.path(), 4, NO_SLEEP).expect("reopens");
    let (mut rt, report) =
        OnlineRuntime::recover(store, RuntimeConfig::default()).expect("recovers");
    assert_eq!(rt.generation(), 1);
    assert!(report.rejected.iter().any(|(g, _)| *g == 2));
    assert!(matches!(
        rt.checkpoint().expect("checkpoint"),
        CheckpointAction::Saved { generation: 3 }
    ));
    assert_eq!(rt.generation(), 3);
    assert_eq!(std::fs::read(&path2).expect("generation 2 kept"), corrupted);
}
