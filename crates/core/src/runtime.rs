//! Crash-safe streaming online-learning runtime (§1, §4.3): consume
//! samples one at a time, answer inference requests under per-request
//! deadlines, and fold labeled samples into the model incrementally —
//! without ever losing more than one checkpoint interval of learning to
//! a crash, and without ever panicking on hostile input.
//!
//! Three pillars:
//!
//! 1. **Crash-safe persistence** — [`CheckpointStore`] writes
//!    generation-numbered checkpoints in the GHDC v2 envelope through a
//!    single-tenant [`Ledger`] (write to temp file → `fsync` → atomic
//!    rename → directory `fsync`, then a CRC-sealed manifest commit).
//!    Startup recovery scans the generations newest-first, rejects
//!    corrupt or truncated files via the CRC32 footer, and falls back
//!    to the newest intact one.
//! 2. **Graceful degradation under load** — each request carries a time
//!    budget; the [`DegradationLadder`] built on the per-128-dimension
//!    sub-norm reduction tiers (§4.3.3) picks the widest tier whose
//!    EWMA-estimated latency fits the budget, escalating back to full
//!    dimensionality when slack allows. One scoring routine serves
//!    every Infer — [`OnlineRuntime::infer`]/[`infer_batch`] and each
//!    worker shard of the sharded [`Server`](crate::Server) own a copy:
//!    it sanitizes and encodes each row, picks one tier per batch,
//!    scores, feeds the ladder and counts. Transient checkpoint I/O
//!    failures are retried with bounded exponential backoff
//!    ([`RetryPolicy`]).
//!
//! [`infer_batch`]: OnlineRuntime::infer_batch
//! 3. **Guarded online updates** — inputs are sanitized (NaN/Inf,
//!    wrong width, out-of-range features, bad labels are quarantined
//!    into a bounded dead-letter buffer, never a panic), drift triggers
//!    bounded retraining through
//!    [`retrain_epoch_parallel`](crate::HdcModel::retrain_epoch_parallel), and
//!    held-out accuracy regressions roll the model back to the previous
//!    checkpoint generation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::io::ReadModelError;
use crate::kernels;
use crate::ledger::{gen_file_name, Ledger, LedgerFs};
use crate::model::argmax;
use crate::{
    HdcError, HdcPipeline, IntHv, NormMode, PredictOptions, ScoreBatch, TenantHandle,
    SUB_NORM_CHUNK,
};

/// Checkpoint files are GHDC v2 envelopes with this `kind` byte: a
/// runtime header (generation, samples seen, held-out accuracy) wrapping
/// a nested — itself sealed — pipeline stream.
const CKPT_KIND: u8 = 3;

/// The one ledger tenant of a checkpoint directory: generation `N`
/// lives in `ckpt.g<N>.ghdc`.
const CKPT_TENANT: &str = "ckpt";

/// File name prefix of the pre-ledger layout (`ckpt-<gen:020>.ghdc`),
/// adopted on open.
const LEGACY_PREFIX: &str = "ckpt-";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why the sanitizer refused a sample.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The sample had the wrong number of features.
    WrongWidth {
        /// Feature count the pipeline expects.
        expected: usize,
        /// Feature count of the offending sample.
        actual: usize,
    },
    /// A feature was NaN or infinite.
    NonFinite {
        /// Zero-based feature index.
        column: usize,
    },
    /// A feature fell far outside the range the quantizer was fitted on.
    OutOfRange {
        /// Zero-based feature index.
        column: usize,
        /// The offending value.
        value: f64,
    },
    /// A label was outside `0..n_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes the model serves.
        n_classes: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::WrongWidth { expected, actual } => {
                write!(
                    f,
                    "sample has {actual} features, pipeline expects {expected}"
                )
            }
            RejectReason::NonFinite { column } => {
                write!(f, "non-finite feature at column {column}")
            }
            RejectReason::OutOfRange { column, value } => {
                write!(
                    f,
                    "feature {value} at column {column} outside the trained range"
                )
            }
            RejectReason::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
        }
    }
}

/// Errors surfaced by the runtime. Everything a caller can trigger is
/// typed; nothing panics.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Underlying checkpoint I/O failure (after retries, for writes).
    Io(io::Error),
    /// A model-level failure (dimension mismatch, bad label, …).
    Model(HdcError),
    /// A checkpoint stream failed to decode.
    Checkpoint(ReadModelError),
    /// Recovery found no intact checkpoint in the store.
    NoCheckpoint,
    /// The requested generation does not exist in the store.
    NoSuchGeneration(u64),
    /// The sanitizer quarantined the sample instead of processing it.
    Rejected(RejectReason),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            RuntimeError::Model(e) => write!(f, "model failure: {e}"),
            RuntimeError::Checkpoint(e) => write!(f, "checkpoint decode failure: {e}"),
            RuntimeError::NoCheckpoint => write!(f, "no intact checkpoint found"),
            RuntimeError::NoSuchGeneration(g) => write!(f, "no checkpoint generation {g}"),
            RuntimeError::Rejected(r) => write!(f, "sample quarantined: {r}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Io(e) => Some(e),
            RuntimeError::Model(e) => Some(e),
            RuntimeError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RuntimeError {
    fn from(e: io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

impl From<HdcError> for RuntimeError {
    fn from(e: HdcError) -> Self {
        RuntimeError::Model(e)
    }
}

impl From<ReadModelError> for RuntimeError {
    fn from(e: ReadModelError) -> Self {
        RuntimeError::Checkpoint(e)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded retry with capped, jittered exponential backoff for transient
/// checkpoint I/O failures (a busy SD card, a momentary `EAGAIN`, …).
///
/// The nominal delay before retry `i` is `base_delay * 2^i`, capped at
/// `max_delay`; with `jitter` enabled each sleep is scaled into
/// `[50%, 100%]` of nominal so a fleet of writers retrying the same
/// shared medium does not retry in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1); 1 disables retrying.
    pub attempts: u32,
    /// Delay before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Randomize each sleep into `[50%, 100%]` of its nominal value.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter: true,
        }
    }
}

/// Process-wide jitter state: a splitmix64 walk, advanced per sleep.
/// Determinism across *runs* is irrelevant here (sleeps are wall-clock);
/// what matters is that concurrent writers decorrelate.
static JITTER_STATE: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0x243F_6A88_85A3_08D3);

fn jitter_fraction() -> f64 {
    use std::sync::atomic::Ordering;
    let mut x = JITTER_STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Uniform in [0.5, 1.0).
    0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 / 2.0
}

impl RetryPolicy {
    /// Runs `op` until it succeeds or the attempt budget is exhausted,
    /// sleeping the capped, jittered backoff between attempts. Returns
    /// the last error on exhaustion, together with how many retries
    /// (attempts beyond the first) were consumed — the quantity
    /// [`RuntimeStats::checkpoint_retries`] accumulates.
    pub fn run_counted<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u32) {
        let attempts = self.attempts.max(1);
        let mut delay = self.base_delay;
        let mut last_err = None;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return (Ok(v), attempt),
                Err(e) => last_err = Some(e),
            }
            if attempt + 1 < attempts && !delay.is_zero() {
                let capped = delay.min(self.max_delay.max(self.base_delay));
                let sleep = if self.jitter {
                    capped.mul_f64(jitter_fraction())
                } else {
                    capped
                };
                std::thread::sleep(sleep);
                delay = delay.saturating_mul(2);
            }
        }
        (
            Err(last_err.unwrap_or_else(|| io::Error::other("retry budget empty"))),
            attempts - 1,
        )
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// A checkpoint loaded back from disk.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The restored pipeline.
    pub pipeline: HdcPipeline,
    /// Generation number (monotonically increasing per save).
    pub generation: u64,
    /// Labeled samples that had been folded into the model when the
    /// checkpoint was written.
    pub seen: u64,
    /// Held-out accuracy recorded at checkpoint time (NaN-free; 0 when
    /// no held-out data existed yet).
    pub holdout_accuracy: f64,
}

/// What startup recovery found.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The newest intact checkpoint, if any survived.
    pub checkpoint: Option<Checkpoint>,
    /// Retained generations scanned (intact or not).
    pub scanned: usize,
    /// Generations that failed to load, newest first, with the reason —
    /// corrupt and truncated files land here instead of aborting
    /// recovery.
    pub rejected: Vec<(u64, String)>,
    /// Wall-clock time recovery took.
    pub elapsed: Duration,
}

/// Generation-numbered, crash-safe checkpoints in a directory: a
/// [`Ledger`] with the single tenant `ckpt`.
///
/// Every save stages `ckpt.g<N>.ghdc.tmp`, flushes it with `fsync`,
/// atomically renames it into place, flushes the directory entry, and
/// then commits the CRC-sealed `MANIFEST` — a `kill -9` at any instant
/// leaves either the old generation set or the old set plus the
/// complete new file, never a half-written visible checkpoint. Opening
/// sweeps stray staging files, adopts images a crash left uncommitted,
/// and renames a pre-ledger `ckpt-<gen>.ghdc` layout into the ledger's.
/// Only the store holding the directory's writer lock may save.
#[derive(Debug)]
pub struct CheckpointStore {
    ledger: Ledger,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory, keeping at
    /// most `keep` generations on disk (≥ 1; older ones are removed
    /// after each successful save).
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created or read, or
    /// a legacy checkpoint cannot be renamed.
    pub fn open(dir: impl Into<PathBuf>, keep: usize, retry: RetryPolicy) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let fs = LedgerFs::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let legacy = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix(LEGACY_PREFIX)?.strip_suffix(".ghdc"))
                .and_then(|g| g.parse::<u64>().ok());
            if let Some(gen) = legacy {
                fs.rename(&path, &dir.join(gen_file_name(CKPT_TENANT, gen)))?;
            }
        }
        let (ledger, _) = Ledger::open_with(dir, keep, retry, fs)?;
        Ok(CheckpointStore { ledger })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        self.ledger.dir()
    }

    /// The file generation `generation` lives in.
    pub fn path(&self, generation: u64) -> PathBuf {
        self.ledger.gen_path(CKPT_TENANT, generation)
    }

    /// The injectable filesystem layer every checkpoint write routes
    /// through (shared-state clone) — arm its faults to exercise the
    /// retry and degraded-serving paths exactly as a flaky medium would.
    pub fn fs(&self) -> LedgerFs {
        self.ledger.fs()
    }

    /// Drains the write-retry counter: returns how many retries the
    /// store's [`RetryPolicy`] consumed since the last call, including
    /// those of saves that failed.
    pub fn take_retries(&mut self) -> u64 {
        self.ledger.take_retries()
    }

    /// Serializes `pipeline` as generation `generation` — which must be
    /// one past every retained generation — and publishes it, retrying
    /// transient failures per the store's [`RetryPolicy`]. Returns the
    /// published path.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] for any other generation, when another store
    /// holds the directory's writer lock, or with the last I/O error
    /// once the retry budget is exhausted.
    pub fn save(
        &mut self,
        pipeline: &HdcPipeline,
        generation: u64,
        seen: u64,
        holdout_accuracy: f64,
    ) -> Result<PathBuf, RuntimeError> {
        if !self.ledger.try_acquire_writer()? {
            return Err(RuntimeError::Io(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "another store holds the checkpoint directory's writer lock",
            )));
        }
        // Fold in generations a previous writer committed after this
        // store opened. Numbering one past every retained generation
        // also steps over one recovery skipped as corrupt, so it is
        // never overwritten.
        let _ = self.ledger.refresh_if_changed();
        let next = self.ledger.next_generation(CKPT_TENANT);
        if generation != next {
            return Err(RuntimeError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("the next checkpoint generation is {next}, not {generation}"),
            )));
        }
        let bytes = encode_checkpoint(pipeline, generation, seen, holdout_accuracy)?;
        let (generation, path) = self.ledger.publish_image(CKPT_TENANT, &bytes)?;
        self.ledger.commit_live(CKPT_TENANT, generation)?;
        Ok(path)
    }

    /// Scans the store newest-generation-first and loads the first
    /// intact checkpoint; corrupt or truncated files are recorded in the
    /// report and skipped, never fatal.
    ///
    /// # Errors
    ///
    /// None currently: unreadable generations are rejected like corrupt
    /// ones; the signature leaves room for a directory scan.
    pub fn recover(&self) -> Result<RecoveryReport, RuntimeError> {
        let start = Instant::now();
        let generations = self.generations()?;
        let scanned = generations.len();
        let mut rejected = Vec::new();
        let mut checkpoint = None;
        for gen in generations {
            match self.load_generation(gen) {
                Ok(c) => {
                    checkpoint = Some(c);
                    break;
                }
                Err(e) => rejected.push((gen, e.to_string())),
            }
        }
        Ok(RecoveryReport {
            checkpoint,
            scanned,
            rejected,
            elapsed: start.elapsed(),
        })
    }

    /// Loads one specific generation, validating the full envelope.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoSuchGeneration`] when absent, a
    /// [`RuntimeError::Checkpoint`] when the file fails validation.
    pub fn load_generation(&self, generation: u64) -> Result<Checkpoint, RuntimeError> {
        let bytes = match std::fs::read(self.path(generation)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RuntimeError::NoSuchGeneration(generation))
            }
            Err(e) => return Err(RuntimeError::Io(e)),
        };
        let ckpt = decode_checkpoint(&bytes)?;
        if ckpt.generation != generation {
            return Err(RuntimeError::Checkpoint(ReadModelError::Corrupt(
                HdcError::invalid(
                    "generation",
                    format!(
                        "file named {generation} contains generation {}",
                        ckpt.generation
                    ),
                ),
            )));
        }
        Ok(ckpt)
    }

    /// The retained generation numbers, newest first.
    ///
    /// # Errors
    ///
    /// None currently; the signature leaves room for a directory scan.
    pub fn generations(&self) -> Result<Vec<u64>, RuntimeError> {
        Ok(self
            .ledger
            .manifest()
            .tenant(CKPT_TENANT)
            .map(|e| e.retained.iter().rev().copied().collect())
            .unwrap_or_default())
    }
}

/// Whether `bytes` start like a checkpoint envelope (GHDC v2, kind 3)
/// — how the ledger tells checkpoints from packed model images.
pub(crate) fn is_checkpoint(bytes: &[u8]) -> bool {
    bytes.starts_with(b"GHDC\x02") && bytes.get(5) == Some(&CKPT_KIND)
}

fn encode_checkpoint(
    pipeline: &HdcPipeline,
    generation: u64,
    seen: u64,
    holdout_accuracy: f64,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"GHDC");
    buf.extend_from_slice(&[2, CKPT_KIND, 0, 0]);
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&seen.to_le_bytes());
    buf.extend_from_slice(&holdout_accuracy.to_le_bytes());
    pipeline.write_to(&mut buf)?;
    crate::io::seal(&mut buf);
    Ok(buf)
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, ReadModelError> {
    let body = crate::io::read_envelope(bytes)?;
    if body.len() < 32 {
        return Err(ReadModelError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "checkpoint shorter than its header",
        )));
    }
    if body[5] != CKPT_KIND {
        return Err(ReadModelError::WrongKind {
            found: body[5],
            expected: CKPT_KIND,
        });
    }
    let generation = read_u64(&body[8..16]);
    let seen = read_u64(&body[16..24]);
    let holdout_accuracy = f64::from_le_bytes({
        let mut word = [0u8; 8];
        word.copy_from_slice(&body[24..32]);
        word
    });
    if !holdout_accuracy.is_finite() || !(0.0..=1.0).contains(&holdout_accuracy) {
        return Err(ReadModelError::Corrupt(HdcError::invalid(
            "holdout_accuracy",
            "not a probability",
        )));
    }
    let pipeline = HdcPipeline::read_from(&body[32..])?;
    Ok(Checkpoint {
        pipeline,
        generation,
        seen,
        holdout_accuracy,
    })
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// Deadline-aware tier selection over the on-demand dimension-reduction
/// axis (§4.3.3).
///
/// Tiers are multiples of [`SUB_NORM_CHUNK`] doubling up to the full
/// dimensionality, so every tier's norms come straight from the
/// accelerator's per-chunk norm2 memory. Each tier keeps an EWMA of its
/// observed serving latency; [`choose`](DegradationLadder::choose) picks
/// the widest tier whose estimate fits the request budget, falling back
/// to the narrowest tier (serve degraded rather than drop). A tier with
/// no observations yet borrows the widest observed tier's estimate
/// scaled by the dimension ratio; with no observations at all the
/// ladder is optimistic and serves full-dimensional.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    tiers: Vec<usize>,
    ewma_ns: Vec<f64>,
    observed: Vec<bool>,
    hits: Vec<u64>,
}

/// EWMA smoothing factor of every ladder's latency estimates.
const LADDER_ALPHA: f64 = 0.2;

impl DegradationLadder {
    /// Builds the ladder for a model of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error when `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::invalid("dim", "must be positive"));
        }
        let mut tiers = Vec::new();
        let mut d = SUB_NORM_CHUNK;
        while d < dim {
            tiers.push(d);
            d *= 2;
        }
        tiers.push(dim);
        let n = tiers.len();
        Ok(DegradationLadder {
            tiers,
            ewma_ns: vec![0.0; n],
            observed: vec![false; n],
            hits: vec![0; n],
        })
    }

    /// Number of tiers (≥ 1; the last is full-dimensional).
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Dimensions served by tier `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `tier >= self.n_tiers()`.
    pub fn dims(&self, tier: usize) -> usize {
        self.tiers[tier]
    }

    /// The full-dimensional tier index.
    pub fn full_tier(&self) -> usize {
        self.tiers.len() - 1
    }

    /// Per-tier serve counters (how often each tier was chosen and
    /// observed), widest last.
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// All tier widths, narrowest first.
    pub fn tier_dims(&self) -> &[usize] {
        &self.tiers
    }

    /// Estimated latency of `tier` in nanoseconds, or `None` before any
    /// tier has been observed.
    pub fn estimate_ns(&self, tier: usize) -> Option<f64> {
        if self.observed[tier] {
            return Some(self.ewma_ns[tier]);
        }
        // Borrow the widest observed tier's estimate, scaled by the
        // dimension ratio (scoring cost is linear in dims).
        self.observed
            .iter()
            .rposition(|&o| o)
            .map(|t| self.ewma_ns[t] * self.tiers[tier] as f64 / self.tiers[t] as f64)
    }

    /// The widest tier whose latency estimate fits `budget_ns`; `None`
    /// budget means no deadline (full dimensionality). Falls back to
    /// tier 0 when nothing fits.
    pub fn choose(&self, budget_ns: Option<u64>) -> usize {
        let Some(budget) = budget_ns else {
            return self.full_tier();
        };
        for tier in (0..self.tiers.len()).rev() {
            match self.estimate_ns(tier) {
                Some(est) if est > budget as f64 => continue,
                _ => return tier,
            }
        }
        0
    }

    /// Folds one observed serve (`elapsed` at `tier`) into the tier's
    /// EWMA and bumps its counter.
    ///
    /// # Panics
    ///
    /// Panics if `tier >= self.n_tiers()`.
    pub fn observe(&mut self, tier: usize, elapsed: Duration) {
        let ns = elapsed.as_nanos() as f64;
        if self.observed[tier] {
            self.ewma_ns[tier] += LADDER_ALPHA * (ns - self.ewma_ns[tier]);
        } else {
            self.ewma_ns[tier] = ns;
            self.observed[tier] = true;
        }
        self.hits[tier] += 1;
    }
}

// ---------------------------------------------------------------------------
// Scoring routine
// ---------------------------------------------------------------------------

/// Width and finiteness: the checks admission runs before it queues a
/// request, and the first checks of every sanitizer.
pub(crate) fn check_row(features: &[f64], n_features: usize) -> Result<(), RejectReason> {
    if features.len() != n_features {
        return Err(RejectReason::WrongWidth {
            expected: n_features,
            actual: features.len(),
        });
    }
    match features.iter().position(|v| !v.is_finite()) {
        Some(column) => Err(RejectReason::NonFinite { column }),
        None => Ok(()),
    }
}

/// [`check_row`], then — unless `range_slack` is infinite — the range
/// check against the spans the quantizer was fitted on (see
/// `RANGE_SLACK`).
fn sanitize(
    pipeline: &HdcPipeline,
    features: &[f64],
    range_slack: f64,
) -> Result<(), RejectReason> {
    let encoder = pipeline.encoder();
    check_row(features, encoder.spec().n_features())?;
    if range_slack.is_finite() {
        let quantizer = encoder.quantizer();
        let bounds = quantizer.mins().iter().zip(quantizer.spans());
        for (column, (&v, (&min, &span))) in features.iter().zip(bounds).enumerate() {
            let extent = if span > 0.0 { span } else { 1.0 };
            if v < min - range_slack * extent || v > min + (1.0 + range_slack) * extent {
                return Err(RejectReason::OutOfRange { column, value: v });
            }
        }
    }
    Ok(())
}

/// One Infer row as the scoring routine sees it.
pub(crate) trait InferRow {
    /// The raw features.
    fn features(&self) -> &[f64];

    /// The mapped model a tenant-routed row was pinned to at admission;
    /// `None` scores against the shared pipeline.
    fn tenant(&self) -> Option<&TenantHandle> {
        None
    }
}

impl<T: AsRef<[f64]>> InferRow for T {
    fn features(&self) -> &[f64] {
        self.as_ref()
    }
}

/// What the scoring routine answered for one row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    pub(crate) label: usize,
    pub(crate) dims_used: usize,
    pub(crate) tier: usize,
    pub(crate) degraded: bool,
    /// The batch's wall-clock time divided by the shared rows it
    /// scored — the figure the ladder observed.
    pub(crate) elapsed: Duration,
}

/// The one routine that serves Infer rows: every worker shard owns one,
/// and so does [`OnlineRuntime`]. It owns all of its scratch and takes
/// no lock.
#[derive(Debug)]
pub(crate) struct Scorer {
    ladder: DegradationLadder,
    engine: ScoreBatch,
    encoded: Vec<IntHv>,
    preds: Vec<usize>,
    tenant_scores: Vec<f64>,
    verdicts: Vec<Result<Scored, RuntimeError>>,
}

impl Scorer {
    /// A routine for models of dimensionality `dim`.
    pub(crate) fn new(dim: usize) -> Result<Self, HdcError> {
        Ok(Scorer {
            ladder: DegradationLadder::new(dim)?,
            engine: ScoreBatch::new(),
            encoded: Vec::new(),
            preds: Vec::new(),
            tenant_scores: Vec::new(),
            verdicts: Vec::new(),
        })
    }

    /// The ladder the routine picks tiers from.
    pub(crate) fn ladder(&self) -> &DegradationLadder {
        &self.ladder
    }

    /// Serves one micro-batch against `pipeline`. Each row is sanitized
    /// (`range_slack` as in `RANGE_SLACK`; infinite skips the range
    /// check) and encoded; one ladder tier, chosen from the tightest
    /// budget `budget_ns`, serves the whole batch. Shared rows are scored in one
    /// [`ScoreBatch`] pass at that tier, tenant rows against their
    /// pinned view at full width (ties to the last maximum). The ladder
    /// observes the batch once if it had shared rows; the counters go
    /// into `stats`, and one verdict per row, in row order, waits in
    /// [`drain_verdicts`](Scorer::drain_verdicts). Returns whether the
    /// ladder observed this batch.
    pub(crate) fn serve<R: InferRow>(
        &mut self,
        pipeline: &HdcPipeline,
        rows: &[R],
        budget_ns: Option<u64>,
        range_slack: f64,
        stats: &mut RuntimeStats,
    ) -> bool {
        let tier = self.ladder.choose(budget_ns);
        let dims = self.ladder.dims(tier);
        let full = self.ladder.full_tier();
        let start = Instant::now();
        self.encoded.clear();
        self.verdicts.clear();
        for row in rows {
            let verdict = sanitize(pipeline, row.features(), range_slack)
                .map_err(RuntimeError::Rejected)
                .and_then(|()| pipeline.encode(row.features()).map_err(RuntimeError::Model))
                .and_then(|hv| {
                    let Some(view) = row.tenant().map(TenantHandle::view) else {
                        self.encoded.push(hv);
                        // The label arrives with the batched pass below.
                        return Ok((0, dims, tier));
                    };
                    let query = hv.to_binary();
                    view.scores_into_with(&query, kernels::active(), &mut self.tenant_scores)?;
                    Ok((argmax(&self.tenant_scores), view.dim(), full))
                })
                .map(|(label, dims_used, tier)| Scored {
                    label,
                    dims_used,
                    tier,
                    degraded: tier < full,
                    elapsed: Duration::ZERO,
                });
            self.verdicts.push(verdict);
        }
        let opts = PredictOptions::reduced(dims, NormMode::Updated);
        self.engine
            .predict_into(pipeline.model(), &self.encoded, opts, &mut self.preds);
        let scored = self.preds.len();
        let elapsed = start.elapsed() / scored.max(1) as u32;
        if scored > 0 {
            self.ladder.observe(tier, elapsed);
        }

        stats.infer_requests += rows.len() as u64;
        let mut preds = self.preds.iter();
        for (row, verdict) in rows.iter().zip(&mut self.verdicts) {
            let Ok(answer) = verdict else {
                stats.rejected += 1;
                continue;
            };
            if row.tenant().is_none() {
                answer.label = preds.next().copied().unwrap_or_default();
            }
            answer.elapsed = elapsed;
            stats.answered += 1;
            if answer.degraded {
                stats.degraded += 1;
            }
        }
        scored > 0
    }

    /// Takes the verdicts of the last [`serve`](Scorer::serve), one per
    /// row in row order.
    pub(crate) fn drain_verdicts(&mut self) -> std::vec::Drain<'_, Result<Scored, RuntimeError>> {
        self.verdicts.drain(..)
    }
}

// ---------------------------------------------------------------------------
// RCU model snapshots
// ---------------------------------------------------------------------------

/// An immutable, versioned copy of the serving pipeline, published by the
/// learning writer and shared with concurrent scoring readers.
#[derive(Debug)]
pub struct ModelSnapshot {
    pipeline: HdcPipeline,
    version: u64,
}

impl ModelSnapshot {
    /// The frozen pipeline (encoder + model) of this snapshot.
    pub fn pipeline(&self) -> &HdcPipeline {
        &self.pipeline
    }

    /// Monotonic publication counter (0 = the initial snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// RCU-style snapshot cell: readers [`load`](SnapshotCell::load) an
/// `Arc` to the current [`ModelSnapshot`] and score against it for as
/// long as they like; the writer [`publish`](SnapshotCell::publish)es a
/// fresh snapshot by swapping the `Arc`. Neither side ever waits on the
/// other beyond the nanoseconds of the pointer swap — online updates
/// never block in-flight scoring, and scoring never delays learning.
///
/// The cell is deliberately not a mutex around the model: readers hold
/// no lock while scoring (they own an `Arc` clone), so a snapshot a
/// reader is mid-scoring survives unchanged even as newer versions are
/// published; its memory is reclaimed when the last reader drops it.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotCell {
    fn new(snapshot: ModelSnapshot) -> Self {
        SnapshotCell {
            inner: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone — scoring happens entirely outside it.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        // A poisoned lock only means a panicking thread died mid-swap;
        // the Arc inside is always a complete snapshot, so serving
        // continues (the runtime never panics while holding the lock).
        match self.inner.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Atomically replaces the current snapshot.
    fn publish(&self, snapshot: ModelSnapshot) {
        let next = Arc::new(snapshot);
        match self.inner.write() {
            Ok(mut guard) => *guard = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Replay-buffer capacity (recent clean labeled samples, encoded; the
/// corpus drift-triggered retraining runs on).
const REPLAY_CAPACITY: usize = 1024;
/// Held-out buffer capacity (clean labeled samples diverted from
/// learning; the accuracy yardstick for rollback decisions).
const HOLDOUT_CAPACITY: usize = 256;
/// Dead-letter buffer capacity (quarantined samples; oldest are evicted
/// on overflow).
const DEAD_LETTER_CAPACITY: usize = 128;
/// Feature-range slack: a feature at column `j` is accepted within
/// `[min_j - slack·extent_j, min_j + (1 + slack)·extent_j]` where
/// `extent_j` is the trained span (1.0 for constant features).
const RANGE_SLACK: f64 = 3.0;
/// EWMA mispredict rate that triggers drift retraining.
const DRIFT_THRESHOLD: f64 = 0.35;
/// EWMA smoothing factor of the mispredict-rate estimate.
const DRIFT_ALPHA: f64 = 0.05;
/// Minimum labeled samples between drift retrains.
const DRIFT_MIN_UPDATES: u64 = 64;
/// Maximum epochs per drift retrain (bounded work per trigger).
const RETRAIN_EPOCHS: usize = 3;
/// Worker threads for drift retraining
/// ([`retrain_epoch_parallel`](crate::HdcModel::retrain_epoch_parallel)).
const RETRAIN_THREADS: usize = 1;
/// Roll back to the previous checkpoint generation when held-out
/// accuracy drops more than this below the last checkpoint's.
const ROLLBACK_THRESHOLD: f64 = 0.05;

/// Tunables of the online-learning runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Labeled samples between automatic checkpoints (0 = manual only).
    pub checkpoint_every: u64,
    /// Every k-th clean labeled sample goes to the held-out buffer
    /// instead of being learned (≥ 2; e.g. 10 = 10% held out).
    pub holdout_every: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            checkpoint_every: 256,
            holdout_every: 10,
        }
    }
}

/// Counters of everything the runtime did, the basis for the soak
/// harness's acceptance gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Inference requests received (valid or not).
    pub infer_requests: u64,
    /// Requests answered with a prediction.
    pub answered: u64,
    /// Answers served below full dimensionality.
    pub degraded: u64,
    /// Answers that still blew their budget.
    pub deadline_misses: u64,
    /// Malformed inference requests rejected by the sanitizer.
    pub rejected: u64,
    /// Labeled samples folded into the model.
    pub learned: u64,
    /// Labeled samples diverted to the held-out buffer.
    pub held_out: u64,
    /// Learned samples the model had mispredicted (corrections).
    pub corrected: u64,
    /// Samples quarantined into the dead-letter buffer.
    pub quarantined: u64,
    /// Drift-triggered retrains.
    pub retrains: u64,
    /// Rollbacks to a previous checkpoint generation.
    pub rollbacks: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Checkpoint writes that failed even after retries.
    pub checkpoint_failures: u64,
    /// Checkpoint write retries consumed by the store's [`RetryPolicy`]
    /// (transient failures that were absorbed, not surfaced).
    pub checkpoint_retries: u64,
    /// Requests a serving worker stole from a sibling shard's queue
    /// (work-stealing; always 0 outside the sharded server).
    pub steals: u64,
}

impl RuntimeStats {
    /// Folds another counter set into this one, field by field — the
    /// aggregation the sharded serving runtime uses to sum per-shard
    /// stats on drain. Every counter is a plain sum, so merging is
    /// associative and commutative regardless of shard interleaving.
    pub fn merge(&mut self, other: &RuntimeStats) {
        let RuntimeStats {
            infer_requests,
            answered,
            degraded,
            deadline_misses,
            rejected,
            learned,
            held_out,
            corrected,
            quarantined,
            retrains,
            rollbacks,
            checkpoints,
            checkpoint_failures,
            checkpoint_retries,
            steals,
        } = other;
        self.infer_requests += infer_requests;
        self.answered += answered;
        self.degraded += degraded;
        self.deadline_misses += deadline_misses;
        self.rejected += rejected;
        self.learned += learned;
        self.held_out += held_out;
        self.corrected += corrected;
        self.quarantined += quarantined;
        self.retrains += retrains;
        self.rollbacks += rollbacks;
        self.checkpoints += checkpoints;
        self.checkpoint_failures += checkpoint_failures;
        self.checkpoint_retries += checkpoint_retries;
        self.steals += steals;
    }
}

/// A quarantined sample in the dead-letter buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The raw features as received.
    pub features: Vec<f64>,
    /// The label, for learning samples.
    pub label: Option<usize>,
    /// Why the sanitizer refused it.
    pub reason: RejectReason,
}

impl RejectReason {
    /// Compact machine-readable code (`kind:param[:param]`), the first
    /// CSV cell of a dead-letter export row.
    pub fn code(&self) -> String {
        match self {
            RejectReason::WrongWidth { expected, actual } => {
                format!("wrong_width:{expected}:{actual}")
            }
            RejectReason::NonFinite { column } => format!("non_finite:{column}"),
            RejectReason::OutOfRange { column, value } => format!("out_of_range:{column}:{value}"),
            RejectReason::LabelOutOfRange { label, n_classes } => {
                format!("label_out_of_range:{label}:{n_classes}")
            }
        }
    }

    /// Parses a code produced by [`code`](RejectReason::code).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed code.
    pub fn from_code(code: &str) -> Result<Self, String> {
        let mut parts = code.split(':');
        let kind = parts.next().unwrap_or_default();
        let mut int = |name: &str| -> Result<usize, String> {
            parts
                .next()
                .ok_or_else(|| format!("reason `{code}` is missing its {name} field"))?
                .parse()
                .map_err(|_| format!("reason `{code}` has a non-integer {name} field"))
        };
        match kind {
            "wrong_width" => Ok(RejectReason::WrongWidth {
                expected: int("expected")?,
                actual: int("actual")?,
            }),
            "non_finite" => Ok(RejectReason::NonFinite {
                column: int("column")?,
            }),
            "out_of_range" => {
                let column = int("column")?;
                let value = parts
                    .next()
                    .ok_or_else(|| format!("reason `{code}` is missing its value field"))?
                    .parse()
                    .map_err(|_| format!("reason `{code}` has a non-numeric value field"))?;
                Ok(RejectReason::OutOfRange { column, value })
            }
            "label_out_of_range" => Ok(RejectReason::LabelOutOfRange {
                label: int("label")?,
                n_classes: int("n_classes")?,
            }),
            other => Err(format!("unknown reject-reason kind `{other}`")),
        }
    }
}

impl DeadLetter {
    /// One CSV row: `reason,label,f0,f1,…` (empty label cell for
    /// inference rows). Feature cells use Rust's shortest round-trip
    /// `f64` formatting, so [`parse_csv_row`](DeadLetter::parse_csv_row)
    /// restores them losslessly (non-finite values canonicalize to
    /// `NaN`/`inf`/`-inf`).
    pub fn to_csv_row(&self) -> String {
        let mut row = self.reason.code();
        row.push(',');
        if let Some(label) = self.label {
            row.push_str(&label.to_string());
        }
        for v in &self.features {
            row.push(',');
            row.push_str(&v.to_string());
        }
        row
    }

    /// Parses a row produced by [`to_csv_row`](DeadLetter::to_csv_row).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed cell.
    pub fn parse_csv_row(row: &str) -> Result<Self, String> {
        let mut cells = row.split(',');
        let reason = RejectReason::from_code(cells.next().unwrap_or_default())?;
        let label_cell = cells
            .next()
            .ok_or_else(|| "row is missing its label cell".to_string())?;
        let label = if label_cell.is_empty() {
            None
        } else {
            Some(
                label_cell
                    .parse()
                    .map_err(|_| format!("label `{label_cell}` is not a non-negative integer"))?,
            )
        };
        let features = cells
            .map(|cell| {
                cell.parse()
                    .map_err(|_| format!("feature `{cell}` is not a number"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(DeadLetter {
            features,
            label,
            reason,
        })
    }
}

/// Header comment line of a dead-letter CSV export.
pub const DEAD_LETTER_CSV_HEADER: &str = "# dead-letters v1: reason,label,features...";

/// Writes the dead-letter buffer as CSV (header comment + one row per
/// letter, oldest first); returns the number of rows written.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_dead_letters_csv<'a, W: Write>(
    mut out: W,
    letters: impl IntoIterator<Item = &'a DeadLetter>,
) -> io::Result<usize> {
    writeln!(out, "{DEAD_LETTER_CSV_HEADER}")?;
    let mut n = 0;
    for letter in letters {
        writeln!(out, "{}", letter.to_csv_row())?;
        n += 1;
    }
    Ok(n)
}

/// Parses a dead-letter CSV export (comment lines and blank lines are
/// ignored) back into letters, oldest first.
///
/// # Errors
///
/// Returns `line number (1-based) + description` for the first malformed
/// row.
pub fn read_dead_letters_csv(text: &str) -> Result<Vec<DeadLetter>, String> {
    let mut letters = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        letters.push(DeadLetter::parse_csv_row(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(letters)
}

/// One answered inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferOutcome {
    /// The predicted class.
    pub label: usize,
    /// Dimensions actually scored.
    pub dims_used: usize,
    /// Ladder tier index that served the request.
    pub tier: usize,
    /// Whether the request was served below full dimensionality.
    pub degraded: bool,
    /// Wall-clock serving time, sanitization included; for a batch, the
    /// batch's time divided by the rows it scored.
    pub elapsed: Duration,
    /// Whether the answer landed within its budget (always true without
    /// a budget).
    pub deadline_met: bool,
}

/// What an automatic or manual checkpoint did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointAction {
    /// A new generation was written.
    Saved {
        /// The generation just published.
        generation: u64,
    },
    /// Held-out accuracy had regressed past the threshold: the model
    /// was rolled back instead of checkpointed.
    RolledBack {
        /// The generation restored from disk.
        to_generation: u64,
    },
    /// The write failed even after retries (recorded in
    /// [`RuntimeStats::checkpoint_failures`]; learning continues).
    Failed,
}

/// One processed labeled sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnOutcome {
    /// Whether the model already predicted the label (no update needed).
    pub was_correct: bool,
    /// Whether the sample was diverted to the held-out buffer.
    pub held_out: bool,
    /// Whether this sample triggered a drift retrain.
    pub retrained: bool,
    /// The automatic checkpoint this sample triggered, if any.
    pub checkpoint: Option<CheckpointAction>,
}

/// The crash-safe streaming engine: an [`HdcPipeline`] plus checkpoint
/// store, degradation ladder, drift detector, and quarantine buffer.
///
/// ```no_run
/// use generic_hdc::encoding::GenericEncoderSpec;
/// use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
/// use generic_hdc::HdcPipeline;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let features: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![if i % 2 == 0 { 1.0 } else { 9.0 }; 8])
///     .collect();
/// let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
/// let spec = GenericEncoderSpec::new(1024, 8).with_seed(7);
/// let pipeline = HdcPipeline::train(spec, &features, &labels, 2, 10)?;
///
/// let store = CheckpointStore::open("ckpts", 3, RetryPolicy::default())?;
/// let mut rt = OnlineRuntime::new(pipeline, store, RuntimeConfig::default())?;
/// rt.checkpoint()?; // durable generation 1
/// let answer = rt.infer(&[1.0; 8], Some(Duration::from_millis(2)))?;
/// rt.learn(&[9.0; 8], 1)?;
/// assert_eq!(answer.label, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineRuntime {
    pipeline: HdcPipeline,
    store: CheckpointStore,
    scorer: Scorer,
    config: RuntimeConfig,
    stats: RuntimeStats,
    replay: VecDeque<(IntHv, usize)>,
    holdout: VecDeque<(IntHv, usize)>,
    dead_letters: VecDeque<DeadLetter>,
    err_ewma: f64,
    since_retrain: u64,
    generation: u64,
    seen: u64,
    last_ckpt_seen: u64,
    last_ckpt_acc: f64,
    labeled_counter: u64,
    /// RCU cell concurrent readers score against; the writer republishes
    /// at every durability boundary (checkpoint, retrain, rollback).
    snapshots: Arc<SnapshotCell>,
    snapshot_version: u64,
}

impl OnlineRuntime {
    /// Wraps a freshly trained pipeline at generation 0 (nothing durable
    /// yet — call [`checkpoint`](OnlineRuntime::checkpoint) to publish
    /// the store's next generation).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration.
    pub fn new(
        pipeline: HdcPipeline,
        store: CheckpointStore,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let scorer = Scorer::new(pipeline.model().dim())?;
        if config.holdout_every < 2 {
            return Err(RuntimeError::Model(HdcError::invalid(
                "holdout_every",
                "must be at least 2 (1 would hold out every sample)",
            )));
        }
        let snapshots = Arc::new(SnapshotCell::new(ModelSnapshot {
            pipeline: pipeline.clone(),
            version: 0,
        }));
        Ok(OnlineRuntime {
            pipeline,
            store,
            scorer,
            config,
            stats: RuntimeStats::default(),
            replay: VecDeque::new(),
            holdout: VecDeque::new(),
            dead_letters: VecDeque::new(),
            err_ewma: 0.0,
            since_retrain: 0,
            generation: 0,
            seen: 0,
            last_ckpt_seen: 0,
            last_ckpt_acc: 0.0,
            labeled_counter: 0,
            snapshots,
            snapshot_version: 0,
        })
    }

    /// Recovers the newest intact checkpoint from `store` and resumes
    /// from it. The report says which generations were scanned and
    /// which were rejected as corrupt.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoCheckpoint`] when no generation
    /// survives validation.
    pub fn recover(
        store: CheckpointStore,
        config: RuntimeConfig,
    ) -> Result<(Self, RecoveryReport), RuntimeError> {
        let report = store.recover()?;
        let Some(ckpt) = report.checkpoint.clone() else {
            return Err(RuntimeError::NoCheckpoint);
        };
        let mut rt = OnlineRuntime::new(ckpt.pipeline, store, config)?;
        rt.generation = ckpt.generation;
        rt.seen = ckpt.seen;
        rt.last_ckpt_seen = ckpt.seen;
        rt.last_ckpt_acc = ckpt.holdout_accuracy;
        Ok((rt, report))
    }

    /// The pipeline being served.
    pub fn pipeline(&self) -> &HdcPipeline {
        &self.pipeline
    }

    /// Work counters so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The degradation ladder (tier widths, estimates, counters).
    pub fn ladder(&self) -> &DegradationLadder {
        self.scorer.ladder()
    }

    /// A handle to the RCU snapshot cell. Hand clones of this to reader
    /// threads: each [`SnapshotCell::load`] yields an immutable pipeline
    /// they can score indefinitely while this runtime keeps learning —
    /// updates never block in-flight scoring.
    ///
    /// Snapshots are republished at every durability boundary
    /// ([`checkpoint`](OnlineRuntime::checkpoint), drift retrains, and
    /// rollbacks) and on explicit
    /// [`publish_snapshot`](OnlineRuntime::publish_snapshot) calls;
    /// between boundaries readers serve the last published version.
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshots)
    }

    /// Publishes the current in-memory pipeline as a new snapshot
    /// version and returns that version.
    pub fn publish_snapshot(&mut self) -> u64 {
        self.snapshot_version += 1;
        self.snapshots.publish(ModelSnapshot {
            pipeline: self.pipeline.clone(),
            version: self.snapshot_version,
        });
        self.snapshot_version
    }

    /// The newest durable generation (0 before the first checkpoint).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Labeled samples folded into the current in-memory model.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Labeled samples folded in when the last checkpoint was written —
    /// everything after this is lost to a crash.
    pub fn last_checkpoint_seen(&self) -> u64 {
        self.last_ckpt_seen
    }

    /// The quarantined samples currently buffered (oldest first).
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Accuracy of the current model on the held-out buffer, or `None`
    /// while the buffer is empty.
    pub fn holdout_accuracy(&self) -> Option<f64> {
        if self.holdout.is_empty() {
            return None;
        }
        let model = self.pipeline.model();
        let opts = PredictOptions::full(model.dim());
        let mut correct = 0usize;
        for (hv, label) in &self.holdout {
            if model.try_predict_with(hv, opts).ok() == Some(*label) {
                correct += 1;
            }
        }
        Some(correct as f64 / self.holdout.len() as f64)
    }

    /// Serves one inference request under an optional time budget: a
    /// one-row [`infer_batch`](OnlineRuntime::infer_batch).
    ///
    /// The ladder picks the widest dimension tier whose latency
    /// estimate fits the budget; the answer reports the tier, whether
    /// it was degraded, and whether the deadline was met. Malformed
    /// inputs are rejected (and counted), never panic.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Rejected`] for malformed input.
    pub fn infer(
        &mut self,
        features: &[f64],
        budget: Option<Duration>,
    ) -> Result<InferOutcome, RuntimeError> {
        match self.infer_rows(&[features], budget).pop() {
            Some(outcome) => outcome,
            None => unreachable!("the scoring routine leaves one verdict per row"),
        }
    }

    /// Serves a micro-batch of inference requests under one shared time
    /// budget, scoring every clean row in a single cache-blocked
    /// [`ScoreBatch`] pass.
    ///
    /// One ladder tier is chosen for the whole batch (the budget is
    /// per-request, and batching only lowers per-request cost), so every
    /// answered row reports the same tier. Results are per-row:
    /// malformed rows are rejected without failing their neighbours.
    /// Per-row `elapsed` is the batch wall-clock, sanitization included,
    /// divided by the rows scored — the quantity the deadline and the
    /// ladder's EWMA are calibrated against. Predictions are
    /// bit-identical to serving each row alone at the same tier.
    pub fn infer_batch(
        &mut self,
        batch: &[Vec<f64>],
        budget: Option<Duration>,
    ) -> Vec<Result<InferOutcome, RuntimeError>> {
        self.infer_rows(batch, budget)
    }

    /// Serves `rows` through the scoring routine, with the range check
    /// of `RANGE_SLACK`, and judges each answer's deadline against
    /// `budget`.
    fn infer_rows<R: InferRow>(
        &mut self,
        rows: &[R],
        budget: Option<Duration>,
    ) -> Vec<Result<InferOutcome, RuntimeError>> {
        let budget_ns = budget.map(|b| u64::try_from(b.as_nanos()).unwrap_or(u64::MAX));
        self.scorer.serve(
            &self.pipeline,
            rows,
            budget_ns,
            RANGE_SLACK,
            &mut self.stats,
        );
        let stats = &mut self.stats;
        self.scorer
            .drain_verdicts()
            .map(|verdict| {
                let scored = verdict?;
                let deadline_met = budget.is_none_or(|b| scored.elapsed <= b);
                if !deadline_met {
                    stats.deadline_misses += 1;
                }
                Ok(InferOutcome {
                    label: scored.label,
                    dims_used: scored.dims_used,
                    tier: scored.tier,
                    degraded: scored.degraded,
                    elapsed: scored.elapsed,
                    deadline_met,
                })
            })
            .collect()
    }

    /// Folds one labeled sample into the model (or the held-out
    /// buffer), running the full guarded-update path: sanitize →
    /// online update → drift check → bounded retrain → automatic
    /// checkpoint/rollback.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Rejected`] when the sample is quarantined; model
    /// errors cannot occur for sanitized input.
    pub fn learn(&mut self, features: &[f64], label: usize) -> Result<LearnOutcome, RuntimeError> {
        let n_classes = self.pipeline.model().n_classes();
        let mut checked = sanitize(&self.pipeline, features, RANGE_SLACK);
        if checked.is_ok() && label >= n_classes {
            checked = Err(RejectReason::LabelOutOfRange { label, n_classes });
        }
        if let Err(reason) = checked {
            self.stats.quarantined += 1;
            self.quarantine(features, Some(label), reason.clone());
            return Err(RuntimeError::Rejected(reason));
        }
        let encoded = self.pipeline.encode(features)?;
        self.labeled_counter += 1;

        // Divert every k-th clean sample to the held-out yardstick.
        if self
            .labeled_counter
            .is_multiple_of(self.config.holdout_every)
        {
            push_bounded(&mut self.holdout, (encoded, label), HOLDOUT_CAPACITY);
            self.stats.held_out += 1;
            return Ok(LearnOutcome {
                was_correct: true,
                held_out: true,
                retrained: false,
                checkpoint: None,
            });
        }

        let was_correct = self.pipeline.model_mut().update(&encoded, label)?;
        self.seen += 1;
        self.stats.learned += 1;
        self.since_retrain += 1;
        if !was_correct {
            self.stats.corrected += 1;
        }
        let err = if was_correct { 0.0 } else { 1.0 };
        self.err_ewma += DRIFT_ALPHA * (err - self.err_ewma);
        push_bounded(&mut self.replay, (encoded, label), REPLAY_CAPACITY);

        let retrained = self.maybe_retrain()?;

        let mut checkpoint = None;
        if self.config.checkpoint_every > 0
            && self.seen.saturating_sub(self.last_ckpt_seen) >= self.config.checkpoint_every
        {
            checkpoint = Some(match self.checkpoint() {
                Ok(action) => action,
                Err(RuntimeError::Io(_)) => CheckpointAction::Failed,
                Err(other) => return Err(other),
            });
        }

        Ok(LearnOutcome {
            was_correct,
            held_out: false,
            retrained,
            checkpoint,
        })
    }

    /// Writes the next checkpoint generation — unless held-out accuracy
    /// has regressed past the rollback threshold since the last
    /// checkpoint, in which case the model is rolled back to the newest
    /// durable generation instead.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the write (after retries)
    /// or a rollback load fails. On write failure
    /// [`RuntimeStats::checkpoint_failures`] is bumped and the runtime
    /// stays serviceable.
    pub fn checkpoint(&mut self) -> Result<CheckpointAction, RuntimeError> {
        let acc = self.holdout_accuracy();
        if self.generation > 0 {
            if let Some(a) = acc {
                if a + ROLLBACK_THRESHOLD < self.last_ckpt_acc {
                    let to = self.rollback()?;
                    return Ok(CheckpointAction::RolledBack { to_generation: to });
                }
            }
        }
        let acc = acc.unwrap_or(self.last_ckpt_acc);
        let generation = self.store.ledger.next_generation(CKPT_TENANT);
        let saved = self.store.save(&self.pipeline, generation, self.seen, acc);
        self.stats.checkpoint_retries += self.store.take_retries();
        match saved {
            Ok(_) => {
                self.generation = generation;
                self.last_ckpt_seen = self.seen;
                self.last_ckpt_acc = acc;
                self.stats.checkpoints += 1;
                self.publish_snapshot();
                Ok(CheckpointAction::Saved { generation })
            }
            Err(e) => {
                self.stats.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Restores the newest intact checkpoint generation, discarding the
    /// in-memory model state. Returns the restored generation.
    fn rollback(&mut self) -> Result<u64, RuntimeError> {
        let report = self.store.recover()?;
        let Some(ckpt) = report.checkpoint else {
            return Err(RuntimeError::NoCheckpoint);
        };
        self.pipeline = ckpt.pipeline;
        self.generation = ckpt.generation;
        self.seen = ckpt.seen;
        self.last_ckpt_seen = ckpt.seen;
        self.last_ckpt_acc = ckpt.holdout_accuracy;
        self.err_ewma = 0.0;
        self.since_retrain = 0;
        self.stats.rollbacks += 1;
        self.publish_snapshot();
        Ok(ckpt.generation)
    }

    /// Runs a bounded retrain over the replay buffer when the
    /// mispredict-rate EWMA says the stream has drifted; rolls back to
    /// the previous checkpoint generation if the retrain made held-out
    /// accuracy regress past the threshold.
    fn maybe_retrain(&mut self) -> Result<bool, RuntimeError> {
        if self.err_ewma <= DRIFT_THRESHOLD
            || self.since_retrain < DRIFT_MIN_UPDATES
            || self.replay.len() < 16
        {
            return Ok(false);
        }
        let before = self.holdout_accuracy();
        let (encoded, labels): (Vec<IntHv>, Vec<usize>) = self.replay.iter().cloned().unzip();
        let model = self.pipeline.model_mut();
        for _ in 0..RETRAIN_EPOCHS {
            if model.retrain_epoch_parallel(&encoded, &labels, RETRAIN_THREADS)? == 0 {
                break;
            }
        }
        self.stats.retrains += 1;
        self.since_retrain = 0;
        // The corrective action is taken; let the estimate re-form.
        self.err_ewma /= 2.0;
        if self.generation > 0 {
            if let (Some(b), Some(a)) = (before, self.holdout_accuracy()) {
                if a + ROLLBACK_THRESHOLD < b {
                    self.rollback()?;
                    return Ok(true); // rollback already republished
                }
            }
        }
        self.publish_snapshot();
        Ok(true)
    }

    /// Buffers a refused sample in the bounded dead-letter queue.
    fn quarantine(&mut self, features: &[f64], label: Option<usize>, reason: RejectReason) {
        push_bounded(
            &mut self.dead_letters,
            DeadLetter {
                features: features.to_vec(),
                label,
                reason,
            },
            DEAD_LETTER_CAPACITY,
        );
    }
}

// ---------------------------------------------------------------------------
// Micro-batch scheduler
// ---------------------------------------------------------------------------

/// Coalesces queued serve requests into micro-batches for
/// [`OnlineRuntime::infer_batch`].
///
/// The serve loop [`push`](MicroBatcher::push)es inference rows as they
/// arrive and [`flush`](MicroBatcher::flush)es when `push` reports the
/// batch is full, when stream order demands it (a learning row must
/// observe every prediction before it — flush first), or at end of
/// stream. With `batch_max == 1` (the default in the CLI) every row
/// flushes immediately and serving is byte-for-byte what per-row
/// [`OnlineRuntime::infer`] produced.
#[derive(Debug, Clone, Default)]
pub struct MicroBatcher {
    queue: Vec<Vec<f64>>,
    batch_max: usize,
}

impl MicroBatcher {
    /// Creates a scheduler that coalesces up to `batch_max` requests
    /// (clamped to ≥ 1) per flush.
    pub fn new(batch_max: usize) -> Self {
        MicroBatcher {
            queue: Vec::new(),
            batch_max: batch_max.max(1),
        }
    }

    /// The configured coalescing limit.
    pub fn batch_max(&self) -> usize {
        self.batch_max.max(1)
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queues one inference request; returns `true` when the batch has
    /// reached `batch_max` and should be flushed now.
    pub fn push(&mut self, features: Vec<f64>) -> bool {
        self.queue.push(features);
        self.queue.len() >= self.batch_max()
    }

    /// Serves everything queued through one
    /// [`OnlineRuntime::infer_batch`] call (empty queue → no work, empty
    /// result) and clears the queue. Results are in push order.
    pub fn flush(
        &mut self,
        runtime: &mut OnlineRuntime,
        budget: Option<Duration>,
    ) -> Vec<Result<InferOutcome, RuntimeError>> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let results = runtime.infer_batch(&self.queue, budget);
        self.queue.clear();
        results
    }
}

/// Pushes into a bounded FIFO, evicting the oldest entry on overflow.
fn push_bounded<T>(buf: &mut VecDeque<T>, item: T, capacity: usize) {
    if capacity == 0 {
        return;
    }
    while buf.len() >= capacity {
        buf.pop_front();
    }
    buf.push_back(item);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::encoding::GenericEncoderSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "ghdc-runtime-{tag}-{}-{}",
                std::process::id(),
                TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
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

    fn toy_pipeline() -> HdcPipeline {
        let features: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![if i % 2 == 0 { 1.0 } else { 9.0 }; 8])
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let spec = GenericEncoderSpec::new(512, 8).with_seed(7);
        HdcPipeline::train(spec, &features, &labels, 2, 5).unwrap()
    }

    fn store_in(dir: &Path) -> CheckpointStore {
        CheckpointStore::open(dir, 3, RetryPolicy::default()).unwrap()
    }

    #[test]
    fn ladder_tiers_cover_chunk_multiples_up_to_dim() {
        let ladder = DegradationLadder::new(1000).unwrap();
        assert_eq!(ladder.tier_dims(), &[128, 256, 512, 1000]);
        let tiny = DegradationLadder::new(64).unwrap();
        assert_eq!(tiny.tier_dims(), &[64]);
        assert!(DegradationLadder::new(0).is_err());
    }

    #[test]
    fn ladder_unobserved_is_optimistic_then_learns() {
        let mut ladder = DegradationLadder::new(1024).unwrap();
        // Nothing observed: any budget gets full dimensionality.
        assert_eq!(ladder.choose(Some(1)), ladder.full_tier());
        // Teach it that full dim costs 8000 ns.
        ladder.observe(ladder.full_tier(), Duration::from_nanos(8000));
        // A 1500 ns budget now fits only the 128-dim tier (est. 1000 ns).
        assert_eq!(ladder.choose(Some(1500)), 0);
        // A huge budget escalates back to full dimensionality.
        assert_eq!(ladder.choose(Some(1_000_000)), ladder.full_tier());
        // No budget means no deadline.
        assert_eq!(ladder.choose(None), ladder.full_tier());
    }

    #[test]
    fn checkpoint_round_trips_through_the_store() {
        let dir = TempDir::new("roundtrip");
        let mut store = store_in(dir.path());
        let pipeline = toy_pipeline();
        store.save(&pipeline, 1, 17, 0.75).unwrap();
        let report = store.recover().unwrap();
        let ckpt = report.checkpoint.unwrap();
        assert_eq!(ckpt.generation, 1);
        assert_eq!(ckpt.seen, 17);
        assert!((ckpt.holdout_accuracy - 0.75).abs() < 1e-12);
        for x in [[1.0; 8], [9.0; 8]] {
            assert_eq!(
                ckpt.pipeline.predict(&x).unwrap(),
                pipeline.predict(&x).unwrap()
            );
        }
    }

    #[test]
    fn recovery_skips_corrupt_newest_generation() {
        let dir = TempDir::new("fallback");
        let mut store = store_in(dir.path());
        let pipeline = toy_pipeline();
        store.save(&pipeline, 1, 10, 0.5).unwrap();
        let path2 = store.save(&pipeline, 2, 20, 0.5).unwrap();
        // Corrupt generation 2 with a single flipped byte.
        let mut bytes = std::fs::read(&path2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path2, &bytes).unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 2);
        assert_eq!(report.checkpoint.unwrap().generation, 1);
    }

    #[test]
    fn recovery_ignores_stray_tmp_files() {
        let dir = TempDir::new("tmpfiles");
        let mut store = store_in(dir.path());
        let pipeline = toy_pipeline();
        store.save(&pipeline, 1, 5, 0.0).unwrap();
        // A crash mid-write leaves a half-written temp file behind.
        std::fs::write(
            dir.path().join("ckpt-00000000000000000002.ghdc.tmp"),
            b"half-written garbage",
        )
        .unwrap();
        let report = store.recover().unwrap();
        assert_eq!(report.checkpoint.unwrap().generation, 1);
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn prune_keeps_only_the_newest_generations() {
        let dir = TempDir::new("prune");
        let mut store = store_in(dir.path());
        let pipeline = toy_pipeline();
        for gen in 1..=5 {
            store.save(&pipeline, gen, gen * 10, 0.5).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![5, 4, 3]);
    }

    #[test]
    fn runtime_survives_a_simulated_kill() {
        let dir = TempDir::new("kill");
        let pipeline = toy_pipeline();
        let config = RuntimeConfig {
            checkpoint_every: 8,
            holdout_every: 100,
        };
        let mut rt = OnlineRuntime::new(pipeline, store_in(dir.path()), config).unwrap();
        rt.checkpoint().unwrap();
        for i in 0..20u64 {
            let x = if i % 2 == 0 { [1.0; 8] } else { [9.0; 8] };
            rt.learn(&x, (i % 2) as usize).unwrap();
        }
        let seen_at_kill = rt.seen();
        let last_ckpt = rt.last_checkpoint_seen();
        drop(rt); // the "kill": in-memory state vanishes

        let (recovered, report) = OnlineRuntime::recover(store_in(dir.path()), config).unwrap();
        assert!(report.checkpoint.is_some());
        assert_eq!(recovered.seen(), last_ckpt);
        // At most one checkpoint interval of samples is lost.
        assert!(seen_at_kill - recovered.seen() <= config.checkpoint_every);
        assert_eq!(recovered.pipeline().predict(&[1.0; 8]).unwrap(), 0);
    }

    #[test]
    fn malformed_samples_are_quarantined_not_panicking() {
        let dir = TempDir::new("quarantine");
        let mut rt = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        let bad: Vec<(Vec<f64>, usize)> = vec![
            (vec![f64::NAN; 8], 0),
            (vec![f64::INFINITY; 8], 1),
            (vec![1.0; 3], 0),  // wrong width
            (vec![1e9; 8], 0),  // far out of range
            (vec![1.0; 8], 99), // label out of range
        ];
        for (x, y) in &bad {
            assert!(matches!(rt.learn(x, *y), Err(RuntimeError::Rejected(_))));
        }
        assert_eq!(rt.stats().quarantined, bad.len() as u64);
        assert_eq!(rt.dead_letters().count(), bad.len());
        assert_eq!(rt.stats().learned, 0);
        // The model still serves.
        assert_eq!(rt.infer(&[1.0; 8], None).unwrap().label, 0);
        // Malformed inference input is rejected and counted.
        assert!(rt.infer(&[f64::NAN; 8], None).is_err());
        assert_eq!(rt.stats().rejected, 1);
    }

    #[test]
    fn degraded_tier_serves_under_tight_budget() {
        let dir = TempDir::new("degrade");
        let mut rt = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        // Warm the full tier's estimate.
        for _ in 0..5 {
            rt.infer(&[1.0; 8], None).unwrap();
        }
        // A 1 ns budget cannot fit the full tier; the ladder degrades
        // but still answers.
        let out = rt.infer(&[1.0; 8], Some(Duration::from_nanos(1))).unwrap();
        assert!(out.degraded);
        assert!(out.dims_used < 512);
        assert_eq!(out.label, 0);
        assert!(rt.stats().degraded >= 1);
    }

    #[test]
    fn rollback_restores_the_previous_generation_on_regression() {
        let dir = TempDir::new("rollback");
        let pipeline = toy_pipeline();
        let config = RuntimeConfig {
            checkpoint_every: 0, // manual
            holdout_every: 2,    // fill the holdout buffer fast
        };
        let mut rt = OnlineRuntime::new(pipeline, store_in(dir.path()), config).unwrap();
        // Build a held-out yardstick and a durable generation.
        for i in 0..40u64 {
            let x = if i % 2 == 0 { [1.0; 8] } else { [9.0; 8] };
            let _ = rt.learn(&x, (i % 2) as usize);
        }
        rt.checkpoint().unwrap();
        assert_eq!(rt.generation(), 1);
        let good_acc = rt.holdout_accuracy().unwrap();
        assert!(good_acc > 0.9);
        // Poison the model: stream label-flipped samples (adversarial
        // drift) so held-out accuracy collapses.
        for i in 0..60u64 {
            let x = if i % 2 == 0 { [1.0; 8] } else { [9.0; 8] };
            let _ = rt.learn(&x, 1 - (i % 2) as usize);
        }
        assert!(rt.holdout_accuracy().unwrap() < good_acc);
        let action = rt.checkpoint().unwrap();
        assert!(matches!(
            action,
            CheckpointAction::RolledBack { to_generation: 1 }
        ));
        assert_eq!(rt.stats().rollbacks, 1);
        // The restored model predicts cleanly again.
        assert_eq!(rt.pipeline().predict(&[1.0; 8]).unwrap(), 0);
        assert_eq!(rt.pipeline().predict(&[9.0; 8]).unwrap(), 1);
    }

    #[test]
    fn batched_inference_matches_per_row_serving() {
        let dir = TempDir::new("batch");
        let mut per_row = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        let mut batched = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| vec![if i % 2 == 0 { 1.0 } else { 9.0 }; 8])
            .collect();
        // No budget → both serve the full tier; labels must agree.
        let expect: Vec<usize> = rows
            .iter()
            .map(|r| per_row.infer(r, None).unwrap().label)
            .collect();
        let results = batched.infer_batch(&rows, None);
        assert_eq!(results.len(), rows.len());
        for (r, &want) in results.iter().zip(&expect) {
            let out = r.as_ref().unwrap();
            assert_eq!(out.label, want);
            assert_eq!(out.tier, batched.ladder().full_tier());
            assert!(!out.degraded);
        }
        assert_eq!(batched.stats().answered, rows.len() as u64);
        assert_eq!(batched.stats().infer_requests, rows.len() as u64);
    }

    #[test]
    fn batched_inference_rejects_bad_rows_without_failing_neighbours() {
        let dir = TempDir::new("batch-reject");
        let mut rt = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        let rows = vec![
            vec![1.0; 8],
            vec![f64::NAN; 8], // rejected
            vec![9.0; 8],
            vec![1.0; 3], // wrong width
        ];
        let results = rt.infer_batch(&rows, None);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().label, 0);
        assert!(matches!(results[1], Err(RuntimeError::Rejected(_))));
        assert_eq!(results[2].as_ref().unwrap().label, 1);
        assert!(matches!(results[3], Err(RuntimeError::Rejected(_))));
        assert_eq!(rt.stats().answered, 2);
        assert_eq!(rt.stats().rejected, 2);
    }

    #[test]
    fn micro_batcher_coalesces_and_flushes_in_order() {
        let dir = TempDir::new("microbatch");
        let mut rt = OnlineRuntime::new(
            toy_pipeline(),
            store_in(dir.path()),
            RuntimeConfig::default(),
        )
        .unwrap();
        let mut batcher = MicroBatcher::new(3);
        assert!(batcher.is_empty());
        assert!(!batcher.push(vec![1.0; 8]));
        assert!(!batcher.push(vec![9.0; 8]));
        assert!(batcher.push(vec![1.0; 8])); // full at 3
        let results = batcher.flush(&mut rt, None);
        assert!(batcher.is_empty());
        let labels: Vec<usize> = results.iter().map(|r| r.as_ref().unwrap().label).collect();
        assert_eq!(labels, [0, 1, 0]);
        // Flushing an empty queue is a no-op, not a runtime call.
        let before = rt.stats().infer_requests;
        assert!(batcher.flush(&mut rt, None).is_empty());
        assert_eq!(rt.stats().infer_requests, before);
        // batch_max is clamped to at least 1.
        let mut degenerate = MicroBatcher::new(0);
        assert!(degenerate.push(vec![1.0; 8]));
    }

    #[test]
    fn snapshot_readers_score_while_the_writer_learns() {
        let dir = TempDir::new("rcu");
        let config = RuntimeConfig {
            checkpoint_every: 8,
            holdout_every: 100,
        };
        let mut rt = OnlineRuntime::new(toy_pipeline(), store_in(dir.path()), config).unwrap();
        let cell = rt.snapshots();
        assert_eq!(cell.load().version(), 0);

        // A reader thread scores continuously from whatever snapshot is
        // current while the writer learns and checkpoints.
        let reader_cell = rt.snapshots();
        let reader = std::thread::spawn(move || {
            let mut served = 0u32;
            let mut newest = 0u64;
            for _ in 0..200 {
                let snap = reader_cell.load();
                let label = snap.pipeline().predict(&[1.0; 8]).unwrap();
                assert_eq!(label, 0);
                newest = newest.max(snap.version());
                served += 1;
            }
            (served, newest)
        });
        for i in 0..32u64 {
            let x = if i % 2 == 0 { [1.0; 8] } else { [9.0; 8] };
            rt.learn(&x, (i % 2) as usize).unwrap();
        }
        let (served, _) = reader.join().unwrap();
        assert_eq!(served, 200);

        // Automatic checkpoints republished along the way; a held
        // snapshot keeps serving even after newer versions supersede it.
        let held = cell.load();
        let v = rt.publish_snapshot();
        assert!(v > held.version());
        assert_eq!(cell.load().version(), v);
        assert_eq!(held.pipeline().predict(&[9.0; 8]).unwrap(), 1);
    }

    #[test]
    fn retry_counts_and_transient_failures_are_observable() {
        let mut failures_left = 2;
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        };
        let (result, retries) = policy.run_counted(|| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::other("transient"))
            } else {
                Ok(11)
            }
        });
        assert_eq!(result.unwrap(), 11);
        assert_eq!(retries, 2);
        let (exhausted, retries): (io::Result<()>, u32) =
            policy.run_counted(|| Err(io::Error::other("always")));
        assert!(exhausted.is_err());
        assert_eq!(retries, 4);
    }

    #[test]
    fn checkpoint_store_retries_injected_write_failures() {
        let dir = TempDir::new("inject");
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        };
        let mut store = CheckpointStore::open(dir.path(), 2, policy).unwrap();
        let pipeline = toy_pipeline();

        // Two injected failures fit inside the 3-attempt budget: the save
        // succeeds and the retries are visible through `take_retries`.
        store.fs().fail_next(crate::FsOp::Create, 2);
        store.save(&pipeline, 1, 10, 0.5).unwrap();
        assert_eq!(store.take_retries(), 2);
        assert_eq!(store.take_retries(), 0);

        // Three injected failures exhaust the budget: the save fails but the
        // consumed retries are still counted.
        store.fs().fail_next(crate::FsOp::Create, 3);
        assert!(store.save(&pipeline, 2, 20, 0.5).is_err());
        assert_eq!(store.take_retries(), 2);
        // The failed generation must not be loadable.
        assert_eq!(store.generations().unwrap(), vec![1]);
    }

    #[test]
    fn dead_letters_round_trip_through_csv() {
        let letters = vec![
            DeadLetter {
                features: vec![0.1, f64::NAN, -0.0, 3.5e-9],
                label: None,
                reason: RejectReason::NonFinite { column: 1 },
            },
            DeadLetter {
                features: vec![1.0, 2.0],
                label: Some(3),
                reason: RejectReason::WrongWidth {
                    expected: 4,
                    actual: 2,
                },
            },
            DeadLetter {
                features: vec![0.25, 1.0e12, std::f64::consts::PI],
                label: Some(0),
                reason: RejectReason::OutOfRange {
                    column: 1,
                    value: 1.0e12,
                },
            },
            DeadLetter {
                features: vec![],
                label: Some(99),
                reason: RejectReason::LabelOutOfRange {
                    label: 99,
                    n_classes: 3,
                },
            },
        ];
        let mut buf = Vec::new();
        let written = write_dead_letters_csv(&mut buf, &letters).unwrap();
        assert_eq!(written, letters.len());
        let text = String::from_utf8(buf).unwrap();
        let parsed = read_dead_letters_csv(&text).unwrap();
        assert_eq!(parsed.len(), letters.len());
        for (orig, round) in letters.iter().zip(&parsed) {
            assert_eq!(orig.label, round.label);
            assert_eq!(orig.reason, round.reason);
            assert_eq!(orig.features.len(), round.features.len());
            for (a, b) in orig.features.iter().zip(&round.features) {
                // Bit-exact for every value except NaN payloads, which
                // canonicalize; -0.0 must survive with its sign.
                if a.is_nan() {
                    assert!(b.is_nan());
                } else {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        assert!(read_dead_letters_csv("bogus_kind:1,,1.0").is_err());
        assert!(read_dead_letters_csv("non_finite:0,x,1.0").is_err());
        assert!(read_dead_letters_csv("non_finite:0,,abc").is_err());
    }

    #[test]
    fn truncated_checkpoint_never_loads_silently() {
        let dir = TempDir::new("truncate");
        let mut store = store_in(dir.path());
        let pipeline = toy_pipeline();
        let path = store.save(&pipeline, 1, 3, 0.5).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // A handful of representative cuts (the exhaustive sweep lives
        // in tests/runtime_recovery.rs).
        for cut in [0, 1, 7, 11, 31, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                store.load_generation(1).is_err(),
                "cut at {cut} must not load"
            );
        }
    }
}
