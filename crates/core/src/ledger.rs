//! Per-tenant generation ledger: crash-recoverable publishes for the
//! multi-tenant model registry.
//!
//! PR 7's registry renamed each publish over the previous image, so a
//! bad push left nothing to roll back to and a crash mid-publish leaked
//! temp files forever. This module makes every publish a transaction:
//!
//! - Tenant images are **generation-numbered** (`<tenant>.g<N>.ghdc`)
//!   and immutable once renamed into place; the last K generations are
//!   retained and garbage-collected beyond that.
//! - Which generation is *live* per tenant is recorded in a single
//!   `MANIFEST` file, committed via the same write-temp → fsync →
//!   atomic-rename → fsync-dir discipline checkpoints use, and sealed
//!   with a CRC32 footer. The manifest rename **is** the commit point:
//!   a crash at any earlier boundary leaves the previous manifest (and
//!   therefore the previous live generation) intact.
//! - [`Ledger::open`] runs a recovery scan: a torn or missing manifest
//!   is rebuilt from the on-disk generations (never selecting a
//!   CRC-invalid image as live while a valid one exists), orphaned
//!   `*.tmp` files from crashed publishes are swept, and images that
//!   were renamed into place but never committed are adopted as
//!   non-live generations.
//! - Cross-process coherence: an advisory `flock` on `MANIFEST.lock`
//!   makes one process the writer (the lock dies with the process, so
//!   `kill -9` never wedges the directory), and a generation watch that
//!   compares the manifest's bytes lets reader processes pick up every
//!   publish and rollback of another process.
//! - Every mutating filesystem boundary routes through an injectable
//!   [`LedgerFs`], so crash-fault campaigns can fail or kill the
//!   process at exact create/write/sync/rename points.
//!
//! The [`ModelRegistry`](crate::ModelRegistry) drives this ledger for
//! serving, the [`CheckpointStore`](crate::CheckpointStore) drives it as
//! a single-tenant (`ckpt`) checkpoint directory, and the
//! `generic registry history|rollback|gc|fsck` CLI drives either
//! directly for administration.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::io::PackedLayout;
use crate::mapped::{try_lock_exclusive, Mapping};
use crate::runtime::RetryPolicy;

/// File extension of tenant model images.
pub const IMAGE_EXT: &str = "ghdc";
/// Name of the per-directory commit manifest.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Name of the advisory writer-lock file.
pub const LOCK_NAME: &str = "MANIFEST.lock";

const TMP_SUFFIX: &str = ".tmp";
const MANIFEST_MAGIC: &str = "GHDCLEDGER 1";

/// The legacy (pre-ledger) flat image `<tenant>.ghdc` is represented as
/// generation 0: recovery adopts it in place, no rename required.
pub const LEGACY_GENERATION: u64 = 0;

// ---------------------------------------------------------------------------
// Injectable filesystem boundary
// ---------------------------------------------------------------------------

/// A mutating filesystem operation the publish path performs, in the
/// order a publish performs them. Fault injection is keyed by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// `File::create` of a `*.tmp` staging file.
    Create,
    /// `write_all` of the staged bytes.
    Write,
    /// `sync_all` of the staged file.
    Sync,
    /// The atomic `rename` into place.
    Rename,
    /// `fsync` of the containing directory entry.
    SyncDir,
}

impl FsOp {
    fn index(self) -> usize {
        match self {
            FsOp::Create => 0,
            FsOp::Write => 1,
            FsOp::Sync => 2,
            FsOp::Rename => 3,
            FsOp::SyncDir => 4,
        }
    }
}

impl std::fmt::Display for FsOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FsOp::Create => "create",
            FsOp::Write => "write",
            FsOp::Sync => "sync",
            FsOp::Rename => "rename",
            FsOp::SyncDir => "sync_dir",
        };
        f.write_str(name)
    }
}

#[derive(Debug, Default)]
struct FsInner {
    /// Remaining injected *transient* failures per op (retryable).
    fail: [AtomicU32; 5],
    /// Countdown to an injected *crash* per op: 0 = disarmed, 1 = the
    /// next occurrence of this op crashes, n = the n-th does.
    crash: [AtomicU32; 5],
    /// Once a crash fires, the simulated process is dead: every further
    /// op fails instantly until a fresh `LedgerFs` is constructed.
    crashed: AtomicBool,
}

/// The injectable filesystem layer every mutating ledger op routes
/// through. Cloning shares the injection state, so a soak harness can
/// keep a handle and arm faults while a registry owns its clone.
///
/// Two fault flavors, mirroring real failure modes:
///
/// - [`fail_next`](LedgerFs::fail_next): the next `n` attempts of an op
///   return a transient I/O error *before touching the filesystem* —
///   absorbed by the publish [`RetryPolicy`] like a flaky SD card.
/// - [`crash_at`](LedgerFs::crash_at): the n-th upcoming attempt of an
///   op performs a *partial* effect (a half-written file, a skipped
///   sync, an un-renamed temp) and then kills the simulated process —
///   every subsequent op fails until the "process" (this `LedgerFs`) is
///   replaced, exactly like `kill -9` at that boundary.
#[derive(Debug, Clone, Default)]
pub struct LedgerFs {
    inner: Arc<FsInner>,
}

impl LedgerFs {
    /// A fault-free filesystem layer (the production default).
    pub fn new() -> Self {
        LedgerFs::default()
    }

    /// Arms `n` transient failures for `op` (cumulative).
    pub fn fail_next(&self, op: FsOp, n: u32) {
        self.inner.fail[op.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Arms a simulated `kill -9` at the `nth` upcoming occurrence of
    /// `op` (1 = the next one). Replaces any previously armed crash for
    /// that op.
    pub fn crash_at(&self, op: FsOp, nth: u32) {
        self.inner.crash[op.index()].store(nth.max(1), Ordering::Relaxed);
    }

    /// Whether an injected crash has fired (the simulated process is
    /// dead; a recovering open must construct a fresh `LedgerFs`).
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Relaxed)
    }

    /// Gate run before (and during) each op. `Ok(false)` = proceed
    /// normally, `Ok(true)` = crash mid-op (perform the partial effect,
    /// then return [`crash_error`]), `Err` = injected transient fault.
    fn gate(&self, op: FsOp) -> io::Result<bool> {
        if self.crashed() {
            return Err(crash_error(op));
        }
        let fail = &self.inner.fail[op.index()];
        let mut left = fail.load(Ordering::Relaxed);
        while left > 0 {
            match fail.compare_exchange_weak(left, left - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    return Err(io::Error::other(format!(
                        "injected transient ledger fault at {op}"
                    )))
                }
                Err(now) => left = now,
            }
        }
        let crash = &self.inner.crash[op.index()];
        let mut count = crash.load(Ordering::Relaxed);
        while count > 0 {
            match crash.compare_exchange_weak(
                count,
                count - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if count == 1 {
                        self.inner.crashed.store(true, Ordering::Relaxed);
                        return Ok(true);
                    }
                    return Ok(false);
                }
                Err(now) => count = now,
            }
        }
        Ok(false)
    }

    fn create(&self, path: &Path) -> io::Result<File> {
        if self.gate(FsOp::Create)? {
            // Crash mid-create: the empty staging file exists, the
            // handle is lost.
            let _ = File::create(path);
            return Err(crash_error(FsOp::Create));
        }
        File::create(path)
    }

    fn write_all(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        if self.gate(FsOp::Write)? {
            // Crash mid-write: half the payload reaches the file.
            let _ = file.write_all(&bytes[..bytes.len() / 2]);
            return Err(crash_error(FsOp::Write));
        }
        file.write_all(bytes)
    }

    fn sync(&self, file: &File) -> io::Result<()> {
        if self.gate(FsOp::Sync)? {
            return Err(crash_error(FsOp::Sync));
        }
        file.sync_all()
    }

    pub(crate) fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.gate(FsOp::Rename)? {
            // Crash before the rename: the temp file stays orphaned.
            return Err(crash_error(FsOp::Rename));
        }
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.gate(FsOp::SyncDir)? {
            // Crash after the rename but before the directory flush:
            // the rename itself may or may not be durable — recovery
            // must tolerate both.
            return Err(crash_error(FsOp::SyncDir));
        }
        // Directory handles are only flushable on Unix; elsewhere the
        // rename alone is the best the platform offers.
        #[cfg(unix)]
        File::open(dir)?.sync_all()?;
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

fn crash_error(op: FsOp) -> io::Error {
    io::Error::other(format!("simulated process death at {op}"))
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Why a manifest failed to parse. Every variant is recoverable: the
/// ledger rebuilds a bad manifest from the on-disk generations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// The byte stream ends before the header or the CRC footer line.
    Truncated,
    /// The first line is not the supported `GHDCLEDGER 1` header.
    UnsupportedHeader(String),
    /// The CRC32 footer does not match the preceding bytes.
    ChecksumMismatch {
        /// CRC stored in the footer line.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// A line is not valid UTF-8 or does not match the grammar.
    Garbage {
        /// 1-based line number.
        line: usize,
        /// The offending text (lossy, truncated).
        text: String,
    },
    /// The same tenant appears twice.
    DuplicateTenant(String),
    /// The same generation is listed twice for one tenant.
    DuplicateGeneration {
        /// The tenant with the duplicate.
        tenant: String,
        /// The duplicated generation number.
        generation: u64,
    },
    /// A tenant's live generation is not in its retained set.
    LiveNotRetained {
        /// The inconsistent tenant.
        tenant: String,
        /// The live generation the manifest claims.
        live: u64,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Truncated => write!(f, "manifest truncated before its CRC footer"),
            ManifestError::UnsupportedHeader(h) => write!(f, "unsupported manifest header `{h}`"),
            ManifestError::ChecksumMismatch { stored, computed } => write!(
                f,
                "manifest CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ManifestError::Garbage { line, text } => {
                write!(f, "manifest line {line} is garbage: `{text}`")
            }
            ManifestError::DuplicateTenant(t) => write!(f, "tenant `{t}` listed twice"),
            ManifestError::DuplicateGeneration { tenant, generation } => {
                write!(f, "tenant `{tenant}` lists generation {generation} twice")
            }
            ManifestError::LiveNotRetained { tenant, live } => write!(
                f,
                "tenant `{tenant}` claims live generation {live} outside its retained set"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One tenant's ledger entry: which generation serves, which are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLedger {
    /// The generation currently serving.
    pub live: u64,
    /// Every retained generation (always contains `live`).
    pub retained: BTreeSet<u64>,
}

/// The parsed per-directory commit record: one live generation per
/// tenant plus the retained set, sealed by a CRC32 footer. The manifest
/// file's atomic rename is the publish/rollback commit point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit counter — bumps on every successful commit, so
    /// readers can detect change without diffing tenants.
    pub epoch: u64,
    tenants: BTreeMap<String, TenantLedger>,
}

impl Manifest {
    /// Parses and CRC-validates manifest bytes.
    ///
    /// # Errors
    ///
    /// A typed [`ManifestError`]; parsing never panics on any input.
    pub fn parse(bytes: &[u8]) -> Result<Manifest, ManifestError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ManifestError::Garbage {
            line: 0,
            text: "non-utf8 bytes".to_owned(),
        })?;
        // A committed manifest always ends in a newline; a byte stream
        // that doesn't is torn mid-footer even when the CRC body
        // happens to be intact.
        if !text.ends_with('\n') {
            return Err(ManifestError::Truncated);
        }
        // Locate the CRC footer line: the last non-empty line.
        let body_end = text.trim_end_matches(['\n', '\r']).rfind('\n');
        let Some(body_end) = body_end else {
            return Err(ManifestError::Truncated);
        };
        let footer = text[body_end + 1..].trim();
        let Some(stored_hex) = footer.strip_prefix("crc ") else {
            return Err(ManifestError::Truncated);
        };
        let stored =
            u32::from_str_radix(stored_hex.trim(), 16).map_err(|_| ManifestError::Garbage {
                line: text.lines().count(),
                text: footer.to_owned(),
            })?;
        let body = &bytes[..body_end + 1];
        let computed = crate::io::crc32(body);
        if stored != computed {
            return Err(ManifestError::ChecksumMismatch { stored, computed });
        }

        let mut lines = text[..body_end].lines().enumerate();
        match lines.next() {
            Some((_, line)) if line.trim() == MANIFEST_MAGIC => {}
            Some((_, line)) => return Err(ManifestError::UnsupportedHeader(line.to_owned())),
            None => return Err(ManifestError::Truncated),
        }
        let epoch = match lines.next() {
            Some((i, line)) => line
                .trim()
                .strip_prefix("epoch ")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| garbage(i, line))?,
            None => return Err(ManifestError::Truncated),
        };
        let mut tenants = BTreeMap::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (tenant, live, retained) =
                parse_tenant_line(line).ok_or_else(|| garbage(i, line))?;
            let mut set = BTreeSet::new();
            for gen in retained {
                if !set.insert(gen) {
                    return Err(ManifestError::DuplicateGeneration {
                        tenant,
                        generation: gen,
                    });
                }
            }
            if !set.contains(&live) {
                return Err(ManifestError::LiveNotRetained { tenant, live });
            }
            if tenants
                .insert(
                    tenant.clone(),
                    TenantLedger {
                        live,
                        retained: set,
                    },
                )
                .is_some()
            {
                return Err(ManifestError::DuplicateTenant(tenant));
            }
        }
        Ok(Manifest { epoch, tenants })
    }

    /// Serializes to the canonical byte form `parse` accepts
    /// (deterministic: tenants sorted, retained ascending, CRC sealed).
    pub fn serialize(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MANIFEST_MAGIC);
        body.push('\n');
        let _ = writeln!(body, "epoch {}", self.epoch);
        for (tenant, entry) in &self.tenants {
            let gens: Vec<String> = entry.retained.iter().map(ToString::to_string).collect();
            let _ = writeln!(
                body,
                "tenant {tenant} live {} retained {}",
                entry.live,
                gens.join(",")
            );
        }
        let crc = crate::io::crc32(body.as_bytes());
        let mut bytes = body.into_bytes();
        let _ = writeln!(bytes, "crc {crc:08x}");
        bytes
    }

    /// The tenants recorded in this manifest, sorted.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &TenantLedger)> {
        self.tenants.iter().map(|(t, e)| (t.as_str(), e))
    }

    /// One tenant's entry.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantLedger> {
        self.tenants.get(tenant)
    }

    /// Records (or replaces) a tenant entry; `retained` always gains
    /// `live` so the parse invariant holds by construction. For tests
    /// and tooling building manifests directly — the serving path
    /// mutates through [`Ledger`] commits.
    pub fn set_tenant(
        &mut self,
        tenant: impl Into<String>,
        live: u64,
        retained: impl IntoIterator<Item = u64>,
    ) {
        let mut set: BTreeSet<u64> = retained.into_iter().collect();
        set.insert(live);
        self.tenants.insert(
            tenant.into(),
            TenantLedger {
                live,
                retained: set,
            },
        );
    }

    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantLedger {
        self.tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantLedger {
                live: 0,
                retained: BTreeSet::new(),
            })
    }
}

// `writeln!` into a Vec<u8> cannot fail; the `let _ =` above make that
// explicit without unwrap.
use std::fmt::Write as _;

fn garbage(index: usize, line: &str) -> ManifestError {
    let mut text = line.to_owned();
    text.truncate(80);
    ManifestError::Garbage {
        // +2: lines() was offset past the header inside parse's
        // enumerate, and humans count from 1.
        line: index + 2,
        text,
    }
}

/// Parses `tenant <name> live <N> retained <a,b,c>`.
fn parse_tenant_line(line: &str) -> Option<(String, u64, Vec<u64>)> {
    let rest = line.strip_prefix("tenant ")?;
    let (name, rest) = rest.split_once(" live ")?;
    let (live, gens) = rest.split_once(" retained ")?;
    if !valid_tenant_name(name) {
        return None;
    }
    let live = live.trim().parse().ok()?;
    let mut retained = Vec::new();
    for part in gens.trim().split(',') {
        retained.push(part.trim().parse().ok()?);
    }
    Some((name.to_owned(), live, retained))
}

/// File name of generation `gen` of `tenant` (generation 0 is the
/// legacy flat image `<tenant>.ghdc`).
pub(crate) fn gen_file_name(tenant: &str, gen: u64) -> String {
    if gen == LEGACY_GENERATION {
        format!("{tenant}.{IMAGE_EXT}")
    } else {
        format!("{tenant}.g{gen}.{IMAGE_EXT}")
    }
}

/// Tenant-name discipline shared with the registry: `[A-Za-z0-9_-]`,
/// 1–64 bytes. Names never contain `.`, which keeps generation-file
/// parsing unambiguous.
pub fn valid_tenant_name(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

/// What [`Ledger::open`]'s recovery scan found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// Orphaned `*.tmp` staging files swept (crashed publishes leak
    /// these; recovery reclaims them).
    pub swept_tmp: usize,
    /// Whether the manifest was missing or corrupt and was rebuilt from
    /// the on-disk generations.
    pub repaired: bool,
    /// Images on disk that no manifest referenced and were adopted as
    /// non-live generations (a crash between image rename and manifest
    /// commit leaves exactly these).
    pub adopted: usize,
    /// Why the manifest needed repair, when it did.
    pub repair_reason: Option<String>,
    /// Wall-clock recovery time.
    pub elapsed: Duration,
}

/// One row of [`Ledger::history`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationRecord {
    /// The generation number (0 = adopted legacy flat image).
    pub generation: u64,
    /// Whether this generation is the live one.
    pub live: bool,
    /// On-disk size, or `None` when the image file is missing.
    pub bytes: Option<u64>,
}

/// One finding of [`Ledger::fsck`].
#[derive(Debug, Clone)]
pub struct FsckFinding {
    /// The tenant the finding concerns.
    pub tenant: String,
    /// The generation the finding concerns.
    pub generation: u64,
    /// `Ok` = image CRC-valid; `Err(reason)` = missing or corrupt.
    pub status: Result<(), String>,
    /// Whether this generation is the tenant's live one.
    pub live: bool,
}

/// The full [`Ledger::fsck`] report.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every retained generation's validation status.
    pub findings: Vec<FsckFinding>,
    /// Files in the directory no manifest entry references (candidates
    /// for [`Ledger::gc`]).
    pub orphans: Vec<PathBuf>,
}

impl FsckReport {
    /// Whether every retained live generation validated.
    pub fn healthy(&self) -> bool {
        self.findings.iter().all(|f| !f.live || f.status.is_ok())
    }
}

/// The per-directory generation ledger. Not internally synchronized —
/// the registry wraps it in a mutex; the CLI drives it single-threaded.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
    keep: usize,
    retry: RetryPolicy,
    fs: LedgerFs,
    /// Held advisory writer lock (`None` = reader role). The flock dies
    /// with the file description, so a killed writer never wedges the
    /// directory.
    lock: Option<File>,
    manifest: Manifest,
    /// The manifest bytes last read or written — what the generation
    /// watch compares the file against. Every commit bumps the epoch,
    /// so every commit changes these bytes, whatever the file's length
    /// and timestamp do.
    watch: Vec<u8>,
    /// Write retries consumed since the last [`Ledger::take_retries`].
    retries: u64,
}

impl Ledger {
    /// Opens `dir` with defaults (keep 4 generations, default retry,
    /// fault-free fs) and runs the recovery scan.
    ///
    /// # Errors
    ///
    /// Only directory-level I/O failures; a corrupt manifest is
    /// *repaired*, never fatal.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Ledger, RecoveryOutcome)> {
        Ledger::open_with(dir, 4, RetryPolicy::default(), LedgerFs::new())
    }

    /// Opens `dir` keeping `keep` generations per tenant, retrying
    /// transient publish I/O per `retry`, with every mutating fs
    /// boundary routed through `fs`.
    ///
    /// # Errors
    ///
    /// Only directory-level I/O failures.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        keep: usize,
        retry: RetryPolicy,
        fs: LedgerFs,
    ) -> io::Result<(Ledger, RecoveryOutcome)> {
        let start = Instant::now();
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut ledger = Ledger {
            dir,
            keep: keep.max(1),
            retry,
            fs,
            lock: None,
            manifest: Manifest::default(),
            watch: Vec::new(),
            retries: 0,
        };
        let _ = ledger.try_acquire_writer();
        let mut outcome = RecoveryOutcome::default();

        let scan = ledger.scan_dir()?;
        // Sweep orphaned staging files — but only as the writer: a
        // reader must not delete another process's in-flight publish.
        if ledger.is_writer() {
            for tmp in &scan.tmps {
                if std::fs::remove_file(tmp).is_ok() {
                    outcome.swept_tmp += 1;
                }
            }
        }

        let manifest_path = ledger.manifest_path();
        let parsed = match std::fs::read(&manifest_path) {
            Ok(bytes) => Manifest::parse(&bytes).map_err(|e| e.to_string()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err("manifest missing".to_owned()),
            Err(e) => return Err(e),
        };
        let mut dirty = false;
        match parsed {
            Ok(manifest) => {
                ledger.manifest = manifest;
                // Adopt images that exist on disk but are unreferenced:
                // a crash between image rename and manifest commit
                // leaves exactly this state. Adopted images are *not*
                // made live — the manifest commit is the commit point.
                for (tenant, gens) in &scan.images {
                    for &gen in gens {
                        let entry = ledger.manifest.tenant_mut(tenant);
                        if entry.retained.insert(gen) {
                            if entry.retained.len() == 1 {
                                // Brand-new tenant with no committed
                                // manifest entry: the newest valid image
                                // becomes live (nothing older exists).
                                entry.live = gen;
                            }
                            outcome.adopted += 1;
                            dirty = true;
                        }
                    }
                }
                // Repair tenants whose live image vanished or entries
                // pointing at nothing.
                ledger.drop_missing_entries(&scan, &mut dirty);
            }
            Err(reason) => {
                let had_images = !scan.images.is_empty();
                ledger.manifest = ledger.rebuild_manifest(&scan);
                if had_images || reason != "manifest missing" {
                    outcome.repaired = true;
                    outcome.repair_reason = Some(reason);
                    dirty = true;
                }
            }
        }
        if dirty && ledger.is_writer() {
            // Persist the repaired view; failures are non-fatal (the
            // in-memory manifest still serves, and the next writer
            // retries the repair).
            let _ = ledger.write_manifest();
        }
        ledger.watch = std::fs::read(&manifest_path).unwrap_or_default();
        outcome.elapsed = start.elapsed();
        Ok((ledger, outcome))
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this ledger holds the advisory writer lock.
    pub fn is_writer(&self) -> bool {
        self.lock.is_some()
    }

    /// The current in-memory manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The current commit epoch.
    pub fn epoch(&self) -> u64 {
        self.manifest.epoch
    }

    /// The injectable filesystem layer (shared-state clone).
    pub fn fs(&self) -> LedgerFs {
        self.fs.clone()
    }

    /// Drains the write-retry counter: retries consumed since the last
    /// call by every image and manifest write, failed ones included.
    pub fn take_retries(&mut self) -> u64 {
        std::mem::take(&mut self.retries)
    }

    /// Tries to become the writer (idempotent).
    ///
    /// # Errors
    ///
    /// Lock-file creation failures. `Ok(false)` means another process
    /// (or another ledger over the same dir) holds the lock.
    pub fn try_acquire_writer(&mut self) -> io::Result<bool> {
        if self.lock.is_some() {
            return Ok(true);
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.dir.join(LOCK_NAME))?;
        if try_lock_exclusive(&file)? {
            self.lock = Some(file);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    /// Path of generation `gen` of `tenant` (generation 0 is the legacy
    /// flat image `<tenant>.ghdc`).
    pub fn gen_path(&self, tenant: &str, gen: u64) -> PathBuf {
        self.dir.join(gen_file_name(tenant, gen))
    }

    /// The live generation and its path, when the tenant is known.
    pub fn live_path(&self, tenant: &str) -> Option<(u64, PathBuf)> {
        let entry = self.manifest.tenant(tenant)?;
        Some((entry.live, self.gen_path(tenant, entry.live)))
    }

    /// Retained generations strictly below `below`, ascending.
    pub fn retained_below(&self, tenant: &str, below: u64) -> Vec<u64> {
        self.manifest
            .tenant(tenant)
            .map(|e| e.retained.iter().copied().filter(|&g| g < below).collect())
            .unwrap_or_default()
    }

    /// Tenants known to the manifest, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.manifest.tenants.keys().cloned().collect()
    }

    /// Adopts a legacy flat image dropped into the directory out of
    /// band, making it generation 0 (live) for its tenant. Returns
    /// whether anything was adopted.
    ///
    /// # Errors
    ///
    /// Manifest persistence failures (writer only).
    pub fn adopt_flat(&mut self, tenant: &str) -> io::Result<bool> {
        if self.manifest.tenant(tenant).is_some() {
            return Ok(false);
        }
        let flat = self.gen_path(tenant, LEGACY_GENERATION);
        if !flat.exists() {
            return Ok(false);
        }
        let entry = self.manifest.tenant_mut(tenant);
        entry.live = LEGACY_GENERATION;
        entry.retained.insert(LEGACY_GENERATION);
        if self.is_writer() {
            let _ = self.write_manifest();
        }
        Ok(true)
    }

    /// The generation number the next publish of `tenant` will use.
    pub fn next_generation(&self, tenant: &str) -> u64 {
        self.manifest
            .tenant(tenant)
            .and_then(|e| e.retained.iter().next_back().copied())
            .unwrap_or(0)
            + 1
    }

    /// Stages and atomically renames a new generation image for
    /// `tenant`, retrying transient faults per the ledger's
    /// [`RetryPolicy`]. Does **not** commit the manifest — the caller
    /// validates the image first, then calls
    /// [`commit_live`](Ledger::commit_live).
    ///
    /// # Errors
    ///
    /// The last I/O error once the retry budget is exhausted (the
    /// staging file is cleaned up best-effort).
    pub fn publish_image(&mut self, tenant: &str, bytes: &[u8]) -> io::Result<(u64, PathBuf)> {
        let gen = self.next_generation(tenant);
        let path = self.gen_path(tenant, gen);
        self.write_atomic(&path, bytes)?;
        Ok((gen, path))
    }

    /// Commits `gen` as `tenant`'s live generation: bumps the epoch,
    /// trims the retained set to the keep limit (never dropping the new
    /// live), atomically replaces the manifest, and garbage-collects
    /// the trimmed image files. As a reader (no writer lock) the change
    /// is in-memory only — the caller's process keeps serving the
    /// rolled-to generation, but nothing on disk moves.
    ///
    /// # Errors
    ///
    /// Manifest write failures; the in-memory manifest is left on the
    /// *previous* committed state when the write fails, so serving
    /// state and disk state cannot silently diverge.
    pub fn commit_live(&mut self, tenant: &str, gen: u64) -> io::Result<()> {
        let previous = self.manifest.clone();
        let keep = self.keep;
        let entry = self.manifest.tenant_mut(tenant);
        entry.retained.insert(gen);
        entry.live = gen;
        // Trim: keep the newest `keep` generations, always retaining
        // the live one.
        let mut dropped: Vec<u64> = Vec::new();
        while entry.retained.len() > keep {
            let Some(&oldest) = entry.retained.iter().find(|&&g| g != gen) else {
                break;
            };
            entry.retained.remove(&oldest);
            dropped.push(oldest);
        }
        self.manifest.epoch += 1;
        if !self.is_writer() {
            return Ok(());
        }
        match self.write_manifest() {
            Ok(()) => {
                for g in dropped {
                    let _ = std::fs::remove_file(self.gen_path(tenant, g));
                }
                Ok(())
            }
            Err(e) => {
                self.manifest = previous;
                Err(e)
            }
        }
    }

    /// Resolves the rollback target: `to` when given (must be a
    /// retained non-live generation), else the newest retained
    /// generation below live.
    pub fn rollback_target(&self, tenant: &str, to: Option<u64>) -> Option<u64> {
        let entry = self.manifest.tenant(tenant)?;
        match to {
            Some(gen) => (entry.retained.contains(&gen) && gen != entry.live).then_some(gen),
            None => entry.retained.iter().copied().rfind(|&g| g < entry.live),
        }
    }

    /// Re-reads the manifest file and, when its bytes changed on disk,
    /// re-parses it. Returns the tenants whose live generation changed
    /// (including appeared/disappeared) — the caller invalidates their
    /// resident state. A manifest that fails to parse mid-watch is
    /// ignored (the previous in-memory view keeps serving; the next
    /// open repairs).
    ///
    /// # Errors
    ///
    /// None currently — read failures are treated as "no change"; the
    /// signature leaves room for stricter modes.
    pub fn refresh_if_changed(&mut self) -> io::Result<Vec<String>> {
        let Ok(bytes) = std::fs::read(self.manifest_path()) else {
            return Ok(Vec::new());
        };
        if bytes == self.watch {
            return Ok(Vec::new());
        }
        let fresh = Manifest::parse(&bytes);
        self.watch = bytes;
        let Ok(fresh) = fresh else {
            return Ok(Vec::new());
        };
        let mut changed = Vec::new();
        for (tenant, entry) in &fresh.tenants {
            if self.manifest.tenant(tenant).map(|e| e.live) != Some(entry.live) {
                changed.push(tenant.clone());
            }
        }
        for tenant in self.manifest.tenants.keys() {
            if !fresh.tenants.contains_key(tenant) {
                changed.push(tenant.clone());
            }
        }
        self.manifest = fresh;
        Ok(changed)
    }

    /// Full CRC/layout validation of one image file (no dimensionality
    /// check — that is the registry's concern). The image's own header
    /// picks the decoder: a checkpoint envelope is fully decoded, any
    /// other image is validated as a packed v3 model.
    ///
    /// # Errors
    ///
    /// A human-readable reason (missing, torn, CRC mismatch, …).
    pub fn validate_image(path: &Path) -> Result<(), String> {
        let bytes = Mapping::map_file(path).map_err(|e| e.to_string())?;
        if crate::runtime::is_checkpoint(&bytes) {
            crate::runtime::decode_checkpoint(&bytes).map(|_| ())
        } else {
            PackedLayout::validate(&bytes).map(|_| ())
        }
        .map_err(|e| e.to_string())
    }

    /// Per-generation history of one tenant, ascending.
    pub fn history(&self, tenant: &str) -> Vec<GenerationRecord> {
        let Some(entry) = self.manifest.tenant(tenant) else {
            return Vec::new();
        };
        entry
            .retained
            .iter()
            .map(|&gen| GenerationRecord {
                generation: gen,
                live: gen == entry.live,
                bytes: std::fs::metadata(self.gen_path(tenant, gen))
                    .ok()
                    .map(|m| m.len()),
            })
            .collect()
    }

    /// Validates every retained generation of every tenant and lists
    /// unreferenced files. Read-only.
    ///
    /// # Errors
    ///
    /// Directory-read failures only.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        for (tenant, entry) in &self.manifest.tenants {
            for &gen in &entry.retained {
                let path = self.gen_path(tenant, gen);
                report.findings.push(FsckFinding {
                    tenant: tenant.clone(),
                    generation: gen,
                    status: Self::validate_image(&path),
                    live: gen == entry.live,
                });
            }
        }
        let scan = self.scan_dir()?;
        report.orphans.extend(scan.tmps);
        for (tenant, gens) in &scan.images {
            for &gen in gens {
                let referenced = self
                    .manifest
                    .tenant(tenant)
                    .is_some_and(|e| e.retained.contains(&gen));
                if !referenced {
                    report.orphans.push(self.gen_path(tenant, gen));
                }
            }
        }
        Ok(report)
    }

    /// Removes staging files and unreferenced images. Requires the
    /// writer lock. Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// `PermissionDenied` without the writer lock; directory-read
    /// failures.
    pub fn gc(&mut self) -> io::Result<usize> {
        if !self.try_acquire_writer()? {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "another process holds the registry writer lock",
            ));
        }
        let report = self.fsck()?;
        let mut removed = 0usize;
        for orphan in &report.orphans {
            if std::fs::remove_file(orphan).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    // -- internals ----------------------------------------------------------

    /// Atomically replaces the manifest.
    fn write_manifest(&mut self) -> io::Result<()> {
        let path = self.manifest_path();
        let bytes = self.manifest.serialize();
        let result = self.write_atomic(&path, &bytes);
        self.watch = std::fs::read(&path).unwrap_or_default();
        result
    }

    /// The one write path of the ledger: stages `bytes` to
    /// `<path>.tmp`, fsyncs, atomically renames into place, and fsyncs
    /// the directory — every step through the injectable fs, transient
    /// faults retried per the [`RetryPolicy`] and counted for
    /// [`take_retries`](Ledger::take_retries).
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        let (result, retries) = self.retry.run_counted(|| {
            let mut file = self.fs.create(&tmp)?;
            self.fs.write_all(&mut file, bytes)?;
            self.fs.sync(&file)?;
            drop(file);
            self.fs.rename(&tmp, path)?;
            self.fs.sync_dir(&self.dir)
        });
        self.retries += u64::from(retries);
        // A dead process can't clean up — its staging file stays for
        // the next open's recovery sweep, exactly like a real kill -9.
        if result.is_err() && !self.fs.crashed() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Rebuilds a manifest from the on-disk images: per tenant, live =
    /// the newest image passing full CRC validation (a corrupt newest
    /// generation is *never* selected while an older valid one exists);
    /// when no image validates, the newest is recorded as live so a
    /// `get` reports quarantine rather than not-found.
    fn rebuild_manifest(&self, scan: &DirScan) -> Manifest {
        let mut manifest = Manifest::default();
        for (tenant, gens) in &scan.images {
            let mut retained: BTreeSet<u64> = gens.iter().copied().collect();
            let live = retained
                .iter()
                .rev()
                .copied()
                .find(|&g| Self::validate_image(&self.gen_path(tenant, g)).is_ok())
                .or_else(|| retained.iter().next_back().copied());
            let Some(live) = live else { continue };
            retained.insert(live);
            manifest
                .tenants
                .insert(tenant.clone(), TenantLedger { live, retained });
        }
        manifest
    }

    /// Drops manifest entries whose image files are gone entirely.
    fn drop_missing_entries(&mut self, scan: &DirScan, dirty: &mut bool) {
        let empty = BTreeSet::new();
        let mut fixes: Vec<(String, TenantLedger)> = Vec::new();
        let mut gone: Vec<String> = Vec::new();
        for (tenant, entry) in &self.manifest.tenants {
            let on_disk = scan.images.get(tenant).unwrap_or(&empty);
            let present: BTreeSet<u64> = entry
                .retained
                .iter()
                .copied()
                .filter(|g| on_disk.contains(g))
                .collect();
            if present == entry.retained {
                continue;
            }
            if present.is_empty() {
                gone.push(tenant.clone());
                continue;
            }
            let live = if present.contains(&entry.live) {
                entry.live
            } else {
                // The live image vanished: fall back to the newest
                // surviving valid one (or the newest, if none valid).
                present
                    .iter()
                    .rev()
                    .copied()
                    .find(|&g| Self::validate_image(&self.gen_path(tenant, g)).is_ok())
                    .or(present.iter().next_back().copied())
                    .unwrap_or(entry.live)
            };
            fixes.push((
                tenant.clone(),
                TenantLedger {
                    live,
                    retained: present,
                },
            ));
        }
        for tenant in gone {
            self.manifest.tenants.remove(&tenant);
            *dirty = true;
        }
        for (tenant, entry) in fixes {
            self.manifest.tenants.insert(tenant, entry);
            *dirty = true;
        }
    }

    fn scan_dir(&self) -> io::Result<DirScan> {
        let mut scan = DirScan::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == MANIFEST_NAME || name == LOCK_NAME {
                continue;
            }
            if name.ends_with(TMP_SUFFIX) {
                scan.tmps.push(entry.path());
                continue;
            }
            let Some(stem) = name.strip_suffix(&format!(".{IMAGE_EXT}")) else {
                continue;
            };
            // `<tenant>.g<N>` or legacy `<tenant>`; tenant names never
            // contain '.', so rsplit is unambiguous.
            let (tenant, gen) = match stem.rsplit_once(".g") {
                Some((t, g)) => match g.parse::<u64>() {
                    Ok(n) if n > 0 => (t, n),
                    _ => continue,
                },
                None => (stem, LEGACY_GENERATION),
            };
            if !valid_tenant_name(tenant) {
                continue;
            }
            scan.images
                .entry(tenant.to_owned())
                .or_default()
                .insert(gen);
        }
        Ok(scan)
    }
}

#[derive(Debug, Default)]
struct DirScan {
    tmps: Vec<PathBuf>,
    images: BTreeMap<String, BTreeSet<u64>>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ghdc-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_image(seed: u64) -> Vec<u8> {
        use crate::{BinaryHv, HdcModel, IntHv, QuantizedModel};
        let encoded: Vec<IntHv> = (0..3)
            .map(|c| IntHv::from(BinaryHv::random_seeded(256, seed * 31 + c).unwrap()))
            .collect();
        let model = HdcModel::fit(&encoded, &[0, 1, 2], 3).unwrap();
        let quantized = QuantizedModel::from_model(&model, 4).unwrap();
        let mut buf = Vec::new();
        crate::io::write_packed(&quantized, &mut buf).unwrap();
        buf
    }

    #[test]
    fn manifest_round_trips_canonically() {
        let mut m = Manifest {
            epoch: 9,
            ..Manifest::default()
        };
        m.tenants.insert(
            "acme".into(),
            TenantLedger {
                live: 3,
                retained: [2u64, 3].into_iter().collect(),
            },
        );
        let bytes = m.serialize();
        assert_eq!(Manifest::parse(&bytes).unwrap(), m);
        // Deterministic byte-for-byte.
        assert_eq!(m.serialize(), bytes);
    }

    #[test]
    fn manifest_rejects_torn_and_garbage_inputs() {
        let mut m = Manifest {
            epoch: 1,
            ..Manifest::default()
        };
        m.tenants.insert(
            "t".into(),
            TenantLedger {
                live: 1,
                retained: [1u64].into_iter().collect(),
            },
        );
        let bytes = m.serialize();
        // Truncations.
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // One flipped byte anywhere fails the CRC (or the grammar).
        let mut torn = bytes.clone();
        torn[bytes.len() / 2] ^= 0x01;
        assert!(Manifest::parse(&torn).is_err());
        // Duplicate tenant.
        let body =
            "GHDCLEDGER 1\nepoch 1\ntenant a live 1 retained 1\ntenant a live 2 retained 2\n";
        let mut forged = body.as_bytes().to_vec();
        let crc = crate::io::crc32(&forged);
        forged.extend_from_slice(format!("crc {crc:08x}\n").as_bytes());
        assert!(matches!(
            Manifest::parse(&forged),
            Err(ManifestError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn publish_commit_recover_cycle_survives_missing_manifest() {
        let dir = scratch("cycle");
        let (mut ledger, _) = Ledger::open(&dir).unwrap();
        let image = sample_image(7);
        let (gen, path) = ledger.publish_image("acme", &image).unwrap();
        assert_eq!(gen, 1);
        assert!(path.exists());
        ledger.commit_live("acme", gen).unwrap();
        assert_eq!(ledger.epoch(), 1);

        // Delete the manifest: recovery rebuilds it from the image.
        drop(ledger);
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        let (ledger, outcome) = Ledger::open(&dir).unwrap();
        assert!(outcome.repaired);
        assert_eq!(ledger.live_path("acme").unwrap().0, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_never_selects_a_corrupt_generation_as_live() {
        let dir = scratch("corrupt-live");
        let (mut ledger, _) = Ledger::open(&dir).unwrap();
        for seed in 0..3u64 {
            let image = sample_image(seed);
            let (gen, _) = ledger.publish_image("t", &image).unwrap();
            ledger.commit_live("t", gen).unwrap();
        }
        // Corrupt the newest image and tear the manifest.
        let newest = ledger.gen_path("t", 3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        drop(ledger);
        std::fs::write(dir.join(MANIFEST_NAME), b"total garbage").unwrap();

        let (ledger, outcome) = Ledger::open(&dir).unwrap();
        assert!(outcome.repaired);
        assert_eq!(ledger.live_path("t").unwrap().0, 2, "newest valid wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_publish_leaves_previous_commit_live_and_sweeps_tmp() {
        let dir = scratch("crash");
        let fs = LedgerFs::new();
        let (mut ledger, _) =
            Ledger::open_with(&dir, 4, RetryPolicy::default(), fs.clone()).unwrap();
        let (gen, _) = ledger.publish_image("acme", &sample_image(1)).unwrap();
        ledger.commit_live("acme", gen).unwrap();

        // Crash mid-write of the next image: half the payload lands in
        // the tmp file, then the process dies.
        fs.crash_at(FsOp::Write, 1);
        let err = ledger.publish_image("acme", &sample_image(2)).unwrap_err();
        assert!(err.to_string().contains("simulated process death"), "{err}");
        assert!(fs.crashed());
        drop(ledger);

        let (ledger, outcome) = Ledger::open(&dir).unwrap();
        assert_eq!(ledger.live_path("acme").unwrap().0, 1, "commit survives");
        // publish_image cleans its tmp on failure, so either path
        // (swept at open or cleaned at failure) must leave none behind.
        assert!(
            !dir.join("acme.g2.ghdc.tmp").exists(),
            "no staging file may survive recovery (swept {})",
            outcome.swept_tmp
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        let dir = scratch("transient");
        let fs = LedgerFs::new();
        let retry = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter: false,
        };
        let (mut ledger, _) = Ledger::open_with(&dir, 4, retry, fs.clone()).unwrap();
        fs.fail_next(FsOp::Sync, 2);
        let (gen, _) = ledger.publish_image("acme", &sample_image(3)).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(ledger.take_retries(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_limit_trims_and_gcs_old_generations() {
        let dir = scratch("keep");
        let (mut ledger, _) =
            Ledger::open_with(&dir, 2, RetryPolicy::default(), LedgerFs::new()).unwrap();
        for seed in 0..4u64 {
            let (gen, _) = ledger.publish_image("t", &sample_image(seed)).unwrap();
            ledger.commit_live("t", gen).unwrap();
        }
        let entry = ledger.manifest().tenant("t").unwrap().clone();
        assert_eq!(entry.live, 4);
        assert_eq!(entry.retained.len(), 2);
        assert!(!ledger.gen_path("t", 1).exists());
        assert!(!ledger.gen_path("t", 2).exists());
        assert!(ledger.gen_path("t", 3).exists());
        assert!(ledger.gen_path("t", 4).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_ledger_is_reader_and_watches_commits() {
        let dir = scratch("watch");
        let (mut writer, _) = Ledger::open(&dir).unwrap();
        assert!(writer.is_writer());
        let (gen, _) = writer.publish_image("acme", &sample_image(5)).unwrap();
        writer.commit_live("acme", gen).unwrap();

        let (mut reader, _) = Ledger::open(&dir).unwrap();
        assert!(!reader.is_writer(), "flock must exclude a second opener");
        assert_eq!(reader.live_path("acme").unwrap().0, 1);

        let (gen, _) = writer.publish_image("acme", &sample_image(6)).unwrap();
        writer.commit_live("acme", gen).unwrap();
        let changed = reader.refresh_if_changed().unwrap();
        assert_eq!(changed, vec!["acme".to_owned()]);
        assert_eq!(reader.live_path("acme").unwrap().0, 2);

        // Writer lock transfers once the writer drops.
        drop(writer);
        assert!(reader.try_acquire_writer().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_corruption_and_orphans() {
        let dir = scratch("fsck");
        let (mut ledger, _) = Ledger::open(&dir).unwrap();
        let (gen, path) = ledger.publish_image("acme", &sample_image(9)).unwrap();
        ledger.commit_live("acme", gen).unwrap();
        // An orphan image (never committed) and a torn live image.
        std::fs::write(dir.join("acme.g9.ghdc"), b"stray").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let report = ledger.fsck().unwrap();
        assert!(!report.healthy());
        assert!(report.orphans.iter().any(|p| p.ends_with("acme.g9.ghdc")));
        let removed = ledger.gc().unwrap();
        assert!(removed >= 1);
        assert!(!dir.join("acme.g9.ghdc").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
