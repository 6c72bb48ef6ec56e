//! Multi-tenant model registry: mmap-on-demand serving of GHDC v3
//! class memories with a crash-recoverable generation ledger.
//!
//! At fleet scale the binding constraint is not single-model speed but
//! footprint: thousands of per-tenant models, each fully deserialized,
//! multiply cold-load latency and resident set linearly. The paper's
//! seed-based id regeneration (§4.2, ~1024× id-memory compression)
//! means tenants can share one item/id memory — only the *class*
//! memories differ per tenant. This module serves those class memories
//! straight out of the OS page cache:
//!
//! - [`ModelRegistry::get`] maps the tenant's **live generation**
//!   (`DIR/<tenant>.g<N>.ghdc`, resolved through the
//!   [`Ledger`](crate::ledger::Ledger) manifest) on demand and
//!   validates it (header, exact length, alignment, CRC32) before any
//!   view exists. A failing live image **auto-rolls back**: the newest
//!   retained generation that passes validation is committed live and
//!   served, so a bad image degrades to the previous model instead of
//!   shedding the tenant's traffic. Only when *no* retained generation
//!   validates is the tenant quarantined.
//! - Resident mappings live in an LRU under a configurable byte
//!   budget; eviction drops the registry's reference, and the mapping
//!   itself is retired only when the last in-flight reader drops its
//!   [`TenantHandle`] (RCU by refcount).
//! - [`ModelRegistry::publish`] stages a new generation through the
//!   atomic path checkpoints use — write `*.tmp`, fsync, rename, fsync
//!   the directory, retrying transient faults per the configured
//!   [`RetryPolicy`] — validates it, and only then commits the
//!   manifest. A crash at any boundary leaves the previous generation
//!   live; [`ModelRegistry::open`]'s recovery scan sweeps the staging
//!   debris. The last `keep_generations` images are retained for
//!   [`ModelRegistry::rollback`].
//! - Cross-process coherence: the first registry over a directory takes
//!   an advisory `flock` and becomes the writer; further registries
//!   (other processes, or other instances in this one) open as readers
//!   whose [`ModelRegistry::get`] re-reads the manifest every
//!   `watch_every` admissions and refreshes changed tenants — so a
//!   serving process picks up another process's publishes and
//!   rollbacks at admission time without restarting.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::io::{write_packed, ReadModelError};
use crate::ledger::{
    valid_tenant_name, FsckReport, GenerationRecord, Ledger, LedgerFs, RecoveryOutcome,
};
use crate::mapped::Mapping;
use crate::quant::{PackedModel, PackedModelView, QuantizedModel};
use crate::runtime::RetryPolicy;

/// File extension of tenant model files inside a registry directory.
pub const TENANT_EXT: &str = "ghdc";

/// Tunables of a [`ModelRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Byte budget for resident mappings; the LRU evicts down to this
    /// after every load. A single model larger than the budget is
    /// refused outright ([`RegistryError::BudgetTooSmall`]).
    pub byte_budget: usize,
    /// Hypervector dimensionality every tenant must match (the shared
    /// encoder's output width). Mismatching files are quarantined.
    pub dim: usize,
    /// Generations retained per tenant for rollback (≥ 1; older images
    /// are garbage-collected at commit).
    pub keep_generations: usize,
    /// A reader registry re-reads the manifest every `watch_every`-th
    /// admission to pick up cross-process commits (1 = every call).
    pub watch_every: u64,
    /// Backoff policy for transient publish/manifest I/O faults (the
    /// same ledger write path `CheckpointStore::save` uses).
    pub retry: RetryPolicy,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            byte_budget: 64 << 20,
            dim: 2048,
            keep_generations: 4,
            watch_every: 64,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a registry operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// The tenant id contains characters outside `[A-Za-z0-9_-]` (or is
    /// empty / too long) — refused before it can touch a path.
    InvalidTenant(String),
    /// No model file exists for the tenant.
    NotFound(String),
    /// No retained generation of the tenant's file passes
    /// CRC/alignment/layout validation; the tenant is quarantined until
    /// a valid model is published for it.
    Quarantined {
        /// The quarantined tenant.
        tenant: String,
        /// Human-readable validation failure that caused the quarantine.
        reason: String,
    },
    /// The model's mapped size alone exceeds the LRU byte budget.
    BudgetTooSmall {
        /// Bytes the mapping needs.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A model offered for publication doesn't match the registry's
    /// dimensionality.
    DimMismatch {
        /// The registry's (shared encoder's) dimensionality.
        expected: usize,
        /// The offered model's dimensionality.
        actual: usize,
    },
    /// A freshly staged publish image failed validation and was
    /// discarded; the tenant keeps serving its previous generation.
    PublishRejected {
        /// The tenant whose publish was rejected.
        tenant: String,
        /// Why the staged image failed validation.
        reason: String,
    },
    /// A mutation (publish, rollback, gc) was attempted without the
    /// advisory writer lock — another process owns the directory.
    NotWriter,
    /// A rollback targeted a generation the ledger does not retain.
    NoSuchGeneration {
        /// The tenant.
        tenant: String,
        /// The requested generation (`None` = no older generation
        /// exists to roll back to).
        generation: Option<u64>,
    },
    /// Underlying I/O failure (not a validation failure).
    Io(io::Error),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::InvalidTenant(t) => write!(f, "invalid tenant id `{t}`"),
            RegistryError::NotFound(t) => write!(f, "no model file for tenant `{t}`"),
            RegistryError::Quarantined { tenant, reason } => {
                write!(f, "tenant `{tenant}` is quarantined: {reason}")
            }
            RegistryError::BudgetTooSmall { needed, budget } => write!(
                f,
                "model needs {needed} resident bytes but the budget is {budget}"
            ),
            RegistryError::DimMismatch { expected, actual } => write!(
                f,
                "model dimensionality {actual} does not match the registry's {expected}"
            ),
            RegistryError::PublishRejected { tenant, reason } => write!(
                f,
                "publish for tenant `{tenant}` rejected (previous generation stays live): {reason}"
            ),
            RegistryError::NotWriter => {
                write!(f, "another process holds the registry writer lock")
            }
            RegistryError::NoSuchGeneration { tenant, generation } => match generation {
                Some(g) => write!(f, "tenant `{tenant}` retains no generation {g}"),
                None => write!(
                    f,
                    "tenant `{tenant}` has no older generation to roll back to"
                ),
            },
            RegistryError::Io(e) => write!(f, "registry i/o failure: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// Point-in-time registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Cache hits: [`ModelRegistry::get`] served a resident mapping.
    pub hits: u64,
    /// Cold loads: a file was mapped and validated.
    pub cold_loads: u64,
    /// Mappings evicted by the LRU to stay under the byte budget.
    pub evictions: u64,
    /// Successful hot-swaps through [`ModelRegistry::publish`].
    pub swaps: u64,
    /// Validation failures that quarantined a tenant (no retained
    /// generation validated).
    pub quarantines: u64,
    /// Publish/manifest write retries consumed by the [`RetryPolicy`],
    /// including those of publishes that failed once it ran out.
    pub publish_retries: u64,
    /// Generations reverted — explicit [`ModelRegistry::rollback`]s,
    /// auto-rollbacks on a corrupt live image, and rejected publishes
    /// that kept the previous generation live.
    pub rollbacks: u64,
    /// Recovery scans at open that had to repair state (torn/missing
    /// manifest rebuilt, orphaned images adopted, or staging files
    /// swept).
    pub recoveries: u64,
    /// Orphaned `*.tmp` staging files swept by recovery scans.
    pub tmp_sweeps: u64,
}

/// A clonable, thread-safe reference to one tenant's mapped model,
/// pinned against eviction and hot-swap for as long as it lives. The
/// model is owned by `Arc`: the registry holds one reference while
/// resident, every in-flight request holds another — the mapping
/// unmaps when the last one drops.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    tenant: Arc<str>,
    model: Arc<PackedModel>,
}

impl TenantHandle {
    /// The tenant this handle serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The zero-copy scoring view over the pinned mapping.
    pub fn view(&self) -> PackedModelView<'_> {
        self.model.view()
    }

    /// Whether the pinned region is a real OS memory mapping.
    pub fn is_mmap(&self) -> bool {
        self.model.is_mmap()
    }
}

#[derive(Debug)]
struct Resident {
    model: Arc<PackedModel>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct State {
    resident: HashMap<Arc<str>, Resident>,
    quarantined: HashMap<String, String>,
    resident_bytes: usize,
    tick: u64,
    stats: RegistryStats,
}

/// The multi-tenant registry. See the [module docs](self) for the
/// serving model.
///
/// Lock discipline: the ledger mutex is acquired before the state
/// mutex, never the reverse; the resident-hit fast path takes only the
/// state mutex.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    config: RegistryConfig,
    ledger: Mutex<Ledger>,
    state: Mutex<State>,
    recovery: RecoveryOutcome,
    watch_tick: AtomicU64,
}

impl ModelRegistry {
    /// Opens (creating if missing) a registry over `dir`, running the
    /// ledger recovery scan (sweep staging orphans, repair a
    /// torn/missing manifest from the on-disk generations, adopt
    /// uncommitted images).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] if the directory cannot be created or the
    /// recovery scan fails.
    pub fn open(dir: impl Into<PathBuf>, config: RegistryConfig) -> Result<Self, RegistryError> {
        Self::open_with_fs(dir, config, LedgerFs::new())
    }

    /// [`ModelRegistry::open`] with an injectable filesystem layer —
    /// the crash-fault hook soak and conformance campaigns use to fail
    /// or kill the process at exact publish boundaries.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::open`].
    pub fn open_with_fs(
        dir: impl Into<PathBuf>,
        config: RegistryConfig,
        fs: LedgerFs,
    ) -> Result<Self, RegistryError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (ledger, recovery) =
            Ledger::open_with(&dir, config.keep_generations.max(1), config.retry, fs)?;
        let mut state = State::default();
        state.stats.tmp_sweeps = recovery.swept_tmp as u64;
        if recovery.repaired || recovery.adopted > 0 || recovery.swept_tmp > 0 {
            state.stats.recoveries = 1;
        }
        Ok(ModelRegistry {
            dir,
            config,
            ledger: Mutex::new(ledger),
            state: Mutex::new(state),
            recovery,
            watch_tick: AtomicU64::new(0),
        })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration the registry was opened with.
    pub fn config(&self) -> RegistryConfig {
        self.config
    }

    /// What the recovery scan at open found and did.
    pub fn recovery(&self) -> &RecoveryOutcome {
        &self.recovery
    }

    /// Whether this registry holds the advisory single-writer lock on
    /// the directory (the first opener does; later openers — typically
    /// other processes — serve as coherent readers).
    pub fn is_writer(&self) -> bool {
        lock_ledger(&self.ledger).is_writer()
    }

    /// The ledger's commit epoch (bumps on every publish/rollback).
    pub fn epoch(&self) -> u64 {
        lock_ledger(&self.ledger).epoch()
    }

    /// The path a tenant's **live** model image lives at (the legacy
    /// flat `<tenant>.ghdc` when the ledger has no entry yet).
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidTenant`] for unsafe names.
    pub fn tenant_path(&self, tenant: &str) -> Result<PathBuf, RegistryError> {
        validate_tenant(tenant)?;
        let ledger = lock_ledger(&self.ledger);
        Ok(match ledger.live_path(tenant) {
            Some((_, path)) => path,
            None => ledger.gen_path(tenant, crate::ledger::LEGACY_GENERATION),
        })
    }

    /// Resolves a tenant to a pinned mapped model: resident hit, or
    /// cold map-and-validate of the live generation with auto-rollback
    /// to the newest valid retained generation when the live image
    /// fails validation. Touches the LRU and evicts down to the byte
    /// budget after a cold load. Every `watch_every`-th call re-reads
    /// the manifest, so every cross-process publish and rollback is
    /// picked up at admission time.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no file exists,
    /// [`RegistryError::Quarantined`] when no retained generation
    /// validates (now or previously), [`RegistryError::BudgetTooSmall`]
    /// when the file can never fit.
    pub fn get(&self, tenant: &str) -> Result<TenantHandle, RegistryError> {
        validate_tenant(tenant)?;
        let tick = self.watch_tick.fetch_add(1, Ordering::Relaxed);
        if tick.is_multiple_of(self.config.watch_every.max(1)) {
            let _ = self.refresh();
        }
        {
            let mut state = lock_state(&self.state);
            if let Some(reason) = state.quarantined.get(tenant) {
                return Err(RegistryError::Quarantined {
                    tenant: tenant.to_owned(),
                    reason: reason.clone(),
                });
            }
            state.tick += 1;
            let tick = state.tick;
            if let Some((name, resident)) = state.resident.get_key_value(tenant) {
                let handle = TenantHandle {
                    tenant: Arc::clone(name),
                    model: Arc::clone(&resident.model),
                };
                let name = Arc::clone(name);
                if let Some(resident) = state.resident.get_mut(&name) {
                    resident.last_used = tick;
                }
                state.stats.hits += 1;
                return Ok(handle);
            }
        }
        // Cold load under the ledger lock: resolve the live generation,
        // map + validate it, auto-roll back on failure. The ledger lock
        // also serializes concurrent cold loads of one tenant, keeping
        // the LRU arithmetic in one place.
        let mut ledger = lock_ledger(&self.ledger);
        if ledger.manifest().tenant(tenant).is_none() {
            // Lazy adoption of a legacy flat image dropped into the
            // directory after open.
            ledger.adopt_flat(tenant)?;
        }
        let Some((live, path)) = ledger.live_path(tenant) else {
            return Err(RegistryError::NotFound(tenant.to_owned()));
        };
        let (model, _gen) = match self.load(&path) {
            Ok(model) => (model, live),
            Err(LoadError::Missing) => return Err(RegistryError::NotFound(tenant.to_owned())),
            Err(LoadError::Io(e)) => return Err(RegistryError::Io(e)),
            Err(LoadError::Invalid(reason)) => {
                match self.auto_rollback(&mut ledger, tenant, live) {
                    Some((model, gen)) => (model, gen),
                    None => {
                        let mut state = lock_state(&self.state);
                        state.stats.quarantines += 1;
                        state.quarantined.insert(tenant.to_owned(), reason.clone());
                        return Err(RegistryError::Quarantined {
                            tenant: tenant.to_owned(),
                            reason,
                        });
                    }
                }
            }
        };
        drop(ledger);
        let needed = model.bytes().len();
        if needed > self.config.byte_budget {
            return Err(RegistryError::BudgetTooSmall {
                needed,
                budget: self.config.byte_budget,
            });
        }
        let mut state = lock_state(&self.state);
        // Another thread may have raced the load; prefer its model.
        if let Some((name, resident)) = state.resident.get_key_value(tenant) {
            let handle = TenantHandle {
                tenant: Arc::clone(name),
                model: Arc::clone(&resident.model),
            };
            state.stats.hits += 1;
            return Ok(handle);
        }
        state.stats.cold_loads += 1;
        state.tick += 1;
        let tick = state.tick;
        let name: Arc<str> = Arc::from(tenant);
        let model = Arc::new(model);
        let handle = TenantHandle {
            tenant: Arc::clone(&name),
            model: Arc::clone(&model),
        };
        state.resident_bytes += needed;
        state.resident.insert(
            name,
            Resident {
                model,
                last_used: tick,
            },
        );
        Self::evict_to_budget(&mut state, self.config.byte_budget, Some(tenant));
        Ok(handle)
    }

    /// Walks the retained generations below `live`, newest first, and
    /// commits the first one that fully validates. Returns the loaded
    /// model and its generation, or `None` when nothing validates.
    fn auto_rollback(
        &self,
        ledger: &mut Ledger,
        tenant: &str,
        live: u64,
    ) -> Option<(PackedModel, u64)> {
        for gen in ledger.retained_below(tenant, live).into_iter().rev() {
            let path = ledger.gen_path(tenant, gen);
            if let Ok(model) = self.load(&path) {
                // Commit the reverted live generation; a failed commit
                // (reader role, injected fault) still serves the valid
                // model — the in-memory manifest reverts and the next
                // miss retries the commit.
                let _ = ledger.commit_live(tenant, gen);
                let mut state = lock_state(&self.state);
                state.stats.publish_retries += ledger.take_retries();
                state.stats.rollbacks += 1;
                state.quarantined.remove(tenant);
                return Some((model, gen));
            }
        }
        None
    }

    /// Stages, validates, and commits a new generation for the tenant:
    /// v3 bytes to `*.tmp`, fsync, atomic rename to
    /// `<tenant>.g<N>.ghdc` (transient I/O faults retried per the
    /// configured [`RetryPolicy`]), full validation of the staged
    /// image, then the CRC'd manifest commit — which is the publish's
    /// commit point: a crash anywhere earlier leaves the previous
    /// generation live. On success the resident model is republished
    /// and any quarantine lifted; readers holding the previous
    /// [`TenantHandle`] keep serving the old mapping until they drop
    /// it. Returns the committed generation number.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DimMismatch`] before any byte is written;
    /// [`RegistryError::NotWriter`] when another process owns the
    /// directory; [`RegistryError::PublishRejected`] when the staged
    /// image fails validation (the tenant keeps its previous
    /// generation); otherwise I/O failures once retries are exhausted.
    pub fn publish(&self, tenant: &str, model: &QuantizedModel) -> Result<u64, RegistryError> {
        validate_tenant(tenant)?;
        if model.dim() != self.config.dim {
            return Err(RegistryError::DimMismatch {
                expected: self.config.dim,
                actual: model.dim(),
            });
        }
        let mut bytes = Vec::new();
        write_packed(model, &mut bytes)?;
        self.publish_bytes(tenant, &bytes)
    }

    /// [`publish`](ModelRegistry::publish) for a compressed (pruned +
    /// quantized) model. The tenant is keyed by the *parent*
    /// dimensionality — the width queries arrive at — so a pruned
    /// tenant serves through the same registry as its full-support
    /// peers, it just costs a fraction of the byte budget.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DimMismatch`] when the parent dimensionality
    /// does not match the registry's; otherwise as
    /// [`publish`](ModelRegistry::publish).
    pub fn publish_compressed(
        &self,
        tenant: &str,
        model: &crate::CompressedModel,
    ) -> Result<u64, RegistryError> {
        validate_tenant(tenant)?;
        if model.parent_dim() != self.config.dim {
            return Err(RegistryError::DimMismatch {
                expected: self.config.dim,
                actual: model.parent_dim(),
            });
        }
        let packed = model.pack().map_err(|e| RegistryError::PublishRejected {
            tenant: tenant.to_owned(),
            reason: e.to_string(),
        })?;
        self.publish_bytes(tenant, packed.bytes())
    }

    /// Shared staging/validation/commit tail of both publish paths.
    fn publish_bytes(&self, tenant: &str, bytes: &[u8]) -> Result<u64, RegistryError> {
        let mut ledger = lock_ledger(&self.ledger);
        if !ledger.try_acquire_writer()? {
            return Err(RegistryError::NotWriter);
        }
        // Fold in commits another process made while we were idle, so
        // the new generation numbers past them.
        let _ = ledger.refresh_if_changed();
        let staged = ledger.publish_image(tenant, bytes);
        lock_state(&self.state).stats.publish_retries += ledger.take_retries();
        let (gen, path) = staged?;
        // Validate the staged image *before* the manifest moves: a bad
        // image is discarded and the previous generation stays live.
        let model = match self.load(&path) {
            Ok(model) => Arc::new(model),
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                let reason = match e {
                    LoadError::Invalid(reason) => reason,
                    LoadError::Missing => "staged image vanished".to_owned(),
                    LoadError::Io(e) => e.to_string(),
                };
                let mut state = lock_state(&self.state);
                state.stats.rollbacks += 1;
                return Err(RegistryError::PublishRejected {
                    tenant: tenant.to_owned(),
                    reason,
                });
            }
        };
        let committed = ledger.commit_live(tenant, gen);
        lock_state(&self.state).stats.publish_retries += ledger.take_retries();
        committed?;
        drop(ledger);

        let needed = model.bytes().len();
        if needed > self.config.byte_budget {
            return Err(RegistryError::BudgetTooSmall {
                needed,
                budget: self.config.byte_budget,
            });
        }
        let mut state = lock_state(&self.state);
        state.quarantined.remove(tenant);
        state.tick += 1;
        let tick = state.tick;
        state.stats.swaps += 1;
        if let Some(old) = state.resident.remove(tenant) {
            state.resident_bytes -= old.model.bytes().len();
        }
        state.resident_bytes += needed;
        state.resident.insert(
            Arc::from(tenant),
            Resident {
                model,
                last_used: tick,
            },
        );
        Self::evict_to_budget(&mut state, self.config.byte_budget, Some(tenant));
        Ok(gen)
    }

    /// Reverts a tenant to a retained generation: the newest one below
    /// live when `to` is `None`, else exactly generation `to`. The
    /// target must pass full validation; with `to = None` the walk
    /// skips corrupt candidates. Commits the manifest, drops the
    /// resident model (in-flight handles keep the old mapping), and
    /// lifts any quarantine. Returns the now-live generation.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotWriter`] without the writer lock;
    /// [`RegistryError::NoSuchGeneration`] when the target isn't
    /// retained (or nothing older exists); [`RegistryError::Quarantined`]
    /// when an explicit target fails validation.
    pub fn rollback(&self, tenant: &str, to: Option<u64>) -> Result<u64, RegistryError> {
        validate_tenant(tenant)?;
        let mut ledger = lock_ledger(&self.ledger);
        if !ledger.try_acquire_writer()? {
            return Err(RegistryError::NotWriter);
        }
        let _ = ledger.refresh_if_changed();
        if ledger.manifest().tenant(tenant).is_none() {
            return Err(RegistryError::NotFound(tenant.to_owned()));
        }
        let target = match to {
            Some(_) => ledger.rollback_target(tenant, to),
            None => {
                // Walk older generations newest-first until one
                // validates.
                let Some((live, _)) = ledger.live_path(tenant) else {
                    return Err(RegistryError::NotFound(tenant.to_owned()));
                };
                ledger
                    .retained_below(tenant, live)
                    .into_iter()
                    .rev()
                    .find(|&g| Ledger::validate_image(&ledger.gen_path(tenant, g)).is_ok())
            }
        };
        let Some(target) = target else {
            return Err(RegistryError::NoSuchGeneration {
                tenant: tenant.to_owned(),
                generation: to,
            });
        };
        if let Err(reason) = Ledger::validate_image(&ledger.gen_path(tenant, target)) {
            return Err(RegistryError::Quarantined {
                tenant: tenant.to_owned(),
                reason,
            });
        }
        let committed = ledger.commit_live(tenant, target);
        let mut state = lock_state(&self.state);
        state.stats.publish_retries += ledger.take_retries();
        drop(ledger);
        committed?;
        state.stats.rollbacks += 1;
        state.quarantined.remove(tenant);
        if let Some(old) = state.resident.remove(tenant) {
            state.resident_bytes -= old.model.bytes().len();
        }
        Ok(target)
    }

    /// Re-stats the manifest and, when another process changed it,
    /// refreshes the in-memory view: tenants whose live generation
    /// moved are dropped from residency (their next admission maps the
    /// new generation — RCU handle refresh) and un-quarantined.
    /// Returns the refreshed tenants.
    ///
    /// # Errors
    ///
    /// None today (watch failures read as "no change"); the signature
    /// leaves room for stricter modes.
    pub fn refresh(&self) -> Result<Vec<String>, RegistryError> {
        let mut ledger = lock_ledger(&self.ledger);
        let changed = ledger.refresh_if_changed()?;
        if changed.is_empty() {
            return Ok(changed);
        }
        drop(ledger);
        let mut state = lock_state(&self.state);
        for tenant in &changed {
            if let Some(old) = state.resident.remove(tenant.as_str()) {
                state.resident_bytes -= old.model.bytes().len();
            }
            state.quarantined.remove(tenant);
        }
        Ok(changed)
    }

    /// Per-generation history of a tenant (ascending), from the ledger
    /// manifest.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidTenant`] for unsafe names.
    pub fn history(&self, tenant: &str) -> Result<Vec<GenerationRecord>, RegistryError> {
        validate_tenant(tenant)?;
        Ok(lock_ledger(&self.ledger).history(tenant))
    }

    /// Validates every retained generation of every tenant and lists
    /// unreferenced files. Read-only.
    ///
    /// # Errors
    ///
    /// Directory-walk failures.
    pub fn fsck(&self) -> Result<FsckReport, RegistryError> {
        Ok(lock_ledger(&self.ledger).fsck()?)
    }

    /// Removes staging orphans and unreferenced images (writer only).
    /// Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotWriter`] without the writer lock.
    pub fn gc(&self) -> Result<usize, RegistryError> {
        let mut ledger = lock_ledger(&self.ledger);
        if !ledger.try_acquire_writer()? {
            return Err(RegistryError::NotWriter);
        }
        Ok(ledger.gc()?)
    }

    /// Drops a tenant's resident mapping (it remains on disk and
    /// reloadable). Returns whether it was resident. In-flight handles
    /// keep the mapping alive until dropped.
    pub fn evict(&self, tenant: &str) -> bool {
        let mut state = lock_state(&self.state);
        match state.resident.remove(tenant) {
            Some(old) => {
                state.resident_bytes -= old.model.bytes().len();
                state.stats.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Currently quarantined tenants with their validation failures.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        let state = lock_state(&self.state);
        let mut list: Vec<(String, String)> = state
            .quarantined
            .iter()
            .map(|(t, r)| (t.clone(), r.clone()))
            .collect();
        list.sort();
        list
    }

    /// Bytes of model data currently resident (mapped and registry-
    /// referenced; in-flight handles to evicted mappings are excluded,
    /// matching what the LRU controls).
    pub fn resident_bytes(&self) -> usize {
        lock_state(&self.state).resident_bytes
    }

    /// Number of resident tenants.
    pub fn resident_count(&self) -> usize {
        lock_state(&self.state).resident.len()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> RegistryStats {
        lock_state(&self.state).stats
    }

    /// Tenants known to the registry: the union of ledger entries and
    /// legacy flat images on disk, sorted.
    ///
    /// # Errors
    ///
    /// Returns the underlying directory-walk error.
    pub fn tenants(&self) -> Result<Vec<String>, RegistryError> {
        let ledger = lock_ledger(&self.ledger);
        let mut out = ledger.tenants();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(TENANT_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            // `<tenant>.g<N>` or legacy flat `<tenant>`.
            let tenant = match stem.rsplit_once(".g") {
                Some((t, g)) if g.parse::<u64>().is_ok() => t,
                _ => stem,
            };
            if valid_tenant_name(tenant) && !out.iter().any(|t| t == tenant) {
                out.push(tenant.to_owned());
            }
        }
        out.sort();
        Ok(out)
    }

    fn load(&self, path: &Path) -> Result<PackedModel, LoadError> {
        let bytes = match Mapping::map_file(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(LoadError::Missing),
            Err(e) => return Err(LoadError::Io(e)),
        };
        let model = PackedModel::from_mapping(bytes).map_err(|e| invalid(&e))?;
        // Pruned images are keyed by the dimensionality queries arrive
        // at (the parent space), not the compacted support size.
        let parent_dim = model.view().parent_dim();
        if parent_dim != self.config.dim {
            return Err(LoadError::Invalid(format!(
                "model dimensionality {parent_dim} does not match the registry's {}",
                self.config.dim
            )));
        }
        Ok(model)
    }

    /// Evicts least-recently-used residents until the budget holds,
    /// never evicting `keep` (the model just loaded for the caller).
    fn evict_to_budget(state: &mut State, budget: usize, keep: Option<&str>) {
        while state.resident_bytes > budget {
            let victim = state
                .resident
                .iter()
                .filter(|(name, _)| Some(name.as_ref() as &str) != keep)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(name, _)| Arc::clone(name));
            let Some(victim) = victim else {
                break;
            };
            if let Some(old) = state.resident.remove(&victim) {
                state.resident_bytes -= old.model.bytes().len();
                state.stats.evictions += 1;
            }
        }
    }
}

enum LoadError {
    Missing,
    Io(io::Error),
    Invalid(String),
}

fn invalid(e: &ReadModelError) -> LoadError {
    LoadError::Invalid(e.to_string())
}

fn validate_tenant(tenant: &str) -> Result<(), RegistryError> {
    if valid_tenant_name(tenant) {
        Ok(())
    } else {
        Err(RegistryError::InvalidTenant(tenant.to_owned()))
    }
}

fn lock_state(state: &Mutex<State>) -> MutexGuard<'_, State> {
    match state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock_ledger(ledger: &Mutex<Ledger>) -> MutexGuard<'_, Ledger> {
    match ledger.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ledger::FsOp;
    use crate::{BinaryHv, HdcModel, IntHv, QuantizedModel};
    use std::fs::File;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ghdc-registry-{tag}-{}", std::process::id()))
    }

    fn sample_model(dim: usize, seed: u64) -> QuantizedModel {
        let encoded: Vec<IntHv> = (0..4)
            .map(|c| IntHv::from(BinaryHv::random_seeded(dim, seed * 101 + c).unwrap()))
            .collect();
        let model = HdcModel::fit(&encoded, &[0, 1, 2, 3], 4).unwrap();
        QuantizedModel::from_model(&model, 8).unwrap()
    }

    /// The scalar oracle every mapped score is pinned against.
    fn scalar_scores(model: &QuantizedModel, query: &BinaryHv) -> Vec<f64> {
        model.scores(&IntHv::from(query.clone()))
    }

    fn config(dim: usize, budget: usize) -> RegistryConfig {
        RegistryConfig {
            byte_budget: budget,
            dim,
            ..RegistryConfig::default()
        }
    }

    #[test]
    fn publish_get_score_round_trip() {
        let dir = scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let model = sample_model(512, 7);
        registry.publish("acme", &model).unwrap();

        let handle = registry.get("acme").unwrap();
        let query = BinaryHv::random_seeded(512, 99).unwrap();
        let mapped = handle.view().scores(&query).unwrap();
        let scalar = scalar_scores(&model, &query);
        assert_eq!(
            mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "mapped scores must be bit-identical to the scalar oracle"
        );
        assert_eq!(registry.stats().hits + registry.stats().cold_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_tenant_publishes_loads_and_scores_like_the_scalar_oracle() {
        let dir = scratch("pruned");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();

        // Train, prune to a quarter of the dimensions, quantize.
        let encoded: Vec<IntHv> = (0..8)
            .map(|i| IntHv::from(BinaryHv::random_seeded(512, 900 + i).unwrap()))
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i as usize % 4).collect();
        let model = HdcModel::fit(&encoded, &labels, 4).unwrap();
        let sal = crate::saliency(&model, &encoded, &labels).unwrap();
        let mut pruned = crate::prune(&model, &sal, 128).unwrap();
        pruned.recover(&encoded, &labels, 2, 1).unwrap();
        let compressed = crate::CompressedModel::from_pruned(&pruned, 8).unwrap();

        registry.publish_compressed("edge", &compressed).unwrap();
        let handle = registry.get("edge").unwrap();
        assert!(handle.view().is_pruned());
        assert_eq!(handle.view().parent_dim(), 512);
        assert_eq!(handle.view().dim(), 128);

        // Parent-width queries served through the registry must match
        // the scalar pruned oracle (hand-compacted heap model).
        let query = BinaryHv::random_seeded(512, 31).unwrap();
        let mapped = handle.view().scores(&query).unwrap();
        let compact = BinaryHv::from_bits(
            &compressed
                .support()
                .iter()
                .map(|&d| query.bit(d))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let oracle = compressed.quantized().scores(&IntHv::from(compact));
        assert_eq!(
            mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            oracle.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "registry-served pruned scores must be bit-identical to the oracle"
        );

        // A full-support publish to the same registry still works: the
        // dim key is the parent space for both.
        registry.publish("full", &sample_model(512, 8)).unwrap();
        assert!(!registry.get("full").unwrap().view().is_pruned());

        // A compressed model from the wrong parent space is rejected
        // before any byte is written.
        let small: Vec<IntHv> = (0..4)
            .map(|i| IntHv::from(BinaryHv::random_seeded(256, 40 + i).unwrap()))
            .collect();
        let small_labels = vec![0, 1, 0, 1];
        let small_model = HdcModel::fit(&small, &small_labels, 2).unwrap();
        let small_sal = crate::saliency(&small_model, &small, &small_labels).unwrap();
        let small_pruned = crate::prune(&small_model, &small_sal, 64).unwrap();
        let wrong = crate::CompressedModel::from_pruned(&small_pruned, 8).unwrap();
        assert!(matches!(
            registry.publish_compressed("edge", &wrong),
            Err(RegistryError::DimMismatch {
                expected: 512,
                actual: 256
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let dir = scratch("lru");
        let _ = std::fs::remove_dir_all(&dir);
        let model = sample_model(512, 3);
        let mut bytes = Vec::new();
        write_packed(&model, &mut bytes).unwrap();
        // Budget fits exactly two resident models.
        let registry = ModelRegistry::open(&dir, config(512, bytes.len() * 2)).unwrap();
        for tenant in ["t0", "t1", "t2", "t3"] {
            registry.publish(tenant, &model).unwrap();
            assert!(registry.resident_bytes() <= bytes.len() * 2);
        }
        registry.evict("t3");
        registry.evict("t2");
        for tenant in ["t0", "t1", "t2", "t3"] {
            let _ = registry.get(tenant).unwrap();
            assert!(
                registry.resident_bytes() <= bytes.len() * 2,
                "budget must hold after every load"
            );
            assert!(registry.resident_count() <= 2);
        }
        assert!(registry.stats().evictions > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_mapping_survives_until_last_reader_drops() {
        let dir = scratch("rcu");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let model = sample_model(512, 5);
        registry.publish("acme", &model).unwrap();
        let pinned = registry.get("acme").unwrap();
        assert!(registry.evict("acme"));

        // Hot-swap a different model while the old reader is pinned.
        let replacement = sample_model(512, 6);
        registry.publish("acme", &replacement).unwrap();
        let fresh = registry.get("acme").unwrap();

        let query = BinaryHv::random_seeded(512, 17).unwrap();
        let old_scores = pinned.view().scores(&query).unwrap();
        let new_scores = fresh.view().scores(&query).unwrap();
        let old_oracle = scalar_scores(&model, &query);
        let new_oracle = scalar_scores(&replacement, &query);
        assert_eq!(old_scores, old_oracle, "pinned reader sees the old model");
        assert_eq!(new_scores, new_oracle, "fresh reader sees the swap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_live_generation_auto_rolls_back_to_last_good() {
        let dir = scratch("autorollback");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let good = sample_model(512, 31);
        let bad_source = sample_model(512, 32);
        let g1 = registry.publish("acme", &good).unwrap();
        let g2 = registry.publish("acme", &bad_source).unwrap();
        assert_eq!((g1, g2), (1, 2));

        // Corrupt the live (second) generation on disk.
        let path = registry.tenant_path("acme").unwrap();
        assert!(path.to_string_lossy().contains(".g2."), "{path:?}");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        registry.evict("acme");

        // Admission auto-rolls back to generation 1 instead of
        // quarantining.
        let handle = registry.get("acme").unwrap();
        let query = BinaryHv::random_seeded(512, 77).unwrap();
        let served = handle.view().scores(&query).unwrap();
        let oracle = scalar_scores(&good, &query);
        assert_eq!(served, oracle, "prior generation serves bit-identically");
        assert_eq!(registry.stats().rollbacks, 1);
        assert!(registry.quarantined().is_empty());
        assert_eq!(
            registry.history("acme").unwrap().last().map(|r| r.live),
            Some(false)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_with_typed_reasons() {
        let dir = scratch("quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let model = sample_model(512, 11);
        registry.publish("acme", &model).unwrap();

        // Flip one payload byte on disk. With only one generation there
        // is nothing to roll back to, so quarantine must engage.
        let path = registry.tenant_path("acme").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        registry.evict("acme");

        let err = registry.get("acme").unwrap_err();
        assert!(matches!(err, RegistryError::Quarantined { .. }), "{err}");
        // Sticky until cleared or republished.
        let err = registry.get("acme").unwrap_err();
        assert!(matches!(err, RegistryError::Quarantined { .. }));
        assert_eq!(registry.quarantined().len(), 1);

        // Publishing a good model lifts the quarantine.
        registry.publish("acme", &model).unwrap();
        assert!(registry.get("acme").is_ok());
        assert!(registry.quarantined().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_rollback_restores_an_older_generation() {
        let dir = scratch("rollback");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let first = sample_model(512, 41);
        let second = sample_model(512, 42);
        registry.publish("acme", &first).unwrap();
        registry.publish("acme", &second).unwrap();

        let back = registry.rollback("acme", None).unwrap();
        assert_eq!(back, 1);
        let handle = registry.get("acme").unwrap();
        let query = BinaryHv::random_seeded(512, 55).unwrap();
        assert_eq!(
            handle.view().scores(&query).unwrap(),
            scalar_scores(&first, &query),
            "rollback serves the first model"
        );
        assert!(matches!(
            registry.rollback("acme", Some(99)).unwrap_err(),
            RegistryError::NoSuchGeneration { .. }
        ));
        // Roll forward again to the retained generation 2.
        assert_eq!(registry.rollback("acme", Some(2)).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_publish_recovers_to_last_good_and_sweeps_tmp() {
        let dir = scratch("crashpub");
        let _ = std::fs::remove_dir_all(&dir);
        let fs = LedgerFs::new();
        let registry = ModelRegistry::open_with_fs(&dir, config(512, 1 << 20), fs.clone()).unwrap();
        let model = sample_model(512, 61);
        registry.publish("acme", &model).unwrap();

        // Kill the "process" mid-write of the next publish.
        fs.crash_at(FsOp::Write, 1);
        let err = registry
            .publish("acme", &sample_model(512, 62))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Io(_)), "{err}");
        drop(registry);

        // A fresh process recovers: previous generation still live,
        // staging debris swept.
        let recovered = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let handle = recovered.get("acme").unwrap();
        let query = BinaryHv::random_seeded(512, 66).unwrap();
        assert_eq!(
            handle.view().scores(&query).unwrap(),
            scalar_scores(&model, &query),
            "last-good generation survives the crash"
        );
        assert!(!dir.join("acme.g2.ghdc.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_registry_watches_cross_process_publishes() {
        let dir = scratch("coherence");
        let _ = std::fs::remove_dir_all(&dir);
        let writer = ModelRegistry::open(
            &dir,
            RegistryConfig {
                watch_every: 1,
                ..config(512, 1 << 20)
            },
        )
        .unwrap();
        assert!(writer.is_writer());
        let first = sample_model(512, 81);
        writer.publish("acme", &first).unwrap();

        // A second registry over the same dir models a second process:
        // the flock excludes it from writing, the watch keeps it
        // coherent.
        let reader = ModelRegistry::open(
            &dir,
            RegistryConfig {
                watch_every: 1,
                ..config(512, 1 << 20)
            },
        )
        .unwrap();
        assert!(!reader.is_writer());
        assert!(matches!(
            reader.publish("acme", &first).unwrap_err(),
            RegistryError::NotWriter
        ));
        let query = BinaryHv::random_seeded(512, 88).unwrap();
        let seen = reader.get("acme").unwrap().view().scores(&query).unwrap();
        assert_eq!(seen, scalar_scores(&first, &query));

        let second = sample_model(512, 82);
        writer.publish("acme", &second).unwrap();
        // The reader's next admission picks up the new generation.
        let seen = reader.get("acme").unwrap().view().scores(&query).unwrap();
        assert_eq!(
            seen,
            scalar_scores(&second, &query),
            "reader refreshes to the cross-process publish"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_dim_and_missing_and_bad_names_are_typed() {
        let dir = scratch("typed");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        assert!(matches!(
            registry.get("nobody").unwrap_err(),
            RegistryError::NotFound(_)
        ));
        assert!(matches!(
            registry.get("../escape").unwrap_err(),
            RegistryError::InvalidTenant(_)
        ));
        assert!(matches!(
            registry.publish("acme", &sample_model(256, 1)).unwrap_err(),
            RegistryError::DimMismatch {
                expected: 512,
                actual: 256
            }
        ));
        // A file written with the wrong dim quarantines on load.
        let other = sample_model(256, 2);
        let path = registry.tenant_path("alien").unwrap();
        let mut file = File::create(&path).unwrap();
        write_packed(&other, &mut file).unwrap();
        drop(file);
        assert!(matches!(
            registry.get("alien").unwrap_err(),
            RegistryError::Quarantined { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenants_lists_disk_state() {
        let dir = scratch("list");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::open(&dir, config(512, 1 << 20)).unwrap();
        let model = sample_model(512, 21);
        registry.publish("beta", &model).unwrap();
        registry.publish("alpha", &model).unwrap();
        assert_eq!(registry.tenants().unwrap(), vec!["alpha", "beta"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
