//! Sharded serving runtime: N panic-isolated, self-supervising worker
//! shards scoring RCU [`ModelSnapshot`]s, and one writer shard applying
//! online updates. Each worker thread restarts its own serving loop
//! after a panic, with exponential backoff behind a restart-budget
//! circuit breaker. Each worker serves its micro-batches through its
//! own copy of the one Infer scoring routine that
//! [`OnlineRuntime::infer`] also uses (check each row, encode, pick a
//! ladder tier, score in one zero-allocation batched pass or against a
//! tenant's mapped view); the worker itself only queues, holds its
//! batch for crash recovery, publishes its floor-latency estimate and
//! replies.
//!
//! ```text
//!                      ┌────────────────────────────────────────────┐
//!   submit() ───────►  │  per-shard bounded queues (backpressure +  │
//!   (admission:        │  deadline-aware shedding at admission)     │
//!    shortest queue)   └───────┬──────────┬──────────┬──────────────┘
//!                              │          │◄──steal──│  own pop,
//!                        ┌─────▼───┐ ┌────▼────┐ ┌───▼─────┐ steal when idle
//!                        │ worker 0│ │ worker 1│ │ worker N│  catch_unwind:
//!                        │ scoring │ │ scoring │ │ scoring │  requeue own
//!                        │ routine │ │ routine │ │ routine │  batch, back off,
//!                        └─────┬───┘ └────┬────┘ └───┬─────┘  re-enter
//!                              │ SnapshotCell::load  │
//!                      ┌───────▼──────────▼──────────▼──────┐
//!                      │   RCU ModelSnapshot (versioned)    │◄── publish
//!                      └────────────────────────────────────┘      │
//!   submit_learn() ──► bounded learn queue ──► writer shard ── OnlineRuntime
//!                      (MPSC, backpressure)    (checkpoints, retrains,
//!                                               rollbacks, dead letters)
//! ```
//!
//! **Failure containment.** Each worker thread runs its serving loop
//! inside [`catch_unwind`](std::panic::catch_unwind) and supervises
//! itself: on a panic it requeues the batch it held at the *front* of
//! its own queue (so crashed-over requests keep their place), backs off
//! exponentially and re-enters the loop. A shard that exhausts its
//! restart budget trips its circuit breaker and exits; the last circuit
//! to open closes the queues and cancels the work still queued, and
//! admission then fails fast with [`SubmitError::Unavailable`] instead
//! of queueing for a fleet that cannot answer.
//!
//! **Work distribution.** Each worker owns a bounded queue; admission
//! routes every request to the currently-shortest queue (round-robin on
//! ties) and a worker whose own queue runs dry *steals* from its
//! siblings, so one slow shard — or one unlucky burst — cannot strand
//! queued work behind it. Steals are counted in
//! [`RuntimeStats::steals`].
//!
//! **Overload protection.** The work queues are bounded: when every
//! queue is full the request is rejected at submission
//! ([`SubmitError::QueueFull`]) rather than buffered without limit.
//! Deadline-aware admission consults the
//! narrowest ladder tier's live latency estimate — a request whose
//! budget cannot be met even degraded, accounting for the queue ahead
//! of it, is shed with [`SubmitError::DeadlineHopeless`]. Requests that
//! *are* admitted degrade through the sub-norm reduction tiers first
//! (each worker's degradation ladder picks the widest tier fitting the
//! tightest remaining budget of its batch) before any answer is late.
//!
//! **Durability.** The writer shard owns the [`OnlineRuntime`]:
//! checkpoint writes retry with capped jittered backoff
//! ([`RetryPolicy`](crate::runtime::RetryPolicy)), and when a write
//! fails even after retries the fleet keeps serving from the last good
//! published snapshot (degraded-mode serving). [`Server::drain`]
//! flushes remaining work, writes a final checkpoint, and exports the
//! quarantine buffer.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::{ModelRegistry, TenantHandle};
use crate::runtime::{
    check_row, DeadLetter, InferRow, ModelSnapshot, OnlineRuntime, RejectReason, RuntimeError,
    RuntimeStats, Scorer, SnapshotCell,
};

/// How long a parked worker or the writer waits for work before looking
/// again (a worker then tries to steal and checks its chaos stall).
const IDLE_TICK: Duration = Duration::from_millis(5);

/// Recovers a poisoned mutex: every structure guarded here is updated
/// atomically from the guard's perspective (no multi-step invariants),
/// so the value inside a poisoned lock is always usable.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Bounded queue
// ---------------------------------------------------------------------------

/// Result of a blocking pop on a [`BoundedQueue`].
enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The wait timed out with the queue still open.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

/// Why a push was refused.
enum PushRefused<T> {
    /// The queue is at capacity (backpressure).
    Full(T),
    /// The queue is closed to new work.
    Closed(T),
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue (mutex + condvar) with explicit backpressure:
/// pushes never block — a full queue refuses the item so admission
/// control can reject with a reason instead of buffering unboundedly.
/// Closing wakes all waiters; pops keep draining remaining items after
/// close and only report [`Pop::Closed`] once empty.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).items.len()
    }

    /// Closed to new work *and* fully drained — nothing will ever come
    /// out of this queue again (modulo forced requeues).
    fn closed_and_empty(&self) -> bool {
        let inner = lock_unpoisoned(&self.inner);
        inner.closed && inner.items.is_empty()
    }

    /// Appends unless full or closed; never blocks.
    fn try_push(&self, item: T) -> Result<(), PushRefused<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.closed {
            return Err(PushRefused::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushRefused::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Requeues a crashed-over item at the *front*, ignoring capacity
    /// and the closed flag: recovered in-flight work must never be
    /// dropped by the very mechanism meant to save it.
    fn push_front_forced(&self, item: T) {
        lock_unpoisoned(&self.inner).items.push_front(item);
        self.not_empty.notify_one();
    }

    /// Blocks up to `timeout` for one item.
    fn pop(&self, timeout: Duration) -> Pop<T> {
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            let (guard, result) = match self.not_empty.wait_timeout(inner, timeout) {
                Ok((g, r)) => (g, r),
                Err(poisoned) => {
                    let (g, r) = poisoned.into_inner();
                    (g, r)
                }
            };
            inner = guard;
            if result.timed_out() {
                return match inner.items.pop_front() {
                    Some(item) => Pop::Item(item),
                    None if inner.closed => Pop::Closed,
                    None => Pop::TimedOut,
                };
            }
        }
    }

    /// Dequeues without blocking.
    fn try_pop(&self) -> Option<T> {
        lock_unpoisoned(&self.inner).items.pop_front()
    }

    /// Closes the queue to new pushes and wakes every waiter.
    fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything queued (used by drain to cancel
    /// work no shard will ever pop).
    fn drain_all(&self) -> Vec<T> {
        lock_unpoisoned(&self.inner).items.drain(..).collect()
    }
}

// ---------------------------------------------------------------------------
// Sharded work queues with stealing
// ---------------------------------------------------------------------------

/// Per-shard bounded queues: admission routes to the shortest queue
/// (round-robin tie-break), each worker pops its own queue, and an idle
/// worker steals from its siblings. Total capacity is split evenly, so
/// backpressure semantics match the old single MPMC queue.
struct ShardedQueue<T> {
    queues: Vec<BoundedQueue<T>>,
    /// Round-robin cursor breaking admission ties between equally-short
    /// queues so single-length bursts still spread across shards.
    next: AtomicUsize,
}

impl<T> ShardedQueue<T> {
    fn new(shards: usize, total_capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedQueue {
            queues: (0..shards).map(|_| BoundedQueue::new(per_shard)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Total queued across every shard.
    fn len(&self) -> usize {
        self.queues.iter().map(BoundedQueue::len).sum()
    }

    /// Routes one request to the shortest queue (ties broken by a
    /// rotating cursor); falls through to the remaining queues if the
    /// chosen one refuses. `Full` is only reported once *every* queue
    /// is full; a single closed queue among open ones behaves as full.
    fn admit(&self, item: T) -> Result<(), PushRefused<T>> {
        let n = self.queues.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut target = start;
        let mut shortest = usize::MAX;
        for offset in 0..n {
            let idx = (start + offset) % n;
            let len = self.queues[idx].len();
            if len < shortest {
                shortest = len;
                target = idx;
            }
        }
        let mut item = item;
        let mut any_open = false;
        for offset in 0..n {
            let idx = (target + offset) % n;
            match self.queues[idx].try_push(item) {
                Ok(()) => return Ok(()),
                Err(PushRefused::Full(returned)) => {
                    any_open = true;
                    item = returned;
                }
                Err(PushRefused::Closed(returned)) => item = returned,
            }
        }
        if any_open {
            Err(PushRefused::Full(item))
        } else {
            Err(PushRefused::Closed(item))
        }
    }

    /// Forces a recovered in-flight item back to the front of `shard`'s
    /// own queue (capacity- and close-exempt, like the underlying
    /// queue's forced push — siblings can still steal it).
    fn push_front_forced(&self, shard: usize, item: T) {
        self.queues[shard % self.queues.len()].push_front_forced(item);
    }

    /// Blocking pop from the worker's own queue.
    fn pop_own(&self, shard: usize, timeout: Duration) -> Pop<T> {
        self.queues[shard % self.queues.len()].pop(timeout)
    }

    /// Non-blocking pop from the worker's own queue.
    fn try_pop_own(&self, shard: usize) -> Option<T> {
        self.queues[shard % self.queues.len()].try_pop()
    }

    /// Steals one queued request from the first non-empty sibling,
    /// scanning from the thief's right-hand neighbour.
    fn steal(&self, thief: usize) -> Option<T> {
        let n = self.queues.len();
        for offset in 1..n {
            if let Some(item) = self.queues[(thief + offset) % n].try_pop() {
                return Some(item);
            }
        }
        None
    }

    /// Every queue closed and drained: the fleet can exit.
    fn all_closed_and_empty(&self) -> bool {
        self.queues.iter().all(BoundedQueue::closed_and_empty)
    }

    /// Closes every queue to new pushes and wakes all waiters.
    fn close_all(&self) {
        for queue in &self.queues {
            queue.close();
        }
    }

    /// Removes and returns everything still queued anywhere.
    fn drain_all(&self) -> Vec<T> {
        self.queues
            .iter()
            .flat_map(BoundedQueue::drain_all)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Public request/answer types
// ---------------------------------------------------------------------------

/// Tunables of the sharded serving runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker shards scoring concurrently (≥ 1).
    pub shards: usize,
    /// Total bounded work-queue capacity, split evenly across the
    /// per-shard queues; when every queue is full, admission rejects.
    pub queue_depth: usize,
    /// Bounded learn-queue capacity feeding the writer shard.
    pub learn_queue_depth: usize,
    /// Largest micro-batch a worker coalesces per scoring pass.
    pub batch_max: usize,
    /// Restarts each shard may consume before its circuit breaker
    /// opens and it stays down.
    pub restart_budget: u32,
    /// Base restart backoff; doubles per consecutive restart of the
    /// same shard.
    pub restart_backoff: Duration,
    /// Cap on the exponential restart backoff.
    pub restart_backoff_max: Duration,
    /// Writer publishes a fresh snapshot every this many applied
    /// samples, in addition to the durability boundaries the
    /// [`OnlineRuntime`] already publishes at (0 = boundaries only).
    pub publish_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            queue_depth: 1024,
            learn_queue_depth: 256,
            batch_max: 16,
            restart_budget: 8,
            restart_backoff: Duration::from_millis(5),
            restart_backoff_max: Duration::from_millis(200),
            publish_every: 64,
        }
    }
}

/// Why admission control refused a request synchronously.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The bounded work queue is at capacity (backpressure).
    QueueFull,
    /// Even the narrowest degradation tier cannot meet the request's
    /// budget given the queue ahead of it; shed instead of answering
    /// hopelessly late.
    DeadlineHopeless {
        /// The budget that could not be met.
        budget: Duration,
    },
    /// The request has the wrong width or a non-finite feature.
    Rejected(RejectReason),
    /// Every worker shard is circuit-broken; nothing could answer.
    Unavailable,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// A tenant-routed request could not be pinned to a mapped model:
    /// no registry is configured, the tenant is unknown/quarantined, or
    /// its model failed validation. Carries the registry's reason.
    TenantUnavailable {
        /// The tenant that could not be served.
        tenant: String,
        /// Why the registry refused it.
        reason: String,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "work queue full (backpressure)"),
            SubmitError::DeadlineHopeless { budget } => {
                write!(f, "budget {budget:?} unmeetable even at the narrowest tier")
            }
            SubmitError::Rejected(reason) => write!(f, "rejected: {reason}"),
            SubmitError::Unavailable => write!(f, "no live worker shards"),
            SubmitError::ShuttingDown => write!(f, "server is draining"),
            SubmitError::TenantUnavailable { tenant, reason } => {
                write!(f, "tenant `{tenant}` unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *admitted* request still came back without an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A worker rejected the row while scoring it.
    Rejected(RejectReason),
    /// The server drained (or every shard died) before the request was
    /// scored.
    Canceled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ServeError::Canceled => write!(f, "canceled before scoring"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered request.
#[derive(Debug, Clone)]
pub struct ServeAnswer {
    /// Predicted class.
    pub label: usize,
    /// Dimensions actually scored.
    pub dims_used: usize,
    /// Ladder tier that served the batch.
    pub tier: usize,
    /// Served below full dimensionality.
    pub degraded: bool,
    /// Time from submission to answer (queueing + scoring).
    pub elapsed: Duration,
    /// Whether the answer landed within the request's budget (always
    /// true without one).
    pub deadline_met: bool,
    /// Worker shard that scored the request.
    pub shard: usize,
    /// The exact immutable snapshot scored against — lets an auditor
    /// replay the request through the scalar oracle and demand
    /// bit-identity.
    pub snapshot: Arc<ModelSnapshot>,
    /// For tenant-routed requests: the exact mapped model scored
    /// against, pinned for the same replay-and-audit purpose (the
    /// mapping cannot be retired while this answer is held). `None`
    /// for requests served by the writer-owned snapshot above.
    pub tenant: Option<TenantHandle>,
}

/// A pending answer; redeem with [`wait`](Ticket::wait).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeAnswer, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is answered, rejected, or canceled.
    pub fn wait(self) -> Result<ServeAnswer, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Canceled),
        }
    }

    /// Like [`wait`](Ticket::wait) but gives up after `timeout`
    /// (returning [`ServeError::Canceled`]).
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeAnswer, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(ServeError::Canceled),
        }
    }
}

struct Request {
    features: Vec<f64>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// Pinned at admission: tenant-routed requests score against this
    /// mapped model (the exact version resolved when the request was
    /// admitted) instead of the writer's snapshot.
    tenant: Option<TenantHandle>,
    reply: mpsc::SyncSender<Result<ServeAnswer, ServeError>>,
}

impl InferRow for Request {
    fn features(&self) -> &[f64] {
        &self.features
    }

    fn tenant(&self) -> Option<&TenantHandle> {
        self.tenant.as_ref()
    }
}

struct LearnRequest {
    features: Vec<f64>,
    label: usize,
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Atomic supervision/admission counters, readable live.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_unavailable: AtomicU64,
    rejected_shutting_down: AtomicU64,
    canceled: AtomicU64,
    requeued: AtomicU64,
    shard_panics: AtomicU64,
    shard_restarts: AtomicU64,
    circuit_opens: AtomicU64,
    learn_submitted: AtomicU64,
    learn_rejected: AtomicU64,
    writer_stalls: AtomicU64,
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to [`ServerHandle::submit`].
    pub submitted: u64,
    /// Requests admitted into the work queue.
    pub admitted: u64,
    /// Rejected: bounded queue at capacity (backpressure).
    pub rejected_queue_full: u64,
    /// Shed: budget unmeetable even fully degraded.
    pub rejected_deadline: u64,
    /// Rejected synchronously: wrong width or a non-finite feature.
    pub rejected_malformed: u64,
    /// Rejected: all worker shards circuit-broken.
    pub rejected_unavailable: u64,
    /// Rejected: server draining.
    pub rejected_shutting_down: u64,
    /// Admitted requests canceled by drain/shard death before scoring.
    pub canceled: u64,
    /// In-flight requests recovered from panicking shards and requeued.
    pub requeued: u64,
    /// Worker panics caught by the panicking worker itself.
    pub shard_panics: u64,
    /// Worker restarts performed.
    pub shard_restarts: u64,
    /// Shards whose restart budget was exhausted (circuit opened).
    pub circuit_opens: u64,
    /// Labeled samples offered to [`ServerHandle::submit_learn`].
    pub learn_submitted: u64,
    /// Labeled samples refused by learn-queue backpressure.
    pub learn_rejected: u64,
    /// Chaos writer stalls honoured.
    pub writer_stalls: u64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            rejected_unavailable: self.rejected_unavailable.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            canceled: self.canceled.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
            shard_panics: self.shard_panics.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            circuit_opens: self.circuit_opens.load(Ordering::Relaxed),
            learn_submitted: self.learn_submitted.load(Ordering::Relaxed),
            learn_rejected: self.learn_rejected.load(Ordering::Relaxed),
            writer_stalls: self.writer_stalls.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

struct Shared {
    work: ShardedQueue<Request>,
    learn: BoundedQueue<LearnRequest>,
    snapshots: Arc<SnapshotCell>,
    counters: Counters,
    /// Worker-side [`RuntimeStats`] deltas, merged per batch — the
    /// shard-aggregatable counters of the whole reader fleet.
    worker_stats: Mutex<RuntimeStats>,
    /// Live EWMA estimate (ns/row) of the narrowest ladder tier,
    /// published by workers for deadline-aware admission (0 = unknown).
    floor_ns: AtomicU64,
    /// Worker shards not permanently circuit-broken.
    live_shards: AtomicUsize,
    /// Set once drain begins: admission refuses new work.
    draining: AtomicBool,
    /// Expected feature width, checked synchronously at admission.
    n_features: usize,
    /// Multi-tenant model registry for tenant-routed requests
    /// ([`ServerHandle::submit_tenant`]); `None` = single-tenant server.
    registry: Option<Arc<ModelRegistry>>,
    config: ServeConfig,
    /// Chaos: arm to make shard *i* panic mid-batch (after it has
    /// gathered its batch, before scoring).
    kill_flags: Vec<AtomicBool>,
    /// Chaos: nanoseconds the writer sleeps before its next apply.
    stall_ns: AtomicU64,
    /// Chaos: nanoseconds worker *i* sleeps before its next pop —
    /// leaves its queue backed up so siblings demonstrably steal.
    shard_stall_ns: Vec<AtomicU64>,
}

// ---------------------------------------------------------------------------
// Worker shard
// ---------------------------------------------------------------------------

/// One worker thread, supervising itself: it serves batches until the
/// queues close, and a panic anywhere in a pass requeues the batch that
/// pass held (at the *front* of this shard's queue, so crashed-over
/// requests keep their place), backs off exponentially and re-enters —
/// until the restart budget is spent and the shard's circuit opens.
fn worker_thread(shard: usize, shared: &Shared) {
    // Owned by the thread, so it outlives an unwinding pass; every
    // batch reuses its buffer.
    let mut batch = Vec::new();
    let mut restarts = 0u32;
    while catch_unwind(AssertUnwindSafe(|| worker_shard(shard, shared, &mut batch))).is_err() {
        shared.counters.shard_panics.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .requeued
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for request in batch.drain(..).rev() {
            shared.work.push_front_forced(shard, request);
        }
        if restarts >= shared.config.restart_budget {
            open_circuit(shared);
            return;
        }
        restarts += 1;
        let backoff = shared
            .config
            .restart_backoff
            .saturating_mul(1u32 << (restarts - 1).min(16))
            .min(shared.config.restart_backoff_max);
        std::thread::sleep(backoff);
        shared
            .counters
            .shard_restarts
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Takes a shard out of service for good. The last circuit to open
/// closes the queues and cancels everything still queued: no shard will
/// ever pop again, so clients fail fast (their reply senders drop →
/// [`ServeError::Canceled`]) instead of waiting on a fleet that cannot
/// answer.
fn open_circuit(shared: &Shared) {
    shared
        .counters
        .circuit_opens
        .fetch_add(1, Ordering::Relaxed);
    if shared.live_shards.fetch_sub(1, Ordering::Relaxed) == 1 {
        shared.work.close_all();
        let orphaned = shared.work.drain_all();
        shared
            .counters
            .canceled
            .fetch_add(orphaned.len() as u64, Ordering::Relaxed);
    }
}

/// Serves batches until the queues close and drain. `batch` is the
/// caller's crash-recovery buffer: every batch is gathered into it, so
/// whatever a panic interrupts is still there for the caller to requeue.
fn worker_shard(shard: usize, shared: &Shared, batch: &mut Vec<Request>) {
    let dim = shared.snapshots.load().pipeline().model().dim();
    let Ok(mut scorer) = Scorer::new(dim) else {
        // Impossible for a trained model (dim ≥ 1); exiting cleanly
        // beats poisoning the fleet.
        return;
    };
    let mut locals = RuntimeStats::default();

    loop {
        // Chaos: an armed stall sleeps *before* popping, leaving this
        // shard's queue backed up so siblings demonstrably steal it.
        let stall = shared.shard_stall_ns[shard].swap(0, Ordering::Relaxed);
        if stall > 0 {
            std::thread::sleep(Duration::from_nanos(stall));
        }
        // Coalesce a micro-batch: block on the own queue for the first
        // request (stealing from siblings when it runs dry), then drain
        // greedily up to batch_max — own queue first, then steals.
        let mut stolen = 0u64;
        let first = match shared.work.pop_own(shard, IDLE_TICK) {
            Pop::Item(request) => request,
            Pop::TimedOut => match shared.work.steal(shard) {
                Some(request) => {
                    stolen += 1;
                    request
                }
                None => continue,
            },
            Pop::Closed => match shared.work.steal(shard) {
                Some(request) => {
                    stolen += 1;
                    request
                }
                None if shared.work.all_closed_and_empty() => break,
                // A sibling's queue re-filled (forced requeue) or holds
                // items a racing steal just missed; try again shortly.
                None => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            },
        };
        batch.push(first);
        while batch.len() < shared.config.batch_max {
            match shared.work.try_pop_own(shard) {
                Some(request) => batch.push(request),
                None => match shared.work.steal(shard) {
                    Some(request) => {
                        stolen += 1;
                        batch.push(request);
                    }
                    None => break,
                },
            }
        }
        locals.steals += stolen;
        if shared.kill_flags[shard].swap(false, Ordering::Relaxed) {
            panic!("chaos: shard {shard} killed mid-batch");
        }

        // One tier for the whole batch, chosen from the tightest
        // remaining budget (degrade before missing deadlines). Workers
        // check width and finiteness only: range checks stay
        // writer-side, where the trained spans live.
        let now = Instant::now();
        let tightest_ns = batch
            .iter()
            .filter_map(|r| r.deadline)
            .map(|d| u64::try_from(d.saturating_duration_since(now).as_nanos()).unwrap_or(u64::MAX))
            .min();
        let snapshot = shared.snapshots.load();
        let fed = scorer.serve(
            snapshot.pipeline(),
            batch,
            tightest_ns,
            f64::INFINITY,
            &mut locals,
        );
        if fed {
            if let Some(floor) = scorer.ladder().estimate_ns(0) {
                shared
                    .floor_ns
                    .store(floor.max(0.0) as u64, Ordering::Relaxed);
            }
        }

        // Scoring is done: answer, emptying the buffer as we go. (A
        // panic here drops the remaining reply senders, surfacing as
        // Canceled — never a double answer.)
        for (request, verdict) in batch.drain(..).zip(scorer.drain_verdicts()) {
            let reply = match verdict {
                Ok(scored) => {
                    let answered_at = Instant::now();
                    let deadline_met = request.deadline.is_none_or(|d| answered_at <= d);
                    if !deadline_met {
                        locals.deadline_misses += 1;
                    }
                    Ok(ServeAnswer {
                        label: scored.label,
                        dims_used: scored.dims_used,
                        tier: scored.tier,
                        degraded: scored.degraded,
                        elapsed: answered_at.duration_since(request.submitted),
                        deadline_met,
                        shard,
                        snapshot: Arc::clone(&snapshot),
                        tenant: request.tenant,
                    })
                }
                Err(RuntimeError::Rejected(reason)) => Err(ServeError::Rejected(reason)),
                // Unreachable for checked input and registry-validated
                // models; answer with a cancellation, not a made-up reason.
                Err(_) => Err(ServeError::Canceled),
            };
            let _ = request.reply.try_send(reply);
        }

        // Publish this batch's stats delta while it is still small —
        // a later crash loses at most one batch of counters.
        lock_unpoisoned(&shared.worker_stats).merge(&locals);
        locals = RuntimeStats::default();
    }
    lock_unpoisoned(&shared.worker_stats).merge(&locals);
}

// ---------------------------------------------------------------------------
// Writer shard
// ---------------------------------------------------------------------------

/// Applies labeled samples until the learn queue closes, then hands its
/// runtime back through the thread's join handle.
fn writer_shard(shared: &Shared, mut runtime: OnlineRuntime) -> OnlineRuntime {
    let mut since_publish = 0u64;
    loop {
        let request = match shared.learn.pop(IDLE_TICK) {
            Pop::Item(request) => request,
            Pop::TimedOut => continue,
            Pop::Closed => return runtime,
        };
        let stall = shared.stall_ns.swap(0, Ordering::Relaxed);
        if stall > 0 {
            shared
                .counters
                .writer_stalls
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_nanos(stall));
        }
        // Quarantine and checkpoint failures are both absorbed by the
        // runtime (counted, never fatal); a panic from a genuine bug is
        // contained so one poisoned sample cannot kill the writer.
        let applied = catch_unwind(AssertUnwindSafe(|| {
            runtime.learn(&request.features, request.label).is_ok()
        }))
        .unwrap_or(false);
        if applied {
            since_publish += 1;
            if shared.config.publish_every > 0 && since_publish >= shared.config.publish_every {
                runtime.publish_snapshot();
                since_publish = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The running sharded server. Submit through [`handle`](Server::handle)
/// clones; shut down with [`drain`](Server::drain).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    writer: JoinHandle<OnlineRuntime>,
}

/// A cloneable submission handle.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

/// Everything the server accounted for, returned by [`Server::drain`].
#[derive(Debug)]
pub struct DrainReport {
    /// Admission/supervision counters.
    pub serve: ServeStats,
    /// Aggregated worker-shard counters (merged-on-drain
    /// [`RuntimeStats`]; inference-side fields only).
    pub workers: RuntimeStats,
    /// The writer runtime's counters (learning, checkpoints, retries).
    pub writer: RuntimeStats,
    /// Newest durable checkpoint generation.
    pub generation: u64,
    /// Labeled samples folded into the final model.
    pub seen: u64,
    /// The quarantine buffer at drain, oldest first — export with
    /// [`write_dead_letters_csv`](crate::runtime::write_dead_letters_csv).
    pub dead_letters: Vec<DeadLetter>,
    /// Whether the final checkpoint landed durably.
    pub final_checkpoint_ok: bool,
}

impl Server {
    /// Starts the fleet: `config.shards` self-supervising workers and
    /// one writer owning `runtime`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or if a thread
    /// cannot be spawned.
    pub fn start(runtime: OnlineRuntime, config: ServeConfig) -> Result<Server, RuntimeError> {
        Server::start_with_registry(runtime, config, None)
    }

    /// Like [`Server::start`], with an optional multi-tenant
    /// [`ModelRegistry`]: tenant-routed requests
    /// ([`ServerHandle::submit_tenant`]) are pinned to their tenant's
    /// mapped model at admission and scored zero-copy by the worker
    /// shards. The registry's dimensionality must match the runtime's
    /// encoder.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration, a registry whose
    /// dimensionality disagrees with the runtime's, or if a thread
    /// cannot be spawned.
    pub fn start_with_registry(
        runtime: OnlineRuntime,
        config: ServeConfig,
        registry: Option<Arc<ModelRegistry>>,
    ) -> Result<Server, RuntimeError> {
        if let Some(registry) = &registry {
            let dim = runtime.pipeline().model().dim();
            if registry.config().dim != dim {
                return Err(RuntimeError::Model(crate::HdcError::invalid(
                    "registry",
                    "registry dimensionality must match the serving encoder",
                )));
            }
        }
        if config.shards == 0 {
            return Err(RuntimeError::Model(crate::HdcError::invalid(
                "shards",
                "need at least one worker shard",
            )));
        }
        if config.batch_max == 0 {
            return Err(RuntimeError::Model(crate::HdcError::invalid(
                "batch_max",
                "micro-batches need room for at least one row",
            )));
        }
        let snapshots = runtime.snapshots();
        let n_features = runtime.pipeline().encoder().spec().n_features();
        let shared = Arc::new(Shared {
            work: ShardedQueue::new(config.shards, config.queue_depth),
            learn: BoundedQueue::new(config.learn_queue_depth),
            snapshots,
            counters: Counters::default(),
            worker_stats: Mutex::new(RuntimeStats::default()),
            floor_ns: AtomicU64::new(0),
            live_shards: AtomicUsize::new(config.shards),
            draining: AtomicBool::new(false),
            n_features,
            registry,
            config,
            kill_flags: (0..config.shards).map(|_| AtomicBool::new(false)).collect(),
            stall_ns: AtomicU64::new(0),
            shard_stall_ns: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
        });

        let workers = (0..config.shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("generic-serve-worker-{shard}"))
                    .spawn(move || worker_thread(shard, &shared))
            })
            .collect::<Result<_, _>>()
            .map_err(RuntimeError::Io)?;
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("generic-serve-writer".into())
                .spawn(move || writer_shard(&shared, runtime))
                .map_err(RuntimeError::Io)?
        };
        Ok(Server {
            shared,
            workers,
            writer,
        })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: stop admitting, let workers flush their
    /// micro-batches and the queue, write a final checkpoint, and
    /// export the quarantine buffer.
    ///
    /// # Errors
    ///
    /// Returns an error only when a worker or the writer thread
    /// panicked outside its own containment; checkpoint failure is
    /// reported in the drain report, not as an error.
    pub fn drain(self) -> Result<DrainReport, RuntimeError> {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.work.close_all();
        for worker in self.workers {
            worker
                .join()
                .map_err(|_| RuntimeError::Io(std::io::Error::other("worker panicked")))?;
        }
        self.shared.learn.close();
        let mut runtime = self
            .writer
            .join()
            .map_err(|_| RuntimeError::Io(std::io::Error::other("writer panicked")))?;

        // Anything still queued has no consumer left; cancel it.
        let orphaned = self.shared.work.drain_all();
        self.shared
            .counters
            .canceled
            .fetch_add(orphaned.len() as u64, Ordering::Relaxed);
        drop(orphaned);

        let final_checkpoint_ok = runtime.checkpoint().is_ok();
        Ok(DrainReport {
            serve: self.shared.counters.snapshot(),
            workers: *lock_unpoisoned(&self.shared.worker_stats),
            writer: *runtime.stats(),
            generation: runtime.generation(),
            seen: runtime.seen(),
            dead_letters: runtime.dead_letters().cloned().collect(),
            final_checkpoint_ok,
        })
    }
}

impl ServerHandle {
    /// Offers one inference request under an optional latency budget.
    /// Admission control answers synchronously: malformed input,
    /// backpressure, hopeless deadlines, outage, and drain are all
    /// rejected here with a reason; an admitted request yields a
    /// [`Ticket`].
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(
        &self,
        features: Vec<f64>,
        budget: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        self.admit(features, budget, None)
    }

    /// Offers one inference request routed to `tenant`'s model in the
    /// server's [`ModelRegistry`]. The tenant's mapped model is
    /// resolved (cold-loading if necessary) and pinned *at admission*,
    /// so a hot-swap between admission and scoring cannot tear the
    /// request across versions.
    ///
    /// # Errors
    ///
    /// All of [`submit`](ServerHandle::submit)'s errors, plus
    /// [`SubmitError::TenantUnavailable`] when no registry is
    /// configured or the registry refuses the tenant (unknown,
    /// quarantined, over budget).
    pub fn submit_tenant(
        &self,
        tenant: &str,
        features: Vec<f64>,
        budget: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let Some(registry) = &self.shared.registry else {
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .rejected_malformed
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::TenantUnavailable {
                tenant: tenant.to_owned(),
                reason: "server started without a model registry".to_owned(),
            });
        };
        let handle = match registry.get(tenant) {
            Ok(handle) => handle,
            Err(e) => {
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .counters
                    .rejected_malformed
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::TenantUnavailable {
                    tenant: tenant.to_owned(),
                    reason: e.to_string(),
                });
            }
        };
        self.admit(features, budget, Some(handle))
    }

    fn admit(
        &self,
        features: Vec<f64>,
        budget: Option<Duration>,
        tenant: Option<TenantHandle>,
    ) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if shared.draining.load(Ordering::Relaxed) {
            shared
                .counters
                .rejected_shutting_down
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        let live = shared.live_shards.load(Ordering::Relaxed);
        if live == 0 {
            shared
                .counters
                .rejected_unavailable
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Unavailable);
        }
        if let Err(reason) = check_row(&features, shared.n_features) {
            shared
                .counters
                .rejected_malformed
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Rejected(reason));
        }

        // Deadline-aware shedding: even the narrowest tier, behind the
        // queue already ahead of us, must fit the budget.
        if let Some(budget) = budget {
            let floor = shared.floor_ns.load(Ordering::Relaxed);
            if floor > 0 {
                let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
                let depth = shared.work.len() as u64;
                let expected = floor.saturating_mul(1 + depth / live as u64);
                if expected > budget_ns {
                    shared
                        .counters
                        .rejected_deadline
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::DeadlineHopeless { budget });
                }
            }
        }

        let submitted = Instant::now();
        let (reply, rx) = mpsc::sync_channel(1);
        let request = Request {
            features,
            submitted,
            deadline: budget.map(|b| submitted + b),
            tenant,
            reply,
        };
        match shared.work.admit(request) {
            Ok(()) => {
                shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { rx })
            }
            Err(PushRefused::Full(_)) => {
                shared
                    .counters
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(PushRefused::Closed(_)) => {
                shared
                    .counters
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Offers one labeled sample to the writer shard (fire-and-forget;
    /// quarantine decisions surface in the drain report).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under writer backpressure,
    /// [`SubmitError::ShuttingDown`] once draining.
    pub fn submit_learn(&self, features: Vec<f64>, label: usize) -> Result<(), SubmitError> {
        let shared = &self.shared;
        shared
            .counters
            .learn_submitted
            .fetch_add(1, Ordering::Relaxed);
        if shared.draining.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
        match shared.learn.try_push(LearnRequest { features, label }) {
            Ok(()) => Ok(()),
            Err(PushRefused::Full(_)) => {
                shared
                    .counters
                    .learn_rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(PushRefused::Closed(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Live admission/supervision counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// Worker shards not circuit-broken.
    pub fn live_shards(&self) -> usize {
        self.shared.live_shards.load(Ordering::Relaxed)
    }

    /// Current total work-queue depth across every shard (for tests
    /// and load generators).
    pub fn queue_depth(&self) -> usize {
        self.shared.work.len()
    }

    /// The RCU snapshot cell workers serve from.
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.shared.snapshots)
    }

    /// Chaos hook: the next batch shard `i` picks up panics mid-batch
    /// (after the batch is gathered, before scoring) — the worst-case
    /// kill the worker's own recovery must survive.
    pub fn chaos_kill_shard(&self, shard: usize) {
        if let Some(flag) = self.shared.kill_flags.get(shard) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Chaos hook: worker `shard` sleeps `stall` before its next pop,
    /// leaving its own queue backed up — the deterministic way to make
    /// siblings steal (observable as [`RuntimeStats::steals`]).
    pub fn chaos_stall_shard(&self, shard: usize, stall: Duration) {
        if let Some(slot) = self.shared.shard_stall_ns.get(shard) {
            slot.store(
                u64::try_from(stall.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
    }

    /// Chaos hook: the writer sleeps `stall` before applying its next
    /// sample, backing the learn queue up against its bound.
    pub fn chaos_stall_writer(&self, stall: Duration) {
        self.shared.stall_ns.store(
            u64::try_from(stall.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_backpressure_and_fifo() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        q.try_push(1).map_err(|_| ()).unwrap();
        q.try_push(2).map_err(|_| ()).unwrap();
        assert!(matches!(q.try_push(3), Err(PushRefused::Full(3))));
        assert_eq!(q.len(), 2);
        q.push_front_forced(0);
        assert!(matches!(q.pop(Duration::ZERO), Pop::Item(0)));
        assert!(matches!(q.pop(Duration::ZERO), Pop::Item(1)));
        q.close();
        assert!(matches!(q.try_push(9), Err(PushRefused::Closed(9))));
        // Remaining items still drain after close…
        assert!(matches!(q.pop(Duration::ZERO), Pop::Item(2)));
        // …then the queue reports closed.
        assert!(matches!(q.pop(Duration::ZERO), Pop::Closed));
    }

    #[test]
    fn pop_times_out_on_an_open_empty_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::TimedOut));
    }

    use proptest::prelude::*;
    use proptest::Arbitrary;

    /// One admission-model operation.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        PushFrontForced(u32),
        Pop,
        Close,
    }

    /// Push-heavy mix with occasional forced requeues and a rare close.
    struct ArbOp;

    impl Strategy for ArbOp {
        type Value = Op;

        fn sample(&self, rng: &mut rand::rngs::StdRng) -> Op {
            match u32::arbitrary(rng) % 9 {
                0..=3 => Op::Push(u32::arbitrary(rng)),
                4 => Op::PushFrontForced(u32::arbitrary(rng)),
                5..=7 => Op::Pop,
                _ => Op::Close,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bounded queue agrees with a straightforward VecDeque
        /// model under any interleaving of admission, forced requeue,
        /// pops, and close: FIFO order is preserved, capacity refuses
        /// admission exactly when the model is full, forced requeues
        /// always land at the front, and close drains before reporting.
        #[test]
        fn queue_matches_fifo_model(
            capacity in 1usize..8,
            ops in proptest::collection::vec(ArbOp, 1..64),
        ) {
            let queue: BoundedQueue<u32> = BoundedQueue::new(capacity);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut closed = false;
            for op in ops {
                match op {
                    Op::Push(v) => match queue.try_push(v) {
                        Ok(()) => {
                            prop_assert!(!closed, "push succeeded after close");
                            prop_assert!(model.len() < capacity, "push succeeded while full");
                            model.push_back(v);
                        }
                        Err(PushRefused::Full(got)) => {
                            prop_assert_eq!(got, v);
                            prop_assert!(!closed, "full-refusal after close");
                            // Forced requeues may overfill past capacity.
                            prop_assert!(model.len() >= capacity);
                        }
                        Err(PushRefused::Closed(got)) => {
                            prop_assert_eq!(got, v);
                            prop_assert!(closed, "closed-refusal while open");
                        }
                    },
                    Op::PushFrontForced(v) => {
                        queue.push_front_forced(v);
                        model.push_front(v);
                    }
                    Op::Pop => match queue.pop(Duration::ZERO) {
                        Pop::Item(got) => prop_assert_eq!(Some(got), model.pop_front()),
                        Pop::TimedOut => {
                            prop_assert!(model.is_empty());
                            prop_assert!(!closed);
                        }
                        Pop::Closed => {
                            prop_assert!(model.is_empty());
                            prop_assert!(closed);
                        }
                    },
                    Op::Close => {
                        queue.close();
                        closed = true;
                    }
                }
                prop_assert_eq!(queue.len(), model.len());
            }
            // Whatever remains drains in exact FIFO order.
            while let Some(expected) = model.pop_front() {
                match queue.pop(Duration::ZERO) {
                    Pop::Item(got) => prop_assert_eq!(got, expected),
                    other => prop_assert!(
                        false,
                        "queue ended early: expected {}, got {}",
                        expected,
                        match other {
                            Pop::TimedOut => "timeout",
                            Pop::Closed => "closed",
                            Pop::Item(_) => unreachable!(),
                        }
                    ),
                }
            }
        }
    }
}
