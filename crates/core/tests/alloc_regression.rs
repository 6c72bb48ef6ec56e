//! Steady-state allocation regression test for the batched scoring engine.
//!
//! Installs a counting global allocator and asserts that, once the
//! [`ScoreBatch`] scratch arena and the caller-owned output buffers have
//! been warmed by one full pass, repeated batched scoring and prediction
//! perform **zero** heap allocations. This pins the zero-allocation
//! contract of the serve hot path: any accidental per-call `Vec` or
//! boxed temporary on the tile loop shows up here as a test failure.
//!
//! Only the measuring thread is counted, so tests running in parallel
//! never see each other's setup allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use generic_hdc::{HdcModel, IntHv, NormMode, PredictOptions, QuantizedModel, ScoreBatch};

/// Forwards to the system allocator while counting every allocation
/// event (fresh allocations and reallocations; frees are not counted
/// because a steady-state loop that frees must first have allocated)
/// made by a thread inside [`count_allocations`].
struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside a measured window, and the events
    /// counted there. Const-initialized, so the allocator reading them
    /// never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn record_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        EVENTS.with(|events| events.set(events.get() + 1));
    }
}

/// Allocation events `f` causes on the calling thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    EVENTS.with(|events| events.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    EVENTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        // SAFETY: forwarded verbatim to the system allocator with the
        // caller's layout; the GlobalAlloc contract is inherited.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`System.realloc`
        // with this same layout, as required by the GlobalAlloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        // SAFETY: forwarded verbatim; `ptr`/`layout` obey the contract
        // the caller already guarantees to GlobalAlloc.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_hv(dim: usize, state: &mut u64) -> IntHv {
    let values: Vec<i32> = (0..dim)
        .map(|_| (splitmix64(state) % 7) as i32 - 3)
        .collect();
    IntHv::from_values(values).expect("non-empty hypervector")
}

#[test]
fn batched_scoring_steady_state_allocates_nothing() {
    let dim = 1_024;
    let n_classes = 6;
    let n_queries = 37; // deliberately not a tile multiple
    let mut state = 0xfeed_5eed_u64;

    let encoded: Vec<IntHv> = (0..n_classes * 8)
        .map(|_| random_hv(dim, &mut state))
        .collect();
    let labels: Vec<usize> = (0..encoded.len()).map(|i| i % n_classes).collect();
    let model = HdcModel::fit(&encoded, &labels, n_classes).expect("fit");

    let queries: Vec<IntHv> = (0..n_queries).map(|_| random_hv(dim, &mut state)).collect();
    let variants = [
        PredictOptions::full(dim),
        PredictOptions::reduced(dim / 2, NormMode::Updated),
    ];

    let mut batch = ScoreBatch::new();
    let mut scores = Vec::new();
    let mut preds = Vec::new();

    // Warm-up pass: sizes the tile scratch arena inside `batch` and the
    // caller-owned output buffers to their steady-state capacities.
    for opts in variants {
        batch.scores_into(&model, &queries, opts, &mut scores);
        batch.predict_into(&model, &queries, opts, &mut preds);
    }

    let allocations = count_allocations(|| {
        for _ in 0..16 {
            for opts in variants {
                batch.scores_into(&model, &queries, opts, &mut scores);
                batch.predict_into(&model, &queries, opts, &mut preds);
            }
        }
    });

    assert_eq!(
        allocations, 0,
        "steady-state batched scoring must not touch the heap"
    );
    assert_eq!(scores.len(), n_queries * n_classes);
    assert_eq!(preds.len(), n_queries);
}

#[test]
fn mapped_view_scoring_steady_state_allocates_nothing() {
    let dim = 1_024;
    let n_classes = 6;
    let mut state = 0x5eed_feed_u64;

    let encoded: Vec<IntHv> = (0..n_classes * 8)
        .map(|_| random_hv(dim, &mut state))
        .collect();
    let labels: Vec<usize> = (0..encoded.len()).map(|i| i % n_classes).collect();
    let model = HdcModel::fit(&encoded, &labels, n_classes).expect("fit");
    let packed = QuantizedModel::from_model(&model, 8)
        .and_then(|q| q.pack())
        .expect("quantize and pack");
    let view = packed.view();

    let queries: Vec<_> = (0..37)
        .map(|_| random_hv(dim, &mut state).to_binary())
        .collect();
    let mut scores = Vec::new();

    // Warm-up pass: sizes the caller-owned score buffer. The view itself
    // owns nothing — scoring walks the mapped words in place.
    for query in &queries {
        view.scores_into(query, &mut scores).expect("dim matches");
    }

    let allocations = count_allocations(|| {
        for _ in 0..16 {
            for query in &queries {
                view.scores_into(query, &mut scores).expect("dim matches");
            }
        }
    });

    assert_eq!(
        allocations, 0,
        "steady-state mapped-view scoring must not touch the heap"
    );
    assert_eq!(scores.len(), n_classes);
}
