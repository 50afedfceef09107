//! Exact heap-allocation counts of one `Server::execute` call, on a cache
//! miss and on a cache hit. An allocation count does not move with the
//! machine's load or the heap's layout, so it is pinned exactly: a change
//! that adds an allocation to either path fails here by name, where a
//! timing gate would read it as noise.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; only allocations made on the thread inside [`counted`] are
//! counted, so the harness's other threads do not disturb the count.

use fast_set_intersection::core::HashContext;
use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations of threads that asked.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only an atomic and a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations
/// (`alloc`, `alloc_zeroed` and `realloc` calls) it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn execute_allocates_a_pinned_number_of_times_on_a_miss_and_on_a_hit() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 20_000,
        num_terms: 24,
        seed: 3,
        ..CorpusConfig::default()
    });
    let serve = Server::from_corpus(HashContext::new(3), corpus, ServeConfig::default());
    // A first query initializes what every later one shares (metric
    // handles, the SIMD tier, the tracer), so it is not counted.
    let warm = serve.execute(&Request::expr("2 AND 3")).expect("valid");
    assert!(!warm.docs.is_empty());
    let request = Request::expr("0 AND 1");
    let (miss, on_miss) = counted(|| serve.execute(&request).expect("valid"));
    let (hit, on_hit) = counted(|| serve.execute(&request).expect("valid"));
    assert!(!miss.docs.is_empty());
    assert_eq!(hit.docs, miss.docs);
    assert_eq!((on_miss, on_hit), (MISS_ALLOCATIONS, HIT_ALLOCATIONS));
}

/// Allocations of one miss: the hit's eight, then planning (four: two
/// plan nodes, the planner's operand order and stats), execution (six: the
/// operand list, the bitmap list, the `AND` part's copy of it, the chunk
/// union's cursors and their positions, the extraction's reserve) and the
/// cache insert (two: the shared result and the cache's copy of the key).
const MISS_ALLOCATIONS: usize = 20;
/// Allocations of one hit, all in compiling the query to its cache key: the
/// lexer's token list, sized from the query text before lexing (one), the
/// parser's nodes (three), normalization (two), the term list (one) and the
/// encoded key, sized from the expression before encoding (one). Keywords
/// are matched in place, with no upper-cased copy. The response itself
/// shares the cached result and allocates nothing.
const HIT_ALLOCATIONS: usize = 8;
