//! Exact heap-allocation counts of one `Server::execute` call, on a cache
//! miss and on a cache hit, for an `AND` request and for an `OR` request
//! (the chunk union over a bound-in-place `AND` and a term). An allocation count does not move with the
//! machine's load or the heap's layout, so it is pinned exactly: a change
//! that adds an allocation to either path fails here by name, where a
//! timing gate would read it as noise.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; only allocations made on the thread inside [`counted`] are
//! counted, each thread in its own tally, so the harness's other threads —
//! the other test among them — do not disturb the count.

use fast_set_intersection::core::HashContext;
use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of threads that asked.
struct Counting;

thread_local! {
    /// This thread's allocations while it counts, `None` while it does not.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_allocation() {
    // A thread being torn down has no tally left to bump.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local, which does not allocate.
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
    ALLOCATIONS.with(|a| a.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|a| a.take()).expect("counting");
    (out, n)
}

/// A server over a small seeded corpus, warmed by a first query that
/// initializes what every later one shares (metric handles, the SIMD tier,
/// the tracer), so it is not counted.
fn warm_server() -> Server {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 20_000,
        num_terms: 24,
        seed: 3,
        ..CorpusConfig::default()
    });
    let serve = Server::from_corpus(HashContext::new(3), corpus, ServeConfig::default());
    let warm = serve.execute(&Request::expr("2 AND 3")).expect("valid");
    assert!(!warm.docs.is_empty());
    serve
}

/// The allocations of `query`'s miss and then of its hit.
fn miss_then_hit(serve: &Server, query: &str) -> (usize, usize) {
    let request = Request::expr(query);
    let (miss, on_miss) = counted(|| serve.execute(&request).expect("valid"));
    let (hit, on_hit) = counted(|| serve.execute(&request).expect("valid"));
    assert!(!miss.docs.is_empty());
    assert_eq!(hit.docs, miss.docs);
    (on_miss, on_hit)
}

#[test]
fn execute_allocates_a_pinned_number_of_times_on_a_miss_and_on_a_hit() {
    let serve = warm_server();
    assert_eq!(
        miss_then_hit(&serve, "0 AND 1"),
        (MISS_ALLOCATIONS, HIT_ALLOCATIONS)
    );
}

#[test]
fn an_or_request_allocates_a_pinned_number_of_times_on_a_miss_and_on_a_hit() {
    let serve = warm_server();
    assert_eq!(
        miss_then_hit(&serve, "(0 AND 1) OR 2"),
        (OR_MISS_ALLOCATIONS, OR_HIT_ALLOCATIONS)
    );
}

/// Allocations of one `0 AND 1` miss: the hit's eight, then planning
/// (four: the `AND`'s operand plans, its operand stats, and the multiway
/// planner's operand order and stats sorted by it), execution (six: the
/// operand list, the bitmap list, the `AND` part's copy of it, the chunk
/// union's cursors and their positions, the extraction's reserve) and the
/// cache insert (two: the shared result and the cache's copy of the key).
const MISS_ALLOCATIONS: usize = 20;
/// Allocations of one `0 AND 1` hit, all in compiling the query to its
/// cache key: the
/// lexer's token list, sized from the query text before lexing (one), the
/// parser's nodes (three), normalization (two), the term list (one) and the
/// encoded key, sized from the expression before encoding (one). Keywords
/// are matched in place, with no upper-cased copy. The response itself
/// shares the cached result and allocates nothing.
const HIT_ALLOCATIONS: usize = 8;
/// Allocations of one `(0 AND 1) OR 2` miss, whose `AND` the union binds
/// in place: the hit's fourteen, then planning (five: the `OR`'s child
/// plans, the `AND`'s operand plans, its operand stats, and the multiway
/// planner's operand order and sorted stats; the sweep price folds its
/// chunk counts and allocates nothing), execution (six: the union's parts, made in place from
/// the list of children bound in place, the `AND` part's bitmap list, the
/// list of children's runs, the chunk union's cursors and the `AND`
/// cursor's positions, the extraction's reserve) and the cache insert
/// (two, as for `0 AND 1`).
const OR_MISS_ALLOCATIONS: usize = 27;
/// Allocations of one `(0 AND 1) OR 2` hit, all in compiling the query to
/// its cache key: the lexer's token list (one), the parser's node lists
/// (seven: an `OR` list and an `AND` list at each of the two levels, one
/// more `AND` list for `2`, and the inner `AND` list and outer `OR` list
/// each grown once), normalization (four: a combine and a canonical sort
/// per level), the term list (one) and the encoded key (one).
const OR_HIT_ALLOCATIONS: usize = 14;
