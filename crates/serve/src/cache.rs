//! A segmented LRU cache for intersection results.
//!
//! Ding & König motivate set intersection as the inner loop of query
//! serving; real query streams are heavily skewed (Zipfian term
//! popularity), so a small result cache absorbs a large fraction of
//! traffic. Keys are the canonical expression encoding (the planner picks
//! the physical algorithm per query, but the *result* is the same
//! whichever plan runs); values are `Arc`-shared result vectors so hits
//! never copy documents.
//!
//! The cache is split into eight independently locked segments
//! (selected by key hash) so concurrent workers rarely contend; each
//! segment runs an exact LRU over an intrusive free-list slab.
//!
//! The canonical encoding (`fsi_query::encode`) makes a conjunction and
//! any boolean expression equivalent to it — reordered,
//! duplicated, De Morgan'd — produce bit-identical keys, so `a b`, `b a`,
//! and `b AND a AND b` all share one entry.

use fsi_core::Elem;
use fsi_query::NormExpr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cache key: the canonical encoding of the query expression.
///
/// Every request is keyed through its normalized expression, so a
/// compiled `a AND b` hits an entry inserted by the text `b AND a` and
/// vice versa.
///
/// Keys are derived only inside the crate (from a [`crate::Request`]) —
/// callers never hand-build them, so the derivation can evolve without
/// breaking the public API.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    expr: Box<[u32]>,
}

impl CacheKey {
    /// The key of a normalized boolean expression.
    pub(crate) fn from_norm(expr: &NormExpr) -> Self {
        Self {
            expr: fsi_query::encode(expr).into_boxed_slice(),
        }
    }

    /// The canonical expression encoding this key carries.
    pub fn encoding(&self) -> &[u32] {
        &self.expr
    }

    fn segment(&self, num_segments: usize) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % num_segments
    }
}

/// Monotonic cache counters (a point-in-time copy).
///
/// Invariants (asserted by the property tests, and holding at any quiescent
/// snapshot):
///
/// * `hits + misses == lookups` — every lookup is counted exactly once;
/// * `len == insertions - evictions` — `insertions` counts only *fresh*
///   entries (a re-insert of a live key is a `refresh`, which changes
///   neither `len` nor `insertions`);
/// * `value_bytes` equals the byte footprint of exactly the currently
///   cached result vectors (refreshing a key with a different-sized result
///   adjusts it by the difference).
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Total lookups (`hits + misses`).
    pub lookups: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Fresh entries inserted (excludes refreshes of live keys).
    pub insertions: u64,
    /// Re-inserts that replaced a live key's value in place.
    pub refreshes: u64,
    /// Current number of cached entries.
    pub len: usize,
    /// Byte footprint of the currently cached result vectors.
    pub value_bytes: usize,
    /// Total capacity in entries (0 = caching disabled).
    pub capacity: usize,
    /// Per-segment breakdown, indexed by segment id. Segment counters sum
    /// to the cache-level totals (`Σ segments[i].insertions == insertions`,
    /// likewise evictions/refreshes/len/value_bytes) — the property the
    /// registry-merge tests lean on.
    pub segments: Vec<SegmentCacheStats>,
}

/// Counters of one cache segment (a point-in-time copy; all monotonic
/// except `len`/`value_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCacheStats {
    /// Entries currently held by this segment.
    pub len: usize,
    /// Byte footprint of this segment's cached result vectors.
    pub value_bytes: usize,
    /// Fresh entries this segment accepted.
    pub insertions: u64,
    /// Entries this segment evicted.
    pub evictions: u64,
    /// In-place value refreshes of live keys in this segment.
    pub refreshes: u64,
    /// This segment's share of the capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Arc<Vec<Elem>>,
    prev: usize,
    next: usize,
}

/// What one [`QueryCache::insert`] did (drives the cache-level counters;
/// returned to callers so serving traces can attribute refresh vs fresh
/// insert vs dropped-on-disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// A new entry was created (false: a live key was refreshed in place,
    /// or the cache is disabled).
    pub fresh: bool,
    /// The LRU entry was evicted to make room.
    pub evicted: bool,
}

/// One locked segment: an exact LRU over a slab of entries.
struct Segment {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    /// Byte footprint of the values currently held (kept in lockstep with
    /// every insert/refresh/evict so accounting cannot drift).
    bytes: usize,
    /// Per-segment monotonic counters (plain fields — always mutated under
    /// this segment's lock). The cache-level atomics are *independent*
    /// tallies of the same events, so the "segments sum to totals"
    /// invariant is a real cross-check, not an identity.
    insertions: u64,
    evictions: u64,
    refreshes: u64,
}

impl Segment {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            bytes: 0,
            insertions: 0,
            evictions: 0,
            refreshes: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
        self.slab[idx].prev = NIL;
        // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            // audit:allow(hot_path_index): prev/next/head/tail are LRU-list invariants; every live link points into slab
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<Elem>>> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.slab[idx].value))
    }

    fn insert(&mut self, key: CacheKey, value: Arc<Vec<Elem>>) -> InsertOutcome {
        if let Some(&idx) = self.map.get(&key) {
            // Refresh an existing entry in place; the byte accounting moves
            // by the size *difference* so a different-sized result cannot
            // drift the totals.
            self.bytes += value_bytes(&value);
            self.bytes -= value_bytes(&self.slab[idx].value);
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            self.refreshes += 1;
            return InsertOutcome {
                fresh: false,
                evicted: false,
            };
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.bytes -= value_bytes(&self.slab[victim].value);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            self.evictions += 1;
            evicted = true;
        }
        self.bytes += value_bytes(&value);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.insertions += 1;
        InsertOutcome {
            fresh: true,
            evicted,
        }
    }

    fn stats(&self) -> SegmentCacheStats {
        SegmentCacheStats {
            len: self.map.len(),
            value_bytes: self.bytes,
            insertions: self.insertions,
            evictions: self.evictions,
            refreshes: self.refreshes,
            capacity: self.capacity,
        }
    }
}

/// Heap footprint of one cached result vector.
fn value_bytes(value: &Arc<Vec<Elem>>) -> usize {
    value.len() * std::mem::size_of::<Elem>()
}

/// How many independently locked segments a [`QueryCache`] splits into —
/// enough that the front door's worker threads rarely contend.
const SEGMENTS: usize = 8;

/// The segmented, counter-instrumented result cache.
pub struct QueryCache {
    segments: Vec<Mutex<Segment>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Counted independently of hits/misses (once per [`QueryCache::get`])
    /// so the `hits + misses == lookups` invariant is a real check on the
    /// counting paths, not an identity.
    lookups: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    refreshes: AtomicU64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("capacity", &self.capacity)
            .field("segments", &self.segments.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl QueryCache {
    /// A cache of `capacity` total entries split over eight locks
    /// (fewer when `capacity` is smaller). `capacity = 0` builds a disabled
    /// cache (every lookup misses, inserts are dropped).
    ///
    /// Capacity divides evenly across segments, rounding *up* per segment;
    /// the effective total (what [`QueryCache::stats`] reports as
    /// `capacity`) is therefore the configured value rounded up to a
    /// multiple of the segment count. Eviction is per segment: a segment
    /// at its share evicts even if others are underfull.
    pub fn new(capacity: usize) -> Self {
        Self::with_segments(capacity, SEGMENTS)
    }

    /// [`QueryCache::new`] over `segments` locks.
    fn with_segments(capacity: usize, segments: usize) -> Self {
        let segments = segments.max(1).min(capacity.max(1));
        let per_segment = capacity.div_ceil(segments);
        Self {
            segments: (0..segments)
                .map(|_| Mutex::new(Segment::new(per_segment)))
                .collect(),
            capacity: if capacity == 0 {
                0
            } else {
                per_segment * segments
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
        }
    }

    /// Whether caching is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Elem>>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let seg = key.segment(self.segments.len());
        // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
        let result = self.segments[seg].lock().expect("cache lock").get(key);
        match &result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Inserts a computed result, possibly evicting the segment's LRU
    /// entry, and reports what happened. Re-inserting a live key replaces
    /// its value in place and counts as a *refresh*, not an insertion —
    /// `len == insertions - evictions` holds even when the same key is
    /// recomputed with a different-sized result.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<Elem>>) -> InsertOutcome {
        if !self.is_enabled() {
            return InsertOutcome {
                fresh: false,
                evicted: false,
            };
        }
        let seg = key.segment(self.segments.len());
        let outcome = self.segments[seg]
            .lock()
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            .expect("cache lock")
            .insert(key, value);
        if outcome.fresh {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.refreshes.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Effective total capacity in entries (the configured capacity rounded
    /// up to a multiple of the segment count; 0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            .map(|s| s.lock().expect("cache lock").map.len())
            .sum()
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte footprint of the currently cached result vectors.
    pub fn value_bytes(&self) -> usize {
        self.segments
            .iter()
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            .map(|s| s.lock().expect("cache lock").bytes)
            .sum()
    }

    /// Per-segment counter snapshots, indexed by segment id.
    fn segment_stats(&self) -> Vec<SegmentCacheStats> {
        self.segments
            .iter()
            // audit:allow(hot_path_panic): mutex poisoning means another request already panicked; propagating is correct
            .map(|s| s.lock().expect("cache lock").stats())
            .collect()
    }

    /// Snapshot of the counters, including the per-segment breakdown.
    pub fn stats(&self) -> CacheStats {
        let segments = self.segment_stats();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            len: segments.iter().map(|s| s.len).sum(),
            value_bytes: segments.iter().map(|s| s.value_bytes).sum(),
            capacity: self.capacity,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key of a conjunction of `terms`, spelled as a client would.
    fn key(terms: &[usize]) -> CacheKey {
        let text: Vec<String> = terms.iter().map(usize::to_string).collect();
        CacheKey::from_norm(&fsi_query::compile(&text.join(" AND ")).expect("compiles"))
    }

    fn val(xs: &[Elem]) -> Arc<Vec<Elem>> {
        Arc::new(xs.to_vec())
    }

    #[test]
    fn keys_normalize_term_order_and_duplicates() {
        assert_eq!(key(&[3, 1, 2]), key(&[1, 2, 3]));
        assert_eq!(key(&[5, 5, 1]), key(&[1, 5]));
        assert_ne!(key(&[1, 2]), key(&[1, 3]));
        assert_ne!(key(&[1]), key(&[1, 2]));
    }

    #[test]
    fn flat_and_expression_keys_share_one_entry() {
        // A flat `a AND b`, its reordered-duplicated variant, and any
        // equivalent boolean expression must all land on the same slot.
        let flat = key(&[4, 2]);
        let shuffled = key(&[2, 4, 2]);
        let expr = CacheKey::from_norm(&fsi_query::compile("4 AND 2").expect("ok"));
        let de_morgan =
            CacheKey::from_norm(&fsi_query::compile("NOT (NOT 2 OR NOT 4)").expect("ok"));
        assert_eq!(flat, shuffled);
        assert_eq!(flat, expr);
        assert_eq!(flat, de_morgan);
        // …and a genuinely different expression does not.
        let other = CacheKey::from_norm(&fsi_query::compile("4 OR 2").expect("ok"));
        assert_ne!(flat, other);
        let cache = QueryCache::with_segments(8, 2);
        cache.insert(flat, val(&[1, 2, 3]));
        assert_eq!(cache.get(&expr).expect("hit").as_slice(), &[1, 2, 3]);
        assert_eq!(cache.get(&shuffled).expect("hit").as_slice(), &[1, 2, 3]);
        assert!(cache.get(&other).is_none());
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = QueryCache::with_segments(8, 2);
        assert!(cache.get(&key(&[1, 2])).is_none());
        cache.insert(key(&[1, 2]), val(&[7, 9]));
        assert_eq!(cache.get(&key(&[2, 1])).expect("hit").as_slice(), &[7, 9]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One segment of capacity 3 so eviction order is fully observable.
        let cache = QueryCache::with_segments(3, 1);
        cache.insert(key(&[1]), val(&[1]));
        cache.insert(key(&[2]), val(&[2]));
        cache.insert(key(&[3]), val(&[3]));
        // Touch [1] so [2] becomes the LRU.
        assert!(cache.get(&key(&[1])).is_some());
        cache.insert(key(&[4]), val(&[4]));
        assert!(cache.get(&key(&[2])).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(&[1])).is_some());
        assert!(cache.get(&key(&[3])).is_some());
        assert!(cache.get(&key(&[4])).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = QueryCache::with_segments(2, 1);
        cache.insert(key(&[1]), val(&[1]));
        cache.insert(key(&[1]), val(&[10, 11]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(&[1])).expect("hit").as_slice(), &[10, 11]);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        // Accounting: one fresh insert, one refresh — len still matches
        // insertions - evictions, and the bytes track the *new* value.
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.len as u64, stats.insertions - stats.evictions);
        assert_eq!(stats.value_bytes, 2 * std::mem::size_of::<Elem>());
    }

    #[test]
    fn refresh_with_different_sizes_keeps_bytes_exact() {
        // Regression for accounting drift: the same key re-inserted with a
        // larger, then smaller, result must leave value_bytes equal to the
        // live value's footprint, never the sum of historical sizes.
        let cache = QueryCache::with_segments(4, 1);
        let k = key(&[9]);
        cache.insert(k.clone(), val(&[1]));
        cache.insert(k.clone(), val(&[1, 2, 3, 4, 5]));
        cache.insert(k.clone(), val(&[]));
        cache.insert(k.clone(), val(&[7, 8]));
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.refreshes, 3);
        assert_eq!(stats.len, 1);
        assert_eq!(stats.value_bytes, 2 * std::mem::size_of::<Elem>());
        // Evicting the entry returns the accounting to zero.
        for i in 100..104usize {
            cache.insert(key(&[i]), val(&[i as Elem]));
        }
        let stats = cache.stats();
        assert!(cache.get(&k).is_none(), "original key evicted");
        assert_eq!(stats.len, 4);
        assert_eq!(stats.value_bytes, 4 * std::mem::size_of::<Elem>());
        assert_eq!(stats.len as u64, stats.insertions - stats.evictions);
    }

    /// The model-free invariants any quiescent snapshot must satisfy.
    fn assert_invariants(cache: &QueryCache) {
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert_eq!(stats.len as u64, stats.insertions - stats.evictions);
        assert!(stats.len <= stats.capacity.max(1));
        let actual_bytes: usize = cache
            .segments
            .iter()
            .map(|s| {
                let seg = s.lock().unwrap();
                seg.map
                    .values()
                    .map(|&idx| value_bytes(&seg.slab[idx].value))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(stats.value_bytes, actual_bytes);
        let seg_bytes: usize = cache.segments.iter().map(|s| s.lock().unwrap().bytes).sum();
        assert_eq!(seg_bytes, actual_bytes, "per-segment byte counters drifted");
        // The per-segment counters are tallied independently of the
        // cache-level atomics; at quiescence they must agree exactly.
        assert_eq!(
            stats.segments.iter().map(|s| s.insertions).sum::<u64>(),
            stats.insertions
        );
        assert_eq!(
            stats.segments.iter().map(|s| s.evictions).sum::<u64>(),
            stats.evictions
        );
        assert_eq!(
            stats.segments.iter().map(|s| s.refreshes).sum::<u64>(),
            stats.refreshes
        );
        assert_eq!(
            stats.segments.iter().map(|s| s.len).sum::<usize>(),
            stats.len
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn random_workloads_preserve_accounting_invariants(
            capacity in 0usize..12,
            segments in 1usize..5,
            // Each op encodes (kind, term, value_len) in one draw:
            // kind = op % 2 (get/insert), term = (op / 2) % 12,
            // value_len = op / 24.
            ops in proptest::collection::vec(0usize..144, 0..300),
        ) {
            let cache = QueryCache::with_segments(capacity, segments);
            for &op in &ops {
                let term = (op / 2) % 12;
                let k = key(&[term]);
                if op % 2 == 0 {
                    let _ = cache.get(&k);
                } else {
                    // Same keys recur with varying sizes: exercises fresh
                    // inserts, refreshes with different-sized results, and
                    // evictions in one stream.
                    let value_len = op / 24;
                    cache.insert(k, val(&vec![term as Elem; value_len]));
                }
            }
            assert_invariants(&cache);
        }
    }

    #[test]
    fn effective_capacity_is_reported_and_never_exceeded() {
        // 8 entries over 3 segments: 3 per segment, effective total 9.
        let cache = QueryCache::with_segments(8, 3);
        assert_eq!(cache.capacity(), 9);
        for i in 0..100usize {
            cache.insert(key(&[i]), val(&[i as Elem]));
        }
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.stats().capacity, 9);
        // Even division reports exactly the configured value.
        assert_eq!(QueryCache::with_segments(8, 2).capacity(), 8);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::with_segments(0, 4);
        assert!(!cache.is_enabled());
        cache.insert(key(&[1]), val(&[1]));
        assert!(cache.get(&key(&[1])).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache = QueryCache::with_segments(2, 1);
        for i in 0..100usize {
            cache.insert(key(&[i]), val(&[i as Elem]));
        }
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 100);
        assert_eq!(stats.evictions, 98);
        // The slab never grows past capacity.
        for seg in &cache.segments {
            assert!(seg.lock().unwrap().slab.len() <= 2);
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(QueryCache::with_segments(64, 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500usize {
                        let k = key(&[t, i % 32]);
                        if cache.get(&k).is_none() {
                            cache.insert(k, val(&[(t * 1000 + i % 32) as Elem]));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits + stats.misses == 2000);
        assert!(cache.len() <= 64);
    }
}
