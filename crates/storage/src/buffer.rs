//! LRU buffer manager with prefetching.
//!
//! SIMPAD uses "a simple buffer manager … supporting LRU page replacement and
//! prefetching.  We maintain separate buffers for tables and indices" (§5).
//! [`BufferManager`] holds one [`PagePool`] for fact pages and one for bitmap
//! pages; a request for a range of pages reports how many pages were buffer
//! hits and which had to be fetched from disk, and installs the fetched pages
//! with LRU replacement.
//!
//! [`PagePool`] is the single LRU implementation of the workspace: the
//! simulated disk subsystem, the file-backed store and SIMPAD all use it.
//! Each request costs O(1) — a slab of entries on an intrusive
//! most-to-least-recently-used list, found through an open-addressed index
//! with a fixed hash — and the replacement order is exactly classic LRU, so
//! runs replay bit-identically.

use serde::{Deserialize, Serialize};

/// Identifies one page: an object (fragment, bitmap fragment, …) and a page
/// number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageKey {
    /// Identifier of the containing object (assigned by the caller).
    pub object: u64,
    /// Page number within the object.
    pub page: u64,
}

impl PageKey {
    /// Creates a page key.
    #[must_use]
    pub fn new(object: u64, page: u64) -> Self {
        PageKey { object, page }
    }
}

/// Hit/miss statistics of one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BufferPoolStats {
    /// Page requests satisfied from the buffer.
    pub hits: u64,
    /// Page requests that required a disk fetch.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]` (0 when no requests were made).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a single page request made through
/// [`PagePool::request_reporting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRequest {
    /// `true` when the page was already resident (a buffer hit).
    pub hit: bool,
    /// The page evicted to make room, when the pool was full on a miss.
    pub evicted: Option<PageKey>,
}

/// A fixed-capacity LRU pool of pages with O(1) requests.
///
/// Resident pages live in a slab of entries threaded on an intrusive
/// doubly linked list from most to least recently used, with `u32` slab
/// indices as links.  An open-addressed index maps each resident
/// key to its slab entry.  A hit unlinks the entry and relinks it at the
/// MRU head; a miss on a full pool evicts the LRU tail and reuses its slab
/// entry for the new page.  Every request therefore costs a constant number
/// of slab and index operations — the simulator issues hundreds of
/// thousands of page requests per query, under the lock of whichever
/// subsystem owns the pool.
///
/// Nothing depends on hash iteration order: the index is only probed by
/// key, and its hash is a fixed-constant mix, so every run replays the same
/// replacement order.  The slab grows with residency up to `capacity`; it
/// is never pre-allocated, so a large, mostly empty pool costs little.
#[derive(Debug, Clone)]
pub struct PagePool {
    capacity: usize,
    /// Resident pages; at most `capacity` entries, never shrinks.
    entries: Vec<Entry>,
    /// Slab index of the most recently used page (`NIL` when empty).
    head: u32,
    /// Slab index of the least recently used page (`NIL` when empty).
    tail: u32,
    /// Resident key → slab index.
    index: PageIndex,
    stats: BufferPoolStats,
}

/// The null link.  Every slab holds fewer than `NIL` entries (see
/// [`PagePool::MAX_CAPACITY`]), so `entries.get(NIL as usize)` is always `None`:
/// following a null link lands on the list's head or tail case without a
/// separate branch.
const NIL: u32 = u32::MAX;

/// One resident page and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: PageKey,
    /// The next more recently used entry (`NIL` at the head).
    prev: u32,
    /// The next less recently used entry (`NIL` at the tail).
    next: u32,
}

impl PagePool {
    /// The largest capacity a pool supports: its links are 32-bit slab
    /// indices, with `u32::MAX` reserved as the null link.
    pub const MAX_CAPACITY: usize = NIL as usize - 1;

    /// Creates a pool holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`Self::MAX_CAPACITY`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "buffer pool capacity must be at most PagePool::MAX_CAPACITY"
        );
        PagePool {
            capacity,
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            index: PageIndex::new(),
            stats: BufferPoolStats::default(),
        }
    }

    /// The pool capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.entries.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// True if `key` is currently buffered (does not touch LRU state).
    #[must_use]
    pub fn contains(&self, key: PageKey) -> bool {
        self.index.find(&self.entries, key, hash(key)).is_some()
    }

    /// Requests a single page.  Returns `true` on a buffer hit; on a miss the
    /// page is installed (evicting the least recently used page if full).
    pub fn request(&mut self, key: PageKey) -> bool {
        self.request_reporting(key).hit
    }

    /// Requests a single page like [`PagePool::request`], additionally
    /// reporting which page (if any) was evicted to make room.
    ///
    /// File-backed callers that cache decoded objects alongside the pool use
    /// the victim to invalidate those caches, keeping decoded state consistent
    /// with page residency.
    pub fn request_reporting(&mut self, key: PageKey) -> PageRequest {
        let key_hash = hash(key);
        if let Some(idx) = self.index.find(&self.entries, key, key_hash) {
            self.stats.hits += 1;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return PageRequest {
                hit: true,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let mut evicted = None;
        let idx = if self.entries.len() < self.capacity {
            // `len < capacity <= MAX_CAPACITY`: the cast is lossless.
            let idx = self.entries.len() as u32;
            self.entries.push(Entry {
                key,
                prev: NIL,
                next: NIL,
            });
            idx
        } else {
            // Full: the least recently used page gives up its slab entry.
            let victim = self.tail;
            self.unlink(victim);
            if let Some(entry) = self.entries.get_mut(victim as usize) {
                let old = std::mem::replace(&mut entry.key, key);
                self.index.remove(victim, hash(old));
                self.stats.evictions += 1;
                evicted = Some(old);
            }
            victim
        };
        self.push_front(idx);
        self.index.insert(idx, key_hash, self.entries.len());
        PageRequest {
            hit: false,
            evicted,
        }
    }

    /// Requests `count` consecutive pages of `object` starting at
    /// `first_page` (a prefetch granule).  Returns the number of pages that
    /// missed and had to be fetched.
    pub fn request_range(&mut self, object: u64, first_page: u64, count: u64) -> u64 {
        let mut misses = 0;
        for p in first_page..first_page + count {
            if !self.request(PageKey::new(object, p)) {
                misses += 1;
            }
        }
        misses
    }

    /// Detaches entry `idx` from the recency list, joining its neighbours.
    fn unlink(&mut self, idx: u32) {
        let Some(&Entry { prev, next, .. }) = self.entries.get(idx as usize) else {
            return;
        };
        match self.entries.get_mut(prev as usize) {
            Some(before) => before.next = next,
            None => self.head = next,
        }
        match self.entries.get_mut(next as usize) {
            Some(after) => after.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links a detached entry `idx` in as the most recently used page.
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        if let Some(entry) = self.entries.get_mut(idx as usize) {
            entry.prev = NIL;
            entry.next = old_head;
        }
        match self.entries.get_mut(old_head as usize) {
            Some(first) => first.prev = idx,
            None => self.tail = idx,
        }
        self.head = idx;
    }
}

/// The fixed-constant key hash: a multiply–xorshift mix of both key halves
/// (the finaliser of SplitMix64), truncated to 32 bits.  It depends on
/// nothing but the key, so the index lays out and probes identically in
/// every run.  Keys are object and page numbers the program enumerates
/// itself, never values chosen from outside, so a fixed hash cannot be
/// steered into collisions.
fn hash(key: PageKey) -> u32 {
    let mut x = key.object.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.page;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x >> 32) as u32
}

/// One index slot: a slab index (`NIL` when the slot is empty) and the
/// cached hash of its key, so probing compares hashes before touching the
/// slab and deletion never rehashes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: u32,
    hash: u32,
}

const EMPTY: Slot = Slot {
    entry: NIL,
    hash: 0,
};

/// An open-addressed map from resident page key to slab index: linear
/// probing over a power-of-two table kept at most half full, with
/// backward-shift deletion (no tombstones, so probe sequences never
/// lengthen under churn).  The table doubles as residency grows and never
/// shrinks — a pool's residency never falls.
#[derive(Debug, Clone)]
struct PageIndex {
    slots: Vec<Slot>,
}

impl PageIndex {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        PageIndex {
            slots: vec![EMPTY; Self::MIN_SLOTS],
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Writes `slot` at table position `pos` (always in range: every
    /// position is reduced by `mask`).
    fn set(&mut self, pos: usize, slot: Slot) {
        if let Some(s) = self.slots.get_mut(pos) {
            *s = slot;
        }
    }

    /// The slab index of `key`, whose hash is `key_hash`, if resident.
    fn find(&self, entries: &[Entry], key: PageKey, key_hash: u32) -> Option<u32> {
        let mask = self.mask();
        let mut pos = key_hash as usize & mask;
        // The table is never full, so the probe reaches an empty slot.
        while let Some(&slot) = self.slots.get(pos) {
            if slot.entry == NIL {
                return None;
            }
            if slot.hash == key_hash
                && entries
                    .get(slot.entry as usize)
                    .is_some_and(|e| e.key == key)
            {
                return Some(slot.entry);
            }
            pos = (pos + 1) & mask;
        }
        None
    }

    /// Inserts slab index `entry` under `key_hash`; the key must be absent.
    /// `resident` is the pool's page count including the new page (every
    /// resident page has exactly one slot), which decides the growth.
    fn insert(&mut self, entry: u32, key_hash: u32, resident: usize) {
        if resident * 2 > self.slots.len() {
            self.grow();
        }
        self.place(Slot {
            entry,
            hash: key_hash,
        });
    }

    /// Stores `slot` in the first empty position of its probe sequence.
    fn place(&mut self, slot: Slot) {
        let mask = self.mask();
        let mut pos = slot.hash as usize & mask;
        while self.slots.get(pos).is_some_and(|s| s.entry != NIL) {
            pos = (pos + 1) & mask;
        }
        self.set(pos, slot);
    }

    /// Doubles the table and re-places every occupied slot.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old.into_iter().filter(|s| s.entry != NIL) {
            self.place(slot);
        }
    }

    /// Removes slab index `entry`, stored under `key_hash`, then shifts
    /// each later member of the probe run back into the hole when its home
    /// position allows, so every remaining key stays reachable.
    fn remove(&mut self, entry: u32, key_hash: u32) {
        let mask = self.mask();
        let mut hole = key_hash as usize & mask;
        loop {
            match self.slots.get(hole) {
                Some(s) if s.entry == entry => break,
                Some(s) if s.entry != NIL => hole = (hole + 1) & mask,
                _ => return,
            }
        }
        let mut pos = (hole + 1) & mask;
        while let Some(&slot) = self.slots.get(pos) {
            if slot.entry == NIL {
                break;
            }
            // `slot` sits `(pos - home)` past its home; it may fill the
            // hole only if the hole is no further than that behind `pos`.
            let home = slot.hash as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.set(hole, slot);
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.set(hole, EMPTY);
    }
}

/// The two-pool buffer manager of the simulator.
#[derive(Debug, Clone)]
pub struct BufferManager {
    fact: PagePool,
    bitmap: PagePool,
}

impl BufferManager {
    /// Creates a buffer manager with the given pool capacities (Table 4
    /// defaults: 1 000 fact pages, 5 000 bitmap pages).
    #[must_use]
    pub fn new(fact_pages: usize, bitmap_pages: usize) -> Self {
        BufferManager {
            fact: PagePool::new(fact_pages),
            bitmap: PagePool::new(bitmap_pages),
        }
    }

    /// The fact-table pool.
    #[must_use]
    pub fn fact(&mut self) -> &mut PagePool {
        &mut self.fact
    }

    /// The bitmap pool.
    #[must_use]
    pub fn bitmap(&mut self) -> &mut PagePool {
        &mut self.bitmap
    }

    /// Read-only statistics of both pools `(fact, bitmap)`.
    #[must_use]
    pub fn stats(&self) -> (BufferPoolStats, BufferPoolStats) {
        (self.fact.stats(), self.bitmap.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut pool = PagePool::new(10);
        assert!(!pool.request(PageKey::new(1, 0)));
        assert!(pool.request(PageKey::new(1, 0)));
        assert!(!pool.request(PageKey::new(1, 1)));
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(pool.resident_pages(), 2);
        assert_eq!(pool.capacity(), 10);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = PagePool::new(3);
        pool.request(PageKey::new(0, 0));
        pool.request(PageKey::new(0, 1));
        pool.request(PageKey::new(0, 2));
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.request(PageKey::new(0, 0));
        pool.request(PageKey::new(0, 3));
        assert!(pool.contains(PageKey::new(0, 0)));
        assert!(!pool.contains(PageKey::new(0, 1)));
        assert!(pool.contains(PageKey::new(0, 2)));
        assert!(pool.contains(PageKey::new(0, 3)));
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.resident_pages(), 3);
    }

    #[test]
    fn range_requests_count_misses() {
        let mut pool = PagePool::new(100);
        assert_eq!(pool.request_range(7, 0, 8), 8);
        assert_eq!(pool.request_range(7, 0, 8), 0);
        assert_eq!(pool.request_range(7, 4, 8), 4);
    }

    #[test]
    fn pools_are_independent() {
        let mut bm = BufferManager::new(10, 20);
        bm.fact().request(PageKey::new(1, 1));
        bm.bitmap().request(PageKey::new(1, 1));
        bm.bitmap().request(PageKey::new(1, 1));
        let (fact, bitmap) = bm.stats();
        assert_eq!(fact.misses, 1);
        assert_eq!(fact.hits, 0);
        assert_eq!(bitmap.misses, 1);
        assert_eq!(bitmap.hits, 1);
    }

    #[test]
    fn scan_larger_than_pool_gets_no_hits_on_repeat() {
        // A sequential scan over more pages than the pool holds cannot profit
        // from LRU on the second pass (classic sequential-flooding behaviour).
        let mut pool = PagePool::new(50);
        pool.request_range(1, 0, 200);
        let misses_second_pass = pool.request_range(1, 0, 200);
        assert_eq!(misses_second_pass, 200);
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn request_reporting_names_the_victim() {
        let mut pool = PagePool::new(2);
        assert_eq!(
            pool.request_reporting(PageKey::new(0, 0)),
            PageRequest {
                hit: false,
                evicted: None
            }
        );
        pool.request(PageKey::new(0, 1));
        // Pool full: the next miss must evict page (0, 0), the LRU page.
        let outcome = pool.request_reporting(PageKey::new(0, 2));
        assert!(!outcome.hit);
        assert_eq!(outcome.evicted, Some(PageKey::new(0, 0)));
        // A hit reports no eviction.
        assert_eq!(
            pool.request_reporting(PageKey::new(0, 2)),
            PageRequest {
                hit: true,
                evicted: None
            }
        );
    }

    #[test]
    fn empty_stats_hit_ratio_is_zero() {
        assert_eq!(BufferPoolStats::default().hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PagePool::new(0);
    }

    #[test]
    #[should_panic(expected = "at most PagePool::MAX_CAPACITY")]
    fn capacity_beyond_the_link_range_rejected() {
        let _ = PagePool::new(PagePool::MAX_CAPACITY + 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive reference LRU: resident keys from most to least recently
    /// used, with linear-time move-to-front.
    struct ReferenceLru {
        capacity: usize,
        order: Vec<PageKey>,
        stats: BufferPoolStats,
    }

    impl ReferenceLru {
        fn new(capacity: usize) -> Self {
            ReferenceLru {
                capacity,
                order: Vec::new(),
                stats: BufferPoolStats::default(),
            }
        }

        fn request(&mut self, key: PageKey) -> PageRequest {
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
                self.order.insert(0, key);
                self.stats.hits += 1;
                return PageRequest {
                    hit: true,
                    evicted: None,
                };
            }
            self.stats.misses += 1;
            let evicted = if self.order.len() == self.capacity {
                self.stats.evictions += 1;
                self.order.pop()
            } else {
                None
            };
            self.order.insert(0, key);
            PageRequest {
                hit: false,
                evicted,
            }
        }
    }

    /// Replays `requests` on the pool and the reference, checking every
    /// outcome, the residency and the statistics after each request, and
    /// `contains` for every key of the `objects × pages` universe at the end.
    fn check_against_reference(
        capacity: usize,
        requests: &[(u64, u64)],
        objects: u64,
        pages: u64,
    ) -> Result<(), TestCaseError> {
        let mut pool = PagePool::new(capacity);
        let mut reference = ReferenceLru::new(capacity);
        for &(object, page) in requests {
            let key = PageKey::new(object, page);
            let outcome = pool.request_reporting(key);
            prop_assert_eq!(outcome, reference.request(key));
            prop_assert!(pool.contains(key));
            if let Some(victim) = outcome.evicted {
                prop_assert!(!pool.contains(victim));
            }
            prop_assert_eq!(pool.resident_pages(), reference.order.len());
            prop_assert_eq!(pool.stats(), reference.stats);
        }
        for object in 0..objects {
            for page in 0..pages {
                let key = PageKey::new(object, page);
                prop_assert_eq!(pool.contains(key), reference.order.contains(&key));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Small pools over a small key universe: heavy reuse, frequent
        /// evictions, and the same keys requested back to back.
        #[test]
        fn prop_matches_reference_lru(
            capacity in 1usize..24,
            requests in proptest::collection::vec((0u64..3, 0u64..16), 1..400),
        ) {
            check_against_reference(capacity, &requests, 3, 16)?;
        }

        /// A one-page pool: every miss evicts the previous page, and only an
        /// immediate repeat hits.
        #[test]
        fn prop_capacity_one_matches_reference(
            requests in proptest::collection::vec((0u64..2, 0u64..3), 1..200),
        ) {
            check_against_reference(1, &requests, 2, 3)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 12 }))]

        /// Long streams over a wide universe: residency climbs into the
        /// hundreds, so the index doubles six or more times from its
        /// 16-slot start while evictions churn the probe runs.
        #[test]
        fn prop_long_streams_match_reference_through_index_growth(
            capacity in 300usize..1_200,
            requests in proptest::collection::vec((0u64..4, 0u64..400), 3_000..5_000),
        ) {
            check_against_reference(capacity, &requests, 4, 400)?;
        }
    }

    proptest! {
        /// The pool never holds more pages than its capacity and hits+misses
        /// always equals the number of requests.
        #[test]
        fn prop_capacity_and_accounting(
            capacity in 1usize..64,
            requests in proptest::collection::vec((0u64..4, 0u64..100), 1..500),
        ) {
            let mut pool = PagePool::new(capacity);
            for (object, page) in &requests {
                pool.request(PageKey::new(*object, *page));
                prop_assert!(pool.resident_pages() <= capacity);
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.hits + stats.misses, requests.len() as u64);
            prop_assert_eq!(
                stats.misses - stats.evictions,
                pool.resident_pages() as u64
            );
        }

        /// Immediately repeating a request is always a hit.
        #[test]
        fn prop_repeat_is_hit(object in 0u64..10, page in 0u64..1_000) {
            let mut pool = PagePool::new(4);
            pool.request(PageKey::new(object, page));
            prop_assert!(pool.request(PageKey::new(object, page)));
        }
    }
}
