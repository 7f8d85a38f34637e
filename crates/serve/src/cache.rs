//! A bounded LRU cache of shared values, keyed by a canonical string — the
//! server keeps two: rendered artifacts keyed by their render parameters,
//! and the retained store of super trees, render trees and tile scenes,
//! keyed by graph id, generation, stage and the stage's parameters.
//!
//! Because the pipeline is deterministic — the same graph and settings
//! produce bit-identical artifacts at every thread count — a cache hit is
//! byte-exact, and the entry's ETag can be derived from the *key* alone
//! ([`etag_for_key`]): two renders with the same key would have the same
//! bytes anyway, so the key hash is as strong a validator as a content
//! hash, available before the render runs (which is what lets the server
//! answer `If-None-Match` with `304 Not Modified` without rendering or even
//! consulting the cache).
//!
//! The implementation is an intrusive doubly-linked list threaded through a
//! slab, with a `HashMap` from key to slot — `get`/`insert` are O(1) and
//! the recency order is explicit enough to check against a model oracle in
//! the property test. Capacity is bounded twice: by entry count and by
//! total [`Weighted::weight`] bytes; eviction pops the least-recently-used
//! tail until both bounds hold.

use std::collections::HashMap;
use std::sync::Arc;

use ugraph::io::fnv1a64;

/// A value an [`LruCache`] can hold: it reports the bytes it charges
/// against the cache's byte bound.
pub trait Weighted {
    /// Bytes charged against the byte bound while the value is resident.
    fn weight(&self) -> usize;
}

/// One cached artifact: the exact response body plus its validators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedArtifact {
    /// The response body, byte-exact across hits. One buffer shared by the
    /// cache entry and every response that serves it — a hit never copies
    /// the body.
    pub bytes: Arc<Vec<u8>>,
    /// The strong ETag served with this artifact (quoted, per RFC 9110).
    pub etag: String,
    /// The `Content-Type` served with this artifact.
    pub content_type: &'static str,
}

impl Weighted for CachedArtifact {
    /// The body length.
    fn weight(&self) -> usize {
        self.bytes.len()
    }
}

/// The strong ETag for a canonical cache key: a quoted FNV-1a/64 hex digest.
pub fn etag_for_key(key: &str) -> String {
    format!("\"{:016x}\"", fnv1a64(key.as_bytes()))
}

/// A point-in-time snapshot of the cache counters, served by `/stats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found their key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Entries evicted to restore the bounds.
    pub evictions: u64,
    /// Successful `insert` calls (including replacements).
    pub insertions: u64,
    /// Inserts refused because one value alone exceeds the byte bound.
    pub uncacheable: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Weight resident right now (body bytes, for artifacts).
    pub bytes: usize,
    /// The entry-count bound.
    pub capacity: usize,
    /// The byte bound.
    pub max_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: String,
    /// `None` once evicted, so a free slot pins no value.
    value: Option<Arc<V>>,
    weight: usize,
    prev: usize,
    next: usize,
}

/// The cache proper. Not internally synchronized — the server wraps it in a
/// `Mutex` and keeps renders outside the critical section.
pub struct LruCache<V> {
    capacity: usize,
    max_bytes: usize,
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
    uncacheable: u64,
}

impl<V: Weighted> LruCache<V> {
    /// A cache bounded to `capacity` entries and `max_bytes` total weight.
    /// A zero `capacity` is raised to 1 (a cache that can hold nothing
    /// would make every `insert` an immediate eviction of itself).
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            max_bytes,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
            uncacheable: 0,
        }
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Weight resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Look up a key, promoting it to most-recently-used on a hit. Counts a
    /// hit or a miss.
    pub fn get(&mut self, key: &str) -> Option<Arc<V>> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.unlink(slot);
                self.link_front(slot);
                self.slots[slot].value.clone()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up a key without touching recency or the counters (tests).
    pub fn peek(&self, key: &str) -> Option<&Arc<V>> {
        self.map.get(key).and_then(|&slot| self.slots[slot].value.as_ref())
    }

    /// Every resident value, in no particular order, without touching
    /// recency or the counters.
    pub fn values(&self) -> impl Iterator<Item = &Arc<V>> {
        self.map.values().filter_map(|&slot| self.slots[slot].value.as_ref())
    }

    /// Insert (or replace) a value at most-recently-used, then evict from
    /// the least-recently-used end until both bounds hold again. A value
    /// that alone outweighs the byte bound is not cached at all.
    pub fn insert(&mut self, key: String, value: Arc<V>) {
        let weight = value.weight();
        if weight > self.max_bytes {
            self.uncacheable += 1;
            return;
        }
        self.insertions += 1;
        if let Some(&slot) = self.map.get(&key) {
            self.bytes = self.bytes - self.slots[slot].weight + weight;
            self.slots[slot].value = Some(value);
            self.slots[slot].weight = weight;
            self.unlink(slot);
            self.link_front(slot);
        } else {
            self.bytes += weight;
            let new = Slot { key: key.clone(), value: Some(value), weight, prev: NIL, next: NIL };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot] = new;
                    slot
                }
                None => {
                    self.slots.push(new);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, slot);
            self.link_front(slot);
        }
        while self.map.len() > self.capacity || self.bytes > self.max_bytes {
            if self.map.len() == 1 {
                break; // the sole (just-inserted) entry fits by the guard above
            }
            self.evict_tail();
        }
    }

    /// Keys from most- to least-recently-used (the oracle order in the
    /// property test).
    pub fn keys_most_recent_first(&self) -> Vec<String> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            keys.push(self.slots[cursor].key.clone());
            cursor = self.slots[cursor].next;
        }
        keys
    }

    /// Drop every entry whose key starts with `prefix`, returning how many
    /// were removed. Used when a graph is deleted or mutated: its cache keys
    /// all begin `{graph_id}|`, so one prefix sweep evicts exactly that
    /// graph's entries and nothing else. Counted as evictions.
    pub fn evict_prefix(&mut self, prefix: &str) -> usize {
        let doomed: Vec<usize> =
            self.map.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, &s)| s).collect();
        for &slot in &doomed {
            self.evict(slot);
        }
        doomed.len()
    }

    /// The current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            uncacheable: self.uncacheable,
            entries: self.map.len(),
            bytes: self.bytes,
            capacity: self.capacity,
            max_bytes: self.max_bytes,
        }
    }

    fn evict_tail(&mut self) {
        debug_assert_ne!(self.tail, NIL, "evict_tail on an empty cache");
        self.evict(self.tail);
    }

    /// Unlink `slot`, drop its value and put the slot on the free list.
    fn evict(&mut self, slot: usize) {
        self.unlink(slot);
        let key = std::mem::take(&mut self.slots[slot].key);
        self.bytes -= self.slots[slot].weight;
        self.slots[slot].value = None;
        self.map.remove(&key);
        self.free.push(slot);
        self.evictions += 1;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl<V> std::fmt::Debug for LruCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("entries", &self.map.len())
            .field("bytes", &self.bytes)
            .field("capacity", &self.capacity)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(n: usize) -> Arc<CachedArtifact> {
        Arc::new(CachedArtifact {
            bytes: Arc::new(vec![0xAB; n]),
            etag: etag_for_key(&format!("k{n}")),
            content_type: "image/svg+xml",
        })
    }

    #[test]
    fn etags_of_a_fixed_key_never_change() {
        // Clients hold ETags across server upgrades; a changed hash would
        // silently turn every conditional request into a full re-download.
        let key = "demo|terrain|gen=0|measure=kcore|budget=4000|levels=2|layout=default|mesh=default|color=height|svg=900x700|exporter=svg";
        assert_eq!(etag_for_key(key), "\"047949dbfb229adc\"");
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut cache = LruCache::new(2, 1 << 20);
        cache.insert("a".into(), artifact(1));
        cache.insert("b".into(), artifact(1));
        assert!(cache.get("a").is_some()); // promote a over b
        cache.insert("c".into(), artifact(1)); // evicts b
        assert_eq!(cache.keys_most_recent_first(), vec!["c", "a"]);
        assert!(cache.get("b").is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
    }

    #[test]
    fn byte_bound_evicts_and_oversized_entries_are_refused() {
        let mut cache = LruCache::new(100, 10);
        cache.insert("a".into(), artifact(6));
        cache.insert("b".into(), artifact(6)); // 12 bytes > 10: evicts a
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 6);
        cache.insert("huge".into(), artifact(11)); // alone over the bound
        assert!(cache.peek("huge").is_none());
        assert_eq!(cache.stats().uncacheable, 1);
        assert_eq!(cache.len(), 1, "refused insert must not evict residents");
    }

    #[test]
    fn replacement_updates_bytes_without_growing_entries() {
        let mut cache = LruCache::new(4, 100);
        cache.insert("a".into(), artifact(10));
        cache.insert("a".into(), artifact(20));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 20);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn prefix_eviction_removes_exactly_the_matching_keys() {
        let mut cache = LruCache::new(8, 1 << 20);
        cache.insert("g1|terrain|kcore".into(), artifact(3));
        cache.insert("g1|peaks|kcore".into(), artifact(4));
        cache.insert("g2|terrain|kcore".into(), artifact(5));
        assert_eq!(cache.evict_prefix("g1|"), 2);
        assert_eq!(cache.keys_most_recent_first(), vec!["g2|terrain|kcore"]);
        assert_eq!(cache.bytes(), 5, "evicted bodies must leave the byte count");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.evict_prefix("g1|"), 0, "a second sweep finds nothing");
        // The freed slots are reusable and the list survives the surgery.
        cache.insert("g3|terrain|kcore".into(), artifact(1));
        assert!(cache.get("g2|terrain|kcore").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn etags_are_quoted_stable_and_key_sensitive() {
        let a = etag_for_key("g1|terrain|kcore");
        let b = etag_for_key("g1|terrain|degree");
        assert!(a.starts_with('"') && a.ends_with('"') && a.len() == 18);
        assert_ne!(a, b);
        assert_eq!(a, etag_for_key("g1|terrain|kcore"));
    }
}
