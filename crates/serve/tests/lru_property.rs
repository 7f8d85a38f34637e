//! Property test: the O(1) linked-list [`LruCache`] must behave exactly
//! like the obviously-correct model — a plain `Vec` kept in
//! most-recently-used order with both bounds enforced by scanning. Random
//! interleavings of `get`/`insert` over a small key space (so collisions,
//! replacements and evictions all actually happen) must agree on recency
//! order, eviction choice, capacity and byte bounds, and on every counter
//! the server's `/stats` endpoint reports.

use std::sync::Arc;

use proptest::prelude::*;
use serve::cache::{CacheStats, CachedArtifact, LruCache};

/// The trivially-correct reference implementation.
struct ModelCache {
    capacity: usize,
    max_bytes: usize,
    /// `(key, size)` in most-recently-used-first order.
    entries: Vec<(String, usize)>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity: usize, max_bytes: usize) -> Self {
        let capacity = capacity.max(1);
        ModelCache {
            capacity,
            max_bytes,
            entries: Vec::new(),
            stats: CacheStats { capacity, max_bytes, ..CacheStats::default() },
        }
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(|(_, size)| size).sum()
    }

    fn get(&mut self, key: &str) -> bool {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(idx) => {
                self.stats.hits += 1;
                let entry = self.entries.remove(idx);
                self.entries.insert(0, entry);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, key: &str, size: usize) {
        if size > self.max_bytes {
            self.stats.uncacheable += 1;
            return;
        }
        self.stats.insertions += 1;
        if let Some(idx) = self.entries.iter().position(|(k, _)| k == key) {
            self.entries.remove(idx);
        }
        self.entries.insert(0, (key.to_string(), size));
        while self.entries.len() > self.capacity || self.bytes() > self.max_bytes {
            if self.entries.len() == 1 {
                break;
            }
            self.entries.pop();
            self.stats.evictions += 1;
        }
    }

    fn finalized_stats(&self) -> CacheStats {
        CacheStats { entries: self.entries.len(), bytes: self.bytes(), ..self.stats }
    }
}

/// One scripted cache operation.
#[derive(Clone, Debug)]
enum Op {
    Get(u8),
    Insert(u8, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (selector, key, size): selector 0 reads, anything else writes — a
    // read-heavy mix would starve the eviction paths, so writes dominate.
    ((0u8..3), (0u8..12), (0usize..220)).prop_map(|(selector, key, size)| {
        if selector == 0 {
            Op::Get(key)
        } else {
            Op::Insert(key, size)
        }
    })
}

fn artifact(key: u8, size: usize) -> Arc<CachedArtifact> {
    Arc::new(CachedArtifact {
        bytes: Arc::new(vec![key; size]),
        etag: format!("\"{key:016x}\""),
        content_type: "image/svg+xml",
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_matches_the_model_oracle(
        capacity in 1usize..8,
        max_bytes in 1usize..600,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut real = LruCache::new(capacity, max_bytes);
        let mut model = ModelCache::new(capacity, max_bytes);

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Get(key) => {
                    let key = format!("k{key}");
                    let real_hit = real.get(&key).is_some();
                    let model_hit = model.get(&key);
                    prop_assert_eq!(real_hit, model_hit, "step {}: get({}) disagreement", step, key);
                }
                Op::Insert(key, size) => {
                    let name = format!("k{key}");
                    real.insert(name.clone(), artifact(*key, *size));
                    model.insert(&name, *size);
                }
            }
            // Full-state agreement after every step, not just at the end:
            // recency order pins both the eviction *choice* and promotion.
            let model_keys: Vec<String> =
                model.entries.iter().map(|(k, _)| k.clone()).collect();
            prop_assert_eq!(
                real.keys_most_recent_first(),
                model_keys,
                "step {}: recency order diverged",
                step
            );
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.bytes(), model.bytes());
            // The bounds are invariants, not just goals.
            prop_assert!(real.len() <= capacity.max(1));
            prop_assert!(real.bytes() <= max_bytes);
        }

        // Counter-for-counter agreement — these are the numbers /stats serves.
        prop_assert_eq!(real.stats(), model.finalized_stats());
    }

    #[test]
    fn cached_values_are_returned_intact(
        inserts in proptest::collection::vec(((0u8..6), (1usize..50)), 1..40),
    ) {
        // Generous bounds: nothing evicts, so every insert's latest value
        // must be readable back unchanged.
        let mut cache = LruCache::new(64, 1 << 20);
        for (key, size) in &inserts {
            cache.insert(format!("k{key}"), artifact(*key, *size));
        }
        let mut latest: std::collections::HashMap<u8, usize> = Default::default();
        for (key, size) in &inserts {
            latest.insert(*key, *size);
        }
        for (key, size) in latest {
            let got = cache.get(&format!("k{key}")).expect("nothing evicted");
            prop_assert_eq!(got.bytes.len(), size);
            prop_assert!(got.bytes.iter().all(|&b| b == key));
        }
    }
}
