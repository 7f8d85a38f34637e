//! Retained tile scenes: a small LRU of built [`Scene`]s, so a tile or
//! scene miss renders from a scene already in memory instead of re-running
//! scalar → scalar tree → super tree → scene.
//!
//! Only scenes are retained, never the stages upstream of them. A scene is
//! built in a throwaway session and moved out of it
//! ([`TerrainPipeline::into_scene`](graph_terrain::TerrainPipeline::into_scene));
//! the session, with its scalar field and trees, is dropped before the
//! request ends. On the 1M R-MAT rung a scene holds a few dozen items, so
//! [`RETAINED_SCENES`] of them cost next to nothing, while retaining whole
//! sessions raised the terrain workload's peak RSS by a quarter (see
//! PERFORMANCE.md).
//!
//! Keys are `"{graph id}|gen={generation}|measure={canonical measure}"`:
//! a tile's bytes depend on nothing else (the layout and LOD configurations
//! are server-fixed and the chunk width is pinned). A structural delta or a
//! `DELETE` evicts the id's scenes by the `"{id}|"` prefix, next to its
//! cached artifacts.

use std::collections::VecDeque;
use std::sync::Arc;

use graph_terrain::Scene;

/// Scenes retained at once (most recently used first; the least recently
/// used one goes when a new scene arrives at the bound).
pub const RETAINED_SCENES: usize = 16;

/// A point-in-time snapshot of the scene counters, served by `/stats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SceneStats {
    /// Scenes resident right now.
    pub entries: usize,
    /// Scenes built and retained.
    pub builds: u64,
    /// Lookups answered by a retained scene.
    pub hits: u64,
}

/// The retained scenes. Not internally synchronized — the server wraps it in
/// a `Mutex` and builds scenes outside the critical section.
#[derive(Default)]
pub struct SceneCache {
    /// `(key, scene)`, most recently used first.
    entries: VecDeque<(String, Arc<Scene>)>,
    builds: u64,
    hits: u64,
}

impl SceneCache {
    /// Look up a scene, promoting it to most recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<Scene>> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(index).expect("position is in range");
        let scene = Arc::clone(&entry.1);
        self.entries.push_front(entry);
        self.hits += 1;
        Some(scene)
    }

    /// Retain a freshly built scene (counted as one build), dropping the
    /// least recently used one past [`RETAINED_SCENES`].
    pub fn insert(&mut self, key: String, scene: Arc<Scene>) {
        self.builds += 1;
        self.entries.retain(|(k, _)| *k != key);
        self.entries.push_front((key, scene));
        self.entries.truncate(RETAINED_SCENES);
    }

    /// Drop every scene whose key starts with `prefix`, returning how many
    /// went.
    pub fn evict_prefix(&mut self, prefix: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| !k.starts_with(prefix));
        before - self.entries.len()
    }

    /// Resident keys, most recently used first.
    pub fn keys(&self) -> Vec<String> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }

    /// The current counter values.
    pub fn stats(&self) -> SceneStats {
        SceneStats { entries: self.entries.len(), builds: self.builds, hits: self.hits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_terrain::{Measure, SharedGraph, TerrainPipeline};
    use ugraph::GraphBuilder;

    fn scene() -> Arc<Scene> {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0)]);
        let session = TerrainPipeline::from_shared(SharedGraph::new(b.build()), Measure::KCore);
        Arc::new(session.into_scene().unwrap())
    }

    #[test]
    fn lru_bound_recency_and_counters() {
        let mut cache = SceneCache::default();
        let shared = scene();
        for i in 0..=RETAINED_SCENES {
            cache.insert(format!("g|gen=0|measure=m{i}"), Arc::clone(&shared));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.builds, stats.hits), (RETAINED_SCENES, 17, 0));
        assert!(cache.get("g|gen=0|measure=m0").is_none(), "the oldest scene went");
        assert!(cache.get("g|gen=0|measure=m1").is_some());
        assert_eq!(cache.keys()[0], "g|gen=0|measure=m1", "a hit promotes");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn prefix_eviction_takes_exactly_one_graphs_scenes() {
        let mut cache = SceneCache::default();
        cache.insert("g1|gen=0|measure=kcore".into(), scene());
        cache.insert("g1|gen=0|measure=degree".into(), scene());
        cache.insert("g10|gen=0|measure=kcore".into(), scene());
        assert_eq!(cache.evict_prefix("g1|"), 2);
        assert_eq!(cache.keys(), vec!["g10|gen=0|measure=kcore"]);
        assert_eq!(cache.evict_prefix("g1|"), 0);
    }
}
