//! Shared server state: the named-graph registry, the artifact cache, the
//! retained store, the single-flight slots, and the counters behind
//! `/stats`.
//!
//! One [`AppState`] is shared by every worker thread through an `Arc`. The
//! registry maps graph ids to [`SharedGraph`]s — uploading a v3 snapshot
//! registers a *mapped* graph whose CSR arrays live in one buffer that all
//! concurrent sessions borrow (an upload is stored once no matter how many
//! workers render from it); any other format parses into an owned graph
//! behind the same `Arc`. Locking is coarse but short: the registry is a
//! `RwLock` (reads vastly dominate), the artifact cache and the retained
//! store — two instances of one [`LruCache`] — a `Mutex` each, held only
//! for lookup/insert; renders, tree and scene builds and measure
//! computations always run outside every lock.
//!
//! The retained store keeps what a render starts from, per graph
//! generation: unsimplified super trees, capped render trees and tile
//! scenes, each a [`Retained`] variant. They share one entry
//! bound ([`RETAINED_ENTRIES`]), one byte budget ([`RETAINED_BYTES`]), one
//! flight table and one key scheme,
//! `"{id}|gen={generation}|{stage}|{params}"`, so one `"{id}|"` prefix
//! sweep evicts all of a graph's retained state. Each value is charged its
//! own arrays, so a render tree that fits its budget — the super tree's own
//! `Arc`, not a copy — is charged a second time under its own key: the
//! store's byte count errs high, never low.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crate::cache::{CachedArtifact, LruCache, Weighted};
use crate::error::ApiError;
use crate::flight::{SingleFlight, Source};
use graph_terrain::scalarfield::SuperScalarTree;
use graph_terrain::{Scene, SharedGraph, StageTimings};

/// Values the retained store holds at once, of every kind together.
pub const RETAINED_ENTRIES: usize = 64;

/// Byte bound of the retained store. A super tree or a render tree weighs
/// 32 bytes per node and 8 per vertex or edge
/// ([`SuperScalarTree::heap_bytes`]), so at the server's node cap of
/// 150 000 a render tree over the 10M rung's ~10M edges (~86 MB) still
/// fits. A render tree that fits its budget is the super tree itself and is
/// charged twice (once per key). A value alone above the budget is
/// `uncacheable` and is rebuilt by every request that needs it.
pub const RETAINED_BYTES: usize = 128 << 20;

/// One value of the retained store: a stage a render starts from, shared by
/// every session that starts from it.
#[derive(Clone, Debug)]
pub enum Retained {
    /// A tile scene over the unsimplified super tree.
    Scene(Arc<Scene>),
    /// The unsimplified super tree (Algorithm 2), which scenes and render
    /// trees start from.
    SuperTree(Arc<SuperScalarTree>),
    /// A render tree: the super tree snapped and capped at a node budget.
    RenderTree(Arc<SuperScalarTree>),
}

impl Retained {
    /// Which kind of value this is.
    pub fn kind(&self) -> RetainedKind {
        match self {
            Retained::Scene(_) => RetainedKind::Scene,
            Retained::SuperTree(_) => RetainedKind::SuperTree,
            Retained::RenderTree(_) => RetainedKind::RenderTree,
        }
    }
}

impl Weighted for Retained {
    /// The value's own arrays: a scene's items and index, a tree's arena.
    fn weight(&self) -> usize {
        match self {
            Retained::Scene(scene) => scene.heap_bytes(),
            Retained::SuperTree(tree) | Retained::RenderTree(tree) => tree.heap_bytes(),
        }
    }
}

/// The kinds of [`Retained`] values, each with its own `/stats` view.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RetainedKind {
    /// [`Retained::Scene`].
    Scene,
    /// [`Retained::SuperTree`].
    SuperTree,
    /// [`Retained::RenderTree`].
    RenderTree,
}

impl RetainedKind {
    /// The `{stage}` segment of the kind's store keys.
    pub fn stage(self) -> &'static str {
        match self {
            RetainedKind::Scene => "scene",
            RetainedKind::SuperTree => "super_tree",
            RetainedKind::RenderTree => "render_tree",
        }
    }
}

/// Per-kind counters of the retained store (`/stats` `scenes`,
/// `super_trees` and `render_trees`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RetainedStats {
    /// Values of the kind resident right now.
    pub entries: usize,
    /// Their summed weight.
    pub bytes: usize,
    /// Values built on a miss (single-flight waiters do not build).
    pub builds: u64,
    /// Lookups that found a resident value.
    pub hits: u64,
    /// Builds whose value alone outweighed the store's byte budget, so it
    /// was not kept.
    pub uncacheable: u64,
}

/// The atomic counters behind one kind's [`RetainedStats`].
#[derive(Default)]
struct KindCounters {
    builds: AtomicU64,
    hits: AtomicU64,
    uncacheable: AtomicU64,
}

/// Tunables fixed at server start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Artifact-cache entry bound.
    pub cache_entries: usize,
    /// Artifact-cache byte bound.
    pub cache_bytes: usize,
    /// Largest accepted request body (graph uploads).
    pub max_body_bytes: usize,
    /// Socket read timeout, also applied as the write timeout (bounds how
    /// long a silent client, or one that stops reading its response, can
    /// hold a worker).
    pub read_timeout: Duration,
    /// Accepted connections queued ahead of the workers before `accept`
    /// blocks.
    pub pending_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_entries: 128,
            cache_bytes: 64 << 20,
            max_body_bytes: 64 << 20,
            read_timeout: Duration::from_secs(10),
            pending_connections: 64,
        }
    }
}

/// One registered graph.
#[derive(Clone, Debug)]
pub struct GraphEntry {
    /// The registry id (path segment in `/graphs/{id}/...`).
    pub id: String,
    /// The graph itself, shared across sessions.
    pub graph: SharedGraph,
    /// A stamp unique to this entry across the server's life: every upload
    /// and every structural delta draws the next one from one registry-wide
    /// counter, so it grows with each mutation of the id and is never reused
    /// by a re-upload after a `DELETE`. Cache and scene keys embed it, so a
    /// new graph under an id changes every key — and with it every
    /// key-derived ETag — while the old graph's entries are evicted by id
    /// prefix. Without this, a client holding a pre-mutation ETag would keep
    /// getting `304 Not Modified` for bytes that no longer exist, and a
    /// build still running for a replaced graph would share its key with
    /// the graph that replaced it.
    pub generation: u64,
}

/// Per-stage wall-clock totals accumulated across every session the server
/// ran, reported by `/stats` (the served-traffic analog of the per-run
/// [`StageTimings`]). A retained value's stages are absorbed once, when it
/// is built, however many sessions start from it: a super tree's (scalar,
/// tree, super tree) however many scenes and render trees start from it, a
/// scene's however many tiles it serves, a render tree's (simplify) however
/// many terrains and peaks lists are rendered from it.
#[derive(Clone, Debug, Default)]
pub struct StageTotals {
    /// Artifacts rendered on a cache miss (one per miss that built its
    /// bytes; single-flight waiters do not render).
    pub renders: u64,
    /// Summed seconds per stage, in pipeline order.
    pub scalar_seconds: f64,
    /// Scalar-tree construction.
    pub tree_seconds: f64,
    /// Super-tree merge.
    pub super_tree_seconds: f64,
    /// Simplification.
    pub simplify_seconds: f64,
    /// 2D layout.
    pub layout_seconds: f64,
    /// Mesh extrusion.
    pub mesh_seconds: f64,
    /// SVG/exporter serialization.
    pub svg_seconds: f64,
    /// Retained LOD scene builds (tile and scene routes).
    pub scene_seconds: f64,
}

impl StageTotals {
    /// Fold one session's stage timings into the totals (`renders` is
    /// counted separately, per artifact).
    pub fn absorb(&mut self, t: &StageTimings) {
        self.scalar_seconds += t.scalar_seconds.unwrap_or(0.0);
        self.tree_seconds += t.tree_seconds.unwrap_or(0.0);
        self.super_tree_seconds += t.super_tree_seconds.unwrap_or(0.0);
        self.simplify_seconds += t.simplify_seconds.unwrap_or(0.0);
        self.layout_seconds += t.layout_seconds.unwrap_or(0.0);
        self.mesh_seconds += t.mesh_seconds.unwrap_or(0.0);
        self.svg_seconds += t.svg_seconds.unwrap_or(0.0);
        self.scene_seconds += t.scene_seconds.unwrap_or(0.0);
    }
}

/// Everything the workers share.
pub struct AppState {
    /// The start-time configuration (echoed by `/stats`).
    pub config: ServerConfig,
    registry: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    /// The artifact cache.
    pub cache: Mutex<LruCache<CachedArtifact>>,
    /// One render per missed artifact key, however many requests race it.
    pub artifact_flights: SingleFlight<Arc<CachedArtifact>>,
    /// The retained store: super trees, render trees and tile scenes, keyed `"{graph id}|gen={generation}|{stage}|{params}"`.
    pub retained: Mutex<LruCache<Retained>>,
    /// One build per missed retained key, whatever its kind. A render-tree
    /// or scene build fetches its super tree through the same table.
    pub retained_flights: SingleFlight<Arc<Retained>>,
    /// Builds, hits and refusals per [`RetainedKind`], in declaration order.
    retained_counters: [KindCounters; 3],
    /// Stage-seconds accumulated across cache-miss renders.
    pub stage_totals: Mutex<StageTotals>,
    next_id: AtomicU64,
    next_generation: AtomicU64,
    /// Requests that received a response (any status).
    pub requests_served: AtomicU64,
    /// Connections currently inside a worker.
    pub in_flight: AtomicU64,
    /// Responses with status >= 400.
    pub error_responses: AtomicU64,
    /// Connections dropped without a response (peer vanished).
    pub dropped_connections: AtomicU64,
    /// `304 Not Modified` responses served from `If-None-Match`.
    pub not_modified: AtomicU64,
}

impl AppState {
    /// Fresh state with an empty registry and cache.
    pub fn new(config: ServerConfig) -> Self {
        let cache = LruCache::new(config.cache_entries, config.cache_bytes);
        AppState {
            config,
            registry: RwLock::new(BTreeMap::new()),
            cache: Mutex::new(cache),
            artifact_flights: SingleFlight::default(),
            retained: Mutex::new(LruCache::new(RETAINED_ENTRIES, RETAINED_BYTES)),
            retained_flights: SingleFlight::default(),
            retained_counters: Default::default(),
            stage_totals: Mutex::new(StageTotals::default()),
            next_id: AtomicU64::new(1),
            next_generation: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            error_responses: AtomicU64::new(0),
            dropped_connections: AtomicU64::new(0),
            not_modified: AtomicU64::new(0),
        }
    }

    /// Register a graph under `id` (or an auto-assigned `g<n>` when `None`).
    /// Explicit ids must be `[A-Za-z0-9_-]{1,64}` and unused — an id
    /// collision is a 409, never a silent replace, because cache keys embed
    /// the id and a replaced graph would leave stale byte-exact entries
    /// behind.
    pub fn insert_graph(
        &self,
        id: Option<String>,
        graph: SharedGraph,
    ) -> Result<Arc<GraphEntry>, ApiError> {
        let mut registry = self.registry.write().expect("registry lock");
        let id = match id {
            Some(id) => {
                validate_graph_id(&id)?;
                if registry.contains_key(&id) {
                    return Err(ApiError::new(
                        409,
                        "graph_exists",
                        format!("graph id {id:?} is already registered"),
                    ));
                }
                id
            }
            None => loop {
                let candidate = format!("g{}", self.next_id.fetch_add(1, Ordering::Relaxed));
                if !registry.contains_key(&candidate) {
                    break candidate;
                }
            },
        };
        let entry = Arc::new(GraphEntry { id: id.clone(), graph, generation: self.generation() });
        registry.insert(id, Arc::clone(&entry));
        Ok(entry)
    }

    /// The next [`GraphEntry::generation`] (drawn with the registry's write
    /// lock held, so stamps grow in registration order).
    fn generation(&self) -> u64 {
        self.next_generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a graph by id.
    pub fn graph(&self, id: &str) -> Option<Arc<GraphEntry>> {
        self.registry.read().expect("registry lock").get(id).cloned()
    }

    /// Unregister a graph, returning the removed entry (`None` when the id
    /// was never registered). The caller owes an
    /// [`evict_graph`](Self::evict_graph) — a removed graph must not leave
    /// byte-exact artifacts answerable under its old id.
    pub fn remove_graph(&self, id: &str) -> Option<Arc<GraphEntry>> {
        self.registry.write().expect("registry lock").remove(id)
    }

    /// Swap the graph registered under `id` for a mutated successor (the
    /// delta path), returning the new entry or `None` when the id is not
    /// registered. Sessions holding the old `Arc` keep rendering the old
    /// graph unharmed; as with [`remove_graph`](Self::remove_graph), the
    /// caller must [`evict_graph`](Self::evict_graph) so stale bytes cannot
    /// be served for the mutated graph.
    pub fn replace_graph(&self, id: &str, graph: SharedGraph) -> Option<Arc<GraphEntry>> {
        let mut registry = self.registry.write().expect("registry lock");
        if !registry.contains_key(id) {
            return None;
        }
        let entry =
            Arc::new(GraphEntry { id: id.to_string(), graph, generation: self.generation() });
        registry.insert(id.to_string(), Arc::clone(&entry));
        Some(entry)
    }

    /// Evict everything held for graph `id` — its cached artifacts and its
    /// retained state, every key under the `"{id}|"` prefix — returning how
    /// many artifacts went.
    pub fn evict_graph(&self, id: &str) -> usize {
        let prefix = format!("{id}|");
        self.retained.lock().expect("retained lock").evict_prefix(&prefix);
        self.cache.lock().expect("cache lock").evict_prefix(&prefix)
    }

    /// Count one retained-store lookup of `kind` that ended in `source`,
    /// with the value it returned.
    pub fn record_retained(&self, kind: RetainedKind, source: Source, value: &Retained) {
        let counters = &self.retained_counters[kind as usize];
        match source {
            Source::Found => {
                counters.hits.fetch_add(1, Ordering::Relaxed);
            }
            Source::Built => {
                counters.builds.fetch_add(1, Ordering::Relaxed);
                let max_bytes = self.retained.lock().expect("retained lock").stats().max_bytes;
                if value.weight() > max_bytes {
                    counters.uncacheable.fetch_add(1, Ordering::Relaxed);
                }
            }
            Source::Waited => {}
        }
    }

    /// The `/stats` view of one kind of retained value.
    pub fn retained_stats(&self, kind: RetainedKind) -> RetainedStats {
        let (entries, bytes) = self
            .retained
            .lock()
            .expect("retained lock")
            .values()
            .filter(|value| value.kind() == kind)
            .fold((0, 0), |(entries, bytes), value| (entries + 1, bytes + value.weight()));
        let counters = &self.retained_counters[kind as usize];
        RetainedStats {
            entries,
            bytes,
            builds: counters.builds.load(Ordering::Relaxed),
            hits: counters.hits.load(Ordering::Relaxed),
            uncacheable: counters.uncacheable.load(Ordering::Relaxed),
        }
    }

    /// All registered graphs in id order.
    pub fn graphs(&self) -> Vec<Arc<GraphEntry>> {
        self.registry.read().expect("registry lock").values().cloned().collect()
    }
}

fn validate_graph_id(id: &str) -> Result<(), ApiError> {
    let ok = !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ApiError::invalid_parameter(
            "id",
            format!("graph id {id:?} must be 1-64 characters of [A-Za-z0-9_-]"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn tiny_graph() -> SharedGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0)]);
        SharedGraph::new(b.build())
    }

    #[test]
    fn auto_ids_skip_taken_names_and_explicit_conflicts_are_409() {
        let state = AppState::new(ServerConfig::default());
        state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        let auto = state.insert_graph(None, tiny_graph()).unwrap();
        assert_eq!(auto.id, "g2", "auto id must skip the taken g1");
        let err = state.insert_graph(Some("g1".into()), tiny_graph()).unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(state.graphs().len(), 2);
    }

    #[test]
    fn remove_and_replace_round_trip() {
        let state = AppState::new(ServerConfig::default());
        state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        assert!(state.replace_graph("missing", tiny_graph()).is_none());
        let replaced = state.replace_graph("g1", tiny_graph()).unwrap();
        assert_eq!((replaced.id.as_str(), replaced.generation), ("g1", 1));
        assert_eq!(state.replace_graph("g1", tiny_graph()).unwrap().generation, 2);
        assert!(state.remove_graph("g1").is_some());
        assert!(state.remove_graph("g1").is_none(), "second delete finds nothing");
        assert!(state.graph("g1").is_none());
        let reuploaded = state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        assert_eq!(reuploaded.generation, 3, "a re-upload never reuses a generation");
    }

    #[test]
    fn retained_values_weigh_their_arrays() {
        let mut session = graph_terrain::TerrainPipeline::from_shared(
            tiny_graph(),
            graph_terrain::Measure::Degree,
        );
        let super_tree = session.shared_super_tree().unwrap();
        let tree = session.shared_render_tree().unwrap();
        let scene = Arc::new(session.scene().unwrap().clone());
        // A triangle's degree field is flat: one node holding all three.
        assert_eq!(super_tree.node_count(), 1);
        assert_eq!(Retained::SuperTree(Arc::clone(&super_tree)).weight(), 32 + 3 * 8 + 8);
        assert_eq!(Retained::SuperTree(super_tree).kind(), RetainedKind::SuperTree);
        assert_eq!(Retained::RenderTree(Arc::clone(&tree)).weight(), tree.heap_bytes());
        // A scene is charged its quadtree index as well as its items.
        let items = std::mem::size_of_val(scene.items());
        assert!(scene.quadtree().heap_bytes() > 0);
        assert_eq!(Retained::Scene(scene.clone()).weight(), items + scene.quadtree().heap_bytes());
    }

    #[test]
    fn bad_ids_are_rejected_with_400() {
        let state = AppState::new(ServerConfig::default());
        for bad in ["", "has space", "slash/y", &"x".repeat(65)] {
            let err = state.insert_graph(Some(bad.to_string()), tiny_graph()).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?}");
        }
    }
}
