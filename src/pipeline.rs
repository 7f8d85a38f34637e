//! The staged [`TerrainPipeline`] session — one fallible, cached,
//! parallelism-aware entry point for every terrain build.
//!
//! The paper's workflow is explicitly staged:
//!
//! ```text
//! scalar field ──► scalar tree ──► super tree ──► simplified ("render") tree
//!   (measure)      (Alg. 1 / 3)     (Alg. 2)         (Section II-E)
//!                                                        │
//!                              SVG ◄── 3D mesh ◄── 2D layout
//! ```
//!
//! A [`TerrainPipeline`] is a *session* over that chain: every stage output
//! is computed lazily on first demand, cached, and invalidated precisely when
//! a knob upstream of it changes. An analyst flipping a colormap pays for a
//! mesh re-color, not a tree rebuild:
//!
//! | mutator                 | recomputes                                  |
//! |-------------------------|---------------------------------------------|
//! | [`set_scalar`]          | everything                                  |
//! | [`set_simplification`]  | render tree, layout, mesh, SVG              |
//! | [`set_layout`]          | layout, mesh, SVG                           |
//! | [`set_mesh`] / [`set_color`] | mesh, SVG                              |
//! | [`set_svg_size`]        | SVG                                         |
//! | [`set_lod`]             | retained scene (tiles)                      |
//! | [`set_parallelism`]     | nothing (results are thread-count invariant)|
//!
//! The retained [`scene`] stage (the tile / pan-zoom payloads) hangs off
//! the *unsimplified* super tree, so [`set_simplification`] and the mesh /
//! SVG knobs never invalidate it; [`set_layout`] and anything that rebuilds
//! the tree do.
//!
//! [`set_scalar`]: TerrainPipeline::set_scalar
//! [`set_simplification`]: TerrainPipeline::set_simplification
//! [`set_layout`]: TerrainPipeline::set_layout
//! [`set_mesh`]: TerrainPipeline::set_mesh
//! [`set_color`]: TerrainPipeline::set_color
//! [`set_svg_size`]: TerrainPipeline::set_svg_size
//! [`set_lod`]: TerrainPipeline::set_lod
//! [`set_parallelism`]: TerrainPipeline::set_parallelism
//! [`scene`]: TerrainPipeline::scene
//!
//! Every stage accessor returns `Result<_, TerrainError>` — no stage panics
//! on bad input — and the session records wall-clock [`StageTimings`]
//! (the `tc` / `tv` split of the paper's Table II) as it computes.
//!
//! ```
//! use graph_terrain::{Measure, TerrainPipeline};
//!
//! let graph = ugraph::generators::barabasi_albert(200, 3, 7);
//! let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
//! let svg = session.svg().unwrap().to_string();
//! assert!(svg.starts_with("<svg"));
//!
//! // Re-coloring by degree rebuilds only the mesh stage; the tree and the
//! // layout are reused from cache.
//! let degrees: Vec<f64> = measures::degrees(&graph).iter().map(|&d| d as f64).collect();
//! session.set_color(terrain::ColorScheme::BySecondaryScalar(degrees));
//! assert!(session.svg().unwrap().starts_with("<svg"));
//! assert!(session.timings().tree_construction_seconds().is_some());
//! ```

use scalarfield::{
    build_super_tree, edge_scalar_tree, simplify_super_tree, vertex_scalar_tree, EdgeScalarGraph,
    ScalarTree, SuperScalarTree, VertexScalarGraph,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use terrain::{
    try_build_terrain_mesh, try_layout_super_tree, ColorScheme, Exporter, LayoutConfig, LodConfig,
    MeshConfig, RenderScene, Scene, SceneTiming, Svg, TerrainError, TerrainLayout, TerrainMesh,
    TerrainResult,
};
use ugraph::delta::{self, DeltaApplyStats, GraphDelta};
use ugraph::io::GraphSource;
use ugraph::par::Parallelism;
use ugraph::{CsrGraph, GraphStorage, MappedCsrGraph};

/// Whether a session's scalar field lives on vertices or on edges.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// One scalar per vertex (Algorithm 1 builds the tree).
    Vertex,
    /// One scalar per edge (Algorithm 3 builds the tree).
    Edge,
}

/// A built-in scalar field the pipeline can compute itself
/// ([`TerrainPipeline::from_measure`]), using the session's
/// [`Parallelism`] budget where the measure supports it.
///
/// Every measure is deterministic and thread-count invariant (the
/// [`ugraph::par`] guarantee), so changing the parallelism never changes the
/// terrain.
#[derive(Clone, Debug, PartialEq)]
pub enum Measure {
    /// K-Core number per vertex (Batagelj–Zaveršnik peeling).
    KCore,
    /// Degree per vertex.
    Degree,
    /// PageRank per vertex (default damping/tolerance).
    PageRank,
    /// Closeness centrality per vertex.
    Closeness,
    /// Brandes betweenness centrality per vertex, sampled over `samples`
    /// sources with `seed` (`samples >= n` falls back to the exact
    /// computation).
    BetweennessSampled {
        /// Number of sampled sources.
        samples: usize,
        /// RNG seed for the source sample.
        seed: u64,
    },
    /// K-Truss number per edge.
    KTruss,
    /// Triangle count per edge.
    EdgeTriangles,
}

impl Measure {
    /// Whether this measure produces a vertex or an edge scalar field.
    pub fn field_kind(&self) -> FieldKind {
        match self {
            Measure::KCore
            | Measure::Degree
            | Measure::PageRank
            | Measure::Closeness
            | Measure::BetweennessSampled { .. } => FieldKind::Vertex,
            Measure::KTruss | Measure::EdgeTriangles => FieldKind::Edge,
        }
    }

    /// Parse a measure from its request-facing name (the `measure` query
    /// parameter of the terrain server, case-insensitive): `"kcore"` /
    /// `"k-core"`, `"degree"`, `"pagerank"`, `"closeness"`,
    /// `"betweenness"` (sampled, with the defaults of
    /// [`Measure::BETWEENNESS_DEFAULT`]), `"ktruss"` / `"k-truss"`, and
    /// `"edge-triangles"` / `"triangles"`. `None` for anything else; the
    /// accepted names are [`Measure::known_names`].
    pub fn from_name(name: &str) -> Option<Measure> {
        match name.to_ascii_lowercase().as_str() {
            "kcore" | "k-core" => Some(Measure::KCore),
            "degree" => Some(Measure::Degree),
            "pagerank" => Some(Measure::PageRank),
            "closeness" => Some(Measure::Closeness),
            "betweenness" | "betweenness-sampled" => Some(Measure::BETWEENNESS_DEFAULT),
            "ktruss" | "k-truss" => Some(Measure::KTruss),
            "edge-triangles" | "triangles" => Some(Measure::EdgeTriangles),
            _ => None,
        }
    }

    /// The canonical names [`Measure::from_name`] accepts, one per
    /// measure, in the order the server and the docs list them — for error
    /// messages that must list the alternatives.
    pub fn known_names() -> &'static [&'static str] {
        &["kcore", "degree", "pagerank", "closeness", "betweenness", "ktruss", "edge-triangles"]
    }

    /// The sampled-betweenness setting [`Measure::from_name`] resolves
    /// `"betweenness"` to: 64 sources, seed 20170419 (the scale ladder's
    /// seed). `samples >= n` graphs fall back to the exact computation.
    pub const BETWEENNESS_DEFAULT: Measure =
        Measure::BetweennessSampled { samples: 64, seed: 20170419 };

    /// Short human-readable name (used in reports and logs).
    pub fn name(&self) -> &'static str {
        match self {
            Measure::KCore => "k-core",
            Measure::Degree => "degree",
            Measure::PageRank => "pagerank",
            Measure::Closeness => "closeness",
            Measure::BetweennessSampled { .. } => "betweenness(sampled)",
            Measure::KTruss => "k-truss",
            Measure::EdgeTriangles => "edge-triangles",
        }
    }

    fn compute(&self, graph: &dyn GraphStorage, parallelism: Parallelism) -> Vec<f64> {
        match self {
            Measure::KCore => {
                measures::core_numbers(graph).core.iter().map(|&c| c as f64).collect()
            }
            Measure::Degree => measures::degrees(graph).iter().map(|&d| d as f64).collect(),
            Measure::PageRank => {
                measures::pagerank_with(graph, &measures::PageRankConfig::default(), parallelism)
            }
            Measure::Closeness => measures::closeness_centrality_with(graph, parallelism),
            Measure::BetweennessSampled { samples, seed } => {
                measures::betweenness_centrality_sampled_with(graph, *samples, *seed, parallelism)
            }
            Measure::KTruss => measures::truss_numbers_with(graph, parallelism)
                .truss
                .iter()
                .map(|&t| t as f64)
                .collect(),
            Measure::EdgeTriangles => measures::edge_triangle_counts_with(graph, parallelism)
                .iter()
                .map(|&t| t as f64)
                .collect(),
        }
    }
}

/// The Section II-E simplification knob: super trees larger than
/// `node_budget` nodes are discretized to `levels` scalar levels before
/// rendering, and if the snapped tree is still over budget its lightest
/// components are folded, in the same pass
/// ([`scalarfield::simplify_super_tree`]), so the render tree never exceeds
/// `node_budget` nodes. Smaller trees render as-is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimplificationConfig {
    /// Hard cap on the render tree's node count (`None` = never simplify).
    /// Trees within it render unsimplified; `Some(0)` is rejected at the
    /// render-tree stage.
    pub node_budget: Option<usize>,
    /// Number of evenly spaced scalar levels to snap to when simplifying
    /// (must be at least 1; whenever `node_budget` is set, zero is rejected
    /// at the render-tree stage, whatever the tree's size).
    pub levels: usize,
}

impl Default for SimplificationConfig {
    fn default() -> Self {
        SimplificationConfig { node_budget: Some(4_000), levels: 64 }
    }
}

impl SimplificationConfig {
    /// Never simplify, regardless of tree size.
    pub fn disabled() -> Self {
        SimplificationConfig { node_budget: None, levels: 64 }
    }
}

/// Output size of the rendered SVG, in pixels.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SvgSize {
    /// Width in pixels.
    pub width_px: f64,
    /// Height in pixels.
    pub height_px: f64,
}

impl Default for SvgSize {
    fn default() -> Self {
        SvgSize { width_px: 900.0, height_px: 700.0 }
    }
}

impl SvgSize {
    /// An explicit size.
    pub fn new(width_px: f64, height_px: f64) -> Self {
        SvgSize { width_px, height_px }
    }

    fn validate(&self) -> TerrainResult<()> {
        for (name, v) in [("width_px", self.width_px), ("height_px", self.height_px)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(TerrainError::Config {
                    what: "svg size",
                    message: format!("{name} must be finite and positive, got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// Wall-clock seconds spent in each stage of a session, filled in as stages
/// compute. A stage served from cache keeps the timing of the run that built
/// it; an invalidated stage resets to `None` until recomputed.
///
/// The Table II mapping: [`tree_construction_seconds`](Self::tree_construction_seconds)
/// is `tc`, [`visualization_seconds`](Self::visualization_seconds) is `tv`
/// (the naive dual-graph baseline `te` is timed outside the session, by
/// `bench::naive_edge_tree_seconds`).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Computing the scalar field (`None` for user-provided scalars).
    pub scalar_seconds: Option<f64>,
    /// Building the scalar tree (Algorithm 1 or 3, incl. field validation).
    pub tree_seconds: Option<f64>,
    /// Merging into the super tree (Algorithm 2).
    pub super_tree_seconds: Option<f64>,
    /// Deciding on / applying the Section II-E simplification.
    pub simplify_seconds: Option<f64>,
    /// The nested 2D boundary layout.
    pub layout_seconds: Option<f64>,
    /// The 3D mesh extrusion (incl. coloring).
    pub mesh_seconds: Option<f64>,
    /// SVG serialization: the [`svg`](TerrainPipeline::svg) stage, or the
    /// latest `render_to` / `render_deterministic_to` write (any backend).
    pub svg_seconds: Option<f64>,
    /// The retained LOD scene build (layout pass + quadtree index).
    pub scene_seconds: Option<f64>,
}

impl StageTimings {
    /// Table II's `tc`: scalar tree + super tree construction. `None` until
    /// both stages have run.
    pub fn tree_construction_seconds(&self) -> Option<f64> {
        Some(self.tree_seconds? + self.super_tree_seconds?)
    }

    /// Table II's `tv`: simplification + layout + mesh + SVG serialization.
    /// `None` until all four stages have run.
    pub fn visualization_seconds(&self) -> Option<f64> {
        Some(self.simplify_seconds? + self.layout_seconds? + self.mesh_seconds? + self.svg_seconds?)
    }
}

/// A borrowed view of every structural stage of a session at once, for
/// callers that need the tree *and* the layout (peak queries, treemaps)
/// without fighting the borrow checker over repeated `&mut` accessors.
#[derive(Copy, Clone, Debug)]
pub struct TerrainStages<'a> {
    /// The full super scalar tree (before simplification).
    pub super_tree: &'a SuperScalarTree,
    /// The tree actually rendered (simplified iff over the node budget).
    pub render_tree: &'a SuperScalarTree,
    /// The 2D layout of the render tree.
    pub layout: &'a TerrainLayout,
    /// The 3D mesh of the render tree.
    pub mesh: &'a TerrainMesh,
}

/// A reference-counted, shareable graph backend — the unit a multi-session
/// registry (like the terrain server's `GraphStore` registry) hands out.
///
/// Cloning is an `Arc` bump: every session started from the same
/// `SharedGraph` reads the same owned CSR arrays or the same kernel memory
/// mapping, so N concurrent sessions over one 10M-edge snapshot cost one
/// graph, not N.
#[derive(Clone)]
pub enum SharedGraph {
    /// A heap-owned CSR graph (ingested through a [`GraphSource`] or built
    /// in memory).
    Owned(Arc<CsrGraph>),
    /// A binary v3 snapshot served by [`MappedCsrGraph`] — zero-copy where
    /// the platform allows it.
    Mapped(Arc<MappedCsrGraph>),
}

impl SharedGraph {
    /// Wrap an owned graph for sharing.
    pub fn new(graph: CsrGraph) -> Self {
        SharedGraph::Owned(Arc::new(graph))
    }

    /// Open a binary v3 snapshot memory-mapped (heap fallback where mapping
    /// is unavailable), fully validated — see [`MappedCsrGraph::open`].
    pub fn open_mapped(path: impl AsRef<Path>) -> TerrainResult<Self> {
        Ok(SharedGraph::Mapped(Arc::new(MappedCsrGraph::open(path.as_ref())?)))
    }

    /// Validate an in-memory binary v3 snapshot and wrap it for sharing —
    /// the upload path of a server that receives snapshot bytes over the
    /// wire and never touches disk.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> TerrainResult<Self> {
        Ok(SharedGraph::Mapped(Arc::new(MappedCsrGraph::from_bytes(bytes)?)))
    }

    /// The graph as an abstract [`GraphStorage`] view.
    pub fn storage(&self) -> &dyn GraphStorage {
        match self {
            SharedGraph::Owned(graph) => &**graph,
            SharedGraph::Mapped(graph) => &**graph,
        }
    }

    /// Short backend discriminator (`"owned"` / `"mapped"`), for stats and
    /// registry listings.
    pub fn backend_name(&self) -> &'static str {
        match self {
            SharedGraph::Owned(_) => "owned",
            SharedGraph::Mapped(_) => "mapped",
        }
    }

    /// Whether the graph is served from a live kernel memory map.
    pub fn is_memory_mapped(&self) -> bool {
        match self {
            SharedGraph::Owned(_) => false,
            SharedGraph::Mapped(graph) => graph.is_memory_mapped(),
        }
    }

    /// Apply a [`GraphDelta`] copy-on-write: when the batch changes the
    /// graph (an edge's presence toggled, or a new vertex was mentioned),
    /// the compacted result replaces `self` as a fresh owned graph — other
    /// `Arc` holders keep reading the old one. A batch of pure no-ops
    /// (redundant inserts, absent deletes, reweights) leaves the backend
    /// untouched, so a memory-mapped snapshot stays mapped. Sessions do not
    /// cross a batch themselves: start a fresh one on the new graph.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> DeltaApplyStats {
        let (stats, compacted) = delta::apply(self.storage(), delta);
        if let Some(graph) = compacted {
            *self = SharedGraph::new(graph);
        }
        stats
    }
}

impl std::fmt::Debug for SharedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedGraph")
            .field("backend", &self.backend_name())
            .field("vertices", &self.storage().vertex_count())
            .field("edges", &self.storage().edge_count())
            .finish()
    }
}

/// How a session holds its graph: borrowed from the caller (the historical
/// constructors) or shared/owned via a [`SharedGraph`] (sessions started
/// from a [`GraphSource`], a mapped snapshot, or a registry).
#[derive(Clone)]
enum GraphStore<'g> {
    Borrowed(&'g dyn GraphStorage),
    Shared(SharedGraph),
}

impl GraphStore<'_> {
    fn get(&self) -> &dyn GraphStorage {
        match self {
            GraphStore::Borrowed(graph) => *graph,
            GraphStore::Shared(graph) => graph.storage(),
        }
    }
}

// Manual `Debug`: `&dyn GraphStorage` carries no `Debug` bound, and the
// interesting facts are the backend kind and the graph size anyway.
impl std::fmt::Debug for GraphStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            GraphStore::Borrowed(_) => "borrowed",
            GraphStore::Shared(graph) => graph.backend_name(),
        };
        let graph = self.get();
        f.debug_struct("GraphStore")
            .field("kind", &kind)
            .field("vertices", &graph.vertex_count())
            .field("edges", &graph.edge_count())
            .finish()
    }
}

/// A staged, cached terrain-build session over one graph.
///
/// The stage/invalidation contract: every stage output (scalar field, scalar
/// tree, super tree, render tree, layout, mesh, SVG) is computed lazily on
/// first demand and cached; each `set_*` knob invalidates exactly the stages
/// downstream of it ([`set_color`](Self::set_color) rebuilds only the mesh
/// coloring, [`set_simplification`](Self::set_simplification) reuses the
/// super tree, [`set_scalar`](Self::set_scalar) reuses nothing).
///
/// Construct with [`TerrainPipeline::vertex`], [`TerrainPipeline::edge`]
/// (explicit scalar fields, validated up front),
/// [`TerrainPipeline::from_measure`] (the session computes the field itself,
/// lazily, under the session's [`Parallelism`] budget) or
/// [`TerrainPipeline::from_source`] (ingest a graph from disk or any reader
/// through [`GraphSource`]). Artifacts stream out through any
/// [`Exporter`] backend via [`render_to`](Self::render_to) /
/// [`write_artifact`](Self::write_artifact).
#[derive(Clone, Debug)]
pub struct TerrainPipeline<'g> {
    graph: GraphStore<'g>,
    field: FieldKind,
    measure: Option<Measure>,
    parallelism: Parallelism,
    simplification: SimplificationConfig,
    layout_config: LayoutConfig,
    mesh_config: MeshConfig,
    svg_size: SvgSize,
    lod_config: LodConfig,
    // Stage caches, upstream to downstream. The super tree and the render
    // tree are shared: `from_shared_super_tree` and `from_shared_render_tree`
    // sessions start from a stage someone else computed, and
    // `shared_super_tree` / `shared_render_tree` hand them back out. Within
    // budget the render tree is the super tree's own `Arc`, never a clone.
    // A session started from a tree has nothing upstream of it (no scalar
    // field or scalar tree, and no super tree under a render tree) until
    // such a stage is asked for.
    scalar: Option<Vec<f64>>,
    scalar_tree: Option<ScalarTree>,
    super_tree: Option<Arc<SuperScalarTree>>,
    render_tree: Option<Arc<SuperScalarTree>>,
    layout: Option<TerrainLayout>,
    mesh: Option<TerrainMesh>,
    svg: Option<String>,
    // The retained LOD scene is a side stage off the *unsimplified* super
    // tree: simplification and the mesh/SVG knobs never invalidate it.
    scene: Option<Scene>,
    timings: StageTimings,
}

impl<'g> TerrainPipeline<'g> {
    fn new(graph: GraphStore<'g>, field: FieldKind) -> Self {
        TerrainPipeline {
            graph,
            field,
            measure: None,
            parallelism: Parallelism::Serial,
            simplification: SimplificationConfig::default(),
            layout_config: LayoutConfig::default(),
            mesh_config: MeshConfig::default(),
            svg_size: SvgSize::default(),
            lod_config: LodConfig::default(),
            scalar: None,
            scalar_tree: None,
            super_tree: None,
            render_tree: None,
            layout: None,
            mesh: None,
            svg: None,
            scene: None,
            timings: StageTimings::default(),
        }
    }

    /// Start a session over a vertex scalar field. The field is validated up
    /// front (one finite entry per vertex), so every later stage can assume a
    /// totally ordered scalar.
    pub fn vertex(graph: &'g dyn GraphStorage, scalar: Vec<f64>) -> TerrainResult<Self> {
        VertexScalarGraph::new(graph, &scalar)?;
        let mut p = Self::new(GraphStore::Borrowed(graph), FieldKind::Vertex);
        p.scalar = Some(scalar);
        Ok(p)
    }

    /// Start a session over an edge scalar field (validated up front: one
    /// finite entry per edge).
    pub fn edge(graph: &'g dyn GraphStorage, scalar: Vec<f64>) -> TerrainResult<Self> {
        EdgeScalarGraph::new(graph, &scalar)?;
        let mut p = Self::new(GraphStore::Borrowed(graph), FieldKind::Edge);
        p.scalar = Some(scalar);
        Ok(p)
    }

    /// Start a session whose scalar field is a built-in [`Measure`], computed
    /// lazily on first demand under the session's current [`Parallelism`]
    /// budget. Infallible: the measure always produces a valid field.
    pub fn from_measure(graph: &'g dyn GraphStorage, measure: Measure) -> Self {
        let mut p = Self::new(GraphStore::Borrowed(graph), measure.field_kind());
        p.measure = Some(measure);
        p
    }

    /// Ingest a graph through a [`GraphSource`] and start a measure session
    /// over it. The session *owns* the loaded graph, so it has no borrow tie
    /// to the caller (`TerrainPipeline<'static>`).
    ///
    /// Per-edge weights carried by the input are not consumed by the built-in
    /// measures; to build a terrain over file weights, load via
    /// [`GraphSource::load`] and hand the weights to
    /// [`TerrainPipeline::edge`].
    ///
    /// ```no_run
    /// use graph_terrain::{Measure, TerrainPipeline};
    /// use terrain::Svg;
    /// use ugraph::io::GraphSource;
    ///
    /// let mut session =
    ///     TerrainPipeline::from_source(GraphSource::path("astro.csv"), Measure::KCore)?;
    /// session.write_artifact(&Svg::default(), "astro_kcore.svg")?;
    /// # Ok::<(), graph_terrain::TerrainError>(())
    /// ```
    pub fn from_source(
        source: GraphSource<'_>,
        measure: Measure,
    ) -> TerrainResult<TerrainPipeline<'static>> {
        let parsed = source.load()?;
        Ok(Self::from_shared(SharedGraph::new(parsed.graph), measure))
    }

    /// Start a measure session over a [`SharedGraph`] — the entry point for
    /// multi-session callers (the terrain server's graph registry): the
    /// session holds an `Arc` clone, so any number of concurrent sessions
    /// share one set of CSR arrays (or one kernel mapping). Like
    /// [`from_source`](Self::from_source) the session has no borrow tie to
    /// the caller.
    pub fn from_shared(graph: SharedGraph, measure: Measure) -> TerrainPipeline<'static> {
        let mut p = TerrainPipeline::new(GraphStore::Shared(graph), measure.field_kind());
        p.measure = Some(measure);
        p
    }

    /// [`from_shared`](Self::from_shared) with the render tree already built
    /// under `simplification` — typically handed out earlier by
    /// [`shared_render_tree`](Self::shared_render_tree) of a session over
    /// the same graph and measure, so a cache of render trees can skip the
    /// scalar tree, the super tree and the simplification: the layout, mesh
    /// and artifact are built straight from `render_tree`. The tree is
    /// checked against the graph (one member per vertex or edge, by the
    /// measure's field kind) and against the budget, but not rebuilt: the
    /// caller vouches that it *is* the render tree of `measure` on `graph`
    /// under `simplification`. A stage upstream of the render tree
    /// ([`scalar`](Self::scalar), [`super_tree`](Self::super_tree),
    /// [`scene`](Self::scene), [`stages`](Self::stages)) or a new
    /// simplification computes the chain from the measure on demand. The
    /// tree, super tree and simplify timings stay `None`.
    pub fn from_shared_render_tree(
        graph: SharedGraph,
        measure: Measure,
        simplification: SimplificationConfig,
        render_tree: Arc<SuperScalarTree>,
    ) -> TerrainResult<TerrainPipeline<'static>> {
        let mut p = Self::from_shared(graph, measure);
        p.check_tree_elements("render tree", &render_tree)?;
        let nodes = render_tree.node_count();
        if let Some(budget) = simplification.node_budget.filter(|&budget| nodes > budget) {
            return Err(TerrainError::Config {
                what: "render tree",
                message: format!("the render tree has {nodes} nodes, over the budget of {budget}"),
            });
        }
        p.simplification = simplification;
        p.render_tree = Some(render_tree);
        Ok(p)
    }

    /// [`from_shared`](Self::from_shared) with the unsimplified super tree
    /// already built — typically handed out earlier by
    /// [`shared_super_tree`](Self::shared_super_tree) of a session over the
    /// same graph and measure, so a cache of super trees can skip the scalar
    /// field and Algorithms 1 and 2: the [`scene`](Self::scene) and the
    /// render tree at any simplification start from `super_tree`. The tree
    /// is checked against the graph (one member per vertex or edge, by the
    /// measure's field kind) but not rebuilt: the caller vouches that it
    /// *is* the super tree of `measure` on `graph`. [`scalar`](Self::scalar)
    /// and [`scalar_tree`](Self::scalar_tree) compute from the measure on
    /// demand. The tree and super tree timings stay `None`.
    pub fn from_shared_super_tree(
        graph: SharedGraph,
        measure: Measure,
        super_tree: Arc<SuperScalarTree>,
    ) -> TerrainResult<TerrainPipeline<'static>> {
        let mut p = Self::from_shared(graph, measure);
        p.check_tree_elements("super tree", &super_tree)?;
        p.super_tree = Some(super_tree);
        Ok(p)
    }

    /// Open a binary v3 snapshot as a memory-mapped graph and start a measure
    /// session over it without deserializing the CSR arrays — the session
    /// reads them zero-copy straight out of the page cache (see
    /// [`MappedCsrGraph`]). Like [`from_source`](Self::from_source) the
    /// session owns its storage, so it has no borrow tie to the caller.
    ///
    /// The snapshot is fully validated at open (checksum, section framing,
    /// CSR invariants); v1/v2 snapshots and corrupt files are rejected with a
    /// [`TerrainError`], never a panic.
    ///
    /// ```no_run
    /// use graph_terrain::{Measure, TerrainPipeline};
    /// use terrain::Svg;
    ///
    /// let mut session = TerrainPipeline::open_mapped("astro.gtsb", Measure::KCore)?;
    /// session.write_artifact(&Svg::default(), "astro_kcore.svg")?;
    /// # Ok::<(), graph_terrain::TerrainError>(())
    /// ```
    pub fn open_mapped(
        path: impl AsRef<Path>,
        measure: Measure,
    ) -> TerrainResult<TerrainPipeline<'static>> {
        Ok(Self::from_shared(SharedGraph::open_mapped(path)?, measure))
    }

    // ------------------------------------------------------------------
    // Knobs. Each setter invalidates exactly the stages downstream of it.
    // ------------------------------------------------------------------

    /// Set the thread budget for measure computation. Never invalidates
    /// anything: every measure is bit-identical across thread counts (the
    /// [`ugraph::par`] contract), so parallelism is pure wall-clock.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) -> &mut Self {
        self.parallelism = parallelism;
        self
    }

    /// Replace the scalar field (validated against the session's field kind).
    /// Invalidates every stage; a session started with
    /// [`from_measure`](Self::from_measure) becomes an explicit-scalar
    /// session.
    pub fn set_scalar(&mut self, scalar: Vec<f64>) -> TerrainResult<&mut Self> {
        self.validate_scalar(&scalar)?;
        self.measure = None;
        self.scalar = Some(scalar);
        self.timings.scalar_seconds = None;
        self.invalidate_from_tree();
        Ok(self)
    }

    /// Set the Section II-E simplification budget. Reuses the cached super
    /// tree; rebuilds render tree, layout, mesh and SVG on next demand.
    pub fn set_simplification(&mut self, simplification: SimplificationConfig) -> &mut Self {
        self.simplification = simplification;
        self.invalidate_from_render_tree();
        self
    }

    /// Set the 2D layout configuration (validated at the layout stage).
    /// Rebuilds layout, mesh, SVG and the retained scene on next demand
    /// (the scene's LOD pass runs in the same layout space).
    pub fn set_layout(&mut self, config: LayoutConfig) -> &mut Self {
        self.layout_config = config;
        self.invalidate_from_layout();
        self.invalidate_scene();
        self
    }

    /// Set the full mesh configuration (validated at the mesh stage).
    /// Rebuilds mesh and SVG on next demand.
    pub fn set_mesh(&mut self, config: MeshConfig) -> &mut Self {
        self.mesh_config = config;
        self.invalidate_from_mesh();
        self
    }

    /// Change only the coloring scheme, keeping the rest of the mesh
    /// configuration. Rebuilds mesh and SVG on next demand — the tree and
    /// layout are reused from cache.
    pub fn set_color(&mut self, color: ColorScheme) -> &mut Self {
        self.mesh_config.color = color;
        self.invalidate_from_mesh();
        self
    }

    /// Set the SVG output size. Re-serializes only the SVG on next demand.
    pub fn set_svg_size(&mut self, size: SvgSize) -> &mut Self {
        self.svg_size = size;
        self.svg = None;
        self.timings.svg_seconds = None;
        self
    }

    /// Set the scene level-of-detail configuration (validated immediately).
    /// Rebuilds only the retained [`scene`](Self::scene) on next demand —
    /// the structural stages and the mesh/SVG artifacts are untouched.
    pub fn set_lod(&mut self, config: LodConfig) -> TerrainResult<&mut Self> {
        config.validate()?;
        self.lod_config = config;
        self.invalidate_scene();
        Ok(self)
    }

    /// One finite entry per vertex or edge, by the session's field kind.
    fn validate_scalar(&self, scalar: &[f64]) -> TerrainResult<()> {
        match self.field {
            FieldKind::Vertex => {
                VertexScalarGraph::new(self.graph.get(), scalar)?;
            }
            FieldKind::Edge => {
                EdgeScalarGraph::new(self.graph.get(), scalar)?;
            }
        }
        Ok(())
    }

    /// A handed-in tree must have one member per vertex or edge, by the
    /// session's field kind.
    fn check_tree_elements(&self, what: &'static str, tree: &SuperScalarTree) -> TerrainResult<()> {
        let elements = match self.field {
            FieldKind::Vertex => self.graph.get().vertex_count(),
            FieldKind::Edge => self.graph.get().edge_count(),
        };
        if tree.element_count() != elements {
            return Err(TerrainError::Config {
                what,
                message: format!(
                    "the {what} covers {} elements but the graph has {elements}",
                    tree.element_count()
                ),
            });
        }
        Ok(())
    }

    fn invalidate_from_tree(&mut self) {
        self.scalar_tree = None;
        self.super_tree = None;
        self.timings.tree_seconds = None;
        self.timings.super_tree_seconds = None;
        self.invalidate_scene();
        self.invalidate_from_render_tree();
    }

    fn invalidate_from_render_tree(&mut self) {
        self.render_tree = None;
        self.timings.simplify_seconds = None;
        self.invalidate_from_layout();
    }

    fn invalidate_from_layout(&mut self) {
        self.layout = None;
        self.timings.layout_seconds = None;
        self.invalidate_from_mesh();
    }

    fn invalidate_from_mesh(&mut self) {
        self.mesh = None;
        self.timings.mesh_seconds = None;
        self.svg = None;
        self.timings.svg_seconds = None;
    }

    /// The retained scene is invalidated by tree rebuilds and layout
    /// changes only — deliberately *not* part of the render-tree chain,
    /// because it is built from the unsimplified super tree.
    fn invalidate_scene(&mut self) {
        self.scene = None;
        self.timings.scene_seconds = None;
    }

    // ------------------------------------------------------------------
    // Read-only session info.
    // ------------------------------------------------------------------

    /// The graph this session builds over, as an abstract [`GraphStorage`]
    /// view — borrowed, session-owned, or memory-mapped.
    pub fn graph(&self) -> &dyn GraphStorage {
        self.graph.get()
    }

    /// Whether the session's graph is served from a live kernel memory map
    /// (only possible for [`open_mapped`](Self::open_mapped) sessions on
    /// platforms where mapping succeeded).
    pub fn is_memory_mapped(&self) -> bool {
        match &self.graph {
            GraphStore::Shared(graph) => graph.is_memory_mapped(),
            GraphStore::Borrowed(_) => false,
        }
    }

    /// Whether this is a vertex- or an edge-scalar session.
    pub fn field_kind(&self) -> FieldKind {
        self.field
    }

    /// The session's current thread budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The current simplification configuration.
    pub fn simplification(&self) -> SimplificationConfig {
        self.simplification
    }

    /// Per-stage wall-clock timings recorded so far (see [`StageTimings`]).
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    // ------------------------------------------------------------------
    // Stage accessors: lazy, cached, fallible.
    // ------------------------------------------------------------------

    /// The scalar field (stage 0). Computes the measure on first demand for
    /// [`from_measure`](Self::from_measure) sessions.
    pub fn scalar(&mut self) -> TerrainResult<&[f64]> {
        self.ensure_scalar()?;
        Ok(self.scalar.as_deref().expect("ensured"))
    }

    /// The scalar tree (Algorithm 1 for vertex fields, Algorithm 3 for edge
    /// fields).
    pub fn scalar_tree(&mut self) -> TerrainResult<&ScalarTree> {
        self.ensure_scalar_tree()?;
        Ok(self.scalar_tree.as_ref().expect("ensured"))
    }

    /// The super scalar tree (Algorithm 2), before any simplification.
    pub fn super_tree(&mut self) -> TerrainResult<&SuperScalarTree> {
        self.ensure_super_tree()?;
        Ok(self.super_tree.as_deref().expect("ensured"))
    }

    /// The super tree as a shared handle, building it on first demand like
    /// [`super_tree`](Self::super_tree). The handle is the session's own
    /// tree, not a copy: hand it to
    /// [`from_shared_super_tree`](Self::from_shared_super_tree) to start
    /// another session over the same graph and measure without running
    /// Algorithms 1 and 2 again.
    pub fn shared_super_tree(&mut self) -> TerrainResult<Arc<SuperScalarTree>> {
        self.ensure_super_tree()?;
        Ok(Arc::clone(self.super_tree.as_ref().expect("ensured")))
    }

    /// The tree the terrain is rendered from: the super tree itself when it
    /// fits the [`SimplificationConfig::node_budget`], otherwise the
    /// simplified tree, snapped to `levels` and then capped at the budget by
    /// folding its lightest components. Either way it has at most
    /// `node_budget` nodes.
    pub fn render_tree(&mut self) -> TerrainResult<&SuperScalarTree> {
        self.ensure_render_tree()?;
        Ok(self.render_tree_ref())
    }

    /// The render tree as a shared handle, building it on first demand like
    /// [`render_tree`](Self::render_tree). The handle is the session's own
    /// tree, not a copy (within budget, the super tree itself): hand it to
    /// [`from_shared_render_tree`](Self::from_shared_render_tree) to start
    /// another session over the same graph, measure and simplification
    /// without rebuilding the tree chain.
    pub fn shared_render_tree(&mut self) -> TerrainResult<Arc<SuperScalarTree>> {
        self.ensure_render_tree()?;
        Ok(Arc::clone(self.render_tree.as_ref().expect("ensured")))
    }

    /// The nested 2D boundary layout of the render tree.
    pub fn layout(&mut self) -> TerrainResult<&TerrainLayout> {
        self.ensure_layout()?;
        Ok(self.layout.as_ref().expect("ensured"))
    }

    /// The 3D terrain mesh of the render tree.
    pub fn mesh(&mut self) -> TerrainResult<&TerrainMesh> {
        self.ensure_mesh()?;
        Ok(self.mesh.as_ref().expect("ensured"))
    }

    /// The rendered SVG document.
    pub fn svg(&mut self) -> TerrainResult<&str> {
        self.ensure_svg()?;
        Ok(self.svg.as_deref().expect("ensured"))
    }

    /// The retained level-of-detail scene over the **unsimplified** super
    /// tree — the stage tile and pan/zoom payloads are served from (see
    /// [`terrain::Scene`]). Built lazily on first demand; invalidated by
    /// tree rebuilds ([`set_scalar`](Self::set_scalar)),
    /// [`set_layout`](Self::set_layout) and [`set_lod`](Self::set_lod), but
    /// *not* by
    /// [`set_simplification`](Self::set_simplification) or any mesh / SVG
    /// knob: a tile's bytes depend only on the graph, the measure, the
    /// layout and the LOD configuration.
    pub fn scene(&mut self) -> TerrainResult<&Scene> {
        self.ensure_scene()?;
        Ok(self.scene.as_ref().expect("ensured"))
    }

    /// Consume the session and hand over its retained [`scene`](Self::scene),
    /// building it first if needed. The scene is moved out, not cloned; the
    /// scalar field, the trees and every other stage are dropped with the
    /// session. Read [`timings`](Self::timings) before calling this if the
    /// build's stage times matter.
    pub fn into_scene(mut self) -> TerrainResult<Scene> {
        self.ensure_scene()?;
        Ok(self.scene.take().expect("ensured"))
    }

    /// The current scene level-of-detail configuration.
    pub fn lod_config(&self) -> LodConfig {
        self.lod_config
    }

    /// Force every structural stage (through the mesh) and borrow them all at
    /// once — for peak queries, treemaps and exports that need the tree and
    /// the layout together.
    pub fn stages(&mut self) -> TerrainResult<TerrainStages<'_>> {
        self.ensure_mesh()?;
        self.ensure_super_tree()?;
        Ok(TerrainStages {
            super_tree: self.super_tree.as_deref().expect("ensured"),
            render_tree: self.render_tree_ref(),
            layout: self.layout.as_ref().expect("ensured"),
            mesh: self.mesh.as_ref().expect("ensured"),
        })
    }

    /// Run the whole pipeline to the end and return the SVG (owned). Sugar
    /// for [`svg`](Self::svg)` + to_string` for one-shot callers.
    pub fn build(&mut self) -> TerrainResult<String> {
        Ok(self.svg()?.to_string())
    }

    /// Render the session through any [`Exporter`] backend, streaming the
    /// artifact into `writer`. The backend sees a [`RenderScene`] borrowed
    /// from the cached stages (forcing them on first demand) together with
    /// the per-stage timings recorded so far, so repeated renders across
    /// backends share one pipeline run. The write itself is timed into
    /// [`StageTimings::svg_seconds`].
    ///
    /// The built-in [`Svg`] backend at the session's
    /// [`SvgSize`] produces exactly the bytes of [`svg`](Self::svg).
    pub fn render_to(
        &mut self,
        exporter: &dyn Exporter,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        self.ensure_mesh()?;
        let timings = self.scene_timings();
        let scene = RenderScene::new(
            self.render_tree_ref(),
            self.layout.as_ref().expect("ensured"),
            self.mesh.as_ref().expect("ensured"),
        )
        .with_timings(&timings);
        let started = Instant::now();
        exporter.write_to(&scene, writer)?;
        self.timings.svg_seconds = Some(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// [`render_to`](Self::render_to) minus the wall-clock stage timings:
    /// the scene handed to the backend carries geometry only, so the bytes
    /// depend on nothing but the graph, the measure and the configuration.
    /// Backends that serialize timings (`json`, `ascii` headers) become
    /// reproducible byte-for-byte across runs — the form a
    /// content-addressed artifact cache must serve and revalidate against.
    /// The write is still timed into [`StageTimings::svg_seconds`].
    pub fn render_deterministic_to(
        &mut self,
        exporter: &dyn Exporter,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        self.ensure_mesh()?;
        let scene = RenderScene::new(
            self.render_tree_ref(),
            self.layout.as_ref().expect("ensured"),
            self.mesh.as_ref().expect("ensured"),
        );
        let started = Instant::now();
        exporter.write_to(&scene, writer)?;
        self.timings.svg_seconds = Some(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// [`render_to`](Self::render_to) into a freshly created (buffered) file.
    pub fn write_artifact(
        &mut self,
        exporter: &dyn Exporter,
        path: impl AsRef<Path>,
    ) -> TerrainResult<()> {
        let file = std::fs::File::create(path.as_ref()).map_err(TerrainError::from)?;
        let mut writer = std::io::BufWriter::new(file);
        self.render_to(exporter, &mut writer)?;
        std::io::Write::flush(&mut writer)?;
        Ok(())
    }

    /// The recorded stage timings as exporter-facing [`SceneTiming`]s
    /// (stages that have not run are absent).
    fn scene_timings(&self) -> Vec<SceneTiming> {
        let t = &self.timings;
        [
            ("scalar", t.scalar_seconds),
            ("tree", t.tree_seconds),
            ("super_tree", t.super_tree_seconds),
            ("simplify", t.simplify_seconds),
            ("layout", t.layout_seconds),
            ("mesh", t.mesh_seconds),
            ("svg", t.svg_seconds),
            ("scene", t.scene_seconds),
        ]
        .into_iter()
        .filter_map(|(stage, seconds)| seconds.map(|seconds| SceneTiming { stage, seconds }))
        .collect()
    }

    // ------------------------------------------------------------------
    // Stage computation.
    // ------------------------------------------------------------------

    fn render_tree_ref(&self) -> &SuperScalarTree {
        self.render_tree.as_deref().expect("render tree ensured")
    }

    fn ensure_scalar(&mut self) -> TerrainResult<()> {
        if self.scalar.is_some() {
            return Ok(());
        }
        let measure =
            self.measure.as_ref().expect("a session always has a scalar or a measure").clone();
        let started = Instant::now();
        let scalar = measure.compute(self.graph.get(), self.parallelism);
        self.timings.scalar_seconds = Some(started.elapsed().as_secs_f64());
        self.scalar = Some(scalar);
        Ok(())
    }

    fn ensure_scalar_tree(&mut self) -> TerrainResult<()> {
        self.ensure_scalar()?;
        if self.scalar_tree.is_some() {
            return Ok(());
        }
        let scalar = self.scalar.as_ref().expect("ensured");
        let started = Instant::now();
        let tree = match self.field {
            FieldKind::Vertex => {
                vertex_scalar_tree(&VertexScalarGraph::new(self.graph.get(), scalar)?)
            }
            FieldKind::Edge => edge_scalar_tree(&EdgeScalarGraph::new(self.graph.get(), scalar)?),
        };
        self.timings.tree_seconds = Some(started.elapsed().as_secs_f64());
        self.scalar_tree = Some(tree);
        Ok(())
    }

    fn ensure_super_tree(&mut self) -> TerrainResult<()> {
        // A handed-in super tree needs no scalar tree beneath it.
        if self.super_tree.is_some() {
            return Ok(());
        }
        self.ensure_scalar_tree()?;
        let started = Instant::now();
        let super_tree = build_super_tree(self.scalar_tree.as_ref().expect("ensured"));
        self.timings.super_tree_seconds = Some(started.elapsed().as_secs_f64());
        self.super_tree = Some(Arc::new(super_tree));
        Ok(())
    }

    fn ensure_render_tree(&mut self) -> TerrainResult<()> {
        if self.render_tree.is_some() {
            return Ok(());
        }
        self.ensure_super_tree()?;
        let super_tree = self.super_tree.as_ref().expect("ensured");
        let started = Instant::now();
        // One pass snaps and caps; it refuses a zero budget or level count at
        // every tree size.
        let SimplificationConfig { node_budget, levels } = self.simplification;
        let render_tree = match node_budget {
            Some(budget) if budget == 0 || levels == 0 || super_tree.node_count() > budget => {
                Arc::new(simplify_super_tree(super_tree, levels, budget)?)
            }
            _ => Arc::clone(super_tree),
        };
        self.timings.simplify_seconds = Some(started.elapsed().as_secs_f64());
        self.render_tree = Some(render_tree);
        Ok(())
    }

    fn ensure_layout(&mut self) -> TerrainResult<()> {
        self.ensure_render_tree()?;
        if self.layout.is_some() {
            return Ok(());
        }
        let started = Instant::now();
        let layout = try_layout_super_tree(self.render_tree_ref(), &self.layout_config)?;
        self.timings.layout_seconds = Some(started.elapsed().as_secs_f64());
        self.layout = Some(layout);
        Ok(())
    }

    fn ensure_mesh(&mut self) -> TerrainResult<()> {
        self.ensure_layout()?;
        if self.mesh.is_some() {
            return Ok(());
        }
        let started = Instant::now();
        let mesh = try_build_terrain_mesh(
            self.render_tree_ref(),
            self.layout.as_ref().expect("ensured"),
            &self.mesh_config,
        )?;
        self.timings.mesh_seconds = Some(started.elapsed().as_secs_f64());
        self.mesh = Some(mesh);
        Ok(())
    }

    fn ensure_scene(&mut self) -> TerrainResult<()> {
        self.ensure_super_tree()?;
        if self.scene.is_some() {
            return Ok(());
        }
        let started = Instant::now();
        let scene = Scene::build(
            self.super_tree.as_deref().expect("ensured"),
            &self.layout_config,
            &self.lod_config,
        )?;
        self.timings.scene_seconds = Some(started.elapsed().as_secs_f64());
        self.scene = Some(scene);
        Ok(())
    }

    fn ensure_svg(&mut self) -> TerrainResult<()> {
        self.ensure_mesh()?;
        if self.svg.is_some() {
            return Ok(());
        }
        self.svg_size.validate()?;
        let started = Instant::now();
        // The session's cached SVG is produced by the same streaming backend
        // `render_to` exposes, so the two paths are byte-identical by
        // construction.
        let scene = RenderScene::new(
            self.render_tree_ref(),
            self.layout.as_ref().expect("ensured"),
            self.mesh.as_ref().expect("ensured"),
        );
        let svg =
            Svg::new(self.svg_size.width_px, self.svg_size.height_px).export_string(&scene)?;
        self.timings.svg_seconds = Some(started.elapsed().as_secs_f64());
        self.svg = Some(svg);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn toy_graph() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        b.build()
    }

    #[test]
    fn vertex_session_runs_every_stage_and_records_timings() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
        assert_eq!(session.field_kind(), FieldKind::Vertex);
        let svg = session.build().unwrap();
        assert!(svg.starts_with("<svg"));
        let t = session.timings();
        assert!(t.scalar_seconds.is_some());
        assert!(t.tree_construction_seconds().unwrap() >= 0.0);
        assert!(t.visualization_seconds().unwrap() >= 0.0);
        assert_eq!(session.super_tree().unwrap().total_members(), graph.vertex_count());
    }

    #[test]
    fn edge_session_unifies_the_edge_path() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KTruss);
        assert_eq!(session.field_kind(), FieldKind::Edge);
        assert_eq!(session.super_tree().unwrap().total_members(), graph.edge_count());
        assert!(session.svg().unwrap().starts_with("<svg"));
        // User-provided scalars go through the same core.
        let scalar: Vec<f64> = (0..graph.edge_count()).map(|e| e as f64).collect();
        let mut explicit = TerrainPipeline::edge(&graph, scalar).unwrap();
        assert!(explicit.timings().scalar_seconds.is_none(), "user scalar is not timed");
        assert!(explicit.mesh().unwrap().triangle_count() > 0);
    }

    #[test]
    fn invalid_scalars_fail_at_the_session_boundary() {
        let graph = toy_graph();
        assert!(TerrainPipeline::vertex(&graph, vec![1.0]).is_err());
        assert!(TerrainPipeline::vertex(&graph, vec![f64::NAN; 5]).is_err());
        assert!(TerrainPipeline::edge(&graph, vec![1.0; 3]).is_err());
        let mut ok = TerrainPipeline::vertex(&graph, vec![1.0; 5]).unwrap();
        assert!(ok.set_scalar(vec![2.0; 4]).is_err(), "length mismatch on set_scalar");
        // The failed set leaves the session usable with its old field.
        assert!(ok.svg().unwrap().starts_with("<svg"));
    }

    #[test]
    fn invalid_configs_surface_as_errors_not_panics() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
        session.set_layout(LayoutConfig { width: -1.0, ..Default::default() });
        assert!(matches!(session.svg(), Err(TerrainError::Layout { .. })));
        session.set_layout(LayoutConfig::default());
        session.set_simplification(SimplificationConfig { node_budget: Some(0), levels: 0 });
        assert!(matches!(session.svg(), Err(TerrainError::Graph(_))));
        session.set_simplification(SimplificationConfig { node_budget: Some(0), levels: 64 });
        assert!(matches!(
            session.svg(),
            Err(TerrainError::Graph(ugraph::GraphError::InvalidConfig { what: "node budget", .. }))
        ));
        session.set_simplification(SimplificationConfig::default());
        session.set_svg_size(SvgSize::new(0.0, 100.0));
        assert!(matches!(session.svg(), Err(TerrainError::Config { .. })));
        session.set_svg_size(SvgSize::default());
        assert!(session.svg().unwrap().starts_with("<svg"));
    }

    #[test]
    fn zero_levels_are_refused_even_when_the_tree_fits_the_budget() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
        let nodes = session.super_tree().unwrap().node_count();
        session.set_simplification(SimplificationConfig { node_budget: Some(nodes), levels: 0 });
        assert!(matches!(
            session.svg(),
            Err(TerrainError::Graph(ugraph::GraphError::InvalidConfig {
                what: "simplification levels",
                ..
            }))
        ));
        // Without a budget nothing is simplified, so the level count is moot.
        session.set_simplification(SimplificationConfig { node_budget: None, levels: 0 });
        assert!(session.svg().unwrap().starts_with("<svg"));
    }

    #[test]
    fn set_color_reuses_tree_and_layout() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
        session.svg().unwrap();
        let tree_time = session.timings().tree_seconds;
        let layout_time = session.timings().layout_seconds;
        let triangles = session.mesh().unwrap().triangle_count();
        let degrees: Vec<f64> = measures::degrees(&graph).iter().map(|&d| d as f64).collect();
        session.set_color(ColorScheme::BySecondaryScalar(degrees));
        assert!(session.timings().mesh_seconds.is_none(), "mesh invalidated");
        session.svg().unwrap();
        // Cached stages kept the exact timing values of their original run —
        // they were not recomputed.
        assert_eq!(session.timings().tree_seconds, tree_time);
        assert_eq!(session.timings().layout_seconds, layout_time);
        assert_eq!(session.mesh().unwrap().triangle_count(), triangles);
    }

    #[test]
    fn from_source_matches_a_borrowed_session_bit_for_bit() {
        // The same graph, once ingested through a GraphSource (edge-list
        // text) and once borrowed directly: identical SVG bytes.
        let text = "0 1\n1 2\n2 0\n2 3\n3 4\n";
        let mut ingested =
            TerrainPipeline::from_source(GraphSource::reader(text.as_bytes()), Measure::KCore)
                .unwrap();
        let graph = toy_graph();
        let mut borrowed = TerrainPipeline::from_measure(&graph, Measure::KCore);
        assert_eq!(ingested.graph().vertex_count(), graph.vertex_count());
        assert_eq!(ingested.svg().unwrap(), borrowed.svg().unwrap());
    }

    #[test]
    fn from_shared_sessions_share_one_graph_and_match_borrowed_output() {
        let graph = toy_graph();
        let shared = SharedGraph::new(graph.clone());
        let mut borrowed = TerrainPipeline::from_measure(&graph, Measure::KCore);
        let expected = borrowed.svg().unwrap().to_string();
        // Two sessions cloned off the same SharedGraph: identical bytes, one
        // underlying graph allocation.
        let mut a = TerrainPipeline::from_shared(shared.clone(), Measure::KCore);
        let mut b = TerrainPipeline::from_shared(shared.clone(), Measure::KCore);
        assert_eq!(a.svg().unwrap(), expected);
        assert_eq!(b.svg().unwrap(), expected);
        assert_eq!(shared.backend_name(), "owned");
        assert!(!shared.is_memory_mapped());
        // The mapped backend through snapshot bytes: same artifact.
        let bytes = ugraph::io::encode_binary_v3(&graph, None).unwrap();
        let mapped = SharedGraph::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(mapped.backend_name(), "mapped");
        let mut c = TerrainPipeline::from_shared(mapped, Measure::KCore);
        assert_eq!(c.svg().unwrap(), expected);
    }

    #[test]
    fn from_shared_render_tree_skips_the_tree_chain_and_matches_a_computing_session() {
        let shared = SharedGraph::new(ugraph::generators::barabasi_albert(600, 3, 5));
        let capped = SimplificationConfig { node_budget: Some(10), levels: 4 };
        for (measure, simplification) in [
            (Measure::PageRank, capped),
            (Measure::Degree, SimplificationConfig::default()),
            (Measure::KTruss, capped),
        ] {
            let name = measure.name();
            let mut computing = TerrainPipeline::from_shared(shared.clone(), measure.clone());
            computing.set_simplification(simplification);
            let tree = computing.shared_render_tree().unwrap();
            let mut reusing = TerrainPipeline::from_shared_render_tree(
                shared.clone(),
                measure.clone(),
                simplification,
                Arc::clone(&tree),
            )
            .unwrap();
            assert_eq!(reusing.svg().unwrap(), computing.svg().unwrap(), "{name}");
            assert_eq!(reusing.simplification(), simplification);
            let t = reusing.timings();
            assert_eq!(
                (t.scalar_seconds, t.tree_seconds, t.super_tree_seconds, t.simplify_seconds),
                (None, None, None, None),
                "{name}: nothing upstream of the layout ran"
            );
            assert!(t.layout_seconds.is_some() && t.svg_seconds.is_some());
            assert!(Arc::ptr_eq(&reusing.shared_render_tree().unwrap(), &tree), "{name}");
            // Upstream stages are still there on demand, and a new budget
            // rebuilds from them.
            assert_eq!(reusing.stages().unwrap().super_tree, computing.super_tree().unwrap());
            reusing.set_simplification(SimplificationConfig::disabled());
            assert_eq!(reusing.render_tree().unwrap(), computing.super_tree().unwrap());
        }
        // Within budget the render tree is the super tree's own `Arc`.
        let mut fitting = TerrainPipeline::from_shared(shared.clone(), Measure::Degree);
        fitting.set_simplification(SimplificationConfig::disabled());
        let tree = fitting.shared_render_tree().unwrap();
        assert!(std::ptr::eq(tree.as_ref(), fitting.super_tree().unwrap()), "never cloned");
        // Checked against the graph's element count and the budget.
        for (measure, budget) in [(Measure::KTruss, None), (Measure::Degree, Some(10))] {
            let err = TerrainPipeline::from_shared_render_tree(
                shared.clone(),
                measure,
                SimplificationConfig { node_budget: budget, levels: 64 },
                Arc::clone(&tree),
            )
            .unwrap_err();
            assert!(matches!(err, TerrainError::Config { what: "render tree", .. }), "{err:?}");
        }
    }

    #[test]
    fn from_shared_super_tree_skips_the_scalar_tree_and_matches_a_computing_session() {
        let shared = SharedGraph::new(ugraph::generators::barabasi_albert(600, 3, 5));
        let key = terrain::TileKey { zoom: 1, tx: 1, ty: 0 };
        let scene_bytes = |session: &mut TerrainPipeline<'_>| {
            let scene = session.scene().unwrap();
            let (mut document, mut tile) = (Vec::new(), Vec::new());
            scene.write_scene_gtsc(&mut document).unwrap();
            scene.write_tile_svg(&key, 256, &mut tile).unwrap();
            (document, tile)
        };
        for measure in [Measure::PageRank, Measure::KTruss] {
            let name = measure.name();
            let mut computing = TerrainPipeline::from_shared(shared.clone(), measure.clone());
            let tree = computing.shared_super_tree().unwrap();
            let mut reusing = TerrainPipeline::from_shared_super_tree(
                shared.clone(),
                measure.clone(),
                Arc::clone(&tree),
            )
            .unwrap();
            assert!(scene_bytes(&mut reusing) == scene_bytes(&mut computing), "{name}");
            let nodes = tree.node_count();
            assert!(nodes > 1, "{name}: a tree that can be capped");
            let fits = SimplificationConfig { node_budget: Some(nodes), levels: 64 };
            let caps = SimplificationConfig { node_budget: Some(nodes / 2), levels: 4 };
            for simplification in [fits, caps] {
                reusing.set_simplification(simplification);
                computing.set_simplification(simplification);
                assert_eq!(reusing.render_tree().unwrap(), computing.render_tree().unwrap());
                assert_eq!(reusing.svg().unwrap(), computing.svg().unwrap(), "{name}");
                let handed_out = reusing.shared_render_tree().unwrap();
                assert_eq!(Arc::ptr_eq(&handed_out, &tree), simplification == fits, "{name}");
            }
            let t = reusing.timings();
            assert_eq!(
                (t.scalar_seconds, t.tree_seconds, t.super_tree_seconds),
                (None, None, None),
                "{name}: neither Algorithm 1 nor 2 ran"
            );
            assert!(t.scene_seconds.is_some() && t.simplify_seconds.is_some(), "{name}");
            assert!(Arc::ptr_eq(&reusing.shared_super_tree().unwrap(), &tree), "never cloned");
        }
        // Checked against the graph's element count: an edge measure's tree
        // does not cover the vertices.
        let edge_tree =
            TerrainPipeline::from_shared(shared.clone(), Measure::KTruss).shared_super_tree();
        let err =
            TerrainPipeline::from_shared_super_tree(shared, Measure::Degree, edge_tree.unwrap())
                .unwrap_err();
        assert!(matches!(err, TerrainError::Config { what: "super tree", .. }), "{err:?}");
    }

    #[test]
    fn shared_graph_apply_delta_is_copy_on_write() {
        use ugraph::delta::{DeltaOp, GraphDelta};
        let graph = toy_graph();
        let bytes = ugraph::io::encode_binary_v3(&graph, None).unwrap();
        let mut shared = SharedGraph::from_snapshot_bytes(&bytes).unwrap();
        // A batch of pure no-ops leaves the mapped backend mapped.
        let mut noop = GraphDelta::new();
        noop.push(DeltaOp::Insert, 0u32, 1u32);
        let stats = shared.apply_delta(&noop);
        assert_eq!(stats.redundant_inserts, 1);
        assert_eq!(shared.backend_name(), "mapped");
        // A structural change swaps in a fresh owned graph; clones taken
        // before the swap keep reading the old one.
        let before = shared.clone();
        let mut del = GraphDelta::new();
        del.push(DeltaOp::Delete, 0u32, 1u32);
        let stats = shared.apply_delta(&del);
        assert_eq!(stats.deleted, 1);
        assert_eq!(shared.backend_name(), "owned");
        assert_eq!(shared.storage().edge_count(), graph.edge_count() - 1);
        assert_eq!(before.storage().edge_count(), graph.edge_count());
    }

    #[test]
    fn measure_names_round_trip_through_from_name() {
        for name in Measure::known_names() {
            let measure = Measure::from_name(name).unwrap();
            // The parsed measure's display name maps back to itself.
            assert_eq!(Measure::from_name(measure.name().split('(').next().unwrap()), {
                Some(measure)
            });
        }
        assert_eq!(Measure::from_name("K-Core"), Some(Measure::KCore));
        assert_eq!(
            Measure::from_name("betweenness"),
            Some(Measure::BetweennessSampled { samples: 64, seed: 20170419 })
        );
        assert_eq!(Measure::from_name("voronoi"), None);
    }

    #[test]
    fn render_to_svg_matches_the_cached_svg_stage() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
        let svg = session.build().unwrap();
        let mut streamed = Vec::new();
        session.render_to(&Svg::new(900.0, 700.0), &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), svg);
        // The scene handed to backends carries the session's timings.
        let mut json = Vec::new();
        session.render_to(&terrain::JsonScene, &mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.contains("\"stage\": \"tree\""), "{json}");
        assert!(json.contains("\"stage\": \"svg\""), "{json}");
    }

    #[test]
    fn deterministic_render_is_reproducible_across_fresh_sessions() {
        let graph = toy_graph();
        let render = || {
            let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
            let mut bytes = Vec::new();
            session.render_deterministic_to(&terrain::JsonScene, &mut bytes).unwrap();
            bytes
        };
        // `json` serializes scene timings when present; the deterministic
        // variant must strip them so independent runs agree byte-for-byte.
        let first = render();
        assert_eq!(first, render());
        assert!(String::from_utf8(first).unwrap().contains("\"timings\": []"));
    }

    #[test]
    fn deterministic_render_times_the_write_as_the_svg_stage() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
        session.render_deterministic_to(&Svg::new(900.0, 700.0), &mut Vec::new()).unwrap();
        assert!(session.timings().svg_seconds.is_some(), "{:?}", session.timings());
    }

    #[test]
    fn write_artifact_streams_through_any_backend() {
        let graph = toy_graph();
        let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
        let dir = std::env::temp_dir();
        for exporter in terrain::builtin_exporters() {
            let path = dir.join(format!(
                "graph_terrain_artifact_test_{}.{}",
                exporter.name(),
                exporter.file_extension()
            ));
            session.write_artifact(exporter.as_ref(), &path).unwrap();
            let written = std::fs::read(&path).unwrap();
            assert!(!written.is_empty(), "{} artifact is empty", exporter.name());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn simplification_budget_kicks_in_and_reuses_the_super_tree() {
        let graph = ugraph::generators::barabasi_albert(600, 3, 5);
        let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
        session.set_simplification(SimplificationConfig { node_budget: Some(10), levels: 4 });
        let full_nodes = session.super_tree().unwrap().node_count();
        let render_nodes = session.render_tree().unwrap().node_count();
        assert!(full_nodes > 10, "degree field on a BA graph yields a rich tree");
        assert!(render_nodes < full_nodes, "budget must trigger simplification");
        let super_time = session.timings().super_tree_seconds;
        session.set_simplification(SimplificationConfig::disabled());
        assert_eq!(session.render_tree().unwrap().node_count(), full_nodes);
        assert_eq!(session.timings().super_tree_seconds, super_time, "super tree reused");
    }

    #[test]
    fn node_budget_caps_a_forest_of_isolated_vertices_and_keeps_its_peak() {
        // 6 000 isolated vertices around a 12-clique: 6 001 roots that
        // snapping alone cannot merge.
        let mut builder = ugraph::GraphBuilder::new();
        builder.ensure_vertex(6_011);
        let clique = 3_000..3_012u32;
        for u in clique.clone() {
            for v in u + 1..clique.end {
                builder.add_edge(u, v);
            }
        }
        let graph = builder.build();
        let top_peak = |session: &mut TerrainPipeline<'_>| {
            let stages = session.stages().unwrap();
            terrain::highest_peaks(stages.render_tree, stages.layout, 1).remove(0).members
        };
        let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
        session.set_simplification(SimplificationConfig::disabled());
        assert_eq!(session.render_tree().unwrap().node_count(), 6_001);
        let uncapped_peak = top_peak(&mut session);
        assert_eq!(uncapped_peak, clique.clone().collect::<Vec<_>>());

        for budget in [4_000, 100, 2, 1] {
            session
                .set_simplification(SimplificationConfig { node_budget: Some(budget), levels: 64 });
            let render = session.render_tree().unwrap();
            assert!(render.node_count() <= budget, "{} nodes over {budget}", render.node_count());
            assert_eq!(render.total_members(), graph.vertex_count());
            if budget > 1 {
                assert_eq!(top_peak(&mut session), uncapped_peak, "budget {budget}");
            }
        }
    }

    #[test]
    fn scene_stage_survives_simplification_but_not_tree_or_layout_changes() {
        let graph = ugraph::generators::barabasi_albert(600, 3, 5);
        let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
        let item_count = session.scene().unwrap().item_count();
        assert!(item_count > 0);
        let scene_time = session.timings().scene_seconds;
        assert!(scene_time.is_some());

        // Simplification and mesh/SVG knobs never touch the scene: it is
        // built from the unsimplified super tree, so tiles ignore budgets.
        session.set_simplification(SimplificationConfig { node_budget: Some(10), levels: 4 });
        session.set_color(ColorScheme::ByHeight);
        session.set_svg_size(SvgSize { width_px: 77.0, height_px: 55.0 });
        assert_eq!(session.timings().scene_seconds, scene_time, "scene cache kept");
        assert_eq!(session.scene().unwrap().item_count(), item_count);

        // A layout change moves every rectangle, so the scene rebuilds.
        session.set_layout(LayoutConfig { width: 2.0, ..Default::default() });
        assert!(session.timings().scene_seconds.is_none(), "layout change drops the scene");
        assert!(session.scene().unwrap().item_count() > 0);

        // An invalid LOD config is rejected up front; a valid one rebuilds
        // only the scene.
        assert!(session.set_lod(LodConfig { tile_px: 0, ..Default::default() }).is_err());
        let layout_time = session.timings().layout_seconds;
        session.set_lod(LodConfig { max_lod: 4, ..Default::default() }).unwrap();
        assert!(session.timings().scene_seconds.is_none());
        assert_eq!(session.scene().unwrap().max_zoom(), 4);
        assert_eq!(session.timings().layout_seconds, layout_time, "layout untouched");

        // A new scalar field rebuilds the tree, hence the scene.
        let scalar: Vec<f64> = (0..graph.vertex_count()).map(|v| (v % 7) as f64).collect();
        session.set_scalar(scalar).unwrap();
        assert!(session.timings().scene_seconds.is_none(), "a tree rebuild drops the scene");
        assert!(session.scene().unwrap().item_count() > 0);

        // The stage timing list exposes the scene stage once it has run.
        let timings = session.scene_timings();
        assert!(timings.iter().any(|t| t.stage == "scene"));
    }

    #[test]
    fn into_scene_hands_over_the_scene_built_or_not() {
        let graph = SharedGraph::new(ugraph::generators::barabasi_albert(600, 3, 5));
        let key = terrain::TileKey { zoom: 1, tx: 1, ty: 0 };
        let tile = |scene: &Scene| {
            let mut bytes = Vec::new();
            scene.write_tile_svg(&key, 128, &mut bytes).unwrap();
            bytes
        };
        let mut built = TerrainPipeline::from_shared(graph.clone(), Measure::KCore);
        let reference = tile(built.scene().unwrap());
        assert_eq!(tile(&built.into_scene().unwrap()), reference, "an already built scene");
        let fresh = TerrainPipeline::from_shared(graph, Measure::KCore).into_scene().unwrap();
        assert_eq!(tile(&fresh), reference, "a scene built on demand");
    }
}
