//! # terrain — the terrain-metaphor visualization of Section II-E
//!
//! The paper converts a (super) scalar tree into a *terrain*: every tree node
//! becomes a nested boundary in the plane whose enclosed area is proportional
//! to the size of its subtree; each boundary is then lifted to the height of
//! its node's scalar value and walls are drawn between neighboring boundaries.
//! Peaks of the terrain at height α are exactly the maximal α-connected
//! components of the scalar graph, so the one picture shows the whole
//! hierarchy at every threshold simultaneously.
//!
//! The paper's implementation is an interactive OpenGL tool; this crate
//! reproduces the *geometry* and the analysis operations deterministically
//! (see DESIGN.md §4 for the substitution argument):
//!
//! * [`layout2d`] — the nested 2D boundary layout (Figure 4(b)); boundaries
//!   are axis-aligned rectangles, nested by subtree containment, with areas
//!   proportional to subtree member counts;
//! * [`mesh`] — the 3D terrain as a stack of prisms (Figure 4(c)): every super
//!   node extrudes its boundary from its parent's height to its own height;
//! * [`color`] — the red/yellow/green/blue colormap of Section III, coloring
//!   either by the terrain's own scalar or by a second measure / nominal
//!   attribute (Figures 1(a), 9, 11);
//! * [`peaks`] — `peakα` extraction (Definition 6), highest-peak queries and
//!   rectangular region selection (the "click on a peak / linked 2D display"
//!   interactions);
//! * [`scene`] — the retained level-of-detail scene: the LOD layout pass
//!   (culling, recursion gating, child capping, cushion shading), the
//!   flat-arena quadtree index, the power-of-two tile grid, and the `GTSC`
//!   binary scene format streamed to pan/zoom clients;
//! * [`treemap`] — the flat 2D treemap variant of Figure 5(a);
//! * [`export`] — the render boundary: the [`Exporter`] trait over a borrowed
//!   [`RenderScene`], with streaming SVG / treemap-SVG / OBJ / PLY / ASCII /
//!   JSON backends used by the figure harness;
//! * [`error`] — [`TerrainError`], the workspace-wide non-panicking error
//!   type every staged terrain build propagates (wrapping
//!   [`ugraph::GraphError`] and adding layout / mesh / config variants).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod color;
pub mod error;
pub mod export;
pub mod layout2d;
pub mod mesh;
pub mod peaks;
pub mod scene;
pub mod treemap;

pub use color::{colormap, role_palette, Color, ColorScheme};
pub use error::{TerrainError, TerrainResult};
pub use export::{
    builtin_exporters, exporter_by_name, exporter_by_name_sized, exporter_names, Ascii, Exporter,
    JsonScene, Obj, Ply, RenderScene, SceneBin, SceneTiming, Svg, TiledSvg, TreemapSvg,
    UnknownExporterError,
};
pub use layout2d::{layout_super_tree, try_layout_super_tree, LayoutConfig, Rect, TerrainLayout};
pub use mesh::{build_terrain_mesh, try_build_terrain_mesh, MeshBounds, MeshConfig, TerrainMesh};
pub use peaks::{highest_peaks, peaks_at_alpha, select_region, Peak};
pub use scene::{
    decode_gtsc, GtscDocument, GtscHeader, GtscItem, LodConfig, Quadtree, Scene, SceneItem, TileKey,
};
pub use treemap::{build_treemap, Treemap, TreemapCell};
