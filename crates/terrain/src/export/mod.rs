//! The render boundary: the [`Exporter`] trait, the [`RenderScene`] it
//! consumes, and the built-in backends.
//!
//! The paper's tool renders the terrain interactively; the figure harness of
//! this reproduction instead writes deterministic artifacts that can be
//! inspected, diffed and embedded in reports. Every artifact is produced the
//! same way: borrow a [`RenderScene`] from the built stages (tree, layout,
//! mesh, optional per-stage timings) and stream it through an [`Exporter`]
//! into any [`io::Write`] — a file, a socket, an in-memory buffer — without
//! ever materializing the document as one `String`. The `tv` column of
//! Table II is measured as the time to produce these renderings from a super
//! tree.
//!
//! Built-in backends:
//!
//! | backend        | output                                             | extension |
//! |----------------|----------------------------------------------------|-----------|
//! | [`Svg`]        | oblique-projected 3D terrain                       | `svg`     |
//! | [`TreemapSvg`] | flat 2D treemap (Figure 5(a))                      | `svg`     |
//! | [`Obj`]        | Wavefront OBJ triangle mesh                        | `obj`     |
//! | [`Ply`]        | ASCII PLY mesh with per-face colors                | `ply`     |
//! | [`Ascii`]      | terminal heightmap (top view)                      | `txt`     |
//! | [`JsonScene`]  | mesh + layout + timings as JSON for web frontends  | `json`    |
//! | [`TiledSvg`]   | top-down LOD view of the retained scene            | `svg`     |
//! | [`SceneBin`]   | binary `GTSC` scene document for pan/zoom clients  | `gtsc`    |
//!
//! New backends are plug-ins: implement [`Exporter`] and every call site that
//! takes `&dyn Exporter` (the `TerrainPipeline` session's `render_to` /
//! `write_artifact`, the figure binaries' `--format` flag) accepts it.
//!
//! ```
//! use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
//! use terrain::export::{Exporter, RenderScene, Svg};
//! use terrain::{build_terrain_mesh, layout_super_tree, LayoutConfig, MeshConfig};
//!
//! let mut b = ugraph::GraphBuilder::new();
//! b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
//! let graph = b.build();
//! let scalar = vec![2.0, 2.0, 2.0, 1.0];
//! let sg = VertexScalarGraph::new(&graph, &scalar)?;
//! let tree = build_super_tree(&vertex_scalar_tree(&sg));
//! let layout = layout_super_tree(&tree, &LayoutConfig::default());
//! let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
//!
//! let scene = RenderScene::new(&tree, &layout, &mesh);
//! let mut out = Vec::new();
//! Svg::new(640.0, 480.0).write_to(&scene, &mut out)?;
//! assert!(out.starts_with(b"<svg"));
//! # Ok::<(), terrain::TerrainError>(())
//! ```

pub mod ascii;
pub(crate) mod fixed;
pub mod json;
pub mod obj;
pub mod ply;
pub mod svg;
pub mod tiled;

use crate::error::TerrainResult;
use crate::layout2d::TerrainLayout;
use crate::mesh::TerrainMesh;
use scalarfield::SuperScalarTree;
use std::io;

pub use ascii::Ascii;
pub use json::JsonScene;
pub use obj::Obj;
pub use ply::Ply;
pub use svg::{Svg, TreemapSvg};
pub use tiled::{SceneBin, TiledSvg};

/// One stage's wall-clock cost, carried along for backends (like
/// [`JsonScene`]) that report provenance next to geometry.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SceneTiming {
    /// Stage name (e.g. `"scalar"`, `"tree"`, `"layout"`).
    pub stage: &'static str,
    /// Wall-clock seconds the stage took.
    pub seconds: f64,
}

/// A borrowed view of everything a backend may need to render one terrain:
/// the (render) tree, its 2D layout, its 3D mesh, and optional per-stage
/// timings. Backends use the slice of it they care about — [`Obj`] reads only
/// the mesh, [`Ascii`] only the layout, [`JsonScene`] all of it.
#[derive(Copy, Clone, Debug)]
pub struct RenderScene<'a> {
    /// The super scalar tree the terrain was rendered from (after any
    /// Section II-E simplification).
    pub tree: &'a SuperScalarTree,
    /// The nested 2D boundary layout of the tree.
    pub layout: &'a TerrainLayout,
    /// The 3D terrain mesh of the tree.
    pub mesh: &'a TerrainMesh,
    /// Per-stage wall-clock timings, when the producer recorded them.
    pub timings: &'a [SceneTiming],
}

impl<'a> RenderScene<'a> {
    /// A scene over built stages, with no timings attached.
    pub fn new(
        tree: &'a SuperScalarTree,
        layout: &'a TerrainLayout,
        mesh: &'a TerrainMesh,
    ) -> Self {
        RenderScene { tree, layout, mesh, timings: &[] }
    }

    /// Attach per-stage timings (e.g. from the session's `StageTimings`).
    pub fn with_timings(mut self, timings: &'a [SceneTiming]) -> Self {
        self.timings = timings;
        self
    }
}

/// A streaming render backend: serializes a [`RenderScene`] into any
/// [`io::Write`].
///
/// Implementations must be deterministic — identical scenes must produce
/// identical bytes — because the CI determinism gate diffs artifacts across
/// runs, thread counts and ingest paths.
pub trait Exporter {
    /// Short lowercase backend name (what `--format` flags accept).
    fn name(&self) -> &'static str;

    /// Conventional file extension of the artifact (no dot).
    fn file_extension(&self) -> &'static str;

    /// Serialize the scene into `writer`. I/O failures surface as
    /// [`TerrainError::Graph`](crate::TerrainError) wrapping the underlying
    /// [`io::Error`]; no backend panics on any scene, including empty ones.
    fn write_to(&self, scene: &RenderScene<'_>, writer: &mut dyn io::Write) -> TerrainResult<()>;

    /// Render to an owned `String` — a convenience for tests, terminal
    /// output and small artifacts. Streaming callers should prefer
    /// [`write_to`](Exporter::write_to).
    fn export_string(&self, scene: &RenderScene<'_>) -> TerrainResult<String> {
        let mut out = Vec::new();
        self.write_to(scene, &mut out)?;
        String::from_utf8(out).map_err(|e| crate::TerrainError::Mesh {
            message: format!("backend `{}` emitted non-UTF-8 output: {e}", self.name()),
        })
    }
}

/// Every built-in backend, with its default configuration — what generic
/// "render this scene in every format" call sites (CI gates, smoke tests)
/// iterate over.
pub fn builtin_exporters() -> Vec<Box<dyn Exporter>> {
    vec![
        Box::new(Svg::default()),
        Box::new(TreemapSvg::default()),
        Box::new(Obj),
        Box::new(Ply),
        Box::new(Ascii::default()),
        Box::new(JsonScene),
        Box::new(TiledSvg::default()),
        Box::new(SceneBin::default()),
    ]
}

/// The [`Exporter::name`]s of every built-in backend, in
/// [`builtin_exporters`] order — what error messages and HTTP 400 bodies
/// list as the accepted `format` values.
pub fn exporter_names() -> Vec<&'static str> {
    builtin_exporters().iter().map(|e| e.name()).collect()
}

/// Look up a built-in backend by its [`Exporter::name`] (the `--format` flag
/// of the figure binaries and examples, the `format` query parameter of the
/// terrain server). Unknown names return a typed [`UnknownExporterError`]
/// carrying the rejected name and the accepted ones, so callers can surface
/// a precise message (or a structured 400 body) instead of a bare "no".
pub fn exporter_by_name(name: &str) -> Result<Box<dyn Exporter>, UnknownExporterError> {
    builtin_exporters()
        .into_iter()
        .find(|e| e.name() == name.to_ascii_lowercase())
        .ok_or_else(|| UnknownExporterError { requested: name.to_string() })
}

/// [`exporter_by_name`], with an explicit pixel size applied to the
/// size-aware backends (`svg`, `treemap`, `tiled`). The other backends emit
/// resolution-independent geometry or text and are returned as-is. This is
/// the lookup render services should use: a pipeline's
/// `set_svg_size` only configures its own `svg()` convenience stage, not an
/// externally constructed exporter.
pub fn exporter_by_name_sized(
    name: &str,
    width_px: f64,
    height_px: f64,
) -> Result<Box<dyn Exporter>, UnknownExporterError> {
    let exporter = exporter_by_name(name)?;
    Ok(match exporter.name() {
        "svg" => Box::new(Svg::new(width_px, height_px)),
        "treemap" => Box::new(TreemapSvg::new(width_px, height_px)),
        "tiled" => Box::new(TiledSvg::new(width_px, height_px)),
        _ => exporter,
    })
}

/// Error returned by [`exporter_by_name`] when no built-in backend answers
/// to the requested name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExporterError {
    requested: String,
}

impl UnknownExporterError {
    /// The name that was requested, verbatim (before lowercasing).
    pub fn requested(&self) -> &str {
        &self.requested
    }

    /// The names that *would* have been accepted ([`exporter_names`]).
    pub fn known(&self) -> Vec<&'static str> {
        exporter_names()
    }
}

impl std::fmt::Display for UnknownExporterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown exporter backend {:?}; expected one of: {}",
            self.requested,
            exporter_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownExporterError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use crate::mesh::{build_terrain_mesh, MeshConfig};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn sample_stages() -> (SuperScalarTree, TerrainLayout, TerrainMesh) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let g = b.build();
        let scalar = vec![2.0, 2.0, 2.0, 1.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
        (tree, layout, mesh)
    }

    #[test]
    fn every_builtin_backend_renders_nonempty_deterministic_output() {
        let (tree, layout, mesh) = sample_stages();
        let timings = [SceneTiming { stage: "tree", seconds: 0.25 }];
        let scene = RenderScene::new(&tree, &layout, &mesh).with_timings(&timings);
        for exporter in builtin_exporters() {
            // Bytes, not `export_string`: the `scene` backend is binary.
            let render = || {
                let mut out = Vec::new();
                exporter.write_to(&scene, &mut out).unwrap();
                out
            };
            let once = render();
            let twice = render();
            assert!(!once.is_empty(), "backend {} emitted nothing", exporter.name());
            assert_eq!(once, twice, "backend {} is not deterministic", exporter.name());
            assert!(!exporter.file_extension().starts_with('.'));
        }
    }

    #[test]
    fn backends_resolve_by_name() {
        for exporter in builtin_exporters() {
            let found = exporter_by_name(exporter.name()).unwrap();
            assert_eq!(found.name(), exporter.name());
        }
        assert_eq!(exporter_by_name("SVG").unwrap().name(), "svg");
        let err = match exporter_by_name("gif") {
            Err(err) => err,
            Ok(_) => panic!("gif must not resolve"),
        };
        assert_eq!(err.requested(), "gif");
        assert_eq!(err.known(), exporter_names());
        let message = err.to_string();
        assert!(message.contains("gif"), "{message}");
        for name in exporter_names() {
            assert!(message.contains(name), "{message} should list {name}");
        }
    }

    #[test]
    fn sized_lookup_applies_pixel_size_to_svg_backends() {
        let (tree, layout, mesh) = sample_stages();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        for name in ["svg", "treemap", "tiled"] {
            let small = exporter_by_name_sized(name, 320.0, 240.0).unwrap();
            let output = small.export_string(&scene).unwrap();
            assert!(output.contains("width=\"320\""), "{name}: {output}");
            assert!(output.contains("height=\"240\""), "{name}: {output}");
            assert_ne!(
                output,
                exporter_by_name(name).unwrap().export_string(&scene).unwrap(),
                "{name}: the size must change the artifact"
            );
        }
        // Resolution-independent backends are untouched by the size.
        let obj = exporter_by_name_sized("obj", 320.0, 240.0).unwrap();
        assert_eq!(
            obj.export_string(&scene).unwrap(),
            exporter_by_name("obj").unwrap().export_string(&scene).unwrap()
        );
        assert!(exporter_by_name_sized("gif", 320.0, 240.0).is_err());
    }

    #[test]
    fn every_registered_backend_honors_the_sized_lookup() {
        // Regression: a size-aware backend registered in
        // `builtin_exporters` but missed by `exporter_by_name_sized`'s
        // match would silently ignore the request's pixel size. Every
        // backend whose artifact carries a pixel size must change it;
        // every other backend must produce byte-identical output.
        let (tree, layout, mesh) = sample_stages();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        for exporter in builtin_exporters() {
            let name = exporter.name();
            let sized = exporter_by_name_sized(name, 128.0, 96.0).unwrap();
            assert_eq!(sized.name(), name);
            assert_eq!(sized.file_extension(), exporter.file_extension());
            let default_bytes = {
                let mut out = Vec::new();
                exporter.write_to(&scene, &mut out).unwrap();
                out
            };
            let sized_bytes = {
                let mut out = Vec::new();
                sized.write_to(&scene, &mut out).unwrap();
                out
            };
            let size_aware = ["svg", "treemap", "tiled"].contains(&name);
            if size_aware {
                assert_ne!(
                    sized_bytes, default_bytes,
                    "{name} must honor the requested pixel size"
                );
                let text = String::from_utf8(sized_bytes).unwrap();
                assert!(text.contains("width=\"128\""), "{name}: {text}");
                assert!(text.contains("height=\"96\""), "{name}: {text}");
            } else {
                assert_eq!(
                    sized_bytes, default_bytes,
                    "{name} is resolution-independent and must ignore the size"
                );
            }
        }
    }

    #[test]
    fn io_errors_surface_as_terrain_errors_not_panics() {
        struct FailingWriter;
        impl io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tree, layout, mesh) = sample_stages();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        for exporter in builtin_exporters() {
            let err = exporter.write_to(&scene, &mut FailingWriter).unwrap_err();
            assert!(err.to_string().contains("pipe closed"), "{}: {err}", exporter.name());
        }
    }
}
