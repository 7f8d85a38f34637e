//! # graph-terrain
//!
//! A Rust reproduction of *Analyzing and Visualizing Scalar Fields on Graphs*
//! (Zhang, Wang, Parthasarathy, ICDE 2017): scalar graphs, maximal
//! α-connected components, vertex/edge scalar trees, and the terrain-metaphor
//! visualization, together with every substrate the paper's evaluation needs
//! (graph generators, K-Core/K-Truss decompositions, centralities, community
//! and role measures, baseline layouts and a simulated user study).
//!
//! This crate is the façade: it re-exports the workspace crates and adds the
//! high-level entry point — the staged [`TerrainPipeline`] session. A session
//! owns the whole chain scalar field → scalar tree → super tree →
//! simplification → 2D layout → 3D mesh → SVG, computes each stage lazily,
//! caches it, and invalidates exactly the stages downstream of whatever knob
//! you turn: changing the colormap re-colors the mesh, changing the
//! simplification budget reuses the super tree, changing the scalar rebuilds
//! everything. Every accessor is fallible ([`TerrainError`]) and the session
//! records per-stage wall-clock [`StageTimings`] (the `tc`/`tv` split of the
//! paper's Table II).
//!
//! ```
//! use graph_terrain::prelude::*;
//!
//! // A toy collaboration graph.
//! let graph = ugraph::generators::barabasi_albert(200, 3, 7);
//!
//! // K-Core terrain: the session computes the measure itself.
//! let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
//! assert!(session.super_tree().unwrap().node_count() >= 1);
//! assert!(session.svg().unwrap().starts_with("<svg"));
//!
//! // Explicit scalar fields work too, for vertex and edge fields alike.
//! let scalar: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
//! let mut by_degree = TerrainPipeline::vertex(&graph, scalar).unwrap();
//! assert!(by_degree.mesh().unwrap().triangle_count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use baselines;
pub use measures;
pub use scalarfield;
pub use study;
pub use terrain;
pub use ugraph;

mod pipeline;

pub use pipeline::{
    FieldKind, Measure, SharedGraph, SimplificationConfig, StageTimings, SvgSize, TerrainPipeline,
    TerrainStages,
};
pub use terrain::{
    decode_gtsc, GtscDocument, GtscHeader, GtscItem, LodConfig, Rect, Scene, SceneItem,
    TerrainError, TerrainResult, TileKey,
};

/// Convenience prelude for downstream users and the examples.
pub mod prelude {
    pub use crate::{
        FieldKind, Measure, SharedGraph, SimplificationConfig, StageTimings, SvgSize, TerrainError,
        TerrainPipeline, TerrainResult, TerrainStages,
    };
    pub use baselines;
    pub use measures;
    pub use scalarfield;
    pub use study;
    pub use terrain;
    pub use ugraph;
}

#[cfg(test)]
mod tests {
    use super::*;
    use terrain::{ColorScheme, MeshConfig, TerrainMesh};
    use ugraph::GraphBuilder;

    #[test]
    fn vertex_session_end_to_end_and_recolor() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let graph = b.build();
        let cores = measures::core_numbers(&graph);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let mut session = TerrainPipeline::vertex(&graph, scalar).unwrap();
        assert_eq!(session.super_tree().unwrap().total_members(), graph.vertex_count());
        let triangles = session.mesh().unwrap().triangle_count();
        assert!(triangles > 0);
        session.set_svg_size(SvgSize::new(400.0, 300.0));
        assert!(session.svg().unwrap().contains("polygon"));
        // Re-coloring by degree keeps the geometry identical.
        let degrees: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
        session.set_color(ColorScheme::BySecondaryScalar(degrees));
        assert_eq!(session.mesh().unwrap().triangle_count(), triangles);
    }

    #[test]
    fn edge_session_end_to_end_and_recolor() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
        let graph = b.build();
        let truss = measures::truss_numbers(&graph);
        let scalar: Vec<f64> = truss.truss.iter().map(|&t| t as f64).collect();
        let mut session = TerrainPipeline::edge(&graph, scalar).unwrap();
        assert_eq!(session.super_tree().unwrap().total_members(), graph.edge_count());
        session.set_svg_size(SvgSize::new(400.0, 300.0));
        assert!(session.svg().unwrap().starts_with("<svg"));
        // Edge terrains re-color like vertex terrains.
        let triangles = session.mesh().unwrap().triangle_count();
        let tri_counts: Vec<f64> =
            measures::edge_triangle_counts(&graph).iter().map(|&c| c as f64).collect();
        session.set_color(ColorScheme::BySecondaryScalar(tri_counts));
        assert_eq!(session.mesh().unwrap().triangle_count(), triangles);
    }

    #[test]
    fn recolor_keeps_the_build_time_mesh_config() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let graph = b.build();
        let mut session = TerrainPipeline::vertex(&graph, vec![2.0, 2.0, 2.0, 1.0, 1.0]).unwrap();
        session.set_mesh(MeshConfig { height_scale: 5.0, ..Default::default() });
        let max_z = |mesh: &TerrainMesh| mesh.bounds().unwrap().1 .2;
        let built_height = max_z(session.mesh().unwrap());
        let degrees: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
        session.set_color(ColorScheme::BySecondaryScalar(degrees));
        assert_eq!(
            max_z(session.mesh().unwrap()),
            built_height,
            "recolor must keep the height scale"
        );
    }

    #[test]
    fn mismatched_scalar_lengths_are_rejected() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let graph = b.build();
        assert!(TerrainPipeline::vertex(&graph, vec![1.0]).is_err());
        assert!(TerrainPipeline::edge(&graph, vec![1.0, 2.0]).is_err());
    }
}
