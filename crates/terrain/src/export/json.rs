//! JSON scene backend: the whole rendered scene — mesh, layout, tree scalars
//! and stage timings — as one JSON document for web frontends.
//!
//! The document is hand-serialized (no serde dependency) with a fixed field
//! order and shortest-round-trip `f64` formatting, so identical scenes always
//! produce identical bytes and every number survives `JSON.parse` exactly.
//!
//! Layout:
//!
//! ```json
//! {
//!   "meta": {"nodes": 5, "vertices": 40, "triangles": 36},
//!   "tree": {"scalars": [...], "parents": [...], "subtree_members": [...]},
//!   "layout": {"width": 1.0, "height": 1.0, "rects": [[x0,y0,x1,y1], ...]},
//!   "mesh": {"vertices": [[x,y,z], ...],
//!            "triangles": [{"v": [a,b,c], "color": "#rrggbb", "node": 0, "top": true}, ...]},
//!   "timings": [{"stage": "tree", "seconds": 0.25}, ...]
//! }
//! ```

use super::{Exporter, RenderScene};
use crate::error::TerrainResult;

/// The JSON backend: streams mesh + layout + tree + timings for consumption
/// by web frontends (or anything else that speaks JSON).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonScene;

/// JSON-format a float: `f64`'s `Display` is already the shortest decimal
/// that round-trips, and every scene value is finite (enforced upstream), so
/// no special casing is needed beyond making integers explicit floats — which
/// JSON does not require either. `1` parses as the number 1.
fn num(value: f64) -> String {
    value.to_string()
}

impl Exporter for JsonScene {
    fn name(&self) -> &'static str {
        "json"
    }

    fn file_extension(&self) -> &'static str {
        "json"
    }

    fn write_to(&self, scene: &RenderScene<'_>, out: &mut dyn std::io::Write) -> TerrainResult<()> {
        let tree = scene.tree;
        let layout = scene.layout;
        let mesh = scene.mesh;

        writeln!(out, "{{")?;
        writeln!(
            out,
            "  \"meta\": {{\"nodes\": {}, \"vertices\": {}, \"triangles\": {}}},",
            tree.node_count(),
            mesh.vertex_count(),
            mesh.triangle_count()
        )?;

        // Tree: scalars, parents (null for roots), subtree member counts.
        write!(out, "  \"tree\": {{\"scalars\": [")?;
        for (i, s) in tree.scalars().iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{}", num(*s))?;
        }
        write!(out, "], \"parents\": [")?;
        for (i, p) in tree.parents().iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            match p {
                Some(parent) => write!(out, "{parent}")?,
                None => write!(out, "null")?,
            }
        }
        write!(out, "], \"subtree_members\": [")?;
        for (i, count) in tree.subtree_member_counts().iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{count}")?;
        }
        writeln!(out, "]}},")?;

        // Layout: the domain and one rect per node.
        writeln!(
            out,
            "  \"layout\": {{\"width\": {}, \"height\": {}, \"rects\": [",
            num(layout.config.width),
            num(layout.config.height)
        )?;
        for (i, r) in layout.rects.iter().enumerate() {
            let comma = if i + 1 < layout.rects.len() { "," } else { "" };
            writeln!(
                out,
                "    [{}, {}, {}, {}]{comma}",
                num(r.x0),
                num(r.y0),
                num(r.x1),
                num(r.y1)
            )?;
        }
        writeln!(out, "  ]}},")?;

        // Mesh: positions and indexed, colored triangles.
        writeln!(out, "  \"mesh\": {{\"vertices\": [")?;
        for (i, v) in mesh.vertices.iter().enumerate() {
            let comma = if i + 1 < mesh.vertices.len() { "," } else { "" };
            writeln!(out, "    [{}, {}, {}]{comma}", num(v.x), num(v.y), num(v.z))?;
        }
        writeln!(out, "  ], \"triangles\": [")?;
        for (i, t) in mesh.triangles.iter().enumerate() {
            let comma = if i + 1 < mesh.triangles.len() { "," } else { "" };
            let color = t.color.hex_bytes();
            writeln!(
                out,
                "    {{\"v\": [{}, {}, {}], \"color\": \"{}\", \"node\": {}, \"top\": {}}}{comma}",
                t.indices[0],
                t.indices[1],
                t.indices[2],
                String::from_utf8_lossy(&color),
                t.node,
                t.is_top
            )?;
        }
        writeln!(out, "  ]}},")?;

        // Timings, exactly as the producer recorded them.
        write!(out, "  \"timings\": [")?;
        for (i, t) in scene.timings.iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{{\"stage\": \"{}\", \"seconds\": {}}}", t.stage, num(t.seconds))?;
        }
        writeln!(out, "]")?;
        writeln!(out, "}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::SceneTiming;
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use crate::mesh::{build_terrain_mesh, MeshConfig};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn scene_parts() -> (scalarfield::SuperScalarTree, crate::TerrainLayout, crate::TerrainMesh) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
        let g = b.build();
        let scalar = vec![2.0, 2.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
        (tree, layout, mesh)
    }

    #[test]
    fn json_scene_has_every_section_and_matching_counts() {
        let (tree, layout, mesh) = scene_parts();
        let timings = [
            SceneTiming { stage: "tree", seconds: 0.5 },
            SceneTiming { stage: "mesh", seconds: 0.25 },
        ];
        let scene = RenderScene::new(&tree, &layout, &mesh).with_timings(&timings);
        let json = JsonScene.export_string(&scene).unwrap();
        for key in ["\"meta\"", "\"tree\"", "\"layout\"", "\"mesh\"", "\"timings\""] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches("\"color\"").count(), mesh.triangle_count());
        assert!(json.contains("{\"stage\": \"tree\", \"seconds\": 0.5}"));
        // Balanced braces/brackets — a cheap structural sanity check that
        // catches missed commas and unterminated arrays.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_scene_without_timings_has_empty_array() {
        let (tree, layout, mesh) = scene_parts();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let json = JsonScene.export_string(&scene).unwrap();
        assert!(json.contains("\"timings\": []"));
    }
}
