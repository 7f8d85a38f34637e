//! Wavefront OBJ backend.
//!
//! The OBJ stream contains every mesh vertex and triangle — sufficient for
//! inspection and for importing the geometry into standard viewers, which is
//! all the reproduction needs. Per-face colors are not part of core OBJ; use
//! [`Ply`](super::Ply) when colors must survive the export.

use super::fixed::push_fixed;
use super::{Exporter, RenderScene};
use crate::error::TerrainResult;
use crate::mesh::TerrainMesh;
use std::io::Write;

/// The Wavefront OBJ backend: streams the scene's mesh as OBJ text.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Obj;

impl Exporter for Obj {
    fn name(&self) -> &'static str {
        "obj"
    }

    fn file_extension(&self) -> &'static str {
        "obj"
    }

    fn write_to(
        &self,
        scene: &RenderScene<'_>,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        write_obj(scene.mesh, writer)
    }
}

fn write_obj(mesh: &TerrainMesh, out: &mut dyn Write) -> TerrainResult<()> {
    out.write_all(b"# graph-terrain mesh export\n")?;
    writeln!(out, "# {} vertices, {} triangles", mesh.vertex_count(), mesh.triangle_count())?;
    let mut line = Vec::new();
    for v in &mesh.vertices {
        line.clear();
        line.push(b'v');
        for coordinate in [v.x, v.z, v.y] {
            line.push(b' ');
            push_fixed(&mut line, coordinate, 6);
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    for t in &mesh.triangles {
        // OBJ face indices are 1-based.
        writeln!(out, "f {} {} {}", t.indices[0] + 1, t.indices[1] + 1, t.indices[2] + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use crate::mesh::{build_terrain_mesh, MeshConfig};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn obj_text(mesh: &TerrainMesh) -> String {
        let mut out = Vec::new();
        write_obj(mesh, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn sample_mesh() -> TerrainMesh {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = vec![3.0, 2.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        build_terrain_mesh(&tree, &layout, &MeshConfig::default())
    }

    #[test]
    fn obj_has_one_line_per_vertex_and_face() {
        let mesh = sample_mesh();
        let obj = obj_text(&mesh);
        let v_lines = obj.lines().filter(|l| l.starts_with("v ")).count();
        let f_lines = obj.lines().filter(|l| l.starts_with("f ")).count();
        assert_eq!(v_lines, mesh.vertex_count());
        assert_eq!(f_lines, mesh.triangle_count());
    }

    #[test]
    fn obj_faces_are_one_based_and_in_range() {
        let mesh = sample_mesh();
        let obj = obj_text(&mesh);
        for line in obj.lines().filter(|l| l.starts_with("f ")) {
            for token in line.split_whitespace().skip(1) {
                let idx: usize = token.parse().unwrap();
                assert!(idx >= 1 && idx <= mesh.vertex_count());
            }
        }
    }

    #[test]
    fn empty_mesh_exports_header_only() {
        let obj = obj_text(&TerrainMesh::default());
        assert!(obj.contains("0 vertices, 0 triangles"));
        assert!(!obj.lines().any(|l| l.starts_with("v ")));
    }
}
