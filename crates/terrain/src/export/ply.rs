//! ASCII PLY backend: the terrain mesh with per-face colors.
//!
//! PLY (the Stanford polygon format) carries per-face color properties that
//! core Wavefront OBJ cannot, so this is the backend of choice when the
//! colormap must survive into a mesh viewer. The output is the ASCII dialect:
//! a self-describing header, one `x y z` line per vertex, then one
//! `3 a b c r g b` line per triangular face.

use super::fixed::push_fixed;
use super::{Exporter, RenderScene};
use crate::error::TerrainResult;

/// The ASCII PLY backend: streams the scene's mesh with face colors.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Ply;

impl Exporter for Ply {
    fn name(&self) -> &'static str {
        "ply"
    }

    fn file_extension(&self) -> &'static str {
        "ply"
    }

    fn write_to(&self, scene: &RenderScene<'_>, out: &mut dyn std::io::Write) -> TerrainResult<()> {
        let mesh = scene.mesh;
        out.write_all(b"ply\nformat ascii 1.0\ncomment graph-terrain mesh export\n")?;
        writeln!(out, "element vertex {}", mesh.vertex_count())?;
        out.write_all(b"property float x\nproperty float y\nproperty float z\n")?;
        writeln!(out, "element face {}", mesh.triangle_count())?;
        out.write_all(
            b"property list uchar uint vertex_indices\n\
              property uchar red\nproperty uchar green\nproperty uchar blue\n\
              end_header\n",
        )?;
        let mut line = Vec::new();
        for v in &mesh.vertices {
            // PLY viewers treat +z as up, matching the mesh's own convention.
            line.clear();
            push_fixed(&mut line, v.x, 6);
            line.push(b' ');
            push_fixed(&mut line, v.y, 6);
            line.push(b' ');
            push_fixed(&mut line, v.z, 6);
            line.push(b'\n');
            out.write_all(&line)?;
        }
        for t in &mesh.triangles {
            writeln!(
                out,
                "3 {} {} {} {} {} {}",
                t.indices[0], t.indices[1], t.indices[2], t.color.r, t.color.g, t.color.b
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use crate::mesh::{build_terrain_mesh, MeshConfig, TerrainMesh};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn sample() -> (scalarfield::SuperScalarTree, crate::TerrainLayout, TerrainMesh) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = vec![3.0, 2.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
        (tree, layout, mesh)
    }

    #[test]
    fn ply_header_counts_match_the_body() {
        let (tree, layout, mesh) = sample();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let ply = Ply.export_string(&scene).unwrap();
        assert!(ply.starts_with("ply\nformat ascii 1.0\n"));
        assert!(ply.contains(&format!("element vertex {}", mesh.vertex_count())));
        assert!(ply.contains(&format!("element face {}", mesh.triangle_count())));
        let body: Vec<&str> = ply.split("end_header\n").nth(1).unwrap().lines().collect();
        assert_eq!(body.len(), mesh.vertex_count() + mesh.triangle_count());
        // Face lines: `3 a b c r g b` with indices in range and u8 colors.
        for line in &body[mesh.vertex_count()..] {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(tokens.len(), 7);
            assert_eq!(tokens[0], "3");
            for idx in &tokens[1..4] {
                let idx: usize = idx.parse().unwrap();
                assert!(idx < mesh.vertex_count());
            }
            for channel in &tokens[4..] {
                channel.parse::<u8>().unwrap();
            }
        }
    }

    #[test]
    fn empty_mesh_is_a_valid_empty_ply() {
        let mesh = TerrainMesh::default();
        let (tree, layout, _) = sample();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let ply = Ply.export_string(&scene).unwrap();
        assert!(ply.contains("element vertex 0"));
        assert!(ply.contains("element face 0"));
        assert!(ply.trim_end().ends_with("end_header"));
    }
}
