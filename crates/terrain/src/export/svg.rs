//! SVG backends: the oblique-projected 3D terrain view ([`Svg`]) and the flat
//! treemap view ([`TreemapSvg`]).
//!
//! The 3D view uses a cabinet (oblique) projection: `sx = x + depth·cos(30°)·y`
//! and `sy = -z + depth·sin(30°)·y`, with faces painted back-to-front
//! (painter's algorithm ordered by the face's mean `y`, then mean `z`). This
//! is a faithful static stand-in for the paper's rotatable OpenGL view: the
//! projection direction plays the role of the camera angle.

use super::fixed::push_fixed;
use super::{Exporter, RenderScene};
use crate::error::TerrainResult;
use crate::mesh::TerrainMesh;
use crate::treemap::{build_treemap, Treemap};
use std::io::Write;

/// The 3D terrain backend: streams the oblique-projected mesh as an SVG
/// document.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Svg {
    /// Output width in pixels.
    pub width_px: f64,
    /// Output height in pixels.
    pub height_px: f64,
}

impl Default for Svg {
    fn default() -> Self {
        Svg { width_px: 900.0, height_px: 700.0 }
    }
}

impl Svg {
    /// A backend with an explicit pixel size.
    pub fn new(width_px: f64, height_px: f64) -> Self {
        Svg { width_px, height_px }
    }
}

impl Exporter for Svg {
    fn name(&self) -> &'static str {
        "svg"
    }

    fn file_extension(&self) -> &'static str {
        "svg"
    }

    fn write_to(
        &self,
        scene: &RenderScene<'_>,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        write_terrain_svg(scene.mesh, self.width_px, self.height_px, writer)
    }
}

/// The flat 2D treemap backend (Figure 5(a)): builds the treemap from the
/// scene's tree and layout and streams it as an SVG document.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TreemapSvg {
    /// Output width in pixels.
    pub width_px: f64,
    /// Output height in pixels.
    pub height_px: f64,
}

impl Default for TreemapSvg {
    fn default() -> Self {
        TreemapSvg { width_px: 900.0, height_px: 700.0 }
    }
}

impl TreemapSvg {
    /// A backend with an explicit pixel size.
    pub fn new(width_px: f64, height_px: f64) -> Self {
        TreemapSvg { width_px, height_px }
    }
}

impl Exporter for TreemapSvg {
    fn name(&self) -> &'static str {
        "treemap"
    }

    fn file_extension(&self) -> &'static str {
        "svg"
    }

    fn write_to(
        &self,
        scene: &RenderScene<'_>,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        let map = build_treemap(scene.tree, scene.layout);
        write_treemap_svg(&map, self.width_px, self.height_px, writer)
    }
}

/// Stream a treemap as an SVG document of the given pixel size.
fn write_treemap_svg(
    map: &Treemap,
    width_px: f64,
    height_px: f64,
    out: &mut dyn Write,
) -> TerrainResult<()> {
    // Determine the layout extent to scale into the pixel viewport.
    let (mut max_x, mut max_y) = (1e-9f64, 1e-9f64);
    for cell in &map.cells {
        max_x = max_x.max(cell.rect.x1);
        max_y = max_y.max(cell.rect.y1);
    }
    let sx = width_px / max_x;
    let sy = height_px / max_y;

    writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">"#
    )?;
    out.write_all(b"<!-- graph-terrain 2D treemap -->\n")?;
    let mut line = Vec::new();
    for cell in &map.cells {
        line.clear();
        line.extend_from_slice(br#"  <rect x=""#);
        push_fixed(&mut line, cell.rect.x0 * sx, 2);
        line.extend_from_slice(br#"" y=""#);
        push_fixed(&mut line, (max_y - cell.rect.y1) * sy, 2);
        line.extend_from_slice(br#"" width=""#);
        push_fixed(&mut line, cell.rect.width() * sx, 2);
        line.extend_from_slice(br#"" height=""#);
        push_fixed(&mut line, cell.rect.height() * sy, 2);
        line.extend_from_slice(br#"" fill=""#);
        line.extend_from_slice(&cell.color.hex_bytes());
        let _ = write!(
            line,
            r##"" stroke="#222222" stroke-width="0.5"><title>node {} scalar "##,
            cell.node
        );
        push_fixed(&mut line, cell.scalar, 3);
        let _ = writeln!(line, " members {}</title></rect>", cell.subtree_members);
        out.write_all(&line)?;
    }
    out.write_all(b"</svg>\n")?;
    Ok(())
}

/// Stream a terrain mesh as an SVG document using an oblique projection.
fn write_terrain_svg(
    mesh: &TerrainMesh,
    width_px: f64,
    height_px: f64,
    out: &mut dyn Write,
) -> TerrainResult<()> {
    if mesh.vertices.is_empty() {
        writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}"/>"#
        )?;
        return Ok(());
    }

    // Oblique projection parameters.
    let depth = 0.45f64;
    let (cos_a, sin_a) = (30f64.to_radians().cos(), 30f64.to_radians().sin());
    let project =
        |x: f64, y: f64, z: f64| -> (f64, f64) { (x + depth * cos_a * y, -z - depth * sin_a * y) };

    // Projected bounding box for scaling.
    let mut pmin = (f64::INFINITY, f64::INFINITY);
    let mut pmax = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for v in &mesh.vertices {
        let p = project(v.x, v.y, v.z);
        pmin = (pmin.0.min(p.0), pmin.1.min(p.1));
        pmax = (pmax.0.max(p.0), pmax.1.max(p.1));
    }
    let span_x = (pmax.0 - pmin.0).max(1e-9);
    let span_y = (pmax.1 - pmin.1).max(1e-9);
    let scale = (width_px / span_x).min(height_px / span_y) * 0.95;
    let to_px = |p: (f64, f64)| -> (f64, f64) {
        (
            (p.0 - pmin.0) * scale + (width_px - span_x * scale) / 2.0,
            (p.1 - pmin.1) * scale + (height_px - span_y * scale) / 2.0,
        )
    };

    // Painter's algorithm: sort triangles by depth (far to near), then height.
    // Each key is computed once; the stable sort keeps id order within ties.
    let mut order: Vec<((f64, f64), usize)> = mesh
        .triangles
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mean_y = t.indices.iter().map(|&v| mesh.vertices[v as usize].y).sum::<f64>() / 3.0;
            let mean_z = t.indices.iter().map(|&v| mesh.vertices[v as usize].z).sum::<f64>() / 3.0;
            ((mean_y, mean_z), i)
        })
        .collect();
    order.sort_by(|((ya, za), _), ((yb, zb), _)| yb.total_cmp(ya).then(za.total_cmp(zb)));

    writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">"#
    )?;
    out.write_all(b"<!-- graph-terrain 3D terrain (oblique projection) -->\n")?;
    // One polygon element per triangle, formatted into a reused buffer.
    let mut line = Vec::new();
    for (_, i) in order {
        let t = &mesh.triangles[i];
        line.clear();
        line.extend_from_slice(br#"  <polygon points=""#);
        for (corner, &v) in t.indices.iter().enumerate() {
            let vert = &mesh.vertices[v as usize];
            let p = to_px(project(vert.x, vert.y, vert.z));
            if corner > 0 {
                line.push(b' ');
            }
            push_fixed(&mut line, p.0, 2);
            line.push(b',');
            push_fixed(&mut line, p.1, 2);
        }
        line.extend_from_slice(br#"" fill=""#);
        line.extend_from_slice(&t.color.hex_bytes());
        line.extend_from_slice(b"\" stroke=\"none\"/>\n");
        out.write_all(&line)?;
    }
    out.write_all(b"</svg>\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig, TerrainLayout};
    use crate::mesh::{build_terrain_mesh, MeshConfig};
    use measures::core_numbers;
    use scalarfield::{build_super_tree, vertex_scalar_tree, SuperScalarTree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn pipeline() -> (SuperScalarTree, TerrainLayout, TerrainMesh, Treemap) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]);
        let g = b.build();
        let cores = core_numbers(&g);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
        let map = build_treemap(&tree, &layout);
        (tree, layout, mesh, map)
    }

    #[test]
    fn treemap_svg_has_one_rect_per_cell() {
        let (tree, layout, mesh, map) = pipeline();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let svg = TreemapSvg::new(640.0, 480.0).export_string(&scene).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, map.cell_count());
    }

    #[test]
    fn terrain_svg_has_one_polygon_per_triangle() {
        let (tree, layout, mesh, _) = pipeline();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let svg = Svg::new(800.0, 600.0).export_string(&scene).unwrap();
        let polygons = svg.matches("<polygon").count();
        assert_eq!(polygons, mesh.triangle_count());
        // All emitted coordinates are finite numbers within the viewport
        // (loosely checked: no NaN/inf tokens).
        assert!(!svg.contains("NaN") && !svg.contains("inf"));
    }

    #[test]
    fn backends_stream_exactly_what_their_writers_write() {
        let (tree, layout, mesh, map) = pipeline();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let mut direct = Vec::new();
        write_terrain_svg(&mesh, 800.0, 600.0, &mut direct).unwrap();
        let streamed = Svg::new(800.0, 600.0).export_string(&scene).unwrap();
        assert_eq!(streamed.as_bytes(), direct);
        // The treemap backend builds its own treemap from the scene.
        let mut direct = Vec::new();
        write_treemap_svg(&map, 640.0, 480.0, &mut direct).unwrap();
        let streamed = TreemapSvg::new(640.0, 480.0).export_string(&scene).unwrap();
        assert_eq!(streamed.as_bytes(), direct);
    }

    #[test]
    fn empty_mesh_still_produces_valid_svg() {
        let mut svg = Vec::new();
        write_terrain_svg(&TerrainMesh::default(), 100.0, 100.0, &mut svg).unwrap();
        assert!(String::from_utf8(svg).unwrap().contains("<svg"));
    }
}
