//! ASCII heightmap backend: a quick terminal view of a terrain.
//!
//! The heightmap samples the 2D layout on a character grid; every cell shows
//! the height of the deepest nested boundary covering it, using a ramp of
//! characters from `.` (baseline) to `#` (summit). Examples and the quickstart
//! use this to show a terrain without leaving the terminal.

use super::{Exporter, RenderScene};
use crate::error::TerrainResult;
use crate::layout2d::TerrainLayout;

/// The character ramp, lowest to highest.
const RAMP: &[u8] = b" .:-=+*%@#";

/// The terminal backend: streams the layout's height field as ASCII art of
/// `cols` by `rows` characters (plus newlines).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ascii {
    /// Grid width in characters.
    pub cols: usize,
    /// Grid height in characters.
    pub rows: usize,
}

impl Default for Ascii {
    fn default() -> Self {
        Ascii { cols: 64, rows: 20 }
    }
}

impl Ascii {
    /// A backend with an explicit character-grid size.
    pub fn new(cols: usize, rows: usize) -> Self {
        Ascii { cols, rows }
    }
}

impl Exporter for Ascii {
    fn name(&self) -> &'static str {
        "ascii"
    }

    fn file_extension(&self) -> &'static str {
        "txt"
    }

    fn write_to(
        &self,
        scene: &RenderScene<'_>,
        writer: &mut dyn std::io::Write,
    ) -> TerrainResult<()> {
        writer.write_all(render_heightmap(scene.layout, self.cols, self.rows).as_bytes())?;
        Ok(())
    }
}

fn render_heightmap(layout: &TerrainLayout, cols: usize, rows: usize) -> String {
    if layout.rects.is_empty() || cols == 0 || rows == 0 {
        return String::new();
    }
    let min_h = layout.scalar.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_h = layout.scalar.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max_h - min_h).max(1e-12);

    let mut out = String::with_capacity((cols + 1) * rows);
    for row in 0..rows {
        // Row 0 is the top of the layout (max y).
        let y = layout.config.height * (1.0 - (row as f64 + 0.5) / rows as f64);
        for col in 0..cols {
            let x = layout.config.width * (col as f64 + 0.5) / cols as f64;
            let h = layout.height_at_point(x, y);
            let t = ((h - min_h) / span).clamp(0.0, 1.0);
            let idx = (t * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use measures::core_numbers;
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn sample_layout() -> TerrainLayout {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let g = b.build();
        let cores = core_numbers(&g);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        layout_super_tree(&tree, &LayoutConfig::default())
    }

    #[test]
    fn heightmap_has_requested_dimensions() {
        let layout = sample_layout();
        let art = render_heightmap(&layout, 40, 12);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 12);
        assert!(lines.iter().all(|l| l.chars().count() == 40));
    }

    #[test]
    fn heightmap_uses_multiple_height_levels() {
        let layout = sample_layout();
        let art = render_heightmap(&layout, 60, 20);
        let distinct: std::collections::BTreeSet<char> =
            art.chars().filter(|c| *c != '\n').collect();
        assert!(distinct.len() >= 2, "terrain with peaks should use several glyphs");
        // The summit glyph appears somewhere.
        assert!(art.contains('#') || art.contains('@'));
    }

    #[test]
    fn degenerate_requests_return_empty_strings() {
        let layout = sample_layout();
        assert!(render_heightmap(&layout, 0, 10).is_empty());
        assert!(render_heightmap(&layout, 10, 0).is_empty());
    }
}
