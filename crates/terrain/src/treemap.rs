//! The flat 2D treemap view (Figure 5(a)).
//!
//! Section II-E: "We can also link a 2D treemap of the scalar graph by setting
//! the height of all boundaries to 0 and (optionally) using colors –
//! red/yellow/green/blue – to indicate highest/high/low/lowest value." The
//! treemap shares the nested layout with the 3D terrain; only the encoding of
//! the scalar changes (color instead of height), which is exactly the
//! trade-off the paper discusses (peaks 1 and 2 of Figure 5 are
//! distinguishable by height but not by color).

use crate::color::{colormap, normalize_for_color, Color};
use crate::layout2d::{Rect, TerrainLayout};
use scalarfield::SuperScalarTree;

/// One cell of the treemap (one super node).
#[derive(Clone, Debug, PartialEq)]
pub struct TreemapCell {
    /// The super node this cell represents.
    pub node: u32,
    /// The cell rectangle.
    pub rect: Rect,
    /// The node's scalar value.
    pub scalar: f64,
    /// The fill color (colormapped scalar).
    pub color: Color,
    /// Nesting depth (for draw order: parents first).
    pub depth: usize,
    /// Number of graph elements in the node's subtree.
    pub subtree_members: usize,
}

/// A 2D treemap of a super scalar tree.
#[derive(Clone, Debug, Default)]
pub struct Treemap {
    /// Cells in draw order (parents before children).
    pub cells: Vec<TreemapCell>,
}

impl Treemap {
    /// Number of cells (= number of super nodes).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell of a given super node.
    pub fn cell_of(&self, node: u32) -> Option<&TreemapCell> {
        self.cells.iter().find(|c| c.node == node)
    }
}

/// Build the 2D treemap from a super tree and its layout.
pub fn build_treemap(tree: &SuperScalarTree, layout: &TerrainLayout) -> Treemap {
    let normalized = normalize_for_color(tree.scalars());
    let mut cells: Vec<TreemapCell> = Vec::with_capacity(tree.node_count());
    // Ids are in DFS pre-order, so a parent's cell (and depth) comes first.
    for (id, parent) in tree.parents().iter().enumerate() {
        cells.push(TreemapCell {
            node: id as u32,
            rect: layout.rects[id],
            scalar: tree.scalars()[id],
            color: colormap(normalized[id]),
            depth: parent.map_or(0, |p| cells[p as usize].depth + 1),
            subtree_members: tree.subtree_member_count(id as u32),
        });
    }
    // Draw order: shallow first so nested cells paint over their parents.
    cells.sort_by_key(|c| (c.depth, c.node));
    Treemap { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::{BLUE, RED};
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn chain_treemap() -> (SuperScalarTree, Treemap) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = vec![4.0, 3.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let map = build_treemap(&tree, &layout);
        (tree, map)
    }

    #[test]
    fn one_cell_per_super_node_in_parent_first_order() {
        let (tree, map) = chain_treemap();
        assert_eq!(map.cell_count(), tree.node_count());
        for w in map.cells.windows(2) {
            assert!(w[0].depth <= w[1].depth, "cells must be ordered parents-first");
        }
    }

    #[test]
    fn colors_span_the_scale() {
        let (tree, map) = chain_treemap();
        // The minimum-scalar node is blue, the maximum-scalar node is red.
        let min_node = (0..tree.node_count())
            .min_by(|&a, &b| tree.scalars()[a].total_cmp(&tree.scalars()[b]))
            .unwrap();
        let max_node = (0..tree.node_count())
            .max_by(|&a, &b| tree.scalars()[a].total_cmp(&tree.scalars()[b]))
            .unwrap();
        assert_eq!(map.cell_of(min_node as u32).unwrap().color, BLUE);
        assert_eq!(map.cell_of(max_node as u32).unwrap().color, RED);
    }

    #[test]
    fn cells_record_subtree_sizes() {
        let (tree, map) = chain_treemap();
        let root = tree.roots()[0];
        assert_eq!(map.cell_of(root).unwrap().subtree_members, 4);
        assert_eq!(map.cell_of(root).unwrap().depth, 0);
    }
}
