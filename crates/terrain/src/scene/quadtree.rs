//! A flat-arena quadtree over scene item rectangles.
//!
//! Built once per scene, queried per tile request. The arena keeps every
//! node in one `Vec` (the four children of an interior node are allocated
//! contiguously, addressed by the index of the first) and every item id in
//! one CSR `Vec`, so a build allocates O(nodes) and a query walks
//! indices — no boxing, no pointer chasing, no recursion.
//!
//! Invariants (checked by `debug_assert` and the property tests):
//!
//! * every item id appears in exactly one node's item range — at the
//!   deepest node whose quadrant fully contains it on both axes (items
//!   straddling a split midline stay at the splitting node);
//! * a node is split only while it holds more than `LEAF_CAP` items and
//!   is shallower than `MAX_DEPTH`, so degenerate inputs (all items
//!   stacked on one point) terminate;
//! * within a node, item ids keep their insertion order, making
//!   [`query`](Quadtree::query) output deterministic before the final
//!   sort even matters.
//!
//! `query(viewport)` is `O(log n + k)` for usual scenes: the walk visits
//! the `O(log n)` nodes on the viewport's boundary path plus the nodes
//! fully inside it, which is proportional to the `k` reported items.

use crate::layout2d::Rect;

/// Stop splitting below this many items per node.
const LEAF_CAP: usize = 16;
/// Hard depth bound so identical/overlapping rects cannot recurse forever.
const MAX_DEPTH: u32 = 12;

/// Sentinel for "no children" in a [`Node`].
const NO_CHILDREN: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    /// The quadrant of layout space this node owns.
    region: Rect,
    /// Index of the first of four contiguous children, or [`NO_CHILDREN`].
    children: u32,
    /// Start of this node's item ids in [`Quadtree::item_ids`].
    start: u32,
    /// Number of item ids at this node.
    len: u32,
}

/// The flat-arena quadtree. Indices returned by queries refer to the item
/// slice the tree was built over.
#[derive(Clone, Debug)]
pub struct Quadtree {
    nodes: Vec<Node>,
    item_ids: Vec<u32>,
    /// A copy of each item's rectangle, indexed by item id (the query hot
    /// path reads these; keeping them inline avoids chasing the caller's
    /// slice through a lifetime).
    rects: Vec<Rect>,
    /// Each item's nesting depth, for [`hit_test`](Self::hit_test)'s
    /// deepest-wins rule.
    depths: Vec<u32>,
}

impl Quadtree {
    /// Build the tree over `rects` (one per scene item, in scene order)
    /// within `bounds`. `depths[i]` is item `i`'s nesting depth, used by
    /// [`hit_test`](Self::hit_test) to prefer the most nested item.
    pub fn build(bounds: Rect, rects: &[Rect], depths: &[u32]) -> Quadtree {
        assert_eq!(rects.len(), depths.len(), "one depth per rect");
        debug_assert!(
            rects.iter().all(|r| bounds.contains_rect(r)),
            "every indexed rect must lie within the tree bounds"
        );
        // Interim per-node item lists; flattened into CSR afterwards.
        let mut node_items: Vec<Vec<u32>> = Vec::new();
        let mut nodes: Vec<Node> = Vec::new();
        nodes.push(Node { region: bounds, children: NO_CHILDREN, start: 0, len: 0 });
        node_items.push((0..rects.len() as u32).collect());

        // (node index, depth) of nodes whose item list may still split.
        let mut work: Vec<(u32, u32)> = vec![(0, 0)];
        while let Some((node_idx, depth)) = work.pop() {
            let candidates = std::mem::take(&mut node_items[node_idx as usize]);
            if candidates.len() <= LEAF_CAP || depth >= MAX_DEPTH {
                node_items[node_idx as usize] = candidates;
                continue;
            }
            let region = nodes[node_idx as usize].region;
            let (mid_x, mid_y) = region.center();
            // Quadrants in (SW, SE, NW, NE) order; an item descends only
            // when one quadrant contains it fully on both axes.
            let quadrants = [
                Rect::new(region.x0, region.y0, mid_x, mid_y),
                Rect::new(mid_x, region.y0, region.x1, mid_y),
                Rect::new(region.x0, mid_y, mid_x, region.y1),
                Rect::new(mid_x, mid_y, region.x1, region.y1),
            ];
            let first_child = nodes.len() as u32;
            for quadrant in quadrants {
                nodes.push(Node { region: quadrant, children: NO_CHILDREN, start: 0, len: 0 });
                node_items.push(Vec::new());
            }
            let mut stuck = Vec::new();
            for id in candidates {
                let r = &rects[id as usize];
                let east = r.x0 >= mid_x;
                let west = r.x1 <= mid_x;
                let north = r.y0 >= mid_y;
                let south = r.y1 <= mid_y;
                let quadrant = match (west || east, south || north) {
                    (true, true) => Some(usize::from(east) + 2 * usize::from(north)),
                    _ => None, // straddles a midline: stays at this node
                };
                match quadrant {
                    Some(q) => node_items[first_child as usize + q].push(id),
                    None => stuck.push(id),
                }
            }
            nodes[node_idx as usize].children = first_child;
            node_items[node_idx as usize] = stuck;
            for q in 0..4u32 {
                work.push((first_child + q, depth + 1));
            }
        }

        // Flatten the per-node lists into one CSR arena.
        let mut item_ids = Vec::with_capacity(rects.len());
        for (node, list) in nodes.iter_mut().zip(&node_items) {
            node.start = item_ids.len() as u32;
            node.len = list.len() as u32;
            item_ids.extend_from_slice(list);
        }
        debug_assert_eq!(item_ids.len(), rects.len(), "every item lands in exactly one node");
        Quadtree { nodes, item_ids, rects: rects.to_vec(), depths: depths.to_vec() }
    }

    /// Number of arena nodes (for diagnostics and invariants tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of indexed items.
    pub fn item_count(&self) -> usize {
        self.rects.len()
    }

    /// Bytes held by the index: the summed byte length of its node arena,
    /// item-id CSR, rectangle and depth copies (not spare capacity).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.nodes.as_slice())
            + size_of_val(self.item_ids.as_slice())
            + size_of_val(self.rects.as_slice())
            + size_of_val(self.depths.as_slice())
    }

    /// All item ids whose rectangle overlaps `viewport` with positive
    /// area (the [`Rect::intersects`] predicate), ascending.
    pub fn query(&self, viewport: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![0u32];
        while let Some(node_idx) = stack.pop() {
            let node = &self.nodes[node_idx as usize];
            if !node.region.intersects(viewport) {
                continue;
            }
            let ids = &self.item_ids[node.start as usize..(node.start + node.len) as usize];
            for &id in ids {
                if self.rects[id as usize].intersects(viewport) {
                    out.push(id);
                }
            }
            if node.children != NO_CHILDREN {
                for q in 0..4u32 {
                    stack.push(node.children + q);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The deepest item whose rectangle contains the point (inclusive
    /// boundaries), ties broken toward the higher item id — the same
    /// "most nested wins" rule as `TerrainLayout::node_at_point`, keyed on
    /// nesting depth instead of scalar height.
    pub fn hit_test(&self, x: f64, y: f64) -> Option<u32> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best: Option<(u32, u32)> = None; // (depth, id), max wins
        let mut stack = vec![0u32];
        while let Some(node_idx) = stack.pop() {
            let node = &self.nodes[node_idx as usize];
            if !node.region.contains_point(x, y) {
                continue;
            }
            let ids = &self.item_ids[node.start as usize..(node.start + node.len) as usize];
            for &id in ids {
                if self.rects[id as usize].contains_point(x, y) {
                    let key = (self.depths[id as usize], id);
                    if best.map_or(true, |b| key > b) {
                        best = Some(key);
                    }
                }
            }
            if node.children != NO_CHILDREN {
                // A point on a midline is inside more than one quadrant
                // (boundaries are inclusive) — descend into all of them.
                for q in 0..4u32 {
                    stack.push(node.children + q);
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The obviously-correct references the tree must agree with.
    fn oracle_query(rects: &[Rect], viewport: &Rect) -> Vec<u32> {
        (0..rects.len() as u32).filter(|&i| rects[i as usize].intersects(viewport)).collect()
    }

    fn oracle_hit(rects: &[Rect], depths: &[u32], x: f64, y: f64) -> Option<u32> {
        (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].contains_point(x, y))
            .max_by_key(|&i| (depths[i as usize], i))
    }

    fn rect_strategy() -> impl Strategy<Value = Rect> {
        // Coordinates snapped to a coarse grid so touching edges, exact
        // containment and midline straddles all actually occur.
        (0u32..32, 0u32..32, 1u32..12, 1u32..12).prop_map(|(x, y, w, h)| {
            let (x0, y0) = (x as f64 / 32.0, y as f64 / 32.0);
            Rect::new(x0, y0, (x0 + w as f64 / 32.0).min(1.0), (y0 + h as f64 / 32.0).min(1.0))
        })
    }

    proptest! {
        #[test]
        fn query_matches_linear_scan_oracle(
            rects in proptest::collection::vec(rect_strategy(), 0..120),
            viewport in rect_strategy(),
        ) {
            let depths: Vec<u32> = (0..rects.len() as u32).map(|i| i % 7).collect();
            let tree = Quadtree::build(Rect::new(0.0, 0.0, 1.0, 1.0), &rects, &depths);
            prop_assert_eq!(tree.query(&viewport), oracle_query(&rects, &viewport));
        }

        #[test]
        fn hit_test_matches_linear_scan_oracle(
            rects in proptest::collection::vec(rect_strategy(), 0..120),
            px in 0u32..=32,
            py in 0u32..=32,
        ) {
            let depths: Vec<u32> = (0..rects.len() as u32).map(|i| (i * 13) % 5).collect();
            let tree = Quadtree::build(Rect::new(0.0, 0.0, 1.0, 1.0), &rects, &depths);
            // Grid-aligned points land exactly on rect boundaries and
            // split midlines, the adversarial case for quadrant descent.
            let (x, y) = (px as f64 / 32.0, py as f64 / 32.0);
            prop_assert_eq!(tree.hit_test(x, y), oracle_hit(&rects, &depths, x, y));
        }
    }

    #[test]
    fn identical_stacked_rects_terminate_and_stay_queryable() {
        let rects = vec![Rect::new(0.4, 0.4, 0.6, 0.6); 200];
        let depths = vec![1u32; 200];
        let tree = Quadtree::build(Rect::new(0.0, 0.0, 1.0, 1.0), &rects, &depths);
        assert_eq!(tree.item_count(), 200);
        let hits = tree.query(&Rect::new(0.0, 0.0, 0.5, 0.5));
        assert_eq!(hits.len(), 200);
        assert_eq!(tree.hit_test(0.5, 0.5), Some(199), "ties break to the higher id");
    }

    #[test]
    fn empty_tree_answers_empty() {
        let tree = Quadtree::build(Rect::new(0.0, 0.0, 1.0, 1.0), &[], &[]);
        assert!(tree.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert_eq!(tree.hit_test(0.5, 0.5), None);
        assert_eq!(tree.item_count(), 0);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn query_outside_the_domain_is_empty() {
        let rects = vec![Rect::new(0.1, 0.1, 0.9, 0.9)];
        let tree = Quadtree::build(Rect::new(0.0, 0.0, 1.0, 1.0), &rects, &[0]);
        assert!(tree.query(&Rect::new(2.0, 2.0, 3.0, 3.0)).is_empty());
        assert_eq!(tree.hit_test(-1.0, 0.5), None);
    }
}
