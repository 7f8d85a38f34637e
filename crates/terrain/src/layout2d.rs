//! Nested 2D boundary layout of a super scalar tree (Figure 4(b)).
//!
//! Every super node is assigned an axis-aligned rectangle:
//!
//! * a child's rectangle is strictly contained in its parent's rectangle
//!   (nesting = subtree containment);
//! * siblings' rectangles are disjoint;
//! * the *area* of a node's rectangle is proportional to the number of
//!   elements (graph vertices or edges) in its subtree, within each parent —
//!   the quantity the paper maps to boundary area;
//! * a configurable margin fraction of each parent is reserved as the ring
//!   that visually separates the parent's boundary from its children (the
//!   paper's "wall" footprint).
//!
//! Children are packed with the slice-and-dice rule, alternating the split
//! axis with depth, which keeps the construction deterministic and simple to
//! reason about in tests.
//!
//! One walker owns that arithmetic. [`layout_super_tree`] runs it with the
//! default policies and places every node; the scene's level-of-detail pass
//! ([`crate::scene::lod`]) runs the same walk with its own culling, recursion
//! gate and child cap, so an uncapped, ungated scene has exactly this
//! layout's rectangles.

use crate::error::{TerrainError, TerrainResult};
use scalarfield::SuperScalarTree;

/// An axis-aligned rectangle in layout space.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Rect {
    /// Left coordinate.
    pub x0: f64,
    /// Bottom coordinate.
    pub y0: f64,
    /// Right coordinate.
    pub x1: f64,
    /// Top coordinate.
    pub y1: f64,
}

impl Rect {
    /// Construct a rectangle; panics (debug) if the corners are inverted.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        debug_assert!(x1 >= x0 && y1 >= y0, "rectangle corners are inverted");
        Rect { x0, y0, x1, y1 }
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height (in the plane) of the rectangle.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Whether `other` lies entirely within `self` (boundaries may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 - 1e-12
            && other.y0 >= self.y0 - 1e-12
            && other.x1 <= self.x1 + 1e-12
            && other.y1 <= self.y1 + 1e-12
    }

    /// Whether a point lies inside the rectangle.
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Whether two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The rectangle shrunk by a margin fraction of its smaller side on every
    /// edge.
    pub fn shrunk(&self, margin_fraction: f64) -> Rect {
        let margin = margin_fraction * self.width().min(self.height());
        Rect {
            x0: self.x0 + margin,
            y0: self.y0 + margin,
            x1: (self.x1 - margin).max(self.x0 + margin),
            y1: (self.y1 - margin).max(self.y0 + margin),
        }
    }
}

/// Configuration of the layout.
#[derive(Clone, Copy, Debug)]
pub struct LayoutConfig {
    /// Width of the whole layout domain.
    pub width: f64,
    /// Height of the whole layout domain.
    pub height: f64,
    /// Fraction of each parent's smaller side reserved as margin around its
    /// children (the visible "ring" of the parent).
    pub margin_fraction: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig { width: 1.0, height: 1.0, margin_fraction: 0.06 }
    }
}

impl LayoutConfig {
    /// Validate the configuration: the domain must be finite with positive
    /// area, and the margin fraction must lie in `[0, 0.5)` (at 0.5 the
    /// inner rectangle collapses to a point and every child degenerates).
    pub fn validate(&self) -> TerrainResult<()> {
        let fail = |message: String| Err(TerrainError::Layout { message });
        if !self.width.is_finite() || self.width <= 0.0 {
            return fail(format!("domain width must be finite and positive, got {}", self.width));
        }
        if !self.height.is_finite() || self.height <= 0.0 {
            return fail(format!("domain height must be finite and positive, got {}", self.height));
        }
        if !self.margin_fraction.is_finite() || !(0.0..0.5).contains(&self.margin_fraction) {
            return fail(format!(
                "margin_fraction must lie in [0, 0.5), got {}",
                self.margin_fraction
            ));
        }
        Ok(())
    }
}

/// The complete 2D layout of a super scalar tree.
#[derive(Clone, Debug)]
pub struct TerrainLayout {
    /// `rects[node]` is the boundary rectangle of super node `node`.
    pub rects: Vec<Rect>,
    /// The layout configuration used.
    pub config: LayoutConfig,
    /// Copy of each super node's scalar (for convenience in rendering).
    pub scalar: Vec<f64>,
    /// Copy of each super node's parent.
    pub parent: Vec<Option<u32>>,
    /// Subtree member counts (area weights).
    pub subtree_members: Vec<usize>,
}

impl TerrainLayout {
    /// The deepest (most nested) super node whose rectangle contains the
    /// point, if any — i.e. the terrain node visible from above at `(x, y)`.
    pub fn node_at_point(&self, x: f64, y: f64) -> Option<u32> {
        let mut best: Option<u32> = None;
        let mut best_scalar = f64::NEG_INFINITY;
        for (id, rect) in self.rects.iter().enumerate() {
            if rect.contains_point(x, y) && self.scalar[id] >= best_scalar {
                best = Some(id as u32);
                best_scalar = self.scalar[id];
            }
        }
        best
    }

    /// The height (scalar) of the terrain surface at `(x, y)`, or the baseline
    /// (minimum scalar) if the point is outside every boundary.
    pub fn height_at_point(&self, x: f64, y: f64) -> f64 {
        match self.node_at_point(x, y) {
            Some(node) => self.scalar[node as usize],
            None => self.scalar.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// Compute the nested boundary layout of a super scalar tree, validating the
/// configuration first ([`TerrainError::Layout`] on an invalid domain or
/// margin). This is the entry point of `graph-terrain`'s staged pipeline;
/// [`layout_super_tree`] is the historical infallible wrapper.
pub fn try_layout_super_tree(
    tree: &SuperScalarTree,
    config: &LayoutConfig,
) -> TerrainResult<TerrainLayout> {
    config.validate()?;
    Ok(layout_validated(tree, config))
}

/// Compute the nested boundary layout of a super scalar tree.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`LayoutConfig::validate`]); use
/// [`try_layout_super_tree`] to get a [`TerrainError`] instead.
pub fn layout_super_tree(tree: &SuperScalarTree, config: &LayoutConfig) -> TerrainLayout {
    match try_layout_super_tree(tree, config) {
        Ok(layout) => layout,
        Err(e) => panic!("{e}"),
    }
}

fn layout_validated(tree: &SuperScalarTree, config: &LayoutConfig) -> TerrainLayout {
    /// Records every node's rectangle; the default policies place them all.
    struct FullLayout(Vec<Rect>);
    impl WalkPolicy for FullLayout {
        type Carry = ();
        fn place(&mut self, placed: &Placement, _carry: ()) -> Option<()> {
            self.0[placed.node.expect("uncapped walks place no bucket") as usize] = placed.rect;
            Some(())
        }
    }

    let subtree_members = tree.subtree_member_counts();
    let mut full = FullLayout(vec![Rect::new(0.0, 0.0, 0.0, 0.0); tree.node_count()]);
    walk(tree, config, &subtree_members, &mut full);
    TerrainLayout {
        rects: full.0,
        config: *config,
        scalar: tree.scalars().to_vec(),
        parent: tree.parents().to_vec(),
        subtree_members,
    }
}

/// One rectangle a [`walk`] places: a super node, or the bucket a capped
/// family's folded children share.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Placement {
    /// The super node, or `None` for a bucket.
    pub node: Option<u32>,
    /// Where it was placed.
    pub rect: Rect,
    /// Nesting depth (roots at 0; a bucket at its folded children's depth).
    pub depth: u32,
    /// Subtree members it stands for.
    pub members: u64,
    /// The node's scalar, or the tallest folded child's.
    pub height: f64,
}

/// What a [`walk`] decides beyond the shared slice-and-dice arithmetic. The
/// default gate and cap place every node.
pub(crate) trait WalkPolicy {
    /// What a placed node hands down to its children.
    type Carry: Copy + Default;

    /// Take one placement, given its parent's carry. `None` drops a node's
    /// whole subtree (a bucket has none).
    fn place(&mut self, placed: &Placement, carry: Self::Carry) -> Option<Self::Carry>;

    /// Whether to lay out a placed node's children inside `inner`, the
    /// rectangle they share.
    fn descend(&self, _inner: &Rect) -> bool {
        true
    }

    /// Children per node past which all but the `max_children - 1` heaviest
    /// fold into one bucket.
    fn max_children(&self) -> usize {
        usize::MAX
    }
}

/// Walk `tree` depth first and hand every placement to `policy`. A parent
/// is placed before its subtree, roots and siblings in arena order, and a
/// capped family's bucket right after its parent.
///
/// Roots partition the domain horizontally by subtree weight. A node's
/// children share its inner rectangle: the node's rectangle minus the
/// margin ring, scaled down about its center to the children's share of
/// the subtree's members (at least a fifth) so parents with many direct
/// members keep more visible ring. They are sliced by weight along an axis
/// that alternates with depth, each shrunk by a hairline sibling gap; a
/// bucket takes the trailing slot.
pub(crate) fn walk<P: WalkPolicy>(
    tree: &SuperScalarTree,
    config: &LayoutConfig,
    subtree_members: &[usize],
    policy: &mut P,
) {
    let weight = |node: u32| subtree_members[node as usize] as f64;
    let roots = tree.roots();
    let domain = Rect::new(0.0, 0.0, config.width, config.height);
    let mut slicer = Slicer::new(domain, true, roots.iter().map(|&r| weight(r)).sum(), roots.len());
    let mut stack: Vec<(u32, Rect, u32, P::Carry)> =
        roots.iter().map(|&r| (r, slicer.next(weight(r)), 0, P::Carry::default())).collect();
    stack.reverse();

    let mut kept = Vec::new();
    while let Some((node, rect, depth, carry)) = stack.pop() {
        let members = subtree_members[node as usize] as u64;
        let placed =
            Placement { node: Some(node), rect, depth, members, height: tree.scalar(node) };
        let Some(carry) = policy.place(&placed, carry) else {
            continue;
        };
        let children = tree.children(node);
        if children.is_empty() {
            continue;
        }
        let own = tree.members(node).len() as f64;
        let child_total: f64 = children.iter().map(|&c| weight(c)).sum();
        let share = if child_total + own > 0.0 { child_total / (child_total + own) } else { 0.0 };
        let inner = scale_rect_area(&rect.shrunk(config.margin_fraction), share.max(0.2));
        if !policy.descend(&inner) {
            continue;
        }

        let capped = children.len() > policy.max_children();
        let shown = if capped {
            keep_heaviest(children, policy.max_children() - 1, subtree_members, &mut kept);
            kept.as_slice()
        } else {
            children
        };
        let mut slicer =
            Slicer::new(inner, depth % 2 == 0, child_total, shown.len() + usize::from(capped));
        let first = stack.len();
        for &c in shown {
            stack.push((c, slicer.next(weight(c)).shrunk(SIBLING_GAP), depth + 1, carry));
        }
        if capped {
            let (mut members, mut height) = (0u64, f64::NEG_INFINITY);
            for &c in children.iter().filter(|c| kept.binary_search(c).is_err()) {
                members += subtree_members[c as usize] as u64;
                height = height.max(tree.scalar(c));
            }
            let rect = slicer.next(members as f64).shrunk(SIBLING_GAP);
            policy.place(&Placement { node: None, rect, depth: depth + 1, members, height }, carry);
        }
        // Pop order = arena order.
        stack[first..].reverse();
    }
}

/// Hairline gap between siblings, as a margin fraction, so walls are
/// distinct.
const SIBLING_GAP: f64 = 0.02;

/// Fill `kept` with the `limit` heaviest of `children` by subtree members
/// (ties to the lower id), in id order.
fn keep_heaviest(children: &[u32], limit: usize, subtree_members: &[usize], kept: &mut Vec<u32>) {
    kept.clear();
    kept.extend_from_slice(children);
    kept.select_nth_unstable_by(limit, |&a, &b| {
        subtree_members[b as usize].cmp(&subtree_members[a as usize]).then(a.cmp(&b))
    });
    kept.truncate(limit);
    kept.sort_unstable();
}

/// Slices a rectangle into consecutive slots along one axis, each as wide
/// as its weight's share of `total` (equal slots when `total` is zero).
struct Slicer {
    rect: Rect,
    horizontal: bool,
    total: f64,
    slots: usize,
    cursor: f64,
}

impl Slicer {
    fn new(rect: Rect, horizontal: bool, total: f64, slots: usize) -> Self {
        Slicer { rect, horizontal, total, slots, cursor: 0.0 }
    }

    fn next(&mut self, weight: f64) -> Rect {
        let fraction = if self.total > 0.0 { weight / self.total } else { 1.0 / self.slots as f64 };
        let (r, from, to) = (&self.rect, self.cursor, self.cursor + fraction);
        self.cursor = to;
        if self.horizontal {
            Rect::new(r.x0 + from * r.width(), r.y0, r.x0 + to * r.width(), r.y1)
        } else {
            Rect::new(r.x0, r.y0 + from * r.height(), r.x1, r.y0 + to * r.height())
        }
    }
}

/// Shrink a rectangle about its center so its area becomes `fraction` of the
/// original (fraction clamped to [0, 1]).
fn scale_rect_area(rect: &Rect, fraction: f64) -> Rect {
    let fraction = fraction.clamp(0.0, 1.0);
    let scale = fraction.sqrt();
    let (cx, cy) = rect.center();
    let half_w = rect.width() / 2.0 * scale;
    let half_h = rect.height() / 2.0 * scale;
    Rect::new(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use measures::core_numbers;
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::generators::collaboration_graph;
    use ugraph::GraphBuilder;

    fn kcore_super_tree(graph: &ugraph::CsrGraph) -> SuperScalarTree {
        let cores = core_numbers(graph);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(graph, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    fn figure2_tree() -> SuperScalarTree {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (0, 2), (1, 4), (2, 4)]);
        b.add_edge(3, 5);
        b.extend_edges([(2u32, 6u32), (5, 6)]);
        b.add_edge(6, 7);
        b.add_edge(7, 8);
        let g = b.build();
        let scalar = vec![3.0, 3.0, 4.0, 3.0, 5.0, 4.0, 2.0, 1.5, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    #[test]
    fn children_are_nested_inside_parents_and_siblings_disjoint() {
        let tree = figure2_tree();
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        for id in 0..tree.node_count() as u32 {
            if let Some(p) = tree.parent(id) {
                assert!(
                    layout.rects[p as usize].contains_rect(&layout.rects[id as usize]),
                    "child {id} must nest inside parent {p}"
                );
            }
            let children = tree.children(id);
            for (i, &a) in children.iter().enumerate() {
                for &b in children.iter().skip(i + 1) {
                    assert!(
                        !layout.rects[a as usize].intersects(&layout.rects[b as usize]),
                        "sibling rects {a} and {b} must not overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn sibling_areas_are_proportional_to_subtree_sizes() {
        let g = collaboration_graph(&ugraph::generators::CollaborationConfig {
            authors: 400,
            papers: 400,
            groups: 8,
            groups_per_component: 4,
            seed: 3,
            ..Default::default()
        });
        let tree = kcore_super_tree(&g);
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let counts = tree.subtree_member_counts();
        for node in 0..tree.node_count() as u32 {
            let children = tree.children(node);
            if children.len() < 2 {
                continue;
            }
            for window in children.windows(2) {
                let (a, b) = (window[0] as usize, window[1] as usize);
                // Skip degenerate slivers where the hairline sibling gap
                // dominates the rectangle.
                if counts[a] < 3 || counts[b] < 3 {
                    continue;
                }
                let area_ratio = layout.rects[a].area() / layout.rects[b].area().max(1e-12);
                let count_ratio = counts[a] as f64 / counts[b] as f64;
                // Slice-and-dice with identical sibling gaps keeps the ratio
                // close to the member-count ratio.
                assert!(
                    (area_ratio / count_ratio - 1.0).abs() < 0.5,
                    "area ratio {area_ratio} vs count ratio {count_ratio}"
                );
            }
        }
    }

    #[test]
    fn height_at_point_matches_deepest_nested_node() {
        let tree = figure2_tree();
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        // The center of the highest-scalar node's rect must report that
        // node's height.
        let highest = layout.scalar.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let (cx, cy) = layout.rects[highest].center();
        assert_eq!(layout.node_at_point(cx, cy), Some(highest as u32));
        assert_eq!(layout.height_at_point(cx, cy), layout.scalar[highest]);
        // A point outside the domain falls back to the baseline height.
        let baseline = layout.scalar.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(layout.height_at_point(55.0, 55.0), baseline);
    }

    #[test]
    fn every_rect_fits_in_the_domain() {
        let g = collaboration_graph(&ugraph::generators::CollaborationConfig {
            authors: 300,
            papers: 250,
            groups: 6,
            seed: 11,
            ..Default::default()
        });
        let tree = kcore_super_tree(&g);
        let config = LayoutConfig { width: 10.0, height: 6.0, margin_fraction: 0.05 };
        let layout = layout_super_tree(&tree, &config);
        let domain = Rect::new(0.0, 0.0, 10.0, 6.0);
        for rect in &layout.rects {
            assert!(domain.contains_rect(rect));
            assert!(rect.area() >= 0.0);
        }
    }

    #[test]
    fn invalid_configs_are_rejected_not_laid_out() {
        let tree = figure2_tree();
        for bad in [
            LayoutConfig { width: 0.0, ..Default::default() },
            LayoutConfig { width: -3.0, ..Default::default() },
            LayoutConfig { height: f64::NAN, ..Default::default() },
            LayoutConfig { height: f64::INFINITY, ..Default::default() },
            LayoutConfig { margin_fraction: 0.5, ..Default::default() },
            LayoutConfig { margin_fraction: -0.1, ..Default::default() },
        ] {
            let err = try_layout_super_tree(&tree, &bad).unwrap_err();
            assert!(
                matches!(err, crate::error::TerrainError::Layout { .. }),
                "expected a layout error for {bad:?}, got {err:?}"
            );
        }
        // The fallible and infallible paths agree on valid input.
        let config = LayoutConfig::default();
        let a = try_layout_super_tree(&tree, &config).unwrap();
        let b = layout_super_tree(&tree, &config);
        assert_eq!(a.rects, b.rects);
    }

    #[test]
    fn rect_helpers() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.center(), (2.0, 1.0));
        assert!(r.contains_point(1.0, 1.0));
        assert!(!r.contains_point(5.0, 1.0));
        let inner = r.shrunk(0.25);
        assert!(r.contains_rect(&inner));
        assert!(inner.area() < r.area());
        let disjoint = Rect::new(10.0, 10.0, 11.0, 11.0);
        assert!(!r.intersects(&disjoint));
    }
}
