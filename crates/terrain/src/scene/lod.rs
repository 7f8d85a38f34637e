//! The level-of-detail layout pass: `layout_super_tree` extended with a
//! validated [`LodConfig`] so a million-node super tree lays out to a
//! *bounded visible set* instead of one rectangle per node.
//!
//! The pass runs the one slice-and-dice walker of [`crate::layout2d`], the
//! walk `layout_super_tree` also runs: root partition, margin ring, area
//! scaling, running cursor, hairline sibling gap and the child-cap fold
//! are that code, not a copy. The pass supplies only its policies, all
//! phrased in *pixels at the finest LOD* so they are resolution-independent
//! in layout space:
//!
//! * **culling** — a node whose rectangle stays below `min_side` /
//!   `min_area` pixels even at the finest LOD is dropped together with its
//!   subtree (children are strictly nested, so they can only be smaller);
//! * **recursion gating** — children are laid out only while the parent's
//!   inner rectangle is at least `recurse_min_side` pixels at the finest
//!   LOD, which bounds the walk long before a 10M-edge tree is exhausted;
//! * **child capping** — `max_children`: a node with more children keeps
//!   the heaviest `max_children - 1` (by subtree member count, ties to the
//!   lower node id) and the walker folds the tail into one synthetic
//!   *"other" bucket* item that occupies the tail's combined area share.
//!
//! Every emitted item additionally carries the accumulated cushion surface
//! coefficients `[sx1, sx2, sy1, sy2]` of van Wijk & van de Wetering,
//! *Cushion Treemaps* (1999): each nesting level adds a parabolic ridge of
//! height `cushion_height * cushion_falloff^depth` over the item's extent
//! on both axes, and renderers shade by the surface normal
//! `(-dz/dx, -dz/dy, 1)`.
//!
//! The pass is a single serial walk over the (already deterministic) super
//! tree, so its output is bit-identical across thread counts by
//! construction — the property the tile cache keys on.

use crate::error::{TerrainError, TerrainResult};
use crate::layout2d::{walk, LayoutConfig, Placement, Rect, WalkPolicy};
use scalarfield::SuperScalarTree;

/// Level-of-detail knobs of the scene pass. All pixel thresholds are
/// evaluated at the finest LOD (`max_lod`), where one layout domain spans
/// `tile_px * 2^max_lod` pixels per axis.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LodConfig {
    /// Edge length of one square tile, in pixels.
    pub tile_px: u32,
    /// Finest LOD level; the tile grid at zoom `z` has `2^z × 2^z` tiles
    /// and zooms past `max_lod` do not exist.
    pub max_lod: u8,
    /// Cull items below this area (px² at the finest LOD).
    pub min_area: f64,
    /// Cull items below this side length (px at the finest LOD).
    pub min_side: f64,
    /// Stop recursing into children once the parent's inner rectangle is
    /// below this side length (px at the finest LOD).
    pub recurse_min_side: f64,
    /// Per-node child cap; the tail beyond the `max_children - 1` heaviest
    /// children collapses into one "other" bucket item.
    pub max_children: usize,
    /// Cushion ridge height at depth 0 (van Wijk & van de Wetering 1999).
    pub cushion_height: f64,
    /// Multiplicative ridge decay per nesting level, in `(0, 1]`.
    pub cushion_falloff: f64,
}

impl Default for LodConfig {
    fn default() -> Self {
        LodConfig {
            tile_px: 256,
            max_lod: 8,
            min_area: 49.0,
            min_side: 3.0,
            recurse_min_side: 12.0,
            max_children: 32,
            cushion_height: 0.5,
            cushion_falloff: 0.75,
        }
    }
}

impl LodConfig {
    /// Validate the configuration ([`TerrainError::Config`] on violation).
    pub fn validate(&self) -> TerrainResult<()> {
        let fail = |message: String| Err(TerrainError::Config { what: "lod config", message });
        if self.tile_px == 0 || self.tile_px > 8192 {
            return fail(format!("tile_px must lie in [1, 8192], got {}", self.tile_px));
        }
        if self.max_lod > 16 {
            return fail(format!("max_lod must be at most 16, got {}", self.max_lod));
        }
        for (name, v) in [("min_area", self.min_area), ("min_side", self.min_side)] {
            if !v.is_finite() || v < 0.0 {
                return fail(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if !self.recurse_min_side.is_finite() || self.recurse_min_side < 0.0 {
            return fail(format!(
                "recurse_min_side must be finite and non-negative, got {}",
                self.recurse_min_side
            ));
        }
        if self.max_children < 2 {
            return fail(format!("max_children must be at least 2, got {}", self.max_children));
        }
        if !self.cushion_height.is_finite() || self.cushion_height < 0.0 {
            return fail(format!(
                "cushion_height must be finite and non-negative, got {}",
                self.cushion_height
            ));
        }
        if !self.cushion_falloff.is_finite()
            || !(0.0..=1.0).contains(&self.cushion_falloff)
            || self.cushion_falloff == 0.0
        {
            return fail(format!(
                "cushion_falloff must lie in (0, 1], got {}",
                self.cushion_falloff
            ));
        }
        Ok(())
    }

    /// Pixels per layout-space unit on each axis at LOD `lod`: the whole
    /// domain spans `tile_px * 2^lod` pixels per axis.
    pub fn pixel_scale(&self, lod: u8, layout: &LayoutConfig) -> (f64, f64) {
        let px = self.tile_px as f64 * (1u64 << u32::from(lod)) as f64;
        (px / layout.width, px / layout.height)
    }
}

/// One visible element of the retained scene: a laid-out super node (or a
/// collapsed "other" bucket of sibling tails), with everything a tile
/// renderer needs to paint it without touching the tree again.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneItem {
    /// The super node this item renders, or `None` for an "other" bucket
    /// aggregating capped-off siblings.
    pub node: Option<u32>,
    /// The item's boundary rectangle in layout space.
    pub rect: Rect,
    /// Nesting depth (roots at 0; an "other" bucket sits at its collapsed
    /// siblings' depth).
    pub depth: u32,
    /// Terrain height: the node's scalar, or the maximum scalar over the
    /// collapsed tail for an "other" bucket.
    pub height: f64,
    /// Subtree members this item stands for (the area weight).
    pub members: u64,
    /// Coarsest LOD at which the item is at least `min_side` / `min_area`
    /// pixels — tiles at zoom `z` draw exactly the items with
    /// `min_visible_lod <= z`.
    pub min_visible_lod: u8,
    /// Accumulated cushion surface coefficients `[sx1, sx2, sy1, sy2]`:
    /// the shading surface is `z = sx2·x² + sx1·x + sy2·y² + sy1·y`.
    pub surface: [f64; 4],
}

/// Whether a rectangle passes the cull thresholds at `lod`.
fn visible_at(rect: &Rect, lod: u8, layout: &LayoutConfig, config: &LodConfig) -> bool {
    let (sx, sy) = config.pixel_scale(lod, layout);
    let w = rect.width() * sx;
    let h = rect.height() * sy;
    w >= config.min_side && h >= config.min_side && w * h >= config.min_area
}

/// The coarsest LOD at which the rectangle is visible, given that it is
/// visible at `max_lod` (visibility is monotone in the LOD because the
/// pixel scale doubles per level).
fn min_visible_lod(rect: &Rect, layout: &LayoutConfig, config: &LodConfig) -> u8 {
    for lod in 0..config.max_lod {
        if visible_at(rect, lod, layout, config) {
            return lod;
        }
    }
    config.max_lod
}

/// One van Wijk parabolic ridge of height `h` over `[lo, hi]`, as the
/// `(Δs1, Δs2)` increments of one axis' coefficient pair.
fn ridge(h: f64, lo: f64, hi: f64) -> (f64, f64) {
    let extent = hi - lo;
    if extent <= 0.0 || h == 0.0 {
        return (0.0, 0.0);
    }
    (4.0 * h * (hi + lo) / extent, -4.0 * h / extent)
}

/// The cushion surface of an item at `depth` with extent `rect`, derived
/// from its parent's surface.
fn cushion_surface(parent: &[f64; 4], rect: &Rect, depth: u32, config: &LodConfig) -> [f64; 4] {
    let mut surface = *parent;
    let h = config.cushion_height * config.cushion_falloff.powi(depth as i32);
    let (dx1, dx2) = ridge(h, rect.x0, rect.x1);
    let (dy1, dy2) = ridge(h, rect.y0, rect.y1);
    surface[0] += dx1;
    surface[1] += dx2;
    surface[2] += dy1;
    surface[3] += dy2;
    surface
}

/// Run the LOD layout pass over a super tree. Both configurations are
/// assumed validated by the caller ([`crate::scene::Scene::build`] does).
///
/// Items come out in depth-first walk order: a parent always precedes every
/// item of its subtree, so painting items in index order is a correct
/// painter's algorithm for the nested rectangles.
pub(crate) fn lod_layout(
    tree: &SuperScalarTree,
    layout: &LayoutConfig,
    config: &LodConfig,
) -> Vec<SceneItem> {
    let mut pass = LodPass { layout, config, items: Vec::new() };
    walk(tree, layout, &tree.subtree_member_counts(), &mut pass);
    pass.items
}

/// The scene's policies over the shared walk; the carry is the parent's
/// cushion surface.
struct LodPass<'a> {
    layout: &'a LayoutConfig,
    config: &'a LodConfig,
    items: Vec<SceneItem>,
}

impl WalkPolicy for LodPass<'_> {
    type Carry = [f64; 4];

    /// Culling: a placement too small even at the finest LOD is dropped
    /// with its subtree, which is strictly nested inside it.
    fn place(&mut self, placed: &Placement, parent_surface: [f64; 4]) -> Option<[f64; 4]> {
        let (layout, config, rect) = (self.layout, self.config, placed.rect);
        if !visible_at(&rect, config.max_lod, layout, config) {
            return None;
        }
        let surface = cushion_surface(&parent_surface, &rect, placed.depth, config);
        self.items.push(SceneItem {
            node: placed.node,
            rect,
            depth: placed.depth,
            height: placed.height,
            members: placed.members,
            min_visible_lod: min_visible_lod(&rect, layout, config),
            surface,
        });
        Some(surface)
    }

    /// Recursion gate: once the inner rectangle is below `recurse_min_side`
    /// pixels at the finest LOD, no child can be individually explorable.
    fn descend(&self, inner: &Rect) -> bool {
        let (sx, sy) = self.config.pixel_scale(self.config.max_lod, self.layout);
        (inner.width() * sx).min(inner.height() * sy) >= self.config.recurse_min_side
    }

    fn max_children(&self) -> usize {
        self.config.max_children
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_bad_knobs_are_rejected() {
        LodConfig::default().validate().unwrap();
        for bad in [
            LodConfig { tile_px: 0, ..Default::default() },
            LodConfig { tile_px: 9000, ..Default::default() },
            LodConfig { max_lod: 17, ..Default::default() },
            LodConfig { min_area: -1.0, ..Default::default() },
            LodConfig { min_side: f64::NAN, ..Default::default() },
            LodConfig { recurse_min_side: f64::INFINITY, ..Default::default() },
            LodConfig { max_children: 1, ..Default::default() },
            LodConfig { cushion_height: -0.5, ..Default::default() },
            LodConfig { cushion_falloff: 0.0, ..Default::default() },
            LodConfig { cushion_falloff: 1.5, ..Default::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn pixel_scale_doubles_per_lod() {
        let config = LodConfig::default();
        let layout = LayoutConfig::default();
        let (sx0, sy0) = config.pixel_scale(0, &layout);
        let (sx1, sy1) = config.pixel_scale(1, &layout);
        assert_eq!(sx0, 256.0);
        assert_eq!(sy0, 256.0);
        assert_eq!(sx1, 2.0 * sx0);
        assert_eq!(sy1, 2.0 * sy0);
    }

    #[test]
    fn ridges_accumulate_and_decay_with_depth() {
        let config = LodConfig::default();
        let rect = Rect::new(0.0, 0.0, 1.0, 1.0);
        let base = cushion_surface(&[0.0; 4], &rect, 0, &config);
        assert!(base[1] < 0.0, "x² coefficient must bend downward");
        assert!(base[3] < 0.0, "y² coefficient must bend downward");
        let deeper = cushion_surface(&[0.0; 4], &rect, 3, &config);
        assert!(
            deeper[1].abs() < base[1].abs(),
            "deeper ridges must be shallower: {deeper:?} vs {base:?}"
        );
        // The surface height at the rect center exceeds the edges (a bump).
        let z = |s: &[f64; 4], x: f64, y: f64| s[1] * x * x + s[0] * x + s[3] * y * y + s[2] * y;
        assert!(z(&base, 0.5, 0.5) > z(&base, 0.0, 0.5));
        assert!(z(&base, 0.5, 0.5) > z(&base, 0.5, 1.0));
    }
}
