//! The retained scene: the level-of-detail layer between layout and
//! export that makes large terrains *explorable*.
//!
//! A [`Scene`] is built once from a super scalar tree and then answers
//! viewport questions without touching the tree again:
//!
//! * [`lod`] runs the LOD layout pass — `layout_super_tree`'s own
//!   slice-and-dice walker under the scene's policies: culling, recursion
//!   gating, per-node child capping (tails fold into "other" buckets) and
//!   van Wijk cushion shading coefficients — producing a bounded list of
//!   [`SceneItem`]s even for million-node trees;
//! * [`quadtree`] indexes the item rectangles in a flat arena for
//!   `O(log n + k)` viewport queries and point hit tests;
//! * [`tile`] fixes the power-of-two tile grid over the layout domain and
//!   the `GTSC` binary scene format streamed to client-side renderers.
//!
//! Everything is deterministic: the pass is one serial walk, the index is
//! built in item order, and a tile's bytes depend only on its
//! [`TileKey`] and the scene — which is exactly the contract the terrain
//! server's byte-exact artifact cache requires of its keys.

pub mod lod;
pub mod quadtree;
pub mod tile;

use std::io;
use std::io::Write as _;

use crate::color::colormap;
use crate::error::{TerrainError, TerrainResult};
use crate::export::fixed::push_fixed;
use crate::layout2d::{LayoutConfig, Rect};
use scalarfield::SuperScalarTree;

pub use lod::{LodConfig, SceneItem};
pub use quadtree::Quadtree;
pub use tile::{
    decode_gtsc, tile_rect, tiles_overlapping, tiles_per_axis, GtscDocument, GtscHeader, GtscItem,
    TileKey, GTSC_MAGIC, GTSC_VERSION,
};

/// A retained, spatially indexed scene over one super scalar tree.
#[derive(Clone, Debug)]
pub struct Scene {
    items: Vec<SceneItem>,
    index: Quadtree,
    domain: Rect,
    layout_config: LayoutConfig,
    lod_config: LodConfig,
    /// Minimum / maximum item height, the color ramp's range.
    baseline: f64,
    peak: f64,
}

impl Scene {
    /// Run the LOD layout pass over `tree` and index the result. Both
    /// configurations are validated first ([`TerrainError`] on violation,
    /// never a panic).
    pub fn build(
        tree: &SuperScalarTree,
        layout_config: &LayoutConfig,
        lod_config: &LodConfig,
    ) -> TerrainResult<Scene> {
        layout_config.validate()?;
        lod_config.validate()?;
        let items = lod::lod_layout(tree, layout_config, lod_config);
        let domain = Rect::new(0.0, 0.0, layout_config.width, layout_config.height);
        let rects: Vec<Rect> = items.iter().map(|i| i.rect).collect();
        let depths: Vec<u32> = items.iter().map(|i| i.depth).collect();
        let index = Quadtree::build(domain, &rects, &depths);
        let (mut baseline, mut peak) = (f64::INFINITY, f64::NEG_INFINITY);
        for item in &items {
            baseline = baseline.min(item.height);
            peak = peak.max(item.height);
        }
        if items.is_empty() {
            baseline = 0.0;
            peak = 0.0;
        }
        Ok(Scene {
            items,
            index,
            domain,
            layout_config: *layout_config,
            lod_config: *lod_config,
            baseline,
            peak,
        })
    }

    /// The visible set, in depth-first (paint) order.
    pub fn items(&self) -> &[SceneItem] {
        &self.items
    }

    /// Number of scene items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Bytes held by the scene: its item array plus its spatial index
    /// ([`Quadtree::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.items.as_slice()) + self.index.heap_bytes()
    }

    /// The layout domain (the zoom-0 tile).
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// The layout configuration the scene was built with.
    pub fn layout_config(&self) -> &LayoutConfig {
        &self.layout_config
    }

    /// The LOD configuration the scene was built with.
    pub fn lod_config(&self) -> &LodConfig {
        &self.lod_config
    }

    /// The deepest zoom level tiles exist for.
    pub fn max_zoom(&self) -> u8 {
        self.lod_config.max_lod
    }

    /// The spatial index (exposed for invariants tests and diagnostics).
    pub fn quadtree(&self) -> &Quadtree {
        &self.index
    }

    /// Minimum item height (color ramp low end).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Maximum item height (color ramp high end).
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Item indices overlapping `viewport`, ascending (= paint order).
    pub fn query(&self, viewport: &Rect) -> Vec<u32> {
        self.index.query(viewport)
    }

    /// The most nested item containing the point, if any.
    pub fn hit_test(&self, x: f64, y: f64) -> Option<&SceneItem> {
        self.index.hit_test(x, y).map(|id| &self.items[id as usize])
    }

    /// The tile keys a client needs to cover `viewport` at `zoom`,
    /// row-major from the south-west. Empty when the zoom is past
    /// [`max_zoom`](Self::max_zoom) or the viewport misses the domain.
    pub fn tiles(&self, viewport: &Rect, zoom: u8) -> Vec<TileKey> {
        if zoom > self.max_zoom() {
            return Vec::new();
        }
        tiles_overlapping(&self.domain, viewport, zoom)
    }

    /// The layout-space rectangle of a tile, or `None` when the key is
    /// outside the grid (zoom past the scene's maximum, or tx/ty past the
    /// `2^zoom` axis count) — the server's 404.
    pub fn tile_bounds(&self, key: &TileKey) -> Option<Rect> {
        key.in_range(self.max_zoom()).then(|| tile_rect(&self.domain, key))
    }

    /// The indices of the items a tile draws: overlapping the tile's
    /// rectangle *and* visible at the tile's zoom (`min_visible_lod <=
    /// zoom`), ascending. `None` when the key is out of range.
    pub fn tile_items(&self, key: &TileKey) -> Option<Vec<u32>> {
        let bounds = self.tile_bounds(key)?;
        let mut ids = self.index.query(&bounds);
        ids.retain(|&id| self.items[id as usize].min_visible_lod <= key.zoom);
        Some(ids)
    }

    /// Render one tile as an SVG of `size_px × size_px` pixels. The bytes
    /// depend only on the scene and the key — same key, same bytes — so
    /// the output slots directly into a byte-exact artifact cache.
    pub fn write_tile_svg(
        &self,
        key: &TileKey,
        size_px: u32,
        writer: &mut dyn io::Write,
    ) -> TerrainResult<()> {
        let bounds = self.tile_bounds(key).ok_or_else(|| out_of_range(key, self.max_zoom()))?;
        let ids = self.tile_items(key).expect("bounds checked");
        self.write_view_svg(&bounds, &ids, size_px, size_px, writer)
    }

    /// Render one tile as a `GTSC` binary document (the tile stamp
    /// section records the key and its rectangle).
    pub fn write_tile_gtsc(&self, key: &TileKey, writer: &mut dyn io::Write) -> TerrainResult<()> {
        let bounds = self.tile_bounds(key).ok_or_else(|| out_of_range(key, self.max_zoom()))?;
        let ids = self.tile_items(key).expect("bounds checked");
        let bytes = tile::encode_gtsc(&self.gtsc_header(), Some((*key, bounds)), &self.items, &ids);
        writer.write_all(&bytes).map_err(TerrainError::from)
    }

    /// Encode the whole scene as one `GTSC` document (the
    /// `GET /graphs/{id}/scene` payload): every item, resolution
    /// independent, for client-side pan/zoom renderers.
    pub fn write_scene_gtsc(&self, writer: &mut dyn io::Write) -> TerrainResult<()> {
        let ids: Vec<u32> = (0..self.items.len() as u32).collect();
        let bytes = tile::encode_gtsc(&self.gtsc_header(), None, &self.items, &ids);
        writer.write_all(&bytes).map_err(TerrainError::from)
    }

    fn gtsc_header(&self) -> GtscHeader {
        GtscHeader {
            domain: self.domain,
            tile_px: self.lod_config.tile_px,
            max_lod: self.lod_config.max_lod,
            baseline: self.baseline,
            peak: self.peak,
        }
    }

    /// The zoom level whose item set matches a view of `width_px` pixels
    /// over the whole domain: the coarsest zoom at least as dense as the
    /// requested resolution, clamped to the scene's maximum.
    pub fn zoom_for_width(&self, width_px: f64) -> u8 {
        let mut zoom = 0u8;
        while zoom < self.max_zoom() {
            let span_px = f64::from(self.lod_config.tile_px) * (1u64 << u32::from(zoom)) as f64;
            if span_px >= width_px {
                break;
            }
            zoom += 1;
        }
        zoom
    }

    /// Render an arbitrary viewport of the scene (`ids` = the items to
    /// paint, ascending) into a `width_px × height_px` SVG with cushion
    /// shading. Shared by tile rendering and the full-scene `TiledSvg`
    /// exporter.
    pub(crate) fn write_view_svg(
        &self,
        viewport: &Rect,
        ids: &[u32],
        width_px: u32,
        height_px: u32,
        writer: &mut dyn io::Write,
    ) -> TerrainResult<()> {
        if width_px == 0 || height_px == 0 {
            return Err(TerrainError::Config {
                what: "tile size",
                message: format!("pixel size must be positive, got {width_px}x{height_px}"),
            });
        }
        let sx = f64::from(width_px) / viewport.width().max(1e-300);
        let sy = f64::from(height_px) / viewport.height().max(1e-300);
        let range = (self.peak - self.baseline).max(1e-300);
        let mut w = io::BufWriter::new(writer);
        writeln!(
            w,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">"#
        )?;
        writeln!(w, r##"<rect width="{width_px}" height="{height_px}" fill="#10141c"/>"##)?;
        let mut line = Vec::new();
        for &id in ids {
            let item = &self.items[id as usize];
            // Clip to the viewport so a huge parent rect costs the same
            // bytes as a small one — the tile-size bound depends on it.
            let r = &item.rect;
            let clipped = Rect::new(
                r.x0.max(viewport.x0),
                r.y0.max(viewport.y0),
                r.x1.min(viewport.x1),
                r.y1.min(viewport.y1),
            );
            let x = (clipped.x0 - viewport.x0) * sx;
            let y = (viewport.y1 - clipped.y1) * sy; // y up in layout, down in SVG
            let w_px = clipped.width() * sx;
            let h_px = clipped.height() * sy;
            let t = ((item.height - self.baseline) / range).clamp(0.0, 1.0);
            let fill = colormap(t).darkened(cushion_shade(&item.surface, r));
            line.clear();
            line.extend_from_slice(br#"<rect x=""#);
            push_fixed(&mut line, x, 2);
            line.extend_from_slice(br#"" y=""#);
            push_fixed(&mut line, y, 2);
            line.extend_from_slice(br#"" width=""#);
            push_fixed(&mut line, w_px, 2);
            line.extend_from_slice(br#"" height=""#);
            push_fixed(&mut line, h_px, 2);
            line.extend_from_slice(br#"" fill=""#);
            line.extend_from_slice(&fill.hex_bytes());
            line.extend_from_slice(b"\"/>\n");
            w.write_all(&line)?;
        }
        writeln!(w, "</svg>")?;
        io::Write::flush(&mut w)?;
        Ok(())
    }
}

fn out_of_range(key: &TileKey, max_zoom: u8) -> TerrainError {
    TerrainError::Config {
        what: "tile key",
        message: format!(
            "tile {key} is outside the grid (max zoom {max_zoom}, {n}x{n} tiles at its zoom)",
            n = tiles_per_axis(key.zoom)
        ),
    }
}

/// Lambert shading factor from the cushion surface normal at the rect
/// center: `z = sx2·x² + sx1·x + sy2·y² + sy1·y`, normal
/// `(-dz/dx, -dz/dy, 1)`, light from the upper left. Returns a
/// darkening factor in `[0.45, 1.0]`.
fn cushion_shade(surface: &[f64; 4], rect: &Rect) -> f64 {
    let (cx, cy) = rect.center();
    let dzdx = 2.0 * surface[1] * cx + surface[0];
    let dzdy = 2.0 * surface[3] * cy + surface[2];
    let (nx, ny, nz) = (-dzdx, -dzdy, 1.0);
    let norm = (nx * nx + ny * ny + nz * nz).sqrt();
    // Light direction (-1, 1, 2) / |.|, matching the oblique projection's
    // implied sun.
    let (lx, ly, lz) = (-0.408_248_290_463_863, 0.408_248_290_463_863, 0.816_496_580_927_726);
    let lambert = ((nx * lx + ny * ly + nz * lz) / norm).clamp(0.0, 1.0);
    0.45 + 0.55 * lambert
}

#[cfg(test)]
mod tests {
    use super::*;
    use measures::core_numbers;
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::generators::{collaboration_graph, CollaborationConfig};

    fn sample_tree(authors: usize) -> SuperScalarTree {
        let g = collaboration_graph(&CollaborationConfig {
            authors,
            papers: authors,
            groups: 8,
            groups_per_component: 4,
            seed: 7,
            ..Default::default()
        });
        let cores = core_numbers(&g);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    /// A larger tree: per-vertex degree over an R-MAT graph has many
    /// distinct scalar values, so the super tree has many nodes (mostly
    /// chains — R-MAT hubs form one connected core, so superlevel sets
    /// rarely disconnect).
    fn degree_tree(scale: u32, edges: usize) -> SuperScalarTree {
        let g = ugraph::generators::rmat(scale, edges, 20_170_419);
        let scalar: Vec<f64> = measures::degrees(&g).into_iter().map(|d| d as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    /// A hub-and-arms graph whose arms all merge at the hub at once: each
    /// arm is a rising path to its own peak, so the superlevel sets are
    /// `arms` disconnected components until the hub's scalar joins them
    /// and the hub super node gets one child per arm — the branching the
    /// organic generators never produce (their superlevel sets stay
    /// connected, yielding pure chain forests).
    fn starburst_tree(arms: usize) -> SuperScalarTree {
        let mut builder = ugraph::GraphBuilder::new();
        let mut scalar = vec![0.0f64]; // the hub, vertex 0
        let mut next = 1u32;
        for arm in 0..arms {
            // Vary arm length so subtree weights differ and the "heaviest
            // children" selection is meaningful.
            let len = 2 + arm % 3;
            let mut prev = 0u32;
            for step in 0..len {
                builder.add_edge(prev, next);
                scalar.push((step + 1) as f64);
                prev = next;
                next += 1;
            }
        }
        let g = builder.build();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    #[test]
    fn scene_items_nest_within_the_domain_and_parents_precede_children() {
        let tree = sample_tree(400);
        let scene = Scene::build(&tree, &LayoutConfig::default(), &LodConfig::default()).unwrap();
        assert!(scene.item_count() > 0);
        let domain = scene.domain();
        let mut seen = std::collections::HashSet::new();
        for item in scene.items() {
            assert!(domain.contains_rect(&item.rect), "{item:?} escapes the domain");
            assert!(item.min_visible_lod <= scene.max_zoom());
            if let Some(node) = item.node {
                // Parent-before-child: every real node's parent chain must
                // already have been emitted (or culled along with us — but
                // a visible child implies a visible parent, its container).
                if let Some(p) = tree.parent(node) {
                    assert!(seen.contains(&p), "parent {p} of {node} not yet emitted");
                }
                seen.insert(node);
            }
        }
    }

    #[test]
    fn lod_bounds_the_visible_set_and_zoom_reveals_detail() {
        let tree = degree_tree(13, 60_000);
        let coarse = LodConfig { max_lod: 2, ..Default::default() };
        let fine = LodConfig { max_lod: 6, ..Default::default() };
        let scene_coarse = Scene::build(&tree, &LayoutConfig::default(), &coarse).unwrap();
        let scene_fine = Scene::build(&tree, &LayoutConfig::default(), &fine).unwrap();
        assert!(
            scene_coarse.item_count() < scene_fine.item_count(),
            "a finer max LOD must retain more items ({} vs {})",
            scene_coarse.item_count(),
            scene_fine.item_count()
        );
        assert!(
            scene_fine.item_count() < tree.node_count(),
            "the visible set must stay below the full tree ({} vs {})",
            scene_fine.item_count(),
            tree.node_count()
        );
        // Items visible at zoom 0 are a subset of items visible at zoom 2.
        let at = |zoom: u8| scene_fine.items().iter().filter(|i| i.min_visible_lod <= zoom).count();
        assert!(at(0) <= at(2));
    }

    #[test]
    fn child_cap_emits_other_buckets_that_cover_the_tail() {
        let arms = 9;
        let tree = starburst_tree(arms);
        let hub = *tree.roots().first().expect("one connected component");
        assert_eq!(
            tree.children(hub).len(),
            arms,
            "every arm must merge at the hub simultaneously"
        );
        // Force the cap low so the bucket actually appears.
        let config = LodConfig { max_children: 3, ..Default::default() };
        let scene = Scene::build(&tree, &LayoutConfig::default(), &config).unwrap();
        let buckets: Vec<&SceneItem> = scene.items().iter().filter(|i| i.node.is_none()).collect();
        assert_eq!(buckets.len(), 1, "one capped family, one bucket");
        let bucket = buckets[0];
        // The cap keeps the 2 heaviest arms; the bucket stands for the
        // remaining arms' combined subtree members and their tallest peak.
        let members = tree.subtree_member_counts();
        let mut weights: Vec<usize> =
            tree.children(hub).iter().map(|&c| members[c as usize]).collect();
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let tail: usize = weights[2..].iter().sum();
        assert_eq!(bucket.members, tail as u64, "the bucket covers exactly the tail");
        assert!(bucket.height.is_finite());
        assert_eq!(bucket.depth, 1, "the hub is a root, its bucket one level down");
        // Kept children plus the bucket partition the hub's inner rect, so
        // the bucket must not overlap any kept child's rectangle.
        for item in scene.items() {
            if let Some(node) = item.node {
                if tree.parent(node) == Some(hub) {
                    assert!(!item.rect.intersects(&bucket.rect));
                }
            }
        }
    }

    #[test]
    fn uncapped_scene_rects_match_the_full_layout_bit_for_bit() {
        let tree = sample_tree(300);
        // A cap larger than any family and thresholds of zero disable
        // culling, gating and capping — the pass must then reproduce
        // `layout_super_tree`'s rectangles exactly.
        let config = LodConfig {
            min_area: 0.0,
            min_side: 0.0,
            recurse_min_side: 0.0,
            max_children: usize::MAX,
            ..Default::default()
        };
        let layout_config = LayoutConfig::default();
        let scene = Scene::build(&tree, &layout_config, &config).unwrap();
        let full = crate::layout2d::layout_super_tree(&tree, &layout_config);
        assert_eq!(scene.item_count(), tree.node_count());
        for item in scene.items() {
            let node = item.node.expect("no buckets without a cap") as usize;
            assert_eq!(
                item.rect, full.rects[node],
                "node {node}: the LOD pass must be bit-identical to the full layout"
            );
        }
    }

    #[test]
    fn tile_rendering_is_deterministic_and_out_of_range_keys_fail() {
        let tree = sample_tree(400);
        let scene = Scene::build(&tree, &LayoutConfig::default(), &LodConfig::default()).unwrap();
        let key = TileKey { zoom: 1, tx: 0, ty: 1 };
        let mut a = Vec::new();
        let mut b = Vec::new();
        scene.write_tile_svg(&key, 256, &mut a).unwrap();
        scene.write_tile_svg(&key, 256, &mut b).unwrap();
        assert_eq!(a, b, "same key, same bytes");
        assert!(std::str::from_utf8(&a).unwrap().starts_with("<svg"));

        let mut gtsc = Vec::new();
        scene.write_tile_gtsc(&key, &mut gtsc).unwrap();
        let doc = decode_gtsc(&gtsc).unwrap();
        assert_eq!(doc.tile.unwrap().0, key);

        for bad in [
            TileKey { zoom: scene.max_zoom() + 1, tx: 0, ty: 0 },
            TileKey { zoom: 1, tx: 2, ty: 0 },
            TileKey { zoom: 1, tx: 0, ty: 2 },
        ] {
            assert!(scene.tile_bounds(&bad).is_none());
            assert!(scene.write_tile_svg(&bad, 256, &mut Vec::new()).is_err());
            assert!(scene.write_tile_gtsc(&bad, &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn scene_tiles_enumerates_the_viewport_cover() {
        let tree = sample_tree(300);
        let scene = Scene::build(&tree, &LayoutConfig::default(), &LodConfig::default()).unwrap();
        let all = scene.tiles(&scene.domain(), 1);
        assert_eq!(all.len(), 4, "the domain needs all four zoom-1 tiles");
        assert!(scene.tiles(&scene.domain(), scene.max_zoom() + 1).is_empty());
        let one = scene.tiles(&Rect::new(0.1, 0.1, 0.2, 0.2), 2);
        assert_eq!(one, vec![TileKey { zoom: 2, tx: 0, ty: 0 }]);
    }

    #[test]
    fn hit_test_finds_the_most_nested_item() {
        let tree = sample_tree(300);
        let scene = Scene::build(&tree, &LayoutConfig::default(), &LodConfig::default()).unwrap();
        // The deepest item's center must hit itself (or something deeper).
        let deepest = scene.items().iter().enumerate().max_by_key(|(_, i)| i.depth).expect("items");
        let (cx, cy) = deepest.1.rect.center();
        let hit = scene.hit_test(cx, cy).expect("center of an item must hit");
        assert!(hit.depth >= deepest.1.depth);
        assert!(scene.hit_test(55.0, 55.0).is_none(), "outside the domain hits nothing");
    }

    #[test]
    fn scene_gtsc_round_trips_every_item() {
        let tree = sample_tree(400);
        let scene = Scene::build(&tree, &LayoutConfig::default(), &LodConfig::default()).unwrap();
        let mut bytes = Vec::new();
        scene.write_scene_gtsc(&mut bytes).unwrap();
        let doc = decode_gtsc(&bytes).unwrap();
        assert_eq!(doc.items.len(), scene.item_count());
        assert_eq!(doc.header.max_lod, scene.max_zoom());
        assert_eq!(doc.header.domain, scene.domain());
        for (decoded, item) in doc.items.iter().zip(scene.items()) {
            assert_eq!(decoded.node, item.node);
            assert_eq!(decoded.rect, item.rect);
            assert_eq!(decoded.height, item.height);
        }
    }
}
