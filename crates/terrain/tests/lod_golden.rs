//! A recorded golden for the level-of-detail scene pass and the full
//! boundary layout: the whole-scene `GTSC` document, one zoom-1 tile SVG and
//! the `f64` bits of `layout_super_tree`'s rectangles for one fixed super
//! tree under default configurations, each pinned as `(len, fnv1a64)`.
//!
//! The tree is built so the scene pass makes every one of its decisions at
//! least once — a capped family folded into an "other" bucket, culled
//! subtrees and a branch stopped by the recursion gate — so a change to any
//! of them, or to the shared slice-and-dice arithmetic, moves a digest.

use scalarfield::SuperScalarTree;
use terrain::{layout_super_tree, LayoutConfig, LodConfig, Scene, TileKey};
use ugraph::io::fnv1a64;

/// Builds a super tree node by node; member ids are handed out in order.
#[derive(Default)]
struct TreeBuilder {
    scalar: Vec<f64>,
    parent: Vec<Option<u32>>,
    member_offsets: Vec<u32>,
}

impl TreeBuilder {
    fn node(&mut self, parent: Option<u32>, scalar: f64, members: u32) -> u32 {
        if self.member_offsets.is_empty() {
            self.member_offsets.push(0);
        }
        let last = *self.member_offsets.last().unwrap();
        self.member_offsets.push(last + members);
        self.scalar.push(scalar);
        self.parent.push(parent);
        (self.scalar.len() - 1) as u32
    }

    /// A chain of `len` single-child nodes below `parent`, rising in scalar.
    fn chain(&mut self, parent: u32, base: f64, len: u32, members: u32) {
        let mut tip = parent;
        for step in 0..len {
            tip = self.node(Some(tip), base + f64::from(step + 1), members);
        }
    }

    fn build(self) -> SuperScalarTree {
        let elements = *self.member_offsets.last().unwrap() as usize;
        let member_ids = (0..elements as u32).collect();
        SuperScalarTree::from_parts(
            self.scalar,
            self.parent,
            self.member_offsets,
            member_ids,
            elements,
        )
    }
}

/// Three roots of very different weight. The heavy one holds a hub with 40
/// children of eight weights (past the default cap of 32), each topped by a
/// short chain or a small fan; a deep chain that shrinks below the recursion
/// gate; and a one-member leaf beside a 30 000-member sibling, too thin to
/// see — as is the one-member third root.
fn golden_tree() -> SuperScalarTree {
    let mut b = TreeBuilder::default();
    let heavy = b.node(None, 0.0, 40);
    let hub = b.node(Some(heavy), 1.0, 20);
    for arm in 0..40u32 {
        // Five arms per weight class, so the cap's cut falls inside a tie.
        let weight = 1 + (arm * 3) % 8;
        let top = b.node(Some(hub), 2.0 + f64::from(arm) * 0.1, weight * 12);
        // Four more members on top of every arm, in one of four shapes.
        match arm % 4 {
            0 => {
                for leaf in 0..4 {
                    b.node(Some(top), 10.0 + f64::from(leaf), 1);
                }
            }
            shape => b.chain(top, 5.0, 1 << (shape - 1), 4 >> (shape - 1)),
        }
    }
    b.chain(heavy, 1.0, 60, 3);
    b.node(Some(heavy), 1.5, 30_000);
    b.node(Some(heavy), 2.0, 1);
    let light = b.node(None, 0.5, 200);
    for leaf in 0..6u32 {
        let top = b.node(Some(light), 3.0 + f64::from(leaf), 30 + leaf * 9);
        b.chain(top, 4.0, leaf, 1);
    }
    b.node(None, 0.25, 1);
    b.build()
}

/// `(len, fnv1a64)` of a byte string.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

/// Recorded on x86_64 Linux before the scene pass and the full layout were
/// folded into one walker.
const SCENE_GTSC: (usize, u64) = (11054, 0x1ed2_37eb_676e_359b);
const TILE_SVG: (usize, u64) = (2157, 0xc44b_0823_cb3a_eb47);
const LAYOUT_RECTS: (usize, u64) = (7584, 0xb4cb_2406_4392_89a1);
const TILE: TileKey = TileKey { zoom: 1, tx: 0, ty: 0 };

#[test]
fn lod_scene_tile_and_layout_bytes_match_the_recorded_golden() {
    let tree = golden_tree();
    let layout_config = LayoutConfig::default();
    let lod_config = LodConfig::default();
    let scene = Scene::build(&tree, &layout_config, &lod_config).unwrap();

    // The tree exercises all three scene decisions under default configs.
    assert!(scene.items().iter().any(|i| i.node.is_none()), "no capped family was folded");
    assert!(scene.item_count() < tree.node_count(), "nothing was culled");
    let unculled = LodConfig { min_area: 0.0, min_side: 0.0, ..lod_config };
    let unculled_scene = Scene::build(&tree, &layout_config, &unculled).unwrap();
    assert!(unculled_scene.item_count() > scene.item_count(), "no item fell below min_side");
    let ungated = LodConfig { recurse_min_side: 0.0, ..lod_config };
    let ungated_scene = Scene::build(&tree, &layout_config, &ungated).unwrap();
    assert!(
        ungated_scene.item_count() > scene.item_count(),
        "no branch with a visible child was stopped by the recursion gate"
    );

    let mut gtsc = Vec::new();
    scene.write_scene_gtsc(&mut gtsc).unwrap();
    let mut tile = Vec::new();
    scene.write_tile_svg(&TILE, 256, &mut tile).unwrap();
    let rects: Vec<u8> = layout_super_tree(&tree, &layout_config)
        .rects
        .iter()
        .flat_map(|r| [r.x0, r.y0, r.x1, r.y1])
        .flat_map(f64::to_le_bytes)
        .collect();

    assert_eq!(
        (digest(&gtsc), digest(&tile), digest(&rects)),
        (SCENE_GTSC, TILE_SVG, LAYOUT_RECTS),
        "the scene document, the {TILE} tile SVG or the layout rectangles changed"
    );
}
