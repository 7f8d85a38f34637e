//! The tile grid and the `GTSC` binary scene format.
//!
//! **Tile grid.** Zoom level `z` divides the layout domain into a fixed
//! `2^z × 2^z` grid of square tiles addressed `(tx, ty)` with `(0, 0)` at
//! the domain's lower-left corner (layout space, y up). The grid is
//! power-of-two in *layout space*, so a tile's rectangle — and therefore
//! its rendered bytes — depends only on its [`TileKey`], never on the
//! viewport a client happened to pan through. That is what lets tile keys
//! slot into the server's byte-exact artifact cache.
//!
//! **Wire format.** `GTSC` is the compact little-endian scene encoding for
//! client-side renderers, section-framed like the v3 graph snapshot: a
//! magic + version header, tagged `(u32 tag, u64 len)` sections, and a
//! trailing FNV-1a64 checksum over everything before it. Unknown tags are
//! skipped on decode so the format can grow. Sections:
//!
//! | tag | payload |
//! |-----|---------|
//! | 1   | header: domain rect (4×f64), `tile_px` u32, `max_lod` u32, baseline f64, peak f64, item count u64 |
//! | 2   | tile stamp (tile responses only): zoom u32, tx u32, ty u32, tile rect 4×f64 |
//! | 3   | items: count × 73-byte records (node u32, depth u32, min_visible_lod u8, members u64, rect 4×f64, height f64, surface 4×f32) |
//!
//! A `node` of `u32::MAX` marks an "other" bucket item. Surfaces are
//! stored as f32 — shading precision, not geometry.

use crate::error::{TerrainError, TerrainResult};
use crate::layout2d::Rect;
use crate::scene::lod::SceneItem;
use ugraph::io::fnv1a64;

/// Magic bytes opening every `GTSC` document.
pub const GTSC_MAGIC: &[u8; 4] = b"GTSC";
/// Current format version.
pub const GTSC_VERSION: u32 = 1;

const TAG_HEADER: u32 = 1;
const TAG_TILE: u32 = 2;
const TAG_ITEMS: u32 = 3;
const ITEM_RECORD_BYTES: usize = 73;
/// `node` value marking an "other" bucket item on the wire.
const OTHER_NODE: u32 = u32::MAX;

/// Address of one tile in the fixed power-of-two grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// Zoom level: the grid is `2^zoom × 2^zoom`.
    pub zoom: u8,
    /// Column, `0..2^zoom`, west to east.
    pub tx: u32,
    /// Row, `0..2^zoom`, south to north (layout space, y up).
    pub ty: u32,
}

impl TileKey {
    /// Whether the address is inside the grid of its zoom level.
    pub fn in_range(&self, max_zoom: u8) -> bool {
        self.zoom <= max_zoom
            && self.tx < tiles_per_axis(self.zoom)
            && self.ty < tiles_per_axis(self.zoom)
    }
}

impl std::fmt::Display for TileKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.zoom, self.tx, self.ty)
    }
}

/// Tiles per axis at a zoom level.
pub fn tiles_per_axis(zoom: u8) -> u32 {
    1u32 << u32::from(zoom.min(31))
}

/// The layout-space rectangle of a tile within `domain`.
pub fn tile_rect(domain: &Rect, key: &TileKey) -> Rect {
    let n = tiles_per_axis(key.zoom) as f64;
    let tw = domain.width() / n;
    let th = domain.height() / n;
    Rect::new(
        domain.x0 + key.tx as f64 * tw,
        domain.y0 + key.ty as f64 * th,
        domain.x0 + (key.tx + 1) as f64 * tw,
        domain.y0 + (key.ty + 1) as f64 * th,
    )
}

/// Every tile at `zoom` whose rectangle overlaps `viewport` with positive
/// area, row-major from the south-west (ty, then tx ascending). Empty when
/// the viewport misses the domain entirely.
pub fn tiles_overlapping(domain: &Rect, viewport: &Rect, zoom: u8) -> Vec<TileKey> {
    if !domain.intersects(viewport) {
        return Vec::new();
    }
    let clip = Rect::new(
        viewport.x0.max(domain.x0),
        viewport.y0.max(domain.y0),
        viewport.x1.min(domain.x1),
        viewport.y1.min(domain.y1),
    );
    let n = tiles_per_axis(zoom);
    let tw = domain.width() / n as f64;
    let th = domain.height() / n as f64;
    let clamp = |v: f64| (v.max(0.0) as u32).min(n - 1);
    let tx0 = clamp(((clip.x0 - domain.x0) / tw).floor());
    let ty0 = clamp(((clip.y0 - domain.y0) / th).floor());
    // `ceil - 1` so a viewport edge exactly on a tile boundary does not
    // drag in the zero-overlap neighbor (intersection is strict).
    let tx1 = clamp(((clip.x1 - domain.x0) / tw).ceil() - 1.0);
    let ty1 = clamp(((clip.y1 - domain.y0) / th).ceil() - 1.0);
    let mut keys = Vec::new();
    for ty in ty0..=ty1 {
        for tx in tx0..=tx1 {
            keys.push(TileKey { zoom, tx, ty });
        }
    }
    keys
}

// ------------------------------------------------------------------ encode

fn push_rect(out: &mut Vec<u8>, rect: &Rect) {
    for v in [rect.x0, rect.y0, rect.x1, rect.y1] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn begin_section(out: &mut Vec<u8>, tag: u32) -> usize {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.len()
}

fn end_section(out: &mut [u8], payload_start: usize) {
    let len = (out.len() - payload_start) as u64;
    out[payload_start - 8..payload_start].copy_from_slice(&len.to_le_bytes());
}

/// Scene-level facts encoded in the `GTSC` header section.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GtscHeader {
    /// The full layout domain (also the zoom-0 tile).
    pub domain: Rect,
    /// Tile edge in pixels the LOD thresholds were phrased in.
    pub tile_px: u32,
    /// Finest LOD / deepest zoom of the scene.
    pub max_lod: u8,
    /// Minimum item height (the color ramp's low end).
    pub baseline: f64,
    /// Maximum item height (the color ramp's high end).
    pub peak: f64,
}

/// Encode a scene (or a tile's subset of it) as one `GTSC` document.
/// `indices` selects the items to emit, in emission order.
pub fn encode_gtsc(
    header: &GtscHeader,
    tile: Option<(TileKey, Rect)>,
    items: &[SceneItem],
    indices: &[u32],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + indices.len() * ITEM_RECORD_BYTES);
    out.extend_from_slice(GTSC_MAGIC);
    out.extend_from_slice(&GTSC_VERSION.to_le_bytes());

    let start = begin_section(&mut out, TAG_HEADER);
    push_rect(&mut out, &header.domain);
    out.extend_from_slice(&header.tile_px.to_le_bytes());
    out.extend_from_slice(&u32::from(header.max_lod).to_le_bytes());
    out.extend_from_slice(&header.baseline.to_le_bytes());
    out.extend_from_slice(&header.peak.to_le_bytes());
    out.extend_from_slice(&(indices.len() as u64).to_le_bytes());
    end_section(&mut out, start);

    if let Some((key, rect)) = tile {
        let start = begin_section(&mut out, TAG_TILE);
        out.extend_from_slice(&u32::from(key.zoom).to_le_bytes());
        out.extend_from_slice(&key.tx.to_le_bytes());
        out.extend_from_slice(&key.ty.to_le_bytes());
        push_rect(&mut out, &rect);
        end_section(&mut out, start);
    }

    let start = begin_section(&mut out, TAG_ITEMS);
    for &idx in indices {
        let item = &items[idx as usize];
        out.extend_from_slice(&item.node.unwrap_or(OTHER_NODE).to_le_bytes());
        out.extend_from_slice(&item.depth.to_le_bytes());
        out.push(item.min_visible_lod);
        out.extend_from_slice(&item.members.to_le_bytes());
        push_rect(&mut out, &item.rect);
        out.extend_from_slice(&item.height.to_le_bytes());
        for s in item.surface {
            out.extend_from_slice(&(s as f32).to_le_bytes());
        }
    }
    end_section(&mut out, start);

    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ------------------------------------------------------------------ decode

/// One decoded scene item (surfaces at their f32 wire precision).
#[derive(Clone, Debug, PartialEq)]
pub struct GtscItem {
    /// The super node, or `None` for an "other" bucket.
    pub node: Option<u32>,
    /// Nesting depth.
    pub depth: u32,
    /// Coarsest zoom the item is visible at.
    pub min_visible_lod: u8,
    /// Subtree members the item stands for.
    pub members: u64,
    /// Boundary rectangle in layout space.
    pub rect: Rect,
    /// Terrain height.
    pub height: f64,
    /// Cushion surface coefficients `[sx1, sx2, sy1, sy2]`.
    pub surface: [f32; 4],
}

/// A fully parsed `GTSC` document.
#[derive(Clone, Debug, PartialEq)]
pub struct GtscDocument {
    /// The header section.
    pub header: GtscHeader,
    /// The tile stamp, present on tile responses only.
    pub tile: Option<(TileKey, Rect)>,
    /// The items, in emission (paint) order.
    pub items: Vec<GtscItem>,
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> TerrainResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(gtsc_error(format!(
                "truncated document: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> TerrainResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> TerrainResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> TerrainResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> TerrainResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> TerrainResult<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn rect(&mut self) -> TerrainResult<Rect> {
        let (x0, y0, x1, y1) = (self.f64()?, self.f64()?, self.f64()?, self.f64()?);
        if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite())
            || x1 < x0
            || y1 < y0
        {
            return Err(gtsc_error(format!("invalid rectangle [{x0},{y0},{x1},{y1}]")));
        }
        Ok(Rect::new(x0, y0, x1, y1))
    }
}

fn gtsc_error(message: String) -> TerrainError {
    TerrainError::Config { what: "gtsc scene", message }
}

/// Parse and validate a `GTSC` document (magic, version, section framing,
/// checksum, item-count consistency). Corrupt input is a
/// [`TerrainError`], never a panic.
pub fn decode_gtsc(bytes: &[u8]) -> TerrainResult<GtscDocument> {
    if bytes.len() < 20 {
        return Err(gtsc_error(format!("document too short: {} bytes", bytes.len())));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(gtsc_error(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let mut r = Reader { bytes: body, pos: 0 };
    if r.take(4)? != GTSC_MAGIC {
        return Err(gtsc_error("bad magic, not a GTSC document".to_string()));
    }
    let version = r.u32()?;
    if version != GTSC_VERSION {
        return Err(gtsc_error(format!(
            "unsupported version {version}, this build reads {GTSC_VERSION}"
        )));
    }

    let mut header: Option<(GtscHeader, u64)> = None;
    let mut tile = None;
    let mut items = Vec::new();
    while r.pos < r.bytes.len() {
        let tag = r.u32()?;
        let len = r.u64()? as usize;
        let payload = r.take(len)?;
        let mut s = Reader { bytes: payload, pos: 0 };
        match tag {
            TAG_HEADER => {
                let domain = s.rect()?;
                let tile_px = s.u32()?;
                let max_lod = s.u32()?;
                if max_lod > 16 {
                    return Err(gtsc_error(format!("max_lod {max_lod} out of range")));
                }
                let baseline = s.f64()?;
                let peak = s.f64()?;
                let count = s.u64()?;
                header = Some((
                    GtscHeader { domain, tile_px, max_lod: max_lod as u8, baseline, peak },
                    count,
                ));
            }
            TAG_TILE => {
                let zoom = s.u32()?;
                if zoom > 16 {
                    return Err(gtsc_error(format!("tile zoom {zoom} out of range")));
                }
                let key = TileKey { zoom: zoom as u8, tx: s.u32()?, ty: s.u32()? };
                tile = Some((key, s.rect()?));
            }
            TAG_ITEMS => {
                if len % ITEM_RECORD_BYTES != 0 {
                    return Err(gtsc_error(format!(
                        "item section length {len} is not a multiple of {ITEM_RECORD_BYTES}"
                    )));
                }
                items.reserve(len / ITEM_RECORD_BYTES);
                while s.pos < s.bytes.len() {
                    let node = s.u32()?;
                    let depth = s.u32()?;
                    let min_visible_lod = s.u8()?;
                    let members = s.u64()?;
                    let rect = s.rect()?;
                    let height = s.f64()?;
                    let surface = [s.f32()?, s.f32()?, s.f32()?, s.f32()?];
                    items.push(GtscItem {
                        node: (node != OTHER_NODE).then_some(node),
                        depth,
                        min_visible_lod,
                        members,
                        rect,
                        height,
                        surface,
                    });
                }
            }
            _ => {} // forward compatibility: unknown sections are skipped
        }
    }
    let (header, declared) =
        header.ok_or_else(|| gtsc_error("missing header section".to_string()))?;
    if declared != items.len() as u64 {
        return Err(gtsc_error(format!(
            "header declares {declared} items, item section carries {}",
            items.len()
        )));
    }
    Ok(GtscDocument { header, tile, items })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_items() -> Vec<SceneItem> {
        vec![
            SceneItem {
                node: Some(0),
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                depth: 0,
                height: 1.0,
                members: 9,
                min_visible_lod: 0,
                surface: [0.1, -0.2, 0.3, -0.4],
            },
            SceneItem {
                node: None,
                rect: Rect::new(0.25, 0.25, 0.5, 0.5),
                depth: 1,
                height: 3.5,
                members: 4,
                min_visible_lod: 2,
                surface: [0.0; 4],
            },
        ]
    }

    fn sample_header() -> GtscHeader {
        GtscHeader {
            domain: Rect::new(0.0, 0.0, 1.0, 1.0),
            tile_px: 256,
            max_lod: 8,
            baseline: 1.0,
            peak: 3.5,
        }
    }

    #[test]
    fn gtsc_round_trips_scene_and_tile_documents() {
        let items = sample_items();
        let header = sample_header();
        let scene = encode_gtsc(&header, None, &items, &[0, 1]);
        assert_eq!(&scene[..4], GTSC_MAGIC);
        let doc = decode_gtsc(&scene).unwrap();
        assert_eq!(doc.header, header);
        assert_eq!(doc.tile, None);
        assert_eq!(doc.items.len(), 2);
        assert_eq!(doc.items[0].node, Some(0));
        assert_eq!(doc.items[1].node, None, "other buckets survive the round trip");
        assert_eq!(doc.items[1].height, 3.5);

        let key = TileKey { zoom: 2, tx: 1, ty: 3 };
        let rect = tile_rect(&header.domain, &key);
        let tile = encode_gtsc(&header, Some((key, rect)), &items, &[1]);
        let doc = decode_gtsc(&tile).unwrap();
        assert_eq!(doc.tile, Some((key, rect)));
        assert_eq!(doc.items.len(), 1);
    }

    #[test]
    fn corrupt_documents_are_rejected_not_panicked() {
        let good = encode_gtsc(&sample_header(), None, &sample_items(), &[0, 1]);
        assert!(decode_gtsc(&[]).is_err());
        assert!(decode_gtsc(&good[..good.len() - 1]).is_err(), "truncation breaks the checksum");
        let mut flipped = good.clone();
        flipped[20] ^= 0xff;
        assert!(decode_gtsc(&flipped).is_err(), "a flipped byte breaks the checksum");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_gtsc(&bad_magic).is_err());
    }

    #[test]
    fn tile_grid_is_power_of_two_and_covers_the_domain() {
        let domain = Rect::new(0.0, 0.0, 2.0, 1.0);
        assert_eq!(tiles_per_axis(0), 1);
        assert_eq!(tiles_per_axis(3), 8);
        let whole = tile_rect(&domain, &TileKey { zoom: 0, tx: 0, ty: 0 });
        assert_eq!(whole, domain);
        // The four zoom-1 tiles partition the domain.
        let mut area = 0.0;
        for ty in 0..2 {
            for tx in 0..2 {
                area += tile_rect(&domain, &TileKey { zoom: 1, tx, ty }).area();
            }
        }
        assert!((area - domain.area()).abs() < 1e-12);
        assert!(TileKey { zoom: 1, tx: 1, ty: 1 }.in_range(8));
        assert!(!TileKey { zoom: 1, tx: 2, ty: 0 }.in_range(8));
        assert!(!TileKey { zoom: 9, tx: 0, ty: 0 }.in_range(8));
    }

    #[test]
    fn viewport_tile_enumeration_is_clipped_and_row_major() {
        let domain = Rect::new(0.0, 0.0, 1.0, 1.0);
        // A viewport over the center straddles all four zoom-1 tiles.
        let keys = tiles_overlapping(&domain, &Rect::new(0.4, 0.4, 0.6, 0.6), 1);
        assert_eq!(
            keys,
            vec![
                TileKey { zoom: 1, tx: 0, ty: 0 },
                TileKey { zoom: 1, tx: 1, ty: 0 },
                TileKey { zoom: 1, tx: 0, ty: 1 },
                TileKey { zoom: 1, tx: 1, ty: 1 },
            ]
        );
        // A viewport whose edge lands exactly on the midline stays on its
        // side (tile overlap is strict).
        let keys = tiles_overlapping(&domain, &Rect::new(0.1, 0.1, 0.5, 0.5), 1);
        assert_eq!(keys, vec![TileKey { zoom: 1, tx: 0, ty: 0 }]);
        // Out-of-domain viewports clip (or vanish).
        assert!(tiles_overlapping(&domain, &Rect::new(2.0, 2.0, 3.0, 3.0), 1).is_empty());
        let keys = tiles_overlapping(&domain, &Rect::new(0.9, 0.9, 5.0, 5.0), 2);
        assert_eq!(keys, vec![TileKey { zoom: 2, tx: 3, ty: 3 }]);
    }
}
