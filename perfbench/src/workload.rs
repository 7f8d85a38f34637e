//! Seeded inputs and the request scripts of the three workloads.
//!
//! Every workload is a sequence of *cycles*. A cycle is the same recipe of
//! requests every time; only the fresh parameter that keeps its misses
//! misses (a terrain width, a tile size) changes with the cycle index. So
//! the work per cycle, and every cache disposition in it, is fixed by the
//! seed, and a run's counts depend only on how many cycles it completes.
//!
//! Each workload carries all three request classes (terrain, tile, delta),
//! so every end-to-end metric is measured on every workload, but each puts
//! its weight on a different layer:
//!
//! * `terrain-1m`: a PageRank terrain at a never-repeated width (always a
//!   miss, ~85% of the cycle), one k-core tile miss and one no-op delta.
//! * `tiles-1m`: a fixed 25-step pan/zoom walk at a fresh tile size (misses
//!   on first visits, hits on revisits), two k-core terrain misses and
//!   three no-op deltas.
//! * `mutate-1m`: a 200-edge delta that inserts on even cycles and deletes
//!   on odd ones, then a k-core terrain and two tiles that can reuse
//!   nothing after the generation bump.

use std::io::Write;

use graph_terrain::{LodConfig, TileKey};
use ugraph::io::{GraphFormat, GraphSource};
use ugraph::{CsrGraph, VertexId};

/// R-MAT scale of the 1M rung: `2^17` vertex slots.
pub const RMAT_SCALE: u32 = 17;
/// R-MAT edge samples of the 1M rung (~928k edges survive deduplication).
pub const RMAT_EDGES: usize = 1_000_000;
/// The R-MAT seed of the scale ladder's rungs. Every benchmark seed uploads
/// this one graph under a seeded relabelling of its vertex ids: the bytes,
/// the vertex order and every tie broken by id differ per seed, but the
/// graphs are isomorphic and their edge lists equally long, so each seed
/// asks for the same work. Graphs drawn with different R-MAT seeds do not: PageRank alone
/// needs 195 ms on one and 330 ms on another, as its iteration count
/// follows the graph.
const RMAT_SEED: u64 = 20_170_419;
/// Edges of the toggle batch mutate-1m inserts and deletes.
pub const BATCH_EDGES: usize = 200;
/// Edges of the no-op batch: edges the graph already has, so the server
/// parses and checks them and changes nothing. Large enough that parsing
/// and checking set its time: with 200 edges the request took about 1 ms,
/// and its median moved by 40% between two sets of runs of the same build.
pub const NOOP_EDGES: usize = 20_000;
/// Terrain widths start here and grow by one per cycle.
const FIRST_WIDTH: u32 = 600;
/// Tile sizes start here and grow by one per cycle (the server accepts up
/// to 2048, far more cycles than a run completes).
const FIRST_TILE_SIZE: u32 = 256;
/// The registry id the benchmark uploads its graph under.
pub const GRAPH_ID: &str = "rmat";

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Terrain1m,
    Tiles1m,
    Mutate1m,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "terrain-1m" => Some(Workload::Terrain1m),
            "tiles-1m" => Some(Workload::Tiles1m),
            "mutate-1m" => Some(Workload::Mutate1m),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Terrain1m => "terrain-1m",
            Workload::Tiles1m => "tiles-1m",
            Workload::Mutate1m => "mutate-1m",
        }
    }

    /// Cycles one pass of the traced run replays: sized so a pass takes
    /// about half of `seconds` with its replays, and fixed by `seconds`
    /// alone so that two traced runs count exactly the same work.
    pub fn traced_cycles(self, seconds: u64) -> usize {
        let per_cycle_s = match self {
            Workload::Terrain1m => 1.2,
            Workload::Tiles1m => 3.7,
            Workload::Mutate1m => 1.1,
        };
        ((seconds as f64 / 2.0 / per_cycle_s).round() as usize).max(2)
    }
}

/// Request classes; every latency percentile covers exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Terrain,
    Tile,
    Delta,
}

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// A terrain render: PageRank or the default k-core measure, at a
    /// fresh width or (mutate-1m) the default one.
    Terrain { pagerank: bool, width: Option<u32> },
    /// A k-core SVG tile.
    Tile { key: TileKey, size: u32 },
    /// A delta batch: the toggle batch (insert or delete, structural) or
    /// the no-op batch of edges already present.
    Delta { insert: bool, structural: bool },
}

/// One scripted request and the cache disposition it must get.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub op: Op,
    /// `X-Cache: hit` expected (GETs only).
    pub hit: bool,
}

impl Req {
    pub fn class(&self) -> Class {
        match self.op {
            Op::Terrain { .. } => Class::Terrain,
            Op::Tile { .. } => Class::Tile,
            Op::Delta { .. } => Class::Delta,
        }
    }

    pub fn method(&self) -> &'static str {
        match self.op {
            Op::Delta { .. } => "POST",
            _ => "GET",
        }
    }

    pub fn target(&self) -> String {
        match self.op {
            Op::Terrain { pagerank, width } => {
                let mut target = format!("/graphs/{GRAPH_ID}/terrain");
                let mut sep = '?';
                if pagerank {
                    target.push_str("?measure=pagerank");
                    sep = '&';
                }
                if let Some(width) = width {
                    target.push_str(&format!("{sep}width={width}"));
                }
                target
            }
            Op::Tile { key, size } => {
                format!("/graphs/{GRAPH_ID}/tiles/{}/{}/{}?size={size}", key.zoom, key.tx, key.ty)
            }
            Op::Delta { insert, .. } => {
                format!("/graphs/{GRAPH_ID}/deltas?op={}", if insert { "insert" } else { "delete" })
            }
        }
    }

    pub fn body<'a>(&self, inputs: &'a Inputs) -> &'a [u8] {
        match self.op {
            Op::Delta { structural: true, .. } => &inputs.toggle_body,
            Op::Delta { structural: false, .. } => &inputs.noop_body,
            _ => &[],
        }
    }
}

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Everything the client sends, derived from the seed.
pub struct Inputs {
    /// The upload body: the relabelled 1M rung as a text edge list.
    pub upload: Vec<u8>,
    /// The upload parsed exactly as the server parses it (the model the
    /// output checks render from).
    pub graph: CsrGraph,
    /// 200 vertex pairs absent from `graph`: inserted, then deleted.
    pub toggle: Vec<(u32, u32)>,
    pub toggle_body: Vec<u8>,
    /// 200 edges already in `graph`: inserting them changes nothing.
    pub noop_body: Vec<u8>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let rmat = ugraph::generators::rmat(RMAT_SCALE, RMAT_EDGES, RMAT_SEED);
        let label = relabelling(seed);
        let mut upload = Vec::with_capacity(12 * rmat.edge_count());
        for e in rmat.edges() {
            writeln!(upload, "{} {}", label[e.u.index()], label[e.v.index()])
                .expect("writing to a Vec cannot fail");
        }
        drop(rmat);
        // Parsed exactly as the server's upload route parses it.
        let graph = GraphSource::reader(std::io::Cursor::new(upload.clone()))
            .with_format(GraphFormat::EdgeList)
            .load()
            .expect("the benchmark's own edge list parses")
            .graph;

        let mut rng = Rng::new(seed, 1);
        let n = graph.vertex_count() as u64;
        let mut toggle: Vec<(u32, u32)> = Vec::with_capacity(BATCH_EDGES);
        while toggle.len() < BATCH_EDGES {
            let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
            let (u, v) = (a.min(b), a.max(b));
            if u != v && !graph.has_edge(VertexId(u), VertexId(v)) && !toggle.contains(&(u, v)) {
                toggle.push((u, v));
            }
        }
        // Every stride-th edge from a seeded offset: distinct by construction.
        let stride = graph.edge_count() / NOOP_EDGES;
        let offset = rng.below(stride as u64) as usize;
        let present: Vec<(u32, u32)> = (0..NOOP_EDGES)
            .map(|i| {
                let (u, v) = graph.endpoints(ugraph::EdgeId((offset + i * stride) as u32));
                (u.0, v.0)
            })
            .collect();
        Inputs {
            toggle_body: edge_list_body(&toggle),
            noop_body: edge_list_body(&present),
            upload,
            graph,
            toggle,
        }
    }

    /// The graph with or without the toggle batch, built from scratch.
    pub fn model(&self, with_batch: bool) -> CsrGraph {
        if !with_batch {
            return self.graph.clone();
        }
        let mut builder =
            ugraph::GraphBuilder::with_capacity(self.graph.edge_count() + BATCH_EDGES);
        builder.ensure_vertex((self.graph.vertex_count() - 1) as u32);
        builder.extend_edges(self.graph.edges().map(|e| (e.u.0, e.v.0)));
        builder.extend_edges(self.toggle.iter().copied());
        builder.build()
    }
}

/// A seeded permutation of the `2^17` vertex ids that maps every id to one
/// with as many decimal digits, so that every seed uploads the same number
/// of bytes.
fn relabelling(seed: u64) -> Vec<u32> {
    let n = 1u32 << RMAT_SCALE;
    let mut ids: Vec<u32> = (0..n).collect();
    let mut rng = Rng::new(seed, 0);
    let mut lo = 0;
    while lo < n {
        let hi = (lo.max(1) * 10).min(n);
        for i in (lo + 1..hi).rev() {
            let j = lo + rng.below(u64::from(i - lo + 1)) as u32;
            ids.swap(i as usize, j as usize);
        }
        lo = hi;
    }
    ids
}

fn edge_list_body(edges: &[(u32, u32)]) -> Vec<u8> {
    edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect::<String>().into_bytes()
}

/// The seeded request script of one workload.
pub struct Plan {
    pub workload: Workload,
    /// tiles-1m: the viewport walk every episode repeats.
    walk: Vec<Req>,
    /// terrain-1m: the tile each cycle fetches at a fresh size.
    probe_tile: TileKey,
    /// mutate-1m: the two tiles each cycle fetches after its delta.
    mutate_tiles: [TileKey; 2],
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed, 2);
        let mut random_tile = |zoom: u8| TileKey {
            zoom,
            tx: rng.below(1 << zoom) as u32,
            ty: rng.below(1 << zoom) as u32,
        };
        let probe_tile = random_tile(4);
        let mutate_tiles = [random_tile(3), random_tile(5)];
        Plan { workload, walk: walk(&mut Rng::new(seed, 3)), probe_tile, mutate_tiles }
    }

    /// The requests of cycle `i`. Cycle 0 is the warm-up; its first request
    /// is the one set-up waits for.
    pub fn cycle(&self, i: usize) -> Vec<Req> {
        let width = FIRST_WIDTH + i as u32;
        let size = FIRST_TILE_SIZE + i as u32;
        let miss = |op| Req { op, hit: false };
        let noop = miss(Op::Delta { insert: true, structural: false });
        match self.workload {
            Workload::Terrain1m => vec![
                miss(Op::Terrain { pagerank: true, width: Some(width) }),
                miss(Op::Tile { key: self.probe_tile, size }),
                noop,
            ],
            Workload::Tiles1m => {
                let mut reqs: Vec<Req> = self
                    .walk
                    .iter()
                    .map(|r| match r.op {
                        Op::Tile { key, .. } => Req { op: Op::Tile { key, size }, hit: r.hit },
                        _ => unreachable!("the walk holds tiles only"),
                    })
                    .collect();
                // Two terrains at fresh widths, so that a run has twice as
                // many terrain samples as cycles.
                let first = FIRST_WIDTH + 2 * i as u32;
                for width in [first, first + 1] {
                    reqs.push(miss(Op::Terrain { pagerank: false, width: Some(width) }));
                }
                // Three no-op deltas, for three times as many delta samples
                // as cycles: with one, a run had 25 and its median spread
                // by 7% over ten seeds.
                reqs.extend([noop; 3]);
                reqs
            }
            Workload::Mutate1m => vec![
                miss(Op::Delta { insert: batch_present_after(i), structural: true }),
                miss(Op::Terrain { pagerank: false, width: None }),
                miss(Op::Tile { key: self.mutate_tiles[0], size: FIRST_TILE_SIZE }),
                miss(Op::Tile { key: self.mutate_tiles[1], size: FIRST_TILE_SIZE }),
            ],
        }
    }
}

/// Whether the graph holds the toggle batch after cycle `i` of mutate-1m.
pub fn batch_present_after(cycle: usize) -> bool {
    cycle.is_multiple_of(2)
}

/// The viewport walk of one tiles-1m episode, the same shape for every
/// seed so that every seed does the same work: zoom in from the root to
/// `max_lod` through seeded children, circle once around a 2x2 block of
/// tiles, zoom back out to zoom 4, circle there too, and zoom out to the
/// root. Each circle ends on the tile it started from and every zoom-out
/// step lands on a tile of the way in, so an episode has exactly 15 misses
/// and 10 hits (the hits are revisits within the episode).
fn walk(rng: &mut Rng) -> Vec<Req> {
    let max_zoom = LodConfig::default().max_lod;
    let mut path = vec![TileKey { zoom: 0, tx: 0, ty: 0 }];
    for zoom in 1..=max_zoom {
        let parent = path[path.len() - 1];
        path.push(TileKey {
            zoom,
            tx: parent.tx * 2 + rng.below(2) as u32,
            ty: parent.ty * 2 + rng.below(2) as u32,
        });
    }
    // A loop through the three neighbours of `key` in the direction of
    // the grid's interior and back.
    let circle = |key: TileKey| {
        let last = (1u32 << key.zoom) - 1;
        let dx = if key.tx < last { key.tx + 1 } else { key.tx - 1 };
        let dy = if key.ty < last { key.ty + 1 } else { key.ty - 1 };
        [(dx, key.ty), (dx, dy), (key.tx, dy), (key.tx, key.ty)].map(|(tx, ty)| TileKey {
            zoom: key.zoom,
            tx,
            ty,
        })
    };
    let mut keys: Vec<TileKey> = path.clone();
    keys.extend(circle(path[max_zoom as usize]));
    for zoom in (0..max_zoom).rev() {
        keys.push(path[zoom as usize]);
        if zoom == 4 {
            keys.extend(circle(path[4]));
        }
    }
    let mut seen: Vec<TileKey> = Vec::new();
    keys.into_iter()
        .map(|key| {
            let hit = seen.contains(&key);
            if !hit {
                seen.push(key);
            }
            Req { op: Op::Tile { key, size: FIRST_TILE_SIZE }, hit }
        })
        .collect()
}
