//! Request expectations and the output checks that run after the timed
//! phase: served bytes against in-process renders of the benchmark's own
//! model of the graph.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use graph_terrain::{Measure, SharedGraph, SvgSize, TerrainPipeline, TileKey};
use serve::client::{self, HttpResponse};

use crate::workload::{
    batch_present_after, Inputs, Op, Req, Workload, BATCH_EDGES, GRAPH_ID, NOOP_EDGES,
};

/// Send one scripted request over a fresh connection.
pub fn send(addr: SocketAddr, req: &Req, inputs: &Inputs) -> std::io::Result<HttpResponse> {
    client::request(addr, req.method(), &req.target(), &[], req.body(inputs))
}

/// Whether a response is what the script expects: status 200, the expected
/// `X-Cache` disposition on GETs, and on deltas the expected structural
/// flag with all 200 edges counted where the op says.
pub fn expect(req: &Req, resp: &HttpResponse) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!(
            "{} {} -> {}: {}",
            req.method(),
            req.target(),
            resp.status,
            resp.body_utf8()
        ));
    }
    let fail = |what: String| Err(format!("{} {}: {what}", req.method(), req.target()));
    match req.op {
        Op::Delta { insert, structural } => {
            let body = resp.body_utf8();
            let (counter, edges) = match (structural, insert) {
                (false, _) => ("redundant_inserts", NOOP_EDGES),
                (true, true) => ("inserted", BATCH_EDGES),
                (true, false) => ("deleted", BATCH_EDGES),
            };
            if !body.contains(&format!("\"structural\":{structural}"))
                || !body.contains(&format!("\"{counter}\":{edges}"))
            {
                return fail(format!(
                    "expected structural={structural} and {counter}={edges}, got {body}"
                ));
            }
        }
        _ => {
            let want = if req.hit { "hit" } else { "miss" };
            if resp.header("x-cache") != Some(want) {
                return fail(format!("expected X-Cache {want}, got {:?}", resp.header("x-cache")));
            }
        }
    }
    Ok(())
}

/// Runs one named pipeline stage of a reference render. The output checks
/// pass [`untimed`]; the traced run wraps each stage in a span.
pub type Stage<'a> = dyn FnMut(&'static str, &mut dyn FnMut()) + 'a;

/// The stage hook that just runs the stage.
pub fn untimed(_: &'static str, run: &mut dyn FnMut()) {
    run()
}

/// The terrain bytes the server's terrain route renders for `op`, rendered
/// stage by stage through the session accessors, and the render tree's
/// node count.
pub fn render_terrain(graph: SharedGraph, op: Op, stage: &mut Stage) -> (Vec<u8>, usize) {
    let Op::Terrain { pagerank, width } = op else { panic!("not a terrain request: {op:?}") };
    let measure = if pagerank { Measure::PageRank } else { Measure::KCore };
    let size = SvgSize {
        width_px: width.map_or(SvgSize::default().width_px, f64::from),
        ..SvgSize::default()
    };
    let exporter = terrain::exporter_by_name_sized("svg", size.width_px, size.height_px)
        .expect("svg is a built-in exporter");
    let mut session = TerrainPipeline::from_shared(graph, measure);
    session.set_svg_size(size);
    stage("measures.scalar", &mut || {
        session.scalar().expect("scalar");
    });
    stage("scalarfield.tree", &mut || {
        session.scalar_tree().expect("scalar tree");
    });
    stage("scalarfield.super_tree", &mut || {
        session.super_tree().expect("super tree");
    });
    stage("scalarfield.simplify", &mut || {
        session.render_tree().expect("render tree");
    });
    stage("terrain.layout", &mut || {
        session.layout().expect("layout");
    });
    stage("terrain.mesh", &mut || {
        session.mesh().expect("mesh");
    });
    let mut bytes = Vec::new();
    stage("terrain.export", &mut || {
        session.render_deterministic_to(exporter.as_ref(), &mut bytes).expect("export")
    });
    (bytes, session.render_tree().expect("cached").node_count())
}

/// The tile bytes the server's tile route renders from a k-core session,
/// stage by stage, and the scene's item count. Stages the session already
/// holds are not run again.
pub fn render_tile(
    session: &mut TerrainPipeline<'static>,
    key: TileKey,
    size: u32,
    stage: &mut Stage,
) -> (Vec<u8>, usize) {
    stage("measures.scalar", &mut || {
        session.scalar().expect("scalar");
    });
    stage("scalarfield.tree", &mut || {
        session.scalar_tree().expect("scalar tree");
    });
    stage("scalarfield.super_tree", &mut || {
        session.super_tree().expect("super tree");
    });
    stage("terrain.scene", &mut || {
        session.scene().expect("scene");
    });
    let scene = session.scene().expect("cached");
    let mut bytes = Vec::new();
    stage("terrain.tile", &mut || scene.write_tile_svg(&key, size, &mut bytes).expect("tile"));
    (bytes, scene.item_count())
}

/// A tile response's place in the run: cycle, (zoom, tx, ty), size.
type TileSlot = (usize, (u8, u32, u32), u32);

/// Response bodies kept from the timed phase for the output checks.
#[derive(Default)]
pub struct Kept {
    /// Every tile response: (cycle, key, size) -> body. A revisit must
    /// repeat the bytes of the first visit.
    pub tiles: BTreeMap<TileSlot, Vec<u8>>,
    /// terrain-1m and tiles-1m: the first terrain response; mutate-1m: the
    /// last one.
    pub terrain: Option<(usize, Op, Vec<u8>)>,
    /// Failures found while keeping (a revisit with other bytes).
    pub failures: Vec<String>,
}

impl Kept {
    pub fn keep(&mut self, workload: Workload, cycle: usize, req: &Req, body: Vec<u8>) {
        match req.op {
            Op::Tile { key, size } => {
                let slot = (cycle, (key.zoom, key.tx, key.ty), size);
                match self.tiles.get(&slot) {
                    Some(first) if *first != body => self
                        .failures
                        .push(format!("tile {key} size {size}: a revisit returned other bytes")),
                    Some(_) => {}
                    None => {
                        self.tiles.insert(slot, body);
                    }
                }
            }
            Op::Terrain { .. } => {
                if self.terrain.is_none() || workload == Workload::Mutate1m {
                    self.terrain = Some((cycle, req.op, body));
                }
            }
            Op::Delta { .. } => {}
        }
    }
}

/// The output checks. Returns one line per failed check.
pub fn check_outputs(
    workload: Workload,
    inputs: &Inputs,
    kept: &Kept,
    addr: SocketAddr,
    last_cycle: usize,
) -> Vec<String> {
    let mut failures = kept.failures.clone();
    // The graph each cycle's reads saw: fixed, except on mutate-1m.
    let state_of = |cycle: usize| workload == Workload::Mutate1m && batch_present_after(cycle);
    let mut graphs: BTreeMap<bool, SharedGraph> = BTreeMap::new();
    let mut graph_for = |present: bool| {
        graphs.entry(present).or_insert_with(|| SharedGraph::new(inputs.model(present))).clone()
    };

    if let Some((cycle, op, body)) = &kept.terrain {
        if *body != render_terrain(graph_for(state_of(*cycle)), *op, &mut untimed).0 {
            failures.push(format!(
                "terrain {op:?} of cycle {cycle} differs from the in-process render"
            ));
        }
    } else {
        failures.push("no terrain response was kept".to_string());
    }

    let mut sessions: BTreeMap<bool, TerrainPipeline<'static>> = BTreeMap::new();
    for (&(cycle, (zoom, tx, ty), size), body) in &kept.tiles {
        let present = state_of(cycle);
        let session = sessions
            .entry(present)
            .or_insert_with(|| TerrainPipeline::from_shared(graph_for(present), Measure::KCore));
        let key = TileKey { zoom, tx, ty };
        if *body != render_tile(session, key, size, &mut untimed).0 {
            failures.push(format!(
                "tile {key} size {size} of cycle {cycle} differs from scene().write_tile_svg"
            ));
        }
    }

    if workload == Workload::Mutate1m {
        let want = graph_for(state_of(last_cycle)).storage().edge_count();
        match client::get(addr, &format!("/graphs/{GRAPH_ID}")) {
            Ok(resp) if resp.body_utf8().contains(&format!("\"edges\":{want},")) => {}
            Ok(resp) => failures.push(format!(
                "GET /graphs/{GRAPH_ID} = {}; the model has {want} edges",
                resp.body_utf8()
            )),
            Err(e) => failures.push(format!("GET /graphs/{GRAPH_ID}: {e}")),
        }
        if kept.terrain.as_ref().map(|t| t.0) != Some(last_cycle) {
            failures.push("the kept terrain is not the last cycle's".to_string());
        }
    }
    failures
}
