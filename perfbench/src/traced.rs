//! The traced run: per-layer metrics from spans recorded around public
//! calls, with nothing traced inside the program.
//!
//! The server is an in-process accept loop assembled from serve's public
//! pieces, one request per connection as `server.rs` does it:
//! `http::read_request`, then `routes::handle` over an `AppState`, then
//! `Response::write_to`. After each response the client replays the work
//! through public calls: a miss through the `TerrainPipeline` stage
//! accessors (the replayed bytes must equal the served ones), a delta
//! through `GraphSource` and `SharedGraph::apply_delta` on a clone of the
//! graph it was applied to.
//!
//! A traced run makes two passes over the same fixed script, each on fresh
//! server state. Every count must repeat exactly between the passes; a
//! count that drifts is reported by name and fails the run.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use graph_terrain::{Measure, SharedGraph, TerrainPipeline};
use serve::error::http_error_response;
use serve::http::read_request;
use serve::{client, routes, AppState, ServerConfig};
use ugraph::io::{GraphFormat, GraphSource};
use ugraph::{DeltaOp, GraphDelta};

use crate::check::{expect, render_terrain, render_tile, send};
use crate::report::{median, Outcome};
use crate::workload::{Class, Inputs, Op, Plan, Req, GRAPH_ID};

/// One timed interval at a layer boundary. `parent` names the span of the
/// same request that caused it.
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    req: u64,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory until the run ends, and the id of the request in
/// flight (the client sets it before connecting; the accept loop reads it).
struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    current: AtomicU64,
}

impl Tracer {
    fn record(&self, name: &'static str, parent: Option<&'static str>, req: u64, start: Instant) {
        let span = Span { name, parent, req, start, end: Instant::now() };
        self.spans.lock().expect("span lock").push(span);
    }

    fn time<T>(
        &self,
        name: &'static str,
        parent: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, Some(parent), req, start);
        out
    }

    fn next_request(&self) -> u64 {
        self.current.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Write every span as one JSON line.
    fn write_out(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let ms = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e3;
        for s in self.spans.lock().expect("span lock").iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ms\":{},\"end_ms\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.req,
                ms(s.start),
                ms(s.end)
            )?;
        }
        out.flush()
    }
}

/// The in-process server: accept, read, handle, write, close.
fn accept_loop(
    listener: TcpListener,
    state: Arc<AppState>,
    tracer: Arc<Tracer>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let req = tracer.current.load(Ordering::SeqCst);
        let _ = stream.set_read_timeout(Some(state.config.read_timeout));
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else { continue };
        let mut reader = BufReader::new(clone);
        let parsed = tracer.time("serve.read", "request", req, || {
            read_request(&mut reader, state.config.max_body_bytes)
        });
        let response = match parsed {
            Ok(request) => {
                tracer.time("serve.handle", "request", req, || routes::handle(&state, &request))
            }
            Err(e) => match http_error_response(&e) {
                Some(response) => response,
                None => continue,
            },
        };
        tracer.time("serve.write", "request", req, || {
            let mut writer = BufWriter::new(&stream);
            let _ = response.write_to(&mut writer).and_then(|()| writer.flush());
        });
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Counts of one pass that must repeat exactly in the other.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    renders: u64,
    response_bytes: u64,
    render_nodes: Vec<usize>,
    svg_bytes: Vec<usize>,
    scene_items: Vec<usize>,
    /// Per delta: inserted, deleted, redundant inserts, structural changes.
    delta_stats: Vec<[usize; 4]>,
    dispositions: Vec<String>,
}

impl Counts {
    fn drift(&self, other: &Counts) -> Vec<&'static str> {
        let mut names = Vec::new();
        let mut cmp = |name, same: bool| {
            if !same {
                names.push(name);
            }
        };
        cmp("serve.cache.hits", self.cache_hits == other.cache_hits);
        cmp("serve.cache.misses", self.cache_misses == other.cache_misses);
        cmp("serve.cache.evictions", self.cache_evictions == other.cache_evictions);
        cmp("serve.renders", self.renders == other.renders);
        cmp("serve.response_bytes", self.response_bytes == other.response_bytes);
        cmp("terrain.render_nodes", self.render_nodes == other.render_nodes);
        cmp("terrain.svg_bytes", self.svg_bytes == other.svg_bytes);
        cmp("terrain.scene_items", self.scene_items == other.scene_items);
        cmp("ugraph.delta_stats", self.delta_stats == other.delta_stats);
        cmp("dispositions", self.dispositions == other.dispositions);
        names
    }
}

/// What one pass leaves behind besides its spans.
#[derive(Default)]
struct Pass {
    /// Timed requests (cycles 1..): id and script entry.
    timed: Vec<(u64, Req)>,
    /// The request id of the graph upload.
    upload_id: u64,
    counts: Counts,
    parse_ms: f64,
    attempted: u64,
    failures: Vec<String>,
}

pub fn run(inputs: &Inputs, plan: &Plan, seconds: u64, seed: u64) -> Outcome {
    let tracer = Arc::new(Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        current: AtomicU64::new(0),
    });
    let cycles = plan.workload.traced_cycles(seconds);
    let passes: Vec<Pass> = (0..2).map(|_| run_pass(&tracer, inputs, plan, cycles)).collect();

    let mut outcome = Outcome::default();
    for pass in &passes {
        outcome.attempted += pass.attempted;
        for failure in &pass.failures {
            outcome.fail(failure.clone());
        }
    }
    for name in passes[0].counts.drift(&passes[1].counts) {
        outcome.fail(format!("exact-repeat drift: {name} differs between two passes of one seed"));
    }
    report(&mut outcome, &tracer, &passes);

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", plan.workload.name()));
    if let Err(e) = tracer.write_out(&path) {
        outcome.fail(format!("write spans to {}: {e}", path.display()));
    }
    outcome
}

fn run_pass(tracer: &Arc<Tracer>, inputs: &Inputs, plan: &Plan, cycles: usize) -> Pass {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(listener) => listener,
        Err(e) => return Pass { failures: vec![format!("bind: {e}")], ..Pass::default() },
    };
    let addr = listener.local_addr().expect("bound listener has an address");
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (state, tracer, stop) = (Arc::clone(&state), Arc::clone(tracer), Arc::clone(&stop));
        std::thread::spawn(move || accept_loop(listener, state, tracer, stop))
    };

    let mut pass = Pass::default();
    if let Err(e) = drive(tracer, inputs, plan, cycles, &state, addr, &mut pass) {
        pass.failures.push(e);
    }

    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    if server.join().is_err() {
        pass.failures.push("the accept loop panicked".to_string());
    }
    pass
}

/// The client side of one pass: upload, cycle 0 as warm-up, then the
/// timed cycles, replaying every miss and delta.
fn drive(
    tracer: &Tracer,
    inputs: &Inputs,
    plan: &Plan,
    cycles: usize,
    state: &AppState,
    addr: std::net::SocketAddr,
    pass: &mut Pass,
) -> Result<(), String> {
    let id = tracer.next_request();
    pass.upload_id = id;
    let start = Instant::now();
    let upload = client::post(addr, &format!("/graphs?id={GRAPH_ID}"), &inputs.upload)
        .map_err(|e| format!("upload: {e}"))?;
    tracer.record("request", None, id, start);
    if upload.status != 201 {
        return Err(format!("upload -> {}: {}", upload.status, upload.body_utf8()));
    }
    let body = inputs.upload.clone();
    let start = Instant::now();
    GraphSource::reader(Cursor::new(body))
        .with_format(GraphFormat::EdgeList)
        .load()
        .map_err(|e| e.to_string())?;
    pass.parse_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.record("ugraph.parse", Some("request"), id, start);

    let mut first_tile_bytes: BTreeMap<(u8, u32, u32, u32), Vec<u8>> = BTreeMap::new();
    let mut before = None;
    for cycle in 0..=cycles {
        if cycle == 1 {
            before = Some(server_counts(state));
        }
        let timed = cycle >= 1;
        for req in plan.cycle(cycle) {
            pass.attempted += 1;
            let id = tracer.next_request();
            let graph_before =
                state.graph(GRAPH_ID).map(|e| e.graph.clone()).ok_or("graph vanished")?;
            let start = Instant::now();
            let result = send(addr, &req, inputs);
            tracer.record("request", None, id, start);
            let resp = match result
                .map_err(|e| e.to_string())
                .and_then(|r| expect(&req, &r).map(|()| r))
            {
                Ok(resp) => resp,
                Err(e) => {
                    pass.failures.push(e);
                    continue;
                }
            };
            let served = state.graph(GRAPH_ID).map(|e| e.graph.clone()).ok_or("graph vanished")?;
            let counts = &mut pass.counts;
            match req.op {
                Op::Terrain { .. } => {
                    let (bytes, nodes) = replay(tracer, id, served, req.op);
                    if bytes != resp.body {
                        pass.failures
                            .push(format!("{}: replayed bytes differ from served", req.target()));
                    }
                    if timed {
                        counts.render_nodes.push(nodes);
                        counts.svg_bytes.push(bytes.len());
                    }
                }
                Op::Tile { key, size } if !req.hit => {
                    let (bytes, items) = replay(tracer, id, served, req.op);
                    if bytes != resp.body {
                        pass.failures
                            .push(format!("{}: replayed bytes differ from served", req.target()));
                    }
                    first_tile_bytes.insert((key.zoom, key.tx, key.ty, size), bytes);
                    if timed {
                        counts.scene_items.push(items);
                    }
                }
                Op::Tile { key, size } => {
                    if first_tile_bytes.get(&(key.zoom, key.tx, key.ty, size)) != Some(&resp.body) {
                        pass.failures
                            .push(format!("{}: hit bytes differ from the miss", req.target()));
                    }
                }
                Op::Delta { insert, structural } => {
                    let stats = replay_delta(tracer, id, graph_before, insert, req.body(inputs))?;
                    let changes = stats[3];
                    if changes != if structural { inputs.toggle.len() } else { 0 } {
                        pass.failures.push(format!(
                            "{}: replay made {changes} structural changes",
                            req.target()
                        ));
                    }
                    if timed {
                        counts.delta_stats.push(stats);
                    }
                }
            }
            if timed {
                pass.timed.push((id, req));
                counts.response_bytes += resp.body.len() as u64;
                counts.dispositions.push(resp.header("x-cache").unwrap_or("-").to_string());
            }
        }
    }
    let before = before.ok_or("no timed cycle")?;
    let after = server_counts(state);
    let counts = &mut pass.counts;
    counts.cache_hits = after[0] - before[0];
    counts.cache_misses = after[1] - before[1];
    counts.cache_evictions = after[2] - before[2];
    counts.renders = after[3] - before[3];
    Ok(())
}

/// Cache hits, misses, evictions and renders so far.
fn server_counts(state: &AppState) -> [u64; 4] {
    let cache = state.cache.lock().expect("cache lock").stats();
    let renders = state.stage_totals.lock().expect("stage totals lock").renders;
    [cache.hits, cache.misses, cache.evictions, renders]
}

/// A miss replayed through the stage accessors, one span per stage under
/// a `replay` span: the bytes and the render-node or scene-item count.
fn replay(tracer: &Tracer, id: u64, graph: SharedGraph, op: Op) -> (Vec<u8>, usize) {
    let start = Instant::now();
    let mut stage = |name, run: &mut dyn FnMut()| tracer.time(name, "replay", id, run);
    let out = match op {
        Op::Terrain { .. } => render_terrain(graph, op, &mut stage),
        Op::Tile { key, size } => render_tile(
            &mut TerrainPipeline::from_shared(graph, Measure::KCore),
            key,
            size,
            &mut stage,
        ),
        Op::Delta { .. } => unreachable!("a delta is replayed by replay_delta"),
    };
    tracer.record("replay", Some("request"), id, start);
    out
}

/// A delta through `GraphSource` and `apply_delta` on a clone of the graph
/// it was applied to: inserted, deleted, redundant inserts, structural
/// changes.
fn replay_delta(
    tracer: &Tracer,
    id: u64,
    graph: SharedGraph,
    insert: bool,
    body: &[u8],
) -> Result<[usize; 4], String> {
    let start = Instant::now();
    let batch = GraphSource::reader(Cursor::new(body.to_vec()))
        .with_format(GraphFormat::EdgeList)
        .load()
        .map_err(|e| format!("delta batch: {e}"))?;
    let delta = GraphDelta::from_graph(
        if insert { DeltaOp::Insert } else { DeltaOp::Delete },
        &batch.graph,
    );
    let mut graph = graph;
    let stats = tracer.time("ugraph.delta_apply", "replay", id, || graph.apply_delta(&delta));
    tracer.record("replay", Some("request"), id, start);
    Ok([stats.inserted, stats.deleted, stats.redundant_inserts, stats.structural_changes()])
}

/// Per-layer metrics from the spans of both passes' timed requests, and
/// the counts of the first pass (equal to the second's, or the run failed).
fn report(outcome: &mut Outcome, tracer: &Tracer, passes: &[Pass]) {
    let by_req = layer_times(&tracer.spans.lock().expect("span lock"));
    let timed: Vec<(Req, &BTreeMap<&'static str, LayerTime>)> = passes
        .iter()
        .flat_map(|p| p.timed.iter())
        .filter_map(|(id, req)| by_req.get(id).map(|spans| (*req, spans)))
        .collect();
    let span = |spans: &BTreeMap<&'static str, LayerTime>, name| {
        spans.get(name).map_or(0.0, |t| t.total_ms)
    };
    // One request class per series; tile series cover misses only.
    let series = |class: Class, f: &dyn Fn(&BTreeMap<&'static str, LayerTime>) -> f64| {
        timed
            .iter()
            .filter(|(req, _)| req.class() == class && !req.hit)
            .map(|(_, spans)| f(spans))
            .collect::<Vec<f64>>()
    };
    let named = |name: &'static str| move |s: &BTreeMap<&'static str, LayerTime>| span(s, name);
    let request =
        |s: &BTreeMap<&'static str, LayerTime>| s.get("request").copied().unwrap_or_default();

    let (terrain, tile, delta) = (Class::Terrain, Class::Tile, Class::Delta);
    let read = named("serve.read");
    let unattributed = |s: &BTreeMap<&'static str, LayerTime>| request(s).self_ms();
    outcome.push_p50(
        "serve.read.upload_ms",
        &passes.iter().filter_map(|p| by_req.get(&p.upload_id)).map(&read).collect::<Vec<_>>(),
        "ms",
    );
    outcome.push_p50("serve.read.tile_ms_p50", &series(tile, &read), "ms");
    outcome.push_p50("serve.read.delta_ms_p50", &series(delta, &read), "ms");
    outcome.push_p50("serve.handle.terrain_ms_p50", &series(terrain, &named("serve.handle")), "ms");
    outcome.push_p50("serve.handle.tile_ms_p50", &series(tile, &named("serve.handle")), "ms");
    outcome.push_p50("serve.handle.delta_ms_p50", &series(delta, &named("serve.handle")), "ms");
    outcome.push_p50("serve.write.terrain_ms_p50", &series(terrain, &named("serve.write")), "ms");
    outcome.push_p50("serve.unattributed.terrain_ms_p50", &series(terrain, &unattributed), "ms");
    outcome.push_p50("serve.unattributed.tile_ms_p50", &series(tile, &unattributed), "ms");
    outcome.push_p50("serve.unattributed.delta_ms_p50", &series(delta, &unattributed), "ms");
    outcome.push_p50(
        "serve.attributed_terrain_pct",
        &series(terrain, &|s| 100.0 * request(s).inner_ms / request(s).total_ms),
        "%",
    );

    let c = &passes[0].counts;
    let lookups = c.cache_hits + c.cache_misses;
    outcome.push("serve.cache.hits", c.cache_hits as f64, "count", 1);
    outcome.push("serve.cache.misses", c.cache_misses as f64, "count", 1);
    outcome.push("serve.cache.evictions", c.cache_evictions as f64, "count", 1);
    outcome.push(
        "serve.cache.hit_ratio",
        c.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    outcome.push("serve.renders", c.renders as f64, "count", 1);
    outcome.push("serve.response_bytes", c.response_bytes as f64, "bytes", c.dispositions.len());

    outcome.push_p50("measures.scalar_ms_p50", &series(terrain, &named("measures.scalar")), "ms");
    outcome.push_p50("scalarfield.tree_ms_p50", &series(tile, &named("scalarfield.tree")), "ms");
    outcome.push_p50(
        "scalarfield.super_tree_ms_p50",
        &series(tile, &named("scalarfield.super_tree")),
        "ms",
    );
    outcome.push_p50(
        "scalarfield.simplify_ms_p50",
        &series(terrain, &named("scalarfield.simplify")),
        "ms",
    );
    outcome.push_p50("terrain.layout_ms_p50", &series(terrain, &named("terrain.layout")), "ms");
    outcome.push_p50("terrain.mesh_ms_p50", &series(terrain, &named("terrain.mesh")), "ms");
    outcome.push_p50("terrain.export_ms_p50", &series(terrain, &named("terrain.export")), "ms");
    outcome.push_p50("terrain.scene_ms_p50", &series(tile, &named("terrain.scene")), "ms");
    outcome.push_p50("terrain.tile_ms_p50", &series(tile, &named("terrain.tile")), "ms");
    let as_f64 = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
    outcome.push_p50("terrain.render_nodes", &as_f64(&c.render_nodes), "count");
    outcome.push_p50("terrain.svg_bytes", &as_f64(&c.svg_bytes), "bytes");
    outcome.push_p50("terrain.scene_items", &as_f64(&c.scene_items), "count");

    outcome.push_p50(
        "ugraph.parse_ms",
        &passes.iter().map(|p| p.parse_ms).collect::<Vec<_>>(),
        "ms",
    );
    outcome.push_p50(
        "ugraph.delta_apply_ms_p50",
        &series(delta, &named("ugraph.delta_apply")),
        "ms",
    );
    let changes: usize = c.delta_stats.iter().map(|s| s[3]).sum();
    outcome.push("ugraph.delta_structural_changes", changes as f64, "count", c.delta_stats.len());

    outcome.push_p50("traced.terrain_ms_p50", &series(terrain, &named("request")), "ms");
    outcome.push_p50("traced.tile_miss_ms_p50", &series(tile, &named("request")), "ms");
    outcome.push_p50("traced.delta_ms_p50", &series(delta, &named("request")), "ms");

    // Self time per layer, for the human table.
    let mut self_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, spans) in &timed {
        for (&name, time) in spans.iter() {
            self_ms.entry(name).or_default().push(time.self_ms());
        }
    }
    for (name, values) in &self_ms {
        println!(
            "# self time p50 {:<30} {:>12.4} ms n={}",
            name,
            median(values).unwrap_or(0.0),
            values.len()
        );
    }
}

/// One layer's time within one request.
#[derive(Clone, Copy, Debug, Default)]
struct LayerTime {
    total_ms: f64,
    /// The part of this span's interval its child spans cover. A child can
    /// end outside its parent: the server may still be closing the socket
    /// after the client has its bytes, and replays run after the response.
    inner_ms: f64,
}

impl LayerTime {
    fn self_ms(&self) -> f64 {
        self.total_ms - self.inner_ms
    }
}

/// Span durations per request and layer, with each parent's coverage by
/// its children.
fn layer_times(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, LayerTime>> {
    let interval: BTreeMap<(u64, &'static str), (Instant, Instant)> =
        spans.iter().map(|s| ((s.req, s.name), (s.start, s.end))).collect();
    let mut by_req: BTreeMap<u64, BTreeMap<&'static str, LayerTime>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().entry(s.name).or_default().total_ms +=
            s.end.duration_since(s.start).as_secs_f64() * 1e3;
        let Some(parent) = s.parent else { continue };
        if let Some(&(p_start, p_end)) = interval.get(&(s.req, parent)) {
            let overlap = s.end.min(p_end).saturating_duration_since(s.start.max(p_start));
            by_req.entry(s.req).or_default().entry(parent).or_default().inner_ms +=
                overlap.as_secs_f64() * 1e3;
        }
    }
    by_req
}
