//! The route table and handlers.
//!
//! ```text
//! POST   /graphs[?id=&format=]          register a graph (body = graph file)
//! GET    /graphs                        list registered graphs
//! GET    /graphs/{id}                   one graph's facts
//! POST   /graphs/{id}/deltas[?op=&format=]  mutate a graph in place (body = edge batch)
//! DELETE /graphs/{id}                   unregister a graph
//! GET    /graphs/{id}/terrain?...       render a terrain artifact (cached)
//! GET    /graphs/{id}/peaks?...         peak extraction as JSON (cached)
//! GET    /graphs/{id}/tiles/{z}/{tx}/{ty}?...  one pan/zoom tile (cached)
//! GET    /graphs/{id}/scene?...         binary `GTSC` scene document (cached)
//! GET    /stats                         cache/scene/timing/traffic counters
//! GET    /healthz                       liveness probe
//! ```
//!
//! Tiles: the layout domain is a power-of-two grid (`2^z × 2^z` tiles at
//! zoom `z`, south-west origin) over the server's fixed default layout and
//! LOD configurations, so every client shares one grid and one cache. A
//! tile request takes `measure`, `threads`, `format` (`svg` | `scene`) and
//! `size` (square tile edge in px, SVG only); keys past the grid (zoom
//! above the scene's maximum, `tx`/`ty` at or above `2^zoom`) are 404s.
//! Tile bytes depend only on the graph, its delta generation, the measure
//! and the key — *not* on `budget`/`levels` (tiles render the unsimplified
//! tree) and not on `threads` — which is exactly what the cache key embeds.
//!
//! Retained state: what a render starts from is kept per graph generation
//! in one store, [`AppState::retained`] (a second instance of the artifact
//! cache's [`LruCache`], bounded to
//! [`RETAINED_ENTRIES`](crate::state::RETAINED_ENTRIES) values of every kind
//! together and [`RETAINED_BYTES`](crate::state::RETAINED_BYTES)), keyed
//! `"{id}|gen={generation}|{stage}|{params}"`:
//!
//! - `super_tree|measure={m}`: the unsimplified super tree (Algorithm 2),
//!   an `Arc<SuperScalarTree>`, built once in a throwaway session that
//!   computes the measure's scalar field and drops it with the session.
//!   Scenes and render trees start from it, so the scalar field, the scalar
//!   tree and the super tree are computed once per (generation, measure),
//!   and `/stats` `stage_seconds.scalar`, `stage_seconds.tree` and
//!   `stage_seconds.super_tree` count each such build once.
//! - `render_tree|measure={m}|budget={b}|levels={l}`: the super tree snapped
//!   and capped at the budget, an `Arc<SuperScalarTree>` (within budget, the
//!   super tree itself). Terrains and peaks lay out and render from it, so a
//!   terrain miss that changes only the width, height, color or exporter
//!   runs layout, mesh and export, and one at a new `budget` or `levels`
//!   adds one snap-and-cap pass, not the tree chain.
//! - `scene|measure={m}`: the tile scene, an `Arc<Scene>`: one LOD pass
//!   over the retained super tree; every later tile of that graph and
//!   measure is just a tile write.
//!
//! `threads` is in no key: every measure is thread-count invariant.
//!
//! Fetch or build: artifacts and retained values go through one helper,
//! `fetch_or_build`. It looks the key up in its LRU; on a miss, concurrent
//! requests for one key build once ([`crate::flight`]) and waiters answer
//! with the builder's value; the value is published only while its graph is
//! still the one registered under its id. A scene or render-tree build
//! fetches its super tree through the same flight table, under another key.
//!
//! Deltas: the body is an edge batch in any [`GraphFormat`] (same `format`
//! parameter as uploads) and `op` (`insert` | `delete` | `reweight`,
//! default `insert`) is applied to every edge in it through
//! [`ugraph::delta::apply`], which alone decides whether the graph changed.
//! A structural delta registers the compacted graph under the same id and
//! evicts the id's cached artifacts and retained state — their ETags
//! change because the bytes do. A no-op batch (all redundant)
//! leaves the graph, the cache, and every ETag untouched. `DELETE
//! /graphs/{id}` likewise evicts everything held for the id, so a later
//! upload under the same id cannot alias stale bytes.
//!
//! Render parameters: `measure` (kcore | degree | pagerank | closeness |
//! betweenness | ktruss | edge-triangles), `samples` (betweenness, in
//! `[1, 4096]`) and `seed`, `format` (exporter backend), `width`/`height`
//! (SVG px, in `(0, 16384]`), `color` (height | degree), `budget` (a node
//! count in `[1, MAX_RENDER_NODES]`, a hard cap on the rendered tree, or
//! `none`, served as [`MAX_RENDER_NODES`]), `levels` (at least 1), `alpha`
//! (peaks, a finite number), `threads` (`serial`, `auto` or a thread count
//! in [1, 64] — deliberately *excluded* from the cache key: at the
//! server's fixed chunk width the pipeline's determinism contract makes
//! artifacts byte-identical at every thread count, so a serial render and
//! a threaded render share one cache entry; `NxW` widths are rejected
//! because a width does change the bytes).
//!
//! A v3 binary snapshot upload (`GTSB` magic) registers as a *mapped*
//! graph — the CSR arrays are served zero-copy out of the uploaded buffer,
//! shared by every concurrent session. Anything else goes through
//! [`GraphSource`] with the `format` parameter (default `edgelist`).
//!
//! A handler that panics answers a typed `500 internal_error`; the worker
//! that ran it keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::cache::{etag_for_key, CachedArtifact, LruCache, Weighted};
use crate::error::{json_f64, json_string, ApiError};
use crate::flight::{SingleFlight, Source};
use crate::http::{Method, Request, Response};
use crate::state::{AppState, GraphEntry, Retained, RetainedKind, RetainedStats};
use graph_terrain::scalarfield::SuperScalarTree;
use graph_terrain::{
    FieldKind, LodConfig, Measure, Scene, SharedGraph, SimplificationConfig, SvgSize,
    TerrainPipeline, TileKey,
};
use measures::Parallelism;
use terrain::{exporter_by_name_sized, highest_peaks, peaks_at_alpha, ColorScheme, Exporter, Peak};
use ugraph::delta::{self, DeltaApplyStats, DeltaOp, GraphDelta};
use ugraph::io::{GraphFormat, GraphSource, BINARY_MAGIC, BINARY_V3_VERSION};

/// Most peak member ids echoed inline per peak (the full count is always
/// reported; huge member lists would dwarf the artifact itself).
const MAX_PEAK_MEMBERS: usize = 64;

/// Most worker threads one request may ask for with `threads`.
const MAX_THREADS: usize = 64;

/// Largest SVG `width` or `height` one request may ask for, in px.
const MAX_SVG_PX: f64 = 16_384.0;

/// Most betweenness source samples one request may ask for.
const MAX_SAMPLES: usize = 4_096;

/// Largest render tree one request may ask for, in nodes: a numeric
/// `budget` above it is a 400 and `budget=none` is served as this cap. It
/// lies above every super tree of the 1M R-MAT rung (131 072 vertices, so at
/// most that many nodes for a vertex measure; PageRank's has 120 191), which
/// therefore renders unsimplified under `none`, and above a 60 000-vertex
/// graph's. On the 10M rung, where `none` used to render PageRank's 476k
/// nodes, it bounds the render and every retained render tree.
pub const MAX_RENDER_NODES: usize = 150_000;

/// Dispatch a parsed request; never panics, never leaks a raw error. A
/// panicking handler is caught here and answered with a typed 500, so it
/// cannot unwind into (and end) the worker thread that called this.
pub fn handle(state: &AppState, req: &Request) -> Response {
    // Unwind safety: every lock a handler takes is held only around a
    // lookup or an insert, never across a render or build, and a
    // single-flight slot poisoned by a panicking build is taken over, not
    // propagated (`crate::flight`).
    match catch_unwind(AssertUnwindSafe(|| route(state, req))) {
        Ok(Ok(response)) => response,
        Ok(Err(e)) => e.into_response(),
        Err(_) => {
            ApiError::new(500, "internal_error", "the request handler panicked").into_response()
        }
    }
}

fn route(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method, segments.as_slice()) {
        (Method::Post, ["graphs"]) => upload_graph(state, req),
        (Method::Get, ["graphs"]) => Ok(list_graphs(state)),
        (Method::Get, ["graphs", id]) => graph_info(state, id),
        (Method::Post, ["graphs", id, "deltas"]) => post_delta(state, req, id),
        (Method::Delete, ["graphs", id]) => delete_graph(state, id),
        (Method::Get, ["graphs", id, "terrain"]) => terrain(state, req, id),
        (Method::Get, ["graphs", id, "peaks"]) => peaks(state, req, id),
        (Method::Get, ["graphs", id, "tiles", zoom, tx, ty]) => tile(state, req, id, zoom, tx, ty),
        (Method::Get, ["graphs", id, "scene"]) => scene_document(state, req, id),
        (Method::Get, ["stats"]) => Ok(stats(state)),
        (Method::Get, ["healthz"]) => Ok(Response::with_body(200, "text/plain", b"ok\n".to_vec())),
        #[cfg(test)]
        (Method::Get, ["panic"]) => panic!("a handler panicked"),
        _ => Err(ApiError::not_found(format!("no route for {} {}", req.method, req.path))),
    }
}

// ---------------------------------------------------------------- registry

fn upload_graph(state: &AppState, req: &Request) -> Result<Response, ApiError> {
    if req.body.is_empty() {
        return Err(ApiError::new(400, "empty_body", "graph upload requires a non-empty body"));
    }
    let graph = if is_v3_snapshot(&req.body) {
        SharedGraph::from_snapshot_bytes(&req.body)
            .map_err(|e| ApiError::new(400, "invalid_graph", e.to_string()))?
    } else {
        let parsed = GraphSource::reader(&req.body[..])
            .with_format(graph_format_param(req)?)
            .load()
            .map_err(|e| ApiError::new(400, "invalid_graph", e.to_string()))?;
        SharedGraph::new(parsed.graph)
    };
    let entry = state.insert_graph(req.query_param("id").map(str::to_string), graph)?;
    Ok(Response::json(201, graph_json(&entry)).header("Location", &format!("/graphs/{}", entry.id)))
}

/// The v3 snapshot magic + version sniff (`GTSB` then a little-endian 3).
fn is_v3_snapshot(body: &[u8]) -> bool {
    body.len() >= 8 && body[..4] == *BINARY_MAGIC && body[4..8] == BINARY_V3_VERSION.to_le_bytes()
}

/// The `format` query parameter (default `edgelist`), shared by uploads
/// and delta batches.
fn graph_format_param(req: &Request) -> Result<GraphFormat, ApiError> {
    match req.query_param("format") {
        Some(name) => GraphFormat::from_name(name).ok_or_else(|| {
            ApiError::invalid_parameter(
                "format",
                format!(
                    "unknown graph format {name:?}; expected one of: {}",
                    GraphFormat::all().iter().map(|f| f.name()).collect::<Vec<_>>().join(", ")
                ),
            )
        }),
        None => Ok(GraphFormat::EdgeList),
    }
}

/// `POST /graphs/{id}/deltas`: parse the body as an edge batch, apply it
/// to the registered graph (which stays untouched: other requests keep
/// rendering it), and re-register the compacted graph under the same id.
/// Structural deltas evict the id's cached artifacts; no-op batches change
/// nothing (and evict nothing — the cached bytes are still exact).
fn post_delta(state: &AppState, req: &Request, id: &str) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    if req.body.is_empty() {
        return Err(ApiError::new(400, "empty_body", "a delta batch requires a non-empty body"));
    }
    let op = match req.query_param("op") {
        Some(name) => DeltaOp::from_name(name).ok_or_else(|| {
            ApiError::invalid_parameter(
                "op",
                format!("unknown delta op {name:?}; expected insert, delete or reweight"),
            )
        })?,
        None => DeltaOp::Insert,
    };
    let parsed = GraphSource::reader(&req.body[..])
        .with_format(graph_format_param(req)?)
        .load()
        .map_err(|e| ApiError::new(400, "invalid_delta", e.to_string()))?;
    let delta = GraphDelta::from_graph(op, &parsed.graph);

    let (stats, compacted) = delta::apply(entry.graph.storage(), &delta);
    let Some(graph) = compacted else {
        return Ok(Response::json(200, delta_json(&entry, &stats, false, 0)));
    };
    let entry = state.replace_graph(id, SharedGraph::new(graph)).ok_or_else(|| {
        // The graph vanished between lookup and replace (a concurrent
        // DELETE won the race); the mutation has nowhere to land.
        ApiError::not_found(format!("graph {id:?} was deleted while the delta was applied"))
    })?;
    let evicted = state.evict_graph(id);
    Ok(Response::json(200, delta_json(&entry, &stats, true, evicted)))
}

/// The delta response: the apply statistics and the resulting graph facts.
/// A structural delta evicts every retained value of the id, so the next
/// render of any measure recomputes it from scratch. The body is parsed as
/// a graph before it becomes a batch, and the parser already drops self
/// loops and repeated edges, so the stats' `dropped_self_loops` and
/// `superseded` are always 0 here and are not sent.
fn delta_json(
    entry: &GraphEntry,
    stats: &DeltaApplyStats,
    structural: bool,
    evicted: usize,
) -> String {
    format!(
        concat!(
            "{{\"graph\":{},\"structural\":{structural},\"evicted_artifacts\":{evicted},",
            "\"inserted\":{},\"deleted\":{},\"redundant_inserts\":{},",
            "\"absent_deletes\":{},\"reweights\":{}}}"
        ),
        graph_json(entry),
        stats.inserted,
        stats.deleted,
        stats.redundant_inserts,
        stats.absent_deletes,
        stats.reweights,
        structural = structural,
        evicted = evicted,
    )
}

/// `DELETE /graphs/{id}`: unregister the graph and evict its cached
/// artifacts. 404 when the id is unknown.
fn delete_graph(state: &AppState, id: &str) -> Result<Response, ApiError> {
    let entry = state
        .remove_graph(id)
        .ok_or_else(|| ApiError::not_found(format!("no graph with id {id:?}")))?;
    let evicted = state.evict_graph(id);
    Ok(Response::json(
        200,
        format!("{{\"deleted\":{},\"evicted_artifacts\":{evicted}}}", json_string(&entry.id)),
    ))
}

fn list_graphs(state: &AppState) -> Response {
    let entries: Vec<String> = state.graphs().iter().map(|e| graph_json(e)).collect();
    Response::json(200, format!("{{\"graphs\":[{}]}}", entries.join(",")))
}

fn graph_info(state: &AppState, id: &str) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    Ok(Response::json(200, graph_json(&entry)))
}

fn graph_json(entry: &GraphEntry) -> String {
    let storage = entry.graph.storage();
    format!(
        "{{\"id\":{},\"vertices\":{},\"edges\":{},\"storage\":{},\"zero_copy\":{},\"generation\":{}}}",
        json_string(&entry.id),
        storage.vertex_count(),
        storage.edge_count(),
        json_string(entry.graph.backend_name()),
        entry.graph.is_memory_mapped(),
        entry.generation,
    )
}

fn lookup(state: &AppState, id: &str) -> Result<Arc<GraphEntry>, ApiError> {
    state.graph(id).ok_or_else(|| ApiError::not_found(format!("no graph with id {id:?}")))
}

// ---------------------------------------------------------------- rendering

/// Which non-height color scheme was requested.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ColorChoice {
    Height,
    Degree,
}

/// Parsed, validated render parameters for one terrain request.
struct RenderParams {
    measure: Measure,
    parallelism: Parallelism,
    simplification: SimplificationConfig,
    svg_size: SvgSize,
    color: ColorChoice,
    exporter: Box<dyn Exporter>,
    exporter_name: String,
}

fn parse_render_params(req: &Request) -> Result<RenderParams, ApiError> {
    let measure = parse_measure(req)?;
    let parallelism = parse_parallelism(req)?;
    let levels = match req.query_param("levels") {
        None => SimplificationConfig::default().levels,
        Some(raw) => numeric_param("levels", raw)?,
    };
    if levels == 0 {
        // Checked here, before any scalar field or tree is built for a
        // request the simplification stage would refuse anyway.
        return Err(ApiError::invalid_parameter("levels", "levels must be at least 1"));
    }
    let node_budget = match req.query_param("budget") {
        None => SimplificationConfig::default().node_budget.expect("the default is capped"),
        Some("none") => MAX_RENDER_NODES,
        Some(raw) => numeric_param("budget", raw)?,
    };
    if !(1..=MAX_RENDER_NODES).contains(&node_budget) {
        // A non-empty render tree cannot fit in zero nodes; the cap bounds
        // every render and every retained render tree.
        return Err(ApiError::invalid_parameter(
            "budget",
            format!("budget must lie in [1, {MAX_RENDER_NODES}] or be none, got {node_budget}"),
        ));
    }
    let simplification = SimplificationConfig { node_budget: Some(node_budget), levels };
    let svg_size = SvgSize {
        width_px: svg_px_param(req, "width", SvgSize::default().width_px)?,
        height_px: svg_px_param(req, "height", SvgSize::default().height_px)?,
    };
    let color = match req.query_param("color") {
        None | Some("height") => ColorChoice::Height,
        Some("degree") => ColorChoice::Degree,
        Some(other) => {
            return Err(ApiError::invalid_parameter(
                "color",
                format!("unknown color scheme {other:?}; expected `height` or `degree`"),
            ))
        }
    };
    if color == ColorChoice::Degree && measure.field_kind() != FieldKind::Vertex {
        return Err(ApiError::invalid_parameter(
            "color",
            format!("color=degree needs a vertex measure; {} is an edge measure", measure.name()),
        ));
    }
    let exporter_name = req.query_param("format").unwrap_or("svg").to_string();
    // The sized lookup, not `exporter_by_name`: the pipeline's
    // `set_svg_size` does not reach an externally constructed exporter.
    let exporter = exporter_by_name_sized(&exporter_name, svg_size.width_px, svg_size.height_px)?;
    Ok(RenderParams {
        measure,
        parallelism,
        simplification,
        svg_size,
        color,
        exporter,
        exporter_name,
    })
}

fn parse_measure(req: &Request) -> Result<Measure, ApiError> {
    let name = req.query_param("measure").unwrap_or("kcore");
    let mut measure = Measure::from_name(name).ok_or_else(|| {
        ApiError::invalid_parameter(
            "measure",
            format!(
                "unknown measure {name:?}; expected one of: {}",
                Measure::known_names().join(", ")
            ),
        )
    })?;
    if let Measure::BetweennessSampled { samples, seed } = &mut measure {
        if let Some(raw) = req.query_param("samples") {
            *samples = numeric_param("samples", raw)?;
            if !(1..=MAX_SAMPLES).contains(samples) {
                return Err(ApiError::invalid_parameter(
                    "samples",
                    format!("samples must lie in [1, {MAX_SAMPLES}], got {samples}"),
                ));
            }
        }
        if let Some(raw) = req.query_param("seed") {
            *seed = numeric_param("seed", raw)?;
        }
    }
    Ok(measure)
}

/// The `threads` query parameter (shared by every render route): `serial`,
/// `auto` (capped at [`MAX_THREADS`]) or a thread count in
/// `[1, MAX_THREADS]`. The chunk width stays the default: it changes the
/// low bits of floating-point scalars, and no cache or scene key carries
/// it, so an `NxW` form would let one key serve different bytes depending
/// on which request built it.
fn parse_parallelism(req: &Request) -> Result<Parallelism, ApiError> {
    let Some(raw) = req.query_param("threads") else {
        return Ok(Parallelism::Serial);
    };
    match Parallelism::parse(raw)? {
        Parallelism::Threads(n) if raw == "auto" => Ok(Parallelism::Threads(n.min(MAX_THREADS))),
        Parallelism::Threads(n) if n <= MAX_THREADS => Ok(Parallelism::Threads(n)),
        // `parse` reads both `0` and `1` as serial; only `1` is a count.
        Parallelism::Serial if raw != "0" => Ok(Parallelism::Serial),
        _ => Err(ApiError::invalid_parameter(
            "threads",
            format!(
                "threads value {raw:?} is not accepted: expected `serial`, `auto` or a thread \
                 count in [1, {MAX_THREADS}] (the server fixes the chunk width)"
            ),
        )),
    }
}

/// An SVG `width` or `height` in px (`default` when absent): finite,
/// positive and at most [`MAX_SVG_PX`].
fn svg_px_param(req: &Request, name: &'static str, default: f64) -> Result<f64, ApiError> {
    let Some(raw) = req.query_param(name) else {
        return Ok(default);
    };
    let px: f64 = numeric_param(name, raw)?;
    if px > 0.0 && px <= MAX_SVG_PX {
        Ok(px)
    } else {
        Err(ApiError::invalid_parameter(
            name,
            format!("{name} must lie in (0, {MAX_SVG_PX}] px, got {raw:?}"),
        ))
    }
}

fn numeric_param<T: std::str::FromStr>(name: &'static str, raw: &str) -> Result<T, ApiError> {
    raw.parse().map_err(|_| {
        ApiError::invalid_parameter(name, format!("{name} value {raw:?} is not a valid number"))
    })
}

/// The canonical cache key. Everything that can change the artifact bytes
/// is in here — and nothing else. `threads` is deliberately absent
/// (determinism makes it byte-invisible); the layout and mesh configs are
/// server-fixed defaults, pinned by a literal so a future knob can't
/// silently alias old entries. The entry's delta generation is in the key
/// (and therefore in the key-derived ETag): a mutated graph must invalidate
/// conditional requests, not answer them with `304` for vanished bytes.
fn render_cache_key(entry: &GraphEntry, p: &RenderParams) -> String {
    format!(
        "{graph_id}|terrain|gen={generation}|measure={}|{}|layout=default|mesh=default|color={}|svg={}x{}|exporter={}",
        measure_canonical(&p.measure),
        simplification_key(p.simplification),
        match p.color {
            ColorChoice::Height => "height",
            ColorChoice::Degree => "degree",
        },
        p.svg_size.width_px,
        p.svg_size.height_px,
        p.exporter_name,
        graph_id = entry.id,
        generation = entry.generation,
    )
}

/// The render tree's part of a key: `budget={b}|levels={l}` (a served
/// budget is always a number: `none` is parsed as [`MAX_RENDER_NODES`]).
fn simplification_key(simplification: SimplificationConfig) -> String {
    let budget = simplification.node_budget.expect("served render trees are capped");
    format!("budget={budget}|levels={}", simplification.levels)
}

fn measure_canonical(measure: &Measure) -> String {
    match measure {
        Measure::BetweennessSampled { samples, seed } => {
            format!("betweenness:samples={samples}:seed={seed}")
        }
        other => other.name().to_string(),
    }
}

fn content_type_for(exporter_name: &str) -> &'static str {
    match exporter_name {
        "svg" | "treemap" | "tiled" => "image/svg+xml",
        "json" => "application/json",
        "scene" => "application/octet-stream", // binary GTSC
        _ => "text/plain",                     // obj, ply, ascii
    }
}

fn terrain(state: &AppState, req: &Request, id: &str) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    let params = parse_render_params(req)?;
    let key = render_cache_key(&entry, &params);
    serve_cached(state, req, &entry, &key, || {
        let (measure, simplification) = (params.measure.clone(), params.simplification);
        with_session(state, &entry, measure, simplification, params.parallelism, |session, _| {
            if params.color == ColorChoice::Degree {
                let degrees: Vec<f64> = measures::degrees(entry.graph.storage())
                    .into_iter()
                    .map(|d| d as f64)
                    .collect();
                session.set_color(ColorScheme::BySecondaryScalar(degrees));
            }
            let mut bytes = Vec::new();
            // The timing-free render: cached artifacts must depend on nothing
            // but the key. Wall-clock timings still land in `/stats`.
            session.render_deterministic_to(params.exporter.as_ref(), &mut bytes)?;
            Ok((bytes, content_type_for(&params.exporter_name)))
        })
    })
}

fn peaks(state: &AppState, req: &Request, id: &str) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    let measure = parse_measure(req)?;
    let parallelism = parse_parallelism(req)?;
    let alpha: Option<f64> = match req.query_param("alpha") {
        Some(raw) => {
            let alpha: f64 = numeric_param("alpha", raw)?;
            if !alpha.is_finite() {
                // `NaN` and `inf` parse as numbers, but a non-finite cut
                // height makes every root a peak and echoes as `null`.
                return Err(ApiError::invalid_parameter(
                    "alpha",
                    format!("alpha must be a finite number, got {raw:?}"),
                ));
            }
            Some(alpha)
        }
        None => None,
    };
    let count: usize = match req.query_param("count") {
        Some(raw) => numeric_param("count", raw)?,
        None => 5,
    };
    let measure_name = measure_canonical(&measure);
    let key = format!(
        "{id}|peaks|gen={}|measure={measure_name}|{}",
        entry.generation,
        match alpha {
            Some(a) => format!("alpha={a}"),
            None => format!("count={count}"),
        }
    );
    let simplification = SimplificationConfig::default();
    serve_cached(state, req, &entry, &key, || {
        with_session(state, &entry, measure, simplification, parallelism, |session, tree| {
            let layout = session.layout()?;
            let peaks = match alpha {
                Some(a) => peaks_at_alpha(tree, layout, a),
                None => highest_peaks(tree, layout, count),
            };
            let body = peaks_json(id, &measure_name, alpha, &peaks);
            Ok((body.into_bytes(), "application/json"))
        })
    })
}

// ------------------------------------------------------------------- tiles

/// `GET /graphs/{id}/tiles/{zoom}/{tx}/{ty}`: one pan/zoom tile over the
/// server-fixed default layout and LOD configurations. `format=svg`
/// (default) renders a `size`-pixel square SVG; `format=scene` streams the
/// tile's items as a binary `GTSC` document. Out-of-grid keys are 404s —
/// decided from the fixed configuration, before any render.
fn tile(
    state: &AppState,
    req: &Request,
    id: &str,
    zoom: &str,
    tx: &str,
    ty: &str,
) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    let key = TileKey {
        zoom: numeric_param("zoom", zoom)?,
        tx: numeric_param("tx", tx)?,
        ty: numeric_param("ty", ty)?,
    };
    let max_zoom = LodConfig::default().max_lod;
    if !key.in_range(max_zoom) {
        return Err(ApiError::not_found(format!(
            "tile {key} is outside the grid: zoom must be at most {max_zoom} \
             and tx/ty below 2^zoom"
        )));
    }
    let measure = parse_measure(req)?;
    let parallelism = parse_parallelism(req)?;
    let format = req.query_param("format").unwrap_or("svg");
    let as_svg = match format {
        "svg" => true,
        "scene" => false,
        other => {
            return Err(ApiError::invalid_parameter(
                "format",
                format!("unknown tile format {other:?}; expected `svg` or `scene`"),
            ))
        }
    };
    let size: u32 = match req.query_param("size") {
        Some(raw) => numeric_param("size", raw)?,
        None => 256,
    };
    if size == 0 || size > 2048 {
        return Err(ApiError::invalid_parameter(
            "size",
            format!("tile size must lie in [1, 2048], got {size}"),
        ));
    }
    // Everything that can change the tile bytes, nothing else: generation
    // (deltas), measure, the key, the format, the pixel size. `budget`,
    // `levels` and `threads` are deliberately absent — tiles render the
    // unsimplified tree and are thread-count invariant.
    let cache_key = format!(
        "{id}|tile|gen={}|measure={}|layout=default|lod=default|zoom={}|tx={}|ty={}|exporter={format}|size={size}",
        entry.generation,
        measure_canonical(&measure),
        key.zoom,
        key.tx,
        key.ty,
    );
    let content_type = if as_svg { "image/svg+xml" } else { "application/octet-stream" };
    serve_cached(state, req, &entry, &cache_key, || {
        let scene = retained_scene(state, &entry, measure, parallelism)?;
        let mut bytes = Vec::new();
        if as_svg {
            scene.write_tile_svg(&key, size, &mut bytes)?;
        } else {
            scene.write_tile_gtsc(&key, &mut bytes)?;
        }
        Ok((bytes, content_type))
    })
}

/// `GET /graphs/{id}/scene`: the whole retained scene as one binary `GTSC`
/// document — every visible item with its rectangle, height, cushion
/// surface and minimum visible LOD, for client-side pan/zoom renderers
/// that then fetch (or draw) tiles locally.
fn scene_document(state: &AppState, req: &Request, id: &str) -> Result<Response, ApiError> {
    let entry = lookup(state, id)?;
    let measure = parse_measure(req)?;
    let parallelism = parse_parallelism(req)?;
    let cache_key = format!(
        "{id}|scene|gen={}|measure={}|layout=default|lod=default",
        entry.generation,
        measure_canonical(&measure),
    );
    serve_cached(state, req, &entry, &cache_key, || {
        let mut bytes = Vec::new();
        retained_scene(state, &entry, measure, parallelism)?.write_scene_gtsc(&mut bytes)?;
        Ok((bytes, "application/octet-stream"))
    })
}

/// The retained value of `kind` for `entry` under `params`: a resident one
/// when there is one, else built once however many requests race its key
/// `"{id}|gen={generation}|{stage}|{params}"`. Counted per kind for
/// `/stats`.
fn retained(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    kind: RetainedKind,
    params: &str,
    build: impl FnOnce() -> Result<Retained, ApiError>,
) -> Result<Retained, ApiError> {
    let key = format!("{}|gen={}|{}|{params}", entry.id, entry.generation, kind.stage());
    let (value, source) =
        fetch_or_build(state, entry, &state.retained, &state.retained_flights, &key, || {
            build().map(Arc::new)
        })?;
    debug_assert_eq!(value.kind(), kind, "{key}");
    state.record_retained(kind, source, &value);
    Ok(Retained::clone(&value))
}

/// The retained scene of `entry` under `measure`. The build runs the LOD
/// pass in a throwaway session over the retained super tree that hands its
/// scene over and is dropped before this returns. The build's stage seconds
/// reach `/stats` once, here, not once per tile.
fn retained_scene(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    measure: Measure,
    parallelism: Parallelism,
) -> Result<Arc<Scene>, ApiError> {
    let params = format!("measure={}", measure_canonical(&measure));
    let value = retained(state, entry, RetainedKind::Scene, &params, || {
        let tree = retained_super_tree(state, entry, &measure, parallelism)?;
        let mut session =
            TerrainPipeline::from_shared_super_tree(entry.graph.clone(), measure, tree)?;
        session.scene()?;
        let timings = session.timings();
        let scene = session.into_scene()?;
        state.stage_totals.lock().expect("stage totals lock").absorb(&timings);
        Ok(Retained::Scene(Arc::new(scene)))
    })?;
    let Retained::Scene(scene) = value else { unreachable!("a scene key holds a scene") };
    Ok(scene)
}

/// The retained render tree of `entry` under `measure` and
/// `simplification`. The build snaps and caps in a throwaway session over
/// the retained super tree; only the render tree it hands out is kept. Its
/// stage seconds reach `/stats` once, here, not once per artifact rendered
/// from it.
fn retained_render_tree(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    measure: &Measure,
    simplification: SimplificationConfig,
    parallelism: Parallelism,
) -> Result<Arc<SuperScalarTree>, ApiError> {
    let params =
        format!("measure={}|{}", measure_canonical(measure), simplification_key(simplification));
    let value = retained(state, entry, RetainedKind::RenderTree, &params, || {
        let tree = retained_super_tree(state, entry, measure, parallelism)?;
        let mut session =
            TerrainPipeline::from_shared_super_tree(entry.graph.clone(), measure.clone(), tree)?;
        session.set_simplification(simplification);
        let tree = session.shared_render_tree()?;
        state.stage_totals.lock().expect("stage totals lock").absorb(&session.timings());
        Ok(Retained::RenderTree(tree))
    })?;
    let Retained::RenderTree(tree) = value else {
        unreachable!("a render-tree key holds a render tree")
    };
    Ok(tree)
}

/// The retained super tree of `entry` under `measure`, which scenes and
/// render trees start from. The build computes the scalar field at
/// `parallelism` and runs Algorithms 1 and 2 in a throwaway session; only
/// the super tree it hands out is kept (it is the same at every thread
/// count, so the first request's budget serves them all). Its stage
/// seconds — scalar, tree, super tree — reach `/stats` once per
/// (generation, measure), here.
fn retained_super_tree(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    measure: &Measure,
    parallelism: Parallelism,
) -> Result<Arc<SuperScalarTree>, ApiError> {
    let params = format!("measure={}", measure_canonical(measure));
    let value = retained(state, entry, RetainedKind::SuperTree, &params, || {
        let mut session = TerrainPipeline::from_shared(entry.graph.clone(), measure.clone());
        session.set_parallelism(parallelism);
        let tree = session.shared_super_tree()?;
        state.stage_totals.lock().expect("stage totals lock").absorb(&session.timings());
        Ok(Retained::SuperTree(tree))
    })?;
    let Retained::SuperTree(tree) = value else {
        unreachable!("a super-tree key holds a super tree")
    };
    Ok(tree)
}

fn peaks_json(graph_id: &str, measure: &str, alpha: Option<f64>, peaks: &[Peak]) -> String {
    let mut body =
        format!("{{\"graph\":{},\"measure\":{},", json_string(graph_id), json_string(measure));
    if let Some(a) = alpha {
        body.push_str(&format!("\"alpha\":{},", json_f64(a)));
    }
    body.push_str(&format!("\"count\":{},\"peaks\":[", peaks.len()));
    for (i, peak) in peaks.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let members: Vec<String> =
            peak.members.iter().take(MAX_PEAK_MEMBERS).map(|m| m.to_string()).collect();
        body.push_str(&format!(
            "{{\"root_node\":{},\"alpha\":{},\"base_height\":{},\"summit_height\":{},\"member_count\":{},\"members\":[{}],\"members_truncated\":{},\"footprint\":{{\"x0\":{},\"y0\":{},\"x1\":{},\"y1\":{}}}}}",
            peak.root_node,
            json_f64(peak.alpha),
            json_f64(peak.base_height),
            json_f64(peak.summit_height),
            peak.member_count,
            members.join(","),
            peak.members.len() > MAX_PEAK_MEMBERS,
            json_f64(peak.footprint.x0),
            json_f64(peak.footprint.y0),
            json_f64(peak.footprint.x1),
            json_f64(peak.footprint.y1),
        ));
    }
    body.push_str("]}");
    body
}

/// The shared cache protocol for deterministic artifacts:
/// 1. the ETag comes from the key hash, so `If-None-Match` answers with a
///    `304` before rendering or even locking the cache;
/// 2. a cache hit returns the stored bytes with `X-Cache: hit`;
/// 3. a miss renders *outside* the cache lock, stores, and returns
///    `X-Cache: miss` — the bytes are identical either way. Concurrent
///    misses on one key render once: the others wait for that render and
///    answer with its artifact (also `X-Cache: miss`, one cache lookup
///    each, so `hits + misses` still counts requests).
///
/// Every response shares the artifact's one body buffer with the cache.
fn serve_cached(
    state: &AppState,
    req: &Request,
    entry: &Arc<GraphEntry>,
    key: &str,
    render: impl FnOnce() -> Result<(Vec<u8>, &'static str), ApiError>,
) -> Result<Response, ApiError> {
    let etag = etag_for_key(key);
    if let Some(candidates) = req.header("if-none-match") {
        if candidates == "*" || candidates.split(',').any(|c| c.trim() == etag) {
            state.not_modified.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(Response::new(304).header("ETag", &etag));
        }
    }
    let (artifact, source) =
        fetch_or_build(state, entry, &state.cache, &state.artifact_flights, key, || {
            let (bytes, content_type) = render()?;
            Ok(Arc::new(CachedArtifact { bytes: Arc::new(bytes), etag, content_type }))
        })?;
    if source == Source::Built {
        state.stage_totals.lock().expect("stage totals lock").renders += 1;
    }
    Ok(artifact_response(&artifact, if source == Source::Found { "hit" } else { "miss" }))
}

/// The one fetch-or-build protocol behind every cached value — rendered
/// artifacts and the retained store alike: look `key` up in
/// `store`; on a miss, `build` once however many requests race the key
/// (`flights`), and publish the value to `store` only while `entry` is
/// still the graph registered under its id. The check runs with the store's lock held: a delta or
/// `DELETE` replaces the entry before it evicts, so a build that finishes
/// after the eviction stores nothing for the graph that is gone.
fn fetch_or_build<V: Weighted>(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    store: &Mutex<LruCache<V>>,
    flights: &SingleFlight<Arc<V>>,
    key: &str,
    build: impl FnOnce() -> Result<Arc<V>, ApiError>,
) -> Result<(Arc<V>, Source), ApiError> {
    flights.run(
        key,
        || store.lock().expect("store lock").get(key),
        build,
        |value| {
            let mut store = store.lock().expect("store lock");
            if state.graph(&entry.id).is_some_and(|current| Arc::ptr_eq(&current, entry)) {
                store.insert(key.to_string(), Arc::clone(value));
            }
        },
    )
}

/// The render side of a terrain or peaks miss: run `render` over a fresh
/// session that starts from the retained render tree (also handed to
/// `render`), then fold the session's stage timings — layout, mesh, export
/// — into `/stats` (only for renders that succeed; the tree chain's seconds
/// were counted when the super tree and the render tree were built).
fn with_session<T>(
    state: &AppState,
    entry: &Arc<GraphEntry>,
    measure: Measure,
    simplification: SimplificationConfig,
    parallelism: Parallelism,
    render: impl FnOnce(&mut TerrainPipeline<'static>, &SuperScalarTree) -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    let tree = retained_render_tree(state, entry, &measure, simplification, parallelism)?;
    let mut session = TerrainPipeline::from_shared_render_tree(
        entry.graph.clone(),
        measure,
        simplification,
        Arc::clone(&tree),
    )?;
    let rendered = render(&mut session, &tree)?;
    state.stage_totals.lock().expect("stage totals lock").absorb(&session.timings());
    Ok(rendered)
}

fn artifact_response(artifact: &CachedArtifact, x_cache: &str) -> Response {
    Response::with_body(200, artifact.content_type, Arc::clone(&artifact.bytes))
        .header("ETag", &artifact.etag)
        .header("X-Cache", x_cache)
}

// ------------------------------------------------------------------- stats

fn stats(state: &AppState) -> Response {
    let cache = state.cache.lock().expect("cache lock").stats();
    let retained = state.retained.lock().expect("retained lock").stats();
    let scenes = state.retained_stats(RetainedKind::Scene);
    let super_trees = state.retained_stats(RetainedKind::SuperTree);
    let render_trees = state.retained_stats(RetainedKind::RenderTree);
    let waits = state.artifact_flights.waits() + state.retained_flights.waits();
    let totals = state.stage_totals.lock().expect("stage totals lock").clone();
    let load = std::sync::atomic::Ordering::Relaxed;
    let body = format!(
        concat!(
            "{{\"requests_served\":{},\"in_flight\":{},\"error_responses\":{},",
            "\"dropped_connections\":{},\"not_modified\":{},",
            "\"graphs\":{},\"workers\":{},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{},\"evictions\":{},",
            "\"insertions\":{},\"uncacheable\":{},\"entries\":{},\"bytes\":{},",
            "\"capacity\":{},\"max_bytes\":{}}},",
            "\"retained\":{{\"entries\":{},\"bytes\":{},\"max_bytes\":{}}},",
            "\"super_trees\":{},\"render_trees\":{},\"scenes\":{},",
            "\"single_flight_waits\":{},",
            "\"stage_seconds\":{{\"renders\":{},\"scalar\":{},\"tree\":{},\"super_tree\":{},",
            "\"simplify\":{},\"layout\":{},\"mesh\":{},\"svg\":{},\"scene\":{}}}}}"
        ),
        state.requests_served.load(load),
        state.in_flight.load(load),
        state.error_responses.load(load),
        state.dropped_connections.load(load),
        state.not_modified.load(load),
        state.graphs().len(),
        state.config.workers,
        cache.hits,
        cache.misses,
        json_f64(cache.hit_rate()),
        cache.evictions,
        cache.insertions,
        cache.uncacheable,
        cache.entries,
        cache.bytes,
        cache.capacity,
        cache.max_bytes,
        retained.entries,
        retained.bytes,
        retained.max_bytes,
        retained_json(&super_trees, retained.max_bytes),
        retained_json(&render_trees, retained.max_bytes),
        retained_json(&scenes, retained.max_bytes),
        waits,
        totals.renders,
        json_f64(totals.scalar_seconds),
        json_f64(totals.tree_seconds),
        json_f64(totals.super_tree_seconds),
        json_f64(totals.simplify_seconds),
        json_f64(totals.layout_seconds),
        json_f64(totals.mesh_seconds),
        json_f64(totals.svg_seconds),
        json_f64(totals.scene_seconds),
    );
    Response::json(200, body)
}

/// One kind's view of the retained store; `max_bytes` is the store's.
fn retained_json(stats: &RetainedStats, max_bytes: usize) -> String {
    format!(
        "{{\"entries\":{},\"bytes\":{},\"max_bytes\":{max_bytes},\"builds\":{},\"hits\":{},\"uncacheable\":{}}}",
        stats.entries, stats.bytes, stats.builds, stats.hits, stats.uncacheable
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServerConfig;

    fn get(path: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_next_request_is_served() {
        let state = AppState::new(ServerConfig::default());
        let panicked = handle(&state, &get("/panic"));
        assert_eq!(panicked.status, 500);
        let body = String::from_utf8_lossy(&panicked.body);
        let doc: serde_json::Value = serde_json::from_str(&body).expect("JSON body");
        assert_eq!(doc.get("error").and_then(|e| e.get("code")?.as_str()), Some("internal_error"));
        let next = handle(&state, &get("/healthz"));
        assert_eq!((next.status, next.body.as_slice()), (200, &b"ok\n"[..]));
    }
}
