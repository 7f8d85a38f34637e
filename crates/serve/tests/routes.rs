//! In-process route tests: drive [`serve::routes::handle`] directly with
//! constructed [`Request`]s — no sockets — to pin the API contract: status
//! codes, the structured error bodies (including the typed
//! `Parallelism::parse` / `exporter_by_name` 400 mappings), the registry
//! protocol, and the cache headers.

use std::sync::Arc;

use graph_terrain::SharedGraph;
use serve::http::{Method, Request};
use serve::routes;
use serve::state::{AppState, ServerConfig};
use ugraph::GraphBuilder;

mod common;
use common::{get, ok, test_graph};

fn state_with_graph() -> Arc<AppState> {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    let mut builder = GraphBuilder::new();
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            builder.add_edge(u, v);
        }
    }
    builder.extend_edges([(4u32, 5u32), (5, 6)]);
    state.insert_graph(Some("g".into()), SharedGraph::new(builder.build())).unwrap();
    state
}

fn post(target: &str, body: Vec<u8>) -> Request {
    Request { method: Method::Post, body, ..get(target) }
}

fn delete(target: &str) -> Request {
    Request { method: Method::Delete, ..get(target) }
}

fn body_json(response: &serve::Response) -> serde_json::Value {
    serde_json::from_str(&String::from_utf8_lossy(&response.body))
        .expect("response body must be JSON")
}

#[test]
fn unknown_routes_and_graphs_are_structured_404s() {
    let state = state_with_graph();
    for target in ["/nope", "/graphs/missing/terrain", "/graphs/g/nope", "/graphs/missing"] {
        let response = routes::handle(&state, &get(target));
        assert_eq!(response.status, 404, "{target}");
        let doc = body_json(&response);
        assert_eq!(
            doc.get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
            Some("not_found"),
            "{target}"
        );
    }
}

#[test]
fn bad_threads_param_is_the_typed_parallelism_400() {
    let state = state_with_graph();
    let response = routes::handle(&state, &get("/graphs/g/terrain?threads=8x0"));
    assert_eq!(response.status, 400);
    let doc = body_json(&response);
    let error = doc.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(|c| c.as_str()), Some("invalid_parameter"));
    assert_eq!(error.get("param").and_then(|p| p.as_str()), Some("threads"));
    let message = error.get("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains("8x0"), "{message}");
    assert!(message.contains("nonzero width"), "{message}");
}

#[test]
fn threads_pins_the_chunk_width_and_bounds_the_count() {
    let state = state_with_graph();
    for raw in ["2x64", "1x128", "0", "65", "1000000"] {
        for route in ["terrain", "tiles/0/0/0", "scene", "peaks"] {
            let target = format!("/graphs/g/{route}?threads={raw}");
            let response = routes::handle(&state, &get(&target));
            assert_eq!(response.status, 400, "{target}");
            let doc = body_json(&response);
            let error = doc.get("error").expect("error object");
            assert_eq!(error.get("code").and_then(|c| c.as_str()), Some("invalid_parameter"));
            assert_eq!(error.get("param").and_then(|p| p.as_str()), Some("threads"));
            let message = error.get("message").and_then(|m| m.as_str()).unwrap();
            assert!(message.contains(raw) && message.contains("[1, 64]"), "{message}");
        }
    }
    for raw in ["serial", "auto", "1", "2", "64"] {
        let target = format!("/graphs/g/tiles/0/0/0?threads={raw}");
        assert_eq!(routes::handle(&state, &get(&target)).status, 200, "{target}");
    }
    // Rejected requests never reach the cache; accepted thread counts share
    // one tile key.
    let stats = state.cache.lock().unwrap().stats();
    assert_eq!((stats.misses, stats.hits), (1, 4));
}

#[test]
fn bad_format_param_is_the_typed_exporter_400() {
    let state = state_with_graph();
    let response = routes::handle(&state, &get("/graphs/g/terrain?format=gif"));
    assert_eq!(response.status, 400);
    let error = body_json(&response);
    let error = error.get("error").expect("error object");
    assert_eq!(error.get("param").and_then(|p| p.as_str()), Some("format"));
    let message = error.get("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains("gif"), "{message}");
    assert!(message.contains("treemap"), "should list backends: {message}");
}

#[test]
fn invalid_parameters_never_panic_and_name_the_param() {
    let state = state_with_graph();
    let cases = [
        ("/graphs/g/terrain?measure=bogus", "measure"),
        ("/graphs/g/terrain?width=fat", "width"),
        ("/graphs/g/terrain?levels=zero", "levels"),
        ("/graphs/g/terrain?budget=-3", "budget"),
        ("/graphs/g/terrain?color=plaid", "color"),
        ("/graphs/g/terrain?measure=edge-triangles&color=degree", "color"),
        ("/graphs/g/peaks?alpha=tall", "alpha"),
        // `NaN` and `inf` parse as floats but make no cut height.
        ("/graphs/g/peaks?alpha=NaN", "alpha"),
        ("/graphs/g/peaks?alpha=inf", "alpha"),
        ("/graphs/g/peaks?alpha=-inf", "alpha"),
        ("/graphs/g/peaks?count=-1", "count"),
        // Render knobs are bounded up front, not by the stage that uses them.
        ("/graphs/g/terrain?levels=0", "levels"),
        ("/graphs/g/terrain?measure=pagerank&levels=0", "levels"),
        ("/graphs/g/terrain?budget=0", "budget"),
        ("/graphs/g/terrain?measure=pagerank&budget=0", "budget"),
        ("/graphs/g/terrain?budget=150001", "budget"),
        ("/graphs/g/terrain?measure=pagerank&budget=99999999999", "budget"),
        ("/graphs/g/terrain?width=0", "width"),
        ("/graphs/g/terrain?width=-5", "width"),
        ("/graphs/g/terrain?width=16385", "width"),
        ("/graphs/g/terrain?width=NaN", "width"),
        ("/graphs/g/terrain?width=inf", "width"),
        ("/graphs/g/terrain?height=0", "height"),
        ("/graphs/g/terrain?height=1e9", "height"),
        ("/graphs/g/terrain?measure=betweenness&samples=0", "samples"),
        ("/graphs/g/terrain?measure=betweenness&samples=4097", "samples"),
        ("/graphs/g/peaks?measure=betweenness&samples=0", "samples"),
        ("/graphs/g/tiles/0/0/0?measure=betweenness&samples=100000", "samples"),
        ("/graphs/g/scene?measure=betweenness&samples=0", "samples"),
    ];
    for (target, param) in cases {
        let response = routes::handle(&state, &get(target));
        assert_eq!(response.status, 400, "{target}");
        let doc = body_json(&response);
        let error = doc.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(|c| c.as_str()), Some("invalid_parameter"));
        assert_eq!(error.get("param").and_then(|p| p.as_str()), Some(param), "{target}");
    }
    // Refused before any work: nothing was computed, retained or rendered.
    let stats = body_json(&routes::handle(&state, &get("/stats")));
    let counter = |object: &str, name: &str| stats.get(object)?.get(name)?.as_u64();
    assert_eq!(counter("super_trees", "builds"), Some(0));
    assert_eq!(counter("scenes", "builds"), Some(0));
    assert_eq!(counter("stage_seconds", "renders"), Some(0));
    // The bounds themselves are accepted.
    for target in [
        "/graphs/g/terrain?levels=1",
        "/graphs/g/terrain?width=16384&height=1",
        "/graphs/g/terrain?measure=betweenness&samples=1",
        "/graphs/g/terrain?measure=betweenness&samples=4096",
        "/graphs/g/terrain?budget=150000",
    ] {
        assert_eq!(routes::handle(&state, &get(target)).status, 200, "{target}");
    }
}

#[test]
fn threads_param_changes_nothing_about_the_artifact_or_cache_key() {
    let state = state_with_graph();
    let serial = routes::handle(&state, &get("/graphs/g/terrain?threads=serial"));
    assert_eq!(serial.status, 200);
    assert_eq!(serial.header_value("x-cache"), Some("miss"));
    // Different thread budget, same everything else: must be a *hit* (the
    // key excludes parallelism) with identical bytes.
    let threaded = routes::handle(&state, &get("/graphs/g/terrain?threads=2"));
    assert_eq!(threaded.status, 200);
    assert_eq!(threaded.header_value("x-cache"), Some("hit"));
    assert_eq!(serial.body, threaded.body);
    assert_eq!(serial.header_value("etag"), threaded.header_value("etag"));
}

#[test]
fn distinct_render_parameters_get_distinct_cache_entries_and_etags() {
    let state = state_with_graph();
    let default = routes::handle(&state, &get("/graphs/g/terrain"));
    let resized = routes::handle(&state, &get("/graphs/g/terrain?width=640&height=480"));
    let recolored = routes::handle(&state, &get("/graphs/g/terrain?color=degree"));
    assert_eq!(default.status, 200);
    assert_eq!(resized.status, 200);
    assert_eq!(recolored.status, 200);
    for response in [&resized, &recolored] {
        assert_eq!(response.header_value("x-cache"), Some("miss"));
        assert_ne!(response.header_value("etag"), default.header_value("etag"));
    }
    // A different size provably changes the bytes; a different palette may
    // coincide on a tiny graph, so only the key separation is asserted.
    assert_ne!(resized.body, default.body);
    assert_eq!(state.cache.lock().unwrap().len(), 3);
}

#[test]
fn if_none_match_returns_304_without_rendering() {
    let state = state_with_graph();
    let first = routes::handle(&state, &get("/graphs/g/terrain"));
    let etag = first.header_value("etag").unwrap().to_string();
    let mut conditional = get("/graphs/g/terrain");
    conditional.headers.push(("if-none-match".into(), etag.clone()));
    let response = routes::handle(&state, &conditional);
    assert_eq!(response.status, 304);
    assert_eq!(response.header_value("etag"), Some(etag.as_str()));
    // The 304 never touched the cache: exactly one lookup (the first
    // render's miss) is on the books.
    let stats = state.cache.lock().unwrap().stats();
    assert_eq!(stats.hits + stats.misses, 1);
}

#[test]
fn upload_registers_lists_describes_and_conflicts() {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    let edgelist = b"0 1\n1 2\n2 0\n".to_vec();

    let created = routes::handle(&state, &post("/graphs?id=tri", edgelist.clone()));
    assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
    assert_eq!(created.header_value("location"), Some("/graphs/tri"));
    let doc = body_json(&created);
    assert_eq!(doc.get("vertices").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(doc.get("edges").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(doc.get("storage").and_then(|v| v.as_str()), Some("owned"));

    // Same id again: 409, registry unchanged.
    let conflict = routes::handle(&state, &post("/graphs?id=tri", edgelist.clone()));
    assert_eq!(conflict.status, 409);

    // Auto-id upload, then list both.
    let auto = routes::handle(&state, &post("/graphs", edgelist));
    assert_eq!(auto.status, 201);
    let list = routes::handle(&state, &get("/graphs"));
    let listed = body_json(&list);
    assert_eq!(listed.get("graphs").and_then(|g| g.as_array()).map(|a| a.len()), Some(2));

    // Garbage uploads are 400s, not panics.
    let garbage = routes::handle(&state, &post("/graphs", b"not a graph \xff".to_vec()));
    assert_eq!(garbage.status, 400);
    let empty = routes::handle(&state, &post("/graphs", Vec::new()));
    assert_eq!(empty.status, 400);
}

#[test]
fn retired_v2_snapshot_uploads_are_invalid_graph_400s_naming_the_version() {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    // The v2 header: shared `GTSB` magic, little-endian version 2, padding.
    let mut v2 = b"GTSB".to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&[0; 16]);
    let response = routes::handle(&state, &post("/graphs?format=binary", v2));
    assert_eq!(response.status, 400);
    let error = body_json(&response).get("error").cloned().expect("structured error");
    assert_eq!(error.get("code").and_then(|c| c.as_str()), Some("invalid_graph"));
    let message = error.get("message").and_then(|m| m.as_str()).unwrap_or_default();
    assert!(message.contains("version 2"), "{message}");
    assert!(state.graphs().is_empty());
}

#[test]
fn corrupt_v3_snapshot_uploads_are_invalid_graph_400s() {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    let snapshot = ugraph::io::encode_binary_v3(&test_graph(), None).expect("encode v3");
    let truncated = snapshot[..snapshot.len() - 5].to_vec();
    let mut flipped = snapshot.clone();
    flipped[snapshot.len() / 2] ^= 0x01;
    for (name, body) in [("truncated", truncated), ("byte-flipped", flipped)] {
        let response = routes::handle(&state, &post("/graphs?id=g", body));
        assert_eq!(response.status, 400, "{name}");
        let error = body_json(&response).get("error").cloned().expect("structured error");
        assert_eq!(error.get("code").and_then(|c| c.as_str()), Some("invalid_graph"), "{name}");
        assert!(state.graphs().is_empty(), "{name} upload registered a graph");
    }
}

#[test]
fn peaks_returns_the_clique_and_stats_reflects_traffic() {
    let state = state_with_graph();
    let peaks = routes::handle(&state, &get("/graphs/g/peaks?count=2"));
    assert_eq!(peaks.status, 200);
    let doc = body_json(&peaks);
    let list = doc.get("peaks").and_then(|p| p.as_array()).expect("peaks array");
    assert!(!list.is_empty());
    let first = &list[0];
    // The K5 dominates the K-Core terrain: the top peak has summit 4.
    assert_eq!(first.get("summit_height").and_then(|v| v.as_f64()), Some(4.0));
    assert!(first.get("member_count").and_then(|v| v.as_u64()).unwrap() >= 5);
    assert!(first.get("footprint").is_some());

    let stats = routes::handle(&state, &get("/stats"));
    assert_eq!(stats.status, 200);
    let doc = body_json(&stats);
    assert_eq!(doc.get("graphs").and_then(|v| v.as_u64()), Some(1));
    let cache = doc.get("cache").expect("cache object");
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    let totals = doc.get("stage_seconds").expect("stage_seconds object");
    assert_eq!(totals.get("renders").and_then(|v| v.as_u64()), Some(1));

    // One terrain miss times its exporter write into the svg stage.
    assert_eq!(routes::handle(&state, &get("/graphs/g/terrain")).status, 200);
    let doc = body_json(&routes::handle(&state, &get("/stats")));
    let totals = doc.get("stage_seconds").expect("stage_seconds object");
    assert_eq!(totals.get("renders").and_then(|v| v.as_u64()), Some(2));
    let svg = totals.get("svg").and_then(|v| v.as_f64()).expect("stage_seconds.svg");
    assert!(svg > 0.0, "a terrain miss must time its write, got {svg}");
}

#[test]
fn delete_unregisters_the_graph_and_evicts_its_artifacts() {
    let state = state_with_graph();
    assert_eq!(routes::handle(&state, &get("/graphs/g/terrain")).status, 200);
    assert_eq!(routes::handle(&state, &get("/graphs/g/peaks")).status, 200);
    assert_eq!(state.cache.lock().unwrap().len(), 2);

    let gone = routes::handle(&state, &delete("/graphs/missing"));
    assert_eq!(gone.status, 404);

    let deleted = routes::handle(&state, &delete("/graphs/g"));
    assert_eq!(deleted.status, 200, "{}", String::from_utf8_lossy(&deleted.body));
    let doc = body_json(&deleted);
    assert_eq!(doc.get("deleted").and_then(|v| v.as_str()), Some("g"));
    assert_eq!(doc.get("evicted_artifacts").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(state.cache.lock().unwrap().len(), 0, "the id's artifacts must go");

    assert_eq!(routes::handle(&state, &get("/graphs/g")).status, 404);
    assert_eq!(routes::handle(&state, &delete("/graphs/g")).status, 404, "second delete");
}

#[test]
fn structural_deltas_mutate_the_graph_and_change_the_etag() {
    let state = state_with_graph();
    let before = routes::handle(&state, &get("/graphs/g/terrain"));
    assert_eq!(before.status, 200);

    // Grow the graph: a new edge into fresh vertex 7 plus a redundant one.
    let applied = routes::handle(&state, &post("/graphs/g/deltas", b"6 7\n0 1\n".to_vec()));
    assert_eq!(applied.status, 200, "{}", String::from_utf8_lossy(&applied.body));
    let doc = body_json(&applied);
    assert_eq!(doc.get("structural").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("inserted").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(doc.get("redundant_inserts").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(doc.get("evicted_artifacts").and_then(|v| v.as_u64()), Some(1));
    let graph = doc.get("graph").expect("graph facts");
    assert_eq!(graph.get("vertices").and_then(|v| v.as_u64()), Some(8));
    // A structural delta evicts every retained value, so every measure is
    // recomputed from scratch; the response claims no per-measure cost.
    assert!(doc.get("measure_costs").is_none(), "no per-measure cost table");

    // The registry now serves the mutated graph, and a re-render is a
    // fresh artifact with a different ETag (the key embeds only the id,
    // but the old entry was evicted so the bytes are recomputed).
    let info = body_json(&routes::handle(&state, &get("/graphs/g")));
    assert_eq!(info.get("vertices").and_then(|v| v.as_u64()), Some(8));
    assert_eq!(info.get("generation").and_then(|v| v.as_u64()), Some(1));
    let after = routes::handle(&state, &get("/graphs/g/terrain"));
    assert_eq!(after.header_value("x-cache"), Some("miss"), "stale bytes must not be served");
    assert_ne!(after.body, before.body);
    assert_ne!(
        after.header_value("etag"),
        before.header_value("etag"),
        "the generation is in the key, so the key-derived ETag must change"
    );
    // A conditional request with the pre-delta ETag must re-render, not 304.
    let mut conditional = get("/graphs/g/terrain");
    conditional
        .headers
        .push(("if-none-match".into(), before.header_value("etag").unwrap().to_string()));
    assert_eq!(routes::handle(&state, &conditional).status, 200);

    // The mutated graph renders byte-identically to a direct upload of the
    // same final edge list under a fresh id modulo the id-dependent key.
    let mut final_edges = Vec::new();
    let entry = state.graph("g").unwrap();
    let storage = entry.graph.storage();
    for e in storage.edges() {
        final_edges.extend_from_slice(format!("{} {}\n", e.u, e.v).as_bytes());
    }
    let fresh = routes::handle(&state, &post("/graphs?id=rebuilt", final_edges));
    assert_eq!(fresh.status, 201);
    let direct = routes::handle(&state, &get("/graphs/rebuilt/terrain"));
    assert_eq!(direct.body, after.body, "incremental and from-scratch artifacts must agree");
}

#[test]
fn noop_deltas_leave_the_graph_cache_and_etags_alone() {
    let state = state_with_graph();
    let before = routes::handle(&state, &get("/graphs/g/terrain"));
    let etag = before.header_value("etag").unwrap().to_string();

    // A redundant insert, an absent delete, and a reweight: no structure.
    // The absent delete names vertices inside the existing range — a batch
    // mentioning a fresh vertex id grows the graph, which *is* structural.
    let redundant = routes::handle(&state, &post("/graphs/g/deltas", b"0 1\n".to_vec()));
    let absent = routes::handle(&state, &post("/graphs/g/deltas?op=delete", b"0 5\n".to_vec()));
    let reweight = routes::handle(&state, &post("/graphs/g/deltas?op=reweight", b"0 1\n".to_vec()));
    for (response, field) in
        [(&redundant, "redundant_inserts"), (&absent, "absent_deletes"), (&reweight, "reweights")]
    {
        assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
        let doc = body_json(response);
        assert_eq!(doc.get("structural").and_then(|v| v.as_bool()), Some(false), "{field}");
        assert_eq!(doc.get("evicted_artifacts").and_then(|v| v.as_u64()), Some(0), "{field}");
        assert_eq!(doc.get(field).and_then(|v| v.as_u64()), Some(1), "{field}");
    }
    let cached = routes::handle(&state, &get("/graphs/g/terrain"));
    assert_eq!(cached.header_value("x-cache"), Some("hit"), "no-op deltas must not evict");
    assert_eq!(cached.header_value("etag"), Some(etag.as_str()));
}

#[test]
fn delta_responses_omit_the_counters_the_body_parser_zeroes() {
    let state = state_with_graph();
    // A repeated edge (reversed) and a self loop on a fresh vertex: the
    // body is parsed as a graph first, which drops both before the batch
    // is built, so the response sends no counter for them.
    let applied = routes::handle(&state, &post("/graphs/g/deltas", b"0 1\n1 0\n9 9\n".to_vec()));
    assert_eq!(applied.status, 200, "{}", String::from_utf8_lossy(&applied.body));
    let doc = body_json(&applied);
    assert_eq!(doc.get("structural").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("redundant_inserts").and_then(|v| v.as_u64()), Some(1));
    assert!(doc.get("dropped_self_loops").is_none(), "{doc:?}");
    assert!(doc.get("superseded").is_none(), "{doc:?}");
    // The self loop's vertex still exists.
    let graph = doc.get("graph").expect("graph facts");
    assert_eq!(graph.get("vertices").and_then(|v| v.as_u64()), Some(10));
    assert_eq!(routes::handle(&state, &get("/graphs/g/terrain")).status, 200);
}

#[test]
fn a_delta_chain_on_a_mapped_upload_serves_the_bytes_of_a_fresh_upload() {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    let base = test_graph();
    let snapshot = ugraph::io::encode_binary_v3(&base, None).expect("encode v3");
    let uploaded = routes::handle(&state, &post("/graphs?id=g", snapshot));
    assert_eq!(uploaded.status, 201, "{}", String::from_utf8_lossy(&uploaded.body));
    assert_eq!(body_json(&uploaded).get("storage").and_then(|v| v.as_str()), Some("mapped"));

    // Insert three absent edges, delete them again, send a no-op batch,
    // then grow the graph by one vertex.
    let inserts = b"2 13\n3 14\n8 12\n".to_vec();
    let chain: [(&str, Vec<u8>, bool, &str); 4] = [
        ("/graphs/g/deltas", inserts.clone(), true, "inserted"),
        ("/graphs/g/deltas?op=delete", inserts, true, "deleted"),
        ("/graphs/g/deltas", b"0 1\n".to_vec(), false, "redundant_inserts"),
        ("/graphs/g/deltas", b"14 15\n".to_vec(), true, "inserted"),
    ];
    let mut generation = 0;
    for (target, body, structural, counter) in chain {
        let applied = routes::handle(&state, &post(target, body.clone()));
        assert_eq!(applied.status, 200, "{}", String::from_utf8_lossy(&applied.body));
        let doc = body_json(&applied);
        let edges = body.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(doc.get("structural").and_then(|v| v.as_bool()), Some(structural), "{target}");
        assert_eq!(doc.get(counter).and_then(|v| v.as_u64()), Some(edges), "{target}");
        generation += u64::from(structural);
        let graph = doc.get("graph").expect("graph facts");
        assert_eq!(graph.get("generation").and_then(|v| v.as_u64()), Some(generation));
        assert_eq!(graph.get("storage").and_then(|v| v.as_str()), Some("owned"), "{target}");
    }

    // The oracle is the final edge list, written out independently of the
    // server's copy and uploaded from scratch.
    let mut final_edges = String::new();
    for e in base.edges() {
        final_edges.push_str(&format!("{} {}\n", e.u, e.v));
    }
    final_edges.push_str("14 15\n");
    let fresh = routes::handle(&state, &post("/graphs?id=fresh", final_edges.into_bytes()));
    assert_eq!(fresh.status, 201, "{}", String::from_utf8_lossy(&fresh.body));
    let info = body_json(&routes::handle(&state, &get("/graphs/g")));
    assert_eq!(info.get("vertices").and_then(|v| v.as_u64()), Some(16));
    assert_eq!(info.get("edges"), body_json(&fresh).get("edges"));

    for artifact in ["terrain", "terrain?measure=kcore", "tiles/1/0/0"] {
        let chained = ok(&state, &format!("/graphs/g/{artifact}"));
        let direct = ok(&state, &format!("/graphs/fresh/{artifact}"));
        assert!(chained == direct, "{artifact}: a delta chain and a fresh upload disagree");
    }
}

#[test]
fn delta_parameter_errors_are_structured_400s_and_404s() {
    let state = state_with_graph();
    let missing = routes::handle(&state, &post("/graphs/nope/deltas", b"0 1\n".to_vec()));
    assert_eq!(missing.status, 404);

    let empty = routes::handle(&state, &post("/graphs/g/deltas", Vec::new()));
    assert_eq!(empty.status, 400);
    assert_eq!(
        body_json(&empty).get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
        Some("empty_body")
    );

    let bad_op = routes::handle(&state, &post("/graphs/g/deltas?op=upsert", b"0 1\n".to_vec()));
    assert_eq!(bad_op.status, 400);
    let doc = body_json(&bad_op);
    let error = doc.get("error").expect("error object");
    assert_eq!(error.get("param").and_then(|p| p.as_str()), Some("op"));
    assert!(error.get("message").and_then(|m| m.as_str()).unwrap().contains("upsert"));

    let garbage = routes::handle(&state, &post("/graphs/g/deltas", b"not edges \xff".to_vec()));
    assert_eq!(garbage.status, 400);
    assert_eq!(
        body_json(&garbage).get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
        Some("invalid_delta")
    );
}

#[test]
fn tile_requests_miss_then_hit_with_identical_bytes_regardless_of_threads() {
    let state = state_with_graph();
    let first = routes::handle(&state, &get("/graphs/g/tiles/0/0/0"));
    assert_eq!(first.status, 200, "{}", String::from_utf8_lossy(&first.body));
    assert_eq!(first.header_value("x-cache"), Some("miss"));
    assert_eq!(first.header_value("content-type"), Some("image/svg+xml"));
    assert!(first.body.starts_with(b"<svg"), "tile body must be an SVG document");
    let etag = first.header_value("etag").expect("tile responses carry an ETag").to_string();

    // Re-request under a different thread budget: the tile key excludes
    // parallelism, so this must be a byte-identical cache hit.
    let again = routes::handle(&state, &get("/graphs/g/tiles/0/0/0?threads=2"));
    assert_eq!(again.status, 200);
    assert_eq!(again.header_value("x-cache"), Some("hit"));
    assert_eq!(again.body, first.body);
    assert_eq!(again.header_value("etag"), Some(etag.as_str()));

    // And the conditional protocol holds: If-None-Match short-circuits to a
    // bodyless 304 carrying the same ETag.
    let mut conditional = get("/graphs/g/tiles/0/0/0");
    conditional.headers.push(("if-none-match".into(), etag.clone()));
    let not_modified = routes::handle(&state, &conditional);
    assert_eq!(not_modified.status, 304);
    assert_eq!(not_modified.header_value("etag"), Some(etag.as_str()));
    assert!(not_modified.body.is_empty());
}

#[test]
fn distinct_tile_keys_zooms_sizes_and_formats_are_distinct_artifacts() {
    let state = state_with_graph();
    let base = routes::handle(&state, &get("/graphs/g/tiles/0/0/0"));
    let zoomed = routes::handle(&state, &get("/graphs/g/tiles/1/0/0"));
    let neighbor = routes::handle(&state, &get("/graphs/g/tiles/1/1/1"));
    let resized = routes::handle(&state, &get("/graphs/g/tiles/0/0/0?size=128"));
    let binary = routes::handle(&state, &get("/graphs/g/tiles/0/0/0?format=scene"));
    for (response, what) in [
        (&base, "base"),
        (&zoomed, "zoomed"),
        (&neighbor, "neighbor"),
        (&resized, "resized"),
        (&binary, "binary"),
    ] {
        assert_eq!(response.status, 200, "{what}");
        assert_eq!(response.header_value("x-cache"), Some("miss"), "{what}");
        if what != "base" {
            assert_ne!(response.header_value("etag"), base.header_value("etag"), "{what}");
        }
    }
    assert_eq!(binary.header_value("content-type"), Some("application/octet-stream"));
    assert!(binary.body.starts_with(b"GTSC"), "format=scene streams the binary tile");
    assert_eq!(state.cache.lock().unwrap().len(), 5);
}

#[test]
fn tiles_outside_the_grid_are_404s_and_bad_tile_parameters_are_400s() {
    let state = state_with_graph();
    // Past the zoom ceiling, and tx/ty at or past 2^zoom: the range check
    // rejects before any render, so the cache stays untouched.
    for target in [
        "/graphs/g/tiles/9/0/0",
        "/graphs/g/tiles/1/2/0",
        "/graphs/g/tiles/0/0/1",
        "/graphs/g/tiles/2/0/4",
    ] {
        let response = routes::handle(&state, &get(target));
        assert_eq!(response.status, 404, "{target}");
        let doc = body_json(&response);
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(|m| m.as_str())
            .expect("message");
        assert!(message.contains("outside the grid"), "{target}: {message}");
    }
    let cases = [
        ("/graphs/g/tiles/x/0/0", "zoom"),
        ("/graphs/g/tiles/0/-1/0", "tx"),
        ("/graphs/g/tiles/0/0/1.5", "ty"),
        ("/graphs/g/tiles/0/0/0?format=gif", "format"),
        ("/graphs/g/tiles/0/0/0?size=0", "size"),
        ("/graphs/g/tiles/0/0/0?size=4096", "size"),
        ("/graphs/g/tiles/0/0/0?measure=bogus", "measure"),
    ];
    for (target, param) in cases {
        let response = routes::handle(&state, &get(target));
        assert_eq!(response.status, 400, "{target}");
        let doc = body_json(&response);
        assert_eq!(
            doc.get("error").and_then(|e| e.get("param")).and_then(|p| p.as_str()),
            Some(param),
            "{target}"
        );
    }
    assert_eq!(state.cache.lock().unwrap().len(), 0, "rejected requests never render");
    assert_eq!(routes::handle(&state, &get("/graphs/missing/tiles/0/0/0")).status, 404);
}

#[test]
fn scene_route_streams_a_decodable_gtsc_document() {
    let state = state_with_graph();
    let response = routes::handle(&state, &get("/graphs/g/scene"));
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    assert_eq!(response.header_value("content-type"), Some("application/octet-stream"));
    assert_eq!(response.header_value("x-cache"), Some("miss"));
    let doc = graph_terrain::decode_gtsc(&response.body).expect("scene body must decode");
    assert!(!doc.items.is_empty());
    assert_eq!(doc.header.tile_px, 256, "the server pins the default LOD config");
    assert!(doc.tile.is_none(), "the whole-scene document is not stamped with a tile key");

    // Second fetch is the cached bytes; a tile's GTSC stream is a strict
    // subset stamped with its key.
    let again = routes::handle(&state, &get("/graphs/g/scene"));
    assert_eq!(again.header_value("x-cache"), Some("hit"));
    assert_eq!(again.body, response.body);
    let tile = routes::handle(&state, &get("/graphs/g/tiles/1/0/0?format=scene"));
    assert_eq!(tile.status, 200);
    let tile_doc = graph_terrain::decode_gtsc(&tile.body).expect("tile body must decode");
    let (stamp, _bounds) = tile_doc.tile.expect("tile documents are stamped");
    assert_eq!((stamp.zoom, stamp.tx, stamp.ty), (1, 0, 0));
    assert!(tile_doc.items.len() <= doc.items.len());
}

#[test]
fn structural_deltas_invalidate_tiles_and_scenes_through_the_generation() {
    let state = state_with_graph();
    let tile_before = routes::handle(&state, &get("/graphs/g/tiles/0/0/0"));
    let scene_before = routes::handle(&state, &get("/graphs/g/scene"));
    assert_eq!(tile_before.status, 200);
    assert_eq!(scene_before.status, 200);
    let old_etag = tile_before.header_value("etag").unwrap().to_string();

    // Grow the graph into fresh vertex 7: structural, so the id's artifacts
    // are evicted and the generation lands in every new cache key.
    let applied = routes::handle(&state, &post("/graphs/g/deltas", b"6 7\n".to_vec()));
    assert_eq!(applied.status, 200, "{}", String::from_utf8_lossy(&applied.body));

    let tile_after = routes::handle(&state, &get("/graphs/g/tiles/0/0/0"));
    assert_eq!(tile_after.header_value("x-cache"), Some("miss"), "stale tiles must not serve");
    assert_ne!(tile_after.header_value("etag"), Some(old_etag.as_str()));
    assert_ne!(tile_after.body, tile_before.body, "a new vertex changes the rendered terrain");
    let scene_after = routes::handle(&state, &get("/graphs/g/scene"));
    assert_eq!(scene_after.header_value("x-cache"), Some("miss"));
    assert_ne!(scene_after.body, scene_before.body);

    // A client replaying its pre-delta ETag re-renders instead of 304ing.
    let mut conditional = get("/graphs/g/tiles/0/0/0");
    conditional.headers.push(("if-none-match".into(), old_etag));
    let replay = routes::handle(&state, &conditional);
    assert_eq!(replay.status, 200);
    assert_eq!(replay.body, tile_after.body);
}

#[test]
fn betweenness_sampling_parameters_key_the_cache() {
    let state = state_with_graph();
    let a = routes::handle(&state, &get("/graphs/g/terrain?measure=betweenness&samples=8&seed=1"));
    let b = routes::handle(&state, &get("/graphs/g/terrain?measure=betweenness&samples=8&seed=2"));
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_eq!(b.header_value("x-cache"), Some("miss"), "a new seed is a new artifact");
    assert_ne!(a.header_value("etag"), b.header_value("etag"));
}
