//! Retained tile scenes: a tile's bytes must not depend on where its scene
//! came from — `/scene`, an earlier tile, or a fresh in-process
//! `scene().write_tile_svg` — nor survive the graph they were built from.
//! Concurrent cold requests for one tile build its scene once and render
//! the tile once.

use std::sync::{Arc, Barrier};

use graph_terrain::{Measure, SharedGraph, TerrainPipeline, TileKey};
use serve::http::{Method, Request};
use serve::state::{AppState, ServerConfig};
use serve::{client, routes, Server};

mod common;
use common::{get, ok, state_with, stats, test_graph};

fn counter(doc: &serde_json::Value, path: &[&str]) -> u64 {
    let mut value = doc;
    for key in path {
        value = value.get(key).unwrap_or_else(|| panic!("/stats has no {path:?}"));
    }
    value.as_u64().expect("a counter")
}

/// The retained scenes' keys, most recently used first.
fn scene_keys(state: &AppState) -> Vec<String> {
    let keys = state.retained.lock().unwrap().keys_most_recent_first();
    keys.into_iter().filter(|key| key.contains("|scene|")).collect()
}

/// The tile as a fresh in-process session renders it.
fn fresh_tile(graph: &SharedGraph, measure: Measure, key: TileKey, size: u32) -> Vec<u8> {
    let mut session = TerrainPipeline::from_shared(graph.clone(), measure);
    let mut bytes = Vec::new();
    session.scene().unwrap().write_tile_svg(&key, size, &mut bytes).unwrap();
    bytes
}

const KEY: TileKey = TileKey { zoom: 1, tx: 0, ty: 1 };

#[test]
fn a_tile_is_the_same_bytes_whichever_request_built_its_scene() {
    let graph = SharedGraph::new(test_graph());
    for (measure, query) in [(Measure::KCore, ""), (Measure::PageRank, "?measure=pagerank")] {
        let tile = format!("/graphs/g/tiles/1/0/1{query}");
        let reference = fresh_tile(&graph, measure, KEY, 256);

        // The scene built by `/scene`.
        let via_scene = state_with(&graph);
        ok(&via_scene, &format!("/graphs/g/scene{query}"));
        assert_eq!(ok(&via_scene, &tile), reference, "{tile} after /scene");

        // The scene built by another tile.
        let via_tile = state_with(&graph);
        ok(&via_tile, &format!("/graphs/g/tiles/0/0/0{query}"));
        assert_eq!(ok(&via_tile, &tile), reference, "{tile} after another tile");

        // The scene built by this tile.
        let cold = state_with(&graph);
        assert_eq!(ok(&cold, &tile), reference, "{tile} cold");

        for state in [&via_scene, &via_tile] {
            let doc = stats(state);
            assert_eq!(counter(&doc, &["scenes", "builds"]), 1, "{tile}: one scene per key");
            assert_eq!(counter(&doc, &["scenes", "hits"]), 1, "{tile}: the second use hit");
            assert_eq!(counter(&doc, &["scenes", "entries"]), 1);
            assert_eq!(counter(&doc, &["stage_seconds", "renders"]), 2, "one per artifact");
        }
    }
}

#[test]
fn structural_deltas_and_deletes_drop_the_old_graphs_scenes() {
    let graph = SharedGraph::new(test_graph());
    let state = state_with(&graph);
    let tile = "/graphs/g/tiles/1/0/1";
    let before = ok(&state, tile);
    assert_eq!(scene_keys(&state), vec!["g|gen=0|scene|measure=k-core"]);

    let delta = Request { method: Method::Post, body: b"13 15\n15 16\n".to_vec(), ..get("/") };
    let applied = routes::handle(&state, &Request { path: "/graphs/g/deltas".into(), ..delta });
    assert_eq!(applied.status, 200);
    assert_eq!(counter(&stats(&state), &["scenes", "entries"]), 0, "gen 0's scene is gone");

    let mutated = state.graph("g").unwrap().graph.clone();
    let after = ok(&state, tile);
    assert_eq!(after, fresh_tile(&mutated, Measure::KCore, KEY, 256));
    assert_ne!(after, before, "the delta changes the tile");
    assert_eq!(scene_keys(&state), vec!["g|gen=1|scene|measure=k-core"]);

    let deleted = routes::handle(&state, &Request { method: Method::Delete, ..get("/graphs/g") });
    assert_eq!(deleted.status, 200);
    assert_eq!(counter(&stats(&state), &["scenes", "entries"]), 0, "DELETE drops the scenes");

    // A new graph under the old id draws a fresh generation; it must not
    // inherit anything built for the graph that was there before.
    state.insert_graph(Some("g".into()), graph.clone()).unwrap();
    assert_eq!(ok(&state, tile), before);
    assert_eq!(scene_keys(&state), vec!["g|gen=2|scene|measure=k-core"]);
    assert_eq!(counter(&stats(&state), &["scenes", "builds"]), 3);
}

#[test]
fn a_build_for_a_deleted_graph_serves_nothing_to_its_reupload() {
    // Large enough that the first scene build is still running while the
    // graph is deleted and a different one is uploaded under its id.
    let old = SharedGraph::new(ugraph::generators::rmat(13, 40_000, 7));
    let new = SharedGraph::new(test_graph());
    let state = state_with(&old);
    std::thread::scope(|s| {
        let cold = s.spawn(|| routes::handle(&state, &get("/graphs/g/tiles/1/0/1")));
        while state.retained_flights.in_flight() == 0 && !cold.is_finished() {
            std::thread::yield_now();
        }
        let deleted =
            routes::handle(&state, &Request { method: Method::Delete, ..get("/graphs/g") });
        assert_eq!(deleted.status, 200);
        state.insert_graph(Some("g".into()), new.clone()).unwrap();
        let reference = fresh_tile(&new, Measure::KCore, KEY, 256);
        assert_eq!(ok(&state, "/graphs/g/tiles/1/0/1"), reference, "while the old build runs");
        assert_eq!(cold.join().unwrap().status, 200, "the old graph's request still answers");
        assert_eq!(ok(&state, "/graphs/g/tiles/1/0/1"), reference, "after the old build ended");
    });
    let generation = state.graph("g").unwrap().generation;
    let current = format!("g|gen={generation}|scene|measure=k-core");
    assert_eq!(scene_keys(&state), vec![current], "nothing of the old graph");
}

#[test]
fn concurrent_cold_requests_for_one_tile_build_and_render_once() {
    const CLIENTS: usize = 8;
    // Large enough that the scene build outlasts the requests' arrival.
    let graph = SharedGraph::new(ugraph::generators::rmat(12, 20_000, 7));
    let state = Arc::new(AppState::new(ServerConfig { workers: CLIENTS, ..Default::default() }));
    state.insert_graph(Some("g".into()), graph.clone()).unwrap();
    let server = Server::bind_with_state("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let responses: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client::get(addr, "/graphs/g/tiles/1/0/1?threads=2").expect("request")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|thread| thread.join().expect("client thread"))
        .collect();

    let reference = fresh_tile(&graph, Measure::KCore, KEY, 256);
    for response in &responses {
        assert_eq!(response.status, 200);
        assert_eq!(response.body, reference);
        assert_eq!(response.header("etag"), responses[0].header("etag"));
    }
    let doc = stats(&state);
    assert_eq!(counter(&doc, &["scenes", "builds"]), 1);
    assert_eq!(counter(&doc, &["stage_seconds", "renders"]), 1);
    let lookups = counter(&doc, &["cache", "hits"]) + counter(&doc, &["cache", "misses"]);
    assert_eq!(lookups, CLIENTS as u64, "one cache lookup per request");
    assert_eq!(state.artifact_flights.in_flight() + state.retained_flights.in_flight(), 0);
    server.shutdown();
}
