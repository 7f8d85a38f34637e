//! Retained scalar fields: a terrain's or a peaks list's bytes must not
//! depend on which request computed the measure — that terrain, an earlier
//! tile, `/scene`, peaks, or a request at another thread count — nor on
//! whether the field fit the retention budget at all, and a field must not
//! survive the graph generation it was computed on. Concurrent cold
//! requests of one measure compute it once.

use std::sync::{Arc, Barrier};

use graph_terrain::{Measure, SharedGraph, TerrainPipeline};
use serve::http::{Method, Request};
use serve::routes;
use serve::state::{AppState, ServerConfig, RETAINED_ENTRIES};
use serve::LruCache;
use ugraph::GraphStorage;

mod common;
use common::{get, ok, state_with, stats, test_graph};

/// The graph as an edge-list upload body.
fn edge_list(graph: &dyn GraphStorage) -> Vec<u8> {
    graph.edges().map(|e| format!("{} {}\n", e.u.index(), e.v.index())).collect::<String>().into()
}

fn post(state: &AppState, target: &str, body: &[u8]) {
    let request = Request { method: Method::Post, body: body.to_vec(), ..get(target) };
    let response = routes::handle(state, &request);
    assert!(
        matches!(response.status, 200 | 201),
        "{target}: {}",
        String::from_utf8_lossy(&response.body)
    );
}

fn scalars(state: &AppState, counter: &str) -> u64 {
    retained(state, "scalars", counter)
}

fn super_trees(state: &AppState, counter: &str) -> u64 {
    retained(state, "super_trees", counter)
}

fn render_trees(state: &AppState, counter: &str) -> u64 {
    retained(state, "render_trees", counter)
}

fn retained(state: &AppState, kind: &str, counter: &str) -> u64 {
    stats(state)
        .get(kind)
        .and_then(|s| s.get(counter))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("/stats has no {kind}.{counter}"))
}

/// The retained fields' keys, most recently used first.
fn scalar_keys(state: &AppState) -> Vec<String> {
    let keys = state.retained.lock().unwrap().keys_most_recent_first();
    keys.into_iter().filter(|key| key.contains("|scalar|")).collect()
}

/// The default-size SVG terrain as a fresh in-process session renders it.
fn fresh_terrain(graph: &SharedGraph, measure: Measure) -> Vec<u8> {
    let mut session = TerrainPipeline::from_shared(graph.clone(), measure);
    let exporter = terrain::exporter_by_name_sized("svg", 900.0, 700.0).unwrap();
    let mut bytes = Vec::new();
    session.render_deterministic_to(exporter.as_ref(), &mut bytes).unwrap();
    bytes
}

#[test]
fn terrain_and_peaks_are_the_same_bytes_whichever_request_built_the_scalar() {
    let graph = SharedGraph::new(test_graph());
    for (measure, name) in [(Measure::KCore, "kcore"), (Measure::PageRank, "pagerank")] {
        let terrain = format!("/graphs/g/terrain?measure={name}");
        let peaks = format!("/graphs/g/peaks?measure={name}&count=3");
        let reference = fresh_terrain(&graph, measure.clone());

        // Cold: the terrain computes the field itself.
        let cold = state_with(&graph);
        assert_eq!(ok(&cold, &terrain), reference, "{terrain} cold");
        let cold_peaks = ok(&cold, &peaks);

        let builders = [
            format!("/graphs/g/tiles/0/0/0?measure={name}"),
            format!("/graphs/g/scene?measure={name}"),
            format!("/graphs/g/peaks?measure={name}"),
            format!("/graphs/g/terrain?measure={name}&width=640&threads=2"),
            format!("/graphs/g/tiles/1/0/1?measure={name}&threads=auto"),
        ];
        for builder in &builders {
            let state = state_with(&graph);
            ok(&state, builder);
            assert_eq!(ok(&state, &terrain), reference, "{terrain} after {builder}");
            assert_eq!(ok(&state, &peaks), cold_peaks, "{peaks} after {builder}");
            assert_eq!(scalars(&state, "builds"), 1, "{builder}: one field per measure");
            assert_eq!(super_trees(&state, "builds"), 1, "{builder}: one super tree");
            // Only the super-tree build reads the field. Terrain and peaks
            // each reused retained state once: the super tree a tile or
            // scene built, or the render tree built from it.
            assert_eq!(scalars(&state, "hits"), 0, "{builder}");
            let reused = super_trees(&state, "hits") + render_trees(&state, "hits");
            assert_eq!(reused, 2, "{builder}: terrain and peaks reused it");
            assert_eq!(render_trees(&state, "builds"), 1, "{builder}: one tree per budget");
        }
    }
}

#[test]
fn three_widths_peaks_and_a_tile_of_one_measure_compute_it_once() {
    let graph = SharedGraph::new(test_graph());
    let state = state_with(&graph);
    for width in [600, 700, 800] {
        ok(&state, &format!("/graphs/g/terrain?measure=pagerank&width={width}"));
    }
    ok(&state, "/graphs/g/peaks?measure=pagerank");
    ok(&state, "/graphs/g/tiles/1/1/0?measure=pagerank");
    let doc = stats(&state);
    let field = doc.get("scalars").unwrap();
    let count = |name: &str| field.get(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count("builds"), 1);
    // Only the super tree starts from the field. The first terrain's render
    // tree and the tile's scene start from the super tree; the other widths
    // and peaks start from the render tree.
    assert_eq!(count("hits"), 0);
    assert_eq!((super_trees(&state, "builds"), super_trees(&state, "hits")), (1, 1));
    assert_eq!((render_trees(&state, "builds"), render_trees(&state, "hits")), (1, 3));
    assert_eq!(count("entries"), 1);
    assert_eq!(count("bytes"), 8 * graph.storage().vertex_count() as u64, "len * 8");
    assert_eq!(count("uncacheable"), 0);
    assert_eq!(scalar_keys(&state), vec!["g|gen=0|scalar|measure=pagerank"]);
    // Five artifacts rendered, one scene built; the field's seconds were
    // absorbed once, by its build.
    let renders = doc.get("stage_seconds").and_then(|s| s.get("renders")).unwrap();
    assert_eq!(renders.as_u64(), Some(5));
}

#[test]
fn concurrent_cold_terrains_and_tiles_of_one_measure_compute_it_once() {
    const CLIENTS: usize = 8;
    // Large enough that PageRank outlasts the requests' arrival.
    let graph = SharedGraph::new(ugraph::generators::rmat(12, 20_000, 7));
    let state = state_with(&graph);
    let targets: Vec<String> = (0..CLIENTS)
        .map(|i| match i % 2 {
            0 => format!("/graphs/g/terrain?measure=pagerank&width={}&threads=2", 600 + i),
            _ => format!("/graphs/g/tiles/1/{}/{}?measure=pagerank", (i / 2) % 2, i / 4),
        })
        .collect();
    let barrier = Barrier::new(CLIENTS);
    let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .map(|target| {
                let (state, barrier) = (&state, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    ok(state, target)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("request thread")).collect()
    });
    assert_eq!(scalars(&state, "builds"), 1, "one PageRank for every cold request");
    assert_eq!(super_trees(&state, "builds"), 1, "one super tree for the tree and the scene");
    assert_eq!(render_trees(&state, "builds"), 1, "one render tree for the four widths");
    assert_eq!(state.retained_flights.in_flight(), 0);
    // Every response is what a sequential server with a warm field serves.
    let sequential = state_with(&graph);
    for (target, body) in targets.iter().zip(&bodies) {
        assert_eq!(&ok(&sequential, target), body, "{target}");
    }
}

#[test]
fn a_structural_delta_drops_the_old_generations_field() {
    let graph = test_graph();
    let state = Arc::new(AppState::new(ServerConfig::default()));
    post(&state, "/graphs?id=g", &edge_list(&graph));
    for name in ["pagerank", "kcore"] {
        ok(&state, &format!("/graphs/g/terrain?measure={name}"));
    }
    assert_eq!(
        scalar_keys(&state),
        vec!["g|gen=0|scalar|measure=k-core", "g|gen=0|scalar|measure=pagerank"]
    );

    let batch = b"13 15\n15 16\n";
    post(&state, "/graphs/g/deltas", batch);
    assert_eq!(scalars(&state, "entries"), 0, "gen 0's fields are gone");

    // The final edge list, uploaded from scratch under another id.
    let mut final_list = edge_list(&graph);
    final_list.extend_from_slice(batch);
    post(&state, "/graphs?id=rebuilt", &final_list);
    for name in ["pagerank", "kcore"] {
        let mutated = ok(&state, &format!("/graphs/g/terrain?measure={name}"));
        let rebuilt = ok(&state, &format!("/graphs/rebuilt/terrain?measure={name}"));
        assert_eq!(mutated, rebuilt, "{name}: post-delta terrain equals a fresh upload");
    }
    let generation = state.graph("g").unwrap().generation;
    let mut mutated_keys: Vec<String> =
        scalar_keys(&state).into_iter().filter(|k| k.starts_with("g|")).collect();
    mutated_keys.sort();
    assert_eq!(
        mutated_keys,
        vec![
            format!("g|gen={generation}|scalar|measure=k-core"),
            format!("g|gen={generation}|scalar|measure=pagerank"),
        ]
    );
    assert_eq!(scalars(&state, "builds"), 6, "2 before, 2 after, 2 for the fresh upload");
}

#[test]
fn delete_then_reupload_never_reuses_a_field() {
    let old = SharedGraph::new(test_graph());
    let new = SharedGraph::new(ugraph::generators::barabasi_albert(30, 2, 3));
    let state = state_with(&old);
    assert_eq!(
        ok(&state, "/graphs/g/terrain?measure=pagerank"),
        fresh_terrain(&old, Measure::PageRank)
    );
    let deleted = routes::handle(&state, &Request { method: Method::Delete, ..get("/graphs/g") });
    assert_eq!(deleted.status, 200);
    assert_eq!(scalars(&state, "entries"), 0, "DELETE drops the fields");

    state.insert_graph(Some("g".into()), new.clone()).unwrap();
    assert_eq!(
        ok(&state, "/graphs/g/terrain?measure=pagerank"),
        fresh_terrain(&new, Measure::PageRank)
    );
    assert_eq!(scalars(&state, "builds"), 2);
    let generation = state.graph("g").unwrap().generation;
    assert_eq!(scalar_keys(&state), vec![format!("g|gen={generation}|scalar|measure=pagerank")]);
}

#[test]
fn a_field_computed_for_a_deleted_graph_serves_nothing_to_its_reupload() {
    // Large enough that the first PageRank is still running while the graph
    // is deleted and a different one is uploaded under its id.
    let old = SharedGraph::new(ugraph::generators::rmat(13, 40_000, 7));
    let new = SharedGraph::new(test_graph());
    let state = state_with(&old);
    let target = "/graphs/g/terrain?measure=pagerank";
    std::thread::scope(|s| {
        let cold = s.spawn(|| routes::handle(&state, &get(target)));
        while state.retained_flights.in_flight() == 0 && !cold.is_finished() {
            std::thread::yield_now();
        }
        let deleted =
            routes::handle(&state, &Request { method: Method::Delete, ..get("/graphs/g") });
        assert_eq!(deleted.status, 200);
        state.insert_graph(Some("g".into()), new.clone()).unwrap();
        let reference = fresh_terrain(&new, Measure::PageRank);
        assert_eq!(ok(&state, target), reference, "while the old field is computed");
        assert_eq!(cold.join().unwrap().status, 200, "the old graph's request still answers");
        assert_eq!(ok(&state, target), reference, "after the old computation ended");
    });
    let generation = state.graph("g").unwrap().generation;
    assert_eq!(scalar_keys(&state), vec![format!("g|gen={generation}|scalar|measure=pagerank")]);
}

#[test]
fn a_field_over_the_byte_bound_is_refused_and_still_serves_exact_bytes() {
    let graph = SharedGraph::new(test_graph());
    let state = state_with(&graph);
    // One entry short of the vertex field: the bound admits no vertex field
    // (nor a render tree, which holds two `u32`s per vertex and its nodes).
    let max_bytes = 8 * (graph.storage().vertex_count() - 1);
    *state.retained.lock().unwrap() = LruCache::new(RETAINED_ENTRIES, max_bytes);
    let reference = fresh_terrain(&graph, Measure::PageRank);
    assert_eq!(ok(&state, "/graphs/g/terrain?measure=pagerank"), reference);
    let resized = ok(&state, "/graphs/g/terrain?measure=pagerank&width=640");
    let doc = stats(&state);
    let field = doc.get("scalars").unwrap();
    let count = |name: &str| field.get(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count("uncacheable"), 2, "refused at each build");
    assert_eq!(count("builds"), 2, "so each terrain recomputes it");
    assert_eq!((count("entries"), count("bytes")), (0, 0));
    assert_eq!(count("max_bytes"), max_bytes as u64);

    // The refused field renders exactly what a retained one does.
    let retained = state_with(&graph);
    assert_eq!(ok(&retained, "/graphs/g/terrain?measure=pagerank&width=640"), resized);
    assert_eq!(scalars(&retained, "builds"), 1);
}
