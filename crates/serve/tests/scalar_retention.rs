//! One scalar computation per measure and generation: the server computes
//! a measure's scalar field only inside the build of its retained super
//! tree, so `super_trees.builds` counts the computations and
//! `stage_seconds.scalar` grows only when one runs. A terrain's or a peaks
//! list's bytes must not depend on which request computed the measure —
//! that terrain, an earlier tile, `/scene`, peaks, or a request at another
//! thread count — nor on whether the super tree fit the retention budget at
//! all, and a super tree must not survive the graph generation it was
//! computed on. Concurrent cold requests of one measure compute it once.

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

/// `/stats` `stage_seconds.scalar`: the seconds spent computing measures.
fn scalar_seconds(state: &AppState) -> f64 {
    stats(state)
        .get("stage_seconds")
        .and_then(|s| s.get("scalar"))
        .and_then(|v| v.as_f64())
        .expect("/stats has stage_seconds.scalar")
}

/// The retained super trees' keys, most recently used first. No retained
/// key names a scalar field: the field is dropped with the session that
/// built the super tree.
fn super_tree_keys(state: &AppState) -> Vec<String> {
    let keys = state.retained.lock().unwrap().keys_most_recent_first();
    assert!(keys.iter().all(|key| !key.contains("|scalar|")), "{keys:?}");
    keys.into_iter().filter(|key| key.contains("|super_tree|")).collect()
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
            // One super tree, so one computation of the field.
            assert_eq!(super_trees(&state, "builds"), 1, "{builder}: one super tree");
            assert!(scalar_seconds(&state) > 0.0, "{builder}: the field was computed");
            // Terrain and peaks each reused retained state once: the super
            // tree a tile or scene built, or the render tree built from it.
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
    ok(&state, "/graphs/g/terrain?measure=pagerank&width=600");
    let computed = scalar_seconds(&state);
    assert!(computed > 0.0, "the first terrain computed the field");
    for width in [700, 800] {
        ok(&state, &format!("/graphs/g/terrain?measure=pagerank&width={width}"));
    }
    ok(&state, "/graphs/g/peaks?measure=pagerank");
    ok(&state, "/graphs/g/tiles/1/1/0?measure=pagerank");
    assert_eq!(scalar_seconds(&state), computed, "no later request computed it again");
    // The first terrain's render tree and the tile's scene start from the
    // super tree; the other widths and peaks start from the render tree.
    assert_eq!((super_trees(&state, "builds"), super_trees(&state, "hits")), (1, 1));
    assert_eq!((render_trees(&state, "builds"), render_trees(&state, "hits")), (1, 3));
    assert_eq!(super_trees(&state, "entries"), 1);
    let mut library = TerrainPipeline::from_shared(graph.clone(), Measure::PageRank);
    let heap_bytes = library.super_tree().unwrap().heap_bytes() as u64;
    assert_eq!(super_trees(&state, "bytes"), heap_bytes, "charged its arena");
    assert_eq!(super_trees(&state, "uncacheable"), 0);
    assert_eq!(super_tree_keys(&state), vec!["g|gen=0|super_tree|measure=pagerank"]);
    // Five artifacts rendered, one scene built.
    let renders = stats(&state).get("stage_seconds").and_then(|s| s.get("renders")).cloned();
    assert_eq!(renders.and_then(|r| r.as_u64()), Some(5));
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
    assert_eq!(super_trees(&state, "builds"), 1, "one PageRank for every cold request");
    assert!(scalar_seconds(&state) > 0.0, "timed once, by the super-tree build");
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
        super_tree_keys(&state),
        vec!["g|gen=0|super_tree|measure=k-core", "g|gen=0|super_tree|measure=pagerank"]
    );

    let batch = b"13 15\n15 16\n";
    post(&state, "/graphs/g/deltas", batch);
    assert_eq!(super_trees(&state, "entries"), 0, "gen 0's super trees are gone");

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
        super_tree_keys(&state).into_iter().filter(|k| k.starts_with("g|")).collect();
    mutated_keys.sort();
    assert_eq!(
        mutated_keys,
        vec![
            format!("g|gen={generation}|super_tree|measure=k-core"),
            format!("g|gen={generation}|super_tree|measure=pagerank"),
        ]
    );
    assert_eq!(super_trees(&state, "builds"), 6, "2 before, 2 after, 2 for the fresh upload");
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
    assert_eq!(super_trees(&state, "entries"), 0, "DELETE drops the super trees");

    state.insert_graph(Some("g".into()), new.clone()).unwrap();
    assert_eq!(
        ok(&state, "/graphs/g/terrain?measure=pagerank"),
        fresh_terrain(&new, Measure::PageRank)
    );
    assert_eq!(super_trees(&state, "builds"), 2);
    let generation = state.graph("g").unwrap().generation;
    assert_eq!(
        super_tree_keys(&state),
        vec![format!("g|gen={generation}|super_tree|measure=pagerank")]
    );
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
    assert_eq!(
        super_tree_keys(&state),
        vec![format!("g|gen={generation}|super_tree|measure=pagerank")]
    );
}

#[test]
fn a_super_tree_over_the_byte_bound_is_refused_and_still_serves_exact_bytes() {
    let graph = SharedGraph::new(test_graph());
    let state = state_with(&graph);
    // One byte short of the super tree: the bound admits no super tree (nor
    // the default render tree, which fits its budget and is the super tree).
    let mut library = TerrainPipeline::from_shared(graph.clone(), Measure::PageRank);
    let max_bytes = library.super_tree().unwrap().heap_bytes() - 1;
    *state.retained.lock().unwrap() = LruCache::new(RETAINED_ENTRIES, max_bytes);
    let reference = fresh_terrain(&graph, Measure::PageRank);
    assert_eq!(ok(&state, "/graphs/g/terrain?measure=pagerank"), reference);
    let resized = ok(&state, "/graphs/g/terrain?measure=pagerank&width=640");
    let doc = stats(&state);
    let trees = doc.get("super_trees").unwrap();
    let count = |name: &str| trees.get(name).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count("uncacheable"), 2, "refused at each build");
    assert_eq!(count("builds"), 2, "so each terrain recomputes the field and the trees");
    assert_eq!((count("entries"), count("bytes")), (0, 0));
    assert_eq!(count("max_bytes"), max_bytes as u64);
    assert_eq!(render_trees(&state, "uncacheable"), 2);
    assert!(super_tree_keys(&state).is_empty());

    // The refused super tree renders exactly what a retained one does.
    let retained = state_with(&graph);
    assert_eq!(ok(&retained, "/graphs/g/terrain?measure=pagerank&width=640"), resized);
    assert_eq!(super_trees(&retained, "builds"), 1);
}
