//! Retained coherence through the HTTP routes: terrains, peaks and tiles
//! served from retained state — super trees, render trees and scenes kept
//! per graph generation — must be the bytes a fresh upload
//! of the final edge list serves, however many deltas came before. A super
//! tree is built once per (graph, generation, measure) and serves the
//! scene and every render tree; a render tree is built once per (graph,
//! generation, measure, budget, levels), so a terrain miss that changes
//! only the width does not rebuild it, and concurrent cold requests build
//! each retained value once.

use std::collections::BTreeSet;
use std::sync::Barrier;

use graph_terrain::{Measure, SharedGraph, SimplificationConfig, TerrainPipeline};
use serve::http::{Method, Request};
use serve::routes::{self, MAX_RENDER_NODES};
use serve::state::{AppState, ServerConfig};
use ugraph::io::GraphSource;

mod common;
use common::{get, ok, state_with, stats};

fn counter(state: &AppState, object: &str, name: &str) -> u64 {
    stats(state)
        .get(object)
        .and_then(|o| o.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("/stats has no {object}.{name}"))
}

/// `POST` `body` to `target`; returns the response body, which must be JSON.
fn post(state: &AppState, target: &str, body: &[u8]) -> serde_json::Value {
    let request = Request { method: Method::Post, body: body.to_vec(), ..get(target) };
    let response = routes::handle(state, &request);
    let text = String::from_utf8_lossy(&response.body).into_owned();
    assert!(matches!(response.status, 200 | 201), "{target}: {text}");
    serde_json::from_str(&text).expect("JSON body")
}

fn edge_list(edges: &BTreeSet<(u32, u32)>) -> Vec<u8> {
    edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect::<String>().into_bytes()
}

/// Every artifact compared: terrains over widths, budgets (`none`
/// included) and level counts, peaks by count and by alpha, tiles and the
/// scene, for a vertex measure, PageRank and an edge measure.
fn targets() -> Vec<String> {
    let mut all = Vec::new();
    for measure in ["kcore", "pagerank", "edge-triangles"] {
        for query in [
            "width=640",
            "width=900",
            "width=1200&height=500",
            "budget=8",
            "budget=8&width=700",
            "budget=8&levels=4",
            "levels=4",
            "budget=none",
            "budget=none&width=333",
            "format=json&budget=12",
        ] {
            all.push(format!("/graphs/g/terrain?measure={measure}&{query}"));
        }
        all.push(format!("/graphs/g/peaks?measure={measure}&count=3"));
        all.push(format!("/graphs/g/peaks?measure={measure}&alpha=0.5"));
        all.push(format!("/graphs/g/tiles/0/0/0?measure={measure}"));
        all.push(format!("/graphs/g/tiles/1/1/0?measure={measure}&format=scene"));
        all.push(format!("/graphs/g/scene?measure={measure}"));
    }
    all
}

#[test]
fn artifacts_served_from_retained_state_after_deltas_equal_a_fresh_upload() {
    let base = ugraph::generators::barabasi_albert(200, 2, 5);
    let mut edges: BTreeSet<(u32, u32)> =
        base.edges().map(|e| (e.u.0.min(e.v.0), e.u.0.max(e.v.0))).collect();
    // Twelve pairs absent from the graph, toggled in and out.
    let toggle: BTreeSet<(u32, u32)> = (0..200u32)
        .flat_map(|u| (u + 1..200).map(move |v| (u, v)))
        .filter(|pair| !edges.contains(pair))
        .step_by(997)
        .take(12)
        .collect();
    assert_eq!(toggle.len(), 12);
    let toggle_body = edge_list(&toggle);
    let noop_body = edge_list(&edges.iter().copied().take(20).collect());

    let state = state_with(&SharedGraph::new(base));
    let builds = |state: &AppState| {
        ["super_trees", "render_trees", "scenes"].map(|kind| counter(state, kind, "builds"))
    };
    let warm = |state: &AppState| {
        let before = builds(state);
        for target in targets() {
            ok(state, &target);
        }
        let built = builds(state);
        // Per measure: one super tree (the one computation of its field),
        // which serves the scene and the six (budget, levels) pairs' render
        // trees.
        let per_generation = [3, 18, 3];
        assert_eq!(std::array::from_fn(|i| built[i] - before[i]), per_generation);
    };
    warm(&state);
    // Three structural deltas, each served warm before the next.
    for op in ["insert", "delete", "insert"] {
        let report = post(&state, &format!("/graphs/g/deltas?op={op}"), &toggle_body);
        assert_eq!(report.get("structural").and_then(|s| s.as_bool()), Some(true), "{op}");
        warm(&state);
    }
    edges.extend(&toggle);

    // A no-op batch keeps the generation and everything retained for it.
    let generation = state.graph("g").unwrap().generation;
    let builds_before = builds(&state);
    let report = post(&state, "/graphs/g/deltas?op=insert", &noop_body);
    assert_eq!(report.get("structural").and_then(|s| s.as_bool()), Some(false));
    assert_eq!(state.graph("g").unwrap().generation, generation);
    let hits_before = counter(&state, "render_trees", "hits");
    // New widths: artifact misses over retained render trees.
    let resized: Vec<(Measure, String, SimplificationConfig)> = [
        (Measure::KCore, "kcore"),
        (Measure::PageRank, "pagerank"),
        (Measure::EdgeTriangles, "edge-triangles"),
    ]
    .into_iter()
    .flat_map(|(measure, name)| {
        [
            ("", SimplificationConfig::default()),
            ("&budget=8", SimplificationConfig { node_budget: Some(8), levels: 64 }),
            ("&budget=8&levels=4", SimplificationConfig { node_budget: Some(8), levels: 4 }),
            (
                "&budget=none",
                SimplificationConfig { node_budget: Some(MAX_RENDER_NODES), levels: 64 },
            ),
        ]
        .map(|(query, simplification)| {
            (
                measure.clone(),
                format!("/graphs/g/terrain?measure={name}&width=1000{query}"),
                simplification,
            )
        })
    })
    .collect();
    let mut served: Vec<Vec<u8>> =
        resized.iter().map(|(_, target, _)| ok(&state, target)).collect();
    assert_eq!(builds(&state), builds_before, "nothing was rebuilt after the no-op batch");
    assert_eq!(counter(&state, "render_trees", "hits"), hits_before + resized.len() as u64);

    // New budgets and level counts: render-tree misses, each one
    // snap-and-cap pass over the generation's retained super tree.
    let super_hits_before = counter(&state, "super_trees", "hits");
    let resimplified: Vec<(Measure, String, SimplificationConfig)> = [
        (Measure::KCore, "kcore"),
        (Measure::PageRank, "pagerank"),
        (Measure::EdgeTriangles, "edge-triangles"),
    ]
    .into_iter()
    .flat_map(|(measure, name)| {
        [
            ("budget=6", SimplificationConfig { node_budget: Some(6), levels: 64 }),
            ("levels=3", SimplificationConfig { node_budget: Some(4000), levels: 3 }),
            ("budget=10&levels=5", SimplificationConfig { node_budget: Some(10), levels: 5 }),
        ]
        .map(|(query, simplification)| {
            (
                measure.clone(),
                format!("/graphs/g/terrain?measure={name}&width=1000&{query}"),
                simplification,
            )
        })
    })
    .collect();
    served.extend(resimplified.iter().map(|(_, target, _)| ok(&state, target)));
    let [super_trees, render_trees, scenes] = builds_before;
    let new_trees = resimplified.len() as u64;
    assert_eq!(builds(&state), [super_trees, render_trees + new_trees, scenes]);
    assert_eq!(counter(&state, "super_trees", "hits"), super_hits_before + new_trees);
    // New tile keys: artifact misses cut from the retained scene.
    let scene_hits_before = counter(&state, "scenes", "hits");
    let new_tiles: Vec<String> = ["kcore", "pagerank", "edge-triangles"]
        .into_iter()
        .flat_map(|name| {
            [
                format!("/graphs/g/tiles/2/3/1?measure={name}"),
                format!("/graphs/g/tiles/2/0/2?measure={name}&format=scene"),
            ]
        })
        .collect();
    let tiles: Vec<Vec<u8>> = new_tiles.iter().map(|target| ok(&state, target)).collect();
    assert_eq!(counter(&state, "scenes", "hits"), scene_hits_before + new_tiles.len() as u64);
    assert_eq!(builds(&state)[2], scenes, "no scene was rebuilt");

    // The final edge list, uploaded from scratch to a fresh server under
    // the same id (peaks echo it), and rendered by the library.
    let final_list = edge_list(&edges);
    let fresh = AppState::new(ServerConfig::default());
    post(&fresh, "/graphs?id=g", &final_list);
    let final_graph = SharedGraph::new(GraphSource::reader(&final_list[..]).load().unwrap().graph);
    for ((measure, target, simplification), bytes) in
        resized.iter().chain(&resimplified).zip(&served)
    {
        assert!(ok(&fresh, target) == *bytes, "{target}");
        let mut session = TerrainPipeline::from_shared(final_graph.clone(), measure.clone());
        session.set_simplification(*simplification);
        let exporter = terrain::exporter_by_name_sized("svg", 1000.0, 700.0).unwrap();
        let mut library = Vec::new();
        session.render_deterministic_to(exporter.as_ref(), &mut library).unwrap();
        assert!(library == *bytes, "{target} against the library render");
    }
    for (target, bytes) in new_tiles.iter().zip(&tiles) {
        assert!(ok(&fresh, target) == *bytes, "{target}");
    }
    for target in targets() {
        assert!(ok(&state, &target) == ok(&fresh, &target), "{target}");
    }
}

#[test]
fn a_render_tree_is_built_once_per_measure_budget_and_levels() {
    let graph = SharedGraph::new(ugraph::generators::barabasi_albert(300, 2, 9));
    let state = state_with(&graph);
    let render_trees = || counter(&state, "render_trees", "builds");
    let terrain = |query: &str| ok(&state, &format!("/graphs/g/terrain?measure=pagerank&{query}"));

    terrain("width=640");
    terrain("width=800&height=600");
    terrain("width=900&color=degree");
    terrain("format=json");
    ok(&state, "/graphs/g/peaks?measure=pagerank");
    assert_eq!(render_trees(), 1, "widths, color, exporter and peaks share one tree");
    terrain("budget=8");
    assert_eq!(render_trees(), 2, "a new budget builds one more");
    terrain("budget=8&width=640");
    terrain("levels=4");
    assert_eq!(render_trees(), 3, "a new level count builds one more");
    terrain("levels=4&width=1000");
    terrain("budget=4000&levels=64&width=1000");
    assert_eq!(render_trees(), 3);
    assert_eq!(counter(&state, "super_trees", "builds"), 1, "every tree starts from one");
    assert_eq!(counter(&state, "super_trees", "hits"), 2, "the new budget and level count");
    assert_eq!(counter(&state, "render_trees", "entries"), 3);
    assert_eq!(counter(&state, "render_trees", "uncacheable"), 0);
    // Each tree is charged its arena, which the totals include; the default
    // render tree fits its budget, so it is the super tree, charged twice.
    let tree_bytes = counter(&state, "render_trees", "bytes");
    assert!(tree_bytes >= 3 * 8 * graph.storage().vertex_count() as u64, "{tree_bytes}");
    let super_tree_bytes = counter(&state, "super_trees", "bytes");
    assert!(super_tree_bytes >= 8 * graph.storage().vertex_count() as u64);
    assert!(tree_bytes > super_tree_bytes, "the default render tree is the super tree");
    // A tile adds the scene, cut from the same super tree.
    ok(&state, "/graphs/g/tiles/0/0/0?measure=pagerank");
    assert_eq!(counter(&state, "super_trees", "builds"), 1);
    let scene_bytes = counter(&state, "scenes", "bytes");
    assert!(scene_bytes > 0);
    let retained = counter(&state, "retained", "bytes");
    assert_eq!(retained, tree_bytes + super_tree_bytes + scene_bytes);
    assert_eq!(counter(&state, "retained", "entries"), 5);
}

#[test]
fn budget_none_is_the_node_cap() {
    // 60 000 vertices, nearly all isolated: 59 999 roots, far over the
    // default budget but under the cap.
    let mut builder = ugraph::GraphBuilder::new();
    builder.add_edge(0u32, 1u32);
    builder.ensure_vertex(59_999u32);
    let state = state_with(&SharedGraph::new(builder.build()));
    let none = routes::handle(&state, &get("/graphs/g/terrain?budget=none&format=json"));
    let cap = format!("/graphs/g/terrain?budget={MAX_RENDER_NODES}&format=json");
    let capped = routes::handle(&state, &get(&cap));
    assert_eq!((none.status, capped.status), (200, 200));
    assert_eq!(none.header_value("etag"), capped.header_value("etag"), "one key");
    assert_eq!(capped.header_value("x-cache"), Some("hit"));
    assert!(none.body == capped.body);
    assert_eq!(counter(&state, "render_trees", "builds"), 1);
    let over = format!("/graphs/g/terrain?budget={}", MAX_RENDER_NODES + 1);
    assert_eq!(routes::handle(&state, &get(&over)).status, 400);
}

#[test]
fn concurrent_cold_terrains_at_distinct_widths_build_one_field_and_one_tree() {
    const CLIENTS: usize = 8;
    // Large enough that PageRank and the tree chain outlast the requests'
    // arrival.
    let graph = SharedGraph::new(ugraph::generators::rmat(12, 20_000, 7));
    let state = state_with(&graph);
    let targets: Vec<String> = (0..CLIENTS)
        .map(|i| format!("/graphs/g/terrain?measure=pagerank&width={}&threads=2", 600 + 10 * i))
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
    // The render-tree build fetched its super tree through the same flight
    // table without deadlock, and the super tree computed the field once.
    assert_eq!(counter(&state, "super_trees", "builds"), 1);
    assert_eq!(counter(&state, "render_trees", "builds"), 1);
    let renders = stats(&state).get("stage_seconds").and_then(|s| s.get("renders")).cloned();
    assert_eq!(renders.and_then(|r| r.as_u64()), Some(CLIENTS as u64));
    assert_eq!(state.retained_flights.in_flight() + state.artifact_flights.in_flight(), 0);
    // Every response is what a sequential server serves.
    let sequential = state_with(&graph);
    for (target, body) in targets.iter().zip(&bodies) {
        assert!(ok(&sequential, target) == *body, "{target}");
    }
}
