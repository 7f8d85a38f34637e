//! Helpers shared by the serve integration suites: constructed requests,
//! the two-clique test graph and an in-process server state over it.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use graph_terrain::SharedGraph;
use serve::http::{parse_query, Method, Request};
use serve::routes;
use serve::state::{AppState, ServerConfig};
use ugraph::{CsrGraph, GraphBuilder};

/// Two cliques bridged by a path, plus pendants: enough structure for
/// every measure to vary and for tiles at zoom 1 to differ.
pub fn test_graph() -> CsrGraph {
    let mut builder = GraphBuilder::new();
    for (lo, hi) in [(0u32, 6u32), (6, 10)] {
        for u in lo..hi {
            for v in (u + 1)..hi {
                builder.add_edge(u, v);
            }
        }
    }
    builder.extend_edges([(5u32, 10u32), (10, 11), (11, 6), (0, 12), (12, 13), (7, 14)]);
    builder.build()
}

/// A default-config server state with `graph` registered as `g`.
pub fn state_with(graph: &SharedGraph) -> Arc<AppState> {
    let state = Arc::new(AppState::new(ServerConfig::default()));
    state.insert_graph(Some("g".into()), graph.clone()).unwrap();
    state
}

/// A `GET` of `target` (path plus optional query).
pub fn get(target: &str) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Request { method: Method::Get, path, query, headers: Vec::new(), body: Vec::new() }
}

/// The body of a `GET` of `target`, which must answer 200.
pub fn ok(state: &AppState, target: &str) -> Vec<u8> {
    let response = routes::handle(state, &get(target));
    assert_eq!(response.status, 200, "{target}: {}", String::from_utf8_lossy(&response.body));
    response.body.to_vec()
}

/// The `/stats` document.
pub fn stats(state: &AppState) -> serde_json::Value {
    serde_json::from_str(&String::from_utf8_lossy(&ok(state, "/stats"))).expect("stats are JSON")
}
