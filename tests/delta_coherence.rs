//! Delta-coherence property test for the dynamic-graph subsystem: **any**
//! random sequence of delta batches (inserts, deletes, reweights, growth
//! into fresh vertices), chained through [`SharedGraph::apply_delta`] the
//! way the terrain server crosses a batch, must leave a graph whose fresh
//! session renders bit-identically to a from-scratch build over the final
//! edge list — exact `==` on the SVG bytes — for vertex and edge fields of
//! five measures (degree, edge-triangles, k-core, k-truss and PageRank),
//! over both the owned and the memory-mapped zero-copy backend, across
//! [`Parallelism::Serial`] and `Threads(2)`.
//!
//! The from-scratch oracle never touches the delta code: it replays the
//! batches against a plain `BTreeSet` edge model and rebuilds with
//! [`GraphBuilder`], exactly like uploading the final edge list.

use std::collections::BTreeSet;

use graph_terrain::prelude::*;
use proptest::collection;
use proptest::prelude::*;
use ugraph::delta::{DeltaOp, GraphDelta};
use ugraph::generators::barabasi_albert;
use ugraph::io::encode_binary_v3;
use ugraph::par::Parallelism;
use ugraph::{CsrGraph, GraphBuilder};

// Each proptest mention is an `(op, u, v)` triple; vertex ids range a
// little past the base graph's so batches both hit existing edges and grow
// the graph.
fn op_of(code: u8) -> DeltaOp {
    match code % 3 {
        0 => DeltaOp::Insert,
        1 => DeltaOp::Delete,
        _ => DeltaOp::Reweight,
    }
}

/// The measures under test — vertex and edge fields.
fn measures() -> [Measure; 5] {
    [Measure::Degree, Measure::EdgeTriangles, Measure::KCore, Measure::KTruss, Measure::PageRank]
}

/// Replay one batch against the plain edge-set model, mirroring the
/// documented batch semantics (last-wins dedup is [`GraphDelta`]'s job;
/// the model consumes the already-deduplicated changes).
fn replay(delta: &GraphDelta, edges: &mut BTreeSet<(u32, u32)>, vertex_count: &mut usize) {
    *vertex_count = (*vertex_count).max(delta.min_vertex_count());
    for change in delta.changes() {
        let key = (change.u.0, change.v.0);
        match change.op {
            DeltaOp::Insert => {
                edges.insert(key);
            }
            DeltaOp::Delete => {
                edges.remove(&key);
            }
            DeltaOp::Reweight => {}
        }
    }
}

/// From-scratch oracle: a builder build of the final edge list with every
/// mentioned vertex ensured.
fn rebuild(vertex_count: usize, edges: &BTreeSet<(u32, u32)>) -> CsrGraph {
    let mut b = GraphBuilder::new();
    if vertex_count > 0 {
        b.ensure_vertex(vertex_count as u32 - 1);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// The two storage backends a session can sit on: an owned CSR and the
/// zero-copy mapped view of the same graph's v3 snapshot.
fn backends(base: &CsrGraph) -> Vec<(&'static str, SharedGraph)> {
    let snapshot = encode_binary_v3(base, None).expect("encode v3 snapshot");
    let mapped = SharedGraph::from_snapshot_bytes(&snapshot).expect("map v3 snapshot");
    assert_eq!(mapped.backend_name(), "mapped", "snapshots must use the zero-copy backend");
    vec![("owned", SharedGraph::new(base.clone())), ("mapped", mapped)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_deltas_equal_fresh_build_through_svg_bytes(
        (n, m, seed) in (10usize..24, 2usize..4, 0u64..1_000),
        batches in collection::vec(collection::vec((0u8..3, 0u32..28, 0u32..28), 1..10), 1..4),
    ) {
        let base = barabasi_albert(n, m, seed);
        // Parse the proptest mentions into batches once; the same deltas
        // are applied to every (measure, backend, parallelism) combination.
        let deltas: Vec<GraphDelta> = batches
            .iter()
            .map(|mentions| {
                let mut delta = GraphDelta::new();
                for &(code, u, v) in mentions {
                    delta.push(op_of(code), u, v);
                }
                delta
            })
            .collect();
        let mut edges: BTreeSet<(u32, u32)> = base.edges().map(|e| (e.u.0, e.v.0)).collect();
        let mut vertex_count = base.vertex_count();
        for delta in &deltas {
            replay(delta, &mut edges, &mut vertex_count);
        }
        let final_graph = rebuild(vertex_count, &edges);

        // Chain the batches through each backend once, copy-on-write, as
        // the server's delta route does; every measure renders the result.
        let chained: Vec<(&str, SharedGraph)> = backends(&base)
            .into_iter()
            .map(|(backend, mut shared)| {
                for delta in &deltas {
                    shared.apply_delta(delta);
                }
                (backend, shared)
            })
            .collect();

        for measure in measures() {
            // The oracle renders once per measure, serially: determinism
            // across thread counts is part of what the comparison checks.
            let mut fresh = TerrainPipeline::from_shared(
                SharedGraph::new(final_graph.clone()),
                measure.clone(),
            );
            let reference = fresh.svg().unwrap().to_string();

            for (backend, shared) in &chained {
                for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                    let mut session =
                        TerrainPipeline::from_shared(shared.clone(), measure.clone());
                    session.set_parallelism(parallelism);
                    let context = format!(
                        "measure {}, backend {backend}, parallelism {parallelism}",
                        measure.name()
                    );
                    prop_assert_eq!(session.svg().unwrap(), reference.as_str(), "{}", context);
                }
            }
        }
    }
}
