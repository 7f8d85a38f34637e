//! Incremental recomputation of measures after a graph delta.
//!
//! Inputs come from `ugraph::delta`: the compacted new graph, the
//! new-edge-id → base-edge-id remap, and the per-vertex *dirty* flags
//! (endpoints of every effective structural change). The update here
//! reuses as much of the old result as its measure's locality allows, and
//! it is **exact** — the output is identical to recomputing from scratch
//! on the new graph, which the unit tests assert directly.
//!
//! Locality tiers (see [`DeltaCost`]):
//!
//! - **Local** — per-edge triangle counts. An edge's count is
//!   `|N(u) ∩ N(v)|`, which changes only when `u` or `v` gains or loses a
//!   neighbor — i.e. when an endpoint is dirty. Everything else is copied
//!   through the edge remap.
//! - **Full** — degree, betweenness, closeness, PageRank, k-core and
//!   k-truss. A full degree count is one pass over the offsets, and
//!   recounting only the dirty vertices did not beat it on the ladder's
//!   batch. One edge can reroute shortest paths (or shift the stationary
//!   distribution) across the whole graph. Peeling is only
//!   connected-component local, and on R-MAT graphs a batch lands in the
//!   giant component, so re-peeling the touched components is a full peel
//!   and did not beat one. (PERFORMANCE.md, "Delta tiers", has both
//!   measurements.) All of these fall back to full recomputation.

use ugraph::delta::CompactedDelta;
use ugraph::par::Parallelism;
use ugraph::{EdgeId, GraphStorage, VertexId};

/// How much of a measure survives a delta: whether an update around the
/// dirty endpoints exists for it or it recomputes from scratch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaCost {
    /// Recomputed only around dirty endpoints (edge triangle counts).
    Local,
    /// Recomputed from scratch (degree, betweenness, closeness, PageRank,
    /// k-core, k-truss).
    Full,
}

impl DeltaCost {
    /// Stable lower-case name (`local` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            DeltaCost::Local => "local",
            DeltaCost::Full => "full",
        }
    }
}

/// Per-edge triangle counts after a delta: edges with a dirty endpoint are
/// recomputed on the new graph, all others copied from the old counts
/// through the `base_edge` remap.
///
/// Exact because an edge's count is `|N(u) ∩ N(v)|` over the endpoint
/// neighbor sets, and a non-dirty vertex's neighbor set is unchanged.
pub fn incremental_edge_triangle_counts<G: GraphStorage + ?Sized>(
    new_graph: &G,
    old_counts: &[usize],
    compacted: &CompactedDelta,
    parallelism: Parallelism,
) -> Vec<usize> {
    assert_eq!(compacted.base_edge.len(), new_graph.edge_count(), "edge remap length mismatch");
    // Recompute dirty-incident edges in one deterministic parallel pass over
    // the touched subset, then scatter; clean edges copy through the remap.
    let mut counts = vec![0usize; new_graph.edge_count()];
    let mut touched: Vec<EdgeId> = Vec::new();
    for e in new_graph.edges() {
        if compacted.dirty[e.u.index()] || compacted.dirty[e.v.index()] {
            touched.push(e.id);
        } else {
            let old = compacted.base_edge[e.id.index()]
                .expect("an edge with clean endpoints must survive from the base");
            counts[e.id.index()] = old_counts[old.index()];
        }
    }
    let recomputed = ugraph::par::map_collect(parallelism, touched.len(), |i| {
        let (u, v) = new_graph.endpoints(touched[i]);
        sorted_intersection_size(new_graph.neighbor_slice(u), new_graph.neighbor_slice(v))
    });
    for (e, c) in touched.iter().zip(recomputed) {
        counts[e.index()] = c;
    }
    counts
}

fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::edge_triangle_counts_with;
    use ugraph::delta::{apply, DeltaOp, GraphDelta};
    use ugraph::generators::rmat;
    use ugraph::CsrGraph;

    /// Apply a pseudo-random delta to `base`, returning the compaction.
    fn random_compaction(base: &CsrGraph, seed: u64, ops: usize) -> CompactedDelta {
        let mut state = seed | 1;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let span = (base.vertex_count() as u32).max(4) + 3;
        let mut delta = GraphDelta::new();
        for _ in 0..ops {
            let r = step();
            let u = (r >> 8) as u32 % span;
            let v = (r >> 40) as u32 % span;
            let op = if r % 2 == 0 { DeltaOp::Insert } else { DeltaOp::Delete };
            delta.push(op, u, v);
        }
        apply(base, &delta).1.expect("a random batch changes the graph")
    }

    fn check_triangle_counts(base: &CsrGraph, compacted: &CompactedDelta) {
        let new_graph = &compacted.graph;
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let old_tri = edge_triangle_counts_with(base, par);
            let inc_tri = incremental_edge_triangle_counts(new_graph, &old_tri, compacted, par);
            assert_eq!(inc_tri, edge_triangle_counts_with(new_graph, par));
        }
    }

    #[test]
    fn incremental_matches_full_recompute_on_random_deltas() {
        for seed in [3u64, 17, 99] {
            let base = rmat(6, 150, seed);
            let compacted = random_compaction(&base, seed.wrapping_mul(0x9e37), 40);
            check_triangle_counts(&base, &compacted);
        }
    }

    #[test]
    fn empty_delta_copies_everything() {
        let base = rmat(5, 60, 7);
        // `apply` reports an empty batch as no change; the identity
        // compaction is what it would stand for.
        assert!(apply(&base, &GraphDelta::new()).1.is_none());
        let compacted = CompactedDelta {
            graph: base.clone(),
            base_edge: (0..base.edge_count()).map(|e| Some(EdgeId::from_index(e))).collect(),
            dirty: vec![false; base.vertex_count()],
        };
        check_triangle_counts(&base, &compacted);
        // With no dirty vertices the triangle pass recomputes nothing.
        let old_tri = edge_triangle_counts_with(&base, Parallelism::Serial);
        let inc = incremental_edge_triangle_counts(
            &compacted.graph,
            &old_tri,
            &compacted,
            Parallelism::Serial,
        );
        assert_eq!(inc, old_tri);
    }

    #[test]
    fn vertex_growth_extends_results() {
        let base = rmat(4, 30, 11);
        let mut delta = GraphDelta::new();
        let far = base.vertex_count() as u32 + 5;
        delta.push(DeltaOp::Insert, 0, far);
        delta.push(DeltaOp::Insert, far + 2, far + 2); // isolated mention
        let compacted = apply(&base, &delta).1.expect("the batch grows the graph");
        assert_eq!(compacted.graph.vertex_count(), far as usize + 3);
        check_triangle_counts(&base, &compacted);
    }

    #[test]
    fn delta_cost_names_are_stable() {
        assert_eq!(DeltaCost::Local.name(), "local");
        assert_eq!(DeltaCost::Full.name(), "full");
    }
}
