//! Incremental recomputation of measures after a graph delta.
//!
//! Inputs come from `ugraph::delta`: the compacted new graph, the
//! new-edge-id → base-edge-id remap, and the per-vertex *dirty* flags
//! (endpoints of every effective structural change). Each function here
//! reuses as much of the old result as its measure's locality allows, and
//! each is **exact** — the output is identical to recomputing from scratch
//! on the new graph, which the unit tests assert directly.
//!
//! Locality tiers (see [`DeltaCost`]):
//!
//! - **Local** — degree and triangle counts. A vertex's degree changes only
//!   when an incident edge changes (its endpoint is dirty); an edge's
//!   triangle count is `|N(u) ∩ N(v)|`, which changes only when `u` or `v`
//!   gains or loses a neighbor — i.e. when an endpoint is dirty. Everything
//!   else is copied through the edge remap.
//! - **DirtyRegion** — k-core and k-truss. Peeling is connected-component
//!   local: a component of the *new* graph containing no dirty vertex
//!   consists entirely of vertices whose incident edge sets are unchanged,
//!   so its old values still hold; only components touching dirty vertices
//!   are re-peeled (on their induced subgraph, or directly on the new graph
//!   when the dirty region is the majority of it — extracting an induced
//!   copy of most of the graph costs more than it saves). On a single
//!   connected component this degrades to a full re-peel — the honest
//!   worst case.
//! - **Full** — betweenness, closeness, PageRank. One edge can reroute
//!   shortest paths (or shift the stationary distribution) across the whole
//!   graph, so these fall back to full recomputation; the caller reports
//!   them as such.

use ugraph::delta::CompactedDelta;
use ugraph::par::Parallelism;
use ugraph::{connected_components, EdgeId, GraphStorage, VertexId};

use crate::kcore::{core_numbers, KCoreDecomposition};
use crate::ktruss::{truss_numbers_with, KTrussDecomposition};

/// How much of a measure survives a delta: the per-measure entry of the
/// delta report.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaCost {
    /// Recomputed only around dirty endpoints (degree, triangle counts).
    Local,
    /// Re-peeled only on connected components containing dirty vertices
    /// (k-core, k-truss).
    DirtyRegion,
    /// Recomputed from scratch — the measure is global (betweenness,
    /// closeness, PageRank).
    Full,
}

impl DeltaCost {
    /// Stable lower-case name (`local` / `dirty-region` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            DeltaCost::Local => "local",
            DeltaCost::DirtyRegion => "dirty-region",
            DeltaCost::Full => "full",
        }
    }
}

/// Degrees after a delta: dirty (and new) vertices are recounted, the rest
/// copied from `old_degrees` (indexed by the unchanged vertex ids).
///
/// Exact because a vertex's degree can only change when one of its incident
/// edges changes, which flags it dirty.
pub fn incremental_degrees<G: GraphStorage + ?Sized>(
    new_graph: &G,
    old_degrees: &[usize],
    dirty: &[bool],
) -> Vec<usize> {
    assert_eq!(dirty.len(), new_graph.vertex_count(), "dirty mask length mismatch");
    (0..new_graph.vertex_count())
        .map(|v| {
            if v < old_degrees.len() && !dirty[v] {
                old_degrees[v]
            } else {
                new_graph.degree(VertexId::from_index(v))
            }
        })
        .collect()
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

/// Per-vertex triangle counts derived from (incrementally maintained)
/// per-edge counts: each triangle through `v` uses two incident edges.
pub fn vertex_triangle_counts_from_edges<G: GraphStorage + ?Sized>(
    graph: &G,
    edge_counts: &[usize],
    parallelism: Parallelism,
) -> Vec<usize> {
    assert_eq!(edge_counts.len(), graph.edge_count(), "edge counts length mismatch");
    ugraph::par::map_collect(parallelism, graph.vertex_count(), |v| {
        let sum: usize = graph
            .incident_edge_slice(VertexId::from_index(v))
            .iter()
            .map(|e| edge_counts[e.index()])
            .sum();
        sum / 2
    })
}

/// K-core decomposition after a delta: components of the new graph that
/// contain a dirty vertex are re-peeled on their induced subgraph; every
/// other vertex keeps its old core number.
///
/// Exact because peeling is component-local and a component with no dirty
/// vertex has an identical edge set (and thus identical peel) in both
/// graphs. A new vertex in a clean component is necessarily isolated
/// (anything that gave it an edge would have flagged it dirty): core 0.
pub fn incremental_core_numbers<G: GraphStorage + ?Sized>(
    new_graph: &G,
    old: &KCoreDecomposition,
    dirty: &[bool],
) -> KCoreDecomposition {
    assert_eq!(dirty.len(), new_graph.vertex_count(), "dirty mask length mismatch");
    let components = connected_components(new_graph);
    let keep = dirty_component_mask(&components.label, components.count, dirty);
    if keep.iter().all(|&k| !k) {
        // No component touched: copy, extending with isolated new vertices.
        let mut core = old.core.clone();
        core.resize(new_graph.vertex_count(), 0);
        return KCoreDecomposition { core, degeneracy: old.degeneracy };
    }
    let in_region: Vec<bool> = components.label.iter().map(|&c| keep[c]).collect();
    // When the dirty region is most of the graph, extracting the induced
    // subgraph costs more than it saves — peel the new graph directly
    // (still exact; this is the documented single-component worst case).
    if in_region.iter().filter(|&&r| r).count() * 2 > new_graph.vertex_count() {
        return core_numbers(new_graph);
    }
    let (sub, back) = new_graph.induced_subgraph(&in_region);
    let sub_cores = core_numbers(&sub);
    let mut core = vec![0usize; new_graph.vertex_count()];
    for v in 0..new_graph.vertex_count() {
        if !in_region[v] {
            core[v] = if v < old.core.len() {
                old.core[v]
            } else {
                debug_assert_eq!(new_graph.degree(VertexId::from_index(v)), 0);
                0
            };
        }
    }
    for (sub_v, &orig) in back.iter().enumerate() {
        core[orig.index()] = sub_cores.core[sub_v];
    }
    let degeneracy = core.iter().copied().max().unwrap_or(0);
    KCoreDecomposition { core, degeneracy }
}

/// K-truss decomposition after a delta: same dirty-component strategy as
/// [`incremental_core_numbers`], but per edge. Edges in clean components
/// copy their old truss number through the `base_edge` remap; edges in
/// touched components get the re-peeled value of the induced subgraph.
pub fn incremental_truss_numbers<G: GraphStorage + ?Sized>(
    new_graph: &G,
    old: &KTrussDecomposition,
    compacted: &CompactedDelta,
    parallelism: Parallelism,
) -> KTrussDecomposition {
    assert_eq!(compacted.base_edge.len(), new_graph.edge_count(), "edge remap length mismatch");
    let components = connected_components(new_graph);
    let keep = dirty_component_mask(&components.label, components.count, &compacted.dirty);
    let in_region: Vec<bool> = components.label.iter().map(|&c| keep[c]).collect();
    // Same bail-out as the k-core path: a majority-dirty graph re-peels
    // directly rather than through an induced copy of itself.
    if in_region.iter().filter(|&&r| r).count() * 2 > new_graph.vertex_count() {
        return truss_numbers_with(new_graph, parallelism);
    }
    let mut truss = vec![0usize; new_graph.edge_count()];
    for e in new_graph.edges() {
        if !in_region[e.u.index()] {
            let old_e = compacted.base_edge[e.id.index()]
                .expect("an edge in a clean component must survive from the base");
            truss[e.id.index()] = old.truss[old_e.index()];
        }
    }
    if keep.iter().any(|&k| k) {
        let (sub, back) = new_graph.induced_subgraph(&in_region);
        let sub_truss = truss_numbers_with(&sub, parallelism);
        for e in sub.edges() {
            let (u, v) = (back[e.u.index()], back[e.v.index()]);
            let orig =
                new_graph.find_edge(u, v).expect("induced subgraph edges exist in the full graph");
            truss[orig.index()] = sub_truss.truss[e.id.index()];
        }
    }
    let max_truss = truss.iter().copied().max().unwrap_or(0);
    KTrussDecomposition { truss, max_truss }
}

/// Per-component flags: `true` for components containing a dirty vertex.
fn dirty_component_mask(label: &[usize], count: usize, dirty: &[bool]) -> Vec<bool> {
    let mut keep = vec![false; count];
    for (v, &c) in label.iter().enumerate() {
        if dirty[v] {
            keep[c] = true;
        }
    }
    keep
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
    use crate::degree::degrees;
    use crate::triangles::{edge_triangle_counts_with, vertex_triangle_counts_with};
    use ugraph::delta::{apply, DeltaApplyStats, DeltaOp, GraphDelta};
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

    fn check_all_measures(base: &CsrGraph, compacted: &CompactedDelta) {
        let new_graph = &compacted.graph;
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let inc_deg = incremental_degrees(new_graph, &degrees(base), &compacted.dirty);
            assert_eq!(inc_deg, degrees(new_graph));

            let old_tri = edge_triangle_counts_with(base, par);
            let inc_tri = incremental_edge_triangle_counts(new_graph, &old_tri, compacted, par);
            assert_eq!(inc_tri, edge_triangle_counts_with(new_graph, par));

            let vt = vertex_triangle_counts_from_edges(new_graph, &inc_tri, par);
            assert_eq!(vt, vertex_triangle_counts_with(new_graph, par));

            let inc_core =
                incremental_core_numbers(new_graph, &core_numbers(base), &compacted.dirty);
            let full_core = core_numbers(new_graph);
            assert_eq!(inc_core.core, full_core.core);
            assert_eq!(inc_core.degeneracy, full_core.degeneracy);

            let inc_truss = incremental_truss_numbers(
                new_graph,
                &truss_numbers_with(base, par),
                compacted,
                par,
            );
            let full_truss = truss_numbers_with(new_graph, par);
            assert_eq!(inc_truss.truss, full_truss.truss);
            assert_eq!(inc_truss.max_truss, full_truss.max_truss);
        }
    }

    #[test]
    fn incremental_matches_full_recompute_on_random_deltas() {
        for seed in [3u64, 17, 99] {
            let base = rmat(6, 150, seed);
            let compacted = random_compaction(&base, seed.wrapping_mul(0x9e37), 40);
            check_all_measures(&base, &compacted);
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
            stats: DeltaApplyStats::default(),
        };
        check_all_measures(&base, &compacted);
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
        check_all_measures(&base, &compacted);
    }

    #[test]
    fn delta_cost_names_are_stable() {
        assert_eq!(DeltaCost::Local.name(), "local");
        assert_eq!(DeltaCost::DirtyRegion.name(), "dirty-region");
        assert_eq!(DeltaCost::Full.name(), "full");
    }
}
