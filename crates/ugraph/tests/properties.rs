//! Property-based tests for the graph substrate: CSR structural invariants,
//! union–find correctness against a naive oracle, line-graph size identities,
//! I/O round-trips for arbitrary graphs, and delta batches against a
//! from-scratch build.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use ugraph::delta::{apply, DeltaOp, GraphDelta};
use ugraph::dual::{estimated_dual_edges, line_graph};
use ugraph::generators::{lfr, rmat, rmat_with, RmatConfig};
use ugraph::io::{
    decode_binary_v3, encode_binary_v3, read_edge_list, write_edge_list, write_edge_list_weighted,
    MappedCsrGraph,
};
use ugraph::{connected_components, CsrGraph, GraphBuilder, GraphStorage, UnionFind, VertexId};

fn arbitrary_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(4 * n));
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertex(n - 1);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants: degree sums to twice the edge count, neighbor lists are
    /// sorted and self-loop free, every edge appears in both endpoints' lists,
    /// and `find_edge` agrees with membership.
    #[test]
    fn csr_structure_is_consistent((n, edges) in arbitrary_edges(40)) {
        let g = build(n, &edges);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for v in g.vertices() {
            let nbrs = g.neighbor_slice(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
            prop_assert!(!nbrs.contains(&v), "no self loops");
        }
        for e in g.edges() {
            prop_assert!(g.neighbor_slice(e.u).contains(&e.v));
            prop_assert!(g.neighbor_slice(e.v).contains(&e.u));
            prop_assert_eq!(g.find_edge(e.u, e.v), Some(e.id));
            prop_assert_eq!(g.find_edge(e.v, e.u), Some(e.id));
        }
    }

    /// Union–find agrees with connectivity computed by BFS: after unioning the
    /// graph's edges, two vertices share a set iff they share a component.
    #[test]
    fn union_find_matches_connected_components((n, edges) in arbitrary_edges(40)) {
        let g = build(n, &edges);
        let mut uf = UnionFind::new(g.vertex_count());
        for e in g.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        let cc = connected_components(&g);
        prop_assert_eq!(uf.set_count(), cc.count);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                prop_assert_eq!(
                    uf.same_set(u, v),
                    cc.same_component(VertexId::from_index(u), VertexId::from_index(v))
                );
            }
        }
    }

    /// Line-graph identities: |Vd| = |E|; |Ed| equals Σ C(deg,2) minus the
    /// number of triangles (each triangle collapses three duplicate pairs into
    /// three distinct ones... precisely: duplicates happen only when two edges
    /// share *two* vertices, which simple graphs forbid, so the estimate is
    /// exact).
    #[test]
    fn line_graph_sizes_match_formula((n, edges) in arbitrary_edges(28)) {
        let g = build(n, &edges);
        let dual = line_graph(&g);
        prop_assert_eq!(dual.graph.vertex_count(), g.edge_count());
        prop_assert_eq!(dual.graph.edge_count(), estimated_dual_edges(&g));
        // Adjacency in the dual means sharing an endpoint in the original.
        for e in dual.graph.edges() {
            let (a1, a2) = g.endpoints(ugraph::EdgeId(e.u.0));
            let (b1, b2) = g.endpoints(ugraph::EdgeId(e.v.0));
            prop_assert!(a1 == b1 || a1 == b2 || a2 == b1 || a2 == b2);
        }
    }

    /// Text and binary serialization round-trip to the identical graph.
    #[test]
    fn io_round_trips((n, edges) in arbitrary_edges(40)) {
        let g = build(n, &edges);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let parsed = read_edge_list(text.as_slice()).unwrap();
        // Vertex count can differ when trailing vertices are isolated (the
        // text format does not record them), so compare edge sets.
        let edges_of = |g: &CsrGraph| -> Vec<(u32, u32)> {
            g.edges().map(|e| (e.u.0, e.v.0)).collect()
        };
        prop_assert_eq!(edges_of(&parsed.graph), edges_of(&g));

        // The binary snapshot keeps isolated trailing vertices, so the whole
        // graph compares equal — through both the owned and the mapped open.
        let blob = encode_binary_v3(&g, None).unwrap();
        prop_assert_eq!(&decode_binary_v3(&blob).unwrap().graph, &g);
        prop_assert_eq!(MappedCsrGraph::from_bytes(&blob).unwrap().to_csr_graph(), g);
    }

    /// The weighted edge-list writer and the binary v3 snapshot both
    /// round-trip arbitrary graphs *and* arbitrary finite weights exactly —
    /// same graph, bit-identical weights — end-to-end through the readers.
    #[test]
    fn weighted_round_trips_are_lossless(
        (n, edges) in arbitrary_edges(40),
        raw_bits in proptest::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let g = build(n, &edges);
        // One weight per canonical edge: arbitrary finite bit patterns
        // (subnormals included), with non-finite draws replaced by fixed
        // values that have long decimal expansions.
        let awkward = [0.1 + 0.2, 1.0 / 3.0, -1e-17, f64::MIN_POSITIVE];
        let weights: Vec<f64> = (0..g.edge_count())
            .map(|i| {
                let w = f64::from_bits(raw_bits[i % raw_bits.len()]);
                if w.is_finite() && i % 3 != 0 { w } else { awkward[i % awkward.len()] }
            })
            .collect();
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

        // Text: write → read preserves the edge set and every weight bit.
        let mut text = Vec::new();
        write_edge_list_weighted(&g, &weights, &mut text).unwrap();
        let parsed = read_edge_list(text.as_slice()).unwrap();
        let edges_of = |g: &CsrGraph| -> Vec<(u32, u32)> {
            g.edges().map(|e| (e.u.0, e.v.0)).collect()
        };
        prop_assert_eq!(edges_of(&parsed.graph), edges_of(&g));
        if g.edge_count() > 0 {
            prop_assert_eq!(bits(&parsed.edge_weights.unwrap()), bits(&weights));
        }

        // Binary v3: the snapshot also preserves isolated trailing vertices,
        // so the whole graph compares equal, and both openers agree on the
        // graph and on every weight bit.
        let blob = encode_binary_v3(&g, Some(&weights)).unwrap();
        let owned = decode_binary_v3(&blob).unwrap();
        prop_assert_eq!(&owned.graph, &g);
        prop_assert_eq!(bits(&owned.edge_weights.unwrap()), bits(&weights));
        let mapped = MappedCsrGraph::from_bytes(&blob).unwrap();
        prop_assert_eq!(&mapped.to_csr_graph(), &g);
        prop_assert_eq!(bits(mapped.edge_weights().unwrap()), bits(&weights));

        // And an unweighted v3 snapshot round-trips the bare graph.
        let bare = decode_binary_v3(&encode_binary_v3(&g, None).unwrap()).unwrap();
        prop_assert_eq!(bare.graph, g);
        prop_assert!(bare.edge_weights.is_none());
    }

    /// Arbitrary builder output satisfies every invariant `check_invariants`
    /// verifies — the check must never reject a safely constructed graph.
    #[test]
    fn builder_output_passes_check_invariants((n, edges) in arbitrary_edges(40)) {
        let g = build(n, &edges);
        prop_assert!(g.check_invariants().is_ok());
    }

    /// Generator determinism: the same seed yields bit-identical edge lists,
    /// and the generated graphs pass the full CSR invariant check.
    #[test]
    fn rmat_is_deterministic_and_well_formed(
        scale in 2u32..9,
        edges in 1usize..2_000,
        seed in 0u64..1_000,
    ) {
        let edge_list = |g: &CsrGraph| -> Vec<(u32, u32)> {
            g.edges().map(|e| (e.u.0, e.v.0)).collect()
        };
        let a = rmat(scale, edges, seed);
        let b = rmat(scale, edges, seed);
        prop_assert_eq!(edge_list(&a), edge_list(&b));
        prop_assert_eq!(&a, &b);
        prop_assert!(a.check_invariants().is_ok());
        prop_assert_eq!(a.vertex_count(), 1usize << scale);
        prop_assert!(a.edge_count() <= edges);
    }

    /// Same property for the LFR-style generator, plus labelling consistency.
    #[test]
    fn lfr_is_deterministic_and_well_formed(
        n in 50usize..400,
        mu_percent in 0usize..=100,
        seed in 0u64..1_000,
    ) {
        let mu = mu_percent as f64 / 100.0;
        let edge_list = |g: &CsrGraph| -> Vec<(u32, u32)> {
            g.edges().map(|e| (e.u.0, e.v.0)).collect()
        };
        let a = lfr(n, mu, seed);
        let b = lfr(n, mu, seed);
        prop_assert_eq!(edge_list(&a.graph), edge_list(&b.graph));
        prop_assert_eq!(&a.community, &b.community);
        prop_assert!(a.graph.check_invariants().is_ok());
        prop_assert_eq!(a.graph.vertex_count(), n);
        prop_assert_eq!(a.community.len(), n);
        prop_assert!(a.community.iter().all(|&c| c < a.community_count));
    }

    /// RMAT quadrant probabilities are normalized: scaling all four by a
    /// common factor never changes the sampled graph.
    #[test]
    fn rmat_probabilities_are_scale_free(
        seed in 0u64..500,
        factor_tenths in 1usize..50,
    ) {
        let factor = factor_tenths as f64 / 10.0;
        let base = RmatConfig::graph500(7, 800, seed);
        let scaled = RmatConfig {
            a: base.a * factor,
            b: base.b * factor,
            c: base.c * factor,
            d: base.d * factor,
            ..base.clone()
        };
        prop_assert_eq!(rmat_with(&base), rmat_with(&scaled));
    }

    /// Induced subgraphs keep exactly the edges with both endpoints retained.
    #[test]
    fn induced_subgraph_edge_filtering((n, edges) in arbitrary_edges(30), mask_seed in 0u64..1000) {
        let g = build(n, &edges);
        let keep: Vec<bool> = (0..g.vertex_count())
            .map(|v| (v as u64).wrapping_mul(2654435761).wrapping_add(mask_seed) % 3 != 0)
            .collect();
        let (sub, back) = g.induced_subgraph(&keep);
        let expected = g
            .edges()
            .filter(|e| keep[e.u.index()] && keep[e.v.index()])
            .count();
        prop_assert_eq!(sub.edge_count(), expected);
        prop_assert_eq!(sub.vertex_count(), keep.iter().filter(|&&k| k).count());
        // Every subgraph edge maps back to an original edge.
        for e in sub.edges() {
            let (u, v) = (back[e.u.index()], back[e.v.index()]);
            prop_assert!(g.has_edge(u, v));
        }
    }

    /// A chain of arbitrary batches (fresh vertices, self loops, redundant
    /// inserts, absent deletes, reweights, repeated mentions) applied to
    /// the owned graph and to a mapped snapshot of it gives the graph a
    /// from-scratch build of the final edge list gives, and `apply` returns
    /// `None` exactly when no edge toggled and no vertex was added.
    #[test]
    fn delta_chains_match_a_from_scratch_build(
        (n, edges, batches) in arbitrary_edges(20).prop_flat_map(|(n, edges)| {
            let span = n as u32 + 4;
            let batch = proptest::collection::vec((0u8..3, 0..span, 0..span), 0..12);
            (Just(n), Just(edges), proptest::collection::vec(batch, 1..6))
        })
    ) {
        check_delta_chain(n, &edges, batches);
    }

    /// The same check over sparse batches (at most 12 changes) on graphs
    /// of up to ~200 vertices, with a few vertices past the base in reach:
    /// most vertex blocks and edge ids stay untouched in long runs, and
    /// batches often add vertices past the base, with edges or (through
    /// self loops and absent deletes) without.
    #[test]
    fn sparse_delta_chains_match_a_from_scratch_build(
        (n, edges, batches) in arbitrary_edges(200).prop_flat_map(|(n, edges)| {
            let span = n as u32 + 8;
            let batch = proptest::collection::vec((0u8..3, 0..span, 0..span), 0..13);
            (Just(n), Just(edges), proptest::collection::vec(batch, 1..6))
        })
    ) {
        check_delta_chain(n, &edges, batches);
    }
}

/// Apply a chain of `(op, u, v)` batches, `op` indexing insert / delete /
/// reweight, to the graph of `edges` on `n` vertices, owned and as a mapped
/// snapshot, and check each step against a from-scratch build of the final
/// edge list; `apply` must return `None` exactly when no edge toggled and
/// no vertex was added.
fn check_delta_chain(n: usize, edges: &[(u32, u32)], batches: Vec<Vec<(u8, u32, u32)>>) {
    let mut graph = build(n, edges);
    let mut oracle: BTreeSet<(u32, u32)> = graph.edges().map(|e| (e.u.0, e.v.0)).collect();
    for batch in batches {
        let mut delta = GraphDelta::new();
        // The oracle's own last-wins dedup, and its own vertex count.
        let mut last = BTreeMap::new();
        let mut vertex_count = graph.vertex_count();
        for (op, u, v) in batch {
            let op = [DeltaOp::Insert, DeltaOp::Delete, DeltaOp::Reweight][op as usize];
            delta.push(op, u, v);
            vertex_count = vertex_count.max(u.max(v) as usize + 1);
            if u != v {
                last.insert((u.min(v), u.max(v)), op);
            }
        }
        let mut toggled = 0;
        for (edge, op) in last {
            toggled += usize::from(match op {
                DeltaOp::Insert => oracle.insert(edge),
                DeltaOp::Delete => oracle.remove(&edge),
                DeltaOp::Reweight => false,
            });
        }
        let expected = build(vertex_count, &oracle.iter().copied().collect::<Vec<_>>());
        let grew = vertex_count > graph.vertex_count();

        let mapped = MappedCsrGraph::from_bytes(&encode_binary_v3(&graph, None).unwrap()).unwrap();
        let (mapped_stats, from_mapped) = apply(&mapped, &delta);
        let (stats, owned) = apply(&graph, &delta);
        prop_assert_eq!(mapped_stats, stats);
        prop_assert_eq!(stats.structural_changes(), toggled);
        prop_assert_eq!(owned.is_none(), toggled == 0 && !grew);
        prop_assert_eq!(from_mapped.is_none(), owned.is_none());
        prop_assert_eq!(&from_mapped.unwrap_or_else(|| mapped.to_csr_graph()), &expected);
        graph = owned.unwrap_or(graph);
        prop_assert_eq!(&graph, &expected);
    }
}
