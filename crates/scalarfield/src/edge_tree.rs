//! Edge scalar trees: the optimized Algorithm 3 and the naive dual-graph
//! method it replaces (Section II-C).
//!
//! Both methods produce a [`ScalarTree`] whose nodes are the *edges* of the
//! input graph. The naive method converts the edge scalar graph into its dual
//! (line) graph and runs Algorithm 1, which costs
//! `O(Σ_v deg(v)² · log|E| + |E| log |E|)` because the dual can be enormous.
//! Algorithm 3 avoids materializing the dual: thanks to Proposition 3, when
//! processing edge `e_i` it suffices to look at the *minimum-index incident
//! edge* of each of `e_i`'s two endpoints, giving `O(|E| log |E|)` overall.
//! Table II's `tc` vs `te` columns quantify exactly this gap.

use crate::scalar_graph::{EdgeScalarGraph, VertexScalarGraph};
use crate::vertex_tree::{processing_order, sweep, vertex_scalar_tree, ScalarTree};
use ugraph::{line_graph, EdgeId, GraphStorage};

/// Algorithm 3: build the edge scalar tree of an edge scalar graph in
/// `O(|E| log |E|)` without materializing the dual graph.
pub fn edge_scalar_tree<G: GraphStorage + ?Sized>(sg: &EdgeScalarGraph<'_, G>) -> ScalarTree {
    let graph = sg.graph();
    let scalar = sg.scalar();
    // Lines 2-3: for each vertex, its first-processed incident edge (highest
    // scalar, then lowest id). Isolated vertices are never an endpoint, so
    // their placeholder is never read.
    let first: Vec<u32> = graph
        .vertices()
        .map(|v| {
            let incident = graph.incident_edge_slice(v).iter().map(|e| e.0);
            incident.min_by(|&a, &b| processing_order(scalar, a, b)).unwrap_or(u32::MAX)
        })
        .collect();
    // Lines 5-9: the shared sweep, where the neighbours of edge `e` are the
    // first-processed incident edges of its two endpoints.
    sweep(scalar, |e| {
        let (u, v) = graph.endpoints(EdgeId(e));
        [first[u.index()], first[v.index()]]
    })
}

/// The naive edge-scalar-tree construction: build the dual (line) graph and
/// run Algorithm 1 on it.
///
/// Node `i` of the returned tree is the edge with id `i` of the original
/// graph, exactly as in [`edge_scalar_tree`], so the two results are directly
/// comparable. Kept as the baseline measured by the `te` column of Table II
/// and as a correctness oracle in tests.
pub fn edge_scalar_tree_naive<G: GraphStorage + ?Sized>(sg: &EdgeScalarGraph<'_, G>) -> ScalarTree {
    let dual = line_graph(sg.graph());
    // Dual vertex i corresponds to original edge i, so the scalar vector can
    // be reused as-is.
    let vsg = VertexScalarGraph::new(&dual.graph, sg.scalar())
        .expect("line graph has one vertex per original edge");
    vertex_scalar_tree(&vsg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{distinct_levels, maximal_alpha_edge_components};
    use crate::scalar_graph::EdgeScalarGraph;
    use crate::super_tree::build_super_tree;
    use std::collections::BTreeSet;
    use ugraph::{CsrGraph, GraphBuilder, UnionFind};

    /// Partition the edges with scalar >= alpha into groups connected in the
    /// given tree (the component partition the tree encodes at level alpha).
    fn tree_cut_partition(tree: &ScalarTree, alpha: f64) -> BTreeSet<BTreeSet<u32>> {
        let mut uf = UnionFind::new(tree.len());
        for node in 0..tree.len() as u32 {
            if tree.scalar(node) < alpha {
                continue;
            }
            if let Some(p) = tree.parent(node) {
                if tree.scalar(p) >= alpha {
                    uf.union(node as usize, p as usize);
                }
            }
        }
        let mut groups: std::collections::BTreeMap<usize, BTreeSet<u32>> = Default::default();
        for node in 0..tree.len() as u32 {
            if tree.scalar(node) >= alpha {
                groups.entry(uf.find(node as usize)).or_default().insert(node);
            }
        }
        groups.into_values().collect()
    }

    fn direct_partition(sg: &EdgeScalarGraph<'_>, alpha: f64) -> BTreeSet<BTreeSet<u32>> {
        maximal_alpha_edge_components(sg, alpha)
            .into_iter()
            .map(|c| c.edges.into_iter().map(|e| e.0).collect())
            .collect()
    }

    fn check_all_levels(graph: &CsrGraph, scalar: &[f64]) {
        let sg = EdgeScalarGraph::new(graph, scalar).unwrap();
        let fast = edge_scalar_tree(&sg);
        let naive = edge_scalar_tree_naive(&sg);
        assert!(fast.check_monotone().is_none());
        assert!(naive.check_monotone().is_none());
        for &alpha in &distinct_levels(scalar) {
            let expected = direct_partition(&sg, alpha);
            assert_eq!(tree_cut_partition(&fast, alpha), expected, "Algorithm 3 at alpha {alpha}");
            assert_eq!(
                tree_cut_partition(&naive, alpha),
                expected,
                "naive method at alpha {alpha}"
            );
        }
    }

    #[test]
    fn triangle_with_distinct_edge_scalars() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (0, 2)]);
        let g = b.build();
        check_all_levels(&g, &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn path_with_valley() {
        // Edge scalars 5, 1, 5 on a path: two separate peaks joined by a
        // low-scalar edge — the canonical two-peak terrain.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        check_all_levels(&g, &[5.0, 1.0, 5.0]);
    }

    #[test]
    fn star_with_duplicate_scalars() {
        let mut b = GraphBuilder::new();
        for leaf in 1..=5u32 {
            b.add_edge(0u32, leaf);
        }
        let g = b.build();
        check_all_levels(&g, &[2.0, 2.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn two_triangles_joined_by_a_bridge() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (0, 2)]); // triangle A: edges 0..3
        b.extend_edges([(3u32, 4u32), (4, 5), (3, 5)]); // triangle B
        b.add_edge(2, 3); // bridge
        let g = b.build();
        // Triangle A edges high, triangle B edges medium, bridge low.
        let mut scalar = vec![0.0; g.edge_count()];
        for e in g.edges() {
            let (u, v) = (e.u.0, e.v.0);
            scalar[e.id.index()] = if u <= 2 && v <= 2 {
                9.0
            } else if u >= 3 && v >= 3 {
                5.0
            } else {
                1.0
            };
        }
        check_all_levels(&g, &scalar);
    }

    #[test]
    fn disconnected_edge_graph() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(4, 5);
        let g = b.build();
        let scalar = vec![3.0, 2.0, 2.0];
        let sg = EdgeScalarGraph::new(&g, &scalar).unwrap();
        let tree = edge_scalar_tree(&sg);
        assert_eq!(tree.roots().len(), 3, "three edge components give three roots");
        check_all_levels(&g, &scalar);
    }

    #[test]
    fn random_graphs_match_naive_and_direct() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for seed in 0..6u64 {
            let g = ugraph::generators::erdos_renyi(24, 0.18, seed);
            if g.edge_count() == 0 {
                continue;
            }
            // Scalars from a small integer set to force plenty of duplicates.
            let scalar: Vec<f64> =
                (0..g.edge_count()).map(|_| rng.gen_range(0..5) as f64).collect();
            check_all_levels(&g, &scalar);
        }
    }

    #[test]
    fn super_tree_counts_match_between_methods() {
        // Even though the raw trees may differ in shape, the super trees must
        // describe the same component hierarchy; in particular they must have
        // the same number of super nodes and the same multiset of member sets.
        let g = ugraph::generators::erdos_renyi(30, 0.15, 3);
        let scalar: Vec<f64> = (0..g.edge_count()).map(|e| (e % 4) as f64).collect();
        let sg = EdgeScalarGraph::new(&g, &scalar).unwrap();
        let fast = build_super_tree(&edge_scalar_tree(&sg));
        let naive = build_super_tree(&edge_scalar_tree_naive(&sg));
        assert_eq!(fast.node_count(), naive.node_count());
        let sets = |t: &crate::super_tree::SuperScalarTree| -> BTreeSet<Vec<u32>> {
            (0..t.node_count() as u32).map(|n| t.members(n).to_vec()).collect()
        };
        assert_eq!(sets(&fast), sets(&naive));
    }

    #[test]
    fn empty_graph_gives_empty_tree() {
        let g = GraphBuilder::new().build();
        let scalar: Vec<f64> = vec![];
        let sg = EdgeScalarGraph::new(&g, &scalar).unwrap();
        assert!(edge_scalar_tree(&sg).is_empty());
        assert!(edge_scalar_tree_naive(&sg).is_empty());
    }

    #[test]
    fn proposition3_min_id_edge_suffices() {
        // Directly exercise the claim of Proposition 3 on a wheel graph: the
        // partition produced by Algorithm 3 (which only inspects min-id
        // incident edges) matches the direct component extraction at every
        // level even though vertices have many incident edges.
        let mut b = GraphBuilder::new();
        let hub = 0u32;
        for i in 1..=8u32 {
            b.add_edge(hub, i);
            b.add_edge(i, if i == 8 { 1 } else { i + 1 });
        }
        let g = b.build();
        let scalar: Vec<f64> =
            (0..g.edge_count()).map(|e| if e % 3 == 0 { 4.0 } else { (e % 3) as f64 }).collect();
        check_all_levels(&g, &scalar);
        // Sanity: the hub has high degree, so the naive dual here is much
        // denser than the original graph.
        let (_, e) = (g.vertex_count(), g.edge_count());
        assert!(ugraph::dual::estimated_dual_edges(&g) > e);
    }

    #[test]
    fn equal_edge_scalars_are_swept_in_id_order() {
        // Path edges e0 = (0, 1), e1 = (1, 2), e2 = (2, 3) with scalars 1, 1,
        // 9: the order is e2, e0, e1, so e0 is vertex 1's first edge and e1
        // joins e0 and e2. Sweeping e1 before e0 would give [None, 0, 1].
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = [1.0, 1.0, 9.0];
        let sg = EdgeScalarGraph::new(&g, &scalar).unwrap();
        assert_eq!(edge_scalar_tree(&sg).parents(), &[Some(1), None, Some(1)]);
        assert_eq!(edge_scalar_tree_naive(&sg).parents(), &[Some(1), None, Some(1)]);
    }
}
