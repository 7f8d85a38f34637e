//! Property-based tests for the scalar-tree pipeline.
//!
//! These exercise the paper's theorems on randomly generated scalar graphs:
//! for arbitrary graphs and scalar fields (with plenty of duplicate values),
//! the super scalar tree built by Algorithms 1–3 must describe exactly the
//! maximal α-(edge-)connected components the direct extraction finds, at every
//! distinct scalar level.

use proptest::prelude::*;
use scalarfield::{
    build_super_tree, component_members_at_alpha, components_at_alpha, edge_scalar_tree,
    edge_scalar_tree_naive, maximal_alpha_components, maximal_alpha_edge_components,
    mcc_of_element, simplify_super_tree, vertex_scalar_tree, EdgeScalarGraph, SuperScalarTree,
    VertexScalarGraph,
};
use std::collections::BTreeSet;
use ugraph::{CsrGraph, GraphBuilder, VertexId};

/// Naive recursive oracle for the arena accessors: collect the members of the
/// subtree rooted at `node` by walking children lists, no arena tricks.
fn oracle_subtree_members(tree: &SuperScalarTree, node: u32, out: &mut Vec<u32>) {
    out.extend_from_slice(tree.members(node));
    for &c in tree.children(node) {
        oracle_subtree_members(tree, c, out);
    }
}

/// The arena accessors must agree with the naive recursive oracle on every
/// node: `subtree_members` / `subtree_member_count(s)` / `subtree_member_slice`.
fn assert_arena_roundtrip(tree: &SuperScalarTree) {
    tree.check_invariants().unwrap();
    let counts = tree.subtree_member_counts();
    for node in 0..tree.node_count() as u32 {
        let mut expected = Vec::new();
        oracle_subtree_members(tree, node, &mut expected);
        expected.sort_unstable();
        assert_eq!(tree.subtree_members(node), expected, "subtree_members({node})");
        assert_eq!(tree.subtree_member_count(node), expected.len());
        assert_eq!(counts[node as usize], expected.len());
        let mut slice = tree.subtree_member_slice(node).to_vec();
        slice.sort_unstable();
        assert_eq!(slice, expected, "subtree_member_slice({node})");
    }
}

/// Definition-based oracle for the sweep's parent pointers: in the order
/// (scalar desc, id asc), the parent of `y` is the first element `x` after
/// `y` that has a neighbour in `y`'s component of the prefix before `x`.
fn oracle_parents(graph: &CsrGraph, scalar: &[f64]) -> Vec<Option<u32>> {
    let mut order: Vec<u32> = (0..scalar.len() as u32).collect();
    order.sort_by(|&a, &b| scalar[b as usize].total_cmp(&scalar[a as usize]).then(a.cmp(&b)));
    let neighbours = |v: u32| graph.neighbor_slice(VertexId(v)).iter().map(|u| u.0);
    let component = |y: u32, prefix: &[u32]| {
        let mut comp = BTreeSet::from([y]);
        let mut stack = vec![y];
        while let Some(v) = stack.pop() {
            for u in neighbours(v).filter(|u| prefix.contains(u)) {
                if comp.insert(u) {
                    stack.push(u);
                }
            }
        }
        comp
    };
    let mut parent = vec![None; scalar.len()];
    for (i, &y) in order.iter().enumerate() {
        parent[y as usize] = order[i + 1..].iter().enumerate().find_map(|(k, &x)| {
            let comp = component(y, &order[..i + 1 + k]);
            neighbours(x).any(|u| comp.contains(&u)).then_some(x)
        });
    }
    parent
}

/// Strategy: a random simple graph with up to `max_n` vertices plus a scalar
/// value per vertex drawn from a small integer set (to force duplicates).
fn graph_and_vertex_scalars(max_n: usize) -> impl Strategy<Value = (CsrGraph, Vec<f64>)> {
    (2usize..max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(3 * n));
            let scalars = proptest::collection::vec(0u8..6, n);
            (Just(n), edges, scalars)
        })
        .prop_map(|(n, edges, scalars)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n - 1);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            (b.build(), scalars.into_iter().map(|s| s as f64).collect())
        })
}

/// Strategy: a random graph plus a scalar per edge.
fn graph_and_edge_scalars(max_n: usize) -> impl Strategy<Value = (CsrGraph, Vec<f64>)> {
    (2usize..max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..(3 * n));
            (Just(n), edges, proptest::collection::vec(0u8..5, 3 * n))
        })
        .prop_map(|(n, edges, raw_scalars)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n - 1);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let scalars = raw_scalars
                .into_iter()
                .take(g.edge_count())
                .chain(std::iter::repeat(0))
                .take(g.edge_count())
                .map(|s| s as f64)
                .collect();
            (g, scalars)
        })
}

/// Strategy: a random forest of scalar graphs in which many vertices are
/// isolated — edges only touch the first `k` of `n` vertices — so the super
/// tree has many singleton roots beside a few deeper ones, as on R-MAT.
fn forest_with_singletons(max_n: usize) -> impl Strategy<Value = (CsrGraph, Vec<f64>)> {
    (2usize..max_n)
        .prop_flat_map(|n| (Just(n), 1..=n))
        .prop_flat_map(|(n, k)| {
            let edges = proptest::collection::vec((0..k as u32, 0..k as u32), 0..(2 * k));
            let scalars = proptest::collection::vec(0u8..6, n);
            (Just(n), edges, scalars)
        })
        .prop_map(|(n, edges, scalars)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n - 1);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            (b.build(), scalars.into_iter().map(|s| s as f64).collect())
        })
}

/// The level count at which snapping is the identity on an integer-valued
/// tree: one level per integer from its minimum to its maximum scalar.
fn identity_levels(tree: &SuperScalarTree) -> usize {
    let min = tree.scalars().iter().copied().fold(f64::INFINITY, f64::min);
    let max = tree.scalars().iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - min) as usize + 1
}

fn distinct_levels(values: &[f64]) -> Vec<f64> {
    let mut levels = values.to_vec();
    levels.sort_by(f64::total_cmp);
    levels.dedup();
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 2 of the scalar tree: at every level α, the subtrees above the
    /// cut are exactly the maximal α-connected components.
    #[test]
    fn vertex_super_tree_matches_direct_components((graph, scalar) in graph_and_vertex_scalars(24)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        st.check_invariants().unwrap();
        prop_assert_eq!(st.total_members(), graph.vertex_count());
        for alpha in distinct_levels(&scalar) {
            let from_tree: BTreeSet<BTreeSet<u32>> = component_members_at_alpha(&st, alpha)
                .into_iter()
                .map(|m| m.into_iter().collect())
                .collect();
            let direct: BTreeSet<BTreeSet<u32>> = maximal_alpha_components(&sg, alpha)
                .into_iter()
                .map(|c| c.vertices.into_iter().map(|v| v.0).collect())
                .collect();
            prop_assert_eq!(from_tree, direct, "alpha {}", alpha);
        }
    }

    /// Algorithm 1 returns exactly the parent pointers the definition gives:
    /// the join tree under (scalar desc, id asc) is unique.
    #[test]
    fn vertex_tree_parents_match_the_definition((graph, scalar) in graph_and_vertex_scalars(20)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        prop_assert_eq!(vertex_scalar_tree(&sg).parents(), oracle_parents(&graph, &scalar).as_slice());
    }

    /// Algorithm 3 returns the parent pointers of Algorithm 1 run on the dual
    /// graph, not just the same component partitions.
    #[test]
    fn edge_tree_parents_match_the_naive_method((graph, scalar) in graph_and_edge_scalars(16)) {
        let sg = EdgeScalarGraph::new(&graph, &scalar).unwrap();
        prop_assert_eq!(edge_scalar_tree(&sg).parents(), edge_scalar_tree_naive(&sg).parents());
    }

    /// Theorem 1 + Proposition 2: MCC(v) read from the super tree equals the
    /// directly extracted maximal v.scalar-connected component containing v.
    #[test]
    fn mcc_queries_match_direct_extraction((graph, scalar) in graph_and_vertex_scalars(20)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        for v in graph.vertices() {
            let node = mcc_of_element(&st, v.0);
            let from_tree: BTreeSet<u32> = st.subtree_members(node).into_iter().collect();
            let comps = maximal_alpha_components(&sg, scalar[v.index()]);
            let direct: BTreeSet<u32> = comps
                .iter()
                .find(|c| c.vertices.contains(&v))
                .unwrap()
                .vertices
                .iter()
                .map(|x| x.0)
                .collect();
            prop_assert_eq!(from_tree, direct);
        }
    }

    /// Theorem 3 via the tree: components from any two levels either nest or
    /// are disjoint.
    #[test]
    fn components_nest_across_levels((graph, scalar) in graph_and_vertex_scalars(18)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let mut all: Vec<BTreeSet<u32>> = Vec::new();
        for alpha in distinct_levels(&scalar) {
            for members in component_members_at_alpha(&st, alpha) {
                all.push(members.into_iter().collect());
            }
        }
        for a in &all {
            for b in &all {
                if a.intersection(b).next().is_some() {
                    prop_assert!(a.is_subset(b) || b.is_subset(a));
                }
            }
        }
    }

    /// The flat arena round-trips: for random vertex and edge scalar graphs,
    /// `subtree_member_counts` and `subtree_members` read off the
    /// arena agree with a naive recursive oracle walking children lists, and
    /// the (tightened) structural invariants hold.
    #[test]
    fn arena_accessors_match_recursive_oracle((graph, scalar) in graph_and_vertex_scalars(24)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_arena_roundtrip(&st);
        // Simplified trees come from the second arena producer; they must
        // round-trip just as well, snapped alone or snapped and capped.
        let n = st.node_count();
        for levels in [2usize, 5] {
            for budget in [1, 2, 3, n.div_ceil(2).max(1), n.max(1)] {
                assert_arena_roundtrip(&simplify_super_tree(&st, levels, budget).unwrap());
            }
        }
    }

    /// Same round-trip on edge scalar trees (Algorithm 3's output feeds the
    /// identical super-tree arena).
    #[test]
    fn edge_arena_accessors_match_recursive_oracle((graph, scalar) in graph_and_edge_scalars(16)) {
        let sg = EdgeScalarGraph::new(&graph, &scalar).unwrap();
        assert_arena_roundtrip(&build_super_tree(&edge_scalar_tree(&sg)));
    }

    /// Algorithm 3 and the naive dual-graph method describe the same component
    /// hierarchy, and both match the direct edge-component extraction.
    #[test]
    fn edge_tree_fast_and_naive_agree((graph, scalar) in graph_and_edge_scalars(16)) {
        let sg = EdgeScalarGraph::new(&graph, &scalar).unwrap();
        let fast = build_super_tree(&edge_scalar_tree(&sg));
        let naive = build_super_tree(&edge_scalar_tree_naive(&sg));
        fast.check_invariants().unwrap();
        naive.check_invariants().unwrap();
        prop_assert_eq!(fast.node_count(), naive.node_count());
        for alpha in distinct_levels(&scalar) {
            let from_fast: BTreeSet<BTreeSet<u32>> = component_members_at_alpha(&fast, alpha)
                .into_iter().map(|m| m.into_iter().collect()).collect();
            let from_naive: BTreeSet<BTreeSet<u32>> = component_members_at_alpha(&naive, alpha)
                .into_iter().map(|m| m.into_iter().collect()).collect();
            let direct: BTreeSet<BTreeSet<u32>> = maximal_alpha_edge_components(&sg, alpha)
                .into_iter()
                .map(|c| c.edges.into_iter().map(|e| e.0).collect())
                .collect();
            prop_assert_eq!(&from_fast, &direct, "fast vs direct at alpha {}", alpha);
            prop_assert_eq!(&from_naive, &direct, "naive vs direct at alpha {}", alpha);
        }
    }

    /// Simplification preserves membership, never grows the tree, and at its
    /// own (snapped) scalar levels still yields a valid nested hierarchy whose
    /// component count never exceeds the number of elements.
    #[test]
    fn simplification_is_conservative((graph, scalar) in graph_and_vertex_scalars(20)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        for levels in [1usize, 2, 3, 8] {
            let s = simplify_super_tree(&st, levels, st.node_count()).unwrap();
            s.check_invariants().unwrap();
            prop_assert_eq!(s.total_members(), st.total_members());
            prop_assert!(s.node_count() <= st.node_count());
            // Cut the simplified tree at each of its own node scalars: the cut
            // must partition a subset of the elements into disjoint groups.
            let snapped_levels: Vec<f64> = distinct_levels(s.scalars());
            for alpha in snapped_levels {
                let cut = components_at_alpha(&s, alpha);
                prop_assert!(cut.component_count() <= graph.vertex_count());
                let mut seen = std::collections::BTreeSet::new();
                for root in &cut.component_roots {
                    for m in s.subtree_members(*root) {
                        prop_assert!(seen.insert(m), "element {} in two components", m);
                    }
                }
            }
        }
    }

    /// Where snapping is the identity (integer scalars at one level per
    /// integer) and the budget fits, simplification returns the tree `==`
    /// unchanged: same shape, order, scalars and members.
    #[test]
    fn identity_levels_and_a_fitting_budget_leave_the_tree_unchanged(
        (graph, scalar) in forest_with_singletons(40),
        slack in 0usize..4,
    ) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let unchanged = simplify_super_tree(&st, identity_levels(&st), st.node_count() + slack);
        prop_assert_eq!(&unchanged.unwrap(), &st);
    }

    /// Snapping and capping keep the input's order: every result node but the
    /// synthetic folded root starts at the input node its members reach
    /// first, and those tops strictly increase with the result's ids, so root
    /// order and sibling order both survive.
    #[test]
    fn simplification_keeps_root_and_sibling_order(
        (graph, scalar) in forest_with_singletons(40),
        levels in 1usize..12,
        budget_pick in 0usize..1000,
    ) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let n = st.node_count();
        let budget = 1 + budget_pick % (n + 1);
        let snapped_nodes = simplify_super_tree(&st, levels, n).unwrap().node_count();
        let result = simplify_super_tree(&st, levels, budget).unwrap();
        let mut ordered = result.node_count() as u32;
        if snapped_nodes > budget && result.parent(ordered - 1).is_none() {
            ordered -= 1; // the synthetic root folds roots from anywhere
        }
        let top = |node: u32| result.members(node).iter().map(|&m| st.node_of(m)).min().unwrap();
        for node in 1..ordered {
            prop_assert!(top(node - 1) < top(node), "result nodes {} and {} out of order", node - 1, node);
        }
    }

    /// The node-budget cap at identity levels: for every budget from 1 to one
    /// past the tree's size, the capped tree fits, keeps every member, stays a
    /// valid tree, leaves a fitting tree alone, and keeps the heaviest root
    /// subtree whole whenever it fits in `budget - 1` nodes.
    #[test]
    fn cap_fits_every_budget_and_keeps_the_heaviest_root((graph, scalar) in forest_with_singletons(40)) {
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let (n, levels) = (st.node_count(), identity_levels(&st));
        let heaviest = *st
            .roots()
            .iter()
            .max_by(|&&a, &&b| st.subtree_member_count(a).cmp(&st.subtree_member_count(b)).then(b.cmp(&a)))
            .unwrap();
        for budget in 1..=n + 1 {
            let capped = simplify_super_tree(&st, levels, budget).unwrap();
            prop_assert!(capped.node_count() <= budget, "{} nodes over budget {}", capped.node_count(), budget);
            prop_assert_eq!(capped.total_members(), st.total_members());
            capped.check_invariants().unwrap();
            if n <= budget {
                prop_assert_eq!(&capped, &st);
            }
            if st.subtree_nodes(heaviest).len() < budget {
                let kept = capped.node_of(st.members(heaviest)[0]);
                prop_assert_eq!(capped.parent(kept), None);
                prop_assert_eq!(capped.subtree_members(kept), st.subtree_members(heaviest));
                prop_assert_eq!(capped.subtree_nodes(kept).len(), st.subtree_nodes(heaviest).len());
            }
        }
        prop_assert!(simplify_super_tree(&st, levels, 0).is_err());
    }

    /// K-Core scalar fields: Proposition 4 — every maximal α-connected
    /// component under the KC(v) field is a K-Core with K = α.
    #[test]
    fn proposition4_alpha_components_are_kcores((graph, _) in graph_and_vertex_scalars(22)) {
        let cores = measures::core_numbers(&graph);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        for alpha in distinct_levels(&scalar) {
            for comp in maximal_alpha_components(&sg, alpha) {
                // Within the component, every vertex must have >= alpha
                // neighbors inside the component.
                let members: BTreeSet<u32> = comp.vertices.iter().map(|v| v.0).collect();
                for &v in &comp.vertices {
                    let inside = graph
                        .neighbor_vertices(v)
                        .filter(|u| members.contains(&u.0))
                        .count();
                    prop_assert!(
                        inside as f64 >= alpha,
                        "vertex {:?} has {} neighbors in its alpha={} component",
                        v, inside, alpha
                    );
                }
            }
        }
    }
}
