//! Algorithm 1: constructing the vertex scalar tree, and the union–find
//! sweep it shares with Algorithm 3.
//!
//! The scalar tree has one node per vertex (Property 1); after the sweep every
//! node's scalar is ≥ its parent's scalar, and — when scalar values are
//! distinct — the subtree rooted at `n(v)` is exactly `MCC(v)`
//! (Proposition 1). When values repeat, Algorithm 2 ([`crate::super_tree`])
//! merges equal-value chains to restore Property 2.
//!
//! The sweep processes elements in decreasing scalar order (ties by
//! increasing id) and maintains a union–find over the already-processed
//! ones; a side array remembers the current tree root of each set, which is
//! not necessarily its union–find root. Algorithm 1 runs it over vertices
//! and their neighbours, Algorithm 3 ([`crate::edge_tree`]) over edges. Cost:
//! `O(|E|·α(n) + |V| log |V|)`, matching the paper's analysis.

use crate::scalar_graph::VertexScalarGraph;
use std::cmp::Ordering;
use ugraph::{GraphStorage, UnionFind, VertexId};

/// A rooted forest over elements `0..len`, each carrying a scalar value,
/// stored as a flat arena.
///
/// Produced by Algorithm 1 (over vertices) and Algorithm 3 (over edges). For a
/// connected input there is a single root; disconnected inputs yield one root
/// per connected component, which downstream code (super tree, terrain) treats
/// uniformly as a forest.
///
/// Node `i` *is* element `i` (vertex id or edge id) of the underlying scalar
/// graph. Beside the parent pointers the arena keeps what Algorithm 2 reads:
/// the roots, and the children as one shared CSR vector with per-node
/// ranges. All accessors are allocation-free slices.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarTree {
    /// `parent[i]` is the parent node of node `i`, or `None` for roots.
    parent: Vec<Option<u32>>,
    /// Scalar value of each node (equal to the element's scalar value).
    scalar: Vec<f64>,
    /// Roots of the forest (nodes with no parent), sorted by node id.
    roots: Vec<u32>,
    /// CSR child arena: children of node `i` are
    /// `child_ids[child_offsets[i] .. child_offsets[i + 1]]`, sorted by id.
    child_offsets: Vec<u32>,
    child_ids: Vec<u32>,
}

impl ScalarTree {
    /// Build the arena from the sweep's parent pointers and scalar values:
    /// the roots and the child CSR, in `O(n)`.
    fn from_parents(parent: Vec<Option<u32>>, scalar: Vec<f64>) -> ScalarTree {
        let n = parent.len();
        let mut child_offsets = vec![0u32; n + 1];
        for p in parent.iter().flatten() {
            child_offsets[*p as usize + 1] += 1;
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut cursor = child_offsets.clone();
        let mut child_ids = vec![0u32; child_offsets[n] as usize];
        // Iterating nodes in increasing id keeps every child list sorted.
        for (node, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_ids[cursor[*p as usize] as usize] = node as u32;
                cursor[*p as usize] += 1;
            }
        }

        let roots: Vec<u32> =
            parent.iter().enumerate().filter(|(_, p)| p.is_none()).map(|(v, _)| v as u32).collect();

        ScalarTree { parent, scalar, roots, child_offsets, child_ids }
    }

    /// Number of nodes (= number of elements of the underlying scalar graph).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `node`, or `None` for roots.
    #[inline]
    pub fn parent(&self, node: u32) -> Option<u32> {
        self.parent[node as usize]
    }

    /// Parent pointers of all nodes, indexed by node id.
    #[inline]
    pub fn parents(&self) -> &[Option<u32>] {
        &self.parent
    }

    /// Scalar value of `node`.
    #[inline]
    pub fn scalar(&self, node: u32) -> f64 {
        self.scalar[node as usize]
    }

    /// Scalar values of all nodes, indexed by node id.
    #[inline]
    pub fn scalars(&self) -> &[f64] {
        &self.scalar
    }

    /// Roots of the forest, sorted by node id.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Children of `node`, sorted by id — an allocation-free slice into the
    /// shared child arena.
    #[inline]
    pub fn children(&self, node: u32) -> &[u32] {
        let (start, end) =
            (self.child_offsets[node as usize], self.child_offsets[node as usize + 1]);
        &self.child_ids[start as usize..end as usize]
    }

    /// Verify the defining order invariant: every node's scalar is greater
    /// than or equal to its parent's scalar. Returns the first violating node
    /// if any (used by tests and debug assertions).
    pub fn check_monotone(&self) -> Option<u32> {
        for (node, parent) in self.parent.iter().enumerate() {
            if let Some(p) = parent {
                if self.scalar[node] < self.scalar[*p as usize] {
                    return Some(node as u32);
                }
            }
        }
        None
    }
}

/// The sweep's processing order (line 1 of Algorithms 1 and 3): decreasing
/// scalar value, ties broken by increasing id.
pub(crate) fn processing_order(scalar: &[f64], a: u32, b: u32) -> Ordering {
    scalar[b as usize].total_cmp(&scalar[a as usize]).then(a.cmp(&b))
}

/// A `u64` whose ascending order is [`processing_order`]'s on scalars:
/// `total_cmp`'s key (flip every bit of a negative, the sign bit of a
/// non-negative), complemented so that larger scalars come first.
fn descending_key(value: f64) -> u64 {
    let bits = value.to_bits();
    let ascending = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    !ascending
}

/// The element ids `0..scalar.len()` in [`processing_order`], sorted as one
/// packed `(descending_key, id)` integer each so that no compare reads a
/// scalar. The packed keys are freed before the caller allocates its
/// working arrays.
fn sorted_order(scalar: &[f64]) -> Vec<u32> {
    let mut packed: Vec<u128> = scalar
        .iter()
        .enumerate()
        .map(|(id, &value)| u128::from(descending_key(value)) << 32 | id as u128)
        .collect();
    packed.sort_unstable();
    packed.iter().map(|&key| key as u32).collect()
}

/// The union–find sweep of Algorithms 1 and 3 over elements
/// `0..scalar.len()`.
///
/// Elements are processed in [`processing_order`]. When element `x` is
/// processed, each of its `neighbours(x)` that was processed earlier and is
/// not yet in `x`'s set has its set's current tree root hung under `x`, and
/// `x` becomes the root of the merged set. Later elements (and `x` itself)
/// may appear among the neighbours; they are skipped.
pub(crate) fn sweep<I: IntoIterator<Item = u32>>(
    scalar: &[f64],
    neighbours: impl Fn(u32) -> I,
) -> ScalarTree {
    // The sweep's working arrays are freed before the arena is allocated,
    // so the two never add up in peak memory.
    let parent = sweep_parents(scalar, neighbours);
    let tree = ScalarTree::from_parents(parent, scalar.to_vec());
    debug_assert!(tree.check_monotone().is_none(), "scalar tree violates monotonicity");
    tree
}

/// The parent pointers of [`sweep`].
fn sweep_parents<I: IntoIterator<Item = u32>>(
    scalar: &[f64],
    neighbours: impl Fn(u32) -> I,
) -> Vec<Option<u32>> {
    let n = scalar.len();
    let order = sorted_order(scalar);
    // rank[x] = position of x in the processing order ("index" in the paper:
    // lower rank means processed earlier, i.e. higher scalar).
    let mut rank = vec![0u32; n];
    for (i, &x) in order.iter().enumerate() {
        rank[x as usize] = i as u32;
    }

    let mut parent: Vec<Option<u32>> = vec![None; n];
    let mut uf = UnionFind::new(n);
    // top[r] = the tree root of the set whose union–find root is `r`.
    let mut top = vec![0u32; n];
    for (i, &x) in order.iter().enumerate() {
        // Only `x`'s own turn merges it, so it is still a singleton here.
        let mut root = x as usize;
        for y in neighbours(x) {
            // "j < i": the neighbour was processed earlier.
            if rank[y as usize] >= i as u32 {
                continue;
            }
            let other = uf.find(y as usize);
            // "currently n(x) and n(y) are not in the same subtree"
            if other == root {
                continue;
            }
            // Connect root(n(y)) to n(x); n(x) becomes the new root.
            parent[top[other] as usize] = Some(x);
            root = uf.union(root, other).expect("two distinct sets merge");
        }
        top[root] = x;
    }
    parent
}

/// Algorithm 1: build the vertex scalar tree of a vertex scalar graph.
pub fn vertex_scalar_tree<G: GraphStorage + ?Sized>(sg: &VertexScalarGraph<'_, G>) -> ScalarTree {
    let graph = sg.graph();
    sweep(sg.scalar(), |v| graph.neighbor_slice(VertexId(v)).iter().map(|u| u.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::tests::paper_figure2_graph;
    use crate::component::{distinct_levels, maximal_alpha_components};
    use crate::scalar_graph::VertexScalarGraph;
    use std::collections::BTreeSet;
    use ugraph::GraphBuilder;

    /// The set of vertices in the subtree rooted at `node`.
    fn subtree_set(tree: &ScalarTree, node: u32) -> BTreeSet<u32> {
        let mut set = BTreeSet::from([node]);
        for &c in tree.children(node) {
            set.extend(subtree_set(tree, c));
        }
        set
    }

    #[test]
    fn packed_keys_sort_like_processing_order() {
        let tiny = f64::from_bits(1);
        let scalar = vec![
            0.0,
            -0.0,
            1.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0,
            -0.0,
            0.0,
            tiny,
            -3.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.5,
            2.0,
            1.0,
        ];
        let mut expected: Vec<u32> = (0..scalar.len() as u32).collect();
        expected.sort_by(|&a, &b| processing_order(&scalar, a, b));
        assert_eq!(sorted_order(&scalar), expected);
        // `total_cmp` puts +0.0 before -0.0 in decreasing order.
        assert_eq!(&sorted_order(&[-0.0, 0.0, -0.0, 0.0]), &[1, 3, 0, 2]);
    }

    #[test]
    fn single_vertex_and_empty_graph() {
        let g = GraphBuilder::new().build();
        let scalar: Vec<f64> = vec![];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert!(tree.is_empty());

        let mut b = GraphBuilder::new();
        b.ensure_vertex(0);
        let g = b.build();
        let scalar = vec![7.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.roots(), &[0]);
    }

    #[test]
    fn path_with_decreasing_scalars_is_a_chain() {
        // Path 0-1-2-3 with scalars 4,3,2,1: the tree must be the chain
        // 0 -> 1 -> 2 -> 3 with 3 as root (every node's parent has lower scalar).
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = vec![4.0, 3.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.parent(0), Some(1));
        assert_eq!(tree.parent(1), Some(2));
        assert_eq!(tree.parent(2), Some(3));
        assert_eq!(tree.parent(3), None);
        assert_eq!(tree.roots(), &[3]);
        for node in 1..4 {
            assert_eq!(tree.children(node), &[node - 1]);
        }
        assert!(tree.children(0).is_empty());
        assert!(tree.check_monotone().is_none());
    }

    #[test]
    fn merge_point_gets_two_children() {
        // Two peaks joined at a valley: 0(5) - 2(1) - 1(4).
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 2u32), (1, 2)]);
        let g = b.build();
        let scalar = vec![5.0, 4.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.parent(0), Some(2));
        assert_eq!(tree.parent(1), Some(2));
        assert_eq!(tree.parent(2), None);
        assert_eq!(tree.children(2), &[0, 1]);
    }

    #[test]
    fn arena_accessors_agree_with_parent_pointers() {
        let (graph, scalar) = paper_figure2_graph();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        // children() inverts parent().
        for node in 0..tree.len() as u32 {
            for &c in tree.children(node) {
                assert_eq!(tree.parent(c), Some(node));
            }
            match tree.parent(node) {
                Some(p) => assert!(tree.children(p).contains(&node)),
                None => assert!(tree.roots().contains(&node)),
            }
        }
        // Every node reaches a root, and the subtrees of the roots cover
        // every node exactly once.
        let covered: usize = tree.roots().iter().map(|&r| subtree_set(&tree, r).len()).sum();
        assert_eq!(covered, tree.len());
    }

    #[test]
    fn equal_scalars_are_swept_in_id_order() {
        // Path 0-1-2-3 with scalars 2, 5, 2, 7: the order is 3, 1, 0, 2. Vertex
        // 0 goes before 2 and takes 1 under it; 2 then joins {0, 1} and {3}.
        // Sweeping 2 before 0 would give parents [None, 2, 0, 2] instead.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let g = b.build();
        let scalar = vec![2.0, 5.0, 2.0, 7.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.parents(), &[Some(2), Some(0), None, Some(2)]);
        assert_eq!(tree.children(2), &[0, 3]);
    }

    #[test]
    fn proposition1_subtrees_are_mccs_for_distinct_scalars() {
        // Figure 2 graph has distinct-ish scalars except v1=v2=v4=3; perturb
        // them slightly so all scalars are distinct, then every subtree rooted
        // at n(v) must equal MCC(v).
        let (graph, mut scalar) = paper_figure2_graph();
        scalar[0] = 3.01;
        scalar[1] = 3.02;
        scalar[3] = 3.03;
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        for v in graph.vertices() {
            let alpha = sg.value(v);
            let comps = maximal_alpha_components(&sg, alpha);
            let mcc = comps.iter().find(|c| c.vertices.contains(&v)).expect("MCC(v) exists");
            let expected: BTreeSet<u32> = mcc.vertices.iter().map(|x| x.0).collect();
            assert_eq!(
                subtree_set(&tree, v.0),
                expected,
                "subtree rooted at n({v:?}) must equal MCC({v:?})"
            );
        }
    }

    #[test]
    fn forest_handles_disconnected_graphs() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let scalar = vec![2.0, 1.0, 4.0, 3.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.roots().len(), 2);
        assert!(tree.check_monotone().is_none());
    }

    #[test]
    fn cut_at_every_level_matches_direct_components_on_figure2() {
        // Even with duplicate scalar values, cutting the raw Algorithm-1 tree
        // at a level α and grouping connected tree nodes above the cut must
        // reproduce the *vertex sets* of the maximal α-connected components.
        // (The subtree/rooting structure needs Algorithm 2; the partition into
        // components does not.)
        let (graph, scalar) = paper_figure2_graph();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        for &alpha in &distinct_levels(&scalar) {
            // Partition nodes with scalar >= alpha by tree connectivity.
            let mut uf = ugraph::UnionFind::new(tree.len());
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
            let from_tree: BTreeSet<BTreeSet<u32>> = groups.into_values().collect();
            let from_direct: BTreeSet<BTreeSet<u32>> = maximal_alpha_components(&sg, alpha)
                .into_iter()
                .map(|c| c.vertices.into_iter().map(|v| v.0).collect())
                .collect();
            assert_eq!(from_tree, from_direct, "alpha = {alpha}");
        }
    }
}
