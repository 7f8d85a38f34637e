//! Algorithm 2: postprocessing a scalar tree into a super scalar tree.
//!
//! When several elements share the same scalar value, the raw Algorithm-1 tree
//! can contain subtrees that are *not* maximal α-connected components
//! (the paper's Figure 3 example). Algorithm 2 fixes this by merging every
//! ancestor with all of its equal-scalar descendants into a single **super
//! node**; each subtree of the resulting super tree corresponds to a maximal
//! α-connected component again (Proposition 2), at the price of Property 1
//! (a super node may hold several original elements).
//!
//! The super tree is also the direct input of the terrain visualization: the
//! 2D layout nests one boundary per super node, and the boundary's area is
//! proportional to its subtree's total member count.
//!
//! # Arena layout
//!
//! [`SuperScalarTree`] is a flat arena, not a vector of per-node structs.
//! Algorithm 2 emits super nodes in **DFS pre-order**: a stack of anchors
//! hands each super node the next id as it is found, children in the order
//! its equal-scalar region discovers them. So
//!
//! * `parent(i) < i` for every non-root — one forward pass computes depths,
//!   one reverse pass accumulates subtree aggregates (reversed, the ids list
//!   children before parents), no per-query sorting and no level order;
//! * the subtree rooted at `i` is the contiguous id range
//!   `i..subtree_end(i)`, and its members are one contiguous slice of the
//!   shared member arena — so [`SuperScalarTree::subtree_member_count`] is
//!   `O(1)` arithmetic on the member offsets and
//!   [`SuperScalarTree::subtree_member_slice`] is allocation-free;
//! * children and members are CSR-style `(offset, len)` ranges into two shared
//!   `Vec<u32>`s, mirroring `ugraph::CsrGraph`.

use crate::vertex_tree::ScalarTree;

/// The super scalar tree produced by Algorithm 2 (a forest for disconnected
/// inputs), stored as a flat DFS-pre-order arena.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperScalarTree {
    /// The common scalar value of each super node's members.
    scalar: Vec<f64>,
    /// Parent super node of each node, or `None` for roots. Always `<` the
    /// node's own id (DFS pre-order invariant).
    parent: Vec<Option<u32>>,
    /// One past the last id of each node's subtree: the subtree rooted at `i`
    /// is exactly the id range `i..subtree_end[i]`.
    subtree_end: Vec<u32>,
    /// CSR child arena: children of node `i` are
    /// `child_ids[child_offsets[i] .. child_offsets[i + 1]]`, in increasing
    /// id order.
    child_offsets: Vec<u32>,
    child_ids: Vec<u32>,
    /// CSR member arena: the original element ids merged into node `i` are
    /// `member_ids[member_offsets[i] .. member_offsets[i + 1]]`, sorted
    /// increasing within each node. Because ids are DFS pre-ordered, the
    /// members of a whole subtree are also one contiguous slice.
    member_offsets: Vec<u32>,
    member_ids: Vec<u32>,
    /// Root super nodes, sorted by id.
    roots: Vec<u32>,
    /// `node_of[element]` is the super node containing that original element.
    node_of: Vec<u32>,
}

impl SuperScalarTree {
    /// Assemble the arena from per-node scalars, parent pointers and flat
    /// member lists (`member_ids` grouped by node via `member_offsets`), with
    /// nodes already numbered in DFS pre-order, as Algorithm 2 and the
    /// simplification emit them.
    ///
    /// Member lists are sorted, and the derived arrays (roots, subtree
    /// ranges, child CSR, `node_of`) are computed in `O(n + m)`.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are structurally inconsistent: mismatched lengths,
    /// out-of-bounds members, an element that belongs to zero or several
    /// super nodes, or ids not in DFS pre-order (a parent after its child,
    /// or a subtree that does not fit in its parent's id range).
    pub fn from_parts(
        scalar: Vec<f64>,
        parent: Vec<Option<u32>>,
        member_offsets: Vec<u32>,
        mut member_ids: Vec<u32>,
        element_count: usize,
    ) -> SuperScalarTree {
        let n = scalar.len();
        assert_eq!(parent.len(), n, "one parent entry per super node");
        assert_eq!(member_offsets.len(), n + 1, "member offsets bracket every node");
        assert_eq!(member_offsets[n] as usize, member_ids.len(), "member offsets cover the arena");
        assert_eq!(member_ids.len(), element_count, "every element in exactly one super node");

        // Subtree ranges by one reverse pass (children have larger ids):
        // size[i] = 1 + Σ children sizes, stored as the range end i + size.
        let mut subtree_end: Vec<u32> = (1..=n as u32).collect();
        let mut roots = Vec::new();
        for (i, p) in parent.iter().enumerate().rev() {
            match *p {
                Some(p) => {
                    assert!((p as usize) < i, "parent {p} of super node {i} not before it");
                    subtree_end[p as usize] += subtree_end[i] - i as u32;
                }
                None => roots.push(i as u32),
            }
        }
        roots.reverse();

        // With parents first, nested ranges are exactly DFS pre-order; then a
        // node's children are the consecutive subtree heads in its range.
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut child_ids = Vec::with_capacity(n - roots.len());
        child_offsets.push(0);
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                assert!(
                    subtree_end[i] <= subtree_end[p as usize],
                    "subtree of super node {i} escapes its parent {p}"
                );
            }
            let mut child = i as u32 + 1;
            while child < subtree_end[i] {
                child_ids.push(child);
                child = subtree_end[child as usize];
            }
            child_offsets.push(child_ids.len() as u32);
        }

        // Sort each member slice in place and invert it into `node_of`.
        let mut node_of = vec![u32::MAX; element_count];
        for (node, range) in member_offsets.windows(2).enumerate() {
            let members = &mut member_ids[range[0] as usize..range[1] as usize];
            members.sort_unstable();
            for &m in members.iter() {
                assert!((m as usize) < element_count, "member id {m} out of bounds");
                assert_eq!(node_of[m as usize], u32::MAX, "element {m} in two super nodes");
                node_of[m as usize] = node as u32;
            }
        }

        SuperScalarTree {
            scalar,
            parent,
            subtree_end,
            child_offsets,
            child_ids,
            member_offsets,
            member_ids,
            roots,
            node_of,
        }
    }

    /// Number of super nodes (the `Nt` column of the paper's Table II).
    pub fn node_count(&self) -> usize {
        self.scalar.len()
    }

    /// Total number of original elements across all super nodes.
    pub fn total_members(&self) -> usize {
        self.member_ids.len()
    }

    /// Number of original elements the tree was built over (the domain of
    /// [`SuperScalarTree::node_of`]).
    pub fn element_count(&self) -> usize {
        self.node_of.len()
    }

    /// Bytes held by the arena: the summed byte length of its arrays (not
    /// their spare capacity, nor the struct itself): exactly 32 bytes per
    /// node, 8 per element — `member_ids` and `node_of` hold one `u32` each
    /// per element — and 8 for the two offset arrays' closing entries, so a
    /// tree capped at a node budget weighs O(budget + elements).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.scalar.as_slice())
            + size_of_val(self.parent.as_slice())
            + size_of_val(self.subtree_end.as_slice())
            + size_of_val(self.child_offsets.as_slice())
            + size_of_val(self.child_ids.as_slice())
            + size_of_val(self.member_offsets.as_slice())
            + size_of_val(self.member_ids.as_slice())
            + size_of_val(self.roots.as_slice())
            + size_of_val(self.node_of.as_slice())
    }

    /// Scalar value of super node `node`.
    #[inline]
    pub fn scalar(&self, node: u32) -> f64 {
        self.scalar[node as usize]
    }

    /// Scalar values of all super nodes, indexed by node id.
    #[inline]
    pub fn scalars(&self) -> &[f64] {
        &self.scalar
    }

    /// Parent of super node `node`, or `None` for roots.
    #[inline]
    pub fn parent(&self, node: u32) -> Option<u32> {
        self.parent[node as usize]
    }

    /// Parent pointers of all super nodes, indexed by node id.
    #[inline]
    pub fn parents(&self) -> &[Option<u32>] {
        &self.parent
    }

    /// Children of `node`, in increasing id order — an allocation-free slice
    /// into the shared child arena.
    #[inline]
    pub fn children(&self, node: u32) -> &[u32] {
        let (start, end) =
            (self.child_offsets[node as usize], self.child_offsets[node as usize + 1]);
        &self.child_ids[start as usize..end as usize]
    }

    /// The original element ids merged into `node`, sorted increasing — an
    /// allocation-free slice into the shared member arena.
    #[inline]
    pub fn members(&self, node: u32) -> &[u32] {
        let (start, end) =
            (self.member_offsets[node as usize], self.member_offsets[node as usize + 1]);
        &self.member_ids[start as usize..end as usize]
    }

    /// Root super nodes, sorted by id.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The super node containing original element `element`.
    #[inline]
    pub fn node_of(&self, element: u32) -> u32 {
        self.node_of[element as usize]
    }

    /// The contiguous id range of the subtree rooted at `node` (DFS pre-order
    /// invariant): `node` itself, then every descendant.
    #[inline]
    pub fn subtree_nodes(&self, node: u32) -> std::ops::Range<u32> {
        node..self.subtree_end[node as usize]
    }

    /// Number of members in the subtree rooted at `node` — `O(1)` arithmetic
    /// on the member offsets, no traversal.
    #[inline]
    pub fn subtree_member_count(&self, node: u32) -> usize {
        let end = self.subtree_end[node as usize] as usize;
        (self.member_offsets[end] - self.member_offsets[node as usize]) as usize
    }

    /// Number of members in the subtree rooted at each super node
    /// (the quantity the terrain layout maps to boundary area).
    ///
    /// A single output allocation; each entry is `O(1)` offset arithmetic.
    pub fn subtree_member_counts(&self) -> Vec<usize> {
        (0..self.node_count() as u32).map(|n| self.subtree_member_count(n)).collect()
    }

    /// All original elements in the subtree rooted at `node`, as one
    /// allocation-free slice of the member arena. Grouped by super node in DFS
    /// pre-order (sorted within each node), *not* globally sorted; use
    /// [`SuperScalarTree::subtree_members`] when a sorted vector is needed.
    #[inline]
    pub fn subtree_member_slice(&self, node: u32) -> &[u32] {
        let end = self.subtree_end[node as usize] as usize;
        &self.member_ids
            [self.member_offsets[node as usize] as usize..self.member_offsets[end] as usize]
    }

    /// All original elements contained in the subtree rooted at `node`,
    /// sorted increasing (a single allocation over
    /// [`SuperScalarTree::subtree_member_slice`]).
    pub fn subtree_members(&self, node: u32) -> Vec<u32> {
        let mut members = self.subtree_member_slice(node).to_vec();
        members.sort_unstable();
        members
    }

    /// Verify structural invariants (used by tests and debug assertions):
    /// parent/child consistency, the DFS pre-order id invariants (parents
    /// before children, contiguous subtree ranges), members sorted, scalar
    /// monotone along edges (child scalar strictly greater than parent
    /// scalar), and full `node_of` consistency — every entry must be a valid
    /// node id whose member slice contains the element, and every element must
    /// belong to exactly one super node. Returns a description of the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.node_count();
        // A flag per node, not a scan of `roots` per root: forests with
        // hundreds of thousands of singleton roots are common (R-MAT).
        let mut listed_root = vec![false; n];
        for &root in &self.roots {
            if let Some(flag) = listed_root.get_mut(root as usize) {
                *flag = true;
            }
        }
        for id in 0..n as u32 {
            let members = self.members(id);
            if members.is_empty() {
                return Err(format!("super node {id} has no members"));
            }
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("super node {id} members not sorted/unique"));
            }
            let end = self.subtree_end[id as usize];
            if end <= id || end as usize > n {
                return Err(format!("super node {id} has invalid subtree range end {end}"));
            }
            for c in self.children(id) {
                let c = *c;
                if self.parent(c) != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent"));
                }
                if c <= id {
                    return Err(format!("child {c} not after parent {id} in pre-order"));
                }
                if self.subtree_end[c as usize] > end {
                    return Err(format!("child {c} subtree escapes parent {id} range"));
                }
                if self.scalar(c) <= self.scalar(id) {
                    return Err(format!(
                        "child {c} scalar {} not strictly greater than parent {id} scalar {}",
                        self.scalar(c),
                        self.scalar(id)
                    ));
                }
            }
            match self.parent(id) {
                Some(p) => {
                    if p >= id {
                        return Err(format!("parent {p} of {id} not before it in pre-order"));
                    }
                    if !self.children(p).contains(&id) {
                        return Err(format!("parent {p} does not list child {id}"));
                    }
                }
                None => {
                    if !listed_root[id as usize] {
                        return Err(format!("orphan super node {id} not listed as root"));
                    }
                }
            }
        }
        // node_of must be a total, consistent assignment: every entry a valid
        // node id (a stale `u32::MAX` must not survive), the element present
        // in that node's member slice, and the counts must balance so no
        // element is double-assigned.
        for (element, &node) in self.node_of.iter().enumerate() {
            if node as usize >= n {
                return Err(format!("node_of[{element}] = {node} is not a valid super node id"));
            }
            // Member slices are sorted (checked above), so binary search keeps
            // this full-coverage check O(m log m) even for huge super nodes.
            if self.members(node).binary_search(&(element as u32)).is_err() {
                return Err(format!("node_of[{element}] points to node {node} missing it"));
            }
        }
        if self.total_members() != self.element_count() {
            return Err(format!(
                "member arena holds {} ids but the tree covers {} elements",
                self.total_members(),
                self.element_count()
            ));
        }
        Ok(())
    }
}

/// Algorithm 2: merge every ancestor with its equal-scalar descendants into
/// super nodes and return the super scalar tree.
pub fn build_super_tree(tree: &ScalarTree) -> SuperScalarTree {
    let n = tree.len();
    let mut scalar = Vec::new();
    let mut parent: Vec<Option<u32>> = Vec::new();
    let mut member_offsets: Vec<u32> = vec![0];
    let mut member_ids: Vec<u32> = Vec::with_capacity(n);

    // `anchors` is the work list of the paper's Algorithm 2: tree nodes that
    // start a new super node, paired with the super node of their parent.
    // Popped last-in first-out, so each super node takes the next id in DFS
    // pre-order; roots and each region's child anchors go on reversed.
    let mut anchors: Vec<(u32, Option<u32>)> =
        tree.roots().iter().rev().map(|&r| (r, None)).collect();
    let mut found: Vec<u32> = Vec::new();

    while let Some((anchor, parent_super)) = anchors.pop() {
        let super_id = scalar.len() as u32;
        let value = tree.scalar(anchor);
        // BFS over the equal-scalar region rooted at `anchor` (lines 6-13):
        // this node's slice of the member arena is the queue itself.
        let mut head = member_ids.len();
        member_ids.push(anchor);
        while let Some(&nq) = member_ids.get(head) {
            head += 1;
            for &nc in tree.children(nq) {
                if tree.scalar(nc) == value {
                    member_ids.push(nc);
                } else {
                    // Lines 14-18: the child starts its own super node.
                    found.push(nc);
                }
            }
        }
        anchors.extend(found.drain(..).rev().map(|nc| (nc, Some(super_id))));
        scalar.push(value);
        parent.push(parent_super);
        member_offsets.push(member_ids.len() as u32);
    }

    let result = SuperScalarTree::from_parts(scalar, parent, member_offsets, member_ids, n);
    debug_assert_eq!(result.check_invariants(), Ok(()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_graph::VertexScalarGraph;
    use crate::vertex_tree::vertex_scalar_tree;
    use ugraph::GraphBuilder;

    /// The paper's Figure 3 example: duplicate scalar values force Algorithm 1
    /// to produce a subtree that is not a maximal α-connected component, which
    /// Algorithm 2 must repair by merging n3, n4, n5 into one super node.
    ///
    /// We reproduce the structure: vertices v1(3), v2(3), v3(2), v4(2), v5(2)
    /// where v3, v4, v5 are mutually connected (same scalar 2) and v1 hangs
    /// off v3 while v2 hangs off v5.
    fn figure3_graph() -> (ugraph::CsrGraph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(2u32, 3u32), (3, 4), (2, 4)]); // v3-v4-v5 triangle
        b.add_edge(0, 2); // v1 - v3
        b.add_edge(1, 4); // v2 - v5
        (b.build(), vec![3.0, 3.0, 2.0, 2.0, 2.0])
    }

    #[test]
    fn figure3_merges_equal_scalar_chain() {
        let (graph, scalar) = figure3_graph();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        let st = build_super_tree(&tree);
        st.check_invariants().unwrap();
        // One super node must contain exactly {v3, v4, v5} (ids 2, 3, 4).
        let merged = (0..st.node_count() as u32)
            .find(|&n| st.members(n) == [2, 3, 4])
            .expect("v3, v4, v5 merged into one super node");
        assert_eq!(st.scalar(merged), 2.0);
        // v1 and v2 stay in their own super nodes, children of the merged one.
        assert_eq!(st.node_count(), 3);
        assert_eq!(st.total_members(), 5);
        let root = st.roots()[0];
        assert_eq!(st.members(root), &[2, 3, 4]);
        assert_eq!(st.children(root).len(), 2);
    }

    #[test]
    fn distinct_scalars_keep_one_member_per_node() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let graph = b.build();
        let scalar = vec![4.0, 3.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_eq!(st.node_count(), 4);
        assert!((0..4u32).all(|n| st.members(n).len() == 1));
        assert_eq!(st.roots().len(), 1);
    }

    #[test]
    fn subtree_member_counts_accumulate() {
        let (graph, scalar) = figure3_graph();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let counts = st.subtree_member_counts();
        let root = st.roots()[0];
        assert_eq!(counts[root as usize], 5, "root subtree holds every vertex");
        // Leaf super nodes hold exactly their own members.
        for id in 0..st.node_count() as u32 {
            if st.children(id).is_empty() {
                assert_eq!(counts[id as usize], st.members(id).len());
            }
            assert_eq!(counts[id as usize], st.subtree_member_count(id));
        }
        // subtree_members agrees with the counts.
        assert_eq!(st.subtree_members(st.roots()[0]).len(), 5);
    }

    #[test]
    fn reversed_ids_list_children_before_parents() {
        // A shape where reversed pre-order interleaves depths: root with two
        // children, the first of which has its own child. Bottom-up passes
        // walk ids in reverse and still meet every child before its parent.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let graph = b.build();
        // 2 is the valley; 0 and 3 are peaks; 1 sits on the 0-branch.
        let scalar = vec![4.0, 3.0, 1.0, 2.0];
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_eq!(st.parents(), &[None, Some(0), Some(1), Some(0)]);
        let mut seen = vec![false; st.node_count()];
        for node in (0..st.node_count() as u32).rev() {
            assert!(st.children(node).iter().all(|&c| seen[c as usize]), "child after {node}");
            seen[node as usize] = true;
        }
    }

    #[test]
    fn arena_ids_are_dfs_preorder() {
        let (graph, scalar) = figure3_graph();
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        for id in 0..st.node_count() as u32 {
            if let Some(p) = st.parent(id) {
                assert!(p < id, "parents precede children in the arena");
            }
            let range = st.subtree_nodes(id);
            assert_eq!(range.start, id);
            // Every node in the range descends from `id`.
            for node in range {
                let mut cur = node;
                while cur != id {
                    cur = st.parent(cur).expect("range member must descend from the range root");
                }
            }
            // The contiguous member slice is a permutation of the sorted list.
            let mut from_slice = st.subtree_member_slice(id).to_vec();
            from_slice.sort_unstable();
            assert_eq!(from_slice, st.subtree_members(id));
        }
    }

    #[test]
    fn sibling_super_nodes_follow_discovery_order_not_anchor_ids() {
        // Raw parents [2, 3, 3, root]: the root's region {3, 2} meets anchor
        // 1 (a child of 3) before anchor 0 (a child of 2), so {1} comes
        // first although 0 < 1.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 2u32), (1, 3), (2, 3)]);
        let graph = b.build();
        let scalar = vec![2.0, 2.0, 1.0, 1.0];
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let tree = vertex_scalar_tree(&sg);
        assert_eq!(tree.parents(), &[Some(2), Some(3), Some(3), None]);
        let st = build_super_tree(&tree);
        assert_eq!(st.parents(), &[None, Some(0), Some(0)]);
        assert_eq!([st.members(0), st.members(1), st.members(2)], [&[2, 3][..], &[1], &[0]]);
        assert_eq!((0..4).map(|e| st.node_of(e)).collect::<Vec<_>>(), [2, 1, 0, 0]);
    }

    #[test]
    fn constant_field_collapses_each_component_to_one_node() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (3, 4)]);
        let graph = b.build();
        let scalar = vec![1.0; 5];
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_eq!(st.node_count(), 2, "one super node per connected component");
        assert_eq!(st.roots().len(), 2);
        assert_eq!(st.total_members(), 5);
    }

    #[test]
    fn empty_tree() {
        let graph = GraphBuilder::new().build();
        let scalar: Vec<f64> = vec![];
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_eq!(st.node_count(), 0);
        assert_eq!(st.total_members(), 0);
        assert!(st.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "element 0 in two super nodes")]
    fn from_parts_rejects_double_assigned_elements() {
        // Two super nodes both claiming element 0 must be caught at
        // construction, not silently accepted.
        SuperScalarTree::from_parts(
            vec![1.0, 2.0],
            vec![None, Some(0)],
            vec![0, 1, 2],
            vec![0, 0],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "parent 1 of super node 0 not before it")]
    fn from_parts_rejects_a_child_before_its_parent() {
        SuperScalarTree::from_parts(
            vec![2.0, 1.0],
            vec![Some(1), None],
            vec![0, 1, 2],
            vec![0, 1],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "subtree of super node 3 escapes its parent 1")]
    fn from_parts_rejects_interleaved_subtrees() {
        // Node 3 hangs off 1, but node 2 (a child of 0) sits between them.
        SuperScalarTree::from_parts(
            vec![1.0, 2.0, 2.0, 3.0],
            vec![None, Some(0), Some(0), Some(1)],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3],
            4,
        );
    }
}
