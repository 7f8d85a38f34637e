//! Scalar-tree simplification by scalar discretization (Section II-E,
//! "Simplification").
//!
//! Large graphs produce super trees with too many nodes to render and interact
//! with smoothly. The paper's remedy is to discretize the scalar values so
//! that similar values become equal, then re-run the Algorithm-2 merge: the
//! result is an *approximate* super tree with far fewer nodes. This module
//! implements that operation directly on a [`SuperScalarTree`], so it can be
//! applied after construction without touching the original scalar field.
//!
//! Snapping never merges two roots, so a forest of many small components
//! (R-MAT graphs leave ~40% of their vertices isolated) stays as large as its
//! root count. [`cap_super_tree`] makes a node budget a hard cap: it keeps the
//! heaviest subtrees and folds the rest into one synthetic root.

use crate::super_tree::SuperScalarTree;
use ugraph::{GraphError, Result};

/// Fallible variant of [`simplify_super_tree`]: returns
/// [`GraphError::InvalidConfig`] when `levels` is zero instead of panicking.
/// This is the stage entry used by `graph-terrain`'s `TerrainPipeline`.
pub fn try_simplify_super_tree(tree: &SuperScalarTree, levels: usize) -> Result<SuperScalarTree> {
    if levels == 0 {
        return Err(GraphError::InvalidConfig {
            what: "simplification levels",
            message: "need at least one discretization level".into(),
        });
    }
    Ok(simplify_super_tree(tree, levels))
}

/// Simplify a super tree by snapping super-node scalars to `levels` evenly
/// spaced values between the tree's minimum and maximum scalar and re-merging
/// parent/child chains whose snapped values coincide.
///
/// `levels` must be at least 1 (panics otherwise; see
/// [`try_simplify_super_tree`] for the non-panicking variant). Using more
/// levels than there are distinct scalar values leaves the tree unchanged.
/// The members of merged nodes are concatenated, so
/// [`SuperScalarTree::total_members`] is preserved.
pub fn simplify_super_tree(tree: &SuperScalarTree, levels: usize) -> SuperScalarTree {
    assert!(levels >= 1, "need at least one discretization level");
    if tree.node_count() == 0 {
        return tree.clone();
    }
    let min = tree.scalars().iter().copied().fold(f64::INFINITY, f64::min);
    let max = tree.scalars().iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let snap = |value: f64| -> f64 {
        if max > min && levels > 1 {
            let t = (value - min) / (max - min);
            let bucket = (t * (levels - 1) as f64).round();
            min + (max - min) * bucket / (levels - 1) as f64
        } else {
            min
        }
    };

    // Assign every old node to a new (merged) group. Walk each root's
    // subtree; a child whose snapped scalar equals its parent's group scalar
    // joins the parent's group, otherwise it starts a new group. Groups are
    // created parents-first, which `from_parts` renumbers into DFS pre-order.
    let old_count = tree.node_count();
    let mut group_of = vec![u32::MAX; old_count];
    // (snapped scalar, parent group) in creation order.
    let mut groups: Vec<(f64, Option<u32>)> = Vec::new();
    let mut stack: Vec<(u32, Option<u32>)> = Vec::new(); // (old node, parent group)
    for &root in tree.roots() {
        stack.push((root, None));
    }
    while let Some((old, parent_group)) = stack.pop() {
        let snapped = snap(tree.scalar(old));
        let group = match parent_group {
            Some(pg) if groups[pg as usize].0 == snapped => pg,
            _ => {
                groups.push((snapped, parent_group));
                (groups.len() - 1) as u32
            }
        };
        group_of[old as usize] = group;
        for &child in tree.children(old) {
            stack.push((child, Some(group)));
        }
    }

    regroup(tree, &group_of, groups)
}

/// Cap a (snapped) super tree at `budget` nodes by folding its lightest
/// parts, the same "keep the heaviest, bucket the rest" rule the terrain
/// layout applies to children.
///
/// A tree that already fits comes back unchanged. Otherwise the roots are
/// ranked by subtree members, heaviest first (ties to the lower id), and
/// whole root subtrees are kept in that order while they fit in
/// `budget - 1` nodes. The first root that does not fit keeps only its
/// heaviest nodes by subtree members, up to the room left; that set is
/// ancestor-closed because every node has at least one member, and each
/// dropped node's members merge into its nearest kept ancestor. Every later
/// root folds into one synthetic root, placed last, whose members are the
/// union of theirs and whose scalar is their minimum — so the fold never
/// invents a peak, and [`SuperScalarTree::total_members`] is preserved.
///
/// Returns [`GraphError::InvalidConfig`] when `budget` is zero.
pub fn cap_super_tree(tree: SuperScalarTree, budget: usize) -> Result<SuperScalarTree> {
    if budget == 0 {
        return Err(GraphError::InvalidConfig {
            what: "node budget",
            message: "a render tree needs room for at least one node".into(),
        });
    }
    if tree.node_count() <= budget {
        return Ok(tree);
    }
    let heaviest_first = |a: &u32, b: &u32| {
        tree.subtree_member_count(*b).cmp(&tree.subtree_member_count(*a)).then(a.cmp(b))
    };
    let mut roots = tree.roots().to_vec();
    roots.sort_unstable_by(heaviest_first);

    let mut kept = vec![false; tree.node_count()];
    let mut room = budget - 1;
    let mut folded = &roots[..0];
    for (rank, &root) in roots.iter().enumerate() {
        let subtree = tree.subtree_nodes(root);
        if subtree.len() <= room {
            room -= subtree.len();
            subtree.for_each(|node| kept[node as usize] = true);
            continue;
        }
        let mut heaviest: Vec<u32> = subtree.collect();
        heaviest.select_nth_unstable_by(room, heaviest_first);
        heaviest[..room].iter().for_each(|&node| kept[node as usize] = true);
        folded = &roots[rank + usize::from(room > 0)..];
        break;
    }

    // Kept nodes become groups in id order, so the capped tree keeps the
    // snapped tree's order; a dropped node joins its parent's group, and a
    // folded root the synthetic group, numbered last.
    let other = kept.iter().filter(|&&k| k).count() as u32;
    let mut group_of = vec![u32::MAX; tree.node_count()];
    let mut groups: Vec<(f64, Option<u32>)> = Vec::with_capacity(other as usize + 1);
    for node in 0..tree.node_count() as u32 {
        let parent = tree.parent(node);
        group_of[node as usize] = if kept[node as usize] {
            groups.push((tree.scalar(node), parent.map(|p| group_of[p as usize])));
            (groups.len() - 1) as u32
        } else {
            parent.map_or(other, |p| group_of[p as usize])
        };
    }
    if !folded.is_empty() {
        let floor = folded.iter().map(|&root| tree.scalar(root)).fold(f64::INFINITY, f64::min);
        groups.push((floor, None));
    }
    Ok(regroup(&tree, &group_of, groups))
}

/// Rebuild `tree` with every old node merged into the group
/// `group_of[node]`, where `groups[g]` is group `g`'s scalar and parent
/// group. The members are scattered into one flat arena grouped by group id
/// (a counting sort; `from_parts` sorts within each group and renumbers the
/// groups into DFS pre-order, children in increasing group id).
fn regroup(
    tree: &SuperScalarTree,
    group_of: &[u32],
    groups: Vec<(f64, Option<u32>)>,
) -> SuperScalarTree {
    let group_count = groups.len();
    let mut member_offsets = vec![0u32; group_count + 1];
    for (old, &group) in group_of.iter().enumerate() {
        member_offsets[group as usize + 1] += tree.members(old as u32).len() as u32;
    }
    for g in 0..group_count {
        member_offsets[g + 1] += member_offsets[g];
    }
    let mut cursor: Vec<u32> = member_offsets[..group_count].to_vec();
    let mut member_ids = vec![0u32; member_offsets[group_count] as usize];
    for (old, &group) in group_of.iter().enumerate() {
        for &m in tree.members(old as u32) {
            member_ids[cursor[group as usize] as usize] = m;
            cursor[group as usize] += 1;
        }
    }

    let (scalar, parent): (Vec<f64>, Vec<Option<u32>>) = groups.into_iter().unzip();
    let result = SuperScalarTree::from_parts(
        scalar,
        parent,
        member_offsets,
        member_ids,
        tree.element_count(),
    );
    debug_assert_eq!(result.check_invariants(), Ok(()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_graph::VertexScalarGraph;
    use crate::super_tree::build_super_tree;
    use crate::vertex_tree::vertex_scalar_tree;
    use ugraph::generators::barabasi_albert;
    use ugraph::GraphBuilder;

    fn chain_tree() -> SuperScalarTree {
        // Path 0-1-2-3-4 with scalars 5,4,3,2,1 -> a chain of 5 super nodes.
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4)]);
        let g = b.build();
        let scalar = vec![5.0, 4.0, 3.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        build_super_tree(&vertex_scalar_tree(&sg))
    }

    #[test]
    fn two_levels_collapse_chain_to_two_nodes() {
        let st = chain_tree();
        assert_eq!(st.node_count(), 5);
        let simplified = simplify_super_tree(&st, 2);
        assert_eq!(simplified.node_count(), 2);
        assert_eq!(simplified.total_members(), 5);
        simplified.check_invariants().unwrap();
    }

    #[test]
    fn one_level_collapses_everything() {
        let st = chain_tree();
        let simplified = simplify_super_tree(&st, 1);
        assert_eq!(simplified.node_count(), 1);
        assert_eq!(simplified.total_members(), 5);
    }

    #[test]
    fn many_levels_preserve_tree() {
        let st = chain_tree();
        let simplified = simplify_super_tree(&st, 50);
        assert_eq!(simplified.node_count(), st.node_count());
        assert_eq!(simplified.total_members(), st.total_members());
    }

    #[test]
    fn member_count_is_always_preserved_and_nodes_shrink() {
        let g = barabasi_albert(300, 3, 7);
        let cores = measures::core_numbers(&g);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        for levels in [64usize, 16, 4, 2, 1] {
            let s = simplify_super_tree(&st, levels);
            s.check_invariants().unwrap();
            assert_eq!(s.total_members(), g.vertex_count());
            assert!(s.node_count() <= st.node_count(), "simplification never grows the tree");
        }
        // The coarsest simplification collapses each root's subtree entirely.
        let coarsest = simplify_super_tree(&st, 1);
        assert_eq!(coarsest.node_count(), st.roots().len());
    }

    #[test]
    fn zero_levels_error_instead_of_panicking() {
        let st = chain_tree();
        let err = try_simplify_super_tree(&st, 0).unwrap_err();
        assert!(matches!(err, ugraph::GraphError::InvalidConfig { .. }), "{err:?}");
        // And the fallible path agrees with the panicking one on valid input.
        let a = try_simplify_super_tree(&st, 2).unwrap();
        let b = simplify_super_tree(&st, 2);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.scalars(), b.scalars());
    }

    /// A three-node chain root (4 members) and three singleton-node roots
    /// of 1, 1 and 2 members.
    fn forest() -> SuperScalarTree {
        SuperScalarTree::from_parts(
            vec![1.0, 2.0, 3.0, 0.5, 0.25, 2.0],
            vec![None, Some(0), Some(1), None, None, None],
            vec![0, 2, 3, 4, 5, 6, 8],
            (0..8).collect(),
            8,
        )
    }

    #[test]
    fn cap_keeps_heavy_subtrees_and_folds_the_rest_into_a_last_root() {
        let tree = forest();
        for (budget, chain_nodes) in [(4, 3), (3, 2), (2, 1)] {
            let capped = cap_super_tree(tree.clone(), budget).unwrap();
            capped.check_invariants().unwrap();
            assert_eq!(capped.node_count(), budget);
            assert_eq!(capped.roots().len(), 2, "the chain root and one folded root");
            let (chain, other) = (capped.roots()[0], capped.roots()[1]);
            assert_eq!(capped.subtree_nodes(chain).len(), chain_nodes);
            assert_eq!(capped.subtree_members(chain), [0, 1, 2, 3]);
            assert_eq!(capped.members(other), [4, 5, 6, 7]);
            assert_eq!(capped.scalar(other), 0.25, "the folded root takes the lowest scalar");
        }
        // The chain's leaf is the lightest node: at budget 3 it merges into
        // its parent, which keeps its scalar.
        let capped = cap_super_tree(tree.clone(), 3).unwrap();
        assert_eq!(capped.members(1), [2, 3]);
        assert_eq!(capped.scalar(1), 2.0);
        // One node holds everything; a fitting tree is returned as is.
        let single = cap_super_tree(tree.clone(), 1).unwrap();
        assert_eq!((single.node_count(), single.scalar(0)), (1, 0.25));
        assert_eq!(cap_super_tree(tree.clone(), 6).unwrap(), tree);
    }

    #[test]
    fn zero_budget_is_an_error() {
        let err = cap_super_tree(forest(), 0).unwrap_err();
        assert!(matches!(err, ugraph::GraphError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn empty_tree_is_unchanged() {
        let g = GraphBuilder::new().build();
        let scalar: Vec<f64> = vec![];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let s = simplify_super_tree(&st, 4);
        assert_eq!(s.node_count(), 0);
    }
}
