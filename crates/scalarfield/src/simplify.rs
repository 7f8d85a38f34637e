//! Scalar-tree simplification (Section II-E, "Simplification") under a
//! render budget.
//!
//! Large graphs produce super trees with too many nodes to render smoothly.
//! The paper's remedy discretizes the scalar values so that similar values
//! become equal, then re-runs the Algorithm-2 merge, giving an *approximate*
//! super tree with far fewer nodes. Snapping never merges two roots, so a
//! forest of many small components (R-MAT graphs leave ~40% of their vertices
//! isolated) is also capped: the heaviest subtrees are kept and the rest fold
//! into one synthetic root. [`simplify_super_tree`] does both.

use crate::super_tree::SuperScalarTree;
use ugraph::{GraphError, Result};

/// Provisional groups: each group's scalar and parent group, in creation
/// order (parents first).
type Groups = Vec<(f64, Option<u32>)>;

/// Simplify a super tree for rendering, in one scan and one arena rebuild:
/// snap its scalars to `levels` evenly spaced values between its minimum and
/// maximum, merge parent/child chains whose snapped values coincide, then cap
/// the result at `budget` nodes.
///
/// The arena is in DFS pre-order, so a forward scan over node ids sees each
/// parent before its children: a node joins its parent's group when their
/// snapped scalars are equal and starts a new one otherwise. Groups come out
/// in pre-order, keeping the input's root and sibling order. When snapping is
/// injective on the tree's scalars nothing merges and the shape and order are
/// kept; the tree comes back `==` when snapping is also the identity on them
/// (integer scalars at `levels = max - min + 1`) and it fits the budget. More
/// levels than distinct values is not enough: two values closer than one
/// level apart can still share a bucket.
///
/// Over budget, whole root subtrees are kept, heaviest by subtree members
/// first (ties to the lower id), while they fit in `budget - 1` nodes. The
/// first root that does not fit keeps only its heaviest nodes, up to the room
/// left (an ancestor-closed set, as every node has a member); a dropped
/// node's members merge into its nearest kept ancestor. Every later root
/// folds into one synthetic root, placed last, with the union of their
/// members and the minimum of their scalars, so the fold never invents a
/// peak.
///
/// [`SuperScalarTree::total_members`] is preserved. Returns
/// [`GraphError::InvalidConfig`] when `levels` or `budget` is zero, even for
/// an empty tree.
pub fn simplify_super_tree(
    tree: &SuperScalarTree,
    levels: usize,
    budget: usize,
) -> Result<SuperScalarTree> {
    if levels == 0 {
        return Err(GraphError::InvalidConfig {
            what: "simplification levels",
            message: "need at least one discretization level".into(),
        });
    }
    if budget == 0 {
        return Err(GraphError::InvalidConfig {
            what: "node budget",
            message: "a render tree needs room for at least one node".into(),
        });
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

    let mut group_of = Vec::with_capacity(tree.node_count());
    let mut groups: Groups = Vec::new();
    for node in 0..tree.node_count() as u32 {
        let snapped = snap(tree.scalar(node));
        let parent = tree.parent(node).map(|p| group_of[p as usize]);
        group_of.push(match parent {
            Some(group) if groups[group as usize].0 == snapped => group,
            _ => {
                groups.push((snapped, parent));
                (groups.len() - 1) as u32
            }
        });
    }
    if groups.len() > budget {
        groups = cap(tree, &mut group_of, &groups, budget);
    }
    Ok(regroup(tree, &group_of, groups))
}

/// Apply the cap of [`simplify_super_tree`] to the snapped `groups` (in
/// pre-order, so a group's subtree is the id range starting at it), moving
/// `group_of` onto the capped groups, which it returns.
fn cap(tree: &SuperScalarTree, group_of: &mut [u32], groups: &Groups, budget: usize) -> Groups {
    // One reverse scan over the groups gives subtree members and sizes.
    let mut weight = vec![0usize; groups.len()];
    for (node, &group) in group_of.iter().enumerate() {
        weight[group as usize] += tree.members(node as u32).len();
    }
    let mut size = vec![1u32; groups.len()];
    for group in (0..groups.len()).rev() {
        if let Some(parent) = groups[group].1 {
            weight[parent as usize] += weight[group];
            size[parent as usize] += size[group];
        }
    }
    let heaviest_first =
        |a: &u32, b: &u32| weight[*b as usize].cmp(&weight[*a as usize]).then(a.cmp(b));
    let mut roots: Vec<u32> =
        (0..groups.len() as u32).filter(|&g| groups[g as usize].1.is_none()).collect();
    roots.sort_unstable_by(heaviest_first);

    let mut kept = vec![false; groups.len()];
    let mut room = budget - 1;
    let mut folded = &roots[..0];
    for (rank, &root) in roots.iter().enumerate() {
        let subtree = root..root + size[root as usize];
        if subtree.len() <= room {
            room -= subtree.len();
            kept[subtree.start as usize..subtree.end as usize].fill(true);
            continue;
        }
        let mut heaviest: Vec<u32> = subtree.collect();
        heaviest.select_nth_unstable_by(room, heaviest_first);
        heaviest[..room].iter().for_each(|&group| kept[group as usize] = true);
        folded = &roots[rank + usize::from(room > 0)..];
        break;
    }

    // Kept groups stay in id order, so the cap keeps the snapped order; a
    // dropped group joins its parent's, and a folded root the synthetic
    // group, numbered last.
    let other = kept.iter().filter(|&&k| k).count() as u32;
    let mut capped_of = vec![u32::MAX; groups.len()];
    let mut capped: Groups = Vec::with_capacity(other as usize + 1);
    for (group, &(scalar, parent)) in groups.iter().enumerate() {
        capped_of[group] = if kept[group] {
            capped.push((scalar, parent.map(|p| capped_of[p as usize])));
            (capped.len() - 1) as u32
        } else {
            parent.map_or(other, |p| capped_of[p as usize])
        };
    }
    if !folded.is_empty() {
        let floor =
            folded.iter().map(|&root| groups[root as usize].0).fold(f64::INFINITY, f64::min);
        capped.push((floor, None));
    }
    group_of.iter_mut().for_each(|group| *group = capped_of[*group as usize]);
    capped
}

/// Rebuild `tree` with every old node merged into the group
/// `group_of[node]`, where `groups[g]` is group `g`'s scalar and parent
/// group. The members are scattered into one flat arena grouped by group id
/// (a counting sort; `from_parts` sorts within each group). The groups
/// come out in DFS pre-order, the order `from_parts` takes them in.
fn regroup(tree: &SuperScalarTree, group_of: &[u32], groups: Groups) -> SuperScalarTree {
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
        let simplified = simplify_super_tree(&st, 2, 5).unwrap();
        assert_eq!(simplified.node_count(), 2);
        assert_eq!(simplified.total_members(), 5);
        simplified.check_invariants().unwrap();
    }

    #[test]
    fn one_level_collapses_everything() {
        let st = chain_tree();
        let simplified = simplify_super_tree(&st, 1, 5).unwrap();
        assert_eq!(simplified.node_count(), 1);
        assert_eq!(simplified.total_members(), 5);
    }

    #[test]
    fn many_levels_preserve_tree() {
        let st = chain_tree();
        // Scalars 1..=5 at five levels: snapping is the identity.
        assert_eq!(simplify_super_tree(&st, 5, 5).unwrap(), st);
        // At 50 levels snapping is injective but moves the scalars: the shape
        // and members are kept, the values are not.
        let simplified = simplify_super_tree(&st, 50, 5).unwrap();
        assert_eq!(simplified.parents(), st.parents());
        assert_eq!(
            (0..5).map(|n| simplified.members(n)).collect::<Vec<_>>(),
            (0..5).map(|n| st.members(n)).collect::<Vec<_>>()
        );
        assert_ne!(simplified.scalars(), st.scalars());
    }

    #[test]
    fn more_levels_than_values_can_still_merge_a_chain() {
        // A chain 0 < 0.01 < 1: three distinct values, yet at three levels
        // 0 and 0.01 share the bottom bucket and merge.
        let tree = SuperScalarTree::from_parts(
            vec![0.0, 0.01, 1.0],
            vec![None, Some(0), Some(1)],
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            3,
        );
        let three = simplify_super_tree(&tree, 3, 3).unwrap();
        assert_eq!(three.node_count(), 2);
        assert_eq!((three.members(0), three.scalars()), (&[0, 1][..], &[0.0, 1.0][..]));
        // At 1 000 levels nothing merges, but 0.01 is stored snapped.
        let many = simplify_super_tree(&tree, 1_000, 3).unwrap();
        assert_eq!(many.parents(), tree.parents());
        assert_ne!(many.scalar(1), 0.01);
        assert!((many.scalar(1) - 0.01).abs() < 1e-3);
    }

    #[test]
    fn snapping_keeps_root_and_sibling_order() {
        // Four singleton roots, then a root with two children: every id
        // keeps its place at 1 000 levels.
        let tree = SuperScalarTree::from_parts(
            vec![0.0, 1.0, 2.0, 3.0, 0.0, 4.0, 5.0],
            vec![None, None, None, None, None, Some(4), Some(4)],
            (0..=7).collect(),
            (0..7).collect(),
            7,
        );
        let snapped = simplify_super_tree(&tree, 1_000, 7).unwrap();
        assert_eq!(snapped.parents(), tree.parents());
        for node in 0..7 {
            assert_eq!(snapped.members(node), [node]);
        }
    }

    #[test]
    fn member_count_is_always_preserved_and_nodes_shrink() {
        let g = barabasi_albert(300, 3, 7);
        let cores = measures::core_numbers(&g);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        let n = st.node_count();
        for levels in [64usize, 16, 4, 2, 1] {
            let s = simplify_super_tree(&st, levels, n).unwrap();
            s.check_invariants().unwrap();
            assert_eq!(s.total_members(), g.vertex_count());
            assert!(s.node_count() <= n, "simplification never grows the tree");
        }
        // The coarsest simplification collapses each root's subtree entirely.
        let coarsest = simplify_super_tree(&st, 1, n).unwrap();
        assert_eq!(coarsest.node_count(), st.roots().len());
    }

    #[test]
    fn zero_levels_error_instead_of_panicking() {
        for tree in [
            chain_tree(),
            forest(),
            SuperScalarTree::from_parts(vec![], vec![], vec![0], vec![], 0),
        ] {
            let err = simplify_super_tree(&tree, 0, 100).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidConfig { what: "simplification levels", .. }),
                "{err:?}"
            );
        }
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

    /// `forest()`'s scalars are multiples of 0.25 from 0.25 to 3, so twelve
    /// levels snap each to itself.
    const FOREST_IDENTITY_LEVELS: usize = 12;

    #[test]
    fn cap_keeps_heavy_subtrees_and_folds_the_rest_into_a_last_root() {
        let tree = forest();
        let cap = |budget| simplify_super_tree(&tree, FOREST_IDENTITY_LEVELS, budget).unwrap();
        for (budget, chain_nodes) in [(4, 3), (3, 2), (2, 1)] {
            let capped = cap(budget);
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
        let capped = cap(3);
        assert_eq!(capped.members(1), [2, 3]);
        assert_eq!(capped.scalar(1), 2.0);
        // One node holds everything; a fitting tree is returned as is.
        let single = cap(1);
        assert_eq!((single.node_count(), single.scalar(0)), (1, 0.25));
        assert_eq!(cap(6), tree);
    }

    #[test]
    fn zero_budget_is_an_error() {
        for levels in [1, 64] {
            let err = simplify_super_tree(&forest(), levels, 0).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidConfig { what: "node budget", .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn capped_tree_memory_is_bounded_by_its_budget_and_elements() {
        // 20 000 vertices with all-distinct scalars: one super node each.
        let g = barabasi_albert(20_000, 2, 11);
        let scalar: Vec<f64> = (0..20_000u64).map(|i| ((i * 7_919) % 20_011) as f64).collect();
        let st =
            build_super_tree(&vertex_scalar_tree(&VertexScalarGraph::new(&g, &scalar).unwrap()));
        assert_eq!(st.node_count(), 20_000);
        let capped = simplify_super_tree(&st, 64, 500).unwrap();
        assert!(capped.node_count() <= 500);
        // 32 bytes per node (scalar 8, parent 8, subtree end, child and
        // member offsets 4 each, one child-or-root id 4), 8 per element
        // (its member id and its `node_of` entry), 8 for the two offset
        // arrays' closing entries.
        let bound = |nodes: usize| 32 * nodes + 8 * 20_000 + 8;
        assert!(capped.heap_bytes() <= bound(500), "{} > {}", capped.heap_bytes(), bound(500));
        assert!(capped.heap_bytes() <= bound(capped.node_count()));
        // The uncapped tree pays the per-node cost 20 000 times.
        assert_eq!(st.heap_bytes(), bound(20_000));
    }

    #[test]
    fn empty_tree_is_unchanged() {
        let g = GraphBuilder::new().build();
        let scalar: Vec<f64> = vec![];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let st = build_super_tree(&vertex_scalar_tree(&sg));
        assert_eq!(simplify_super_tree(&st, 4, 1).unwrap(), st);
    }
}
