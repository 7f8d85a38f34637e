//! # scalarfield — scalar graphs, scalar trees and terrain-ready hierarchies
//!
//! This crate is the reproduction of the primary contribution of
//! *Analyzing and Visualizing Scalar Fields on Graphs* (Zhang, Wang,
//! Parthasarathy, ICDE 2017):
//!
//! * [`scalar_graph`] — vertex-based and edge-based **scalar graphs**
//!   (Section II, Notation);
//! * [`component`] — **maximal α-connected components** and their edge-based
//!   analogue (Definitions 1–3), extracted directly; used both as a public API
//!   and as the correctness oracle for the tree algorithms;
//! * [`vertex_tree`] — the **vertex scalar tree** of Algorithm 1
//!   (union–find sweep in decreasing scalar order, shared with Algorithm 3);
//! * [`super_tree`] — the **super scalar tree** of Algorithm 2 (merging
//!   equal-scalar ancestor/descendant chains so Property 2 holds when scalar
//!   values repeat);
//! * [`edge_tree`] — the **edge scalar tree**: the optimized Algorithm 3 and
//!   the naive dual-graph method it replaces;
//! * [`mcc`] — `MCC(v)` / `MCC(e)` queries and α cross-sections on super trees
//!   (Theorems 1–3, Propositions 1–2);
//! * [`simplify`] — scalar discretization simplification (Section II-E,
//!   "Simplification") and the node-budget cap that folds light components;
//! * [`correlation`] — the **Local/Global Correlation Index** and outlier
//!   score for pairs of scalar fields (Section II-F, Figure 10).
//!
//! ## Flat-arena tree representation
//!
//! Both tree types are stored as flat arenas rather than pointer-chasing
//! node structs, because every downstream stage (terrain layout, peaks,
//! treemap, MCC queries) hammers the same handful of tree queries:
//!
//! * [`ScalarTree`] keeps node ids equal to element ids (Property 1) and
//!   stores, beside the parent pointers, only what Algorithm 2 reads: the
//!   roots and the children as a single shared CSR vector with per-node
//!   `(offset, len)` ranges — mirroring `ugraph::CsrGraph` — so `children`
//!   is an allocation-free slice.
//! * [`SuperScalarTree`] holds super nodes in **DFS pre-order**, the order
//!   Algorithm 2 emits them in: every parent id is smaller than its
//!   children's, the subtree rooted at `i` is the contiguous id range
//!   `i..subtree_end(i)`, and the member arena is grouped accordingly — so
//!   `subtree_member_count` is O(1) offset arithmetic and `subtree_members`
//!   is a single allocation. Reversed, the ids list children before
//!   parents, so bottom-up passes need no level order.
//!
//! ## Quick example: K-Core terrain input in a few lines
//!
//! ```
//! use ugraph::GraphBuilder;
//! use measures::core_numbers;
//! use scalarfield::{VertexScalarGraph, vertex_scalar_tree, build_super_tree};
//!
//! // A small graph: a triangle with a pendant path.
//! let mut b = GraphBuilder::new();
//! b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
//! let graph = b.build();
//!
//! // Use the K-Core number of each vertex as its scalar value.
//! let cores = core_numbers(&graph);
//! let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
//! let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
//!
//! // Algorithm 1 + Algorithm 2 give the super scalar tree (terrain input).
//! let tree = vertex_scalar_tree(&sg);
//! let super_tree = build_super_tree(&tree);
//! assert_eq!(super_tree.total_members(), graph.vertex_count());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod component;
pub mod correlation;
pub mod edge_tree;
pub mod mcc;
pub mod scalar_graph;
pub mod simplify;
pub mod super_tree;
pub mod vertex_tree;

pub use component::{
    maximal_alpha_components, maximal_alpha_edge_components, AlphaComponent, AlphaEdgeComponent,
};
pub use correlation::{global_correlation_index, local_correlation_index, outlier_scores};
pub use edge_tree::{edge_scalar_tree, edge_scalar_tree_naive};
pub use mcc::{
    component_members_at_alpha, components_at_alpha, mcc_members, mcc_of_element, AlphaCut,
};
pub use scalar_graph::{EdgeScalarGraph, VertexScalarGraph};
pub use simplify::simplify_super_tree;
pub use super_tree::{build_super_tree, SuperScalarTree};
pub use vertex_tree::{vertex_scalar_tree, ScalarTree};
