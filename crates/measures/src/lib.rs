//! # measures — scalar fields over graphs
//!
//! The paper visualizes *scalar graphs*: graphs whose vertices or edges carry
//! a numerical measure. This crate computes every measure used in the paper's
//! evaluation:
//!
//! * **degree** and degree centrality (Figures 1(a), 10, 13),
//! * **K-Core numbers** via the Batagelj–Zaveršnik bucket algorithm
//!   (Figures 1(a), 6, 7, 12 and Proposition 4),
//! * **triangle counts** and the **K-Truss decomposition**
//!   (Figures 6(e), 7(b,d) and Proposition 5),
//! * **PageRank**, **closeness** and **harmonic** centrality (mentioned as
//!   candidate measures in the introduction),
//! * **betweenness centrality** via Brandes' algorithm, exact and sampled
//!   (Figure 10, Task 3 of the user study),
//! * **overlapping community scores** and a hard **label-propagation**
//!   partition (Figures 1(b), 8),
//! * **structural roles** — hub / dense-community / periphery / whisker
//!   (Figure 9),
//! * local clustering coefficients.
//!
//! All functions return plain `Vec<f64>` (or `Vec<usize>` for integral
//! measures) indexed by vertex or edge id, ready to be wrapped into the
//! scalar-field types of the `scalarfield` crate.
//!
//! ## Parallel execution
//!
//! The hot measures — betweenness (exact and sampled), closeness, PageRank,
//! triangle counting, and the K-Truss support initialization — have
//! `*_with(parallelism)` variants driven by the deterministic chunked engine
//! in [`ugraph::par`]. The [`Parallelism`] knob (re-exported here) is pure
//! wall-clock: chunking is a function of the input length, per-chunk
//! accumulators merge in fixed order, and the property tests in
//! `tests/properties.rs` assert exact `==` between serial and
//! `Threads(1..=4)` outputs for all of them. The plain functions are thin
//! wrappers equivalent to `*_with(Parallelism::Serial)`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod betweenness;
pub mod closeness;
pub mod community;
pub mod degree;
pub mod kcore;
pub mod ktruss;
pub mod pagerank;
pub mod roles;
pub mod triangles;

pub use betweenness::{
    betweenness_centrality, betweenness_centrality_sampled, betweenness_centrality_sampled_with,
    betweenness_centrality_with,
};
pub use closeness::{closeness_centrality, closeness_centrality_with, harmonic_centrality};
pub use community::{label_propagation, overlapping_community_scores, CommunityScores};
pub use degree::{degree_centrality, degrees};
pub use kcore::{core_numbers, KCoreDecomposition};
pub use ktruss::{truss_numbers, truss_numbers_with, KTrussDecomposition};
pub use pagerank::{pagerank, pagerank_with, PageRankConfig};
pub use roles::{assign_roles, Role, RoleAssignment};
pub use triangles::{
    clustering_coefficients, clustering_coefficients_with, edge_triangle_counts,
    edge_triangle_counts_with, total_triangles, total_triangles_with, vertex_triangle_counts,
    vertex_triangle_counts_with,
};
pub use ugraph::par::{Parallelism, ParseParallelismError, ParseParallelismErrorKind};
