//! # ugraph — undirected graph substrate
//!
//! This crate provides the graph layer that every other crate of the
//! *graph-terrain* workspace builds on: a compact CSR (compressed sparse row)
//! representation of simple undirected graphs, a mutation-friendly builder,
//! a union–find structure (the workhorse of the scalar-tree algorithms of the
//! paper), traversals, line (dual) graphs, deterministic random generators for
//! the synthetic datasets that stand in for the paper's SNAP datasets, and a
//! streaming ingest boundary ([`io::GraphSource`]) over edge-list, CSV, METIS,
//! JSON-adjacency and versioned binary-snapshot inputs.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — every generator takes an explicit seed, and every
//!    structure has a canonical iteration order, so figures and benchmarks are
//!    reproducible bit-for-bit.
//! 2. **Cache friendliness** — the hot algorithms of the paper (Algorithm 1/3,
//!    K-Core and K-Truss decompositions) stream over adjacency arrays; CSR keeps
//!    those scans contiguous.
//! 3. **Small, explicit API** — only what the upper layers need.
//!
//! The [`par`] module adds a deterministic chunked parallel-for
//! ([`par::map_reduce_chunks`]) that the `measures` crate drives its hot
//! centralities through; its [`Parallelism`] knob changes wall-clock time but
//! never results (chunking is a pure function of the input length), so goal 1
//! survives multithreading.
//!
//! ## Quick example
//!
//! ```
//! use ugraph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//! assert_eq!(g.vertex_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.degree(VertexId(0)), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod dual;
pub mod error;
pub mod generators;
pub mod ids;
pub mod io;
pub mod par;
pub mod storage;
pub mod traversal;
pub mod union_find;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, EdgeRef, NeighborIter};
pub use delta::{DeltaApplyStats, DeltaOp, EdgeChange, GraphDelta};
pub use dual::{line_graph, LineGraph};
pub use error::{GraphError, Result};
pub use ids::{EdgeId, VertexId};
pub use io::{GraphFormat, GraphSource, MappedCsrGraph, ParsedEdgeList};
pub use par::Parallelism;
pub use storage::{GraphStorage, GraphStorageExt};
pub use traversal::{bfs_order, connected_components, ConnectedComponents};
pub use union_find::UnionFind;
