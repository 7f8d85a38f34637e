//! The storage abstraction behind every graph consumer.
//!
//! [`GraphStorage`] exposes the four CSR arrays as borrowed slices — where
//! the bytes live (owned `Vec`s in [`CsrGraph`], a memory-mapped snapshot in
//! [`crate::MappedCsrGraph`]) is the implementor's business — and derives the
//! whole accessor surface (`neighbors`, `degree`, `find_edge`, …) from them
//! as default methods. Algorithms written against `G: GraphStorage + ?Sized`
//! therefore run unchanged, and bit-identically, over both backends.
//!
//! The trait is deliberately dyn-compatible: iterator-returning methods use
//! the concrete [`NeighborIter`], [`VertexIds`] and [`EdgeIter`] types rather
//! than `impl Trait`, and the generic length-check helpers live on the
//! blanket extension trait [`GraphStorageExt`]. The `Sync` supertrait lets a
//! shared `&G` cross the scoped threads of [`crate::par`].

use crate::csr::{CsrGraph, EdgeRef, NeighborIter};
use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, VertexId};

/// Read-only access to a simple undirected graph in canonical CSR form.
///
/// Implementors provide the four arrays; everything else is derived. The
/// arrays must satisfy the invariants listed under
/// [`GraphStorage::check_invariants`] — accessors assume them (the snapshot
/// decoders validate before handing out a storage, and [`crate::GraphBuilder`]
/// guarantees them by construction).
pub trait GraphStorage: Sync {
    /// Prefix-sum array: `offsets()[v]..offsets()[v + 1]` is the slice of
    /// [`GraphStorage::targets`] / [`GraphStorage::edge_ids`] holding the
    /// neighbors of vertex `v`. Length `vertex_count() + 1`.
    fn offsets(&self) -> &[usize];

    /// Neighbor vertex for each half-edge, sorted within each vertex block.
    /// Length `2 * edge_count()`.
    fn targets(&self) -> &[VertexId];

    /// Edge id for each half-edge, aligned with [`GraphStorage::targets`].
    fn edge_ids(&self) -> &[EdgeId];

    /// Endpoints `[u, v]` with `u < v` for each edge id, as plain `u32`
    /// pairs (fixed layout, so snapshot bytes can back this slice directly).
    fn endpoint_pairs(&self) -> &[[u32; 2]];

    /// Number of vertices.
    #[inline]
    fn vertex_count(&self) -> usize {
        self.offsets().len().saturating_sub(1)
    }

    /// Number of undirected edges.
    #[inline]
    fn edge_count(&self) -> usize {
        self.endpoint_pairs().len()
    }

    /// Degree of vertex `v` (number of incident edges).
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let offsets = self.offsets();
        offsets[v.index() + 1] - offsets[v.index()]
    }

    /// Largest degree over all vertices, or 0 for an empty graph.
    fn max_degree(&self) -> usize {
        self.offsets().windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Average degree `2|E| / |V|`, or 0 for the empty graph.
    fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// Iterator over all vertex ids in increasing order.
    #[inline]
    fn vertices(&self) -> VertexIds {
        VertexIds { range: 0..self.vertex_count() as u32 }
    }

    /// Iterator over all edges in increasing [`EdgeId`] order.
    #[inline]
    fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { pairs: self.endpoint_pairs(), pos: 0 }
    }

    /// Endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let [u, v] = self.endpoint_pairs()[e.index()];
        (VertexId(u), VertexId(v))
    }

    /// Checked variant of [`GraphStorage::endpoints`].
    fn try_endpoints(&self, e: EdgeId) -> Result<(VertexId, VertexId)> {
        self.endpoint_pairs()
            .get(e.index())
            .map(|&[u, v]| (VertexId(u), VertexId(v)))
            .ok_or(GraphError::EdgeOutOfBounds { edge: e.0, edge_count: self.edge_count() })
    }

    /// Iterator over the neighbors of `v` as `(neighbor, edge id)` pairs,
    /// sorted by neighbor id.
    #[inline]
    fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let offsets = self.offsets();
        let (start, end) = (offsets[v.index()], offsets[v.index() + 1]);
        NeighborIter::new(&self.targets()[start..end], &self.edge_ids()[start..end])
    }

    /// Iterator over just the neighbor vertices of `v`, sorted by id.
    #[inline]
    fn neighbor_vertices(&self, v: VertexId) -> std::iter::Copied<std::slice::Iter<'_, VertexId>> {
        self.neighbor_slice(v).iter().copied()
    }

    /// Slice of neighbor vertices of `v` (sorted by id).
    #[inline]
    fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        let offsets = self.offsets();
        &self.targets()[offsets[v.index()]..offsets[v.index() + 1]]
    }

    /// Incident edge ids of `v`, aligned with [`GraphStorage::neighbor_slice`].
    #[inline]
    fn incident_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        let offsets = self.offsets();
        &self.edge_ids()[offsets[v.index()]..offsets[v.index() + 1]]
    }

    /// Whether an edge between `u` and `v` exists. `O(log degree)`.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The id of the edge between `u` and `v`, if present. `O(log degree)`.
    ///
    /// The search runs over the smaller of the two adjacency lists.
    fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let slice = self.neighbor_slice(a);
        let idx = slice.binary_search(&b).ok()?;
        Some(self.incident_edge_slice(a)[idx])
    }

    /// Validate that `v` is a vertex of this graph.
    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if v.index() < self.vertex_count() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfBounds { vertex: v.0, vertex_count: self.vertex_count() })
        }
    }

    /// Copy this storage into an owned [`CsrGraph`] (same canonical arrays).
    fn to_csr_graph(&self) -> CsrGraph {
        CsrGraph::from_raw_parts(
            self.offsets().to_vec(),
            self.targets().to_vec(),
            self.edge_ids().to_vec(),
            self.endpoint_pairs().to_vec(),
        )
    }

    /// Verify every structural invariant of the CSR representation.
    ///
    /// Safe construction through [`crate::GraphBuilder`] guarantees all of
    /// these by design, so the check exists for the boundaries where that
    /// guarantee ends: graphs arriving from deserialization or mmap, fuzzing
    /// harnesses, and the generator property tests. `O(|V| + |E|)`.
    ///
    /// Checked invariants:
    /// 1. `offsets` starts at 0, is non-decreasing, ends at `2|E|`, and
    ///    `targets`/`edge_ids` have exactly that length.
    /// 2. Every endpoint pair is canonical (`u < v`) and in bounds.
    /// 3. Each neighbor list is strictly sorted (sorted + no duplicates, which
    ///    also rules out self loops since a loop would duplicate `v` itself).
    /// 4. Every half-edge's edge id points back at an endpoint pair containing
    ///    both the owning vertex and the stored target, and each edge id
    ///    appears exactly twice.
    fn check_invariants(&self) -> Result<()> {
        let broken = |what: &'static str, message: String| {
            Err(GraphError::BrokenInvariant { what, message })
        };
        let offsets = self.offsets();
        if offsets.is_empty() {
            return broken("offsets", "offsets array is empty".into());
        }
        let n = self.vertex_count();
        let half_edges = 2 * self.edge_count();
        if offsets.first() != Some(&0) {
            return broken("offsets", "offsets must start at 0".into());
        }
        if let Some(w) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return broken("offsets", format!("offsets decrease at vertex {w}"));
        }
        if offsets[n] != half_edges {
            return broken(
                "offsets",
                format!("offsets end at {} but the graph has {half_edges} half-edges", offsets[n]),
            );
        }
        if self.targets().len() != half_edges || self.edge_ids().len() != half_edges {
            return broken(
                "adjacency",
                format!(
                    "targets/edge_ids have lengths {}/{}, expected {half_edges}",
                    self.targets().len(),
                    self.edge_ids().len()
                ),
            );
        }
        for (i, &[u, v]) in self.endpoint_pairs().iter().enumerate() {
            if u >= v {
                return broken("endpoints", format!("edge {i} is not canonical: (v{u}, v{v})"));
            }
            if (v as usize) >= n {
                return broken("endpoints", format!("edge {i} endpoint v{v} out of bounds"));
            }
        }
        let mut seen = vec![0u8; self.edge_count()];
        for v in self.vertices() {
            let nbrs = self.neighbor_slice(v);
            if let Some(w) = nbrs.windows(2).position(|w| w[0] >= w[1]) {
                return broken(
                    "neighbor order",
                    format!("neighbors of {v:?} are not strictly sorted at position {w}"),
                );
            }
            for (t, e) in self.neighbors(v) {
                if e.index() >= self.edge_count() {
                    return broken("edge ids", format!("{v:?} references {e:?} out of bounds"));
                }
                let [a, b] = self.endpoint_pairs()[e.index()];
                if (a, b) != (v.0.min(t.0), v.0.max(t.0)) {
                    return broken(
                        "edge ids",
                        format!(
                            "{e:?} stored at half-edge {v:?}→{t:?} but has endpoints (v{a}, v{b})"
                        ),
                    );
                }
                seen[e.index()] += 1;
            }
        }
        if let Some(i) = seen.iter().position(|&c| c != 2) {
            return broken(
                "edge ids",
                format!("edge {i} appears {} times in the adjacency arrays, expected 2", seen[i]),
            );
        }
        Ok(())
    }
}

/// Generic helpers that would make [`GraphStorage`] non-dyn-compatible if
/// declared on the trait itself. Blanket-implemented for every storage, so
/// `graph.check_vertex_values(..)` works on `&dyn GraphStorage` too.
pub trait GraphStorageExt: GraphStorage {
    /// Validate that a per-vertex attribute vector has the right length.
    fn check_vertex_values<T>(&self, values: &[T]) -> Result<()> {
        if values.len() == self.vertex_count() {
            Ok(())
        } else {
            Err(GraphError::LengthMismatch {
                what: "vertices",
                expected: self.vertex_count(),
                actual: values.len(),
            })
        }
    }

    /// Validate that a per-edge attribute vector has the right length.
    fn check_edge_values<T>(&self, values: &[T]) -> Result<()> {
        if values.len() == self.edge_count() {
            Ok(())
        } else {
            Err(GraphError::LengthMismatch {
                what: "edges",
                expected: self.edge_count(),
                actual: values.len(),
            })
        }
    }
}

impl<G: GraphStorage + ?Sized> GraphStorageExt for G {}

// A reference to a storage is a storage: lets generic consumers accept
// `&&CsrGraph` (closure captures, iterator items) without an explicit deref.
impl<G: GraphStorage + ?Sized> GraphStorage for &G {
    fn offsets(&self) -> &[usize] {
        (**self).offsets()
    }

    fn targets(&self) -> &[VertexId] {
        (**self).targets()
    }

    fn edge_ids(&self) -> &[EdgeId] {
        (**self).edge_ids()
    }

    fn endpoint_pairs(&self) -> &[[u32; 2]] {
        (**self).endpoint_pairs()
    }
}

/// Iterator over all vertex ids of a graph, in increasing order.
#[derive(Clone, Debug)]
pub struct VertexIds {
    range: std::ops::Range<u32>,
}

impl Iterator for VertexIds {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        self.range.next().map(VertexId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for VertexIds {
    #[inline]
    fn next_back(&mut self) -> Option<VertexId> {
        self.range.next_back().map(VertexId)
    }
}

impl ExactSizeIterator for VertexIds {}

/// Iterator over all edges of a graph as [`EdgeRef`]s, in id order.
#[derive(Clone, Debug)]
pub struct EdgeIter<'a> {
    pairs: &'a [[u32; 2]],
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let &[u, v] = self.pairs.get(self.pos)?;
        let item = EdgeRef { id: EdgeId::from_index(self.pos), u: VertexId(u), v: VertexId(v) };
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.pairs.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for EdgeIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn dyn_storage_exposes_the_same_surface() {
        let g = triangle_plus_tail();
        let dynamic: &dyn GraphStorage = &g;
        assert_eq!(dynamic.vertex_count(), 4);
        assert_eq!(dynamic.edge_count(), 4);
        assert_eq!(dynamic.degree(VertexId(2)), 3);
        assert_eq!(dynamic.max_degree(), 3);
        assert_eq!(dynamic.vertices().count(), 4);
        assert_eq!(dynamic.edges().count(), 4);
        assert!(dynamic.has_edge(VertexId(0), VertexId(2)));
        assert!(dynamic.find_edge(VertexId(0), VertexId(3)).is_none());
        assert!(dynamic.check_vertex_values(&[0u8; 4]).is_ok());
        assert!(dynamic.check_edge_values(&[0u8; 3]).is_err());
        dynamic.check_invariants().unwrap();
    }

    #[test]
    fn to_csr_graph_round_trips() {
        let g = triangle_plus_tail();
        let dynamic: &dyn GraphStorage = &g;
        assert_eq!(dynamic.to_csr_graph(), g);
    }

    #[test]
    fn vertex_ids_iterate_both_ways() {
        let g = triangle_plus_tail();
        let fwd: Vec<u32> = g.vertices().map(|v| v.0).collect();
        let back: Vec<u32> = GraphStorage::vertices(&g).rev().map(|v| v.0).collect();
        assert_eq!(fwd, vec![0, 1, 2, 3]);
        assert_eq!(back, vec![3, 2, 1, 0]);
        assert_eq!(GraphStorage::vertices(&g).len(), 4);
    }
}
