//! Compressed sparse row (CSR) storage for simple undirected graphs.
//!
//! A [`CsrGraph`] is immutable once built (use [`crate::GraphBuilder`] to
//! construct one). Every undirected edge `{u, v}` is stored once in the edge
//! table (with `u < v`) and appears twice in the adjacency arrays — once in
//! `u`'s neighbor list and once in `v`'s — both entries carrying the same
//! [`EdgeId`]. Neighbor lists are sorted by target vertex id, which gives the
//! whole structure a canonical form: two graphs with the same edge set compare
//! equal and iterate identically.
//!
//! `CsrGraph` is the owned implementation of [`GraphStorage`]; the accessor
//! surface lives on that trait (shared with [`crate::MappedCsrGraph`]) and is
//! mirrored here as inherent methods so plain `&CsrGraph` call sites need no
//! trait import.

use crate::error::Result;
use crate::ids::{EdgeId, VertexId};
use crate::storage::{EdgeIter, GraphStorage, GraphStorageExt, VertexIds};

/// A reference to one undirected edge: its id and its two endpoints.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    /// Identifier of the edge.
    pub id: EdgeId,
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
}

impl EdgeRef {
    /// The endpoint of this edge that is not `w`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `w` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, w: VertexId) -> VertexId {
        debug_assert!(w == self.u || w == self.v, "vertex is not an endpoint");
        if w == self.u {
            self.v
        } else {
            self.u
        }
    }
}

/// Immutable simple undirected graph in CSR form.
///
/// ```
/// use ugraph::{CsrGraph, GraphBuilder, VertexId};
///
/// // A triangle with a tail: 0-1, 1-2, 2-0, 2-3.
/// let mut b = GraphBuilder::new();
/// for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
///     b.add_edge(u, v);
/// }
/// let g: CsrGraph = b.build();
///
/// assert_eq!((g.vertex_count(), g.edge_count()), (4, 4));
/// assert_eq!(g.degree(VertexId(2)), 3);
/// // Neighbor lists are sorted slices — the canonical iteration order.
/// let nbrs: Vec<u32> = g.neighbor_slice(VertexId(2)).iter().map(|v| v.0).collect();
/// assert_eq!(nbrs, vec![0, 1, 3]);
/// assert!(g.has_edge(VertexId(0), VertexId(2)));
/// assert!(!g.has_edge(VertexId(0), VertexId(3)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` is the slice of `targets`/`edge_ids` holding
    /// the neighbors of vertex `v`.
    offsets: Vec<usize>,
    /// Neighbor vertex for each half-edge, sorted within each vertex.
    targets: Vec<VertexId>,
    /// Edge id for each half-edge, aligned with `targets`.
    edge_ids: Vec<EdgeId>,
    /// Endpoints `[u, v]` with `u < v` for each edge id. Stored as plain
    /// `u32` pairs (guaranteed layout) so the slice type matches what a
    /// memory-mapped snapshot can expose without copying.
    endpoints: Vec<[u32; 2]>,
}

impl CsrGraph {
    /// Build a graph from a vertex count and a sorted list of canonical
    /// edges; edge `i` of the list gets id `i`.
    ///
    /// The caller must pass the edges with `u < v` (so no self loops) in
    /// strictly increasing order (so no duplicates); the constructor only
    /// debug-asserts it. Its callers are [`crate::GraphBuilder::build`],
    /// which sorts and deduplicates, and [`CsrGraph::induced_subgraph`],
    /// which keeps its source's canonical order.
    ///
    /// Sorted input is what makes the counting scatter below produce the
    /// canonical form directly: vertex `w`'s block first receives its lower
    /// neighbors `u` from the edges `(u, w)`, in increasing `u`, and then
    /// its higher neighbors `v` from the edges `(w, v)`, in increasing `v`.
    /// Every adjacency block is therefore ascending without a re-sort.
    pub(crate) fn from_canonical_edges(
        vertex_count: usize,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be strictly increasing");
        let mut degree = vec![0usize; vertex_count];
        for &(u, v) in &edges {
            debug_assert!(u < v, "edges must be canonical (u < v)");
            debug_assert!(v.index() < vertex_count, "endpoint out of bounds");
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(vertex_count + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut targets = vec![VertexId(0); acc];
        let mut edge_ids = vec![EdgeId(0); acc];
        // `cursor[v]` is the next free slot in v's adjacency block.
        let mut cursor: Vec<usize> = offsets[..vertex_count].to_vec();
        for (i, &(u, v)) in edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            targets[cursor[u.index()]] = v;
            edge_ids[cursor[u.index()]] = id;
            cursor[u.index()] += 1;
            targets[cursor[v.index()]] = u;
            edge_ids[cursor[v.index()]] = id;
            cursor[v.index()] += 1;
        }

        let endpoints = edges.into_iter().map(|(u, v)| [u.0, v.0]).collect();
        CsrGraph { offsets, targets, edge_ids, endpoints }
    }

    /// Assemble a graph directly from the four canonical CSR arrays.
    ///
    /// No validation is performed — the caller must guarantee the invariants
    /// of [`GraphStorage::check_invariants`] (snapshot decoders validate the
    /// arrays first; [`GraphStorage::to_csr_graph`] copies from an
    /// already-valid storage; [`crate::delta::apply`] splices a batch into
    /// one and debug-asserts the result).
    pub(crate) fn from_raw_parts(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        edge_ids: Vec<EdgeId>,
        endpoints: Vec<[u32; 2]>,
    ) -> Self {
        CsrGraph { offsets, targets, edge_ids, endpoints }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of vertex `v` (number of incident edges).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Largest degree over all vertices, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        GraphStorage::max_degree(self)
    }

    /// Iterator over all vertex ids in increasing order.
    pub fn vertices(&self) -> VertexIds {
        GraphStorage::vertices(self)
    }

    /// Iterator over all edges in increasing [`EdgeId`] order.
    pub fn edges(&self) -> EdgeIter<'_> {
        GraphStorage::edges(self)
    }

    /// Endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let [u, v] = self.endpoints[e.index()];
        (VertexId(u), VertexId(v))
    }

    /// Checked variant of [`CsrGraph::endpoints`].
    pub fn try_endpoints(&self, e: EdgeId) -> Result<(VertexId, VertexId)> {
        GraphStorage::try_endpoints(self, e)
    }

    /// Iterator over the neighbors of `v` as `(neighbor, edge id)` pairs,
    /// sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        GraphStorage::neighbors(self, v)
    }

    /// Iterator over just the neighbor vertices of `v`, sorted by id.
    pub fn neighbor_vertices(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_slice(v).iter().copied()
    }

    /// Slice of neighbor vertices of `v` (sorted by id).
    #[inline]
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        let start = self.offsets[v.index()];
        let end = self.offsets[v.index() + 1];
        &self.targets[start..end]
    }

    /// Incident edge ids of `v`, aligned with [`CsrGraph::neighbor_slice`].
    #[inline]
    pub fn incident_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        let start = self.offsets[v.index()];
        let end = self.offsets[v.index() + 1];
        &self.edge_ids[start..end]
    }

    /// Whether an edge between `u` and `v` exists. `O(log degree)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        GraphStorage::has_edge(self, u, v)
    }

    /// The id of the edge between `u` and `v`, if present. `O(log degree)`.
    ///
    /// The search runs over the smaller of the two adjacency lists.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        GraphStorage::find_edge(self, u, v)
    }

    /// Validate that `v` is a vertex of this graph.
    pub fn check_vertex(&self, v: VertexId) -> Result<()> {
        GraphStorage::check_vertex(self, v)
    }

    /// Validate that a per-vertex attribute vector has the right length.
    pub fn check_vertex_values<T>(&self, values: &[T]) -> Result<()> {
        GraphStorageExt::check_vertex_values(self, values)
    }

    /// Validate that a per-edge attribute vector has the right length.
    pub fn check_edge_values<T>(&self, values: &[T]) -> Result<()> {
        GraphStorageExt::check_edge_values(self, values)
    }

    /// Extract the subgraph induced by `keep` (vertices with `keep[v] == true`).
    ///
    /// Returns the induced graph together with the mapping from new vertex ids
    /// to original vertex ids.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (CsrGraph, Vec<VertexId>) {
        assert_eq!(keep.len(), self.vertex_count(), "mask length mismatch");
        let mut new_id = vec![u32::MAX; self.vertex_count()];
        let mut back = Vec::new();
        for v in 0..self.vertex_count() {
            if keep[v] {
                new_id[v] = back.len() as u32;
                back.push(VertexId::from_index(v));
            }
        }
        let mut edges = Vec::new();
        for e in self.edges() {
            if keep[e.u.index()] && keep[e.v.index()] {
                let a = VertexId(new_id[e.u.index()]);
                let b = VertexId(new_id[e.v.index()]);
                let (a, b) = if a < b { (a, b) } else { (b, a) };
                edges.push((a, b));
            }
        }
        edges.sort_unstable();
        (CsrGraph::from_canonical_edges(back.len(), edges), back)
    }

    /// Verify every structural invariant of the CSR representation.
    ///
    /// See [`GraphStorage::check_invariants`] for the list of checked
    /// invariants. `O(|V| + |E|)`.
    ///
    /// ```
    /// use ugraph::generators::rmat;
    ///
    /// rmat(10, 5_000, 42).check_invariants().expect("builder output is canonical");
    /// ```
    pub fn check_invariants(&self) -> Result<()> {
        GraphStorage::check_invariants(self)
    }

    /// Average degree `2|E| / |V|`, or 0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        GraphStorage::average_degree(self)
    }
}

impl GraphStorage for CsrGraph {
    #[inline]
    fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    #[inline]
    fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    #[inline]
    fn edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    #[inline]
    fn endpoint_pairs(&self) -> &[[u32; 2]] {
        &self.endpoints
    }

    // The derived defaults are correct for the owned backend too; only the
    // trivially field-backed ones are overridden to skip the slice plumbing.
    #[inline]
    fn vertex_count(&self) -> usize {
        CsrGraph::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }
}

/// Iterator over `(neighbor, edge id)` pairs of one vertex.
pub struct NeighborIter<'a> {
    targets: &'a [VertexId],
    edge_ids: &'a [EdgeId],
    pos: usize,
}

impl<'a> NeighborIter<'a> {
    /// Pair up aligned target / edge-id slices of one adjacency block.
    #[inline]
    pub(crate) fn new(targets: &'a [VertexId], edge_ids: &'a [EdgeId]) -> Self {
        debug_assert_eq!(targets.len(), edge_ids.len());
        NeighborIter { targets, edge_ids, pos: 0 }
    }
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = (VertexId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.targets.len() {
            let item = (self.targets[self.pos], self.edge_ids[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.targets.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle, plus 2-3 tail.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.degree(VertexId(3)), 1);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted_and_carry_edge_ids() {
        let g = triangle_plus_tail();
        let nbrs: Vec<VertexId> = g.neighbor_vertices(VertexId(2)).collect();
        assert_eq!(nbrs, vec![VertexId(0), VertexId(1), VertexId(3)]);
        for (n, e) in g.neighbors(VertexId(2)) {
            let (u, v) = g.endpoints(e);
            assert!(u == VertexId(2) || v == VertexId(2));
            assert!(u == n || v == n);
        }
    }

    #[test]
    fn find_edge_and_has_edge() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
        let e = g.find_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(g.endpoints(e), (VertexId(2), VertexId(3)));
    }

    #[test]
    fn edge_iteration_is_canonical() {
        let g = triangle_plus_tail();
        let edges: Vec<(VertexId, VertexId)> = g.edges().map(|e| (e.u, e.v)).collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted, "edges iterate in canonical sorted order");
        for e in g.edges() {
            assert!(e.u < e.v);
            assert_eq!(e.other(e.u), e.v);
            assert_eq!(e.other(e.v), e.u);
        }
    }

    #[test]
    fn validation_helpers() {
        let g = triangle_plus_tail();
        assert!(g.check_vertex(VertexId(3)).is_ok());
        assert!(g.check_vertex(VertexId(4)).is_err());
        assert!(g.check_vertex_values(&[0.0f64; 4]).is_ok());
        assert!(g.check_vertex_values(&[0.0f64; 3]).is_err());
        assert!(g.check_edge_values(&[0u8; 4]).is_ok());
        assert!(g.check_edge_values(&[0u8; 5]).is_err());
        assert!(g.try_endpoints(EdgeId(100)).is_err());
    }

    #[test]
    fn induced_subgraph_remaps_vertices() {
        let g = triangle_plus_tail();
        // Keep the triangle only.
        let keep = vec![true, true, true, false];
        let (sub, back) = g.induced_subgraph(&keep);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(back, vec![VertexId(0), VertexId(1), VertexId(2)]);
        // Keep a disconnected pair.
        let keep = vec![true, false, false, true];
        let (sub, _) = g.induced_subgraph(&keep);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 0);
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(5); // vertices 0..=5 with no edges
        let g = b.build();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(VertexId(5)), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn check_invariants_accepts_builder_output_and_detects_corruption() {
        let g = triangle_plus_tail();
        g.check_invariants().unwrap();
        GraphBuilder::new().build().check_invariants().unwrap();

        let mut corrupt = g.clone();
        corrupt.offsets[1] = 5; // no longer matches the adjacency layout
        assert!(corrupt.check_invariants().is_err());

        let mut corrupt = g.clone();
        corrupt.targets.swap(0, 1); // breaks strict neighbor ordering
        assert!(corrupt.check_invariants().is_err());

        let mut corrupt = g.clone();
        corrupt.endpoints[0] = [1, 0]; // not canonical
        assert!(corrupt.check_invariants().is_err());

        let mut corrupt = g;
        corrupt.edge_ids[0] = EdgeId(3); // half-edge points at the wrong edge
        assert!(corrupt.check_invariants().is_err());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
