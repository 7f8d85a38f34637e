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
use crate::par::{self, map_reduce_chunks, Parallelism};
use std::ops::Range;

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
    /// 2. Each neighbor list is strictly sorted (sorted + no duplicates, which
    ///    also rules out self loops since a loop would duplicate `v` itself)
    ///    and holds only in-bounds targets; every edge id is in bounds.
    /// 3. Every endpoint pair is canonical (`u < v`) and in bounds.
    /// 4. Every half-edge's edge id points back at an endpoint pair containing
    ///    both the owning vertex and the stored target, and each edge id
    ///    appears exactly twice.
    ///
    /// 1–3 are the linear checks every v3 snapshot open runs too; 4 is the
    /// random-access cross-link pass that only this method runs.
    fn check_invariants(&self) -> Result<()> {
        check_linear_invariants(self, Parallelism::auto)?;
        let endpoints = self.endpoint_pairs();
        let mut seen = vec![0u8; self.edge_count()];
        for v in self.vertices() {
            for (t, e) in self.neighbors(v) {
                let [a, b] = endpoints[e.index()];
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

fn broken(what: &'static str, message: String) -> Result<()> {
    Err(GraphError::BrokenInvariant { what, message })
}

/// The linear CSR checks, invariants 1–3 of
/// [`GraphStorage::check_invariants`]: each array is scanned front to back,
/// and no check follows an id into another array. After `Ok`, every
/// accessor of `graph` is panic-free; only the cross-link between
/// half-edges and endpoint pairs is left unchecked. The v3 snapshot open
/// runs this alone over the arrays it maps.
///
/// Each scan is chunked through [`par::map_reduce_chunks`]: a chunk scans
/// its range front to back and the per-chunk results merge in chunk order
/// with [`Result::and`], so the error reported is the one a serial scan hits
/// first, at every thread count. Arrays smaller than
/// [`par::SERIAL_BELOW_BYTES`] in total are scanned serially.
pub(crate) fn check_linear_invariants<G: GraphStorage + ?Sized>(
    graph: &G,
    parallelism: impl FnOnce() -> Parallelism,
) -> Result<()> {
    let (offsets, targets, edge_ids, endpoints) =
        (graph.offsets(), graph.targets(), graph.edge_ids(), graph.endpoint_pairs());
    let Some(&last) = offsets.last() else {
        return broken("offsets", "offsets array is empty".into());
    };
    let (n, m) = (offsets.len() - 1, endpoints.len());
    let half_edges = 2 * m;
    let bytes = std::mem::size_of_val(offsets)
        + std::mem::size_of_val(targets)
        + std::mem::size_of_val(edge_ids)
        + std::mem::size_of_val(endpoints);
    let parallelism = par::for_scan(bytes, parallelism);
    let scan = |len, check: &(dyn Fn(Range<usize>) -> Result<()> + Sync)| {
        map_reduce_chunks(parallelism, len, check, Result::and).unwrap_or(Ok(()))
    };

    // Each scan folds its chunk to a verdict in one loop with no early exit
    // (so it vectorizes), and walks the chunk again for the first fault only
    // when the verdict fails. Offsets go first: every later walk trusts them
    // as block boundaries.
    if offsets[0] != 0 {
        return broken("offsets", "offsets must start at 0".into());
    }
    scan(n, &|vertices| {
        let window = &offsets[vertices.start..=vertices.end];
        if window.iter().zip(window.iter().skip(1)).fold(true, |ok, (a, b)| ok & (a <= b)) {
            return Ok(());
        }
        let i = window.windows(2).position(|w| w[0] > w[1]).expect("the verdict failed");
        broken("offsets", format!("offsets decrease at vertex {}", vertices.start + i))
    })?;
    if last != half_edges {
        return broken(
            "offsets",
            format!("offsets end at {last} but the graph has {half_edges} half-edges"),
        );
    }
    if targets.len() != half_edges || edge_ids.len() != half_edges {
        return broken(
            "adjacency",
            format!(
                "targets/edge_ids have lengths {}/{}, expected {half_edges}",
                targets.len(),
                edge_ids.len()
            ),
        );
    }
    // Targets and edge ids, chunked over vertices so each chunk sees whole
    // blocks. The verdict counts descents (`t[i] <= t[i - 1]`) over the
    // chunk's span: the blocks are strictly sorted iff every descent sits
    // where a block starts, and sorted blocks are in bounds iff the span's
    // largest target is.
    scan(n, &|vertices| {
        let (first, end) = (offsets[vertices.start], offsets[vertices.end]);
        let span = &targets[first..end];
        let (mut max, mut descents) = (span.first().map_or(0, |t| t.0), 0usize);
        for (a, b) in span.iter().zip(span.iter().skip(1)) {
            max = max.max(b.0);
            descents += usize::from(b <= a);
        }
        let at_block_starts = offsets[vertices.start..vertices.end]
            .windows(2)
            .filter(|w| w[0] < w[1] && w[1] < end && targets[w[1]] <= targets[w[1] - 1])
            .count();
        let ids_in_bounds =
            edge_ids[first..end].iter().map(|e| e.0).max().map_or(true, |max| (max as usize) < m);
        if (max as usize) < n && descents == at_block_starts && ids_in_bounds {
            return Ok(());
        }
        for v in vertices {
            let (start, end) = (offsets[v], offsets[v + 1]);
            for i in start..end {
                let t = targets[i];
                if t.index() >= n {
                    return broken(
                        "adjacency",
                        format!("target {t:?} at half-edge {i} out of bounds"),
                    );
                }
                if i > start && t <= targets[i - 1] {
                    return broken(
                        "neighbor order",
                        format!("neighbors of v{v} are not strictly sorted at half-edge {i}"),
                    );
                }
                if edge_ids[i].index() >= m {
                    let e = edge_ids[i];
                    return broken("edge ids", format!("{e:?} at half-edge {i} out of bounds"));
                }
            }
        }
        unreachable!("the verdict failed")
    })?;
    scan(m, &|range| {
        let pairs = &endpoints[range.clone()];
        if pairs.iter().fold(true, |ok, &[u, v]| ok & (u < v) & ((v as usize) < n)) {
            return Ok(());
        }
        for i in range {
            let [u, v] = endpoints[i];
            if u >= v {
                return broken("endpoints", format!("edge {i} is not canonical: (v{u}, v{v})"));
            }
            if v as usize >= n {
                return broken("endpoints", format!("edge {i} endpoint v{v} out of bounds"));
            }
        }
        unreachable!("the verdict failed")
    })
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
    fn linear_checks_report_the_first_fault_at_every_thread_count() {
        // A cycle whose four arrays hold 32 bytes per vertex: past the size
        // under which the checks run serially, so `Threads(4)` runs chunks
        // on separate workers.
        let n = par::SERIAL_BELOW_BYTES / 32 + 1;
        let mut b = GraphBuilder::new();
        b.extend_edges((0..n as u32).map(|v| (v, (v + 1) % n as u32)));
        let g = b.build();
        let check = |g: &CsrGraph, p| match check_linear_invariants(g, || p) {
            Err(GraphError::BrokenInvariant { what, message }) => (what, message),
            other => panic!("expected a broken invariant, got {other:?}"),
        };
        assert!(check_linear_invariants(&g, || Parallelism::Threads(4)).is_ok());

        // Two faults of each scan, one in the first chunk and one in the
        // last: the earlier one is reported, whichever chunk finishes first.
        let (early, late) = (3, n - 3);
        let mut targets = g.targets().to_vec();
        let (a, z) = (g.offsets()[early], g.offsets()[late]);
        targets.swap(a, a + 1);
        targets.swap(z, z + 1);
        let order = CsrGraph::from_raw_parts(
            g.offsets().to_vec(),
            targets,
            g.edge_ids().to_vec(),
            g.endpoint_pairs().to_vec(),
        );
        let mut endpoints = g.endpoint_pairs().to_vec();
        endpoints[early].reverse();
        endpoints[late][1] = n as u32;
        let ends = CsrGraph::from_raw_parts(
            g.offsets().to_vec(),
            g.targets().to_vec(),
            g.edge_ids().to_vec(),
            endpoints,
        );
        for (graph, what, at) in [
            (&order, "neighbor order", format!("v{early} ")),
            (&ends, "endpoints", format!("edge {early} ")),
        ] {
            let serial = check(graph, Parallelism::Serial);
            assert_eq!(serial.0, what);
            assert!(serial.1.contains(&at), "{}", serial.1);
            assert_eq!(check(graph, Parallelism::Threads(4)), serial);
        }
    }

    #[test]
    fn target_verdict_agrees_with_a_block_by_block_scan() {
        // The targets scan decides by counting descents; a plain walk over
        // every block must agree on each single-target corruption.
        let g = crate::generators::rmat(9, 3_000, 5);
        let n = g.vertex_count();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let at = (state >> 33) as usize % g.targets().len();
            let value = (state >> 13) as u32 % (n as u32 + 2);
            let mut targets = g.targets().to_vec();
            targets[at] = VertexId(value);
            let expected = g.offsets().windows(2).all(|w| {
                let block = &targets[w[0]..w[1]];
                block.windows(2).all(|p| p[0] < p[1]) && block.iter().all(|t| t.index() < n)
            });
            let corrupt = CsrGraph::from_raw_parts(
                g.offsets().to_vec(),
                targets,
                g.edge_ids().to_vec(),
                g.endpoint_pairs().to_vec(),
            );
            let verdict = check_linear_invariants(&corrupt, || Parallelism::Serial);
            assert_eq!(verdict.is_ok(), expected, "v{value} at half-edge {at}: {verdict:?}");
        }
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
