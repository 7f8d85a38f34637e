//! Dynamic-graph deltas: batched edge mutations over an immutable base.
//!
//! Every structure in this crate is frozen once built; this module is the
//! mutation boundary. A [`GraphDelta`] is a *validated batch* of edge
//! operations (insert / delete / reweight) with the same intake semantics as
//! [`crate::io::read_edge_list`]: endpoints are canonicalized to `u < v`,
//! self loops are dropped (but their vertices are kept), duplicate mentions
//! of the same edge are deduplicated **last-wins**, and non-finite weights
//! are rejected up front.
//!
//! [`apply`] is the one mutation path and the whole algorithm. It applies a
//! batch to any [`GraphStorage`] backend — an owned [`CsrGraph`] or a
//! read-only memory-mapped snapshot, which it never touches — and returns
//! the apply counters plus, when the graph changed, the compacted result.
//! It is the only place that decides whether a batch changed the graph.
//!
//! It works in one pass over the batch's deduplicated, sorted changes: the
//! pass classifies each change against the base and counts the stats, and
//! keeps the edges whose presence toggles, in canonical order. When an edge
//! toggled or a vertex was added, it splices those edits into the base's
//! four CSR arrays ([`GraphStorage::offsets`], [`GraphStorage::targets`],
//! [`GraphStorage::edge_ids`], [`GraphStorage::endpoint_pairs`]) instead of
//! rebuilding the graph:
//!
//! - **edge ids** — canonical order is id order, so a surviving base edge's
//!   new id is its old id minus the deletes before it plus the inserts
//!   before it; one pass over the edits fills an old → new table run by run;
//! - **untouched vertices** — runs of vertices no edit touches keep their
//!   blocks whole: the targets are copied, the offsets shift by one constant
//!   per run, and the edge ids go through the table;
//! - **touched vertices** — each endpoint of an edit merges its base block,
//!   less the deleted targets, with its sorted inserted half-edges; vertices
//!   past the base start from an empty block;
//! - **endpoints** — the base's pairs are copied in runs between the edits,
//!   with the inserted pairs in their canonical places.
//!
//! Nothing is re-sorted but the `2 · |batch|` half-edge edits, and the
//! result is bit-identical to building the final edge list from scratch
//! with [`crate::GraphBuilder`].
//!
//! Vertices are never removed: like the builder's `ensure_vertex`, every
//! vertex *mentioned* by a delta (including by dropped self loops and
//! deletes of absent edges) exists in the compacted graph.

use std::collections::BTreeMap;

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, VertexId};
use crate::storage::GraphStorage;

/// One kind of edge mutation carried by a [`GraphDelta`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add the edge if absent (a no-op, counted, when it already exists).
    Insert,
    /// Remove the edge if present (a no-op, counted, when it is absent).
    Delete,
    /// Re-weight the edge. The CSR stores no weights, so this is a tracked
    /// structural no-op: it is validated and counted but changes nothing.
    Reweight,
}

impl DeltaOp {
    /// Stable lower-case name (`insert` / `delete` / `reweight`).
    pub fn name(self) -> &'static str {
        match self {
            DeltaOp::Insert => "insert",
            DeltaOp::Delete => "delete",
            DeltaOp::Reweight => "reweight",
        }
    }

    /// Parse a name as produced by [`DeltaOp::name`]. Case-insensitive.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "insert" => Some(DeltaOp::Insert),
            "delete" => Some(DeltaOp::Delete),
            "reweight" => Some(DeltaOp::Reweight),
            _ => None,
        }
    }
}

/// One deduplicated, canonical (`u < v`) edge change.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EdgeChange {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// The operation that *last* mentioned this edge in the batch.
    pub op: DeltaOp,
}

/// A validated, deduplicated batch of edge mutations.
///
/// Intake mirrors [`crate::io::read_edge_list`]: endpoints canonicalize to
/// `u < v`, self loops are dropped (their vertices still count as
/// mentioned), duplicate mentions of one edge keep only the **last**
/// operation, and weights must be finite (they are validated, counted, then
/// discarded — the graph is unweighted).
///
/// ```
/// use ugraph::delta::{DeltaOp, GraphDelta};
///
/// let mut d = GraphDelta::new();
/// d.push(DeltaOp::Insert, 0, 1);
/// d.push(DeltaOp::Delete, 1, 0); // same edge, reversed: last wins
/// d.push(DeltaOp::Insert, 2, 2); // self loop: dropped, vertex 2 kept
/// assert_eq!(d.len(), 1);
/// assert_eq!(d.changes()[0].op, DeltaOp::Delete);
/// assert_eq!(d.min_vertex_count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    // Canonical (u, v) -> last op. BTreeMap keeps `changes()` sorted, which
    // keeps every downstream consumer deterministic.
    ops: BTreeMap<(VertexId, VertexId), DeltaOp>,
    min_vertex_count: usize,
    dropped_self_loops: usize,
    superseded: usize,
    reweights: usize,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// A batch applying one operation to every edge of `graph`, also
    /// claiming all of the graph's vertices as mentioned (so isolated
    /// vertices of a parsed batch survive into the compacted result).
    pub fn from_graph<G: GraphStorage + ?Sized>(op: DeltaOp, graph: &G) -> Self {
        let mut delta = GraphDelta::new();
        for e in graph.edges() {
            delta.push(op, e.u, e.v);
        }
        delta.min_vertex_count = delta.min_vertex_count.max(graph.vertex_count());
        delta
    }

    /// Record one edge mention. Self loops are dropped (and counted); a
    /// repeat mention of an edge supersedes the earlier operation.
    pub fn push(&mut self, op: DeltaOp, u: impl Into<VertexId>, v: impl Into<VertexId>) {
        let (u, v) = (u.into(), v.into());
        self.min_vertex_count = self.min_vertex_count.max(u.index() + 1).max(v.index() + 1);
        if u == v {
            self.dropped_self_loops += 1;
            return;
        }
        if op == DeltaOp::Reweight {
            self.reweights += 1;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if self.ops.insert(key, op).is_some() {
            self.superseded += 1;
        }
    }

    /// Record one weighted edge mention. The weight must be finite; it is
    /// then discarded (the CSR stores no weights).
    pub fn push_weighted(
        &mut self,
        op: DeltaOp,
        u: impl Into<VertexId>,
        v: impl Into<VertexId>,
        weight: f64,
    ) -> Result<()> {
        if !weight.is_finite() {
            return Err(GraphError::NonFiniteScalar {
                what: "delta edge weight",
                index: self.len(),
                value: weight,
            });
        }
        self.push(op, u, v);
        Ok(())
    }

    /// The deduplicated changes, sorted by canonical endpoints.
    pub fn changes(&self) -> Vec<EdgeChange> {
        self.ops.iter().map(|(&(u, v), &op)| EdgeChange { u, v, op }).collect()
    }

    /// Number of deduplicated changes in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch carries no changes (it may still mention
    /// vertices, via dropped self loops).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// One more than the largest vertex id mentioned anywhere in the batch
    /// (including by dropped self loops), or 0 for an untouched batch.
    /// Mentioned vertices always exist in the compacted graph.
    pub fn min_vertex_count(&self) -> usize {
        self.min_vertex_count
    }

    /// Self-loop mentions dropped at intake.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Mentions superseded by a later mention of the same edge (last-wins).
    pub fn superseded(&self) -> usize {
        self.superseded
    }

    /// Reweight mentions recorded (tracked structural no-ops).
    pub fn reweights(&self) -> usize {
        self.reweights
    }
}

/// Counters describing what applying one batch actually did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplyStats {
    /// Edges inserted that were absent from the base.
    pub inserted: usize,
    /// Base edges deleted.
    pub deleted: usize,
    /// Inserts of edges that already existed (no-ops).
    pub redundant_inserts: usize,
    /// Deletes of edges that did not exist (no-ops).
    pub absent_deletes: usize,
    /// Reweight operations applied (structural no-ops; the CSR stores no
    /// weights).
    pub reweights: usize,
    /// Self-loop mentions dropped at batch intake.
    pub dropped_self_loops: usize,
    /// Batch mentions superseded by last-wins deduplication.
    pub superseded: usize,
}

impl DeltaApplyStats {
    /// Number of effective structural changes (edges whose presence
    /// changed). Zero means the compacted graph has the base graph's edges.
    pub fn structural_changes(&self) -> usize {
        self.inserted + self.deleted
    }
}

/// Apply one batch to `base`. Returns what the batch did and, when it
/// changed the graph, the new graph: the base's CSR arrays with the toggled
/// edges spliced in (see the module docs), bit-identical to a from-scratch
/// [`crate::GraphBuilder`] build of the final edge list, with every
/// mentioned vertex ensured. Debug builds check the invariants of every
/// graph it returns. `None` means the graph did not change — no edge's
/// presence toggled and no new vertex was mentioned — so `base` is still
/// the current graph and nothing derived from it needs invalidating.
///
/// ```
/// use ugraph::delta::{apply, DeltaOp, GraphDelta};
/// use ugraph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new();
/// for (u, v) in [(0, 1), (1, 2), (2, 0)] {
///     b.add_edge(u, v);
/// }
/// let base = b.build();
///
/// let mut delta = GraphDelta::new();
/// delta.push(DeltaOp::Delete, 0, 1);
/// delta.push(DeltaOp::Insert, 1, 3);
///
/// let (stats, compacted) = apply(&base, &delta);
/// assert_eq!((stats.inserted, stats.deleted), (1, 1));
/// let compacted = compacted.expect("the batch changed the graph");
/// assert_eq!(compacted.vertex_count(), 4);
/// assert_eq!(compacted.edge_count(), 3);
/// assert!(!compacted.has_edge(VertexId(0), VertexId(1)));
/// assert!(compacted.has_edge(VertexId(1), VertexId(3)));
///
/// // A batch of no-ops leaves `base` the current graph.
/// let (stats, compacted) = apply(&base, &GraphDelta::new());
/// assert_eq!(stats.structural_changes(), 0);
/// assert!(compacted.is_none());
/// ```
pub fn apply<G: GraphStorage + ?Sized>(
    base: &G,
    delta: &GraphDelta,
) -> (DeltaApplyStats, Option<CsrGraph>) {
    let base_vertices = base.vertex_count();
    let vertex_count = base_vertices.max(delta.min_vertex_count());
    let mut stats = DeltaApplyStats {
        dropped_self_loops: delta.dropped_self_loops(),
        superseded: delta.superseded(),
        ..DeltaApplyStats::default()
    };
    // The edges whose presence toggles, in the batch's canonical order: a
    // delete carries its base edge id, an insert `None`.
    let mut edits: Vec<Edit> = Vec::new();
    for (&(u, v), &op) in &delta.ops {
        match op {
            DeltaOp::Reweight => stats.reweights += 1,
            DeltaOp::Insert => match edge_in_base(base, u, v) {
                Some(_) => stats.redundant_inserts += 1,
                None => {
                    edits.push((u, v, None));
                    stats.inserted += 1;
                }
            },
            DeltaOp::Delete => match edge_in_base(base, u, v) {
                Some(e) => {
                    edits.push((u, v, Some(e)));
                    stats.deleted += 1;
                }
                None => stats.absent_deletes += 1,
            },
        }
    }
    if stats.structural_changes() == 0 && vertex_count == base_vertices {
        return (stats, None);
    }
    let edge_count = base.edge_count() - stats.deleted + stats.inserted;
    let graph = splice(base, vertex_count, edge_count, &edits);
    debug_assert!(graph.check_invariants().is_ok(), "a spliced graph must be canonical");
    (stats, Some(graph))
}

/// One edge whose presence a batch toggles: its canonical endpoints and,
/// for a delete, its base edge id.
type Edit = (VertexId, VertexId, Option<EdgeId>);

/// One half of an [`Edit`], seen from the vertex that holds it: (vertex,
/// target, the inserted edge's new id, or `None` for a deleted half-edge).
type HalfEdit = (VertexId, VertexId, Option<EdgeId>);

/// Splice `edits` (canonical order, each toggling an edge of `base`) into
/// the base's CSR arrays: a graph of `vertex_count` vertices and
/// `edge_count` edges.
fn splice<G: GraphStorage + ?Sized>(
    base: &G,
    vertex_count: usize,
    edge_count: usize,
    edits: &[Edit],
) -> CsrGraph {
    let base_pairs = base.endpoint_pairs();
    // Where each edit falls in the base's canonical edge order: a delete at
    // its own id, an insert before the first base edge that sorts after it.
    let at: Vec<usize> = edits
        .iter()
        .map(|&(u, v, old)| match old {
            Some(e) => e.index(),
            None => base_pairs.partition_point(|&pair| pair < [u.0, v.0]),
        })
        .collect();

    // The half-edge edits and the adjacency arrays are allocated before the
    // old → new edge-id table, and the table is freed before `endpoints` is
    // allocated: on a heap allocator the table then sits at the top of the
    // heap, and `endpoints` reuses its pages instead of growing the peak.
    let mut half_edits: Vec<HalfEdit> = Vec::with_capacity(2 * edits.len());
    let mut out = Blocks {
        base_vertices: base.vertex_count(),
        base_offsets: base.offsets(),
        base_targets: base.targets(),
        base_edge_ids: base.edge_ids(),
        offsets: Vec::with_capacity(vertex_count + 1),
        targets: Vec::with_capacity(2 * edge_count),
        edge_ids: Vec::with_capacity(2 * edge_count),
        // Allocated last; see above.
        new_id: Vec::with_capacity(base_pairs.len()),
    };
    // The surviving base edges between two edits take consecutive new ids.
    // A deleted edge's entry is never read.
    let new_id = &mut out.new_id;
    let mut next = 0usize;
    for (&(u, v, old), &at) in edits.iter().zip(&at) {
        let run = at - new_id.len();
        new_id.extend((next..next + run).map(|id| id as u32));
        next += run;
        let id = match old {
            Some(_) => {
                new_id.push(u32::MAX);
                None
            }
            None => {
                next += 1;
                Some(EdgeId::from_index(next - 1))
            }
        };
        half_edits.push((u, v, id));
        half_edits.push((v, u, id));
    }
    let run = base_pairs.len() - new_id.len();
    new_id.extend((next..next + run).map(|id| id as u32));
    half_edits.sort_unstable();

    let mut rest = &half_edits[..];
    while let Some(&(w, _, _)) = rest.first() {
        let touched = rest.partition_point(|edit| edit.0 == w);
        out.untouched(w.index());
        out.touched(w.index(), &rest[..touched]);
        rest = &rest[touched..];
    }
    out.untouched(vertex_count);
    let Blocks { mut offsets, targets, edge_ids, new_id, .. } = out;
    offsets.push(targets.len());
    drop(new_id);

    // The endpoints, copied in runs between the edits.
    let mut endpoints = Vec::with_capacity(edge_count);
    let mut copied = 0;
    for (&(u, v, old), &at) in edits.iter().zip(&at) {
        endpoints.extend_from_slice(&base_pairs[copied..at]);
        copied = at;
        match old {
            Some(_) => copied += 1,
            None => endpoints.push([u.0, v.0]),
        }
    }
    endpoints.extend_from_slice(&base_pairs[copied..]);
    CsrGraph::from_raw_parts(offsets, targets, edge_ids, endpoints)
}

/// The spliced adjacency arrays under construction, vertex by vertex, and
/// the base arrays they are copied from.
struct Blocks<'a> {
    base_vertices: usize,
    base_offsets: &'a [usize],
    base_targets: &'a [VertexId],
    base_edge_ids: &'a [EdgeId],
    new_id: Vec<u32>,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl Blocks<'_> {
    /// Append the base half-edges `lo..hi`, renumbering their edge ids.
    fn copy(&mut self, lo: usize, hi: usize) {
        self.targets.extend_from_slice(&self.base_targets[lo..hi]);
        let new_id = &self.new_id;
        self.edge_ids.extend(self.base_edge_ids[lo..hi].iter().map(|e| EdgeId(new_id[e.index()])));
    }

    /// Append the blocks of the vertices from the next one up to `end`,
    /// which no edit touches: base blocks whole, with their offsets shifted
    /// by one constant, and empty blocks past the base.
    fn untouched(&mut self, end: usize) {
        let in_base = self.offsets.len()..end.min(self.base_vertices);
        if !in_base.is_empty() {
            let (lo, hi) = (self.base_offsets[in_base.start], self.base_offsets[in_base.end]);
            let start = self.targets.len();
            self.offsets.extend(self.base_offsets[in_base].iter().map(|&o| o - lo + start));
            self.copy(lo, hi);
        }
        self.offsets.resize(end, self.targets.len());
    }

    /// Append the block of vertex `w`: its base block (empty past the base)
    /// without the deleted targets, merged with its inserted half-edges.
    /// `edits` are `w`'s half-edge edits, sorted by target.
    fn touched(&mut self, w: usize, edits: &[HalfEdit]) {
        self.offsets.push(self.targets.len());
        let (mut lo, hi) = if w < self.base_vertices {
            (self.base_offsets[w], self.base_offsets[w + 1])
        } else {
            (0, 0)
        };
        for &(_, target, id) in edits {
            let before = lo + self.base_targets[lo..hi].partition_point(|&t| t < target);
            self.copy(lo, before);
            lo = before;
            match id {
                Some(id) => {
                    self.targets.push(target);
                    self.edge_ids.push(id);
                }
                None => lo += 1,
            }
        }
        self.copy(lo, hi);
    }
}

/// The base edge between `u` and `v`, if the base has one. Vertices beyond
/// the base have no base edges.
fn edge_in_base<G: GraphStorage + ?Sized>(base: &G, u: VertexId, v: VertexId) -> Option<EdgeId> {
    let n = base.vertex_count();
    if u.index() >= n || v.index() >= n {
        return None;
    }
    base.find_edge(u, v)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::rmat;
    use crate::io::{encode_binary_v3, MappedCsrGraph};

    fn base_graph() -> CsrGraph {
        // Triangle 0-1-2 with a tail 2-3 and an island edge 4-5.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// From-scratch oracle: builder build of the final edge list with all
    /// mentioned vertices ensured.
    fn rebuild(vertex_count: usize, edges: &BTreeSet<(u32, u32)>) -> CsrGraph {
        let mut b = GraphBuilder::new();
        if vertex_count > 0 {
            b.ensure_vertex(vertex_count as u32 - 1);
        }
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The oracle's edge set after `delta`: the base's edges with each
    /// deduplicated change applied.
    fn final_edges(base: &CsrGraph, delta: &GraphDelta) -> BTreeSet<(u32, u32)> {
        let mut edges: BTreeSet<(u32, u32)> = base.edges().map(|e| (e.u.0, e.v.0)).collect();
        for change in delta.changes() {
            let edge = (change.u.0, change.v.0);
            match change.op {
                DeltaOp::Insert => edges.insert(edge),
                DeltaOp::Delete => edges.remove(&edge),
                DeltaOp::Reweight => false,
            };
        }
        edges
    }

    /// Apply `delta` to `base` and to a mapped snapshot of it; both must
    /// change the graph and give exactly the from-scratch build. Returns
    /// the spliced graph.
    fn assert_spliced(base: &CsrGraph, delta: &GraphDelta) -> CsrGraph {
        let vertex_count = base.vertex_count().max(delta.min_vertex_count());
        let expected = rebuild(vertex_count, &final_edges(base, delta));
        let mapped = MappedCsrGraph::from_bytes(&encode_binary_v3(base, None).unwrap()).unwrap();
        for spliced in [apply(base, delta).1, apply(&mapped, delta).1] {
            let spliced = spliced.expect("the batch changes the graph");
            spliced.check_invariants().unwrap();
            assert_eq!(spliced, expected);
        }
        expected
    }

    fn batch(op: DeltaOp, edges: &[(u32, u32)]) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for &(u, v) in edges {
            delta.push(op, u, v);
        }
        delta
    }

    #[test]
    fn splice_grows_an_empty_base() {
        let empty = GraphBuilder::new().build();
        assert_eq!(empty.vertex_count(), 0);
        let mut delta = batch(DeltaOp::Insert, &[(0, 2), (3, 1), (2, 3)]);
        delta.push(DeltaOp::Insert, 6, 6);
        delta.push(DeltaOp::Delete, 4, 5);
        let grown = assert_spliced(&empty, &delta);
        assert_eq!((grown.vertex_count(), grown.edge_count()), (7, 3));
    }

    #[test]
    fn splice_empties_the_first_and_the_last_vertex() {
        let base = rmat(7, 600, 3);
        let last = VertexId::from_index(base.vertex_count() - 1);
        let mut delta = GraphDelta::new();
        for w in [VertexId(0), last] {
            for &t in base.neighbor_slice(w) {
                delta.push(DeltaOp::Delete, w, t);
            }
        }
        assert!(!delta.is_empty(), "the probe needs edges at both ends");
        let spliced = assert_spliced(&base, &delta);
        assert_eq!(spliced.degree(VertexId(0)), 0);
        assert_eq!(spliced.degree(last), 0);
    }

    #[test]
    fn splice_inserts_before_the_first_and_after_the_last_edge() {
        let mut b = GraphBuilder::new();
        for (u, v) in [(1, 3), (2, 3), (2, 4)] {
            b.add_edge(u, v);
        }
        b.ensure_vertex(5);
        let base = b.build();
        let delta = batch(DeltaOp::Insert, &[(0, 1), (0, 5), (4, 5), (3, 5)]);
        let spliced = assert_spliced(&base, &delta);
        assert_eq!(spliced.endpoints(EdgeId(0)), (VertexId(0), VertexId(1)));
        let last = EdgeId::from_index(spliced.edge_count() - 1);
        assert_eq!(spliced.endpoints(last), (VertexId(4), VertexId(5)));
    }

    #[test]
    fn splice_inserts_only_between_new_vertices() {
        let base = base_graph();
        let delta = batch(DeltaOp::Insert, &[(7, 9), (6, 11), (9, 11)]);
        let spliced = assert_spliced(&base, &delta);
        assert_eq!(spliced.vertex_count(), 12);
        assert_eq!(spliced.degree(VertexId(8)), 0, "a vertex between new ones stays empty");
        assert_eq!(spliced.degree(VertexId(10)), 0);
        assert_eq!(spliced.degree(VertexId(11)), 2);
    }

    #[test]
    fn splice_deletes_the_first_and_the_last_edge_id() {
        let base = rmat(7, 600, 5);
        let (first, last) = (EdgeId(0), EdgeId::from_index(base.edge_count() - 1));
        let mut delta = GraphDelta::new();
        for e in [first, last] {
            let (u, v) = base.endpoints(e);
            delta.push(DeltaOp::Delete, u, v);
        }
        let spliced = assert_spliced(&base, &delta);
        assert_eq!(spliced.edge_count(), base.edge_count() - 2);
    }

    #[test]
    fn splice_one_vertex_that_loses_and_gains_edges() {
        let base = base_graph();
        let mut delta = batch(DeltaOp::Delete, &[(0, 2), (2, 3)]);
        for (u, v) in [(2, 4), (5, 2), (2, 7)] {
            delta.push(DeltaOp::Insert, u, v);
        }
        let spliced = assert_spliced(&base, &delta);
        let expected = [1, 4, 5, 7].map(VertexId);
        assert_eq!(spliced.neighbor_slice(VertexId(2)), &expected);
    }

    #[test]
    fn splice_toggle_inserts_then_deletes_back_to_the_base() {
        // The mutate workload's shape: one batch of absent edges, inserted
        // and then deleted.
        let base = rmat(8, 1_500, 11);
        let n = base.vertex_count() as u64;
        let mut toggle = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        while toggle.len() < 40 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (a, b) = (((state >> 8) % n) as u32, ((state >> 40) % n) as u32);
            let edge = (a.min(b), a.max(b));
            if a != b && !base.has_edge(VertexId(a), VertexId(b)) && !toggle.contains(&edge) {
                toggle.push(edge);
            }
        }
        let inserted = assert_spliced(&base, &batch(DeltaOp::Insert, &toggle));
        assert_eq!(inserted.edge_count(), base.edge_count() + 40);
        let deleted = assert_spliced(&inserted, &batch(DeltaOp::Delete, &toggle));
        assert_eq!(deleted, base);
    }

    #[test]
    fn intake_dedups_last_wins_and_drops_self_loops() {
        let mut d = GraphDelta::new();
        d.push(DeltaOp::Insert, 0, 1);
        d.push(DeltaOp::Delete, 1, 0);
        d.push(DeltaOp::Insert, 7, 7);
        d.push(DeltaOp::Reweight, 2, 3);
        assert_eq!(d.len(), 2);
        assert_eq!(d.superseded(), 1);
        assert_eq!(d.dropped_self_loops(), 1);
        assert_eq!(d.reweights(), 1);
        assert_eq!(d.min_vertex_count(), 8);
        let changes = d.changes();
        assert_eq!(changes[0], EdgeChange { u: VertexId(0), v: VertexId(1), op: DeltaOp::Delete });
        assert_eq!(
            changes[1],
            EdgeChange { u: VertexId(2), v: VertexId(3), op: DeltaOp::Reweight }
        );
    }

    #[test]
    fn weights_must_be_finite() {
        let mut d = GraphDelta::new();
        d.push_weighted(DeltaOp::Insert, 0, 1, 2.5).unwrap();
        let err = d.push_weighted(DeltaOp::Insert, 1, 2, f64::NAN).unwrap_err();
        assert!(matches!(err, GraphError::NonFiniteScalar { .. }));
        assert_eq!(d.len(), 1, "the rejected mention must not be recorded");
    }

    #[test]
    fn overlay_merged_view_reflects_inserts_and_deletes() {
        let base = base_graph();
        let mut delta = GraphDelta::new();
        delta.push(DeltaOp::Delete, 0, 1);
        delta.push(DeltaOp::Insert, 3, 5);
        delta.push(DeltaOp::Insert, 0, 6);
        let (stats, compacted) = apply(&base, &delta);
        let merged = compacted.expect("the batch changes the graph");

        assert_eq!(merged.vertex_count(), 7);
        assert_eq!(merged.edge_count(), 6);
        assert!(!merged.has_edge(VertexId(0), VertexId(1)));
        assert!(merged.has_edge(VertexId(3), VertexId(5)));
        assert!(merged.has_edge(VertexId(6), VertexId(0)));
        assert_eq!(merged.degree(VertexId(0)), 2); // lost 1, gained 6
        assert_eq!(merged.neighbor_slice(VertexId(0)), &[VertexId(2), VertexId(6)]);
        assert_eq!(merged.neighbor_slice(VertexId(6)), &[VertexId(0)]);
        assert_eq!((stats.inserted, stats.deleted), (2, 1));
        assert_eq!(stats.structural_changes(), 3);
    }

    #[test]
    fn redundant_and_absent_operations_are_counted_no_ops() {
        let base = base_graph();
        let mut delta = GraphDelta::new();
        delta.push(DeltaOp::Insert, 0, 1); // already present
        delta.push(DeltaOp::Delete, 0, 3); // absent
        let (stats, compacted) = apply(&base, &delta);
        assert!(compacted.is_none(), "a batch of no-ops leaves the graph unchanged");
        assert_eq!((stats.redundant_inserts, stats.absent_deletes), (1, 1));
        assert_eq!(stats.structural_changes(), 0);
    }

    #[test]
    fn compact_matches_from_scratch_build_and_remaps_edges() {
        let base = base_graph();
        let mut delta = GraphDelta::new();
        delta.push(DeltaOp::Delete, 1, 2);
        delta.push(DeltaOp::Insert, 1, 3);
        delta.push(DeltaOp::Insert, 6, 2);
        let compacted = apply(&base, &delta).1.expect("the batch changes the graph");

        let mut final_edges: BTreeSet<(u32, u32)> = base.edges().map(|e| (e.u.0, e.v.0)).collect();
        final_edges.remove(&(1, 2));
        final_edges.insert((1, 3));
        final_edges.insert((2, 6));
        assert_eq!(compacted, rebuild(7, &final_edges));
        compacted.check_invariants().unwrap();
    }

    #[test]
    fn mentioned_vertices_survive_even_without_edges() {
        let base = base_graph();
        let mut delta = GraphDelta::new();
        delta.push(DeltaOp::Insert, 9, 9); // dropped self loop, vertex kept
        let (stats, compacted) = apply(&base, &delta);
        // No edge changed, but the vertex set grew: the graph did change.
        assert_eq!(stats.structural_changes(), 0);
        let compacted = compacted.expect("new vertices change the graph");
        assert_eq!(compacted.vertex_count(), 10);
        assert_eq!(compacted.edge_count(), base.edge_count());
        assert_eq!(stats.dropped_self_loops, 1);
    }

    #[test]
    fn from_graph_claims_every_vertex_of_the_batch() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertex(4);
        let batch = b.build();
        let delta = GraphDelta::from_graph(DeltaOp::Insert, &batch);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.min_vertex_count(), 5);
    }
}
