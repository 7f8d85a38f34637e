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
//! pass marks deleted base edges, collects the inserted edges once each in
//! canonical order and counts the stats. When an edge toggled or a vertex
//! was added, the surviving base edges (iterated in CSR order) and the
//! inserts are two already-sorted streams, so one linear merge produces
//! the canonical edge list **without a re-sort**. The result is
//! bit-identical to building the final edge list from scratch with
//! [`crate::GraphBuilder`].
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

/// Apply one batch to `base` and compact it. Returns what the batch did
/// and, when it changed the graph, the new graph: bit-identical to a
/// from-scratch [`crate::GraphBuilder`] build of the final edge list, with
/// every mentioned vertex ensured. `None` means the graph did not change —
/// no edge's presence toggled and no new vertex was mentioned — so `base`
/// is still the current graph and nothing derived from it needs
/// invalidating.
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
    // Deletion marks indexed by base edge id; the inserts arrive in the
    // batch's canonical order, so they need no sorting.
    let mut deleted = vec![false; base.edge_count()];
    let mut inserts: Vec<(VertexId, VertexId)> = Vec::new();
    for (&(u, v), &op) in &delta.ops {
        match op {
            DeltaOp::Reweight => stats.reweights += 1,
            DeltaOp::Insert => match edge_in_base(base, u, v) {
                Some(_) => stats.redundant_inserts += 1,
                None => {
                    inserts.push((u, v));
                    stats.inserted += 1;
                }
            },
            DeltaOp::Delete => match edge_in_base(base, u, v) {
                Some(e) => {
                    deleted[e.index()] = true;
                    stats.deleted += 1;
                }
                None => stats.absent_deletes += 1,
            },
        }
    }
    if stats.structural_changes() == 0 && vertex_count == base_vertices {
        return (stats, None);
    }

    // Merge the surviving base edges (CSR order is canonical order) with
    // the sorted inserts into the final canonical edge list.
    let edge_count = base.edge_count() - stats.deleted + stats.inserted;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(edge_count);
    let mut inserts = inserts.into_iter().peekable();
    for u in 0..base_vertices {
        let u = VertexId::from_index(u);
        for (t, e) in base.neighbors(u) {
            if t < u || deleted[e.index()] {
                continue;
            }
            while let Some(edge) = inserts.next_if(|&edge| edge < (u, t)) {
                edges.push(edge);
            }
            edges.push((u, t));
        }
    }
    edges.extend(inserts);
    (stats, Some(CsrGraph::from_canonical_edges(vertex_count, edges)))
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
