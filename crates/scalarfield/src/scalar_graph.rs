//! Scalar graphs: a graph together with a scalar value per vertex or per edge.
//!
//! These are thin, borrow-based views — the paper's "vertex-based scalar
//! graph" `G(V, E)` with `v.scalar` and "edge-based scalar graph" with
//! `e.scalar` (Section II). Construction validates that the scalar vector has
//! exactly one entry per vertex (edge) and contains only finite values (no
//! NaN, no ±∞), so every downstream algorithm can rely on total ordering and
//! meaningful arithmetic (level spacing, color normalization, mesh heights)
//! over the scalar values.

use ugraph::{CsrGraph, EdgeId, GraphError, GraphStorage, GraphStorageExt, Result, VertexId};

/// A vertex-based scalar graph: every vertex carries one scalar value.
///
/// Generic over the storage backend: `G` defaults to the owned [`CsrGraph`]
/// but can be any [`GraphStorage`] implementation (including a
/// memory-mapped snapshot or a `dyn GraphStorage` trait object).
pub struct VertexScalarGraph<'a, G: GraphStorage + ?Sized = CsrGraph> {
    graph: &'a G,
    scalar: &'a [f64],
}

/// An edge-based scalar graph: every edge carries one scalar value.
///
/// Generic over the storage backend exactly like [`VertexScalarGraph`].
pub struct EdgeScalarGraph<'a, G: GraphStorage + ?Sized = CsrGraph> {
    graph: &'a G,
    scalar: &'a [f64],
}

// Manual `Copy`/`Clone`/`Debug`: derives would demand `G: Copy`/`G: Debug`
// even though only the *reference* is copied, which would rule out
// `dyn GraphStorage` backends.
impl<G: GraphStorage + ?Sized> Copy for VertexScalarGraph<'_, G> {}
impl<G: GraphStorage + ?Sized> Clone for VertexScalarGraph<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<G: GraphStorage + ?Sized> std::fmt::Debug for VertexScalarGraph<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VertexScalarGraph")
            .field("vertices", &self.graph.vertex_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}
impl<G: GraphStorage + ?Sized> Copy for EdgeScalarGraph<'_, G> {}
impl<G: GraphStorage + ?Sized> Clone for EdgeScalarGraph<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<G: GraphStorage + ?Sized> std::fmt::Debug for EdgeScalarGraph<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeScalarGraph")
            .field("vertices", &self.graph.vertex_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}

impl<'a, G: GraphStorage + ?Sized> VertexScalarGraph<'a, G> {
    /// Create a vertex scalar graph, validating the scalar vector: one entry
    /// per vertex, every entry finite
    /// ([`GraphError::NonFiniteScalar`] otherwise).
    pub fn new(graph: &'a G, scalar: &'a [f64]) -> Result<Self> {
        graph.check_vertex_values(scalar)?;
        check_finite(scalar, "vertex scalar field")?;
        Ok(VertexScalarGraph { graph, scalar })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'a G {
        self.graph
    }

    /// The scalar values, indexed by vertex id.
    #[inline]
    pub fn scalar(&self) -> &'a [f64] {
        self.scalar
    }

    /// The scalar value of vertex `v` (the paper's `v.scalar`).
    #[inline]
    pub fn value(&self, v: VertexId) -> f64 {
        self.scalar[v.index()]
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }
}

impl<'a, G: GraphStorage + ?Sized> EdgeScalarGraph<'a, G> {
    /// Create an edge scalar graph, validating the scalar vector: one entry
    /// per edge, every entry finite
    /// ([`GraphError::NonFiniteScalar`] otherwise).
    pub fn new(graph: &'a G, scalar: &'a [f64]) -> Result<Self> {
        graph.check_edge_values(scalar)?;
        check_finite(scalar, "edge scalar field")?;
        Ok(EdgeScalarGraph { graph, scalar })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'a G {
        self.graph
    }

    /// The scalar values, indexed by edge id.
    #[inline]
    pub fn scalar(&self) -> &'a [f64] {
        self.scalar
    }

    /// The scalar value of edge `e` (the paper's `e.scalar`).
    #[inline]
    pub fn value(&self, e: EdgeId) -> f64 {
        self.scalar[e.index()]
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Reject the first non-finite value of a scalar field, naming the field
/// and the value's position.
pub(crate) fn check_finite(values: &[f64], what: &'static str) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(GraphError::NonFiniteScalar { what, index, value: values[index] }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn path4() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        b.build()
    }

    #[test]
    fn vertex_scalar_graph_validates_input() {
        let g = path4();
        let good = vec![1.0, 2.0, 3.0, 4.0];
        let sg = VertexScalarGraph::new(&g, &good).unwrap();
        assert_eq!(sg.value(VertexId(2)), 3.0);
        assert_eq!(sg.vertex_count(), 4);

        let short = vec![1.0, 2.0];
        assert!(VertexScalarGraph::new(&g, &short).is_err());
        let nan = vec![1.0, f64::NAN, 3.0, 4.0];
        assert!(VertexScalarGraph::new(&g, &nan).is_err());
    }

    #[test]
    fn non_finite_scalars_are_rejected_with_position() {
        let g = path4();
        // NaN and both infinities must be refused up front — the seed code let
        // infinities through and NaN panicked deep inside peak ranking.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let scalar = vec![1.0, 2.0, bad, 4.0];
            let err = VertexScalarGraph::new(&g, &scalar).unwrap_err();
            match err {
                ugraph::GraphError::NonFiniteScalar { what, index, .. } => {
                    assert_eq!(what, "vertex scalar field");
                    assert_eq!(index, 2);
                }
                other => panic!("expected NonFiniteScalar, got {other:?}"),
            }
            let escalar = vec![1.0, bad, 3.0];
            let err = EdgeScalarGraph::new(&g, &escalar).unwrap_err();
            match err {
                ugraph::GraphError::NonFiniteScalar { what, index, .. } => {
                    assert_eq!(what, "edge scalar field");
                    assert_eq!(index, 1);
                }
                other => panic!("expected NonFiniteScalar, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_scalar_graph_validates_input() {
        let g = path4();
        let good = vec![1.0, 2.0, 3.0];
        let sg = EdgeScalarGraph::new(&g, &good).unwrap();
        assert_eq!(sg.value(EdgeId(1)), 2.0);
        assert_eq!(sg.edge_count(), 3);
        assert!(EdgeScalarGraph::new(&g, &[1.0]).is_err());
    }
}
