//! Local and Global Correlation Indexes for pairs of scalar fields
//! (Section II-F) and the outlier score of Section III-C.
//!
//! Given two vertex scalar fields `S_i`, `S_j`, the **Local Correlation
//! Index** `LCI(v)` is the Pearson correlation of the two fields over the
//! k-hop neighborhood `N(v)` of `v` (the paper fixes `k = 1`); the **Global
//! Correlation Index** is the average LCI over all vertices. A vertex whose
//! LCI disagrees with the global trend is an outlier; the paper visualizes
//! `outlier_score(v) = -LCI(v)` as its own scalar field (Figure 10).

use ugraph::{traversal::k_hop_neighborhood, GraphStorage, GraphStorageExt, Result, VertexId};

use crate::scalar_graph::check_finite;

/// Local Correlation Index of two scalar fields over the `k`-hop neighborhood
/// of every vertex.
///
/// Degenerate neighborhoods (fewer than 2 vertices, or zero variance in either
/// field) get an LCI of 0, which the paper's formula leaves undefined; 0 is
/// the neutral choice (no evidence of correlation either way).
pub fn local_correlation_index<G: GraphStorage + ?Sized>(
    graph: &G,
    field_i: &[f64],
    field_j: &[f64],
    k: usize,
) -> Result<Vec<f64>> {
    graph.check_vertex_values(field_i)?;
    graph.check_vertex_values(field_j)?;
    check_finite(field_i, "first correlation field")?;
    check_finite(field_j, "second correlation field")?;

    let mut lci = vec![0.0f64; graph.vertex_count()];
    for v in graph.vertices() {
        let neighborhood = k_hop_neighborhood(graph, v, k);
        lci[v.index()] = pearson_over(&neighborhood, field_i, field_j);
    }
    Ok(lci)
}

/// Global Correlation Index: the mean of the Local Correlation Indexes.
pub fn global_correlation_index<G: GraphStorage + ?Sized>(
    graph: &G,
    field_i: &[f64],
    field_j: &[f64],
    k: usize,
) -> Result<f64> {
    let lci = local_correlation_index(graph, field_i, field_j, k)?;
    if lci.is_empty() {
        return Ok(0.0);
    }
    Ok(lci.iter().sum::<f64>() / lci.len() as f64)
}

/// Outlier scores: `-LCI(v)` (Section III-C). Vertices whose local correlation
/// opposes the global trend get high scores.
pub fn outlier_scores<G: GraphStorage + ?Sized>(
    graph: &G,
    field_i: &[f64],
    field_j: &[f64],
    k: usize,
) -> Result<Vec<f64>> {
    Ok(local_correlation_index(graph, field_i, field_j, k)?.into_iter().map(|lci| -lci).collect())
}

/// Pearson correlation of two fields restricted to a vertex set, following the
/// paper's covariance formulas (population covariance over `|N(v)|`).
fn pearson_over(vertices: &[VertexId], field_i: &[f64], field_j: &[f64]) -> f64 {
    let n = vertices.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_i = vertices.iter().map(|v| field_i[v.index()]).sum::<f64>() / nf;
    let mean_j = vertices.iter().map(|v| field_j[v.index()]).sum::<f64>() / nf;
    let mut cov_ij = 0.0;
    let mut cov_ii = 0.0;
    let mut cov_jj = 0.0;
    for v in vertices {
        let di = field_i[v.index()] - mean_i;
        let dj = field_j[v.index()] - mean_j;
        cov_ij += di * dj;
        cov_ii += di * di;
        cov_jj += dj * dj;
    }
    if cov_ii <= 0.0 || cov_jj <= 0.0 {
        return 0.0;
    }
    (cov_ij / nf) / ((cov_ii / nf).sqrt() * (cov_jj / nf).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::generators::barabasi_albert;
    use ugraph::CsrGraph;
    use ugraph::GraphBuilder;

    fn path5() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4)]);
        b.build()
    }

    #[test]
    fn identical_fields_have_lci_one() {
        let g = path5();
        let field = vec![1.0, 3.0, 2.0, 5.0, 4.0];
        let lci = local_correlation_index(&g, &field, &field, 1).unwrap();
        for &v in &lci {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let gci = global_correlation_index(&g, &field, &field, 1).unwrap();
        assert!((gci - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negated_fields_have_lci_minus_one() {
        let g = path5();
        let field = vec![1.0, 3.0, 2.0, 5.0, 4.0];
        let negated: Vec<f64> = field.iter().map(|v| -v).collect();
        let lci = local_correlation_index(&g, &field, &negated, 1).unwrap();
        for &v in &lci {
            assert!((v + 1.0).abs() < 1e-12);
        }
        let outliers = outlier_scores(&g, &field, &negated, 1).unwrap();
        for &o in &outliers {
            assert!((o - 1.0).abs() < 1e-12, "anti-correlated vertices are outliers");
        }
    }

    #[test]
    fn constant_field_gives_zero_lci() {
        let g = path5();
        let constant = vec![2.0; 5];
        let varying = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let lci = local_correlation_index(&g, &constant, &varying, 1).unwrap();
        assert!(lci.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lci_is_always_in_unit_interval() {
        let g = barabasi_albert(200, 3, 5);
        let degrees: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
        // A monotone transform of degree: strongly positively correlated with
        // it in every neighborhood where degree varies at all.
        let squared: Vec<f64> = degrees.iter().map(|&d| d * d).collect();
        let lci = local_correlation_index(&g, &degrees, &squared, 1).unwrap();
        for &v in &lci {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
        }
        let gci = global_correlation_index(&g, &degrees, &squared, 1).unwrap();
        assert!((-1.0..=1.0).contains(&gci));
        assert!(gci > 0.3, "gci = {gci}");
    }

    #[test]
    fn mixed_correlation_detects_local_outliers() {
        // Star center with increasing leaf values in field i; field j agrees
        // on one star and disagrees on another.
        let mut b = GraphBuilder::new();
        // Star A: center 0, leaves 1-3. Star B: center 4, leaves 5-7.
        for leaf in 1..=3u32 {
            b.add_edge(0u32, leaf);
        }
        for leaf in 5..=7u32 {
            b.add_edge(4u32, leaf);
        }
        let g = b.build();
        let field_i = vec![0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0];
        let field_j = vec![0.0, 1.0, 2.0, 3.0, 0.0, -1.0, -2.0, -3.0];
        let lci = local_correlation_index(&g, &field_i, &field_j, 1).unwrap();
        assert!(lci[0] > 0.99, "star A neighborhood agrees");
        assert!(lci[4] < -0.99, "star B neighborhood disagrees");
        let outliers = outlier_scores(&g, &field_i, &field_j, 1).unwrap();
        let max_score = outliers.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (outliers[4] - max_score).abs() < 1e-12,
            "the disagreeing star center is among the top outliers"
        );
        assert!(outliers[0] < 0.0, "the agreeing star center is not an outlier");
    }

    #[test]
    fn input_validation() {
        let g = path5();
        let short = vec![1.0, 2.0];
        let ok = vec![1.0; 5];
        assert!(local_correlation_index(&g, &short, &ok, 1).is_err());
        let nan = vec![1.0, 2.0, f64::NAN, 4.0, 5.0];
        for (field_i, field_j, field) in
            [(&nan, &ok, "first correlation field"), (&ok, &nan, "second correlation field")]
        {
            match local_correlation_index(&g, field_i, field_j, 1).unwrap_err() {
                ugraph::GraphError::NonFiniteScalar { what, index, .. } => {
                    assert_eq!((what, index), (field, 2));
                }
                other => panic!("expected NonFiniteScalar, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_graph_gci_is_zero() {
        let g = GraphBuilder::new().build();
        assert_eq!(global_correlation_index(&g, &[], &[], 1).unwrap(), 0.0);
    }
}
