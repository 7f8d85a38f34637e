//! The `te` column of Table II: the naive dual-graph edge-tree baseline.
//!
//! Everything else Table II reports (`Nt`, `tc`, `tv`) is read straight
//! from a [`graph_terrain::TerrainPipeline`] session and its
//! [`graph_terrain::StageTimings`]; only this baseline lives outside the
//! session, because it exists to be compared against the session's
//! Algorithm 3.

use scalarfield::{build_super_tree, edge_scalar_tree_naive, EdgeScalarGraph};
use std::time::Instant;
use terrain::TerrainResult;
use ugraph::GraphStorage;

/// Seconds to build the edge super tree the naive way: the dual (line)
/// graph, a vertex scalar tree over it, then Algorithm 2. On graphs with
/// high-degree vertices the dual explodes quadratically in hub degree,
/// which is exactly the point of Table II.
pub fn naive_edge_tree_seconds(graph: &dyn GraphStorage, scalar: &[f64]) -> TerrainResult<f64> {
    let sg = EdgeScalarGraph::new(graph, scalar)?;
    let t = Instant::now();
    let naive = build_super_tree(&edge_scalar_tree_naive(&sg));
    std::hint::black_box(naive.node_count());
    Ok(t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use graph_terrain::{Measure, TerrainPipeline};

    #[test]
    fn edge_pipeline_fast_beats_naive_on_skewed_graphs() {
        // WikiVote analog: preferential attachment with hubs, where the dual
        // graph explodes quadratically in hub degree.
        let d = DatasetKind::WikiVote.generate(0.08);
        let mut session = TerrainPipeline::from_measure(&d.graph, Measure::KTruss);
        assert!(session.super_tree().unwrap().node_count() >= 1);
        let fast = session.timings().tree_construction_seconds().unwrap();
        let naive = naive_edge_tree_seconds(&d.graph, session.scalar().unwrap()).unwrap();
        assert!(naive >= fast, "naive ({naive:.4}s) should not beat Algorithm 3 ({fast:.4}s)");
    }
}
