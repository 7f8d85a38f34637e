//! Cross-crate integration tests: the full pipeline from generated graphs
//! through measures, scalar trees, terrains and exports, driven through the
//! staged [`TerrainPipeline`] session API.

use graph_terrain::prelude::*;
use scalarfield::{component_members_at_alpha, maximal_alpha_components, VertexScalarGraph};
use std::collections::BTreeSet;
use terrain::{peaks_at_alpha, Ascii, Exporter, Obj, RenderScene, TreemapSvg};
use ugraph::generators::{barabasi_albert, collaboration_graph, CollaborationConfig};

fn collaboration_fixture() -> ugraph::CsrGraph {
    collaboration_graph(&CollaborationConfig {
        authors: 800,
        papers: 700,
        groups: 10,
        groups_per_component: 5,
        dense_groups: 3,
        dense_group_extra_papers: 40,
        seed: 77,
        ..Default::default()
    })
}

/// A session over the K-Core field with simplification disabled (these tests
/// reason about the exact, unsimplified tree).
fn kcore_session(graph: &ugraph::CsrGraph) -> TerrainPipeline<'_> {
    let mut session = TerrainPipeline::from_measure(graph, Measure::KCore);
    session.set_simplification(SimplificationConfig::disabled());
    session
}

#[test]
fn kcore_terrain_peaks_are_kcores_end_to_end() {
    let graph = collaboration_fixture();
    let cores = measures::core_numbers(&graph);
    let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
    let mut session = kcore_session(&graph);
    let stages = session.stages().unwrap();

    // Every peak at every integer level is a K-Core: each member has at least
    // alpha neighbors inside the peak (Proposition 4 through the whole stack).
    for alpha in 1..=cores.degeneracy {
        let peaks = peaks_at_alpha(stages.render_tree, stages.layout, alpha as f64);
        for peak in &peaks {
            let members: BTreeSet<u32> = peak.members.iter().copied().collect();
            for &m in &peak.members {
                let inside = graph
                    .neighbor_vertices(ugraph::VertexId(m))
                    .filter(|u| members.contains(&u.0))
                    .count();
                assert!(
                    inside >= alpha,
                    "vertex {m} has {inside} neighbors inside its alpha={alpha} peak"
                );
            }
        }
        // And the peak decomposition matches the direct component extraction.
        let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
        let direct: BTreeSet<BTreeSet<u32>> = maximal_alpha_components(&sg, alpha as f64)
            .into_iter()
            .map(|c| c.vertices.into_iter().map(|v| v.0).collect())
            .collect();
        let from_peaks: BTreeSet<BTreeSet<u32>> =
            peaks.into_iter().map(|p| p.members.into_iter().collect()).collect();
        assert_eq!(from_peaks, direct, "alpha {alpha}");
    }
}

#[test]
fn ktruss_terrain_members_are_ktruss_edges() {
    let graph = barabasi_albert(400, 4, 11);
    let truss = measures::truss_numbers(&graph);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::KTruss);
    session.set_simplification(SimplificationConfig::disabled());
    let stages = session.stages().unwrap();
    assert_eq!(stages.super_tree.total_members(), graph.edge_count());

    // The members of every peak at the maximum truss level all have that truss
    // number.
    let peaks = peaks_at_alpha(stages.render_tree, stages.layout, truss.max_truss as f64);
    assert!(!peaks.is_empty());
    for peak in peaks {
        for e in peak.members {
            assert_eq!(truss.truss[e as usize], truss.max_truss);
        }
    }
}

#[test]
fn exports_are_consistent_across_formats() {
    let graph = collaboration_fixture();
    let mut session = kcore_session(&graph);
    session.set_svg_size(SvgSize::new(640.0, 480.0));
    let svg = session.build().unwrap();
    let stages = session.stages().unwrap();
    assert_eq!(svg.matches("<polygon").count(), stages.mesh.triangle_count());
    let scene = RenderScene::new(stages.render_tree, stages.layout, stages.mesh);

    let obj = Obj.export_string(&scene).unwrap();
    assert_eq!(obj.lines().filter(|l| l.starts_with("v ")).count(), stages.mesh.vertex_count());

    let map_svg = TreemapSvg::new(640.0, 480.0).export_string(&scene).unwrap();
    assert_eq!(map_svg.matches("<rect").count(), stages.render_tree.node_count());

    let art = Ascii::new(40, 10).export_string(&scene).unwrap();
    assert_eq!(art.lines().count(), 10);
}

#[test]
fn simplification_keeps_the_headline_peaks() {
    // After discretizing to a handful of levels, the tallest structure of the
    // terrain must still be there (same summit level, non-empty membership).
    // Exercised as a staged mutation: flipping the simplification knob on a
    // live session reuses the cached super tree.
    let graph = collaboration_fixture();
    let mut session = kcore_session(&graph);
    let stages = session.stages().unwrap();
    let full_nodes = stages.super_tree.node_count();
    let original_top = terrain::highest_peaks(stages.render_tree, stages.layout, 1);
    let orig_summit = original_top[0].summit_height;

    // One node under the tree's size forces simplification (a zero budget
    // is rejected: no tree fits in zero nodes).
    let budget = full_nodes - 1;
    session.set_simplification(SimplificationConfig { node_budget: Some(budget), levels: 8 });
    let simplified = session.stages().unwrap();
    assert!(simplified.render_tree.node_count() <= budget);
    assert_eq!(simplified.render_tree.total_members(), graph.vertex_count());

    let simplified_top = terrain::highest_peaks(simplified.render_tree, simplified.layout, 1);
    let simp_summit = simplified_top[0].summit_height;
    assert!(
        (orig_summit - simp_summit).abs() <= orig_summit * 0.2 + 1e-9,
        "summit moved too much: {orig_summit} -> {simp_summit}"
    );
    assert!(!simplified_top[0].members.is_empty());
}

#[test]
fn cut_counts_match_between_alpha_cut_api_and_peaks() {
    let graph = barabasi_albert(600, 3, 5);
    let cores = measures::core_numbers(&graph);
    let mut session = kcore_session(&graph);
    let stages = session.stages().unwrap();
    for alpha in 1..=cores.degeneracy {
        let cut = component_members_at_alpha(stages.render_tree, alpha as f64);
        let peaks = peaks_at_alpha(stages.render_tree, stages.layout, alpha as f64);
        assert_eq!(cut.len(), peaks.len());
    }
}
