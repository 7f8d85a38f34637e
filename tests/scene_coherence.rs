//! Scene/tile coherence: a tile's bytes are a pure function of the graph
//! and the tile key. The same key must render **bit-identically** across
//! [`Parallelism::Serial`] and `Threads(2)`, over owned and mapped
//! (snapshot-backed) storage, and a fresh session over a graph that crossed
//! a delta batch through [`graph_terrain::SharedGraph::apply_delta`] must
//! serve the exact tiles a from-scratch build over the final graph serves.
//! The release-mode test pushes the same claims through the 1M-edge R-MAT
//! rung and pins the bandwidth story: any single tile at zoom >= 1 is at
//! most ~1/8 of the full terrain SVG the `/graphs/{id}/terrain` route would
//! serve.

use graph_terrain::{Measure, Scene, SharedGraph, TerrainPipeline, TileKey};
use ugraph::delta::{apply, DeltaOp, GraphDelta};
use ugraph::generators::barabasi_albert;
use ugraph::io::encode_binary_v3;
use ugraph::io::MappedCsrGraph;
use ugraph::par::Parallelism;

/// Render one tile of a session's retained scene to bytes.
fn tile_bytes(scene: &Scene, key: &TileKey, size: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    scene.write_tile_svg(key, size, &mut bytes).expect("tile renders");
    bytes
}

/// Every tile key on the power-of-two grid at zooms 0..=max.
fn grid_keys(max_zoom: u8) -> Vec<TileKey> {
    let mut keys = Vec::new();
    for zoom in 0..=max_zoom {
        for tx in 0..(1u32 << zoom) {
            for ty in 0..(1u32 << zoom) {
                keys.push(TileKey { zoom, tx, ty });
            }
        }
    }
    keys
}

#[test]
fn tiles_are_bit_identical_across_threads_and_storage_backends() {
    let graph = barabasi_albert(400, 3, 11);
    let blob = encode_binary_v3(&graph, None).unwrap();
    let mapped = MappedCsrGraph::from_bytes(&blob).unwrap();
    assert!(mapped.is_zero_copy(), "round-trip fell back to eager decode");

    for measure in [Measure::KCore, Measure::Degree] {
        let mut reference = TerrainPipeline::from_measure(&graph, measure.clone());
        reference.set_parallelism(Parallelism::Serial);
        let reference_tiles: Vec<Vec<u8>> = {
            let scene = reference.scene().unwrap();
            grid_keys(2).iter().map(|key| tile_bytes(scene, key, 256)).collect()
        };
        // The whole-scene binary stream rides the same invariance.
        let reference_gtsc = {
            let mut bytes = Vec::new();
            reference.scene().unwrap().write_scene_gtsc(&mut bytes).unwrap();
            bytes
        };

        let mut threaded = TerrainPipeline::from_measure(&graph, measure.clone());
        threaded.set_parallelism(Parallelism::Threads(2));
        let mut via_mapped = TerrainPipeline::from_measure(&mapped, measure.clone());
        via_mapped.set_parallelism(Parallelism::Serial);
        for (what, other) in [("threads(2)", &mut threaded), ("mapped", &mut via_mapped)] {
            let scene = other.scene().unwrap();
            for (key, expected) in grid_keys(2).iter().zip(&reference_tiles) {
                let got = tile_bytes(scene, key, 256);
                assert_eq!(&got, expected, "{measure:?} tile {key} differs under {what}");
            }
            let mut gtsc = Vec::new();
            scene.write_scene_gtsc(&mut gtsc).unwrap();
            assert_eq!(gtsc, reference_gtsc, "{measure:?} GTSC stream differs under {what}");
        }
    }
}

#[test]
fn tiles_after_a_delta_match_a_from_scratch_build_of_the_final_graph() {
    let graph = barabasi_albert(300, 3, 5);
    // Structural churn: grow into fresh vertices and delete a few existing
    // edges, the same shape the serve delta route applies.
    let mut delta = GraphDelta::new();
    let n = graph.vertex_count() as u32;
    for i in 0..8u32 {
        delta.push(DeltaOp::Insert, i * 7 % n, n + i);
    }
    for e in graph.edges().take(5) {
        delta.push(DeltaOp::Delete, e.u, e.v);
    }
    let final_graph = apply(&graph, &delta).1.expect("the batch changes the graph");

    // Cross the batch the way the server does: copy-on-write apply, then a
    // fresh session over the new graph.
    let mut crossed = SharedGraph::new(graph.clone());
    crossed.apply_delta(&delta);

    for measure in [Measure::Degree, Measure::KCore, Measure::PageRank] {
        let mut after = TerrainPipeline::from_shared(crossed.clone(), measure.clone());
        let mut fresh = TerrainPipeline::from_measure(&final_graph, measure.clone());
        let fresh_scene = fresh.scene().unwrap();
        let after_scene = after.scene().unwrap();
        assert_eq!(
            after_scene.item_count(),
            fresh_scene.item_count(),
            "{measure:?}: item counts diverge after delta"
        );
        for key in grid_keys(2) {
            assert_eq!(
                tile_bytes(after_scene, &key, 256),
                tile_bytes(fresh_scene, &key, 256),
                "{measure:?} tile {key}: crossed and from-scratch tiles disagree"
            );
        }
    }
}

/// The 1M-edge rung of the scale ladder, release builds only (the debug
/// pipeline is ~20x slower). One R-MAT terrain must serve tiles that are
/// individually small next to the whole-scene SVG — the bandwidth claim
/// behind streaming pan/zoom — and stay bit-identical across re-renders
/// and thread counts.
#[cfg(not(debug_assertions))]
#[test]
fn million_edge_rmat_serves_small_deterministic_tiles() {
    use ugraph::generators::rmat;

    let graph = rmat(17, 1_000_000, 20_170_419);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::Degree);
    session.set_parallelism(Parallelism::Serial);

    // The "download everything" baseline a tile client avoids: the full
    // terrain SVG the `/graphs/{id}/terrain` route serves.
    let full_scene = session.svg().unwrap().len();
    assert!(full_scene > 0);

    let scene = session.scene().unwrap();
    let mut threaded = TerrainPipeline::from_measure(&graph, Measure::Degree);
    threaded.set_parallelism(Parallelism::Threads(2));
    let threaded_scene = threaded.scene().unwrap();
    for key in grid_keys(2) {
        let bytes = tile_bytes(scene, &key, 256);
        if key.zoom >= 1 {
            assert!(
                bytes.len() <= full_scene / 8,
                "tile {key} is {} bytes, full terrain SVG {full_scene} — tiles must stream small",
                bytes.len(),
            );
        }
        assert_eq!(bytes, tile_bytes(scene, &key, 256), "tile {key} re-render differs");
        assert_eq!(
            bytes,
            tile_bytes(threaded_scene, &key, 256),
            "tile {key} differs across thread counts"
        );
    }

    // Viewport queries over the quadtree stay fast at this scale: the mean
    // over the zoom-2 grid must be far under a millisecond (the ladder's
    // tile-query row records the real number; this is a 5ms tripwire, slack
    // enough for a loaded CI container).
    let viewports: Vec<_> =
        grid_keys(2).iter().map(|key| scene.tile_bounds(key).unwrap()).collect();
    let started = std::time::Instant::now();
    let mut found = 0usize;
    for viewport in &viewports {
        found += scene.query(viewport).len();
    }
    let mean = started.elapsed().as_secs_f64() / viewports.len() as f64;
    assert!(found > 0, "queries over the full grid must see items");
    assert!(mean < 0.005, "mean viewport query took {mean:.6}s on the 1M rung");
}
