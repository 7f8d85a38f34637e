//! The I/O boundary, end to end: every ingest format resolves to the same
//! `CsrGraph`, every export backend renders the same scene, and the whole
//! chain `GraphSource -> TerrainPipeline -> Exporter` is byte-stable across
//! ingest paths and pinned to a recorded golden digest.

use graph_terrain::{Measure, SimplificationConfig, TerrainPipeline};
use terrain::{builtin_exporters, Exporter, JsonScene, Obj, Ply, RenderScene, Svg, TreemapSvg};
use ugraph::io::{
    decode_binary_v3, encode_binary_v3, fnv1a64, restamp_v3_checksum, GraphFormat, GraphSource,
    MappedCsrGraph,
};
use ugraph::{CsrGraph, GraphBuilder, GraphError, GraphStorage};

/// The quickstart graph: a K5 and a K4 bridged through two extra authors.
fn quickstart_graph() -> CsrGraph {
    let mut builder = GraphBuilder::new();
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            builder.add_edge(u, v);
        }
    }
    for u in 5..9u32 {
        for v in (u + 1)..9u32 {
            builder.add_edge(u, v);
        }
    }
    builder.extend_edges([(4u32, 9u32), (9, 10), (10, 5)]);
    builder.build()
}

/// Serialize the quickstart graph by hand in every text dialect.
fn edge_list_fixture(graph: &CsrGraph) -> String {
    let mut out = String::from("# quickstart graph\n");
    for e in graph.edges() {
        out.push_str(&format!("{} {}\n", e.u.0, e.v.0));
    }
    out
}

fn csv_fixture(graph: &CsrGraph) -> String {
    let mut out = String::from("source,target\n");
    for e in graph.edges() {
        out.push_str(&format!("{},{}\n", e.u.0, e.v.0));
    }
    out
}

fn metis_fixture(graph: &CsrGraph) -> String {
    let mut out = format!("{} {}\n", graph.vertex_count(), graph.edge_count());
    for v in graph.vertices() {
        let line: Vec<String> =
            graph.neighbor_slice(v).iter().map(|n| (n.0 + 1).to_string()).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

fn json_fixture(graph: &CsrGraph) -> String {
    let mut out = String::new();
    for v in graph.vertices() {
        let adj: Vec<String> = graph.neighbor_slice(v).iter().map(|n| n.0.to_string()).collect();
        out.push_str(&format!("{{\"id\": {}, \"adj\": [{}]}}\n", v.0, adj.join(", ")));
    }
    out
}

#[test]
fn every_ingest_format_round_trips_to_an_identical_graph() {
    let reference = quickstart_graph();
    let cases: Vec<(GraphFormat, Vec<u8>)> = vec![
        (GraphFormat::EdgeList, edge_list_fixture(&reference).into_bytes()),
        (GraphFormat::Csv, csv_fixture(&reference).into_bytes()),
        (GraphFormat::Metis, metis_fixture(&reference).into_bytes()),
        (GraphFormat::JsonAdjacency, json_fixture(&reference).into_bytes()),
        (GraphFormat::Binary, encode_binary_v3(&reference, None).unwrap()),
    ];
    for (format, bytes) in cases {
        // Explicit format.
        let parsed = GraphSource::reader(std::io::Cursor::new(bytes.clone()))
            .with_format(format)
            .load()
            .unwrap_or_else(|e| panic!("{format} failed: {e}"));
        assert_eq!(parsed.graph, reference, "{format} does not round-trip");
        // Sniffed format (METIS is not sniffable by design — skip it there).
        if format != GraphFormat::Metis {
            let sniffed = GraphSource::reader(std::io::Cursor::new(bytes))
                .load()
                .unwrap_or_else(|e| panic!("sniffing the {format} fixture failed: {e}"));
            assert_eq!(sniffed.graph, reference, "sniffed {format} does not round-trip");
        }
    }
}

/// Length and FNV-1a 64 of the quickstart K-Core terrain as a 900×700 SVG,
/// recorded on x86_64 Linux while the retired `terrain_to_svg` free function
/// still existed. Any byte change to the SVG path fails this pin.
const QUICKSTART_SVG_LEN: usize = 2178;
const QUICKSTART_SVG_FNV1A64: u64 = 0x44db_8e67_5c4a_b295;

fn assert_quickstart_golden(svg: &[u8], path: &str) {
    assert_eq!(
        (svg.len(), fnv1a64(svg)),
        (QUICKSTART_SVG_LEN, QUICKSTART_SVG_FNV1A64),
        "{path} changed the quickstart SVG bytes"
    );
}

#[test]
fn streaming_svg_is_byte_identical_to_the_pre_redesign_output() {
    // The quickstart terrain through every SVG path — the exporter on a
    // borrowed scene, the session's cached `svg()` stage, and `render_to` —
    // must match the recorded golden digest byte for byte.
    let graph = quickstart_graph();
    let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
    let stages = session.stages().unwrap();
    let scene = RenderScene::new(stages.render_tree, stages.layout, stages.mesh);
    let streamed = Svg::new(900.0, 700.0).export_string(&scene).unwrap();
    assert_quickstart_golden(streamed.as_bytes(), "Svg::export_string");

    let mut via_render_to = Vec::new();
    session.render_to(&Svg::new(900.0, 700.0), &mut via_render_to).unwrap();
    assert_quickstart_golden(&via_render_to, "render_to");
    assert_quickstart_golden(session.svg().unwrap().as_bytes(), "session.svg()");
}

/// Length and FNV-1a 64 of an unsimplified (`budget=none`) PageRank terrain of
/// `barabasi_albert(1500, 3, 11)` as a default-size SVG, recorded on x86_64
/// Linux before the SVG writer computed its painter keys once per triangle.
/// Its ~15 000 triangles, many with tied depth keys, pin the painter order as
/// well as the number formatting.
const BA_SVG: (usize, u64) = (1_394_396, 0x7a85_0fa4_ed0b_1b29);

#[test]
fn unsimplified_ba_terrain_svg_matches_the_recorded_golden() {
    let graph = ugraph::generators::barabasi_albert(1500, 3, 11);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::PageRank);
    session.set_simplification(SimplificationConfig::disabled());
    let svg = session.svg().unwrap().as_bytes();
    assert_eq!((svg.len(), fnv1a64(svg)), BA_SVG, "the unsimplified BA terrain SVG changed");
}

/// Length and FNV-1a 64 of the same unsimplified BA PageRank scene through
/// the other fixed-precision backends: the default-size treemap SVG
/// (`{:.2}` rects and a `{:.3}` scalar per cell) and the OBJ and PLY meshes
/// (`{:.6}` vertices). Recorded on x86_64 Linux while every coordinate was
/// still printed by `core::fmt`, so they pin the exporters' number writer
/// against std's formatting.
const BA_TREEMAP_SVG: (usize, u64) = (246_981, 0x4f9e_7a6c_71ed_3856);
const BA_OBJ: (usize, u64) = (606_166, 0x9f46_1a87_e977_8031);
const BA_PLY: (usize, u64) = (734_223, 0x4a24_1820_8782_0bca);

#[test]
fn unsimplified_ba_mesh_and_treemap_exports_match_the_recorded_goldens() {
    let graph = ugraph::generators::barabasi_albert(1500, 3, 11);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::PageRank);
    session.set_simplification(SimplificationConfig::disabled());
    let cases: [(&dyn Exporter, (usize, u64)); 3] =
        [(&TreemapSvg::default(), BA_TREEMAP_SVG), (&Obj, BA_OBJ), (&Ply, BA_PLY)];
    for (exporter, golden) in cases {
        let mut out = Vec::new();
        session.render_to(exporter, &mut out).unwrap();
        assert_eq!(
            (out.len(), fnv1a64(&out)),
            golden,
            "the unsimplified BA {} export changed",
            exporter.name()
        );
    }
}

/// Length and FNV-1a 64 of the same unsimplified BA PageRank scene as the
/// JSON document (`render_deterministic_to`, so no timings). Recorded on
/// x86_64 Linux while the super tree was still renumbered into pre-order in
/// a second pass, it pins the render tree's `scalars`, `parents` and
/// `subtree_members` in arena order, and the JSON backend's number
/// formatting.
const BA_JSON: (usize, u64) = (1_998_148, 0xb416_4083_e809_540a);

#[test]
fn unsimplified_ba_json_scene_matches_the_recorded_golden() {
    let graph = ugraph::generators::barabasi_albert(1500, 3, 11);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::PageRank);
    session.set_simplification(SimplificationConfig::disabled());
    let mut json = Vec::new();
    session.render_deterministic_to(&JsonScene, &mut json).unwrap();
    assert_eq!((json.len(), fnv1a64(&json)), BA_JSON, "the unsimplified BA JSON scene changed");
}

/// Length and FNV-1a 64 of a snapped *and* capped PageRank terrain of
/// `rmat(10, 2_000, 5)` at a 64-node budget, as a default-size SVG, recorded
/// on x86_64 Linux when snapping and the cap became one order-preserving
/// pass. Snapping shrinks the 941-node super tree to 489 nodes, but its 465
/// roots (mostly isolated vertices) still overflow the budget, so the cap
/// folds them too.
const SNAPPED_RMAT_SVG: (usize, u64) = (31_258, 0x29ba_eb7a_41bd_2b38);
const SNAPPED_RMAT_BUDGET: usize = 64;

#[test]
fn snapped_and_capped_terrain_svg_matches_the_recorded_golden() {
    let graph = ugraph::generators::rmat(10, 2_000, 5);
    let mut session = TerrainPipeline::from_measure(&graph, Measure::PageRank);
    session.set_simplification(SimplificationConfig {
        node_budget: Some(SNAPPED_RMAT_BUDGET),
        levels: 64,
    });
    // Snapping never merges roots, so these alone overflow the budget.
    assert!(session.super_tree().unwrap().roots().len() > SNAPPED_RMAT_BUDGET);
    assert_eq!(session.render_tree().unwrap().node_count(), SNAPPED_RMAT_BUDGET);
    let svg = session.svg().unwrap().as_bytes();
    assert_eq!((svg.len(), fnv1a64(svg)), SNAPPED_RMAT_SVG, "the snapped RMAT terrain SVG changed");
}

#[test]
fn every_ingest_path_yields_the_same_svg_bytes() {
    // GraphSource -> from_source -> Exporter across all five formats: one
    // graph, five encodings, one set of SVG bytes.
    let reference = quickstart_graph();
    let mut direct = TerrainPipeline::from_measure(&reference, Measure::KCore);
    let expected = direct.svg().unwrap().to_string();

    let cases: Vec<(GraphFormat, Vec<u8>)> = vec![
        (GraphFormat::EdgeList, edge_list_fixture(&reference).into_bytes()),
        (GraphFormat::Csv, csv_fixture(&reference).into_bytes()),
        (GraphFormat::Metis, metis_fixture(&reference).into_bytes()),
        (GraphFormat::JsonAdjacency, json_fixture(&reference).into_bytes()),
        (GraphFormat::Binary, encode_binary_v3(&reference, None).unwrap()),
    ];
    for (format, bytes) in cases {
        let source = GraphSource::reader(std::io::Cursor::new(bytes)).with_format(format);
        let mut session = TerrainPipeline::from_source(source, Measure::KCore).unwrap();
        assert_eq!(session.svg().unwrap(), expected, "{format} ingest changes the terrain");
    }
}

#[test]
fn every_backend_renders_the_quickstart_scene_nonempty() {
    let graph = quickstart_graph();
    let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
    for exporter in builtin_exporters() {
        let mut out = Vec::new();
        session.render_to(exporter.as_ref(), &mut out).unwrap();
        assert!(!out.is_empty(), "backend {} rendered nothing", exporter.name());
    }
}

#[test]
fn corrupt_snapshots_fail_loudly_through_the_whole_stack() {
    // Corruption must surface as an error from `from_source`, not a panic —
    // the session boundary is where a serving system catches bad uploads.
    let good = encode_binary_v3(&quickstart_graph(), None).unwrap();
    let mut corrupt = good.clone();
    corrupt[good.len() / 2] ^= 0xff;
    for blob in [corrupt, good[..good.len() - 3].to_vec(), b"GTSB\x07garbagegarbage".to_vec()] {
        let source = GraphSource::reader(std::io::Cursor::new(blob));
        match TerrainPipeline::from_source(source, Measure::KCore) {
            Err(e) => assert!(!e.to_string().is_empty()),
            Ok(_) => panic!("corrupt snapshot was accepted"),
        }
    }
}

/// Assert `blob` is rejected — with an error, never a panic — by both v3
/// openers: the zero-copy [`MappedCsrGraph`] path and the full
/// `GraphSource -> TerrainPipeline` stack with an explicit binary format.
fn expect_v3_rejected(blob: &[u8], what: &str) {
    match MappedCsrGraph::from_bytes(blob) {
        Err(e) => assert!(!e.to_string().is_empty(), "{what}: empty mapped-open error"),
        Ok(_) => panic!("{what}: corrupt v3 snapshot accepted by MappedCsrGraph"),
    }
    let source =
        GraphSource::reader(std::io::Cursor::new(blob.to_vec())).with_format(GraphFormat::Binary);
    match TerrainPipeline::from_source(source, Measure::KCore) {
        Err(e) => assert!(!e.to_string().is_empty(), "{what}: empty from_source error"),
        Ok(_) => panic!("{what}: corrupt v3 snapshot accepted by from_source"),
    }
}

#[test]
fn every_v3_truncation_prefix_is_rejected() {
    let blob = encode_binary_v3(&quickstart_graph(), None).unwrap();
    for cut in 0..blob.len() {
        expect_v3_rejected(&blob[..cut], &format!("prefix of {cut} bytes"));
    }
}

#[test]
fn every_v3_byte_flip_is_rejected() {
    // Weighted snapshot so the flip sweep also crosses the weights section.
    let graph = quickstart_graph();
    let weights: Vec<f64> = (0..graph.edge_count()).map(|i| 1.0 + i as f64).collect();
    let blob = encode_binary_v3(&graph, Some(&weights)).unwrap();
    for at in 0..blob.len() {
        let mut corrupted = blob.to_vec();
        corrupted[at] ^= 0x20;
        expect_v3_rejected(&corrupted, &format!("flipped bit at byte {at}"));
    }
}

#[test]
fn doctored_v3_snapshots_fail_for_the_right_reason() {
    let clean = encode_binary_v3(&quickstart_graph(), None).unwrap();

    // Bad magic (re-stamped so only the magic stands in the way).
    let mut blob = clean.clone();
    blob[..4].copy_from_slice(b"NOPE");
    restamp_v3_checksum(&mut blob);
    let err = MappedCsrGraph::from_bytes(&blob).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");

    // Wrong version stamp.
    let mut blob = clean.clone();
    blob[4] = 9;
    restamp_v3_checksum(&mut blob);
    let err = MappedCsrGraph::from_bytes(&blob).unwrap_err();
    assert!(err.to_string().contains("version 9"), "{err}");

    // Bad checksum trailer over otherwise pristine bytes.
    let mut blob = clean.clone();
    let trailer = blob.len() - 1;
    blob[trailer] ^= 0xff;
    let err = MappedCsrGraph::from_bytes(&blob).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    // Misaligned section length: the offsets section header declares a
    // length that is not a multiple of 8 (byte 48 is the low byte of that
    // length: magic+version 8, header section 16+16, section tag+len 8+8).
    let mut blob = clean.clone();
    blob[48] = blob[48].wrapping_add(4);
    restamp_v3_checksum(&mut blob);
    expect_v3_rejected(&blob, "misaligned section length");

    // Structurally broken payload behind a valid checksum: offsets[0] != 0.
    let mut blob = clean;
    blob[56] = 0xff;
    restamp_v3_checksum(&mut blob);
    expect_v3_rejected(&blob, "offsets[0] != 0");
}

/// Byte range of the payload of the section tagged `tag` in a v3 snapshot,
/// found by walking the section framing.
fn v3_section(blob: &[u8], tag: u32) -> std::ops::Range<usize> {
    let mut pos = 8;
    loop {
        let at = |i: usize| u64::from_le_bytes(blob[i..i + 8].try_into().unwrap()) as usize;
        let len = at(pos + 8);
        if blob[pos..pos + 4] == tag.to_le_bytes() {
            return pos + 16..pos + 16 + len;
        }
        pos += 16 + len.next_multiple_of(8);
    }
}

fn put_u32(blob: &mut [u8], section: &std::ops::Range<usize>, i: usize, value: u32) {
    let at = section.start + 4 * i;
    blob[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

fn put_u64(blob: &mut [u8], section: &std::ops::Range<usize>, i: usize, value: u64) {
    let at = section.start + 8 * i;
    blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

fn read_u32(blob: &[u8], section: &std::ops::Range<usize>, i: usize) -> u32 {
    let at = section.start + 4 * i;
    u32::from_le_bytes(blob[at..at + 4].try_into().unwrap())
}

/// The variant name and `what` of a structural rejection.
fn rejection(err: &GraphError) -> (&'static str, &'static str) {
    match err {
        GraphError::BrokenInvariant { what, .. } => ("BrokenInvariant", what),
        GraphError::NonFiniteScalar { what, .. } => ("NonFiniteScalar", what),
        other => panic!("unexpected rejection {other:?}"),
    }
}

#[test]
fn each_structural_fault_is_rejected_alike_by_both_v3_openers() {
    // One corruption per case, behind a re-stamped checksum, so only the
    // structural checks stand between the bytes and the accessors. The
    // expected variant and `what` are those the fused-sweep opener reported.
    let graph = quickstart_graph();
    let (n, m) = (graph.vertex_count() as u32, graph.edge_count() as u32);
    let weights: Vec<f64> = (0..m).map(|i| 1.0 + f64::from(i)).collect();
    let clean = encode_binary_v3(&graph, Some(&weights)).unwrap();
    let offsets = v3_section(&clean, 2);
    let targets = v3_section(&clean, 3);
    let edge_ids = v3_section(&clean, 4);
    let endpoints = v3_section(&clean, 5);
    let weight_bytes = v3_section(&clean, 6);
    // Vertex 0 of the quickstart graph has the block [1, 2, 3, 4].
    assert_eq!(graph.offsets()[1], 4);
    type Doctor<'a> = Box<dyn Fn(&mut Vec<u8>) + 'a>;
    let cases: Vec<(&str, Doctor, (&str, &str))> = vec![
        (
            "offsets[0] != 0",
            Box::new(|b| put_u64(b, &offsets, 0, 1)),
            ("BrokenInvariant", "offsets"),
        ),
        (
            "a decreasing offset",
            Box::new(|b| put_u64(b, &offsets, 2, 0)),
            ("BrokenInvariant", "offsets"),
        ),
        (
            "offsets ending before 2m",
            Box::new(|b| put_u64(b, &offsets, n as usize, u64::from(2 * m - 1))),
            ("BrokenInvariant", "offsets"),
        ),
        (
            "a target >= n",
            Box::new(|b| put_u32(b, &targets, 3, n + 7)),
            ("BrokenInvariant", "adjacency"),
        ),
        (
            "two swapped targets in one block",
            Box::new(|b| {
                let (first, second) = (read_u32(b, &targets, 1), read_u32(b, &targets, 2));
                put_u32(b, &targets, 1, second);
                put_u32(b, &targets, 2, first);
            }),
            ("BrokenInvariant", "neighbor order"),
        ),
        (
            "an edge id >= m",
            Box::new(|b| put_u32(b, &edge_ids, 5, m)),
            ("BrokenInvariant", "edge ids"),
        ),
        (
            "a non-canonical endpoint pair",
            Box::new(|b| {
                let (u, v) = (read_u32(b, &endpoints, 6), read_u32(b, &endpoints, 7));
                put_u32(b, &endpoints, 6, v);
                put_u32(b, &endpoints, 7, u);
            }),
            ("BrokenInvariant", "endpoints"),
        ),
        (
            "an endpoint >= n",
            Box::new(|b| put_u32(b, &endpoints, 2 * (m as usize - 1) + 1, n)),
            ("BrokenInvariant", "endpoints"),
        ),
        (
            "a NaN weight",
            Box::new(|b| put_u64(b, &weight_bytes, 4, f64::NAN.to_bits())),
            ("NonFiniteScalar", "edge weights"),
        ),
    ];
    for (name, doctor, expected) in &cases {
        let mut blob = clean.clone();
        doctor(&mut blob);
        restamp_v3_checksum(&mut blob);
        let mapped = MappedCsrGraph::from_bytes(&blob).expect_err(name);
        assert_eq!(rejection(&mapped), *expected, "{name} via from_bytes: {mapped}");
        let decoded = decode_binary_v3(&blob).expect_err(name);
        assert_eq!(rejection(&decoded), *expected, "{name} via decode_binary_v3: {decoded}");
    }

    // The documented asymmetry: two in-bounds edge ids swapped between
    // half-edges break only the cross-link, which the mapped open defers
    // to `check_invariants` and the owned decode runs.
    let mut blob = clean.clone();
    let (first, second) = (read_u32(&blob, &edge_ids, 0), read_u32(&blob, &edge_ids, 1));
    put_u32(&mut blob, &edge_ids, 0, second);
    put_u32(&mut blob, &edge_ids, 1, first);
    restamp_v3_checksum(&mut blob);
    let mapped = MappedCsrGraph::from_bytes(&blob).expect("mislinked ids pass the mapped open");
    assert_eq!(rejection(&mapped.check_invariants().unwrap_err()), ("BrokenInvariant", "edge ids"));
    let decoded = decode_binary_v3(&blob).expect_err("mislinked ids fail the owned decode");
    assert_eq!(rejection(&decoded), ("BrokenInvariant", "edge ids"), "{decoded}");
}
