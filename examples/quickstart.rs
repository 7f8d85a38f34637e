//! Quickstart: build a K-Core terrain with the staged [`TerrainPipeline`]
//! session and inspect it from the terminal — end to end through the I/O
//! boundary: graphs come in through `GraphSource`, artifacts go out through
//! `Exporter` backends.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart [-- --threads <serial|auto|N>]
//!                                [-- --input <graph file>]
//!                                [-- --format <svg|treemap|obj|ply|ascii|json|tiled|scene>]
//!                                [-- --out <artifact path>]
//!                                [-- --save-graph <binary snapshot path>]
//!                                [-- --mapped]
//! ```
//!
//! Without `--input` a small built-in collaboration graph is used;
//! `--save-graph` writes that graph as a binary snapshot which a later run
//! can `--input` back (CI round-trips exactly this and diffs the SVG
//! bytes). The snapshot is binary v3, the zero-copy CSR layout that
//! `TerrainPipeline::open_mapped` serves straight from the mapped file.
//! `--mapped` makes `--input` (which must then name a snapshot) open
//! memory-mapped instead of deserializing — the session
//! runs off the page cache and the artifact bytes are identical to the
//! owned path (CI diffs exactly that). The `--threads` knob is pure
//! wall-clock: the emitted artifact is byte-identical for every setting
//! (CI diffs `--threads serial` against `--threads 2` end-to-end).

use graph_terrain::prelude::*;
use measures::Parallelism;
use terrain::{exporter_by_name, peaks_at_alpha, Ascii, Exporter, RenderScene};
use ugraph::io::{write_binary_v3_file, GraphSource};
use ugraph::GraphBuilder;

/// `--flag value` or `--flag=value`, matching the figure binaries' parser.
fn flag(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = arg.strip_prefix(&prefix) {
            return Some(value.to_string());
        }
        if arg == name {
            return iter.next().cloned();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parallelism = flag(&args, "--threads")
        .and_then(|v| Parallelism::parse(&v).ok())
        .unwrap_or(Parallelism::Serial);
    let exporter = flag(&args, "--format")
        .map(|name| exporter_by_name(&name).expect("unknown --format backend"))
        .unwrap_or_else(|| exporter_by_name("svg").expect("svg backend exists"));
    let out_path = flag(&args, "--out").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("graph_terrain_quickstart.{}", exporter.file_extension()))
    });

    // 1+2. Get a graph and start a session whose scalar field is the K-Core
    //    number of each vertex, so the terrain's peaks are exactly the dense
    //    K-Cores (Proposition 4 of the paper). The session computes the
    //    measure itself, under the requested thread budget. With `--mapped`
    //    the graph never leaves the snapshot file: the session serves the
    //    CSR arrays straight out of the memory mapping.
    let input = flag(&args, "--input");
    let owned_graph; // keeps the owned graph alive for the borrowed session
    let mut session = if args.iter().any(|a| a == "--mapped") {
        let path = input.as_deref().expect("--mapped requires --input <v3 snapshot path>");
        let session =
            TerrainPipeline::open_mapped(path, Measure::KCore).expect("open mapped v3 snapshot");
        println!(
            "opened {path} zero-copy ({} vertices, {} edges)",
            session.graph().vertex_count(),
            session.graph().edge_count()
        );
        session
    } else {
        // Ingest any supported format through GraphSource, or build the demo
        // graph by hand — two dense "research groups" (a K5 and a K4)
        // connected through a chain of collaborations.
        owned_graph = match input {
            Some(path) => {
                let parsed = GraphSource::path(&path).load().expect("load --input graph");
                println!("loaded {path} ({} vertices)", parsed.graph.vertex_count());
                parsed.graph
            }
            None => {
                let mut builder = GraphBuilder::new();
                for u in 0..5u32 {
                    for v in (u + 1)..5u32 {
                        builder.add_edge(u, v); // group A: vertices 0..5
                    }
                }
                for u in 5..9u32 {
                    for v in (u + 1)..9u32 {
                        builder.add_edge(u, v); // group B: vertices 5..9
                    }
                }
                builder.extend_edges([(4u32, 9u32), (9, 10), (10, 5)]); // bridge authors
                builder.build()
            }
        };
        println!(
            "graph: {} vertices, {} edges",
            owned_graph.vertex_count(),
            owned_graph.edge_count()
        );

        // Optionally snapshot the graph so a later run can `--input` it back,
        // byte-identically: v3 is the zero-copy CSR layout that
        // `MappedCsrGraph` serves without deserializing.
        if let Some(path) = flag(&args, "--save-graph") {
            write_binary_v3_file(&owned_graph, None, &path).expect("write v3 snapshot");
            println!("saved binary v3 snapshot to {path}");
        }

        TerrainPipeline::from_measure(&owned_graph, Measure::KCore)
    };
    session.set_parallelism(parallelism);
    println!("measure parallelism: {parallelism} (the artifact is identical for every setting)");

    // 3. Stages compute lazily and are cached: asking for the mesh builds
    //    scalar field -> scalar tree -> super tree -> layout -> mesh once.
    let stages = session.stages().expect("valid scalar field");
    println!(
        "super tree: {} nodes; mesh: {} triangles",
        stages.super_tree.node_count(),
        stages.mesh.triangle_count()
    );

    // 4. Ask analysis questions directly on the cached stages.
    for alpha in [1.0, 3.0, 4.0] {
        let peaks = peaks_at_alpha(stages.render_tree, stages.layout, alpha);
        println!("maximal {alpha}-connected components (peaks at height {alpha}): {}", peaks.len());
        for p in &peaks {
            println!("   vertices {:?} (summit K = {})", p.members, p.summit_height);
        }
    }

    // 5. Look at it: ASCII in the terminal (one exporter backend)...
    println!("\nterrain heightmap (top view):\n");
    let scene = RenderScene::new(stages.render_tree, stages.layout, stages.mesh);
    println!("{}", Ascii::new(60, 18).export_string(&scene).expect("ascii render"));

    // ...and the requested artifact on disk (another backend, same scene).
    session.write_artifact(exporter.as_ref(), &out_path).expect("write artifact");
    println!("wrote {} terrain artifact to {}", exporter.name(), out_path.display());
}
