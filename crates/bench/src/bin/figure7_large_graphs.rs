//! Figure 7 — K-Core and K-Truss terrains of the Wikipedia and Cit-Patent
//! analogs, with the densest K-Core / K-Truss drill-down of Figures 7(e,f).
//!
//! The default scale keeps the run to a few seconds; `--large` uses 10x more
//! vertices for a scalability exercise closer to the paper's full datasets,
//! and `--threads <serial|auto|N>` sets the measure-stage parallelism.
//! `--input <path> [--input-format <name>]` pushes a *real* million-edge
//! dump through the pipeline (ingested via `GraphSource`) instead of the
//! analogs — the actual Figure 7 experiment when the SNAP files are on disk.

use bench::cli::input_dataset_from;
use bench::datasets::DatasetKind;
use bench::output::{format_table, write_artifact};
use bench::parallelism::parallelism_from;
use graph_terrain::{Measure, TerrainPipeline};
use measures::{core_numbers, truss_numbers_with};
use ugraph::CsrGraph;

/// One unit of figure work: a pre-loaded real file, or an analog generated
/// on demand (so only one graph is alive at a time).
enum Work {
    File(String, CsrGraph),
    Analog(DatasetKind),
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let large = args.iter().any(|a| a == "--large");
    let parallelism = parallelism_from(&args);
    eprintln!("[figure7] measure parallelism: {parallelism}");
    let mut rows = Vec::new();

    // Both analogs are large by design — generate them one at a time so only
    // one graph is alive per iteration (with --large this halves peak memory).
    let work: Vec<Work> = match input_dataset_from(&args) {
        Some(file) => vec![Work::File(file.name, file.graph)],
        None => [DatasetKind::Wikipedia, DatasetKind::CitPatent].map(Work::Analog).into(),
    };

    for item in work {
        let (name, graph) = match item {
            Work::File(name, graph) => (name, graph),
            Work::Analog(kind) => {
                let scale = if large {
                    (kind.default_scale() * 10.0).min(1.0)
                } else {
                    kind.default_scale()
                };
                let dataset = kind.generate(scale);
                eprintln!(
                    "[figure7] {} analog at scale {scale:.2}: {} nodes, {} edges",
                    dataset.spec.name,
                    dataset.graph.vertex_count(),
                    dataset.graph.edge_count()
                );
                (dataset.spec.name.to_string(), dataset.graph)
            }
        };
        let graph = &graph;
        let name = &name;
        // `Nt` of both terrains: the sessions stop at the super tree, the
        // only stage the table reads. The decompositions are re-run below to
        // report the densest structures of Figures 7(e,f).
        let super_tree_nodes = |measure: Measure| {
            let mut session = TerrainPipeline::from_measure(graph, measure);
            session.set_parallelism(parallelism);
            session.super_tree().map(|tree| tree.node_count())
        };
        let vertex_nodes = match super_tree_nodes(Measure::KCore) {
            Ok(nodes) => nodes,
            Err(e) => {
                eprintln!("[figure7] {name} KC(v) pipeline failed: {e}");
                continue;
            }
        };
        let edge_nodes = match super_tree_nodes(Measure::KTruss) {
            Ok(nodes) => nodes,
            Err(e) => {
                eprintln!("[figure7] {name} KT(e) pipeline failed: {e}");
                continue;
            }
        };

        let cores = core_numbers(graph);
        let densest_core = cores.densest_core_vertices();
        let truss = truss_numbers_with(graph, parallelism);
        let densest_truss = truss.densest_truss_edges();

        rows.push(vec![
            name.clone(),
            graph.vertex_count().to_string(),
            graph.edge_count().to_string(),
            format!("K={} ({} vertices)", cores.degeneracy, densest_core.len()),
            format!("K={} ({} edges)", truss.max_truss, densest_truss.len()),
            vertex_nodes.to_string(),
            edge_nodes.to_string(),
        ]);
    }

    let table = format_table(
        &["dataset", "nodes", "edges", "densest K-Core", "densest K-Truss", "Nt (KC)", "Nt (KT)"],
        &rows,
    );
    println!("Figure 7 — large-graph terrains and densest-structure drill-down\n\n{table}");
    println!(
        "Expected shape: the Wikipedia analog (preferential attachment) has a much\n\
         denser maximal core/truss than the Cit-Patent analog (sparse citations),\n\
         and both graphs reduce to super trees orders of magnitude smaller than\n\
         the input."
    );
    let _ = write_artifact("figure7_large_graphs.txt", &table);
}
