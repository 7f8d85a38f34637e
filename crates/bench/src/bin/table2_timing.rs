//! Table II — terrain visualization time cost.
//!
//! For each (dataset, scalar) pair of the paper's Table II, runs the full
//! pipeline and reports the super-tree size `Nt`, the tree construction time
//! `tc`, the naive dual-graph edge-tree time `te` (edge scalars only) and the
//! visualization time `tv`.
//!
//! By default the two giant datasets run at a reduced scale so the harness
//! finishes quickly; pass `--large` to use a 10x larger scale (still bounded
//! by memory), `--skip-naive` to skip the quadratic dual-graph baseline,
//! `--threads <serial|auto|N>` to set the measure-stage parallelism
//! (timings change, numbers don't), and `--render-budget <N>` to change the
//! Section II-E simplification threshold (default 4000 super nodes).
//! `--input <path> [--input-format <name>]` times a *real* graph file
//! (ingested through `GraphSource`) instead of the synthetic analogs.

use bench::cli::input_dataset_from;
use bench::datasets::DatasetKind;
use bench::naive_edge_tree_seconds;
use bench::output::{format_table, write_artifact};
use bench::parallelism::parallelism_from;
use graph_terrain::{Measure, SimplificationConfig, TerrainPipeline};
use terrain::TerrainResult;
use ugraph::par::Parallelism;
use ugraph::CsrGraph;

/// One unit of table work: a pre-loaded real file, or an analog generated
/// on demand (so only one graph is alive at a time).
enum Work {
    File(String, CsrGraph),
    Analog(DatasetKind),
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let large = args.iter().any(|a| a == "--large");
    let skip_naive = args.iter().any(|a| a == "--skip-naive");
    let parallelism = parallelism_from(&args);
    let defaults = SimplificationConfig::default();
    let budget = args
        .iter()
        .position(|a| a == "--render-budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .or(defaults.node_budget)
        .expect("the default simplification has a node budget");
    let simplification = SimplificationConfig { node_budget: Some(budget), ..defaults };
    eprintln!("[table2] measure parallelism: {parallelism}; render budget: {budget}");

    // The workload: one real file (--input), or the four synthetic analogs.
    // Graphs materialize one at a time inside the loop — with --large two of
    // the analogs are million-edge graphs, and holding all four at once
    // would multiply the peak memory of exactly the scalability runs this
    // binary exists for.
    let work: Vec<Work> = match input_dataset_from(&args) {
        Some(file) => vec![Work::File(file.name, file.graph)],
        None => [
            DatasetKind::GrQc,
            DatasetKind::WikiVote,
            DatasetKind::Wikipedia,
            DatasetKind::CitPatent,
        ]
        .map(Work::Analog)
        .into(),
    };

    let mut rows = Vec::new();
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
                    "[table2] {} at scale {scale:.2}: {} nodes, {} edges",
                    dataset.spec.name,
                    dataset.graph.vertex_count(),
                    dataset.graph.edge_count()
                );
                (dataset.spec.name.to_string(), dataset.graph)
            }
        };
        let graph = &graph;
        let name = &name;
        // KC(v) row.
        let vsession = match rendered_session(graph, Measure::KCore, parallelism, simplification) {
            Ok(session) => session,
            Err(e) => {
                eprintln!("[table2] {name} KC(v) pipeline failed: {e}");
                continue;
            }
        };
        rows.push(row(name, "KC(v)", vsession, "-".to_string()));

        // KT(e) row. The naive baseline is only attempted on graphs whose dual
        // stays manageable, mirroring how the paper could not run it at all
        // scales either.
        let dual_edges = ugraph::dual::estimated_dual_edges(graph);
        let run_naive = !skip_naive && dual_edges < 30_000_000;
        let mut esession =
            match rendered_session(graph, Measure::KTruss, parallelism, simplification) {
                Ok(session) => session,
                Err(e) => {
                    eprintln!("[table2] {name} KT(e) pipeline failed: {e}");
                    continue;
                }
            };
        let naive = if run_naive {
            match esession.scalar().and_then(|scalar| naive_edge_tree_seconds(graph, scalar)) {
                Ok(seconds) => format!("{seconds:.4}"),
                Err(e) => {
                    eprintln!("[table2] {name} KT(e) naive baseline failed: {e}");
                    continue;
                }
            }
        } else {
            "(skipped)".to_string()
        };
        rows.push(row(name, "KT(e)", esession, naive));
    }

    let table = format_table(&["dataset", "scalar", "Nt", "tc(s)", "te(s)", "tv(s)"], &rows);
    println!("Table II — terrain visualization time cost (seconds)\n");
    println!("{table}");
    println!(
        "Expected shape: tc grows near-linearly with |E|; te >> tc wherever it runs\n\
         (the dual graph is quadratic in vertex degree); tv is small once the tree\n\
         is simplified below the render budget."
    );
    if let Ok(path) = write_artifact("table2_timing.txt", &table) {
        println!("wrote {}", path.display());
    }
}

/// Run `measure`'s terrain through SVG serialization, so the session's
/// timings hold every Table II stage.
fn rendered_session(
    graph: &CsrGraph,
    measure: Measure,
    parallelism: Parallelism,
    simplification: SimplificationConfig,
) -> TerrainResult<TerrainPipeline<'_>> {
    let mut session = TerrainPipeline::from_measure(graph, measure);
    session.set_parallelism(parallelism).set_simplification(simplification);
    session.svg()?;
    Ok(session)
}

/// One table row: `Nt` is the full super tree, `tc` and `tv` the session's
/// Table II timings, `te` the already formatted naive baseline. Consumes
/// the session so only one graph's stages are alive at a time.
fn row(name: &str, scalar: &str, mut session: TerrainPipeline<'_>, te: String) -> Vec<String> {
    let timings = session.timings();
    let nt = session.super_tree().map(|tree| tree.node_count()).expect("stage already built");
    vec![
        name.to_string(),
        scalar.to_string(),
        nt.to_string(),
        format!("{:.4}", timings.tree_construction_seconds().unwrap_or(0.0)),
        te,
        format!("{:.4}", timings.visualization_seconds().unwrap_or(0.0)),
    ]
}
