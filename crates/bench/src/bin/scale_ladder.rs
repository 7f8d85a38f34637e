//! `scale_ladder` — run the full `TerrainPipeline` across a rung ladder of
//! generated graphs at several `Parallelism` settings and record a
//! `BENCH_<date>.json` perf baseline (schema and methodology: `PERFORMANCE.md`).
//!
//! ```text
//! scale_ladder [--rungs full|ci] [--parallelism serial,2,4x128]
//!              [--measure pagerank|degree|kcore] [--out NAME.json]
//!              [--compare PATH --tolerance 2.0]
//! ```
//!
//! * `--rungs` — `full` (1k → 10M edges, the recorded-baseline ladder) or
//!   `ci` (≤100k edges, the smoke-gate subset). Default `full`.
//! * `--parallelism` — comma-separated [`Parallelism::parse`] settings to run
//!   each rung at. Default `serial,2,4x128`.
//!
//! [`Parallelism::parse`]: ugraph::par::Parallelism::parse
//! * `--measure` — scalar field driving the pipeline. Default `pagerank`
//!   (parallel-capable and linear per iteration, so every ladder rung
//!   finishes; `degree` isolates the tree/render stages, `kcore` exercises
//!   the peeling path).
//! * `--out` — artifact name under the results directory. Default
//!   `BENCH_<date>.json`.
//! * `--compare` — a committed reference baseline to diff against; exits
//!   non-zero when any matched rung regresses by more than `--tolerance`
//!   (default 2.0) × the reference `total_seconds`.
//!
//! Every graph is generated once per rung and shared by all parallelism
//! settings, so the recorded `generate_seconds` is amortized exactly as the
//! pipeline timings are.
//!
//! After the pipeline measurements, each rung is additionally saved as a
//! binary v3 snapshot in a temp directory and reopened — `storage:
//! "snapshot-v3-mapped"` times [`ugraph::MappedCsrGraph::open`] (mmap +
//! checksum + validation walk, no array copies), with the save time in
//! `generate_seconds`.
//!
//! Each rung also runs the delta bench: a fixed ≤1k-edge batch (half
//! deletes of existing edges, half fresh inserts) crosses the graph the way
//! the terrain server's delta route crosses it (`storage: "delta-apply"`):
//! [`SharedGraph::apply_delta`] (the one-pass apply and compaction) plus a
//! fresh session's SVG over the new graph. The copy of the base graph the
//! apply consumes is made outside the timer, and no session is warmed
//! first. The row is compared against the from-scratch path a client
//! without the delta subsystem pays: re-parse the final edge list (the same
//! re-upload CI's delta smoke performs), build the graph, and render a
//! fresh session (`storage: "delta-rebuild"`). Timings are best-of-3; a
//! byte-equality guard on the two SVGs backs every recorded pair. Both run
//! at `degree`, `kcore` and `pagerank`. `delta-apply` rows recorded before
//! 0.19.0 timed a warm session's own delta apply and re-render instead, and
//! k-core rows recorded before 0.18.0 a re-peel of the touched components.
//!
//! [`SharedGraph::apply_delta`]: graph_terrain::SharedGraph::apply_delta
//!
//! Finally each rung runs the tile bench over the retained scene: `storage:
//! "tile-query"` records the *mean* quadtree viewport query over a fixed
//! diagonal sweep of tile viewports at zooms 0–4 (best-of-3 sweeps), and
//! `storage: "tile-render"` records one 256-pixel tile's SVG render
//! (best-of-3, guarded byte-identical across iterations). Those rows'
//! `generate_seconds` is the scene build alone: the LOD pass over a super
//! tree built beforehand and left out of the timing, which is what a served
//! scene miss costs once the server retains the super tree.

use bench::cli::flag_value;
use bench::output::{results_dir, write_artifact};
use bench::report::{
    compare, git_short_rev, peak_rss_bytes, utc_date, validate, BenchReport, RungResult,
    StageSeconds, SCHEMA_VERSION,
};
use bench::{format_table_for, parallelism_list_from};
use graph_terrain::{Measure, SharedGraph, TerrainPipeline};
use ugraph::delta::{DeltaOp, GraphDelta};
use ugraph::generators::rmat;
use ugraph::io::{write_binary_v3_file, GraphFormat, GraphSource};
use ugraph::{CsrGraph, GraphStorage, MappedCsrGraph};

/// One ladder rung: name, RMAT scale, and the number of edge samples.
const FULL_LADDER: &[(&str, u32, usize)] = &[
    ("1k", 7, 1_000),
    ("10k", 10, 10_000),
    ("100k", 13, 100_000),
    ("1M", 17, 1_000_000),
    ("10M", 20, 10_000_000),
];

/// The ≤100k-edge subset the CI smoke gate runs.
const CI_LADDER: &[(&str, u32, usize)] =
    &[("1k", 7, 1_000), ("10k", 10, 10_000), ("100k", 13, 100_000)];

/// Seed shared by every baseline so runs are comparable across machines.
const LADDER_SEED: u64 = 20_170_419; // the paper's ICDE 2017 presentation date

/// The fixed ≤1k-edge batch the delta bench applies: half stride-sampled
/// deletes of existing edges, half fresh inserts from a deterministic
/// xorshift stream — the same batch for every measure and every run of a
/// given rung, so baselines stay comparable.
fn ladder_delta(graph: &CsrGraph) -> GraphDelta {
    const TARGET: usize = 1_000;
    let half = TARGET / 2;
    let mut delta = GraphDelta::new();
    let stride = (graph.edge_count() / half).max(1);
    for (i, e) in graph.edges().enumerate() {
        if i % stride == 0 && delta.len() < half {
            delta.push(DeltaOp::Delete, e.u, e.v);
        }
    }
    let n = graph.vertex_count() as u64;
    let mut state = LADDER_SEED | 1;
    let mut attempts = 0;
    while delta.len() < TARGET && attempts < TARGET * 10 {
        attempts += 1;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = ((state >> 8) % n) as u32;
        let v = ((state >> 40) % n) as u32;
        delta.push(DeltaOp::Insert, u, v);
    }
    delta
}

fn measure_from(name: &str) -> Option<Measure> {
    match name {
        "pagerank" => Some(Measure::PageRank),
        "degree" => Some(Measure::Degree),
        "kcore" => Some(Measure::KCore),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let ladder = match flag_value(&args, "--rungs").as_deref() {
        None | Some("full") => FULL_LADDER,
        Some("ci") => CI_LADDER,
        Some(other) => {
            eprintln!("[error] unknown --rungs value {other:?} (expected full or ci)");
            std::process::exit(2);
        }
    };
    let settings = parallelism_list_from(&args, "serial,2,4x128").unwrap_or_else(|bad| {
        eprintln!(
            "[error] unrecognized --parallelism entry {bad:?} (expected serial, auto, N or NxW)"
        );
        std::process::exit(2);
    });
    let measure_name = flag_value(&args, "--measure").unwrap_or_else(|| "pagerank".to_string());
    let Some(measure) = measure_from(&measure_name) else {
        eprintln!(
            "[error] unknown --measure {measure_name:?} (expected pagerank, degree or kcore)"
        );
        std::process::exit(2);
    };
    let out_name =
        flag_value(&args, "--out").unwrap_or_else(|| format!("BENCH_{}.json", utc_date()));
    let tolerance: f64 = match flag_value(&args, "--tolerance") {
        Some(t) => t.parse().unwrap_or_else(|_| {
            eprintln!("[error] --tolerance must be a number, got {t:?}");
            std::process::exit(2);
        }),
        None => 2.0,
    };

    let mut report = BenchReport {
        schema_version: SCHEMA_VERSION,
        created: utc_date(),
        git_rev: git_short_rev(),
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        host_os: std::env::consts::OS.to_string(),
        rungs: Vec::new(),
    };
    println!(
        "scale ladder · measure {} · {} rungs × {} parallelism settings · git {}",
        measure_name,
        ladder.len(),
        settings.len(),
        report.git_rev
    );

    let snapshot_dir = std::env::temp_dir().join(format!("scale-ladder-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&snapshot_dir) {
        eprintln!("[error] cannot create snapshot dir {}: {e}", snapshot_dir.display());
        std::process::exit(1);
    }

    for &(rung_name, scale, target_edges) in ladder {
        let started = std::time::Instant::now();
        let graph = rmat(scale, target_edges, LADDER_SEED);
        let generate_seconds = started.elapsed().as_secs_f64();
        println!(
            "[{rung_name}] rmat scale {scale}: {} vertices, {} edges ({generate_seconds:.2}s)",
            graph.vertex_count(),
            graph.edge_count()
        );
        for &parallelism in &settings {
            let mut session = TerrainPipeline::from_measure(&graph, measure.clone());
            session.set_parallelism(parallelism);
            if let Err(e) = session.svg() {
                eprintln!("[error] {rung_name} @ {parallelism}: pipeline failed: {e}");
                std::process::exit(1);
            }
            let t = session.timings();
            let stages = StageSeconds {
                scalar: t.scalar_seconds.unwrap_or(0.0),
                tree: t.tree_seconds.unwrap_or(0.0),
                super_tree: t.super_tree_seconds.unwrap_or(0.0),
                simplify: t.simplify_seconds.unwrap_or(0.0),
                layout: t.layout_seconds.unwrap_or(0.0),
                mesh: t.mesh_seconds.unwrap_or(0.0),
                svg: t.svg_seconds.unwrap_or(0.0),
            };
            let total_seconds = stages.total();
            report.rungs.push(RungResult {
                rung: rung_name.to_string(),
                generator: "rmat".to_string(),
                scale,
                target_edges,
                vertices: graph.vertex_count(),
                edges: graph.edge_count(),
                generate_seconds,
                measure: measure_name.clone(),
                storage: "generated".to_string(),
                open_seconds: None,
                parallelism: parallelism.canonical_flag(),
                threads: parallelism.thread_count(),
                width: parallelism.width(),
                stages,
                total_seconds,
                edges_per_second: if total_seconds > 0.0 {
                    graph.edge_count() as f64 / total_seconds
                } else {
                    0.0
                },
                peak_rss_bytes: peak_rss_bytes(),
            });
            println!(
                "  {parallelism}: total {total_seconds:.3}s ({:.0} edges/s)",
                report.rungs.last().expect("just pushed").edges_per_second
            );
        }

        // Snapshot-open rung: save the graph, then time how long it takes
        // to get a queryable graph back from disk.
        let v3_path = snapshot_dir.join(format!("{rung_name}.v3.gtsb"));
        let save_started = std::time::Instant::now();
        write_binary_v3_file(&graph, None, &v3_path).expect("write v3 snapshot");
        let save_seconds = save_started.elapsed().as_secs_f64();

        let open_started = std::time::Instant::now();
        let v3_graph = MappedCsrGraph::open(&v3_path).expect("v3 snapshot reopens");
        let open_seconds = open_started.elapsed().as_secs_f64();
        std::hint::black_box(v3_graph.edge_count());
        let rss = peak_rss_bytes();
        let v3_mapped = v3_graph.is_memory_mapped();
        drop(v3_graph);

        report.rungs.push(RungResult {
            rung: rung_name.to_string(),
            generator: "rmat".to_string(),
            scale,
            target_edges,
            vertices: graph.vertex_count(),
            edges: graph.edge_count(),
            generate_seconds: save_seconds,
            measure: measure_name.clone(),
            storage: "snapshot-v3-mapped".to_string(),
            open_seconds: Some(open_seconds),
            parallelism: "serial".to_string(),
            threads: 1,
            width: 1,
            stages: StageSeconds::default(),
            total_seconds: open_seconds,
            edges_per_second: if open_seconds > 0.0 {
                graph.edge_count() as f64 / open_seconds
            } else {
                0.0
            },
            peak_rss_bytes: rss,
        });
        let _ = std::fs::remove_file(&v3_path);
        println!("  open: v3-mapped {open_seconds:.3}s (mmap: {v3_mapped})");

        // Delta bench: cross the fixed ≤1k-edge batch the way the server
        // does (copy-on-write apply, then a fresh session's SVG), vs the
        // from-scratch path — rebuild the final graph from its edge list,
        // then build and render a fresh session. One pair of rows per
        // measure.
        let delta = ladder_delta(&graph);
        let final_graph = ugraph::delta::apply(&graph, &delta).1.unwrap_or_else(|| graph.clone());
        // The final edge list serialized as text — what a rebuilding client
        // re-uploads (CI's delta smoke performs exactly this re-upload), so
        // the rebuild timing covers parse + build + render. The trailing
        // self loop pins the vertex count: the edge-list reader drops the
        // loop but keeps its endpoint, like the delta intake does.
        let rebuild_text = {
            use std::fmt::Write as _;
            let mut text = String::new();
            for e in final_graph.edges() {
                let _ = writeln!(text, "{} {}", e.u.0, e.v.0);
            }
            let last = final_graph.vertex_count().saturating_sub(1);
            let _ = writeln!(text, "{last} {last}");
            text
        };
        // Best-of-N timing: the minimum is the least-noise estimate on a
        // shared container.
        const DELTA_ITERS: usize = 3;
        for delta_measure in [Measure::Degree, Measure::KCore, Measure::PageRank] {
            let delta_measure_name = delta_measure.name().to_string();
            let mut apply_seconds = f64::INFINITY;
            let mut rebuild_seconds = f64::INFINITY;
            for _ in 0..DELTA_ITERS {
                // The server holds its graph already; the copy the apply
                // consumes is made outside the timer.
                let mut shared = SharedGraph::new(graph.clone());
                let apply_started = std::time::Instant::now();
                shared.apply_delta(&delta);
                let mut crossed = TerrainPipeline::from_shared(shared, delta_measure.clone());
                let crossed_svg_ok = crossed.svg().is_ok();
                apply_seconds = apply_seconds.min(apply_started.elapsed().as_secs_f64());

                // The owned copy is made outside the timer: a rebuilding
                // client already holds the upload bytes.
                let rebuild_input = rebuild_text.clone().into_bytes();
                let rebuild_started = std::time::Instant::now();
                let rebuilt = GraphSource::reader(std::io::Cursor::new(rebuild_input))
                    .with_format(GraphFormat::EdgeList)
                    .load()
                    .expect("ladder rebuild edge list parses")
                    .graph;
                let mut fresh = TerrainPipeline::from_measure(&rebuilt, delta_measure.clone());
                let fresh_svg_ok = fresh.svg().is_ok();
                rebuild_seconds = rebuild_seconds.min(rebuild_started.elapsed().as_secs_f64());
                if !crossed_svg_ok || !fresh_svg_ok {
                    eprintln!(
                        "[error] {rung_name} delta bench render failed ({delta_measure_name})"
                    );
                    std::process::exit(1);
                }
                // The byte-exactness guard the timings ride on: the crossed
                // and from-scratch renders must agree or the numbers mean
                // nothing.
                if crossed.svg().expect("cached") != fresh.svg().expect("cached") {
                    eprintln!("[error] {rung_name} delta bench incoherent ({delta_measure_name})");
                    std::process::exit(1);
                }
            }
            for (storage, seconds) in
                [("delta-apply", apply_seconds), ("delta-rebuild", rebuild_seconds)]
            {
                report.rungs.push(RungResult {
                    rung: rung_name.to_string(),
                    generator: "rmat".to_string(),
                    scale,
                    target_edges,
                    vertices: final_graph.vertex_count(),
                    edges: final_graph.edge_count(),
                    generate_seconds,
                    measure: delta_measure_name.clone(),
                    storage: storage.to_string(),
                    open_seconds: None,
                    parallelism: "serial".to_string(),
                    threads: 1,
                    width: 1,
                    stages: StageSeconds::default(),
                    total_seconds: seconds,
                    edges_per_second: if seconds > 0.0 {
                        delta.len() as f64 / seconds
                    } else {
                        0.0
                    },
                    peak_rss_bytes: peak_rss_bytes(),
                });
            }
            println!(
                "  delta ({} edges, {delta_measure_name}): apply {apply_seconds:.3}s vs rebuild {rebuild_seconds:.3}s ({:.1}x)",
                delta.len(),
                rebuild_seconds / apply_seconds.max(1e-9)
            );
        }

        // Tile bench: build the super tree untimed, then the retained scene
        // once over it (the LOD pass alone lands in the row's
        // `generate_seconds`, like the snapshot rows record their save),
        // then time (a) quadtree viewport queries over a
        // deterministic pan/zoom sweep — `total_seconds` is the *mean*
        // query, the number the sub-millisecond claim rides on — and (b)
        // single-tile SVG renders, best-of-3 with a byte-equality guard
        // across iterations. `edges_per_second` doubles as ops/second
        // (queries, tiles) for these rows.
        let mut scene_session = TerrainPipeline::from_measure(&graph, measure.clone());
        if let Err(e) = scene_session.super_tree() {
            eprintln!("[error] {rung_name} super tree build failed: {e}");
            std::process::exit(1);
        }
        let scene_started = std::time::Instant::now();
        let scene = match scene_session.scene() {
            Ok(scene) => scene,
            Err(e) => {
                eprintln!("[error] {rung_name} scene build failed: {e}");
                std::process::exit(1);
            }
        };
        let scene_build_seconds = scene_started.elapsed().as_secs_f64();
        let viewports: Vec<graph_terrain::Rect> = {
            let mut v = Vec::new();
            for zoom in 0..=4u8 {
                let per_axis = 1u32 << zoom;
                // The diagonal plus the anti-diagonal: corner, center and
                // edge viewports at every zoom, fixed for every run.
                for i in 0..per_axis {
                    let key = graph_terrain::TileKey { zoom, tx: i, ty: i };
                    v.push(scene.tile_bounds(&key).expect("zoom <= 4 is inside the default grid"));
                    let key = graph_terrain::TileKey { zoom, tx: per_axis - 1 - i, ty: i };
                    v.push(scene.tile_bounds(&key).expect("zoom <= 4 is inside the default grid"));
                }
            }
            v
        };
        const TILE_ITERS: usize = 3;
        let mut query_sweep_seconds = f64::INFINITY;
        let mut query_results = 0usize;
        for _ in 0..TILE_ITERS {
            let sweep_started = std::time::Instant::now();
            let mut found = 0usize;
            for viewport in &viewports {
                found += scene.query(viewport).len();
            }
            query_sweep_seconds = query_sweep_seconds.min(sweep_started.elapsed().as_secs_f64());
            query_results = found;
        }
        let query_mean_seconds = query_sweep_seconds / viewports.len() as f64;

        let render_key = graph_terrain::TileKey { zoom: 2, tx: 1, ty: 1 };
        let mut tile_render_seconds = f64::INFINITY;
        let mut tile_bytes: Option<Vec<u8>> = None;
        for _ in 0..TILE_ITERS {
            let mut bytes = Vec::new();
            let render_started = std::time::Instant::now();
            if let Err(e) = scene.write_tile_svg(&render_key, 256, &mut bytes) {
                eprintln!("[error] {rung_name} tile render failed: {e}");
                std::process::exit(1);
            }
            tile_render_seconds = tile_render_seconds.min(render_started.elapsed().as_secs_f64());
            match &tile_bytes {
                Some(first) if *first != bytes => {
                    eprintln!("[error] {rung_name} tile render is not deterministic");
                    std::process::exit(1);
                }
                Some(_) => {}
                None => tile_bytes = Some(bytes),
            }
        }
        for (storage, seconds, ops) in [
            ("tile-query", query_mean_seconds, viewports.len()),
            ("tile-render", tile_render_seconds, 1usize),
        ] {
            report.rungs.push(RungResult {
                rung: rung_name.to_string(),
                generator: "rmat".to_string(),
                scale,
                target_edges,
                vertices: graph.vertex_count(),
                edges: graph.edge_count(),
                generate_seconds: scene_build_seconds,
                measure: measure_name.clone(),
                storage: storage.to_string(),
                open_seconds: None,
                parallelism: "serial".to_string(),
                threads: 1,
                width: 1,
                stages: StageSeconds::default(),
                total_seconds: seconds,
                edges_per_second: if seconds > 0.0 { ops as f64 / seconds } else { 0.0 },
                peak_rss_bytes: peak_rss_bytes(),
            });
        }
        println!(
            "  tiles ({} items, scene {scene_build_seconds:.3}s): query mean {:.1}µs over {} viewports ({query_results} results) · render z2 {:.3}s ({} bytes)",
            scene.item_count(),
            query_mean_seconds * 1e6,
            viewports.len(),
            tile_render_seconds,
            tile_bytes.as_ref().map(Vec::len).unwrap_or(0),
        );
    }
    let _ = std::fs::remove_dir(&snapshot_dir);

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = match write_artifact(&out_name, &json) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("[error] could not write {out_name}: {e}");
            std::process::exit(1);
        }
    };
    println!("\n{}", format_table_for(&report));
    println!("baseline written to {}", path.display());

    if let Some(reference_name) = flag_value(&args, "--compare") {
        let reference_path = {
            let as_given = std::path::PathBuf::from(&reference_name);
            if as_given.exists() {
                as_given
            } else {
                results_dir().join(&reference_name)
            }
        };
        let reference_text = match std::fs::read_to_string(&reference_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("[error] cannot read reference {}: {e}", reference_path.display());
                std::process::exit(1);
            }
        };
        let current = serde_json::from_str(&json).expect("own output parses");
        let reference = match serde_json::from_str(&reference_text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("[error] reference {} is not JSON: {e}", reference_path.display());
                std::process::exit(1);
            }
        };
        for doc in [("current", &current), ("reference", &reference)] {
            let errors = validate(doc.1);
            if !errors.is_empty() {
                eprintln!("[error] {} baseline fails schema validation:", doc.0);
                for e in errors {
                    eprintln!("  - {e}");
                }
                std::process::exit(1);
            }
        }
        let problems = compare(&current, &reference, tolerance);
        if problems.is_empty() {
            println!("no regression vs {} at {tolerance:.1}x tolerance", reference_path.display());
        } else {
            eprintln!("[error] perf regression vs {}:", reference_path.display());
            for p in &problems {
                eprintln!("  - {p}");
            }
            std::process::exit(1);
        }
    }
}
