//! # bench — shared infrastructure for the table/figure harness
//!
//! The binaries in `src/bin/` regenerate every table and figure of the paper's
//! evaluation section (see `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded outputs). This library crate holds what they
//! share:
//!
//! * [`datasets`] — the synthetic analogs of the paper's Table I datasets;
//! * [`nn_graph`] — the attribute-table → nearest-neighbor-graph construction
//!   of the Figure 11 query-result experiment;
//! * [`naive`] — the naive dual-graph edge-tree timing, Table II's `te`
//!   column (every other Table II quantity comes from the façade's staged
//!   `TerrainPipeline` session);
//! * [`output`] — helpers to write figure artifacts (SVG, JSON, text tables)
//!   under `results/`;
//! * [`parallelism`] — the shared `--threads <serial|auto|N>` flag wiring
//!   the [`ugraph::par`] engine into the binaries;
//! * [`report`] — the `BENCH_*.json` perf-baseline schema and the
//!   regression comparator behind the `scale_ladder` binary (methodology in
//!   `PERFORMANCE.md`);
//! * [`cli`] — the shared I/O-boundary flags: `--input <path>` /
//!   `--input-format <name>` (ingest a real graph file through
//!   [`ugraph::GraphSource`]) and `--format <name>` (pick a
//!   [`terrain::Exporter`] render backend).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod datasets;
pub mod load_report;
pub mod naive;
pub mod nn_graph;
pub mod output;
pub mod parallelism;
pub mod report;

pub use cli::{exporter_from, exporter_from_args, input_dataset_from, input_dataset_from_args};
pub use datasets::{load_dataset, DatasetKind, DatasetSpec, FileDataset, GeneratedDataset};
pub use naive::naive_edge_tree_seconds;
pub use nn_graph::{generate_plant_table, knn_graph, PlantTable};
pub use output::format_table;
pub use parallelism::{parallelism_from, parallelism_from_args, parallelism_list_from};
pub use report::{format_table_for, BenchReport, RungResult, StageSeconds, SCHEMA_VERSION};
