//! The ingest boundary: streaming graph readers, graph writers and the
//! [`GraphSource`] builder.
//!
//! Four line-oriented text dialects and one binary snapshot format (v3) are
//! supported, all converging on the same [`ParsedEdgeList`] (a canonical
//! [`CsrGraph`] plus optional per-edge weights):
//!
//! | format                          | reader                   | writer                         |
//! |---------------------------------|--------------------------|--------------------------------|
//! | whitespace edge list (SNAP)     | [`read_edge_list`]       | [`write_edge_list`] / [`write_edge_list_weighted`] |
//! | CSV with header                 | [`read_csv`]             | —                              |
//! | METIS adjacency                 | [`read_metis`]           | —                              |
//! | JSON adjacency (one object/line)| [`read_json_adjacency`]  | —                              |
//! | binary snapshot v3              | [`decode_binary_v3`] / [`MappedCsrGraph`] | [`encode_binary_v3`] / [`write_binary_v3`] |
//!
//! Callers rarely pick a reader by hand: [`GraphSource`] resolves the format
//! from an explicit [`GraphFormat`], the file extension, or content sniffing,
//! and streams the bytes through the right reader:
//!
//! ```no_run
//! use ugraph::io::GraphSource;
//!
//! let parsed = GraphSource::path("soc-wiki-vote.csv").load()?;
//! println!("{} vertices", parsed.graph.vertex_count());
//! # Ok::<(), ugraph::GraphError>(())
//! ```
//!
//! Every text reader skips blank lines and `#` / `%` comment lines, reports
//! malformed input as [`GraphError::Parse`] with the offending 1-based line
//! number, and enforces the same weight rules: the weight column is
//! all-or-nothing, weights must be finite, duplicate mentions of an edge keep
//! the **last** weight, and self loops are dropped (their endpoints are kept
//! as vertices).

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use std::io::{BufRead, Write};
use std::path::Path;

mod checksum;
mod formats;
pub mod mmap;
mod source;
mod v3;

pub use checksum::fnv1a64;
pub use formats::{read_csv, read_json_adjacency, read_metis, GraphFormat};
pub use source::GraphSource;
#[doc(hidden)]
pub use v3::restamp_v3_checksum;
pub use v3::{
    decode_binary_v3, encode_binary_v3, write_binary_v3, write_binary_v3_file, MappedCsrGraph,
    BINARY_MAGIC, BINARY_V3_VERSION,
};

/// An edge list parsed from any ingest format: the graph plus optional
/// per-edge weights.
#[derive(Clone, Debug)]
pub struct ParsedEdgeList {
    /// The parsed graph.
    pub graph: CsrGraph,
    /// Per-edge weights aligned with [`CsrGraph`] edge ids, if the input
    /// carried a weight for every edge.
    pub edge_weights: Option<Vec<f64>>,
}

impl ParsedEdgeList {
    /// Write the graph (and its weights, if any) back out as a whitespace
    /// edge list. Weights survive a write → read round trip bit-for-bit
    /// (see [`write_edge_list_weighted`]).
    pub fn write_edge_list<W: Write>(&self, writer: W) -> Result<()> {
        match &self.edge_weights {
            Some(weights) => write_edge_list_weighted(&self.graph, weights, writer),
            None => write_edge_list(&self.graph, writer),
        }
    }
}

/// Shared edge-collection core of every text reader: accumulates edges and
/// their optional weights, enforces the all-or-nothing weight column, the
/// finite-weight rule and the last-wins duplicate rule, and re-aligns weights
/// with canonical edge ids at the end.
pub(crate) struct EdgeAccumulator {
    builder: GraphBuilder,
    // (canonical endpoints) -> weight; insertion overwrites, implementing the
    // last-wins rule before weights are re-aligned with canonical edge ids.
    weights_by_edge: std::collections::HashMap<(u32, u32), f64>,
    // Line number of the first data line, and whether it carried a weight —
    // every later line must agree.
    first_edge_line: Option<(usize, bool)>,
}

impl EdgeAccumulator {
    pub(crate) fn new() -> Self {
        EdgeAccumulator {
            builder: GraphBuilder::new(),
            weights_by_edge: Default::default(),
            first_edge_line: None,
        }
    }

    /// Reserve vertex `v` even if no edge mentions it.
    pub(crate) fn ensure_vertex(&mut self, v: u32) {
        self.builder.ensure_vertex(v);
    }

    /// Record one `u — v` mention from 1-based source line `lineno`, with its
    /// optional (already parsed and validated-finite) weight.
    pub(crate) fn edge(
        &mut self,
        lineno: usize,
        u: u32,
        v: u32,
        weight: Option<f64>,
    ) -> Result<()> {
        match self.first_edge_line {
            None => self.first_edge_line = Some((lineno, weight.is_some())),
            Some((first_line, first_weighted)) => {
                if first_weighted != weight.is_some() {
                    let (with, without) =
                        if first_weighted { (first_line, lineno) } else { (lineno, first_line) };
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!(
                            "inconsistent weight column: line {with} has a weight but \
                             line {without} does not"
                        ),
                    });
                }
            }
        }
        if let Some(w) = weight {
            let key = if u <= v { (u, v) } else { (v, u) };
            self.weights_by_edge.insert(key, w);
        }
        // Keep every vertex the input mentions, even when its only edge is a
        // dropped self loop — the graph must not silently lose vertices.
        self.builder.ensure_vertex(u);
        self.builder.ensure_vertex(v);
        self.builder.add_edge(u, v);
        Ok(())
    }

    /// Number of (possibly duplicated, possibly self-loop) edge mentions
    /// recorded so far.
    pub(crate) fn mention_count(&self) -> usize {
        self.builder.staged_edge_count() + self.builder.dropped_self_loops()
    }

    pub(crate) fn finish(self) -> Result<ParsedEdgeList> {
        let graph = self.builder.build();
        let edge_weights = match self.first_edge_line {
            Some((_, true)) => {
                let weights = graph
                    .edges()
                    .map(|e| {
                        self.weights_by_edge.get(&(e.u.0, e.v.0)).copied().ok_or_else(|| {
                            GraphError::Parse {
                                line: 0,
                                message: format!("edge {} {} has no matched weight", e.u.0, e.v.0),
                            }
                        })
                    })
                    .collect::<Result<Vec<f64>>>()?;
                Some(weights)
            }
            _ => None,
        };
        Ok(ParsedEdgeList { graph, edge_weights })
    }
}

pub(crate) fn parse_weight(raw: &str, lineno: usize) -> Result<f64> {
    let w: f64 = raw.parse().map_err(|_| GraphError::Parse {
        line: lineno,
        message: format!("invalid weight `{raw}`"),
    })?;
    if !w.is_finite() {
        return Err(GraphError::Parse {
            line: lineno,
            message: format!("non-finite weight `{raw}`"),
        });
    }
    Ok(w)
}

/// Whether a trimmed line is skippable: blank, or a `#` / `%` comment (the
/// SNAP and Matrix-Market commenting conventions).
pub(crate) fn is_comment_or_blank(trimmed: &str) -> bool {
    trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%')
}

/// Read a whitespace-separated edge list from a reader.
///
/// Lines beginning with `#` or `%` (SNAP / Matrix-Market dumps) and blank
/// lines are skipped. Each data line must contain two vertex ids and may
/// contain a third floating-point weight. The weight column is
/// all-or-nothing: mixing weighted and unweighted edge lines is a
/// [`GraphError::Parse`] (the seed behavior of silently dropping every weight
/// hid exactly the kind of lossy input this guards against), and so is a
/// non-finite weight (`nan`/`inf`), which would poison every scalar
/// computation downstream.
///
/// Duplicate edges — including reversed orientation, since edges are
/// canonicalized to `u <= v` — are deduplicated with a **last-wins** rule for
/// their weight: the weight on the last line mentioning the edge is the one
/// returned. Self loops (`u u [w]`) are dropped along with their weight; their
/// lines still count towards the all-or-nothing weight-column rule.
///
/// Takes any [`BufRead`] (a `&[u8]`, or a `File` wrapped in
/// [`std::io::BufReader`]); [`GraphSource`] hands its already-buffered input
/// straight through.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<ParsedEdgeList> {
    let mut acc = EdgeAccumulator::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if is_comment_or_blank(trimmed) {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u: u32 = parse_field(it.next(), lineno, "source vertex")?;
        let v: u32 = parse_field(it.next(), lineno, "target vertex")?;
        let weight = it.next().map(|raw| parse_weight(raw, lineno)).transpose()?;
        acc.edge(lineno, u, v, weight)?;
    }
    acc.finish()
}

pub(crate) fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<u32> {
    let raw =
        field.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    raw.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{raw}`") })
}

/// Write a graph as a plain edge list (`u v` per line, canonical order).
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# graph-terrain edge list: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    )?;
    for e in graph.edges() {
        writeln!(writer, "{} {}", e.u.0, e.v.0)?;
    }
    Ok(())
}

/// Write a graph as a weighted edge list (`u v w` per line, canonical order).
///
/// Weights are printed with Rust's shortest-round-trip `f64` formatting, so a
/// write → [`read_edge_list`] round trip reproduces every weight **exactly**
/// (bit-for-bit), not merely approximately. Non-finite weights and a weight
/// vector whose length does not match the edge count are rejected up front —
/// [`read_edge_list`] would refuse the file anyway.
pub fn write_edge_list_weighted<W: Write>(
    graph: &CsrGraph,
    weights: &[f64],
    mut writer: W,
) -> Result<()> {
    if weights.len() != graph.edge_count() {
        return Err(GraphError::LengthMismatch {
            what: "edge weights",
            expected: graph.edge_count(),
            actual: weights.len(),
        });
    }
    if let Some(index) = weights.iter().position(|w| !w.is_finite()) {
        return Err(GraphError::NonFiniteScalar {
            what: "edge weights",
            index,
            value: weights[index],
        });
    }
    writeln!(
        writer,
        "# graph-terrain weighted edge list: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    )?;
    for e in graph.edges() {
        // `{}` on f64 prints the shortest decimal that parses back to the
        // same bits — the round-trip-exactness contract of this writer.
        writeln!(writer, "{} {} {}", e.u.0, e.v.0, weights[e.id.index()])?;
    }
    Ok(())
}

/// Write a graph to a file as an edge list.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn parses_snap_style_edge_list() {
        let text = "# comment line\n% another comment\n\n0 1\n1 2\n2 0\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.vertex_count(), 3);
        assert_eq!(parsed.graph.edge_count(), 3);
        assert!(parsed.edge_weights.is_none());
    }

    #[test]
    fn comments_and_blanks_are_allowed_anywhere() {
        // SNAP dumps put `#` headers first; Matrix-Market uses `%`; both may
        // recur mid-file, with blank (or whitespace-only) separator lines.
        let text = "# SNAP header\n0 1\n\n   \n% mid-file comment\n1 2\n# trailing comment\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.vertex_count(), 3);
        assert_eq!(parsed.graph.edge_count(), 2);
        // Indented comments count as comments too.
        let parsed = read_edge_list("  # indented\n0 1\n".as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 1);
    }

    #[test]
    fn parses_weighted_edge_list() {
        let text = "0 1 0.5\n1 2 2.5\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        let weights = parsed.edge_weights.unwrap();
        assert_eq!(weights.len(), 2);
        let e = parsed.graph.find_edge(VertexId(1), VertexId(2)).unwrap();
        assert!((weights[e.index()] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_weight_columns_are_rejected() {
        // The seed code silently dropped every weight here; a half-weighted
        // file is corrupt input and must fail loudly with the offending line.
        let err = read_edge_list("0 1 0.5\n1 2\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("inconsistent weight column"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Same with the orientations flipped: weight appearing late.
        let err = read_edge_list("0 1\n1 2 0.5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        // Comments between the offending lines do not confuse the line count.
        let err = read_edge_list("0 1 0.5\n# note\n\n1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 4, .. }));
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        for bad in ["nan", "inf", "-inf"] {
            let text = format!("0 1 {bad}\n");
            let err = read_edge_list(text.as_bytes()).unwrap_err();
            match err {
                GraphError::Parse { line, message } => {
                    assert_eq!(line, 1);
                    assert!(message.contains("non-finite"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_edges_keep_the_last_weight() {
        // The same canonical edge listed three times (once reversed): the
        // weight of the *last* line wins.
        let text = "0 1 1.0\n1 0 2.0\n0 1 3.5\n1 2 9.0\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
        let weights = parsed.edge_weights.unwrap();
        let e01 = parsed.graph.find_edge(VertexId(0), VertexId(1)).unwrap();
        assert!((weights[e01.index()] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_self_loops_are_dropped_with_their_weight() {
        // The self loop vanishes (the builder drops it) and its weight with
        // it; remaining edges still get their weights, and the loop line
        // counts towards the all-or-nothing weight rule.
        let text = "2 2 5.0\n0 1 1.5\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 1);
        assert_eq!(parsed.graph.vertex_count(), 3, "loop vertex still exists");
        let weights = parsed.edge_weights.unwrap();
        assert_eq!(weights.len(), 1);
        assert!((weights[0] - 1.5).abs() < 1e-12);
        // A weighted self loop in an otherwise unweighted file is still an
        // inconsistent weight column.
        let err = read_edge_list("2 2 5.0\n0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = read_edge_list("0 1\nbogus line here\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list("5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn text_round_trip() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let parsed = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(parsed.graph, g);
    }

    #[test]
    fn weighted_write_round_trips_exact_bits() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        // Values with no short decimal representation: the shortest-repr
        // formatting must still reproduce them exactly.
        let weights = vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE];
        let mut out = Vec::new();
        write_edge_list_weighted(&g, &weights, &mut out).unwrap();
        let parsed = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(parsed.graph, g);
        let round = parsed.edge_weights.unwrap();
        for (a, b) in weights.iter().zip(&round) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped as {b}");
        }
    }

    #[test]
    fn weighted_write_rejects_bad_inputs() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let g = b.build();
        let mut out = Vec::new();
        assert!(matches!(
            write_edge_list_weighted(&g, &[1.0, 2.0], &mut out),
            Err(GraphError::LengthMismatch { .. })
        ));
        assert!(matches!(
            write_edge_list_weighted(&g, &[f64::NAN], &mut out),
            Err(GraphError::NonFiniteScalar { .. })
        ));
    }

    #[test]
    fn parsed_edge_list_writes_itself_back() {
        let parsed = read_edge_list("0 1 1.5\n1 2 -2.25\n".as_bytes()).unwrap();
        let mut out = Vec::new();
        parsed.write_edge_list(&mut out).unwrap();
        let again = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(again.graph, parsed.graph);
        assert_eq!(again.edge_weights, parsed.edge_weights);
    }
}
