//! Ingest formats: the [`GraphFormat`] enum, format detection, and the
//! streaming CSV / METIS / JSON adjacency readers.
//!
//! Every reader is line-oriented — input is consumed through [`BufRead`] one
//! line at a time, never materialized whole — and reports malformed input as
//! [`GraphError::Parse`] with the 1-based line number. The weight rules are
//! shared with [`read_edge_list`](super::read_edge_list) through
//! [`EdgeAccumulator`](super::EdgeAccumulator): all-or-nothing weight
//! columns, finite weights only, last-wins duplicates, dropped self loops.

use super::{is_comment_or_blank, parse_field, parse_weight, EdgeAccumulator, ParsedEdgeList};
use crate::error::{GraphError, Result};
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// The ingest formats [`GraphSource`](super::GraphSource) understands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GraphFormat {
    /// Whitespace-separated `u v [w]` lines (SNAP-style edge lists).
    EdgeList,
    /// Comma-separated `u,v[,w]` rows under a mandatory header row.
    Csv,
    /// METIS adjacency: an `n m [fmt]` header, then one neighbor line per
    /// vertex (1-based ids; `fmt` ending in `1` adds per-edge weights).
    Metis,
    /// JSON adjacency: one `{"id": u, "adj": [..]}` object per line
    /// (optionally with a parallel `"w": [..]` weight array), with pure
    /// `[` / `]` / `,` framing lines ignored so a pretty-printed JSON array
    /// of records parses too.
    JsonAdjacency,
    /// Binary snapshot v3 ([`encode_binary_v3`](super::encode_binary_v3)).
    Binary,
}

impl GraphFormat {
    /// All formats, in the order of the format matrix in ARCHITECTURE.md.
    /// Returns a slice so adding a format never changes the signature
    /// callers (error messages, CLI help, smoke tests) are built against.
    pub fn all() -> &'static [GraphFormat] {
        &[
            GraphFormat::EdgeList,
            GraphFormat::Csv,
            GraphFormat::Metis,
            GraphFormat::JsonAdjacency,
            GraphFormat::Binary,
        ]
    }

    /// Canonical lowercase name (what `--input-format` flags accept).
    pub fn name(&self) -> &'static str {
        match self {
            GraphFormat::EdgeList => "edgelist",
            GraphFormat::Csv => "csv",
            GraphFormat::Metis => "metis",
            GraphFormat::JsonAdjacency => "json",
            GraphFormat::Binary => "binary",
        }
    }

    /// Parse a format name (as accepted by `--input-format` flags).
    /// Recognizes the canonical names plus common aliases.
    pub fn from_name(name: &str) -> Option<GraphFormat> {
        match name.to_ascii_lowercase().as_str() {
            "edgelist" | "edge-list" | "el" | "txt" | "snap" => Some(GraphFormat::EdgeList),
            "csv" => Some(GraphFormat::Csv),
            "metis" | "graph" => Some(GraphFormat::Metis),
            "json" | "jsonl" | "json-adjacency" => Some(GraphFormat::JsonAdjacency),
            "binary" | "bin" | "gtsb" => Some(GraphFormat::Binary),
            _ => None,
        }
    }

    /// Infer a format from a file extension, if the extension is telling.
    pub fn from_extension(path: &Path) -> Option<GraphFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "txt" | "edges" | "el" | "tsv" | "snap" => Some(GraphFormat::EdgeList),
            "csv" => Some(GraphFormat::Csv),
            "metis" | "graph" => Some(GraphFormat::Metis),
            "json" | "jsonl" => Some(GraphFormat::JsonAdjacency),
            "bin" | "gtsb" => Some(GraphFormat::Binary),
            _ => None,
        }
    }

    /// Sniff a format from the first bytes of the input.
    ///
    /// The rules, in order: the snapshot magic (or any non-UTF-8 / NUL byte) means
    /// [`Binary`](GraphFormat::Binary); a first non-whitespace `{` or `[`
    /// means [`JsonAdjacency`](GraphFormat::JsonAdjacency); a comma in the
    /// first data line means [`Csv`](GraphFormat::Csv); everything else is an
    /// [`EdgeList`](GraphFormat::EdgeList). METIS is **not** sniffable — its
    /// `n m` header is indistinguishable from an edge-list line — so it must
    /// be chosen by extension (`.graph` / `.metis`) or explicitly.
    pub fn sniff(prefix: &[u8]) -> GraphFormat {
        if prefix.starts_with(super::BINARY_MAGIC) {
            return GraphFormat::Binary;
        }
        // Text formats are ASCII-ish line protocols; embedded NULs or invalid
        // UTF-8 in the probe window mean a binary payload.
        let text = match std::str::from_utf8(prefix) {
            Ok(text) => text,
            // A multi-byte code point cut at the window edge is still text.
            Err(e) if e.error_len().is_none() => {
                std::str::from_utf8(&prefix[..e.valid_up_to()]).expect("validated prefix")
            }
            Err(_) => return GraphFormat::Binary,
        };
        if text.bytes().any(|b| b == 0) {
            return GraphFormat::Binary;
        }
        match text.trim_start().bytes().next() {
            Some(b'{') | Some(b'[') => GraphFormat::JsonAdjacency,
            _ => {
                let first_data_line =
                    text.lines().map(str::trim).find(|line| !is_comment_or_blank(line));
                match first_data_line {
                    Some(line) if line.contains(',') => GraphFormat::Csv,
                    _ => GraphFormat::EdgeList,
                }
            }
        }
    }
}

impl fmt::Display for GraphFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse { line, message: message.into() }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Read a CSV edge list with a mandatory header row.
///
/// The header must have two (`source,target`) or three
/// (`source,target,weight`) columns — names are free-form, the *arity*
/// decides whether the file is weighted, so a weighted header with missing
/// weights (or vice versa) fails on the offending row. Blank lines and `#` /
/// `%` comments are skipped; fields are trimmed, so `0, 1, 2.5` parses.
/// A numeric first row is rejected loudly: it means the header is missing.
pub fn read_csv<R: BufRead>(reader: R) -> Result<ParsedEdgeList> {
    let mut acc = EdgeAccumulator::new();
    let mut columns: Option<usize> = None;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if is_comment_or_blank(trimmed) {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        match columns {
            None => {
                if !(2..=3).contains(&fields.len()) {
                    return Err(parse_err(
                        lineno,
                        format!("CSV header must have 2 or 3 columns, found {}", fields.len()),
                    ));
                }
                if fields[0].parse::<f64>().is_ok() {
                    return Err(parse_err(
                        lineno,
                        "CSV input must start with a header row (first row is numeric)",
                    ));
                }
                columns = Some(fields.len());
            }
            Some(arity) => {
                if fields.len() != arity {
                    return Err(parse_err(
                        lineno,
                        format!("expected {arity} comma-separated fields, found {}", fields.len()),
                    ));
                }
                let u = parse_field(Some(fields[0]), lineno, "source vertex")?;
                let v = parse_field(Some(fields[1]), lineno, "target vertex")?;
                let weight = fields.get(2).map(|raw| parse_weight(raw, lineno)).transpose()?;
                acc.edge(lineno, u, v, weight)?;
            }
        }
    }
    if columns.is_none() {
        return Err(parse_err(0, "CSV input has no header row"));
    }
    acc.finish()
}

// ---------------------------------------------------------------------------
// METIS
// ---------------------------------------------------------------------------

/// Read a METIS adjacency file.
///
/// The header line is `n m` or `n m fmt`: `n` vertices, `m` undirected edges,
/// and an optional format code whose **last** digit set to `1` announces
/// per-edge weights (neighbor lines then hold `neighbor weight` pairs).
/// Vertex weights/sizes (any other non-zero `fmt` digit) are not supported
/// and rejected. After the header come exactly `n` data lines; the `i`-th
/// lists the (1-based) neighbors of vertex `i` — a *blank* line is a vertex
/// with no neighbors, so only `%` / `#` comment lines are skipped. Every edge
/// appears in both endpoints' lines, which is validated against `2·m` total
/// mentions; the ids are shifted down so the parsed graph is 0-based like
/// every other reader.
pub fn read_metis<R: BufRead>(reader: R) -> Result<ParsedEdgeList> {
    let mut acc = EdgeAccumulator::new();
    let mut header: Option<(usize, bool)> = None; // (n, edge_weighted)
    let mut declared_edges = 0usize;
    let mut vertex = 0usize;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        // METIS comments are `%`; accept `#` too for symmetry with the rest
        // of the boundary. A comment line does NOT count as a vertex line —
        // but an empty line after the header does (an isolated vertex).
        if trimmed.starts_with('%') || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let Some((n, weighted)) = header else {
            if trimmed.is_empty() {
                continue;
            }
            if !(2..=4).contains(&tokens.len()) {
                return Err(parse_err(
                    lineno,
                    format!("METIS header must be `n m [fmt]`, found {} fields", tokens.len()),
                ));
            }
            let n: usize = tokens[0].parse().map_err(|_| {
                parse_err(lineno, format!("invalid METIS vertex count `{}`", tokens[0]))
            })?;
            let m: usize = tokens[1].parse().map_err(|_| {
                parse_err(lineno, format!("invalid METIS edge count `{}`", tokens[1]))
            })?;
            let weighted = match tokens.get(2) {
                None => false,
                Some(fmt) => {
                    if fmt.is_empty() || fmt.bytes().any(|b| !b.is_ascii_digit()) {
                        return Err(parse_err(
                            lineno,
                            format!("invalid METIS format code `{fmt}`"),
                        ));
                    }
                    // fmt digits, right to left: edge weights, vertex
                    // weights, vertex sizes. Only edge weights are supported.
                    if fmt.bytes().rev().skip(1).any(|b| b != b'0') {
                        return Err(parse_err(
                            lineno,
                            format!(
                                "METIS format code `{fmt}` requests vertex weights/sizes, \
                                 which this reader does not support"
                            ),
                        ));
                    }
                    fmt.bytes().last() == Some(b'1')
                }
            };
            if n > 0 {
                acc.ensure_vertex((n - 1) as u32);
            }
            declared_edges = m;
            header = Some((n, weighted));
            continue;
        };

        vertex += 1;
        if vertex > n {
            return Err(parse_err(
                lineno,
                format!("more than the {n} vertex lines declared by the header"),
            ));
        }
        let u = (vertex - 1) as u32;
        let step = if weighted { 2 } else { 1 };
        if weighted && tokens.len() % 2 != 0 {
            return Err(parse_err(
                lineno,
                "edge-weighted METIS line must hold `neighbor weight` pairs",
            ));
        }
        for pair in tokens.chunks(step) {
            let neighbor: usize = pair[0].parse().map_err(|_| {
                parse_err(lineno, format!("invalid METIS neighbor id `{}`", pair[0]))
            })?;
            if neighbor < 1 || neighbor > n {
                return Err(parse_err(
                    lineno,
                    format!("METIS neighbor id {neighbor} out of range 1..={n}"),
                ));
            }
            let v = (neighbor - 1) as u32;
            let weight = pair.get(1).map(|raw| parse_weight(raw, lineno)).transpose()?;
            acc.edge(lineno, u, v, weight)?;
        }
    }

    let Some((n, _)) = header else {
        return Err(parse_err(0, "METIS input has no header line"));
    };
    if vertex != n {
        return Err(parse_err(
            0,
            format!("METIS header declares {n} vertices but the file has {vertex} vertex lines"),
        ));
    }
    if acc.mention_count() != 2 * declared_edges {
        return Err(parse_err(
            0,
            format!(
                "METIS header declares {declared_edges} edges ({} adjacency mentions) but the \
                 file holds {}",
                2 * declared_edges,
                acc.mention_count()
            ),
        ));
    }
    acc.finish()
}

// ---------------------------------------------------------------------------
// JSON adjacency
// ---------------------------------------------------------------------------

/// Read a line-oriented JSON adjacency file.
///
/// Each data line is one vertex record `{"id": u, "adj": [v, ...]}`, with an
/// optional `"w": [weight, ...]` array parallel to `"adj"`. Lines holding
/// only `[`, `]` or `,` are framing and skipped, and a trailing comma after a
/// record is tolerated — so both JSON-lines dumps and a pretty-printed JSON
/// array with one record per line parse. The first record decides whether the
/// file is weighted; later records must agree. A record with an empty `"adj"`
/// still reserves its vertex.
pub fn read_json_adjacency<R: BufRead>(reader: R) -> Result<ParsedEdgeList> {
    let mut acc = EdgeAccumulator::new();
    let mut saw_record = false;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if is_comment_or_blank(trimmed) || matches!(trimmed, "[" | "]" | ",") {
            continue;
        }
        let record = trimmed.strip_suffix(',').unwrap_or(trimmed).trim();
        let (id, adj, weights) = parse_json_record(record, lineno)?;
        saw_record = true;
        acc.ensure_vertex(id);
        if let Some(w) = &weights {
            if w.len() != adj.len() {
                return Err(parse_err(
                    lineno,
                    format!("`w` has {} entries for {} neighbors", w.len(), adj.len()),
                ));
            }
        }
        for (i, &v) in adj.iter().enumerate() {
            acc.edge(lineno, id, v, weights.as_ref().map(|w| w[i]))?;
        }
    }
    if !saw_record {
        return Err(parse_err(0, "JSON adjacency input has no vertex records"));
    }
    acc.finish()
}

/// Parse one `{"id": .., "adj": [..], "w": [..]}` record. A deliberately
/// small hand-rolled scanner — the dialect is a fixed three-key object, and
/// keeping it dependency-free preserves line-precise error reporting.
fn parse_json_record(record: &str, lineno: usize) -> Result<(u32, Vec<u32>, Option<Vec<f64>>)> {
    let inner = record
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| parse_err(lineno, format!("expected a JSON object, found `{record}`")))?;

    let mut id: Option<u32> = None;
    let mut adj: Option<Vec<u32>> = None;
    let mut weights: Option<Vec<f64>> = None;

    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key.
        let (key, after_key) = take_json_string(rest, lineno)?;
        rest = after_key.trim_start();
        rest = rest
            .strip_prefix(':')
            .ok_or_else(|| parse_err(lineno, format!("missing `:` after key \"{key}\"")))?
            .trim_start();
        // Value: a bare number for "id", an array for "adj" / "w".
        match key {
            "id" => {
                let end = rest.find([',', ' ', '\t']).unwrap_or(rest.len());
                let raw = &rest[..end];
                id = Some(raw.parse().map_err(|_| {
                    parse_err(lineno, format!("invalid vertex id `{raw}` in \"id\""))
                })?);
                rest = &rest[end..];
            }
            "adj" => {
                let (items, after) = take_json_array(rest, lineno)?;
                adj = Some(
                    items
                        .iter()
                        .map(|raw| {
                            raw.parse().map_err(|_| {
                                parse_err(lineno, format!("invalid neighbor id `{raw}` in \"adj\""))
                            })
                        })
                        .collect::<Result<Vec<u32>>>()?,
                );
                rest = after;
            }
            "w" => {
                let (items, after) = take_json_array(rest, lineno)?;
                weights = Some(
                    items
                        .iter()
                        .map(|raw| parse_weight(raw, lineno))
                        .collect::<Result<Vec<f64>>>()?,
                );
                rest = after;
            }
            other => {
                return Err(parse_err(
                    lineno,
                    format!("unknown key \"{other}\" (expected \"id\", \"adj\" or \"w\")"),
                ));
            }
        }
        rest = rest.trim_start();
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma.trim_start();
        } else if !rest.is_empty() {
            return Err(parse_err(lineno, format!("unexpected trailing content `{rest}`")));
        }
    }

    let id = id.ok_or_else(|| parse_err(lineno, "record is missing \"id\""))?;
    let adj = adj.ok_or_else(|| parse_err(lineno, "record is missing \"adj\""))?;
    Ok((id, adj, weights))
}

/// Consume a leading `"..."` string; returns (contents, rest).
fn take_json_string(input: &str, lineno: usize) -> Result<(&str, &str)> {
    let rest = input
        .strip_prefix('"')
        .ok_or_else(|| parse_err(lineno, format!("expected a quoted key at `{input}`")))?;
    let end = rest
        .find('"')
        .ok_or_else(|| parse_err(lineno, format!("unterminated string at `{input}`")))?;
    Ok((&rest[..end], &rest[end + 1..]))
}

/// Consume a leading `[..]` array of comma-separated scalar tokens; returns
/// (tokens, rest).
fn take_json_array(input: &str, lineno: usize) -> Result<(Vec<&str>, &str)> {
    let rest = input
        .strip_prefix('[')
        .ok_or_else(|| parse_err(lineno, format!("expected an array at `{input}`")))?;
    let end = rest
        .find(']')
        .ok_or_else(|| parse_err(lineno, format!("unterminated array at `{input}`")))?;
    let body = &rest[..end];
    let items = body.split(',').map(str::trim).filter(|t| !t.is_empty()).collect::<Vec<&str>>();
    Ok((items, &rest[end + 1..]))
}

#[cfg(test)]
mod tests {
    use super::super::read_edge_list;
    use super::*;
    use crate::ids::VertexId;

    /// The reference graph every format fixture below encodes: a triangle
    /// `0-1-2` plus the pendant edge `2-3` and the isolated vertex `4`.
    fn reference() -> crate::csr::CsrGraph {
        read_edge_list("0 1\n1 2\n0 2\n2 3\n4 4\n".as_bytes()).unwrap().graph
    }

    #[test]
    fn csv_parses_the_reference_graph() {
        let csv = "# exported from somewhere\nsource,target\n0,1\n1,2\n0,2\n2,3\n4,4\n";
        let parsed = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(parsed.graph, reference());
        assert!(parsed.edge_weights.is_none());
    }

    #[test]
    fn csv_weighted_and_trimmed_fields() {
        let csv = "src, dst, weight\n0, 1, 0.5\n1, 2, 2.5\n";
        let parsed = read_csv(csv.as_bytes()).unwrap();
        let weights = parsed.edge_weights.unwrap();
        let e = parsed.graph.find_edge(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(weights[e.index()], 2.5);
    }

    #[test]
    fn csv_rejects_missing_header_wrong_arity_and_bad_rows() {
        let err = read_csv("0,1\n1,2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        let err = read_csv("source,target\n0,1,9.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = read_csv("source,target\n0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = read_csv("source,target\nx,1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("source vertex"), "{err}");
        assert!(read_csv("".as_bytes()).is_err(), "empty CSV has no header");
    }

    #[test]
    fn metis_parses_the_reference_graph() {
        // 5 vertices, 4 edges; vertex 5 (id 4) is isolated. Ids are 1-based.
        let metis = "% reference graph\n5 4\n2 3\n1 3\n1 2 4\n3\n\n";
        let parsed = read_metis(metis.as_bytes()).unwrap();
        assert_eq!(parsed.graph, reference());
    }

    #[test]
    fn metis_edge_weights() {
        // fmt 001 = edge weights; line i holds `neighbor weight` pairs.
        let metis = "3 2 001\n2 1.5 3 9.0\n1 1.5\n1 9.0\n";
        let parsed = read_metis(metis.as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
        let weights = parsed.edge_weights.unwrap();
        let e = parsed.graph.find_edge(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(weights[e.index()], 9.0);
    }

    #[test]
    fn metis_rejects_structural_corruption() {
        // Neighbor out of range.
        let err = read_metis("2 1\n3\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Too few vertex lines.
        let err = read_metis("3 1\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("vertex lines"), "{err}");
        // Too many vertex lines.
        let err = read_metis("1 0\n\n2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }), "{err}");
        // Declared edge count does not match the adjacency mentions.
        let err = read_metis("2 5\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declares 5 edges"), "{err}");
        // Vertex weights are unsupported.
        let err = read_metis("2 1 011\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not support"), "{err}");
        // No header at all.
        assert!(read_metis("% only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn metis_empty_neighbor_lines_are_isolated_vertices() {
        // A blank line would be skipped as a separator, so isolated METIS
        // vertices need the header count to reserve them — which it does.
        let parsed = read_metis("3 1\n2\n1\n\n".as_bytes()).unwrap();
        assert_eq!(parsed.graph.vertex_count(), 3);
        assert_eq!(parsed.graph.edge_count(), 1);
    }

    #[test]
    fn json_parses_the_reference_graph() {
        let json = r#"[
  {"id": 0, "adj": [1, 2]},
  {"id": 1, "adj": [0, 2]},
  {"id": 2, "adj": [0, 1, 3]},
  {"id": 3, "adj": [2]},
  {"id": 4, "adj": []}
]"#;
        let parsed = read_json_adjacency(json.as_bytes()).unwrap();
        assert_eq!(parsed.graph, reference());
    }

    #[test]
    fn json_lines_with_weights() {
        let json = "{\"id\": 0, \"adj\": [1, 2], \"w\": [0.5, 1.25]}\n\
                    {\"id\": 1, \"adj\": [0], \"w\": [0.5]}\n\
                    {\"id\": 2, \"adj\": [0], \"w\": [1.25]}\n";
        let parsed = read_json_adjacency(json.as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
        let weights = parsed.edge_weights.unwrap();
        let e = parsed.graph.find_edge(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(weights[e.index()], 1.25);
    }

    #[test]
    fn json_rejects_malformed_records_with_line_numbers() {
        let err = read_json_adjacency("{\"id\": 0}\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing \"adj\""), "{err}");
        let err = read_json_adjacency("{\"adj\": [1]}\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing \"id\""), "{err}");
        let err = read_json_adjacency("not json\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        let err = read_json_adjacency(
            "{\"id\": 0, \"adj\": [1]}\n{\"id\": 1, \"adjx\": [0]}\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = read_json_adjacency("{\"id\": 0, \"adj\": [1, 2], \"w\": [0.5]}\n".as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("1 entries for 2 neighbors"), "{err}");
        assert!(read_json_adjacency("[\n]\n".as_bytes()).is_err(), "no records");
    }

    #[test]
    fn format_names_round_trip() {
        for &format in GraphFormat::all() {
            assert_eq!(GraphFormat::from_name(format.name()), Some(format));
            assert_eq!(format.to_string(), format.name());
        }
        assert_eq!(GraphFormat::from_name("JSONL"), Some(GraphFormat::JsonAdjacency));
        assert_eq!(GraphFormat::from_name("nope"), None);
    }

    #[test]
    fn extension_detection() {
        let cases = [
            ("graph.txt", Some(GraphFormat::EdgeList)),
            ("graph.csv", Some(GraphFormat::Csv)),
            ("graph.metis", Some(GraphFormat::Metis)),
            ("graph.graph", Some(GraphFormat::Metis)),
            ("graph.jsonl", Some(GraphFormat::JsonAdjacency)),
            ("graph.gtsb", Some(GraphFormat::Binary)),
            ("graph.dat", None),
            ("graph", None),
        ];
        for (name, expected) in cases {
            assert_eq!(GraphFormat::from_extension(Path::new(name)), expected, "{name}");
        }
    }

    #[test]
    fn content_sniffing() {
        assert_eq!(GraphFormat::sniff(b"GTSB\x02\x00\x00\x00"), GraphFormat::Binary);
        assert_eq!(GraphFormat::sniff(&[5, 0, 0, 0, 3, 0, 0, 0]), GraphFormat::Binary);
        assert_eq!(GraphFormat::sniff(b"  {\"id\": 0, \"adj\": []}"), GraphFormat::JsonAdjacency);
        assert_eq!(GraphFormat::sniff(b"[\n{\"id\": 0"), GraphFormat::JsonAdjacency);
        assert_eq!(GraphFormat::sniff(b"# comment\nsource,target\n0,1\n"), GraphFormat::Csv);
        assert_eq!(GraphFormat::sniff(b"# comment\n0 1\n1 2\n"), GraphFormat::EdgeList);
        assert_eq!(GraphFormat::sniff(b""), GraphFormat::EdgeList);
    }
}
