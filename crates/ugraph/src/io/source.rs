//! [`GraphSource`] — the one ingest entry point over every supported format.

use super::{
    decode_binary_v3, read_csv, read_edge_list, read_json_adjacency, read_metis, GraphFormat,
    ParsedEdgeList,
};
use crate::error::Result;
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// A builder describing where a graph comes from and how to parse it.
///
/// A source pairs an input (a filesystem path or any [`Read`]er) with an
/// optional [`GraphFormat`]. [`load`](GraphSource::load) resolves the format
/// — explicit [`with_format`](GraphSource::with_format) wins, then the file
/// extension (for [`path`](GraphSource::path) sources), then content sniffing
/// ([`GraphFormat::sniff`]) — and streams the input through the matching
/// reader. Text formats are parsed line by line and never materialized whole;
/// only the binary snapshot (whose checksum trails the data) is read into
/// memory first.
///
/// ```
/// use ugraph::io::{GraphFormat, GraphSource};
///
/// // From an in-memory reader, format sniffed from the content:
/// let parsed = GraphSource::reader("0 1\n1 2\n".as_bytes()).load()?;
/// assert_eq!(parsed.graph.edge_count(), 2);
///
/// // The same bytes as CSV would need the format stated explicitly:
/// let csv = GraphSource::reader("source,target\n0,1\n".as_bytes())
///     .with_format(GraphFormat::Csv)
///     .load()?;
/// assert_eq!(csv.graph.edge_count(), 1);
/// # Ok::<(), ugraph::GraphError>(())
/// ```
pub struct GraphSource<'a> {
    input: SourceInput<'a>,
    format: Option<GraphFormat>,
    use_extension: bool,
}

enum SourceInput<'a> {
    Path(PathBuf),
    Reader(Box<dyn Read + 'a>),
}

impl fmt::Debug for GraphSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("GraphSource");
        match &self.input {
            SourceInput::Path(p) => s.field("path", p),
            SourceInput::Reader(_) => s.field("reader", &"<dyn Read>"),
        };
        s.field("format", &self.format).finish()
    }
}

impl<'a> GraphSource<'a> {
    /// A source reading from a file. The format is resolved from (in order)
    /// an explicit [`with_format`](Self::with_format), the file extension,
    /// and content sniffing.
    pub fn path(path: impl AsRef<Path>) -> Self {
        GraphSource {
            input: SourceInput::Path(path.as_ref().to_path_buf()),
            format: None,
            use_extension: true,
        }
    }

    /// A source reading from a file whose format is detected from the
    /// *content alone* ([`GraphFormat::sniff`]), ignoring the extension —
    /// for files whose extension lies or says nothing (`.dat`, no extension,
    /// a download). Note METIS cannot be sniffed; state it explicitly.
    pub fn auto(path: impl AsRef<Path>) -> Self {
        GraphSource {
            input: SourceInput::Path(path.as_ref().to_path_buf()),
            format: None,
            use_extension: false,
        }
    }

    /// A source reading from any [`Read`]er (a socket, a decompressor, an
    /// in-memory buffer). Without an explicit format the content is sniffed.
    /// The reader may borrow: `GraphSource::reader(&body[..])` parses a
    /// buffer in place, without copying it.
    pub fn reader(reader: impl Read + 'a) -> Self {
        GraphSource {
            input: SourceInput::Reader(Box::new(reader)),
            format: None,
            use_extension: false,
        }
    }

    /// Fix the format explicitly, disabling detection.
    pub fn with_format(mut self, format: GraphFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// Open, detect and parse. Parse failures carry the offending 1-based
    /// line number ([`crate::GraphError::Parse`]); unreadable inputs surface
    /// as [`crate::GraphError::Io`].
    pub fn load(self) -> Result<ParsedEdgeList> {
        let explicit = self.format;
        let use_extension = self.use_extension;
        let (reader, extension_format): (Box<dyn BufRead + 'a>, Option<GraphFormat>) =
            match self.input {
                SourceInput::Path(path) => {
                    let by_extension =
                        if use_extension { GraphFormat::from_extension(&path) } else { None };
                    let file = std::fs::File::open(&path)?;
                    (Box::new(BufReader::new(file)), by_extension)
                }
                SourceInput::Reader(reader) => (Box::new(BufReader::new(reader)), None),
            };

        match explicit.or(extension_format) {
            Some(format) => dispatch(format, reader),
            None => {
                // Sniff from an explicit probe, looping until the probe is
                // full or the input ends — a single `read` from a socket or
                // decompressor may legitimately return just a byte or two,
                // which must not decide the format. The consumed prefix is
                // chained back in front of the reader for the parser.
                let mut reader = reader;
                let mut probe = Vec::with_capacity(PROBE_LEN);
                let mut chunk = [0u8; 1024];
                while probe.len() < PROBE_LEN {
                    let n = reader.read(&mut chunk)?;
                    if n == 0 {
                        break;
                    }
                    probe.extend_from_slice(&chunk[..n]);
                }
                let format = GraphFormat::sniff(&probe);
                dispatch(format, std::io::Cursor::new(probe).chain(reader))
            }
        }
    }
}

/// How many leading bytes content sniffing may look at — far more than any
/// sniff rule needs, but enough that the first data line is in view even
/// behind a long comment header.
const PROBE_LEN: usize = 8 * 1024;

/// Hand an already-buffered input to the reader for `format`. Only the
/// binary snapshot (whose checksum trails the data) is slurped into memory;
/// every text dialect streams line by line.
fn dispatch<R: BufRead>(format: GraphFormat, mut reader: R) -> Result<ParsedEdgeList> {
    match format {
        GraphFormat::EdgeList => read_edge_list(reader),
        GraphFormat::Csv => read_csv(reader),
        GraphFormat::Metis => read_metis(reader),
        GraphFormat::JsonAdjacency => read_json_adjacency(reader),
        GraphFormat::Binary => {
            let mut bytes = Vec::new();
            reader.read_to_end(&mut bytes)?;
            decode_binary_v3(&bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::encode_binary_v3;
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::error::GraphError;

    fn triangle() -> crate::csr::CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (0, 2)]);
        b.build()
    }

    fn temp_file(name: &str, contents: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("ugraph_source_{}_{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn reader_sniffs_each_text_format() {
        let el = GraphSource::reader("0 1\n1 2\n0 2\n".as_bytes()).load().unwrap();
        assert_eq!(el.graph, triangle());
        let csv = GraphSource::reader("source,target\n0,1\n1,2\n0,2\n".as_bytes()).load().unwrap();
        assert_eq!(csv.graph, triangle());
        let json = GraphSource::reader(
            "{\"id\": 0, \"adj\": [1, 2]}\n{\"id\": 1, \"adj\": [2]}\n".as_bytes(),
        )
        .load()
        .unwrap();
        assert_eq!(json.graph, triangle());
    }

    #[test]
    fn reader_sniffs_binary_snapshots() {
        let g = triangle();
        let v3 = encode_binary_v3(&g, None).unwrap();
        assert_eq!(GraphSource::reader(std::io::Cursor::new(v3)).load().unwrap().graph, g);
    }

    #[test]
    fn path_prefers_extension_then_sniffs() {
        // A CSV body under a .csv name parses as CSV...
        let path = temp_file("by_ext.csv", b"source,target\n0,1\n1,2\n0,2\n");
        assert_eq!(GraphSource::path(&path).load().unwrap().graph, triangle());
        // ...while an unknown extension falls back to sniffing the content.
        let path = temp_file("unknown.dat", b"source,target\n0,1\n1,2\n0,2\n");
        assert_eq!(GraphSource::path(&path).load().unwrap().graph, triangle());
        // `auto` ignores a lying extension entirely.
        let path = temp_file("lies.csv", b"0 1\n1 2\n0 2\n");
        assert_eq!(GraphSource::auto(&path).load().unwrap().graph, triangle());
    }

    #[test]
    fn explicit_format_wins_over_everything() {
        // Metis content under a .txt name: only the explicit format saves it.
        let path = temp_file("explicit.txt", b"3 3\n2 3\n1 3\n1 2\n");
        let parsed = GraphSource::path(&path).with_format(GraphFormat::Metis).load().unwrap();
        assert_eq!(parsed.graph, triangle());
    }

    #[test]
    fn sniffing_survives_readers_that_return_short_chunks() {
        // Sockets and decompressors may return one byte per read; the probe
        // must keep reading until it has enough to decide, not judge the
        // first chunk alone (2 bytes of "GT" would sniff as an edge list).
        struct OneByteReader {
            data: Vec<u8>,
            pos: usize,
        }
        impl std::io::Read for OneByteReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let g = triangle();
        let blob = encode_binary_v3(&g, None).unwrap();
        let parsed = GraphSource::reader(OneByteReader { data: blob, pos: 0 }).load().unwrap();
        assert_eq!(parsed.graph, g);
        // Same for a text dialect: the whole prefix is probed, not one byte.
        let text = b"# header\nsource,target\n0,1\n1,2\n0,2\n".to_vec();
        let parsed = GraphSource::reader(OneByteReader { data: text, pos: 0 }).load().unwrap();
        assert_eq!(parsed.graph, g);
    }

    #[test]
    fn missing_files_surface_as_io_errors() {
        let err = GraphSource::path("/definitely/not/a/file.txt").load().unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }
}
