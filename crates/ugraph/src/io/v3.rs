//! Binary snapshot **v3**: the one binary graph format.
//!
//! v3 serializes the **CSR arrays themselves**, laid out so a memory-mapped
//! file can back a [`crate::GraphStorage`] directly — no parse, no sort, no
//! allocation proportional to the graph:
//!
//! ```text
//! offset 0   "GTSB"                                  magic
//! offset 4   version: u32 = 3
//! offset 8   sections, each 8-byte aligned:
//!              { tag: u32, reserved: u32 = 0, len: u64 }   16-byte header
//!              payload[len], zero-padded to a multiple of 8
//! tail       checksum: u64 (two-level chunked word fold, see below)
//! ```
//!
//! The trailing checksum covers every preceding byte through a two-level
//! FNV-style word fold: the file body is cut into fixed 1 MiB chunks (the
//! final chunk may be short), each chunk is digested by folding its 8-byte
//! little-endian words (and finally its length) into an FNV-1a64-style
//! chain, and the stored checksum is the same fold over the per-chunk
//! digests. A plain byte-wise single-pass FNV is an inherently serial
//! multiply-per-byte chain (~0.7 GB/s); word folding costs one multiply per
//! 8 bytes, and the chunked form verifies several independent chains at once
//! — interleaved in one core's pipeline and spread across threads — so
//! open-time integrity checking runs at memory bandwidth instead of gating
//! the whole zero-copy design. The exact definition lives in the private
//! `checksum` module.
//!
//! All integers are little-endian. Sections (unknown tags are skipped for
//! forward compatibility):
//!
//! | tag | name      | payload                                      |
//! |-----|-----------|----------------------------------------------|
//! | 1   | header    | `vertex_count: u64`, `edge_count: u64`       |
//! | 2   | offsets   | `(V + 1) × u64` — CSR prefix sums            |
//! | 3   | targets   | `2E × u32` — neighbor vertex per half-edge   |
//! | 4   | edge ids  | `2E × u32` — edge id per half-edge           |
//! | 5   | endpoints | `E × [u32; 2]` — canonical `(u < v)` pairs   |
//! | 6   | weights   | `E × f64` — optional per-edge weights        |
//!
//! Because the first section starts at offset 8 and every header is 16 bytes
//! with payloads padded to 8, **every payload begins on an 8-byte boundary**
//! of the file. Combined with the ≥8-byte-aligned buffers of
//! [`MappedBytes`], each array can be reinterpreted in place on little-endian
//! 64-bit targets (the `#[repr(transparent)]` ids make `&[u32]` ↔
//! `&[VertexId]` free). Elsewhere, [`MappedCsrGraph`] transparently decodes
//! to owned arrays instead — same trait, same results, only residency
//! differs.
//!
//! Both openers check a snapshot in the same order before any accessor can
//! see it: the framing (magic, version, section headers, the counts in the
//! header section), then the trailing checksum, then the linear CSR checks
//! every storage shares (monotone offsets, sorted in-bounds neighbor blocks,
//! in-bounds edge ids, canonical in-bounds endpoints; see
//! [`crate::GraphStorage::check_invariants`]), then finite weights. So no
//! later access can panic — let alone hit undefined behavior — on a corrupt
//! file. [`MappedCsrGraph::open`] runs the linear checks over the mapped
//! arrays in place and defers the random-access cross-link between
//! half-edges and endpoint pairs to
//! [`crate::GraphStorage::check_invariants`]; the owned decoder
//! ([`decode_binary_v3`]) copies the arrays and runs that whole check.

use super::checksum::{chunked_checksum, ChunkedFnv};
use super::mmap::MappedBytes;
use super::ParsedEdgeList;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, VertexId};
use crate::par::{self, map_reduce_chunks, Parallelism};
use crate::storage::{check_linear_invariants, GraphStorage};
use std::io::Write;
use std::ops::Range;
use std::path::Path;

/// Magic bytes opening every binary snapshot ("Graph Terrain Snapshot
/// Binary").
pub const BINARY_MAGIC: &[u8; 4] = b"GTSB";

/// Version stamp of the zero-copy snapshot generation, the only one this
/// reader accepts.
pub const BINARY_V3_VERSION: u32 = 3;

const SECTION_HEADER: u32 = 1;
const SECTION_OFFSETS: u32 = 2;
const SECTION_TARGETS: u32 = 3;
const SECTION_EDGE_IDS: u32 = 4;
const SECTION_ENDPOINTS: u32 = 5;
const SECTION_WEIGHTS: u32 = 6;

/// Reinterpretation is only sound where the in-memory layout matches the
/// file layout: little-endian integers and 8-byte `usize`.
const ZERO_COPY_SUPPORTED: bool = cfg!(all(target_endian = "little", target_pointer_width = "64"));

/// Every snapshot defect — truncation, a wrong magic or version, a flipped
/// bit, a broken structure — is a [`GraphError::Parse`], never a panic.
fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::Parse { line: 0, message: message.into() }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Incremental writer that keeps the running two-level checksum of everything
/// written, so the trailing checksum never needs a second pass (or the whole
/// snapshot in memory).
struct ChecksumWriter<W: Write> {
    inner: W,
    fnv: ChunkedFnv,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter { inner, fnv: ChunkedFnv::new() }
    }

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.fnv.update(bytes);
        self.inner.write_all(bytes).map_err(GraphError::Io)
    }

    fn finish(mut self) -> Result<()> {
        let checksum = self.fnv.finish();
        self.inner.write_all(&checksum.to_le_bytes()).map_err(GraphError::Io)?;
        self.inner.flush().map_err(GraphError::Io)
    }
}

fn validate_weights<G: GraphStorage + ?Sized>(graph: &G, weights: &[f64]) -> Result<()> {
    if weights.len() != graph.edge_count() {
        return Err(GraphError::LengthMismatch {
            what: "edge weights",
            expected: graph.edge_count(),
            actual: weights.len(),
        });
    }
    let parallelism = par::for_scan(std::mem::size_of_val(weights), Parallelism::auto);
    let check = |range: Range<usize>| match weights[range.clone()]
        .iter()
        .position(|w| !w.is_finite())
    {
        Some(i) => {
            let index = range.start + i;
            Err(GraphError::NonFiniteScalar { what: "edge weights", index, value: weights[index] })
        }
        None => Ok(()),
    };
    map_reduce_chunks(parallelism, weights.len(), check, Result::and).unwrap_or(Ok(()))
}

fn write_section<W: Write>(
    out: &mut ChecksumWriter<W>,
    tag: u32,
    len: usize,
    mut payload: impl FnMut(&mut ChecksumWriter<W>) -> Result<()>,
) -> Result<()> {
    out.write(&tag.to_le_bytes())?;
    out.write(&0u32.to_le_bytes())?;
    out.write(&(len as u64).to_le_bytes())?;
    payload(out)?;
    let pad = len.next_multiple_of(8) - len;
    out.write(&[0u8; 7][..pad])
}

/// Stream a v3 snapshot of `graph` (plus optional per-edge weights) into
/// `writer`. [`encode_binary_v3`] is the in-memory convenience wrapper.
pub fn write_binary_v3<G: GraphStorage + ?Sized, W: Write>(
    graph: &G,
    weights: Option<&[f64]>,
    writer: W,
) -> Result<()> {
    if let Some(weights) = weights {
        validate_weights(graph, weights)?;
    }
    let mut out = ChecksumWriter::new(writer);
    out.write(BINARY_MAGIC)?;
    out.write(&BINARY_V3_VERSION.to_le_bytes())?;

    write_section(&mut out, SECTION_HEADER, 16, |out| {
        out.write(&(graph.vertex_count() as u64).to_le_bytes())?;
        out.write(&(graph.edge_count() as u64).to_le_bytes())
    })?;

    let offsets = graph.offsets();
    write_section(&mut out, SECTION_OFFSETS, offsets.len() * 8, |out| {
        // Chunked re-encoding keeps the writer portable (usize width,
        // endianness) without building one giant contiguous buffer.
        for chunk in offsets.chunks(8_192) {
            let mut buf = Vec::with_capacity(chunk.len() * 8);
            for &o in chunk {
                buf.extend_from_slice(&(o as u64).to_le_bytes());
            }
            out.write(&buf)?;
        }
        Ok(())
    })?;

    let targets = graph.targets();
    write_section(&mut out, SECTION_TARGETS, targets.len() * 4, |out| {
        for chunk in targets.chunks(16_384) {
            let mut buf = Vec::with_capacity(chunk.len() * 4);
            for &t in chunk {
                buf.extend_from_slice(&t.0.to_le_bytes());
            }
            out.write(&buf)?;
        }
        Ok(())
    })?;

    let edge_ids = graph.edge_ids();
    write_section(&mut out, SECTION_EDGE_IDS, edge_ids.len() * 4, |out| {
        for chunk in edge_ids.chunks(16_384) {
            let mut buf = Vec::with_capacity(chunk.len() * 4);
            for &e in chunk {
                buf.extend_from_slice(&e.0.to_le_bytes());
            }
            out.write(&buf)?;
        }
        Ok(())
    })?;

    let endpoints = graph.endpoint_pairs();
    write_section(&mut out, SECTION_ENDPOINTS, endpoints.len() * 8, |out| {
        for chunk in endpoints.chunks(8_192) {
            let mut buf = Vec::with_capacity(chunk.len() * 8);
            for &[u, v] in chunk {
                buf.extend_from_slice(&u.to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
            out.write(&buf)?;
        }
        Ok(())
    })?;

    if let Some(weights) = weights {
        write_section(&mut out, SECTION_WEIGHTS, weights.len() * 8, |out| {
            for chunk in weights.chunks(8_192) {
                let mut buf = Vec::with_capacity(chunk.len() * 8);
                for &w in chunk {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
                out.write(&buf)?;
            }
            Ok(())
        })?;
    }

    out.finish()
}

/// Encode a v3 snapshot into a byte vector. See the module docs for the
/// layout; [`write_binary_v3_file`] streams straight to disk instead.
pub fn encode_binary_v3<G: GraphStorage + ?Sized>(
    graph: &G,
    weights: Option<&[f64]>,
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_binary_v3(graph, weights, &mut out)?;
    Ok(out)
}

/// Write a v3 snapshot of `graph` to `path` through a buffered writer.
pub fn write_binary_v3_file<G: GraphStorage + ?Sized>(
    graph: &G,
    weights: Option<&[f64]>,
    path: impl AsRef<Path>,
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_binary_v3(graph, weights, std::io::BufWriter::new(file))
}

/// Recompute and overwrite the checksum trailer of an encoded v3 snapshot.
///
/// Test support for corruption suites: doctoring bytes *and* re-stamping the
/// checksum lets a deliberately broken snapshot get past the integrity gate,
/// so the framing and structural validators can be exercised directly. Not
/// part of the stable API.
#[doc(hidden)]
pub fn restamp_v3_checksum(bytes: &mut [u8]) {
    assert!(bytes.len() >= 16, "not a v3 snapshot: shorter than magic + version + checksum");
    let body = bytes.len() - 8;
    let checksum = chunked_checksum(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&checksum);
}

// ---------------------------------------------------------------------------
// Layout parsing and validation
// ---------------------------------------------------------------------------

/// Byte ranges of the six sections inside a framed and checksummed v3
/// snapshot.
#[derive(Clone, Debug)]
struct V3Layout {
    vertex_count: usize,
    edge_count: usize,
    offsets: Range<usize>,
    targets: Range<usize>,
    edge_ids: Range<usize>,
    endpoints: Range<usize>,
    weights: Option<Range<usize>>,
}

/// Reject snapshots whose magic or version stamp is not v3's.
fn check_magic_version(bytes: &[u8]) -> Result<()> {
    if &bytes[..4] != BINARY_MAGIC {
        return Err(corrupt(format!(
            "bad magic {:02x?}: not a graph-terrain binary snapshot",
            &bytes[..4]
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != BINARY_V3_VERSION {
        return Err(corrupt(format!(
            "unsupported binary snapshot version {version} (this reader supports {BINARY_V3_VERSION})"
        )));
    }
    Ok(())
}

/// Split a snapshot into its body and trailing checksum, rejecting inputs too
/// short to hold magic + version + checksum.
fn split_checksum(bytes: &[u8]) -> Result<(&[u8], u64)> {
    if bytes.len() < 4 + 4 + 8 {
        return Err(corrupt("binary snapshot truncated: shorter than magic + version + checksum"));
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    Ok((body, u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"))))
}

/// The first half of both openers: magic, version, section framing and
/// declared counts, then the trailing checksum over the body. After `Ok`,
/// every section range is in bounds and sized to the header counts; the
/// array contents are still unchecked.
fn parse_v3_layout(bytes: &[u8]) -> Result<V3Layout> {
    let (body, stored) = split_checksum(bytes)?;
    check_magic_version(bytes)?;

    let mut counts: Option<(usize, usize)> = None;
    let mut sections: [Option<Range<usize>>; 5] = [None, None, None, None, None];
    let mut pos = 8usize;
    while pos < body.len() {
        if body.len() - pos < 16 {
            return Err(corrupt(format!(
                "section header truncated at offset {pos}: {} bytes remain, 16 needed",
                body.len() - pos
            )));
        }
        let tag = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(body[pos + 8..pos + 16].try_into().expect("8 bytes"));
        if len > (body.len() - pos - 16) as u64 {
            return Err(corrupt(format!(
                "section {tag} truncated: declares {len} bytes, {} remain",
                body.len() - pos - 16
            )));
        }
        let len = len as usize;
        let padded = len.next_multiple_of(8);
        let payload = pos + 16..pos + 16 + len;
        if padded > body.len() - pos - 16 {
            return Err(corrupt(format!(
                "section {tag} padding truncated: {len} payload bytes pad to {padded}, {} remain",
                body.len() - pos - 16
            )));
        }
        pos += 16 + padded;
        let slot = match tag {
            SECTION_HEADER => {
                if len != 16 {
                    return Err(corrupt(format!("header section has {len} bytes, expected 16")));
                }
                let v = u64::from_le_bytes(
                    body[payload.start..payload.start + 8].try_into().expect("8 bytes"),
                );
                let e = u64::from_le_bytes(
                    body[payload.start + 8..payload.end].try_into().expect("8 bytes"),
                );
                if counts.replace((v as usize, e as usize)).is_some() {
                    return Err(corrupt("duplicate header section"));
                }
                if v > u32::MAX as u64 || e > u32::MAX as u64 {
                    return Err(corrupt(format!(
                        "counts ({v} vertices, {e} edges) exceed the u32 id space"
                    )));
                }
                continue;
            }
            SECTION_OFFSETS => 0,
            SECTION_TARGETS => 1,
            SECTION_EDGE_IDS => 2,
            SECTION_ENDPOINTS => 3,
            SECTION_WEIGHTS => 4,
            // Unknown section: skip (forward compatibility).
            _ => continue,
        };
        if sections[slot].replace(payload).is_some() {
            return Err(corrupt(format!("duplicate section with tag {tag}")));
        }
    }

    let (vertex_count, edge_count) =
        counts.ok_or_else(|| corrupt("snapshot has no header section"))?;
    let [offsets, targets, edge_ids, endpoints, weights] = sections;
    let require = |section: Option<Range<usize>>, name: &str, expected: usize| {
        let range = section.ok_or_else(|| corrupt(format!("snapshot has no {name} section")))?;
        if range.len() != expected {
            return Err(corrupt(format!(
                "{name} section holds {} bytes, header counts require {expected}",
                range.len()
            )));
        }
        Ok(range)
    };
    let layout = V3Layout {
        vertex_count,
        edge_count,
        offsets: require(offsets, "offsets", (vertex_count + 1) * 8)?,
        targets: require(targets, "targets", edge_count * 2 * 4)?,
        edge_ids: require(edge_ids, "edge ids", edge_count * 2 * 4)?,
        endpoints: require(endpoints, "endpoints", edge_count * 8)?,
        weights: match weights {
            Some(range) => Some(require(Some(range), "weights", edge_count * 8)?),
            None => None,
        },
    };
    let computed = chunked_checksum(body);
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} — snapshot corrupt"
        )));
    }
    Ok(layout)
}

/// Little-endian readers over a section's raw bytes — the portable (copying)
/// decode path, so they work on any endianness.
fn read_u64(bytes: &[u8], range: &Range<usize>, i: usize) -> u64 {
    let at = range.start + i * 8;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(bytes: &[u8], range: &Range<usize>, i: usize) -> u32 {
    let at = range.start + i * 4;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

// ---------------------------------------------------------------------------
// Owned (copying) decode — the portable path, also used by GraphSource
// ---------------------------------------------------------------------------

fn decode_owned(bytes: &[u8]) -> Result<(CsrGraph, Option<Vec<f64>>)> {
    let layout = parse_v3_layout(bytes)?;
    let half_edges = layout.edge_count * 2;
    let offsets =
        (0..=layout.vertex_count).map(|v| read_u64(bytes, &layout.offsets, v) as usize).collect();
    let targets = (0..half_edges).map(|i| VertexId(read_u32(bytes, &layout.targets, i))).collect();
    let edge_ids = (0..half_edges).map(|i| EdgeId(read_u32(bytes, &layout.edge_ids, i))).collect();
    let endpoints = (0..layout.edge_count)
        .map(|i| {
            [
                read_u32(bytes, &layout.endpoints, 2 * i),
                read_u32(bytes, &layout.endpoints, 2 * i + 1),
            ]
        })
        .collect();
    let graph = CsrGraph::from_raw_parts(offsets, targets, edge_ids, endpoints);
    // The linear checks and the cross-link pass, on the copied arrays.
    graph.check_invariants()?;
    let weights: Option<Vec<f64>> = layout.weights.map(|range| {
        (0..layout.edge_count).map(|i| f64::from_bits(read_u64(bytes, &range, i))).collect()
    });
    if let Some(weights) = &weights {
        validate_weights(&graph, weights)?;
    }
    Ok((graph, weights))
}

/// Decode a v3 snapshot into an owned [`ParsedEdgeList`] — the copying
/// counterpart of [`MappedCsrGraph::open`], and the path
/// [`GraphSource`](super::GraphSource) takes for binary input.
pub fn decode_binary_v3(bytes: &[u8]) -> Result<ParsedEdgeList> {
    let (graph, edge_weights) = decode_owned(bytes)?;
    Ok(ParsedEdgeList { graph, edge_weights })
}

// ---------------------------------------------------------------------------
// MappedCsrGraph
// ---------------------------------------------------------------------------

/// Zero-copy reinterpretation of framed section bytes. Only compiled where
/// the in-memory representation matches the file format (little-endian,
/// 64-bit); [`ZERO_COPY_SUPPORTED`] gates every caller.
#[cfg(all(target_endian = "little", target_pointer_width = "64"))]
mod reinterpret {
    use crate::ids::{EdgeId, VertexId};

    fn check(bytes: &[u8], elem: usize) {
        debug_assert_eq!(bytes.len() % elem, 0);
        debug_assert_eq!(bytes.as_ptr() as usize % elem, 0, "section payload misaligned");
    }

    /// SAFETY (all five): the caller hands in a framed section payload —
    /// length checked against the header counts and start 8-byte aligned (the
    /// format places payloads on 8-byte file offsets inside an 8-byte-aligned
    /// buffer). Every target type is `#[repr(transparent)]` over `u32`, a
    /// plain `[u32; 2]`, or a primitive, and every bit pattern is a valid
    /// value, so reinterpreting read-only bytes is sound.
    pub fn usizes(bytes: &[u8]) -> &[usize] {
        check(bytes, 8);
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const usize, bytes.len() / 8) }
    }

    pub fn vertex_ids(bytes: &[u8]) -> &[VertexId] {
        check(bytes, 4);
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const VertexId, bytes.len() / 4) }
    }

    pub fn edge_ids(bytes: &[u8]) -> &[EdgeId] {
        check(bytes, 4);
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const EdgeId, bytes.len() / 4) }
    }

    pub fn pairs(bytes: &[u8]) -> &[[u32; 2]] {
        check(bytes, 8);
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const [u32; 2], bytes.len() / 8) }
    }

    pub fn floats(bytes: &[u8]) -> &[f64] {
        check(bytes, 8);
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) }
    }
}

enum Repr {
    /// The CSR arrays live in the snapshot bytes; accessors reinterpret the
    /// checked section ranges in place.
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    ZeroCopy { bytes: MappedBytes, layout: V3Layout },
    /// Owned arrays decoded from the snapshot — the portable fallback (and
    /// the only representation on big-endian or 32-bit targets).
    Owned { graph: CsrGraph, weights: Option<Vec<f64>> },
}

/// A [`GraphStorage`] backed by a binary v3 snapshot instead of owned `Vec`s.
///
/// On little-endian 64-bit targets the four CSR arrays are served straight
/// out of the (memory-mapped or heap-loaded) file bytes; elsewhere the
/// snapshot is decoded into owned arrays behind the same type. Either way the
/// open checks everything its accessors rely on (see the module docs) and
/// the storage behaves identically to the [`CsrGraph`] it was saved from —
/// the determinism ledger holds bit-for-bit across backends.
///
/// ```no_run
/// use ugraph::{GraphStorage, MappedCsrGraph};
///
/// let graph = MappedCsrGraph::open("snapshot.gtsb")?;
/// println!("{} vertices, {} edges", graph.vertex_count(), graph.edge_count());
/// # Ok::<(), ugraph::GraphError>(())
/// ```
pub struct MappedCsrGraph {
    repr: Repr,
    memory_mapped: bool,
}

impl MappedCsrGraph {
    /// Open a v3 snapshot by memory-mapping it read-only (falling back to an
    /// aligned heap read if mapping is unavailable). Validates the framing,
    /// the checksum and the linear CSR invariants before returning.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedCsrGraph> {
        Self::from_mapped_bytes(MappedBytes::map_file(path.as_ref())?)
    }

    /// Validate an in-memory snapshot and wrap it as a storage — used by
    /// tests and by callers that already hold the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<MappedCsrGraph> {
        Self::from_mapped_bytes(MappedBytes::from_bytes(bytes))
    }

    fn from_mapped_bytes(bytes: MappedBytes) -> Result<MappedCsrGraph> {
        let memory_mapped = bytes.is_memory_mapped();
        if ZERO_COPY_SUPPORTED {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            {
                let layout = parse_v3_layout(&bytes)?;
                let graph =
                    MappedCsrGraph { repr: Repr::ZeroCopy { bytes, layout }, memory_mapped };
                check_linear_invariants(&graph, Parallelism::auto)?;
                if let Some(weights) = graph.edge_weights() {
                    validate_weights(&graph, weights)?;
                }
                return Ok(graph);
            }
        }
        let (graph, weights) = decode_owned(&bytes)?;
        Ok(MappedCsrGraph { repr: Repr::Owned { graph, weights }, memory_mapped: false })
    }

    /// Whether the storage is served from a live kernel mapping (`false`:
    /// heap fallback or owned decode).
    pub fn is_memory_mapped(&self) -> bool {
        self.memory_mapped
    }

    /// Whether accessors reinterpret the snapshot bytes in place (`false`:
    /// the owned-decode representation).
    pub fn is_zero_copy(&self) -> bool {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { .. } => true,
            Repr::Owned { .. } => false,
        }
    }

    /// Per-edge weights stored in the snapshot, if any.
    pub fn edge_weights(&self) -> Option<&[f64]> {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { bytes, layout } => {
                layout.weights.as_ref().map(|r| reinterpret::floats(&bytes[r.clone()]))
            }
            Repr::Owned { weights, .. } => weights.as_deref(),
        }
    }
}

impl std::fmt::Debug for MappedCsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsrGraph")
            .field("vertex_count", &self.vertex_count())
            .field("edge_count", &self.edge_count())
            .field("memory_mapped", &self.is_memory_mapped())
            .field("zero_copy", &self.is_zero_copy())
            .finish()
    }
}

impl GraphStorage for MappedCsrGraph {
    #[inline]
    fn offsets(&self) -> &[usize] {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { bytes, layout } => reinterpret::usizes(&bytes[layout.offsets.clone()]),
            Repr::Owned { graph, .. } => graph.offsets(),
        }
    }

    #[inline]
    fn targets(&self) -> &[VertexId] {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { bytes, layout } => {
                reinterpret::vertex_ids(&bytes[layout.targets.clone()])
            }
            Repr::Owned { graph, .. } => graph.targets(),
        }
    }

    #[inline]
    fn edge_ids(&self) -> &[EdgeId] {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { bytes, layout } => {
                reinterpret::edge_ids(&bytes[layout.edge_ids.clone()])
            }
            Repr::Owned { graph, .. } => graph.edge_ids(),
        }
    }

    #[inline]
    fn endpoint_pairs(&self) -> &[[u32; 2]] {
        match &self.repr {
            #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
            Repr::ZeroCopy { bytes, layout } => {
                reinterpret::pairs(&bytes[layout.endpoints.clone()])
            }
            Repr::Owned { graph, .. } => graph.endpoint_pairs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::rmat;

    fn sample_graph() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5);
        b.add_edge(5, 9);
        b.add_edge(2, 3);
        b.ensure_vertex(12);
        b.build()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ugraph-v3-test-{}-{name}.gtsb", std::process::id()));
        p
    }

    #[test]
    fn v3_round_trips_through_owned_decode() {
        let g = sample_graph();
        let bytes = encode_binary_v3(&g, None).unwrap();
        assert!(bytes.starts_with(BINARY_MAGIC));
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), BINARY_V3_VERSION);
        let decoded = decode_binary_v3(&bytes).unwrap();
        assert_eq!(decoded.graph, g);
        assert!(decoded.edge_weights.is_none());
    }

    #[test]
    fn v3_weights_round_trip_bit_exact() {
        let g = sample_graph();
        let weights = vec![0.1 + 0.2, -1.5, f64::MIN_POSITIVE];
        let bytes = encode_binary_v3(&g, Some(&weights)).unwrap();
        let decoded = decode_binary_v3(&bytes).unwrap();
        let round = decoded.edge_weights.unwrap();
        for (a, b) in weights.iter().zip(&round) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mapped = MappedCsrGraph::from_bytes(&bytes).unwrap();
        let mapped_weights = mapped.edge_weights().unwrap();
        for (a, b) in weights.iter().zip(mapped_weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn v3_rejects_invalid_weight_vectors_at_encode_time() {
        let g = sample_graph();
        assert!(matches!(
            encode_binary_v3(&g, Some(&[1.0])),
            Err(GraphError::LengthMismatch { .. })
        ));
        assert!(matches!(
            encode_binary_v3(&g, Some(&[1.0, f64::NAN, 2.0])),
            Err(GraphError::NonFiniteScalar { .. })
        ));
    }

    #[test]
    fn mapped_open_agrees_with_owned_graph() {
        let g = rmat(8, 600, 7);
        let path = temp_path("agree");
        write_binary_v3_file(&g, None, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let opened: [Box<dyn GraphStorage>; 3] = [
            Box::new(MappedCsrGraph::open(&path).unwrap()),
            Box::new(MappedCsrGraph::from_bytes(&bytes).unwrap()),
            Box::new(decode_binary_v3(&bytes).unwrap().graph),
        ];
        for mapped in opened {
            assert_eq!(mapped.vertex_count(), g.vertex_count());
            assert_eq!(mapped.edge_count(), g.edge_count());
            assert_eq!(mapped.offsets(), g.offsets());
            assert_eq!(mapped.targets(), g.targets());
            assert_eq!(mapped.edge_ids(), g.edge_ids());
            assert_eq!(mapped.endpoint_pairs(), g.endpoint_pairs());
            assert_eq!(mapped.to_csr_graph(), g);
            mapped.check_invariants().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_storage_is_shareable_across_threads() {
        let g = rmat(6, 120, 3);
        let bytes = encode_binary_v3(&g, None).unwrap();
        let mapped = MappedCsrGraph::from_bytes(&bytes).unwrap();
        let storage: &dyn GraphStorage = &mapped;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| scope.spawn(move || storage.edges().map(|e| e.id.index()).sum::<usize>()))
                .collect();
            let sums: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(sums[0], sums[1]);
        });
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let bytes = encode_binary_v3(&g, None).unwrap();
        let mapped = MappedCsrGraph::from_bytes(&bytes).unwrap();
        assert_eq!(mapped.vertex_count(), 0);
        assert_eq!(mapped.edge_count(), 0);
        assert_eq!(decode_binary_v3(&bytes).unwrap().graph, g);
    }

    #[test]
    fn corrupt_v3_snapshots_error_and_never_panic() {
        let g = sample_graph();
        let bytes = encode_binary_v3(&g, Some(&[1.0, 2.0, 3.0])).unwrap();
        // Every truncation prefix.
        for cut in 0..bytes.len() {
            assert!(decode_binary_v3(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
            assert!(
                MappedCsrGraph::from_bytes(&bytes[..cut]).is_err(),
                "mapped prefix of {cut} bytes accepted"
            );
        }
        // Any flipped bit trips the checksum or a structural check.
        for byte in [0, 4, 8, 12, 24, 40, bytes.len() - 9, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[byte] ^= 0x10;
            assert!(decode_binary_v3(&corrupted).is_err(), "flip at byte {byte} accepted");
            assert!(
                MappedCsrGraph::from_bytes(&corrupted).is_err(),
                "mapped flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn structurally_broken_but_checksummed_snapshots_are_rejected() {
        let g = sample_graph();
        // Corrupt one payload byte, then re-stamp the checksum so only the
        // structural validation stands between the bytes and the accessors.
        let clean = encode_binary_v3(&g, None).unwrap();
        // offsets payload starts at 8 (magic+version) + 16 (header section
        // header) + 16 (header payload) + 16 (offsets section header) = 56.
        let mut broken = clean.clone();
        broken[56] = 0xff; // offsets[0] != 0
        restamp(&mut broken);
        let err = MappedCsrGraph::from_bytes(&broken).unwrap_err();
        assert!(matches!(err, GraphError::BrokenInvariant { .. }), "{err}");

        // A section length that disagrees with the header counts.
        let mut broken = clean.clone();
        let offsets_len_at = 56 - 8;
        broken[offsets_len_at] = broken[offsets_len_at].wrapping_add(4); // misaligned length
        restamp(&mut broken);
        assert!(MappedCsrGraph::from_bytes(&broken).is_err());

        // Non-finite weight.
        let with_weights = encode_binary_v3(&g, Some(&[1.0, 2.0, 3.0])).unwrap();
        let weights_payload = with_weights.len() - 8 - 3 * 8;
        let mut broken = with_weights.clone();
        broken[weights_payload..weights_payload + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        restamp(&mut broken);
        assert!(matches!(
            MappedCsrGraph::from_bytes(&broken).unwrap_err(),
            GraphError::NonFiniteScalar { .. }
        ));
    }

    fn restamp(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let checksum = chunked_checksum(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&checksum);
    }

    #[test]
    fn v2_snapshots_are_not_v3() {
        // A retired v2 snapshot opens with the shared magic and a version-2
        // stamp; the padding makes it long enough to reach the version check.
        let mut v2 = BINARY_MAGIC.to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&[0; 16]);
        let errors = [
            decode_binary_v3(&v2).unwrap_err(),
            MappedCsrGraph::from_bytes(&v2).unwrap_err(),
            super::super::GraphSource::reader(std::io::Cursor::new(v2)).load().unwrap_err(),
        ];
        for err in errors {
            assert!(matches!(err, GraphError::Parse { .. }), "{err}");
            assert!(err.to_string().contains("version 2"), "{err}");
        }
    }
}
