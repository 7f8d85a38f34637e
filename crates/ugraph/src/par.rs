//! Deterministic chunked parallelism for the measure and pipeline layers.
//!
//! The hot algorithms of the workspace — Brandes betweenness, all-sources
//! BFS closeness, the PageRank power iteration, triangle counting — are
//! embarrassingly parallel over sources, vertices or edges. This module is
//! the execution engine they share. It is dependency-free (no rayon; the
//! build container has no crates.io access) and built on
//! [`std::thread::scope`], with one design rule that everything else follows
//! from:
//!
//! > **The work decomposition never depends on the thread count.**
//!
//! An input of length `len` is always split into the same chunks — a pure
//! function of `len` and the *declared* chunk-count target
//! ([`Parallelism::width`], default [`DEFAULT_WIDTH`]; see [`chunk_size`]) —
//! each chunk produces its own accumulator, and accumulators are merged
//! left-to-right in chunk order. Threads only change *who* computes a chunk,
//! never *what* a chunk is or the order accumulators combine. Floating-point
//! reductions therefore give **bit-identical results** for
//! [`Parallelism::Serial`] and [`Parallelism::Threads`]`(n)` for every `n`
//! — the property tests in `measures` assert exact `==` on `Vec<f64>`
//! outputs across thread counts.
//!
//! The width is part of the *declared decomposition*, not of the execution:
//! [`Parallelism::Wide`]`{ threads, width }` splits the input into up to
//! `width` chunks, so machines beyond [`DEFAULT_WIDTH`]-way parallelism can
//! be saturated — at the cost of results being a function of the chosen
//! width. For any *fixed* width the bit-identity guarantee is unchanged:
//!
//! ```
//! use ugraph::par::{map_reduce_chunks, Parallelism};
//!
//! let xs: Vec<f64> = (0..50_000).map(|i| (i as f64).cos()).collect();
//! let sum = |p: Parallelism| {
//!     map_reduce_chunks(p, xs.len(), |r| xs[r].iter().sum::<f64>(), |a, b| a + b).unwrap()
//! };
//! // 128 chunks, executed on 1 worker and on 8 workers: the same f64.
//! let wide_serial = sum(Parallelism::Serial.with_width(128));
//! let wide_threads = sum(Parallelism::Threads(8).with_width(128));
//! assert_eq!(wide_serial.to_bits(), wide_threads.to_bits());
//! ```
//!
//! ## Example
//!
//! ```
//! use ugraph::par::{map_reduce_chunks, Parallelism};
//!
//! let xs: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.1).collect();
//! let sum = |p: Parallelism| {
//!     map_reduce_chunks(p, xs.len(), |range| xs[range].iter().sum::<f64>(), |a, b| a + b)
//!         .unwrap_or(0.0)
//! };
//! // Not merely approximately equal: the exact same f64, bit for bit.
//! assert_eq!(sum(Parallelism::Serial).to_bits(), sum(Parallelism::Threads(4)).to_bits());
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a parallel region may use, and (optionally) how
/// finely the input is decomposed.
///
/// The thread count never affects results (see the module docs), only
/// wall-clock time, so callers can default to [`Parallelism::auto`] without
/// giving up reproducibility. The *width* — the chunk-count target of
/// [`Parallelism::Wide`] — does shape results of floating-point reductions
/// (it decides the merge tree), which is why it is an explicit, declared
/// parameter and is never derived from the thread count or the machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run everything on the calling thread. No threads are spawned.
    #[default]
    Serial,
    /// Use up to this many worker threads (`Threads(0)` and `Threads(1)`
    /// behave like [`Parallelism::Serial`]) over the default decomposition
    /// of [`DEFAULT_WIDTH`] chunks.
    Threads(usize),
    /// Use up to `threads` workers over an input split into up to `width`
    /// chunks (`width` ≥ 1; 0 is treated as 1).
    ///
    /// Use this to saturate machines with more than [`DEFAULT_WIDTH`] cores,
    /// or to load-balance skewed per-chunk costs with a finer decomposition.
    /// Results are bit-identical across `threads` for any fixed `width`, but
    /// two different widths are two different merge orders — record the width
    /// next to any number you want to reproduce (the bench ladder does).
    Wide {
        /// Worker-thread budget (0 and 1 mean serial execution).
        threads: usize,
        /// Chunk-count target the input is split into (0 means 1).
        width: usize,
    },
}

impl Parallelism {
    /// The parallelism the machine offers:
    /// `Threads(`[`std::thread::available_parallelism`]`)`, or
    /// [`Parallelism::Serial`] when that cannot be determined.
    pub fn auto() -> Parallelism {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Parallelism::Threads(n.get()),
            _ => Parallelism::Serial,
        }
    }

    /// The number of worker threads this setting allows (at least 1).
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Wide { threads, .. } => threads.max(1),
        }
    }

    /// The chunk-count target this setting declares (at least 1):
    /// [`DEFAULT_WIDTH`] for [`Parallelism::Serial`] and
    /// [`Parallelism::Threads`], the carried width for
    /// [`Parallelism::Wide`].
    ///
    /// ```
    /// use ugraph::par::{Parallelism, DEFAULT_WIDTH};
    ///
    /// assert_eq!(Parallelism::Serial.width(), DEFAULT_WIDTH);
    /// assert_eq!(Parallelism::Threads(64).width(), DEFAULT_WIDTH);
    /// assert_eq!(Parallelism::Threads(64).with_width(256).width(), 256);
    /// ```
    pub fn width(self) -> usize {
        match self {
            Parallelism::Serial | Parallelism::Threads(_) => DEFAULT_WIDTH,
            Parallelism::Wide { width, .. } => width.max(1),
        }
    }

    /// This setting with an explicit chunk-count target: the same thread
    /// budget as `self`, decomposing inputs into up to `width` chunks.
    ///
    /// `Serial.with_width(w)` keeps serial *execution* but adopts the `w`-chunk
    /// decomposition — exactly what `Threads(n).with_width(w)` computes, so the
    /// two compare bit-for-bit in the determinism tests.
    pub fn with_width(self, width: usize) -> Parallelism {
        Parallelism::Wide { threads: self.thread_count(), width }
    }

    /// The flag string [`Parallelism::parse`] maps back to an equivalent
    /// setting: `"serial"`, `"4"`, `"4x128"`. The bench ladder records this
    /// form in `BENCH_*.json` so a baseline's parallelism column pastes
    /// straight back into `scale_ladder --parallelism`.
    ///
    /// ```
    /// use ugraph::par::Parallelism;
    ///
    /// for p in [Parallelism::Serial, Parallelism::Threads(4), Parallelism::Threads(4).with_width(128)] {
    ///     let flag = p.canonical_flag();
    ///     let parsed = Parallelism::parse(&flag).unwrap();
    ///     // Round-trips to a behaviorally identical setting.
    ///     assert_eq!(parsed.thread_count(), p.thread_count());
    ///     assert_eq!(parsed.width(), p.width());
    /// }
    /// assert_eq!(Parallelism::Threads(4).canonical_flag(), "4");
    /// assert_eq!(Parallelism::Serial.with_width(64).canonical_flag(), "1x64");
    /// ```
    pub fn canonical_flag(self) -> String {
        match self {
            Parallelism::Serial => "serial".to_string(),
            Parallelism::Threads(n) => n.max(1).to_string(),
            Parallelism::Wide { threads, width } => {
                format!("{}x{}", threads.max(1), width.max(1))
            }
        }
    }

    /// Parse a `Parallelism` from a thread-count string: `"serial"`, `"auto"`,
    /// an integer — `"0"` and `"1"` mean serial, consistent with how
    /// [`Parallelism::Threads`]`(0)` behaves — or `"<threads>x<width>"`
    /// (e.g. `"8x128"`: 8 workers over a 128-chunk decomposition).
    ///
    /// This is the format the figure binaries accept for `--threads`, the
    /// bench ladder accepts in `--parallelism`, and the terrain server
    /// accepts as the `threads` query parameter. A rejected string carries a
    /// typed [`ParseParallelismError`] saying *which* part was wrong, so
    /// callers (a CLI warning, an HTTP 400 body) can report it precisely.
    pub fn parse(s: &str) -> Result<Parallelism, ParseParallelismError> {
        let fail = |kind| Err(ParseParallelismError { input: s.to_string(), kind });
        if let Some((threads, width)) = s.split_once('x') {
            let Ok(threads) = threads.parse::<usize>() else {
                return fail(ParseParallelismErrorKind::BadThreadCount);
            };
            let Ok(width) = width.parse::<usize>() else {
                return fail(ParseParallelismErrorKind::BadWidth);
            };
            if width == 0 {
                return fail(ParseParallelismErrorKind::ZeroWidth);
            }
            return Ok(Parallelism::Wide { threads, width });
        }
        match s {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::auto()),
            _ => match s.parse::<usize>() {
                Ok(0 | 1) => Ok(Parallelism::Serial),
                Ok(n) => Ok(Parallelism::Threads(n)),
                Err(_) => fail(ParseParallelismErrorKind::Unrecognized),
            },
        }
    }
}

/// Why a [`Parallelism::parse`] input was rejected.
///
/// The variants name the offending part of the flag; [`std::fmt::Display`]
/// renders a full sentence including [`ParseParallelismError::EXPECTED`], so
/// an error surfaced verbatim (CLI warning, HTTP 400 body) tells the caller
/// exactly what the accepted forms are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseParallelismError {
    input: String,
    kind: ParseParallelismErrorKind,
}

/// The specific malformation [`Parallelism::parse`] found.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParseParallelismErrorKind {
    /// The `<threads>` part of a `<threads>x<width>` form is not a number.
    BadThreadCount,
    /// The `<width>` part of a `<threads>x<width>` form is not a number.
    BadWidth,
    /// A `<threads>x0` form: a zero width is a typo, not a request.
    ZeroWidth,
    /// The input is none of `serial`, `auto`, an integer, or a `NxW` pair.
    Unrecognized,
}

impl ParseParallelismError {
    /// The accepted input forms, as a human-readable fragment.
    pub const EXPECTED: &'static str =
        "`serial`, `auto`, a thread count, or `<threads>x<width>` with a nonzero width";

    /// The string that failed to parse, verbatim.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// Which part of the input was malformed.
    pub fn kind(&self) -> ParseParallelismErrorKind {
        self.kind
    }
}

impl std::fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let problem = match self.kind {
            ParseParallelismErrorKind::BadThreadCount => "the thread count is not a number",
            ParseParallelismErrorKind::BadWidth => "the chunk width is not a number",
            ParseParallelismErrorKind::ZeroWidth => "the chunk width must be nonzero",
            ParseParallelismErrorKind::Unrecognized => "unrecognized form",
        };
        write!(f, "invalid parallelism {:?}: {problem}; expected {}", self.input, Self::EXPECTED)
    }
}

impl std::error::Error for ParseParallelismError {}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(n) => write!(f, "threads({n})"),
            Parallelism::Wide { threads, width } => write!(f, "threads({threads})x{width}"),
        }
    }
}

/// The default chunk-count target ([`Parallelism::width`]) when no explicit
/// width is declared.
///
/// Fixed (rather than derived from the thread count) so that the chunk
/// decomposition — and with it every floating-point merge order — is a pure
/// function of the input length. 32 chunks keep per-chunk accumulators small
/// while load-balancing well up to 32-way hardware; machines beyond that
/// declare a wider decomposition with [`Parallelism::with_width`].
pub const DEFAULT_WIDTH: usize = 32;

/// Inputs smaller than this many bytes are scanned on the calling thread:
/// below it, starting workers costs more than the scan. The one size gate of
/// the snapshot checksum and the CSR validator.
pub(crate) const SERIAL_BELOW_BYTES: usize = 8 << 20;

/// The parallelism of a scan over `bytes` bytes: [`Parallelism::Serial`]
/// below [`SERIAL_BELOW_BYTES`], else `parallelism()`. Small scans never ask
/// for it, so they never pay for [`Parallelism::auto`]'s queries of the
/// machine.
pub(crate) fn for_scan(bytes: usize, parallelism: impl FnOnce() -> Parallelism) -> Parallelism {
    if bytes < SERIAL_BELOW_BYTES {
        Parallelism::Serial
    } else {
        parallelism()
    }
}

/// The deterministic chunk size for an input of `len` items under a
/// chunk-count target of `width`: the smallest size that covers `len` with at
/// most `width.max(1)` chunks.
///
/// This is a pure function of `(len, width)` — never of the thread count.
///
/// ```
/// use ugraph::par::chunk_size;
///
/// assert_eq!(chunk_size(1_000, 32), 32);  // 32 chunks of ≤32 items
/// assert_eq!(chunk_size(1_000, 128), 8);  // finer declared decomposition
/// assert_eq!(chunk_size(5, 32), 1);       // never below one item per chunk
/// ```
pub fn chunk_size(len: usize, width: usize) -> usize {
    len.div_ceil(width.max(1)).max(1)
}

/// Map every chunk of `0..len` through `map` and fold the per-chunk
/// accumulators **in chunk order** with `reduce`. Returns `None` iff
/// `len == 0`.
///
/// `map` receives the half-open index range of one chunk and runs on a worker
/// thread (or the calling thread under [`Parallelism::Serial`]); `reduce`
/// always runs on the calling thread, merging `(…(a₀ ⊕ a₁) ⊕ a₂…)` in
/// increasing chunk order. Because the chunk decomposition is a pure function
/// of `len` and the declared width (see [`chunk_size`]) the result is
/// bit-identical for every [`Parallelism`] setting of that width.
///
/// Panics in `map` are propagated to the caller once all workers have
/// stopped.
///
/// ```
/// use ugraph::par::{map_reduce_chunks, Parallelism};
///
/// let max = map_reduce_chunks(
///     Parallelism::Threads(2),
///     1_000,
///     |range| range.max().unwrap(),
///     usize::max,
/// );
/// assert_eq!(max, Some(999));
/// assert_eq!(map_reduce_chunks(Parallelism::Serial, 0, |_| 0usize, usize::max), None);
/// ```
pub fn map_reduce_chunks<A, M, R>(
    parallelism: Parallelism,
    len: usize,
    map: M,
    reduce: R,
) -> Option<A>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    R: FnMut(A, A) -> A,
{
    map_chunks(parallelism, len, map).into_iter().reduce(reduce)
}

/// Map every item of `0..len` to a value, returning the values in index
/// order. The chunked equivalent of `(0..len).map(f).collect()`.
///
/// Each output element depends only on its own index, so the result is
/// trivially identical across [`Parallelism`] settings; use this for
/// per-vertex / per-edge measures with no cross-item accumulation.
pub fn map_collect<U, F>(parallelism: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    concat_chunks(map_chunks(parallelism, len, |range| range.map(&f).collect::<Vec<U>>()), len)
}

/// Like [`map_collect`], but `f` produces one whole chunk at a time, so it
/// can reuse scratch buffers (BFS queues, distance arrays) across the items
/// of a chunk. `f` gets the chunk's index range and must return exactly
/// `range.len()` values, which are concatenated in chunk order.
pub fn map_collect_chunked<U, F>(parallelism: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> Vec<U> + Sync,
{
    let chunks = map_chunks(parallelism, len, |range| {
        let expected = range.len();
        let out = f(range);
        assert_eq!(out.len(), expected, "chunk closure returned the wrong number of values");
        out
    });
    concat_chunks(chunks, len)
}

/// Like [`map_reduce_chunks`], but every chunk closure also receives the
/// disjoint `&mut` sub-slice of `data` covering its index range, so stages
/// that fill a preallocated output buffer (the PageRank share/gather sweeps)
/// run with **zero per-iteration allocation**: values are written in place
/// instead of being collected into per-chunk `Vec`s and concatenated.
///
/// The chunk decomposition is the same pure function of `data.len()` and the
/// declared width as in [`map_reduce_chunks`] (see [`chunk_size`]), the
/// sub-slices are disjoint by
/// construction (handed out via `split_at_mut`), and the per-chunk
/// accumulators merge in increasing chunk order on the calling thread — so
/// results stay bit-identical for every [`Parallelism`] setting. Returns
/// `None` iff `data` is empty.
///
/// ```
/// use ugraph::par::{map_reduce_chunks_mut, Parallelism};
///
/// let mut out = vec![0.0f64; 1_000];
/// let sum = map_reduce_chunks_mut(
///     Parallelism::Threads(4),
///     &mut out,
///     |range, chunk| {
///         let mut s = 0.0;
///         for (slot, i) in chunk.iter_mut().zip(range) {
///             *slot = i as f64 * 0.5;
///             s += *slot;
///         }
///         s
///     },
///     |a, b| a + b,
/// )
/// .unwrap();
/// assert_eq!(out[2], 1.0);
/// assert_eq!(sum, out.iter().sum::<f64>());
/// ```
pub fn map_reduce_chunks_mut<T, A, M, R>(
    parallelism: Parallelism,
    data: &mut [T],
    map: M,
    reduce: R,
) -> Option<A>
where
    T: Send,
    A: Send,
    M: Fn(Range<usize>, &mut [T]) -> A + Sync,
    R: FnMut(A, A) -> A,
{
    let chunk = chunk_size(data.len(), parallelism.width());
    // Both execution paths consume the same pre-split decomposition, so the
    // chunk boundaries — and with them the merge order — cannot drift apart.
    // Chunk `i` takes piece `i` exactly once.
    let pieces: Vec<Mutex<Option<ChunkPiece<'_, T>>>> =
        split_chunks_mut(data, chunk).into_iter().map(|p| Mutex::new(Some(p))).collect();
    run(parallelism.thread_count(), pieces.len(), |i| {
        let (range, piece) = pieces[i]
            .lock()
            .expect("no other panic while holding a work lock")
            .take()
            .expect("each chunk index is claimed exactly once");
        map(range, piece)
    })
    .into_iter()
    .reduce(reduce)
}

/// A chunk of a mutable slice: its global index range plus the disjoint
/// `&mut` sub-slice covering it.
type ChunkPiece<'a, T> = (Range<usize>, &'a mut [T]);

/// Split `data` into the deterministic chunk decomposition (`chunk` from
/// [`chunk_size`]) as disjoint `&mut` pieces, in chunk order. The single
/// source of truth for [`map_reduce_chunks_mut`]'s serial and parallel paths.
fn split_chunks_mut<T>(data: &mut [T], chunk: usize) -> Vec<ChunkPiece<'_, T>> {
    let mut pieces = Vec::with_capacity(data.len().div_ceil(chunk));
    let mut rest = data;
    let mut start = 0usize;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        pieces.push((start..start + take, head));
        start += take;
        rest = tail;
    }
    pieces
}

/// Run `map` over every chunk of `0..len`, returning the per-chunk results
/// in chunk order. The lower-level primitive behind [`map_reduce_chunks`].
fn map_chunks<A, M>(parallelism: Parallelism, len: usize, map: M) -> Vec<A>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
{
    let chunk = chunk_size(len, parallelism.width());
    run(parallelism.thread_count(), len.div_ceil(chunk), |i| {
        map(i * chunk..((i + 1) * chunk).min(len))
    })
}

/// Run `f` for every chunk index of `0..n_chunks` on up to `workers` scoped
/// threads and return the results in chunk order. The one worker pool
/// behind [`map_chunks`] and [`map_reduce_chunks_mut`].
///
/// Workers claim the next unclaimed index (work stealing) and park each
/// result in its chunk's slot, so the output order never depends on
/// completion order. With at most one worker the chunks run in order on
/// the calling thread. Panics in `f` propagate once all workers stop.
fn run<A, F>(workers: usize, n_chunks: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize) -> A + Sync,
{
    let workers = workers.min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let acc = f(i);
                *slots[i].lock().expect("no other panic while holding a slot lock") = Some(acc);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let acc = slot.into_inner().expect("worker panics propagate before this");
            acc.expect("every chunk index was claimed and completed")
        })
        .collect()
}

/// Concatenate per-chunk vectors, reusing the first chunk's allocation when
/// it already has room.
fn concat_chunks<U>(chunks: Vec<Vec<U>>, len: usize) -> Vec<U> {
    let mut iter = chunks.into_iter();
    let mut out = match iter.next() {
        None => return Vec::new(),
        Some(first) => {
            let mut v = if first.capacity() >= len {
                first
            } else {
                let mut grown = Vec::with_capacity(len);
                grown.extend(first);
                grown
            };
            v.reserve(len - v.len());
            v
        }
    };
    for chunk in iter {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_is_a_pure_function_of_len_and_width() {
        assert_eq!(chunk_size(0, DEFAULT_WIDTH), 1);
        assert_eq!(chunk_size(1, DEFAULT_WIDTH), 1);
        assert_eq!(chunk_size(DEFAULT_WIDTH, DEFAULT_WIDTH), 1);
        assert_eq!(chunk_size(DEFAULT_WIDTH + 1, DEFAULT_WIDTH), 2);
        assert_eq!(chunk_size(10 * DEFAULT_WIDTH, DEFAULT_WIDTH), 10);
        // A zero width is treated as one chunk, never a division by zero.
        assert_eq!(chunk_size(100, 0), 100);
        // Covers len with at most `width` chunks, for widths beyond the old cap.
        for width in [1usize, 7, 32, 48, 64, 128, 257, 1024] {
            for len in [1usize, 5, 31, 32, 33, 100, 1000, 12345] {
                assert!(len.div_ceil(chunk_size(len, width)) <= width, "len {len} width {width}");
            }
        }
    }

    #[test]
    fn width_defaults_and_wide_carries_it() {
        assert_eq!(Parallelism::Serial.width(), DEFAULT_WIDTH);
        assert_eq!(Parallelism::Threads(64).width(), DEFAULT_WIDTH);
        assert_eq!(Parallelism::Wide { threads: 64, width: 256 }.width(), 256);
        assert_eq!(Parallelism::Wide { threads: 2, width: 0 }.width(), 1);
        assert_eq!(Parallelism::Serial.with_width(9), Parallelism::Wide { threads: 1, width: 9 });
        assert_eq!(
            Parallelism::Threads(8).with_width(64),
            Parallelism::Wide { threads: 8, width: 64 }
        );
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert_eq!(Parallelism::Threads(7).thread_count(), 7);
        assert_eq!(Parallelism::Wide { threads: 0, width: 64 }.thread_count(), 1);
        assert_eq!(Parallelism::Wide { threads: 5, width: 64 }.thread_count(), 5);
        assert!(Parallelism::auto().thread_count() >= 1);
    }

    #[test]
    fn parse_accepts_serial_auto_counts_and_widths() {
        assert_eq!(Parallelism::parse("serial"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("0"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("1"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("4"), Ok(Parallelism::Threads(4)));
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::auto()));
        assert_eq!(Parallelism::parse("8x128"), Ok(Parallelism::Wide { threads: 8, width: 128 }));
        assert_eq!(Parallelism::parse("0x64"), Ok(Parallelism::Wide { threads: 0, width: 64 }));
        assert_eq!(format!("{}", Parallelism::Threads(4)), "threads(4)");
        assert_eq!(format!("{}", Parallelism::Serial), "serial");
        assert_eq!(format!("{}", Parallelism::Wide { threads: 8, width: 128 }), "threads(8)x128");
    }

    #[test]
    fn parse_rejections_carry_a_typed_kind_and_the_input() {
        let kind = |s: &str| Parallelism::parse(s).unwrap_err().kind();
        assert_eq!(kind("8x0"), ParseParallelismErrorKind::ZeroWidth);
        assert_eq!(kind("8x"), ParseParallelismErrorKind::BadWidth);
        assert_eq!(kind("8xsixty"), ParseParallelismErrorKind::BadWidth);
        assert_eq!(kind("x64"), ParseParallelismErrorKind::BadThreadCount);
        assert_eq!(kind("four"), ParseParallelismErrorKind::Unrecognized);
        assert_eq!(kind(""), ParseParallelismErrorKind::Unrecognized);
        assert_eq!(kind("-2"), ParseParallelismErrorKind::Unrecognized);
        let err = Parallelism::parse("8x0").unwrap_err();
        assert_eq!(err.input(), "8x0");
        let message = err.to_string();
        assert!(message.contains("8x0"), "{message}");
        assert!(message.contains("nonzero"), "{message}");
        assert!(message.contains(ParseParallelismError::EXPECTED), "{message}");
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // A sum whose value genuinely depends on association order, so this
        // test fails if chunking ever became thread-count-dependent.
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3 + 1.0).collect();
        let run = |p: Parallelism| {
            map_reduce_chunks(p, xs.len(), |r| xs[r].iter().sum::<f64>(), |a, b| a + b).unwrap()
        };
        let serial = run(Parallelism::Serial);
        for threads in 1..=8 {
            assert_eq!(
                serial.to_bits(),
                run(Parallelism::Threads(threads)).to_bits(),
                "threads({threads})"
            );
        }
        // And chunked summation differs from the naive left fold, proving the
        // serial path really goes through the same chunk decomposition.
        let naive: f64 = xs.iter().sum();
        assert!((serial - naive).abs() < 1e-9);
    }

    #[test]
    fn wide_widths_beyond_the_old_cap_stay_bit_identical_across_threads() {
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3 + 1.0).collect();
        let run = |p: Parallelism| {
            map_reduce_chunks(p, xs.len(), |r| xs[r].iter().sum::<f64>(), |a, b| a + b).unwrap()
        };
        for width in [33usize, 48, 64, 100, 128, 257] {
            let reference = run(Parallelism::Serial.with_width(width));
            for threads in [2usize, 4, 8, 64] {
                assert_eq!(
                    reference.to_bits(),
                    run(Parallelism::Threads(threads).with_width(width)).to_bits(),
                    "threads({threads}) at width {width}"
                );
            }
            // The in-place variant follows the same decomposition.
            let mut buf = vec![0.0f64; xs.len()];
            let in_place = map_reduce_chunks_mut(
                Parallelism::Threads(4).with_width(width),
                &mut buf,
                |range, chunk| {
                    let mut s = 0.0;
                    for (slot, i) in chunk.iter_mut().zip(range) {
                        *slot = xs[i];
                        s += *slot;
                    }
                    s
                },
                |a, b| a + b,
            )
            .unwrap();
            assert_eq!(reference.to_bits(), in_place.to_bits(), "mut variant at width {width}");
        }
    }

    #[test]
    fn width_one_behaves_like_a_single_chunk() {
        let out = map_collect(Parallelism::Threads(4).with_width(1), 100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let sum = map_reduce_chunks(
            Parallelism::Serial.with_width(1),
            1000,
            |r| {
                assert_eq!(r, 0..1000, "one chunk covers everything");
                r.sum::<usize>()
            },
            |a, b| a + b,
        );
        assert_eq!(sum, Some(499_500));
    }

    #[test]
    fn map_collect_preserves_index_order() {
        for p in [Parallelism::Serial, Parallelism::Threads(3)] {
            let out = map_collect(p, 1000, |i| 3 * i);
            assert_eq!(out.len(), 1000);
            assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i), "{p}");
        }
    }

    #[test]
    fn map_collect_chunked_concatenates_in_chunk_order() {
        for p in [Parallelism::Serial, Parallelism::Threads(4)] {
            let out = map_collect_chunked(p, 501, |r| r.map(|i| i as u64).collect());
            assert_eq!(out, (0..501u64).collect::<Vec<_>>(), "{p}");
        }
    }

    #[test]
    fn empty_input_yields_none_and_empty() {
        assert_eq!(map_reduce_chunks(Parallelism::Threads(4), 0, |_| 1usize, |a, b| a + b), None);
        assert!(map_collect(Parallelism::Threads(4), 0, |i| i).is_empty());
    }

    #[test]
    fn oversubscribed_threads_are_harmless() {
        // More threads than chunks, more chunks than items: still correct.
        let out =
            map_reduce_chunks(Parallelism::Threads(64), 3, |r| r.sum::<usize>(), |a, b| a + b);
        assert_eq!(out, Some(3));
    }

    #[test]
    fn map_reduce_chunks_mut_writes_every_slot_and_merges_in_chunk_order() {
        // The in-place variant must produce exactly the same bits as the
        // collect-and-concatenate path, for every thread count.
        let reference: Vec<f64> = (0..12_345).map(|i| (i as f64).sin() * 1e-3 + 1.0).collect();
        let ref_sum = map_reduce_chunks(
            Parallelism::Serial,
            reference.len(),
            |r| reference[r].iter().sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap();
        for p in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)] {
            let mut out = vec![0.0f64; reference.len()];
            let sum = map_reduce_chunks_mut(
                p,
                &mut out,
                |range, chunk| {
                    let mut s = 0.0;
                    for (slot, i) in chunk.iter_mut().zip(range) {
                        *slot = (i as f64).sin() * 1e-3 + 1.0;
                        s += *slot;
                    }
                    s
                },
                |a, b| a + b,
            )
            .unwrap();
            assert_eq!(out, reference, "{p}");
            assert_eq!(sum.to_bits(), ref_sum.to_bits(), "{p}");
        }
    }

    #[test]
    fn map_reduce_chunks_mut_empty_and_tiny_inputs() {
        let mut empty: [u64; 0] = [];
        assert_eq!(
            map_reduce_chunks_mut(Parallelism::Threads(4), &mut empty, |_, _| 1u64, |a, b| a + b),
            None
        );
        let mut tiny = [5u64, 7];
        let total = map_reduce_chunks_mut(
            Parallelism::Threads(64),
            &mut tiny,
            |_, chunk| {
                chunk.iter_mut().for_each(|v| *v *= 2);
                chunk.iter().sum::<u64>()
            },
            |a, b| a + b,
        );
        assert_eq!(total, Some(24));
        assert_eq!(tiny, [10, 14]);
    }

    #[test]
    fn map_reduce_chunks_mut_worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 1000];
            map_reduce_chunks_mut(
                Parallelism::Threads(2),
                &mut data,
                |r, _| {
                    assert!(!r.contains(&777), "boom");
                    0usize
                },
                |a, b| a + b,
            )
        });
        assert!(result.is_err(), "a panicking chunk must fail the whole call");
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            map_reduce_chunks(
                Parallelism::Threads(2),
                1000,
                |r| {
                    assert!(!r.contains(&777), "boom");
                    0usize
                },
                |a, b| a + b,
            )
        });
        assert!(result.is_err(), "a panicking chunk must fail the whole call");
    }
}
