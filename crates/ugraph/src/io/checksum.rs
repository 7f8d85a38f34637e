//! The two-level chunked checksum of binary snapshot v3, and the plain
//! byte-wise [`fnv1a64`] the rest of the workspace shares.
//!
//! Definition: the protected byte stream is cut into fixed
//! [`CHECKSUM_CHUNK`]-sized chunks (the final chunk may be short; an empty
//! stream has no chunks). Each chunk is digested by an FNV-style *word fold*:
//! the chunk is split into 8-byte little-endian words (the final partial word
//! zero-padded), each word is folded into a running hash `h = (h ^ word) *
//! FNV_PRIME` starting from the FNV-1a64 offset basis, and the chunk's byte
//! length is folded in last (so zero-padding cannot alias a shorter chunk).
//! The stored checksum is the same word fold over the sequence of per-chunk
//! digests.
//!
//! Why not plain byte-wise FNV-1a64 over the file? A byte-at-a-time FNV is an
//! inherently serial multiply-per-byte dependency chain — one ~3-cycle
//! 64-bit multiply per input byte, ~0.7 GB/s no matter how wide the machine
//! is. Folding whole words costs one multiply per **8 bytes**, and the fixed
//! chunk boundaries make the per-chunk chains independent:
//! [`chunked_checksum`] advances four chunk digests through one core's
//! pipeline simultaneously (the multiplies overlap in the out-of-order
//! window), and large inputs spread those groups of four across the
//! [`crate::par`] workers, so open-time verification runs at memory
//! bandwidth instead of gating the zero-copy design. The writer
//! ([`ChunkedFnv`]) stays strictly streaming — it never needs the file in
//! memory, only one pending word and the current chunk's running hash.
//!
//! The result is deterministic: the chunk and word decomposition is a pure
//! function of the stream length, and digests are always combined in chunk
//! order, so every thread count (and the serial fallback) produces identical
//! bytes.

use crate::par::{self, map_reduce_chunks, Parallelism};

/// Fixed chunk width of the two-level checksum (1 MiB — a multiple of the
/// 8-byte word size, so chunk boundaries are always word boundaries). Part of
/// the v3 format: changing it changes every stored checksum.
const CHECKSUM_CHUNK: usize = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain byte-wise FNV-1a 64 over `bytes` — the integrity check of the
/// `GTSC` scene stream and the server's key-derived ETags. Deliberately
/// simple and dependency-free: it guards against truncation and bit rot,
/// not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Digest one whole chunk: word fold over its 8-byte words (partial last word
/// zero-padded), then the byte length.
fn chunk_digest(chunk: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let words = chunk.len() / 8;
    for i in 0..words {
        hash = fold(hash, word_at(chunk, i * 8));
    }
    let tail = &chunk[words * 8..];
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        hash = fold(hash, u64::from_le_bytes(buf));
    }
    fold(hash, chunk.len() as u64)
}

/// Streaming state of the two-level checksum — feed bytes in any split with
/// [`update`](Self::update), read the final checksum with
/// [`finish`](Self::finish).
#[derive(Clone, Debug)]
pub(crate) struct ChunkedFnv {
    digests: Vec<u64>,
    hash: u64,
    /// Bytes folded into `hash` so far this chunk (always a multiple of 8
    /// while `pending` holds the in-progress word).
    chunk_fill: usize,
    pending: [u8; 8],
    pending_len: usize,
}

impl ChunkedFnv {
    pub(crate) fn new() -> Self {
        ChunkedFnv {
            digests: Vec::new(),
            hash: FNV_OFFSET,
            chunk_fill: 0,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    fn end_chunk(&mut self) {
        self.digests.push(fold(self.hash, self.chunk_fill as u64));
        self.hash = FNV_OFFSET;
        self.chunk_fill = 0;
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        // Complete a word left pending by an unaligned previous update.
        // Chunk boundaries are word-aligned, so a completed word never
        // straddles one.
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(rest.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&rest[..take]);
            self.pending_len += take;
            rest = &rest[take..];
            if self.pending_len < 8 {
                return;
            }
            self.hash = fold(self.hash, u64::from_le_bytes(self.pending));
            self.pending_len = 0;
            self.chunk_fill += 8;
            if self.chunk_fill == CHECKSUM_CHUNK {
                self.end_chunk();
            }
        }
        while !rest.is_empty() {
            let room = CHECKSUM_CHUNK - self.chunk_fill;
            let words = rest.len().min(room) / 8;
            for i in 0..words {
                self.hash = fold(self.hash, word_at(rest, i * 8));
            }
            self.chunk_fill += words * 8;
            rest = &rest[words * 8..];
            if self.chunk_fill == CHECKSUM_CHUNK {
                self.end_chunk();
                continue;
            }
            // Fewer than 8 bytes remain: stash them for the next update.
            self.pending[..rest.len()].copy_from_slice(rest);
            self.pending_len = rest.len();
            break;
        }
    }

    pub(crate) fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            let mut buf = [0u8; 8];
            buf[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            self.hash = fold(self.hash, u64::from_le_bytes(buf));
            self.chunk_fill += self.pending_len;
        }
        if self.chunk_fill > 0 {
            self.end_chunk();
        }
        combine(&self.digests)
    }
}

/// Word fold over the per-chunk digests — the second level of the checksum.
fn combine(digests: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &digest in digests {
        hash = fold(hash, digest);
    }
    fold(hash, digests.len() as u64)
}

fn chunk_of(body: &[u8], index: usize) -> &[u8] {
    &body[index * CHECKSUM_CHUNK..((index + 1) * CHECKSUM_CHUNK).min(body.len())]
}

/// Digest four full-width chunks through one pipeline: the four fold chains
/// are independent, so their long-latency multiplies overlap.
fn digest_x4(a: &[u8], b: &[u8], c: &[u8], d: &[u8]) -> [u64; 4] {
    let a = &a[..CHECKSUM_CHUNK];
    let b = &b[..CHECKSUM_CHUNK];
    let c = &c[..CHECKSUM_CHUNK];
    let d = &d[..CHECKSUM_CHUNK];
    let mut h = [FNV_OFFSET; 4];
    for i in 0..CHECKSUM_CHUNK / 8 {
        let at = i * 8;
        h[0] = fold(h[0], word_at(a, at));
        h[1] = fold(h[1], word_at(b, at));
        h[2] = fold(h[2], word_at(c, at));
        h[3] = fold(h[3], word_at(d, at));
    }
    h.map(|hash| fold(hash, CHECKSUM_CHUNK as u64))
}

/// Digest the chunks `first_chunk..first_chunk + out.len()` of `body` into
/// `out`, four at a time where the chunks are full-width.
fn digest_range(body: &[u8], first_chunk: usize, out: &mut [u64]) {
    let mut i = 0;
    while i < out.len() {
        if i + 4 <= out.len() {
            let last = chunk_of(body, first_chunk + i + 3);
            // Only the file's final chunk can be short, so a full-width
            // fourth chunk means all four are full-width.
            if last.len() == CHECKSUM_CHUNK {
                let h = digest_x4(
                    chunk_of(body, first_chunk + i),
                    chunk_of(body, first_chunk + i + 1),
                    chunk_of(body, first_chunk + i + 2),
                    last,
                );
                out[i..i + 4].copy_from_slice(&h);
                i += 4;
                continue;
            }
        }
        out[i] = chunk_digest(chunk_of(body, first_chunk + i));
        i += 1;
    }
}

/// Compute the two-level checksum of `body` — the verification-side
/// counterpart of [`ChunkedFnv`]. The [`crate::par`] engine digests groups
/// of four chunks (each group one [`digest_x4`] interleave) at
/// [`Parallelism::auto`] above the serial size gate; the digests combine in
/// chunk order, so every thread count gives the same checksum.
pub(crate) fn chunked_checksum(body: &[u8]) -> u64 {
    let chunk_count = body.len().div_ceil(CHECKSUM_CHUNK);
    let parallelism = par::for_scan(body.len(), Parallelism::auto);
    let digests = map_reduce_chunks(
        parallelism,
        chunk_count.div_ceil(4),
        |groups| {
            let first_chunk = 4 * groups.start;
            let mut digests = vec![0u64; (4 * groups.end).min(chunk_count) - first_chunk];
            digest_range(body, first_chunk, &mut digests);
            digests
        },
        |mut all, more| {
            all.extend(more);
            all
        },
    );
    combine(&digests.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Chunk-by-chunk reference implementation: no interleave, no threads.
    fn reference(body: &[u8]) -> u64 {
        let digests: Vec<u64> = body.chunks(CHECKSUM_CHUNK).map(chunk_digest).collect();
        combine(&digests)
    }

    fn arbitrary_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ len as u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn streaming_interleaved_and_reference_agree() {
        // Lengths straddling every boundary case: empty, sub-word, sub-chunk,
        // exact multiples, the 4-chunk interleave width, word-unaligned
        // tails, and a short tail chunk.
        for len in [
            0,
            1,
            7,
            8,
            9,
            CHECKSUM_CHUNK - 1,
            CHECKSUM_CHUNK,
            CHECKSUM_CHUNK + 1,
            3 * CHECKSUM_CHUNK,
            4 * CHECKSUM_CHUNK,
            4 * CHECKSUM_CHUNK + 9,
            5 * CHECKSUM_CHUNK + CHECKSUM_CHUNK / 2,
            9 * CHECKSUM_CHUNK + 3,
        ] {
            let body = arbitrary_bytes(len);
            let expected = reference(&body);
            assert_eq!(chunked_checksum(&body), expected, "len {len}");
            // Streaming writer fed in word-unaligned splits.
            let mut writer = ChunkedFnv::new();
            for piece in body.chunks(1_000_003) {
                writer.update(piece);
            }
            assert_eq!(writer.finish(), expected, "streaming, len {len}");
            // And byte at a time over a smaller prefix (full pass is slow).
            let prefix = &body[..len.min(CHECKSUM_CHUNK + 21)];
            let mut writer = ChunkedFnv::new();
            for &b in prefix {
                writer.update(std::slice::from_ref(&b));
            }
            assert_eq!(writer.finish(), reference(prefix), "byte-wise, len {len}");
        }
    }

    #[test]
    fn every_byte_influences_the_checksum() {
        let mut body = arbitrary_bytes(2 * CHECKSUM_CHUNK + 17);
        let baseline = chunked_checksum(&body);
        for at in [0, 1, 7, CHECKSUM_CHUNK - 1, CHECKSUM_CHUNK, 2 * CHECKSUM_CHUNK + 16] {
            body[at] ^= 0x40;
            assert_ne!(chunked_checksum(&body), baseline, "flip at {at} undetected");
            body[at] ^= 0x40;
        }
        assert_eq!(chunked_checksum(&body), baseline);
    }

    #[test]
    fn trailing_zeros_change_the_checksum() {
        // The length fold keeps zero-padding from aliasing a shorter stream.
        let body = arbitrary_bytes(CHECKSUM_CHUNK / 2);
        let mut padded = body.clone();
        padded.push(0);
        assert_ne!(chunked_checksum(&body), chunked_checksum(&padded));
        assert_ne!(chunked_checksum(&[]), chunked_checksum(&[0]));
    }

    #[test]
    fn empty_stream_is_the_digest_of_no_chunks() {
        assert_eq!(chunked_checksum(&[]), combine(&[]));
        assert_eq!(ChunkedFnv::new().finish(), combine(&[]));
    }
}
