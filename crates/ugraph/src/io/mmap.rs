//! A minimal read-only memory-map shim.
//!
//! The offline build has no `memmap2`, so this module talks to the platform
//! directly: on Unix it declares `mmap`/`munmap` itself (the symbols are
//! already linked through `std`) and maps files `PROT_READ | MAP_PRIVATE`; on
//! every other platform — or whenever the syscall fails — it falls back to
//! reading the file into an 8-byte-aligned heap buffer. Both paths hand out
//! the same [`MappedBytes`] type, so callers see zero behavioral difference,
//! only residency: a mapping is paged in lazily by the kernel and shared
//! between processes, the heap fallback is a private RAM copy.
//!
//! Alignment contract: the start of a [`MappedBytes`] buffer is always at
//! least 8-byte aligned (pages are 4 KiB-aligned; the heap fallback allocates
//! `u64` words). Snapshot v3 places every section payload at an 8-byte offset
//! from the start, so `u64`/`f64` reinterpretation never sees a misaligned
//! pointer.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

/// A read-only byte buffer backed by either a memory-mapped file or an
/// aligned heap allocation. Dereferences to `&[u8]`.
pub struct MappedBytes {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Heap(AlignedHeap),
}

/// Heap buffer with guaranteed 8-byte alignment: `Vec<u8>` only guarantees
/// byte alignment, so the storage is a `Vec<u64>` viewed as bytes.
struct AlignedHeap {
    words: Vec<u64>,
    len: usize,
}

impl AlignedHeap {
    fn read_from(file: &mut File, len: usize) -> std::io::Result<AlignedHeap> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // View the word storage as bytes for the read; the tail padding of the
        // last partial word stays zero.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        file.read_exact(&mut bytes[..len])?;
        Ok(AlignedHeap { words, len })
    }

    fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

// SAFETY: the mmap variant is a read-only (`PROT_READ`) private mapping that
// is never mutated or remapped for the lifetime of the value, so shared
// references to its bytes are as safe to send and share as `&[u8]` of a
// heap buffer. The heap variant is ordinary owned memory.
#[cfg(unix)]
unsafe impl Send for MappedBytes {}
#[cfg(unix)]
unsafe impl Sync for MappedBytes {}

#[cfg(unix)]
mod sys {
    //! Just enough of the C mmap interface. `std` already links the platform
    //! libc, so declaring the two symbols is all the "vendoring" needed.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    /// Prefault the whole mapping at `mmap` time (Linux only). One bulk
    /// populate with kernel readahead is far cheaper than the thousands of
    /// demand faults the open-time checksum/validation scan would otherwise
    /// take; advisory, so `mmap` still succeeds if it cannot populate.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: c_int = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: c_int = 0;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl MappedBytes {
    /// Map `path` read-only, falling back to an aligned heap read if mapping
    /// is unavailable (non-Unix platform, empty file, or a failed syscall).
    pub fn map_file(path: &Path) -> std::io::Result<MappedBytes> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file too large for this address space",
            ));
        }
        let len = len as usize;
        #[cfg(unix)]
        if len > 0 {
            if let Some(mapped) = Self::try_mmap(&file, len) {
                return Ok(mapped);
            }
        }
        Self::read_file(&mut file, len)
    }

    /// Copy an in-memory buffer into the aligned heap representation —
    /// primarily for tests that build snapshots without touching disk.
    pub fn from_bytes(bytes: &[u8]) -> MappedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        dst[..bytes.len()].copy_from_slice(bytes);
        MappedBytes { inner: Inner::Heap(AlignedHeap { words, len: bytes.len() }) }
    }

    #[cfg(unix)]
    fn try_mmap(file: &File, len: usize) -> Option<MappedBytes> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE | sys::MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is -1; also refuse (never observed) misaligned mappings
        // so the zero-copy reinterpret path can rely on 8-byte alignment.
        if ptr == usize::MAX as *mut _ || ptr.is_null() || (ptr as usize) % 8 != 0 {
            return None;
        }
        Some(MappedBytes { inner: Inner::Mmap { ptr: ptr as *const u8, len } })
    }

    fn read_file(file: &mut File, len: usize) -> std::io::Result<MappedBytes> {
        Ok(MappedBytes { inner: Inner::Heap(AlignedHeap::read_from(file, len)?) })
    }

    /// Whether the bytes are a live kernel mapping (`false` means the heap
    /// fallback holds a private copy).
    pub fn is_memory_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mmap { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            // SAFETY: ptr/len come from a successful mmap that lives until
            // Drop; the mapping is read-only and never resized.
            #[cfg(unix)]
            Inner::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Heap(heap) => heap.as_slice(),
        }
    }
}

impl Drop for MappedBytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mmap { ptr, len } = &self.inner {
            // SAFETY: unmapping the exact region returned by mmap, once.
            unsafe {
                sys::munmap(*ptr as *mut _, *len);
            }
        }
    }
}

impl std::fmt::Debug for MappedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedBytes")
            .field("len", &self.len())
            .field("memory_mapped", &self.is_memory_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ugraph-mmap-test-{}-{name}", std::process::id()));
        p
    }

    /// The heap fallback `map_file` takes when it cannot map.
    fn read_to_heap(path: &Path) -> MappedBytes {
        let mut file = File::open(path).unwrap();
        let len = file.metadata().unwrap().len() as usize;
        MappedBytes::read_file(&mut file, len).unwrap()
    }

    #[test]
    fn mapped_and_heap_reads_agree() {
        let path = temp_path("agree");
        let payload: Vec<u8> = (0..=255u8).cycle().take(12_345).collect();
        std::fs::write(&path, &payload).unwrap();
        let mapped = MappedBytes::map_file(&path).unwrap();
        let heap = read_to_heap(&path);
        assert_eq!(&*mapped, &payload[..]);
        assert_eq!(&*heap, &payload[..]);
        assert!(!heap.is_memory_mapped());
        #[cfg(unix)]
        assert!(mapped.is_memory_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffers_are_eight_byte_aligned() {
        let path = temp_path("aligned");
        std::fs::write(&path, [7u8; 31]).unwrap();
        for buf in [MappedBytes::map_file(&path).unwrap(), read_to_heap(&path)] {
            assert_eq!(buf.as_ptr() as usize % 8, 0);
            assert_eq!(buf.len(), 31);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_and_from_bytes() {
        let path = temp_path("empty");
        std::fs::write(&path, []).unwrap();
        let buf = MappedBytes::map_file(&path).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&path).unwrap();
        let copied = MappedBytes::from_bytes(b"hello");
        assert_eq!(&*copied, b"hello");
        assert!(!copied.is_memory_mapped());
    }
}
