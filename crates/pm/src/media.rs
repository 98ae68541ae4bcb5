/// Raw simulated PM media: a flat byte array supporting concurrent access
/// from multiple threads, like real memory-mapped PM.
///
/// # Safety contract
///
/// `Media` deliberately mirrors the semantics of an `mmap`ed device: it
/// performs no synchronisation of its own. Callers (the allocator, the
/// transaction engine, the data structures built on top) must guarantee that
/// concurrently executing writes never overlap reads or writes of the same
/// byte range, exactly as they must on real hardware. All higher layers in
/// this workspace uphold that contract with locks around shared metadata and
/// ownership of object payloads.
pub(crate) struct Media {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: see the struct-level safety contract — disjointness of concurrent
// accesses is delegated to callers, matching raw memory semantics.
unsafe impl Sync for Media {}
unsafe impl Send for Media {}

impl Media {
    pub(crate) fn zeroed(size: usize) -> Self {
        Media::from_bytes(vec![0u8; size])
    }

    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Self {
        let boxed: Box<[u8]> = bytes.into_boxed_slice();
        let len = boxed.len();
        let ptr = Box::into_raw(boxed) as *mut u8;
        Media { ptr, len }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Copy `buf.len()` bytes starting at `off` into `buf`.
    ///
    /// Caller must have validated bounds.
    pub(crate) fn read(&self, off: usize, buf: &mut [u8]) {
        debug_assert!(off + buf.len() <= self.len);
        // SAFETY: bounds validated by caller; concurrent disjointness is the
        // caller's contract (see struct docs).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), buf.as_mut_ptr(), buf.len());
        }
    }

    /// Copy `data` into the media starting at `off`.
    ///
    /// Caller must have validated bounds.
    pub(crate) fn write(&self, off: usize, data: &[u8]) {
        debug_assert!(off + data.len() <= self.len);
        // SAFETY: as in `read`.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(off), data.len());
        }
    }

    /// Fill `len` bytes starting at `off` with `byte`.
    pub(crate) fn fill(&self, off: usize, byte: u8, len: usize) {
        debug_assert!(off + len <= self.len);
        // SAFETY: as in `read`.
        unsafe {
            std::ptr::write_bytes(self.ptr.add(off), byte, len);
        }
    }

    /// Ask the cache for every line of `[off, off + len)`, ahead of the
    /// reads that will need them. A hint, not an access: nothing is copied,
    /// and on a target without a stable prefetch intrinsic it does nothing.
    ///
    /// Caller must have validated bounds.
    pub(crate) fn prefetch(&self, off: usize, len: usize) {
        debug_assert!(off + len <= self.len);
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let end = self.ptr.wrapping_add(off + len);
            let first = self.ptr.wrapping_add(off);
            // From the start of the line holding `off`, so a range that
            // begins mid-line still covers its last line.
            let mut line = first.wrapping_sub(first as usize % 64);
            while line < end {
                // SAFETY: `PREFETCHT0` is a hint: it never faults and is
                // not a load in the memory model, so `line` need not be
                // dereferenceable (the first line may begin before the
                // allocation); `wrapping_*` keeps the arithmetic defined.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
                line = line.wrapping_add(64);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (off, len);
    }

    /// Ask for `[off, off + len)` to be backed by huge pages; see
    /// [`advise_huge`]. A hint, not an access.
    ///
    /// Caller must have validated bounds.
    pub(crate) fn advise_huge(&self, off: usize, len: usize) {
        debug_assert!(off + len <= self.len);
        advise_huge(self.ptr.wrapping_add(off), len);
    }

    /// Snapshot the entire media contents.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        let mut out = image_buffer(self.len);
        self.read(0, &mut out);
        out
    }
}

/// Bytes in a transparent huge page: the unit in which the kernel backs a
/// range advised with `MADV_HUGEPAGE`, and the alignment PMDK gives a DAX
/// pool's mapping so that it can.
const HUGE_PAGE: usize = 2 << 20;

/// The whole huge pages inside the addresses `[start, end)`: `start`
/// rounded up and `end` rounded down to [`HUGE_PAGE`]; empty when no whole
/// page fits.
fn huge_span(start: usize, end: usize) -> std::ops::Range<usize> {
    let hi = end - end % HUGE_PAGE;
    match start.checked_next_multiple_of(HUGE_PAGE) {
        Some(lo) if lo < hi => lo..hi,
        _ => 0..0,
    }
}

/// Ask the kernel to back the whole huge pages inside `[start, start + len)`
/// with huge pages (`MADV_HUGEPAGE`), as a DAX pool's 2 MiB-aligned mapping
/// is; a range holding no whole page makes no call. A hint, not an access:
/// nothing is read or written, the contents stay as they are, and a kernel
/// with transparent huge pages off ignores it. Other targets have no such
/// call and do nothing.
pub(crate) fn advise_huge(start: *const u8, len: usize) {
    let span = huge_span(start as usize, (start as usize).saturating_add(len));
    if span.is_empty() {
        return;
    }
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::ffi::c_void;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        // SAFETY: `span` lies inside `[start, start + len)`, memory the
        // caller owns, so the advice flags no page of anyone else's.
        // `MADV_HUGEPAGE` changes no contents and unmaps nothing; its
        // result is ignored because a refused hint changes nothing.
        unsafe { madvise(span.start as *mut c_void, span.len(), MADV_HUGEPAGE) };
    }
}

/// A zeroed buffer of `len` bytes that the caller is about to fill
/// completely, advised onto huge pages before the first write. The fill
/// touches every page anyway, so the advice adds no residency.
pub(crate) fn image_buffer(len: usize) -> Vec<u8> {
    let buf = vec![0u8; len];
    advise_huge(buf.as_ptr(), buf.len());
    buf
}

impl Drop for Media {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from `Box::into_raw` of a boxed slice of
        // exactly this length, and are dropped exactly once.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_roundtrip() {
        let m = Media::zeroed(128);
        assert_eq!(m.len(), 128);
        let mut buf = [0xAAu8; 16];
        m.read(0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        m.write(8, &[1, 2, 3, 4]);
        m.read(8, &mut buf[..4]);
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn fill_and_snapshot() {
        let m = Media::zeroed(64);
        m.fill(16, 0x5A, 8);
        let snap = m.snapshot();
        assert!(snap[16..24].iter().all(|&b| b == 0x5A));
        assert!(snap[..16].iter().all(|&b| b == 0));
        assert!(snap[24..].iter().all(|&b| b == 0));
    }

    #[test]
    fn from_bytes_preserves_contents() {
        let m = Media::from_bytes(vec![7u8; 32]);
        let mut b = [0u8; 32];
        m.read(0, &mut b);
        assert!(b.iter().all(|&x| x == 7));
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn huge_span_is_empty_below_one_huge_page() {
        assert!(huge_span(0, 2 * MIB - 1).is_empty());
        assert!(huge_span(4096, 4096 + 2 * MIB - 4096).is_empty());
        assert!(huge_span(0, 0).is_empty());
    }

    #[test]
    fn huge_span_is_empty_inside_one_huge_page() {
        // Spans 2 MiB and more, but crosses a boundary without holding a
        // whole page on either side of it.
        assert!(huge_span(3 * MIB, 5 * MIB).is_empty());
        assert!(huge_span(2 * MIB + 16, 4 * MIB).is_empty());
        assert!(huge_span(2 * MIB, 4 * MIB - 1).is_empty());
        assert!(huge_span(2 * MIB + 1, 6 * MIB - 1).is_empty());
    }

    #[test]
    fn huge_span_is_exact_at_aligned_and_unaligned_ends() {
        assert_eq!(huge_span(0, 2 * MIB), 0..2 * MIB);
        assert_eq!(huge_span(2 * MIB, 8 * MIB), 2 * MIB..8 * MIB);
        // Unaligned ends shrink to the whole pages inside.
        assert_eq!(huge_span(16, 8 * MIB + 16), 2 * MIB..8 * MIB);
        assert_eq!(huge_span(2 * MIB - 1, 6 * MIB + 1), 2 * MIB..6 * MIB);
        // No overflow at the top of the address space.
        assert!(huge_span(usize::MAX - 1, usize::MAX).is_empty());
    }

    #[test]
    fn advise_huge_keeps_the_contents() {
        let m = Media::zeroed(6 * MIB);
        m.fill(MIB, 0xA5, 4 * MIB);
        m.advise_huge(0, 6 * MIB);
        m.advise_huge(100, 3);
        let snap = m.snapshot();
        assert!(snap[..MIB].iter().all(|&b| b == 0));
        assert!(snap[MIB..5 * MIB].iter().all(|&b| b == 0xA5));
        assert!(snap[5 * MIB..].iter().all(|&b| b == 0));
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let m = Arc::new(Media::zeroed(4096));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let off = t as usize * 1024;
                m.fill(off, t + 1, 1024);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        for t in 0..4usize {
            assert!(snap[t * 1024..(t + 1) * 1024]
                .iter()
                .all(|&b| b == t as u8 + 1));
        }
    }
}
