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

    /// Snapshot the entire media contents.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.read(0, &mut out);
        out
    }
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
