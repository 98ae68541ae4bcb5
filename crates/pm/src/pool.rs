use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::contention::{self, LockCounter, ProfiledMutex};
use crate::error::PmError;
use crate::events::{EventLog, PmEvent, StoreState};
use crate::image::CrashImage;
use crate::latency::LatencyModel;
use crate::media::{self, Media};
use crate::stats::PmStats;
use crate::{PoolOffset, Result, VirtAddr, DEFAULT_POOL_BASE};

/// Cache-line size of the simulated device, in bytes.
pub const CACHE_LINE: u64 = 64;

thread_local! {
    /// Whether this thread has flushed on a latency-modelled pool since its
    /// last fence. `SFENCE` is per core: it waits for the issuing core's own
    /// posted `CLWB`s, so the owed drain is per thread, not per pool.
    static DRAIN_OWED: Cell<bool> = const { Cell::new(false) };
}

/// Durability-tracking mode of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// No store tracking: flushes and fences are no-ops and every store is
    /// immediately durable. Used for performance benchmarks, where tracking
    /// bookkeeping would distort measurements (the analogue of running on
    /// real hardware rather than under valgrind).
    #[default]
    Fast,
    /// Full store/flush/fence tracking with an event log. Crashes can be
    /// injected and the set of surviving stores explored. Used by the
    /// crash-consistency test suites.
    Tracked,
}

/// Which not-yet-persisted stores survive a simulated crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSpec {
    /// All unpersisted stores are lost (the adversarial minimum).
    DropUnpersisted,
    /// All stores survive (the lucky maximum — cache happened to write back).
    KeepAll,
    /// Exactly the stores whose sequence numbers appear in the list survive
    /// (in addition to all persisted stores).
    KeepSubset(Vec<u64>),
}

/// A durability boundary a tracked pool just crossed — the points where
/// the reachable crash-state space changes shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// A flush (`CLWB` analogue) was recorded. Stores it covered are now
    /// flushed-but-unfenced: they still may or may not survive a crash.
    Flush,
    /// A fence (`SFENCE` analogue) promoted every flushed store to durable.
    Fence,
}

/// Observer invoked after each tracked flush/fence, once the pool's
/// tracking lock has been released — so the callback may freely call
/// [`PmPool::crash_image`], [`PmPool::unpersisted_seqs`], etc.
///
/// The callback must not issue stores/flushes/fences on the *same* pool:
/// re-entrant boundaries are suppressed (the tap is taken out of its slot
/// for the duration of the call), so such activity would go unexplored.
pub type BoundaryTap = Box<dyn FnMut(&PmPool, Boundary) + Send>;

/// Configuration for creating a [`PmPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    size: u64,
    base: VirtAddr,
    mode: Mode,
    latency: LatencyModel,
    record_stats: bool,
}

impl PoolConfig {
    /// Start configuring a pool of `size` bytes.
    ///
    /// `size` is rounded up to a cache-line multiple.
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(CACHE_LINE) * CACHE_LINE;
        PoolConfig {
            size,
            base: DEFAULT_POOL_BASE,
            mode: Mode::Fast,
            latency: LatencyModel::none(),
            record_stats: true,
        }
    }

    /// Set the simulated virtual base address of the mapping.
    pub fn base(mut self, base: VirtAddr) -> Self {
        self.base = base;
        self
    }

    /// Set the durability-tracking mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the access latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Enable or disable access-statistics recording (default on).
    ///
    /// Multi-threaded throughput benchmarks disable it so shared counter
    /// cache-line traffic does not distort scaling.
    pub fn record_stats(mut self, on: bool) -> Self {
        self.record_stats = on;
        self
    }
}

#[derive(Debug)]
struct Tracked {
    log: EventLog,
    /// Per unpersisted store: byte ranges not yet covered by a flush.
    /// Indexed by position in `log.events` (only `Store` entries appear).
    unflushed: Vec<(usize, Vec<(u64, u64)>)>,
    /// Positions in `log.events` of stores that are flushed but unfenced.
    flushed: Vec<usize>,
}

/// A simulated persistent-memory pool mapped into the simulated address
/// space at [`PmPool::base`].
///
/// See the [crate-level documentation](crate) for the full model.
pub struct PmPool {
    base: VirtAddr,
    size: u64,
    media: Media,
    mode: Mode,
    track: ProfiledMutex<Tracked>,
    tap: Mutex<Option<BoundaryTap>>,
    /// Mirror of `tap.is_some()`, so the per-boundary dispatch can skip the
    /// tap mutex entirely while no tap is installed (the common case for
    /// every tracked pool outside the torture rig).
    tap_installed: AtomicBool,
    latency: LatencyModel,
    /// `!latency.is_none()`, precomputed so the access hot path is a single
    /// branch when no model is configured.
    has_latency: bool,
    /// Runtime latency gate: benches disable injection during setup
    /// (preload) and enable it only for the measured phase.
    latency_on: AtomicBool,
    stats: PmStats,
    record_stats: bool,
    /// Contention-profile event counters for durability boundaries.
    c_flush: &'static LockCounter,
    c_fence: &'static LockCounter,
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.size)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl PmPool {
    fn build(media: Media, size: u64, cfg: &PoolConfig) -> Self {
        PmPool {
            base: cfg.base,
            size,
            media,
            mode: cfg.mode,
            track: ProfiledMutex::with_name(
                "pm.track",
                Tracked {
                    log: EventLog::new(),
                    unflushed: Vec::new(),
                    flushed: Vec::new(),
                },
            ),
            tap: Mutex::new(None),
            tap_installed: AtomicBool::new(false),
            latency: cfg.latency,
            has_latency: !cfg.latency.is_none(),
            latency_on: AtomicBool::new(true),
            stats: PmStats::new(),
            record_stats: cfg.record_stats,
            c_flush: contention::counter("pm.flush"),
            c_fence: contention::counter("pm.fence"),
        }
    }

    /// Create a zero-initialised pool.
    pub fn new(cfg: PoolConfig) -> Self {
        Self::build(Media::zeroed(cfg.size as usize), cfg.size, &cfg)
    }

    /// Re-open a pool from a crash image, as if `mmap`ing the device after a
    /// reboot. The image's bytes become the durable contents.
    pub fn from_image(image: CrashImage, cfg: PoolConfig) -> Self {
        let bytes = image.into_bytes();
        let size = bytes.len() as u64;
        Self::build(Media::from_bytes(bytes), size, &cfg)
    }

    /// Simulated virtual address the pool is mapped at.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Pool size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Durability-tracking mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Access statistics (reads/writes/flushes/fences).
    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    /// Enable or disable latency injection at runtime (default on).
    ///
    /// Scaling benches disable injection while preloading a store and
    /// re-enable it for the measured phase, so setup cost does not scale
    /// with the configured device wait. No-op for pools built without a
    /// latency model.
    pub fn set_latency_enabled(&self, on: bool) {
        self.latency_on.store(on, Ordering::Relaxed);
    }

    #[inline]
    fn latency_active(&self) -> bool {
        self.has_latency && self.latency_on.load(Ordering::Relaxed)
    }

    /// Resolve a simulated virtual address range to a pool offset.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Fault`] if any byte of `[va, va + len)` lies
    /// outside this pool's mapping — the simulated SIGSEGV.
    pub fn resolve(&self, va: VirtAddr, len: usize) -> Result<PoolOffset> {
        let end = va
            .checked_add(len as u64)
            .ok_or(PmError::Fault { va, len })?;
        if va < self.base || end > self.base + self.size {
            return Err(PmError::Fault { va, len });
        }
        Ok(va - self.base)
    }

    /// The simulated virtual address of pool offset `off`.
    pub fn va_of(&self, off: PoolOffset) -> VirtAddr {
        self.base + off
    }

    #[inline]
    fn check_range(&self, off: PoolOffset, len: usize) -> Result<()> {
        if off
            .checked_add(len as u64)
            .is_none_or(|end| end > self.size)
        {
            return Err(self.out_of_range(off, len));
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, off: PoolOffset, len: usize) -> PmError {
        PmError::OutOfRange {
            off,
            len,
            pool_size: self.size,
        }
    }

    /// Load `buf.len()` bytes from pool offset `off`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfRange`] if the range exceeds the pool.
    #[inline]
    pub fn read(&self, off: PoolOffset, buf: &mut [u8]) -> Result<()> {
        self.check_range(off, buf.len())?;
        if self.latency_active() {
            self.latency.on_read(buf.len());
        }
        if self.record_stats {
            self.stats.record_read(buf.len());
        }
        self.media.read(off as usize, buf);
        Ok(())
    }

    /// Hint that `[off, off + len)` will be read soon, so its cache lines
    /// can be in flight before the [`read`](Self::read)s that need them.
    ///
    /// Not an access: it records no stats, logs no event, fires no boundary
    /// tap and charges no latency. The range is clamped to the pool, so an
    /// out-of-range hint is not an error.
    pub fn prefetch(&self, off: PoolOffset, len: u64) {
        let end = off.saturating_add(len).min(self.size);
        if off < end {
            self.media.prefetch(off as usize, (end - off) as usize);
        }
    }

    /// Hint that `[off, off + len)` is dense, long-lived memory that should
    /// sit on 2 MiB pages, as a DAX pool's mapping does: on Linux, the whole
    /// huge pages inside the range's memory are advised `MADV_HUGEPAGE`
    /// (a range holding none makes no call); elsewhere it does nothing.
    ///
    /// Not an access: it records no stats, logs no event, fires no boundary
    /// tap and charges no latency. The range is clamped to the pool, so an
    /// out-of-range hint is not an error.
    pub fn advise_huge(&self, off: PoolOffset, len: u64) {
        let end = off.saturating_add(len).min(self.size);
        if off < end {
            self.media.advise_huge(off as usize, (end - off) as usize);
        }
    }

    /// Store `data` at pool offset `off`.
    ///
    /// In [`Mode::Tracked`], the store is recorded as *dirty*: it is not
    /// durable until covered by [`flush`](Self::flush) + [`fence`](Self::fence).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfRange`] if the range exceeds the pool.
    #[inline]
    pub fn write(&self, off: PoolOffset, data: &[u8]) -> Result<()> {
        self.check_range(off, data.len())?;
        if self.latency_active() {
            self.latency.on_write(data.len());
        }
        if self.record_stats {
            self.stats.record_write(data.len());
        }
        if self.mode == Mode::Tracked {
            self.track_store(off, data);
        }
        self.media.write(off as usize, data);
        Ok(())
    }

    /// Log a store about to overwrite `[off, off + data.len())` as dirty,
    /// keeping the bytes it replaces. Tracked mode only, before the media
    /// write.
    #[cold]
    #[inline(never)]
    fn track_store(&self, off: PoolOffset, data: &[u8]) {
        let mut t = self.track.lock();
        let mut old = vec![0u8; data.len()];
        self.media.read(off as usize, &mut old);
        t.log.push(|seq| PmEvent::Store {
            seq,
            off,
            old: old.into_boxed_slice(),
            new: data.to_vec().into_boxed_slice(),
            state: StoreState::Dirty,
        });
        let idx = t.log.events.len() - 1;
        t.unflushed
            .push((idx, vec![(off, off + data.len() as u64)]));
    }

    /// Store a fill pattern, equivalent to `memset`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfRange`] if the range exceeds the pool.
    pub fn fill(&self, off: PoolOffset, byte: u8, len: usize) -> Result<()> {
        // Route through `write` so tracked mode records old bytes. Fill sizes
        // in this workspace are small (allocator headers, redzones).
        if self.mode == Mode::Tracked {
            self.write(off, &vec![byte; len])
        } else {
            self.check_range(off, len)?;
            if self.latency_active() {
                self.latency.on_write(len);
            }
            if self.record_stats {
                self.stats.record_write(len);
            }
            self.media.fill(off as usize, byte, len);
            Ok(())
        }
    }

    /// Flush the cache lines covering `[off, off + len)` (`CLWB` analogue).
    ///
    /// The flush is posted: on latency-modelled media it costs no wait
    /// itself, but leaves the calling thread owing one drain, which its next
    /// [`fence`](Self::fence) pays.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfRange`] if the range exceeds the pool.
    #[inline]
    pub fn flush(&self, off: PoolOffset, len: usize) -> Result<()> {
        self.check_range(off, len)?;
        self.c_flush.record_event();
        if self.latency_active() {
            DRAIN_OWED.set(true);
        }
        if self.record_stats {
            self.stats.record_flush();
        }
        if self.mode == Mode::Tracked {
            self.track_flush(off, len);
        }
        Ok(())
    }

    /// Log a flush of the lines covering `[off, off + len)`, mark every
    /// store it completes as flushed, then fire the tap. Tracked mode only.
    #[cold]
    #[inline(never)]
    fn track_flush(&self, off: PoolOffset, len: usize) {
        let lo = off / CACHE_LINE * CACHE_LINE;
        let hi = (off + len as u64).div_ceil(CACHE_LINE) * CACHE_LINE;
        {
            let mut t = self.track.lock();
            t.log.push(|seq| PmEvent::Flush {
                seq,
                off: lo,
                len: hi - lo,
            });
            let mut newly_flushed = Vec::new();
            for (idx, ranges) in t.unflushed.iter_mut() {
                subtract_range(ranges, lo, hi);
                if ranges.is_empty() {
                    newly_flushed.push(*idx);
                }
            }
            t.unflushed.retain(|(_, ranges)| !ranges.is_empty());
            for idx in newly_flushed {
                if let PmEvent::Store { state, .. } = &mut t.log.events[idx] {
                    *state = StoreState::Flushed;
                }
                t.flushed.push(idx);
            }
        }
        self.fire_tap(Boundary::Flush);
    }

    /// Issue a store fence (`SFENCE` analogue): all flushed stores become
    /// durable.
    ///
    /// On latency-modelled media the fence waits for the write-pending queue
    /// to drain: one `flush_wait_ns` if this thread flushed since its last
    /// fence, nothing otherwise.
    #[inline]
    pub fn fence(&self) {
        self.c_fence.record_event();
        if self.latency_active() && DRAIN_OWED.replace(false) {
            self.latency.on_drain();
        }
        if self.record_stats {
            self.stats.record_fence();
        }
        if self.mode == Mode::Tracked {
            self.track_fence();
        }
    }

    /// Log a fence, promote every flushed store to persisted, then fire the
    /// tap. Tracked mode only.
    #[cold]
    #[inline(never)]
    fn track_fence(&self) {
        {
            let mut t = self.track.lock();
            t.log.push(|seq| PmEvent::Fence { seq });
            let flushed = std::mem::take(&mut t.flushed);
            for idx in flushed {
                if let PmEvent::Store { state, .. } = &mut t.log.events[idx] {
                    *state = StoreState::Persisted;
                }
            }
        }
        self.fire_tap(Boundary::Fence);
    }

    /// Install a [`BoundaryTap`], replacing any previous one. Only fires in
    /// [`Mode::Tracked`]. The crash-consistency torture rig uses this to
    /// explore crash states at every durability boundary.
    ///
    /// Must not be called from *inside* a tap callback on the same pool: the
    /// slot is empty for the duration of the call (that is how re-entrant
    /// boundaries are suppressed), so a nested install would silently
    /// *replace* the running tap when it returns. Debug builds catch this
    /// with an assertion in the dispatch path; swap taps between boundaries
    /// instead — e.g. from the workload thread after
    /// [`PmPool::clear_boundary_tap`].
    pub fn set_boundary_tap(&self, tap: BoundaryTap) {
        *self.tap.lock() = Some(tap);
        self.tap_installed.store(true, Ordering::Release);
    }

    /// Remove the installed [`BoundaryTap`], returning it if present.
    pub fn clear_boundary_tap(&self) -> Option<BoundaryTap> {
        let taken = self.tap.lock().take();
        self.tap_installed.store(false, Ordering::Release);
        taken
    }

    /// Invoke the tap with the tracking lock released. The tap is taken out
    /// of its slot for the duration of the call, so re-entrant boundaries
    /// (a tap writing to this same pool) are silently suppressed rather
    /// than deadlocking or recursing.
    ///
    /// Fast path: when no tap was ever installed (every tracked pool
    /// outside the torture rig), a relaxed flag load skips the tap mutex —
    /// boundaries on tap-free pools never serialize here.
    fn fire_tap(&self, boundary: Boundary) {
        if !self.tap_installed.load(Ordering::Acquire) {
            return;
        }
        let taken = self.tap.lock().take();
        if let Some(mut f) = taken {
            f(self, boundary);
            let mut slot = self.tap.lock();
            // The slot must still be empty: a tap installing another tap
            // from inside its own callback (or a racing install from a
            // second thread mid-call) would silently displace the running
            // tap — a re-entrancy bug in the caller, not a supported
            // hand-over point. A tap also cannot *uninstall* itself from
            // inside the callback (the slot is already empty during the
            // call) — stop via captured state instead.
            debug_assert!(
                slot.is_none(),
                "boundary tap replaced while a tap was running: \
                 set_boundary_tap must not be called from inside a tap \
                 callback (install taps between boundaries instead)"
            );
            if slot.is_none() {
                *slot = Some(f);
                // A clear racing with the call flipped the flag off while
                // the slot was empty; the slot is occupied again, so the
                // fast-path flag must agree.
                self.tap_installed.store(true, Ordering::Release);
            }
        }
    }

    /// Flush and fence in one call (`pmem_persist` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfRange`] if the range exceeds the pool.
    #[inline]
    pub fn persist(&self, off: PoolOffset, len: usize) -> Result<()> {
        self.flush(off, len)?;
        self.fence();
        Ok(())
    }

    /// Record an application-level marker in the event log (no-op in
    /// [`Mode::Fast`]).
    #[inline]
    pub fn mark(&self, label: impl Into<String>) {
        if self.mode == Mode::Tracked {
            self.track_mark(label.into());
        }
    }

    #[cold]
    #[inline(never)]
    fn track_mark(&self, label: String) {
        let mut t = self.track.lock();
        t.log.push(|seq| PmEvent::Mark { seq, label });
    }

    /// Discard all tracking state, treating the current contents as the
    /// durable baseline. Call at a quiescent point (everything persisted) —
    /// typically right after pool setup — so subsequent crash exploration
    /// starts from application activity rather than device formatting.
    pub fn reset_tracking(&self) {
        if self.mode != Mode::Tracked {
            return;
        }
        let mut t = self.track.lock();
        t.log = EventLog::new();
        t.unflushed.clear();
        t.flushed.clear();
    }

    /// Clone the current event log.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::NotTracked`] in [`Mode::Fast`].
    pub fn event_log(&self) -> Result<EventLog> {
        if self.mode != Mode::Tracked {
            return Err(PmError::NotTracked);
        }
        Ok(self.track.lock().log.clone())
    }

    /// Sequence numbers of stores that are not yet durable.
    pub fn unpersisted_seqs(&self) -> Vec<u64> {
        let t = self.track.lock();
        t.log
            .events
            .iter()
            .filter_map(|e| match e {
                PmEvent::Store { seq, state, .. } if *state != StoreState::Persisted => Some(*seq),
                _ => None,
            })
            .collect()
    }

    /// Materialise the bytes that would survive a power failure right now.
    ///
    /// Persisted stores always survive. Unpersisted stores survive according
    /// to `spec`. In [`Mode::Fast`] every store is durable, so the image is
    /// simply the current contents. The image's buffer is advised onto huge
    /// pages before it is filled, so a pool reopened from it sits on the
    /// same kind of pages as one [`advise_huge`](Self::advise_huge)d.
    pub fn crash_image(&self, spec: CrashSpec) -> CrashImage {
        let t = self.track.lock();
        let mut bytes = self.media.snapshot();
        if self.mode != Mode::Tracked {
            return CrashImage::new(bytes);
        }
        // Step 1: revert *every* store in reverse order, recovering the
        // image at tracking start. (Reverting only the unpersisted ones
        // would clobber persisted stores that later overlapped them.)
        for e in t.log.events.iter().rev() {
            if let PmEvent::Store { off, old, .. } = e {
                bytes[*off as usize..*off as usize + old.len()].copy_from_slice(old);
            }
        }
        // Step 2: replay survivors in program order — persisted stores
        // always, pending ones according to `spec`.
        for e in t.log.events.iter() {
            if let PmEvent::Store {
                seq,
                off,
                new,
                state,
                ..
            } = e
            {
                let survives = *state == StoreState::Persisted
                    || match &spec {
                        CrashSpec::DropUnpersisted => false,
                        CrashSpec::KeepAll => true,
                        CrashSpec::KeepSubset(seqs) => seqs.contains(seq),
                    };
                if survives {
                    bytes[*off as usize..*off as usize + new.len()].copy_from_slice(new);
                }
            }
        }
        CrashImage::new(bytes)
    }

    /// Snapshot the current (volatile-inclusive) contents. Useful for tests
    /// that want "what the program sees", not "what survives a crash".
    pub fn contents(&self) -> Vec<u8> {
        self.media.snapshot()
    }

    /// Persist the device image to a file (what `pmempool` would see on a
    /// real DAX file). Writes the *durable* bytes, as a clean shutdown
    /// would leave them.
    ///
    /// The image goes to the sibling `<path>.tmp` first, is synced, and
    /// only then renamed over `path`: a save that fails or is killed
    /// part-way leaves the previous image at `path` as it was.
    ///
    /// # Errors
    ///
    /// I/O errors; on any of them `path` is untouched.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let path = path.as_ref();
        let img = self.crash_image(CrashSpec::KeepAll);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        let saved = file
            .write_all(img.bytes())
            .and_then(|()| file.sync_all())
            .and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Load a device image previously written by [`PmPool::save_to_file`].
    /// The buffer it is read into is advised onto huge pages first (see
    /// [`advise_huge`](Self::advise_huge)), as a restarted DAX pool is mapped.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn load_from_file(
        path: impl AsRef<std::path::Path>,
        cfg: PoolConfig,
    ) -> std::io::Result<Self> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut bytes = media::image_buffer(file.metadata()?.len() as usize);
        file.read_exact(&mut bytes)?;
        Ok(PmPool::from_image(CrashImage::from_bytes(bytes), cfg))
    }
}

/// Remove `[lo, hi)` from a set of disjoint half-open ranges.
fn subtract_range(ranges: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    let mut out = Vec::with_capacity(ranges.len());
    for &(a, b) in ranges.iter() {
        if b <= lo || a >= hi {
            out.push((a, b));
        } else {
            if a < lo {
                out.push((a, lo));
            }
            if b > hi {
                out.push((hi, b));
            }
        }
    }
    *ranges = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked_pool() -> PmPool {
        PmPool::new(PoolConfig::new(4096).mode(Mode::Tracked))
    }

    #[test]
    fn subtract_range_cases() {
        let mut r = vec![(10, 20)];
        subtract_range(&mut r, 0, 5);
        assert_eq!(r, vec![(10, 20)]);
        subtract_range(&mut r, 12, 15);
        assert_eq!(r, vec![(10, 12), (15, 20)]);
        subtract_range(&mut r, 0, 100);
        assert!(r.is_empty());
    }

    /// One drain wait for the device-wait tests: long enough that a paid
    /// wait cannot hide in scheduling noise, short enough to keep the suite
    /// fast.
    const DRAIN: std::time::Duration = std::time::Duration::from_millis(10);

    fn wait_pool() -> PmPool {
        let ns = DRAIN.as_nanos() as u32;
        PmPool::new(PoolConfig::new(4096).latency(LatencyModel::device_wait(ns)))
    }

    fn timed(f: impl FnOnce()) -> std::time::Duration {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed()
    }

    #[test]
    fn coalesced_flushes_pay_one_device_wait() {
        // Flushes are posted; the fence drains them all in one wait, where
        // pricing each flush would cost eight.
        let pool = wait_pool();
        let flushes = timed(|| {
            for i in 0..8u64 {
                pool.flush(i * 64, 8).unwrap();
            }
        });
        assert!(flushes < DRAIN, "flushes waited: {flushes:?}");
        let fence = timed(|| pool.fence());
        assert!(fence >= DRAIN, "fence skipped the drain: {fence:?}");
        let total = flushes + fence;
        assert!(total < 4 * DRAIN, "paid per flush: {total:?}");
        assert_eq!(pool.stats().flushes(), 8);
    }

    #[test]
    fn fence_with_nothing_owed_is_free() {
        let pool = wait_pool();
        let idle = timed(|| pool.fence());
        assert!(idle < DRAIN, "fence with no flush waited: {idle:?}");
        // `persist` pays exactly one drain; the fence after it owes nothing.
        let persist = timed(|| pool.persist(0, 8).unwrap());
        assert!(persist >= DRAIN, "persist skipped the drain: {persist:?}");
        let again = timed(|| pool.fence());
        assert!(again < DRAIN, "second fence paid again: {again:?}");
    }

    #[test]
    fn drain_owed_by_one_thread_is_not_paid_by_another() {
        // SFENCE waits for its own core's flushes only.
        let pool = wait_pool();
        pool.flush(0, 8).unwrap();
        let other = std::thread::scope(|s| s.spawn(|| timed(|| pool.fence())).join().unwrap());
        assert!(other < DRAIN, "another thread paid the drain: {other:?}");
        let own = timed(|| pool.fence());
        assert!(own >= DRAIN, "the owing thread skipped it: {own:?}");
    }

    #[test]
    fn fast_mode_everything_durable() {
        let pool = PmPool::new(PoolConfig::new(1024));
        pool.write(0, &[1, 2, 3]).unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[..3], &[1, 2, 3]);
    }

    #[test]
    fn unflushed_store_lost_on_crash() {
        let pool = tracked_pool();
        pool.write(100, &[0xAB; 8]).unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[100..108], &[0u8; 8]);
        let img = pool.crash_image(CrashSpec::KeepAll);
        assert_eq!(&img.bytes()[100..108], &[0xAB; 8]);
    }

    #[test]
    fn flush_without_fence_still_volatile() {
        let pool = tracked_pool();
        pool.write(0, &[7; 4]).unwrap();
        pool.flush(0, 4).unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[..4], &[0u8; 4]);
    }

    #[test]
    fn persist_makes_durable() {
        let pool = tracked_pool();
        pool.write(0, &[7; 4]).unwrap();
        pool.persist(0, 4).unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[..4], &[7u8; 4]);
    }

    #[test]
    fn partial_flush_leaves_store_dirty() {
        let pool = tracked_pool();
        // Store spans two cache lines; flush only the first.
        pool.write(60, &[9; 8]).unwrap();
        pool.flush(60, 4).unwrap();
        pool.fence();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        // The whole store is dropped: it was never fully flushed.
        assert_eq!(&img.bytes()[60..68], &[0u8; 8]);
        // Completing the flush persists it.
        pool.flush(64, 4).unwrap();
        pool.fence();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[60..68], &[9u8; 8]);
    }

    #[test]
    fn overlapping_stores_subset_semantics() {
        let pool = tracked_pool();
        pool.write(0, &[1; 4]).unwrap(); // seq 0
        pool.write(0, &[2; 4]).unwrap(); // seq 1 (flush of A is seq.. actually stores get seqs 0 and 1)
        let seqs = pool.unpersisted_seqs();
        assert_eq!(seqs.len(), 2);
        // Keep only the *second* store: bytes must be the second store's.
        let img = pool.crash_image(CrashSpec::KeepSubset(vec![seqs[1]]));
        assert_eq!(&img.bytes()[..4], &[2u8; 4]);
        // Keep only the *first*: bytes revert to the first store's.
        let img = pool.crash_image(CrashSpec::KeepSubset(vec![seqs[0]]));
        assert_eq!(&img.bytes()[..4], &[1u8; 4]);
        // Keep neither.
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[..4], &[0u8; 4]);
    }

    #[test]
    fn resolve_faults_outside_mapping() {
        let pool = PmPool::new(PoolConfig::new(1024));
        let base = pool.base();
        assert!(pool.resolve(base, 8).is_ok());
        assert!(pool.resolve(base + 1016, 8).is_ok());
        assert_eq!(
            pool.resolve(base + 1017, 8),
            Err(PmError::Fault {
                va: base + 1017,
                len: 8
            })
        );
        assert_eq!(
            pool.resolve(base - 1, 1),
            Err(PmError::Fault {
                va: base - 1,
                len: 1
            })
        );
        // An address with bit 62 set (a kept overflow bit) always faults.
        let ov = (1u64 << 62) | base;
        assert!(matches!(pool.resolve(ov, 1), Err(PmError::Fault { .. })));
    }

    #[test]
    fn out_of_range_pool_relative() {
        let pool = PmPool::new(PoolConfig::new(128));
        let mut b = [0u8; 16];
        assert!(matches!(
            pool.read(120, &mut b),
            Err(PmError::OutOfRange { .. })
        ));
        assert!(matches!(
            pool.write(u64::MAX, &b),
            Err(PmError::OutOfRange { .. })
        ));
    }

    #[test]
    fn from_image_roundtrip() {
        let pool = tracked_pool();
        pool.write(10, b"persist").unwrap();
        pool.persist(10, 7).unwrap();
        pool.write(200, b"volatile").unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        let reopened = PmPool::from_image(img, PoolConfig::new(4096).mode(Mode::Tracked));
        let mut buf = [0u8; 7];
        reopened.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"persist");
        let mut buf = [0u8; 8];
        reopened.read(200, &mut buf).unwrap();
        assert_eq!(&buf, &[0u8; 8]);
    }

    #[test]
    fn event_log_records_marks() {
        let pool = tracked_pool();
        pool.mark("tx_begin");
        pool.write(0, &[1]).unwrap();
        pool.mark("tx_commit");
        let log = pool.event_log().unwrap();
        let labels: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                PmEvent::Mark { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec!["tx_begin", "tx_commit"]);
    }

    #[test]
    fn event_log_requires_tracked() {
        let pool = PmPool::new(PoolConfig::new(128));
        assert_eq!(pool.event_log().unwrap_err(), PmError::NotTracked);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("spp_pm_test_image.bin");
        let pool = PmPool::new(PoolConfig::new(4096));
        pool.write(100, b"durable-image").unwrap();
        pool.persist(100, 13).unwrap();
        pool.save_to_file(&dir).unwrap();
        let loaded = PmPool::load_from_file(&dir, PoolConfig::new(0)).unwrap();
        assert_eq!(loaded.size(), 4096);
        let mut b = [0u8; 13];
        loaded.read(100, &mut b).unwrap();
        assert_eq!(&b, b"durable-image");
        let _ = std::fs::remove_file(dir);
    }

    /// A temporary path unique to this process and test.
    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("spp_pm_{}_{name}", std::process::id()))
    }

    #[test]
    fn failed_save_keeps_the_previous_image() {
        let path = temp_file("failed_save.img");
        let tmp = temp_file("failed_save.img.tmp");
        let old = PmPool::new(PoolConfig::new(4096));
        old.write(100, b"first").unwrap();
        old.save_to_file(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // A directory where the temporary goes: the save fails before its
        // rename, and the image it would have replaced stays as it was.
        std::fs::create_dir(&tmp).unwrap();
        let new = PmPool::new(PoolConfig::new(8192));
        new.write(100, b"second").unwrap();
        assert!(new.save_to_file(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let loaded = PmPool::load_from_file(&path, PoolConfig::new(0)).unwrap();
        assert_eq!(loaded.size(), 4096);
        let mut b = [0u8; 5];
        loaded.read(100, &mut b).unwrap();
        assert_eq!(&b, b"first");

        std::fs::remove_dir(&tmp).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_leaves_no_temporary() {
        let path = temp_file("clean_save.img");
        let pool = PmPool::new(PoolConfig::new(4096));
        pool.save_to_file(&path).unwrap();
        pool.save_to_file(&path).unwrap();
        assert!(!temp_file("clean_save.img.tmp").exists());
        assert_eq!(std::fs::read(&path).unwrap().len(), 4096);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multi_huge_page_image_roundtrips_byte_identical() {
        let size = 6u64 << 20;
        let pool = PmPool::new(PoolConfig::new(size).mode(Mode::Tracked));
        pool.advise_huge(0, size);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for off in (0..size).step_by(4096) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pool.write(off + x % 4088, &x.to_le_bytes()).unwrap();
        }
        pool.persist(0, size as usize).unwrap();
        let img = pool.crash_image(CrashSpec::DropUnpersisted);
        let reopened = PmPool::from_image(img, PoolConfig::new(0));
        assert_eq!(reopened.size(), size);
        assert!(reopened.contents() == pool.contents());
    }

    #[test]
    fn boundary_tap_fires_on_flush_and_fence() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = tracked_pool();
        let flushes = Arc::new(AtomicUsize::new(0));
        let fences = Arc::new(AtomicUsize::new(0));
        let (f, n) = (Arc::clone(&flushes), Arc::clone(&fences));
        pool.set_boundary_tap(Box::new(move |p, b| {
            // The tracking lock is free: crash-state queries must work.
            let _ = p.crash_image(CrashSpec::DropUnpersisted);
            match b {
                Boundary::Flush => f.fetch_add(1, Ordering::Relaxed),
                Boundary::Fence => n.fetch_add(1, Ordering::Relaxed),
            };
        }));
        pool.write(0, &[1; 8]).unwrap();
        pool.persist(0, 8).unwrap();
        pool.fence();
        assert_eq!(flushes.load(Ordering::Relaxed), 1);
        assert_eq!(fences.load(Ordering::Relaxed), 2);
        pool.clear_boundary_tap();
        pool.persist(0, 8).unwrap();
        assert_eq!(flushes.load(Ordering::Relaxed), 1);
        assert_eq!(fences.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn boundary_tap_reentrant_boundaries_suppressed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(tracked_pool());
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        pool.set_boundary_tap(Box::new(move |p, _| {
            c.fetch_add(1, Ordering::Relaxed);
            // A misbehaving tap persisting to the same pool must not
            // recurse or deadlock.
            p.write(512, &[3]).unwrap();
            let _ = p.persist(512, 1);
        }));
        pool.write(0, &[1]).unwrap();
        pool.persist(0, 1).unwrap();
        // Exactly two firings (flush + fence), none from the tap's own
        // persist.
        assert_eq!(count.load(Ordering::Relaxed), 2);
        // The tap survives for the next boundary.
        pool.fence();
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    /// A tap that installs another tap from inside its own callback is a
    /// re-entrancy bug: the nested install would displace the running tap
    /// when `fire_tap` returns. Debug builds must refuse it loudly.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "boundary tap replaced while a tap was running")]
    fn boundary_tap_nested_install_asserts() {
        use std::sync::Arc;
        let pool = Arc::new(tracked_pool());
        let p2 = Arc::clone(&pool);
        pool.set_boundary_tap(Box::new(move |_, _| {
            p2.set_boundary_tap(Box::new(|_, _| {}));
        }));
        pool.write(0, &[1]).unwrap();
        pool.persist(0, 1).unwrap();
    }

    #[test]
    fn boundary_tap_silent_in_fast_mode() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = PmPool::new(PoolConfig::new(1024));
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        pool.set_boundary_tap(Box::new(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
        }));
        pool.write(0, &[1]).unwrap();
        pool.persist(0, 1).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stats_counters() {
        let pool = PmPool::new(PoolConfig::new(1024));
        pool.write(0, &[0; 32]).unwrap();
        let mut b = [0u8; 16];
        pool.read(0, &mut b).unwrap();
        pool.persist(0, 32).unwrap();
        let s = pool.stats();
        assert_eq!(s.bytes_written(), 32);
        assert_eq!(s.bytes_read(), 16);
        assert_eq!(s.flushes(), 1);
        assert_eq!(s.fences(), 1);
    }

    #[test]
    fn prefetch_is_not_an_access() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = tracked_pool();
        pool.write(128, &[0xC3; 200]).unwrap();
        let taps = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&taps);
        pool.set_boundary_tap(Box::new(move |_, _| {
            t.fetch_add(1, Ordering::Relaxed);
        }));
        let events = pool.event_log().unwrap().events().to_vec();
        let dirty = pool.unpersisted_seqs();
        let (reads, bytes) = (pool.stats().reads(), pool.stats().bytes_read());

        pool.prefetch(0, 4096);
        pool.prefetch(130, 100);

        assert_eq!(pool.event_log().unwrap().events(), &events[..]);
        assert_eq!(pool.unpersisted_seqs(), dirty);
        assert_eq!(pool.stats().reads(), reads);
        assert_eq!(pool.stats().bytes_read(), bytes);
        assert_eq!(taps.load(Ordering::Relaxed), 0);
        // The tap is live: a real boundary reaches it.
        pool.flush(128, 200).unwrap();
        assert_eq!(taps.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn advise_huge_is_not_an_access() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Large enough to hold whole huge pages, so the advice is issued.
        let size = 8u64 << 20;
        let pool = PmPool::new(PoolConfig::new(size).mode(Mode::Tracked));
        pool.write(128, &[0xC3; 200]).unwrap();
        pool.persist(128, 64).unwrap();
        let taps = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&taps);
        pool.set_boundary_tap(Box::new(move |_, _| {
            t.fetch_add(1, Ordering::Relaxed);
        }));
        let events = pool.event_log().unwrap().events().to_vec();
        let dirty = pool.unpersisted_seqs();
        let s = pool.stats();
        let before = (
            s.reads(),
            s.bytes_read(),
            s.bytes_written(),
            s.flushes(),
            s.fences(),
        );

        pool.advise_huge(0, size);
        pool.advise_huge(4096, 5 << 20);
        pool.advise_huge(130, 100);

        assert_eq!(pool.event_log().unwrap().events(), &events[..]);
        assert_eq!(pool.unpersisted_seqs(), dirty);
        let s = pool.stats();
        assert_eq!(
            (
                s.reads(),
                s.bytes_read(),
                s.bytes_written(),
                s.flushes(),
                s.fences()
            ),
            before
        );
        assert_eq!(taps.load(Ordering::Relaxed), 0);
        let mut b = [0u8; 200];
        pool.read(128, &mut b).unwrap();
        assert_eq!(b, [0xC3; 200]);
        // The tap is live: a real boundary reaches it.
        pool.flush(128, 200).unwrap();
        assert_eq!(taps.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn advise_huge_clamps_to_the_pool() {
        let size = 4u64 << 20;
        let pool = PmPool::new(PoolConfig::new(size));
        pool.advise_huge(size - 1, 4 << 20);
        pool.advise_huge(size, 64);
        pool.advise_huge(size + 64, 64);
        pool.advise_huge(u64::MAX - 8, 64);
        pool.advise_huge(0, u64::MAX);
        assert_eq!(pool.stats().reads(), 0);
        assert_eq!(pool.stats().bytes_written(), 0);
    }

    #[test]
    fn prefetch_clamps_to_the_pool() {
        let pool = tracked_pool();
        let size = pool.size();
        pool.prefetch(size - 1, 4096);
        pool.prefetch(size, 64);
        pool.prefetch(size + 64, 64);
        pool.prefetch(u64::MAX - 8, 64);
        pool.prefetch(0, u64::MAX);
        assert_eq!(pool.stats().reads(), 0);
    }
}
