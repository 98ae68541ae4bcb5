//! Always-on contention profiling for the hot-path locks of the stack.
//!
//! Every serialization point in the workspace (kvstore stripe locks, pmdk
//! lanes, the tracked-mode event-log lock) and the durability boundaries
//! (`pm.flush` / `pm.fence`) register a named [`LockCounter`] here and report
//! through it. The counters answer the question the scaling benchmarks keep
//! raising: *which* lock is the wall. They are cheap enough to leave on in
//! release builds, because recording is *owner-local*: each thread keeps
//! its own cell per counter and bumps it with a relaxed load and store — no
//! `lock`-prefixed read-modify-write, no cache line shared with another
//! recording thread. The thread finds its cells through one cached pointer
//! in a const thread-local; registering them, and recording after they
//! were folded at thread exit, are the cold path. Wall-clock timing only
//! happens on the contended path.
//!
//! Readers see exact totals. [`snapshot`] and [`dump`] sum, under the
//! registry lock, each counter's *base* and the cells of every live thread;
//! a thread that exits first folds its cells into the bases, so its counts
//! outlive it. [`reset_all`] never writes a cell it does not own: it
//! rebases each counter — subtracts the current total from its base — so
//! the totals restart from zero while every thread keeps recording.
//!
//! The registry is process-global on purpose: benches and the load
//! generator snapshot it with [`snapshot`]/[`dump`] after a measured phase
//! (and [`reset_all`] between phases) without having to thread a profiler
//! handle through every layer.
//!
//! Counter taxonomy (see DESIGN.md "Contention profile"):
//! * `acquisitions` — total lock acquisitions (reads + writes for rwlocks).
//! * `contended` — acquisitions that did not succeed on the first
//!   `try_lock`; the acquirer had to spin, block, or park.
//! * `wait_ns` — wall-clock nanoseconds spent waiting on contended
//!   acquisitions (the serialization actually paid, not a sample).
//! * `events` — subsystem-specific event count for non-lock counters
//!   (e.g. `pm.flush` / `pm.fence` boundary totals).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Counters a thread keeps cells for. Registrations beyond it (the
/// workspace has a handful of names) record into the counter's base.
const MAX_COUNTERS: usize = 32;

/// Indices of the four counts in [`Counts`].
const ACQUISITIONS: usize = 0;
const CONTENDED: usize = 1;
const WAIT_NS: usize = 2;
const EVENTS: usize = 3;

/// `acquisitions`, `contended`, `wait_ns`, `events`. All arithmetic on
/// them wraps: a rebased base is a total's negation.
type Counts = [AtomicU64; 4];

/// Add `n` to a count only the calling thread writes: a relaxed load and a
/// relaxed store, which readers may observe before or after, never torn.
#[inline]
fn bump(count: &AtomicU64, n: u64) {
    count.store(
        count.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// One thread's cells, indexed by counter id. Written only by that thread;
/// read by the registry's summing.
#[repr(align(128))]
#[derive(Default)]
struct ThreadCells([Counts; MAX_COUNTERS]);

/// Every registered counter and the cells of every live recording thread.
#[derive(Default)]
struct Registry {
    counters: Vec<&'static LockCounter>,
    threads: Vec<Arc<ThreadCells>>,
}

fn registry() -> StdMutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<StdMutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// The calling thread's cells: registered at its first recording, folded
/// into their counters' bases and unregistered when it exits.
struct LocalCells(Arc<ThreadCells>);

impl LocalCells {
    fn register() -> Self {
        let cells = Arc::new(ThreadCells::default());
        registry().threads.push(Arc::clone(&cells));
        OWN_CELLS.set(Arc::as_ptr(&cells));
        LocalCells(cells)
    }
}

impl Drop for LocalCells {
    fn drop(&mut self) {
        // From here on this thread records into the bases, on the cold path.
        OWN_CELLS.set(std::ptr::null());
        let mut reg = registry();
        for c in &reg.counters {
            if let Some(cell) = self.0 .0.get(c.id) {
                for (base, count) in c.base.iter().zip(cell) {
                    base.fetch_add(count.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        reg.threads.retain(|t| !Arc::ptr_eq(t, &self.0));
    }
}

thread_local! {
    static CELLS: LocalCells = LocalCells::register();
    /// The cells `CELLS` holds while it lives: null before the thread's
    /// first recording and after its `LocalCells` dropped. Const and
    /// destructor-free, so reading it is one thread-local load with no
    /// lazy-initialisation or teardown state to check.
    static OWN_CELLS: Cell<*const ThreadCells> = const { Cell::new(std::ptr::null()) };
}

/// A named contention counter.
///
/// Obtain one with [`counter`]; instances are interned by name and live for
/// the whole process (`&'static`), so locks can embed the reference and
/// record with zero lookups.
#[derive(Debug)]
pub struct LockCounter {
    name: &'static str,
    /// Index of this counter's cell in every thread's [`ThreadCells`].
    id: usize,
    /// Counts of exited threads, minus the totals at the last reset.
    base: Counts,
}

impl LockCounter {
    /// The name this counter was registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to count `k` in the calling thread's cell.
    #[inline]
    fn record(&self, k: usize, n: u64) {
        let cells = OWN_CELLS.get();
        if cells.is_null() || self.id >= MAX_COUNTERS {
            return self.record_cold(k, n);
        }
        // SAFETY: a non-null `OWN_CELLS` was set by this thread's
        // `LocalCells::register` from the `Arc` that `LocalCells` holds, and
        // `LocalCells::drop` nulls it before that `Arc` is released. The
        // pointer is thread-local, so while this thread reads it non-null its
        // `LocalCells` is alive and the cells it points to are too.
        bump(unsafe { &(*cells).0[self.id][k] }, n);
    }

    /// Record from a thread without cached cells: register them at its
    /// first recording; a thread with no cell to write (one past
    /// [`MAX_COUNTERS`], or recording from a thread-local destructor after
    /// its cells were folded) adds to the base instead.
    #[cold]
    #[inline(never)]
    fn record_cold(&self, k: usize, n: u64) {
        let owned = self.id < MAX_COUNTERS
            && CELLS
                .try_with(|cells| bump(&cells.0 .0[self.id][k], n))
                .is_ok();
        if !owned {
            self.base[k].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record an acquisition that succeeded on the first try.
    #[inline]
    pub fn record_uncontended(&self) {
        self.record(ACQUISITIONS, 1);
    }

    /// Record an acquisition that had to wait `waited` of wall-clock time.
    #[inline]
    pub fn record_contended(&self, waited: Duration) {
        self.record(ACQUISITIONS, 1);
        self.record(CONTENDED, 1);
        self.record(WAIT_NS, waited.as_nanos() as u64);
    }

    /// Record a subsystem event (e.g. one flush boundary).
    #[inline]
    pub fn record_event(&self) {
        self.record(EVENTS, 1);
    }

    /// The current totals: the base plus every live thread's cell.
    fn totals(&self, reg: &Registry) -> [u64; 4] {
        let mut t = self.base.each_ref().map(|b| b.load(Ordering::Relaxed));
        for cells in reg.threads.iter().filter_map(|th| th.0.get(self.id)) {
            for (sum, count) in t.iter_mut().zip(cells) {
                *sum = sum.wrapping_add(count.load(Ordering::Relaxed));
            }
        }
        t
    }

    fn snapshot_in(&self, reg: &Registry) -> LockSnapshot {
        let [acquisitions, contended, wait_ns, events] = self.totals(reg);
        LockSnapshot {
            name: self.name,
            acquisitions,
            contended,
            wait_ns,
            events,
        }
    }

    /// Sum the base and the live threads' cells into one snapshot.
    pub fn snapshot(&self) -> LockSnapshot {
        self.snapshot_in(&registry())
    }

    /// Restart the totals at zero without touching any thread's cell.
    fn rebase(&self, reg: &Registry) {
        for (base, total) in self.base.iter().zip(self.totals(reg)) {
            base.fetch_sub(total, Ordering::Relaxed);
        }
    }
}

/// Point-in-time totals for one [`LockCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Registered counter name (`subsystem.lock`).
    pub name: &'static str,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that failed the first `try_lock`.
    pub contended: u64,
    /// Wall-clock nanoseconds spent waiting, summed over contended
    /// acquisitions.
    pub wait_ns: u64,
    /// Subsystem-specific event count.
    pub events: u64,
}

impl LockSnapshot {
    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contended_fraction(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// Get or register the process-wide counter named `name`.
///
/// Names are interned: every call with the same name returns the same
/// counter, so multiple pools/stores of the same subsystem aggregate into
/// one line of the profile. Call once at construction and embed the
/// returned reference; this function takes a registry lock.
pub fn counter(name: &'static str) -> &'static LockCounter {
    let mut reg = registry();
    if let Some(c) = reg.counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static LockCounter = Box::leak(Box::new(LockCounter {
        name,
        id: reg.counters.len(),
        base: Default::default(),
    }));
    reg.counters.push(c);
    c
}

/// Snapshot every registered counter, sorted by total wait time
/// (descending) then name — the order a contention dump should be read in.
pub fn snapshot() -> Vec<LockSnapshot> {
    let reg = registry();
    let mut rows: Vec<LockSnapshot> = reg.counters.iter().map(|c| c.snapshot_in(&reg)).collect();
    rows.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.name.cmp(b.name)));
    rows
}

/// The `n` most-contended counters (by wait time), skipping counters that
/// never saw contention.
pub fn top_contended(n: usize) -> Vec<LockSnapshot> {
    snapshot()
        .into_iter()
        .filter(|s| s.contended > 0)
        .take(n)
        .collect()
}

/// Zero every registered counter's totals. Benches call this between
/// measured phases so each dump attributes contention to one phase.
pub fn reset_all() {
    let reg = registry();
    for c in &reg.counters {
        c.rebase(&reg);
    }
}

/// Render the full profile as an aligned text table.
pub fn dump() -> String {
    let rows = snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>8} {:>12} {:>12}\n",
        "lock", "acq", "contended", "cont%", "wait_ms", "events"
    ));
    for s in rows {
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>7.2}% {:>12.3} {:>12}\n",
            s.name,
            s.acquisitions,
            s.contended,
            100.0 * s.contended_fraction(),
            s.wait_ns as f64 / 1e6,
            s.events,
        ));
    }
    out
}

/// A mutex that reports every acquisition to a [`LockCounter`].
///
/// Uncontended cost over the raw lock: one failed-or-successful `try_lock`
/// plus an owner-local increment. `Instant::now` is only taken when the
/// fast path fails.
#[derive(Debug)]
pub struct ProfiledMutex<T> {
    inner: Mutex<T>,
    counter: &'static LockCounter,
}

impl<T> ProfiledMutex<T> {
    /// Wrap `value`, reporting to `counter`.
    pub fn new(counter: &'static LockCounter, value: T) -> Self {
        ProfiledMutex {
            inner: Mutex::new(value),
            counter,
        }
    }

    /// Wrap `value`, reporting to the registry counter named `name`.
    pub fn with_name(name: &'static str, value: T) -> Self {
        Self::new(counter(name), value)
    }

    /// Lock, recording whether the acquisition was contended.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(g) = self.inner.try_lock() {
            self.counter.record_uncontended();
            return g;
        }
        self.lock_contended()
    }

    #[cold]
    #[inline(never)]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        let start = Instant::now();
        let g = self.inner.lock();
        self.counter.record_contended(start.elapsed());
        g
    }

    /// Non-blocking lock attempt; records only on success.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = self.inner.try_lock();
        if g.is_some() {
            self.counter.record_uncontended();
        }
        g
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// A reader-writer lock that reports every acquisition to a
/// [`LockCounter`]. Reader and writer acquisitions aggregate into the same
/// counter: what the profile cares about is time serialized, not mode.
#[derive(Debug)]
pub struct ProfiledRwLock<T> {
    inner: RwLock<T>,
    counter: &'static LockCounter,
}

impl<T> ProfiledRwLock<T> {
    /// Wrap `value`, reporting to `counter`.
    pub fn new(counter: &'static LockCounter, value: T) -> Self {
        ProfiledRwLock {
            inner: RwLock::new(value),
            counter,
        }
    }

    /// Wrap `value`, reporting to the registry counter named `name`.
    pub fn with_name(name: &'static str, value: T) -> Self {
        Self::new(counter(name), value)
    }

    /// Shared lock, recording whether the acquisition was contended.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some(g) = self.inner.try_read() {
            self.counter.record_uncontended();
            return g;
        }
        self.read_contended()
    }

    #[cold]
    #[inline(never)]
    fn read_contended(&self) -> RwLockReadGuard<'_, T> {
        let start = Instant::now();
        let g = self.inner.read();
        self.counter.record_contended(start.elapsed());
        g
    }

    /// Exclusive lock, recording whether the acquisition was contended.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some(g) = self.inner.try_write() {
            self.counter.record_uncontended();
            return g;
        }
        self.write_contended()
    }

    #[cold]
    #[inline(never)]
    fn write_contended(&self) -> RwLockWriteGuard<'_, T> {
        let start = Instant::now();
        let g = self.inner.write();
        self.counter.record_contended(start.elapsed());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The registry is process-global and some tests reset it; tests that
    /// read or reset counter totals serialize here so parallel test threads
    /// cannot zero each other's counters mid-assertion.
    fn registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn counter_interned_by_name() {
        let a = counter("test.intern");
        let b = counter("test.intern");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn uncontended_and_contended_recorded() {
        let _serial = registry_test_lock();
        let c = counter("test.mutex");
        let base = c.snapshot();
        let m = Arc::new(ProfiledMutex::new(c, 0u64));
        *m.lock() += 1;
        let after_one = c.snapshot();
        assert_eq!(after_one.acquisitions, base.acquisitions + 1);

        // Force contention: hold the lock while another thread acquires.
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let h = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(g);
        h.join().unwrap();
        let s = c.snapshot();
        assert!(s.contended >= 1, "blocked acquisition must count: {s:?}");
        assert!(s.wait_ns > 0, "contended wait must accumulate time: {s:?}");
    }

    #[test]
    fn rwlock_reader_does_not_contend_reader() {
        let _serial = registry_test_lock();
        let c = counter("test.rwlock");
        let base = c.snapshot();
        let l = ProfiledRwLock::new(c, 7u32);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 14);
        let s = c.snapshot();
        assert_eq!(s.acquisitions - base.acquisitions, 2);
        assert_eq!(s.contended, base.contended);
    }

    #[test]
    fn snapshot_reset_and_dump() {
        let _serial = registry_test_lock();
        let c = counter("test.dumpable");
        c.record_event();
        c.record_uncontended();
        let rows = snapshot();
        assert!(rows.iter().any(|s| s.name == "test.dumpable"));
        let text = dump();
        assert!(text.contains("test.dumpable"));
        assert!(text.lines().next().unwrap().contains("wait_ms"));
        reset_all();
        assert_eq!(counter("test.dumpable").snapshot().events, 0);
    }

    #[test]
    fn top_contended_skips_clean_locks() {
        let _serial = registry_test_lock();
        reset_all();
        let clean = counter("test.clean");
        clean.record_uncontended();
        let dirty = counter("test.dirty");
        dirty.record_contended(Duration::from_micros(5));
        let top = top_contended(10);
        assert!(top.iter().any(|s| s.name == "test.dirty"));
        assert!(!top.iter().any(|s| s.name == "test.clean"));
    }

    #[test]
    fn concurrent_owner_local_records_sum_exactly() {
        let _serial = registry_test_lock();
        let c = counter("test.exact");
        let base = c.snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.record_uncontended();
                        c.record_event();
                    }
                });
            }
        });
        // The scoped threads are done; their cells are live or already
        // folded into the base — either way summed exactly once.
        let s = c.snapshot();
        assert_eq!(s.acquisitions - base.acquisitions, 40_000);
        assert_eq!(s.events - base.events, 40_000);
        assert_eq!(s.contended, base.contended);
        let row = snapshot().into_iter().find(|r| r.name == "test.exact");
        assert_eq!(row, Some(s));
    }

    #[test]
    fn exited_threads_keep_their_totals() {
        let _serial = registry_test_lock();
        let c = counter("test.exited");
        let base = c.snapshot();
        std::thread::spawn(move || {
            for _ in 0..100 {
                c.record_event();
            }
            c.record_contended(Duration::from_nanos(7));
        })
        .join()
        .unwrap();
        let s = c.snapshot();
        assert_eq!(s.events - base.events, 100);
        assert_eq!(s.acquisitions - base.acquisitions, 1);
        assert_eq!(s.contended - base.contended, 1);
        assert_eq!(s.wait_ns - base.wait_ns, 7);
    }

    /// Records `n` events into its counter when its thread-local dies.
    struct RecordOnDrop(Cell<Option<(&'static LockCounter, u64)>>);

    impl Drop for RecordOnDrop {
        fn drop(&mut self) {
            if let Some((c, n)) = self.0.get() {
                for _ in 0..n {
                    c.record_event();
                }
            }
        }
    }

    thread_local! {
        static RECORD_AT_EXIT: RecordOnDrop = const { RecordOnDrop(Cell::new(None)) };
    }

    /// Arm this thread's exit recorder for `n` events into `c`.
    fn record_at_exit(c: &'static LockCounter, n: u64) {
        RECORD_AT_EXIT.with(|r| r.0.set(Some((c, n))));
    }

    #[test]
    fn records_at_thread_exit_count_exactly_once() {
        let _serial = registry_test_lock();
        let c = counter("test.exit_order");
        let base = c.snapshot();
        // Thread-local destructors run in reverse order of registration,
        // so which of the recorder and the thread's cells dies first
        // depends on which of them the thread touched first.
        std::thread::spawn(move || {
            // The recorder first: its destructor runs after the cells have
            // been folded, and records into the base.
            record_at_exit(c, 3);
            c.record_uncontended();
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            // The cells first: the destructor records into the cells,
            // which are folded after it.
            c.record_uncontended();
            record_at_exit(c, 5);
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            // No recording before exit: the destructor's first record
            // registers the thread's cells.
            record_at_exit(c, 7);
        })
        .join()
        .unwrap();
        let s = c.snapshot();
        assert_eq!(s.acquisitions - base.acquisitions, 2, "{s:?}");
        assert_eq!(s.events - base.events, 3 + 5 + 7, "{s:?}");
    }

    #[test]
    fn reset_rebases_cells_live_threads_still_own() {
        use std::sync::mpsc;
        let _serial = registry_test_lock();
        let c = counter("test.rebase");
        let (recorded, wait_reset) = (mpsc::channel(), mpsc::channel());
        let (done_tx, done_rx) = recorded;
        let (go_tx, go_rx) = wait_reset;
        let live = std::thread::spawn(move || {
            for _ in 0..500 {
                c.record_uncontended();
            }
            done_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            for _ in 0..3 {
                c.record_event();
            }
        });
        c.record_event();
        done_rx.recv().unwrap();
        reset_all();
        let s = c.snapshot();
        assert_eq!((s.acquisitions, s.events), (0, 0), "{s:?}");
        // Recording goes on after the reset and counts from zero.
        go_tx.send(()).unwrap();
        c.record_uncontended();
        live.join().unwrap();
        let s = c.snapshot();
        assert_eq!((s.acquisitions, s.events), (1, 3), "{s:?}");
    }

    #[test]
    fn contended_fraction_bounds() {
        let s = LockSnapshot {
            name: "x",
            acquisitions: 0,
            contended: 0,
            wait_ns: 0,
            events: 0,
        };
        assert_eq!(s.contended_fraction(), 0.0);
        let s = LockSnapshot {
            acquisitions: 4,
            contended: 1,
            ..s
        };
        assert!((s.contended_fraction() - 0.25).abs() < 1e-12);
    }
}
