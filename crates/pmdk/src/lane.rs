//! Lane management: each concurrent operation (atomic allocation or
//! transaction) exclusively holds one lane, which owns a redo region and an
//! undo region in PM. PMDK's design, minus the striping heuristics.
//!
//! Each thread has an adaptive *affinity* lane — the lane it last acquired,
//! seeded round-robin at first use — tried first on every acquisition. The
//! lane index also selects the thread's allocator arena, so affinity is
//! what gives a thread an (almost always) uncontended arena and,
//! single-threaded, a bump-ordered heap layout. Affinity being adaptive
//! (rather than a fixed ticket) matters under contention: a thread bumped
//! off its seed lane migrates to the lane it actually won and stops
//! colliding with the same holder on every subsequent acquisition. When
//! the affinity lane is taken, acquisition rotates over the others with
//! bounded exponential backoff, and finally parks on a condvar until some
//! lane holder leaves — no unbounded spinning. Every acquisition is
//! reported to the `pmdk.lane` contention counter.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use spp_pm::contention::{self, LockCounter};

/// Spin/backoff rounds before parking. Early rounds use cpu-relax hints,
/// later ones yield the scheduler slice (which is what actually helps on
/// oversubscribed cores).
const SPIN_ROUNDS: u32 = 6;

/// Process-wide ticket source for per-thread preferred lanes.
static NEXT_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Adaptive lane affinity: the lane this thread most recently managed
    /// to acquire. Process-wide (not per-`Lanes`), so it is a *hint* —
    /// always taken modulo the instance's lane count.
    static LAST_LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[cold]
#[inline(never)]
fn thread_ticket() -> usize {
    TICKET.with(|t| {
        if t.get() == usize::MAX {
            t.set(NEXT_TICKET.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub(crate) struct Lanes<T> {
    locks: Vec<Mutex<T>>,
    /// Threads parked waiting for any lane (keeps the release path free of
    /// condvar traffic while nobody waits).
    waiters: AtomicUsize,
    park: StdMutex<()>,
    unpark: Condvar,
    /// Contention profile for lane acquisition (`pmdk.lane`).
    counter: &'static LockCounter,
}

/// Exclusive hold of one lane, dereferencing to its scratch. Dropping it
/// releases the lane and wakes one parked waiter, if any.
pub(crate) struct LaneGuard<'a, T> {
    lanes: &'a Lanes<T>,
    held: Option<MutexGuard<'a, T>>,
}

impl<T> Deref for LaneGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.held
            .as_ref()
            .expect("a lane is held until its guard drops")
    }
}

impl<T> DerefMut for LaneGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.held
            .as_mut()
            .expect("a lane is held until its guard drops")
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LaneGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LaneGuard").field(&**self).finish()
    }
}

impl<T> Drop for LaneGuard<'_, T> {
    fn drop(&mut self) {
        // Release the lane before waking anyone, so the woken thread's
        // try_lock can succeed immediately.
        self.held.take();
        if self.lanes.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.lanes.park.lock());
            self.lanes.unpark.notify_one();
        }
    }
}

impl<T> Lanes<T> {
    /// `count` lanes (at least one), each owning the scratch `scratch`
    /// builds for it.
    pub(crate) fn new(count: usize, mut scratch: impl FnMut() -> T) -> Self {
        Lanes {
            locks: (0..count.max(1)).map(|_| Mutex::new(scratch())).collect(),
            waiters: AtomicUsize::new(0),
            park: StdMutex::new(()),
            unpark: Condvar::new(),
            counter: contention::counter("pmdk.lane"),
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn count(&self) -> usize {
        self.locks.len()
    }

    fn try_any(&self, start: usize) -> Option<(usize, LaneGuard<'_, T>)> {
        for i in 0..self.locks.len() {
            let idx = (start + i) % self.locks.len();
            if let Some(guard) = self.locks[idx].try_lock() {
                return Some((
                    idx,
                    LaneGuard {
                        lanes: self,
                        held: Some(guard),
                    },
                ));
            }
        }
        None
    }

    /// The lane this thread should try first: the last lane it actually
    /// acquired (adaptive affinity), falling back to the round-robin ticket
    /// for a thread's first acquisition. The affinity cache means a thread
    /// displaced from its ticket lane settles on whatever lane it won
    /// instead of re-fighting the same loser's battle on every operation —
    /// the profiled `pmdk.lane` contended rate is what this buys down.
    #[inline]
    fn preferred(&self) -> usize {
        let last = LAST_LANE.with(Cell::get);
        if last != usize::MAX {
            last % self.locks.len()
        } else {
            thread_ticket() % self.locks.len()
        }
    }

    #[inline]
    fn won<'a>(
        &self,
        idx: usize,
        guard: LaneGuard<'a, T>,
        waited_since: Option<Instant>,
    ) -> (usize, LaneGuard<'a, T>) {
        LAST_LANE.with(|c| c.set(idx));
        match waited_since {
            None => self.counter.record_uncontended(),
            Some(start) => self.counter.record_contended(start.elapsed()),
        }
        (idx, guard)
    }

    /// Acquire any free lane, preferring the calling thread's affinity lane.
    ///
    /// Lock-ordering note: acquisition rotates across lanes rather than
    /// blocking on a fixed one, so a thread that already holds a lane (a
    /// transaction performing an atomic allocation) can never deadlock with
    /// another such thread — some lane always frees up. Parking uses a
    /// timeout for the same reason: a waiter must eventually re-scan even
    /// if it misses a wakeup.
    #[inline]
    pub(crate) fn acquire(&self) -> (usize, LaneGuard<'_, T>) {
        let pref = self.preferred();
        // Fast path: the affinity lane is free (the common case whenever
        // threads <= lanes).
        if let Some(guard) = self.locks[pref].try_lock() {
            return self.won(
                pref,
                LaneGuard {
                    lanes: self,
                    held: Some(guard),
                },
                None,
            );
        }
        self.acquire_contended(pref)
    }

    /// The affinity lane `pref` was taken: rotate over the others with
    /// backoff, then park until a holder leaves.
    #[cold]
    #[inline(never)]
    fn acquire_contended(&self, pref: usize) -> (usize, LaneGuard<'_, T>) {
        let wait_start = Instant::now();
        // Bounded spinning with exponential backoff.
        for round in 0..SPIN_ROUNDS {
            if let Some((idx, guard)) = self.try_any(pref) {
                return self.won(idx, guard, Some(wait_start));
            }
            if round < 2 {
                for _ in 0..(1 << round) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        // Park until a holder leaves.
        loop {
            self.waiters.fetch_add(1, Ordering::SeqCst);
            // Re-scan after registering, or a release racing ahead of the
            // registration could leave us asleep with a lane free.
            if let Some((idx, guard)) = self.try_any(pref) {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return self.won(idx, guard, Some(wait_start));
            }
            let slot = self.park.lock().unwrap_or_else(PoisonError::into_inner);
            let (slot, _timed_out) = self
                .unpark
                .wait_timeout(slot, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner);
            drop(slot);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<T> std::fmt::Debug for Lanes<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes")
            .field("count", &self.locks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_distinct_lanes() {
        let lanes = Lanes::new(4, || ());
        let (a, _ga) = lanes.acquire();
        let (b, _gb) = lanes.acquire();
        assert_ne!(a, b);
        assert_eq!(lanes.count(), 4);
    }

    #[test]
    fn sticky_lane_reused_when_free() {
        let lanes = Lanes::new(4, || ());
        let (a, ga) = lanes.acquire();
        drop(ga);
        let (b, _gb) = lanes.acquire();
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_acquisition_makes_progress() {
        // More threads than lanes: every acquisition must park and still
        // complete.
        let lanes = Arc::new(Lanes::new(2, || ()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lanes = Arc::clone(&lanes);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let (_idx, guard) = lanes.acquire();
                    drop(guard);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn affinity_follows_last_acquired_lane() {
        let lanes = Lanes::new(4, || ());
        let (a, ga) = lanes.acquire();
        // Same thread, first lane still held: acquisition migrates.
        let (b, gb) = lanes.acquire();
        assert_ne!(a, b);
        drop((ga, gb));
        // Adaptive affinity: the *most recently won* lane is preferred,
        // not the original ticket lane.
        let (c, _gc) = lanes.acquire();
        assert_eq!(c, b);
    }

    #[test]
    fn storm_never_double_holds_a_lane() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        // More threads than lanes: maximal fighting over every lane.
        let lanes = Arc::new(Lanes::new(4, || ()));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..4).map(|_| AtomicBool::new(false)).collect());
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (lanes, held, barrier) =
                (Arc::clone(&lanes), Arc::clone(&held), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    let (idx, guard) = lanes.acquire();
                    assert!(
                        !held[idx].swap(true, Ordering::SeqCst),
                        "lane {idx} handed out twice"
                    );
                    std::hint::spin_loop();
                    held[idx].store(false, Ordering::SeqCst);
                    drop(guard);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn storm_distribution_is_not_degenerate() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        // 8 threads over 8 lanes: affinity must spread the threads out
        // rather than funnel them onto a few lanes.
        let lanes = Arc::new(Lanes::new(8, || ()));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (lanes, barrier) = (Arc::clone(&lanes), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut seen = HashSet::new();
                for _ in 0..100 {
                    let (idx, guard) = lanes.acquire();
                    seen.insert(idx);
                    drop(guard);
                }
                seen
            }));
        }
        let mut union = HashSet::new();
        for h in handles {
            union.extend(h.join().unwrap());
        }
        assert!(
            union.len() >= 4,
            "8 threads collapsed onto {} of 8 lanes",
            union.len()
        );
    }

    #[test]
    fn a_lane_keeps_its_scratch_across_holders() {
        let lanes = Lanes::new(2, Vec::<u32>::new);
        let (a, mut ga) = lanes.acquire();
        ga.push(7);
        drop(ga);
        let (b, gb) = lanes.acquire();
        assert_eq!(a, b);
        assert_eq!(*gb, [7]);
    }

    #[test]
    fn parked_waiter_wakes_on_release() {
        let lanes = Arc::new(Lanes::new(1, || ()));
        let (_idx, guard) = lanes.acquire();
        let l2 = Arc::clone(&lanes);
        let h = std::thread::spawn(move || {
            let (_i, g) = l2.acquire();
            drop(g);
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        h.join().unwrap();
    }
}
