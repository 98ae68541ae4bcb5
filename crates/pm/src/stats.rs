use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of padded shards per pool. Threads hash onto shards so that
/// concurrent recording does not serialize on one cache line.
const PROFILE_SHARDS: usize = 8;

/// Process-wide source of per-thread shard indices.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stable shard index in `[0, PROFILE_SHARDS)`.
#[inline]
fn shard_idx() -> usize {
    SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % PROFILE_SHARDS);
        }
        s.get()
    })
}

/// One cache-line-padded shard of access counters. Padding keeps two
/// threads recording into different shards from false-sharing one line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct StatShard {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    flushes: AtomicU64,
    fences: AtomicU64,
}

/// Lock-free access counters for a pool, sharded per thread.
///
/// Used by the space-overhead accounting (Table III), by tests asserting
/// that optimizations actually remove accesses, and by the per-operation
/// traffic counts of traced benchmark runs. Pools built with
/// `record_stats(false)` record nothing here. The contention profile's
/// `pm.flush` / `pm.fence` rows do not come from these counters: they are
/// [`LockCounter`](crate::LockCounter) events the pool records on every
/// flush and fence either way. Recording picks the calling thread's
/// shard; accessors sum across shards, so totals are exact once writers
/// quiesce (and monotone under concurrency).
#[derive(Debug, Default)]
pub struct PmStats {
    shards: [StatShard; PROFILE_SHARDS],
}

impl PmStats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    // Recording stays out of line: a pool built with `record_stats(false)`
    // skips it on one flag and keeps its access paths small enough to
    // inline; one that records pays two shared atomic adds anyway.
    #[inline(never)]
    pub(crate) fn record_read(&self, len: usize) {
        let s = &self.shards[shard_idx()];
        s.reads.fetch_add(1, Ordering::Relaxed);
        s.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
    }

    #[inline(never)]
    pub(crate) fn record_write(&self, len: usize) {
        let s = &self.shards[shard_idx()];
        s.writes.fetch_add(1, Ordering::Relaxed);
        s.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
    }

    #[inline(never)]
    pub(crate) fn record_flush(&self) {
        self.shards[shard_idx()]
            .flushes
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline(never)]
    pub(crate) fn record_fence(&self) {
        self.shards[shard_idx()]
            .fences
            .fetch_add(1, Ordering::Relaxed);
    }

    fn sum(&self, f: impl Fn(&StatShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| f(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Number of load operations performed.
    pub fn reads(&self) -> u64 {
        self.sum(|s| &s.reads)
    }

    /// Number of store operations performed.
    pub fn writes(&self) -> u64 {
        self.sum(|s| &s.writes)
    }

    /// Total bytes loaded.
    pub fn bytes_read(&self) -> u64 {
        self.sum(|s| &s.bytes_read)
    }

    /// Total bytes stored.
    pub fn bytes_written(&self) -> u64 {
        self.sum(|s| &s.bytes_written)
    }

    /// Number of flush operations.
    pub fn flushes(&self) -> u64 {
        self.sum(|s| &s.flushes)
    }

    /// Number of fences.
    pub fn fences(&self) -> u64 {
        self.sum(|s| &s.fences)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for s in &self.shards {
            s.reads.store(0, Ordering::Relaxed);
            s.writes.store(0, Ordering::Relaxed);
            s.bytes_read.store(0, Ordering::Relaxed);
            s.bytes_written.store(0, Ordering::Relaxed);
            s.flushes.store(0, Ordering::Relaxed);
            s.fences.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = PmStats::new();
        s.record_read(8);
        s.record_read(8);
        s.record_write(64);
        s.record_flush();
        s.record_fence();
        assert_eq!(s.reads(), 2);
        assert_eq!(s.bytes_read(), 16);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.bytes_written(), 64);
        assert_eq!(s.flushes(), 1);
        assert_eq!(s.fences(), 1);
        s.reset();
        assert_eq!(s.reads() + s.writes() + s.flushes() + s.fences(), 0);
    }

    #[test]
    fn shards_sum_across_threads() {
        let s = std::sync::Arc::new(PmStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_write(64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.writes(), 4000);
        assert_eq!(s.bytes_written(), 4000 * 64);
    }
}
