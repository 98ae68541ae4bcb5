//! Optional PM access-latency model.
//!
//! Optane-class PM media is 2–4× slower than DRAM for reads and has lower
//! store bandwidth. The evaluation figures in the paper depend only on the
//! *relative* cost of the safety mechanisms, so latency emulation defaults to
//! off; the model exists to let experiments study how slower media shrinks
//! the relative overhead of SPP's register-only tag arithmetic (§VI-B notes
//! SPP's relative overhead drops as PM access cost grows).
//!
//! Two injection mechanisms, for two different questions:
//!
//! * **Spin latency** (`*_spins`) burns CPU per access. It models *CPU-side*
//!   cost and is what the overhead-shape experiments use. It cannot model
//!   concurrency: a spinning thread occupies a core, so N threads spinning
//!   serialize on an oversubscribed machine.
//! * **Wait latency** (`flush_wait_ns`) stalls for wall-clock time while
//!   *yielding the core*. It models *device-side* latency — the time a real
//!   PM DIMM's write-pending queue takes to drain — during which other
//!   threads can run. This is what makes thread-scaling measurable: N
//!   threads overlap their device waits exactly as N cores overlap stalls
//!   on real hardware, so workloads whose locks are off the device path
//!   scale until they become CPU-bound, and workloads that hold a lock
//!   across a device wait visibly serialize. The scaling rows of fig5/fig7
//!   run under this model. As under Px86, a `CLWB` is posted and only
//!   `SFENCE` waits: a fence pays one `flush_wait_ns` if its thread flushed
//!   since its previous fence, and a flush pays nothing itself.

use std::time::{Duration, Instant};

/// Per-access latency injection. See the module docs for the spin/wait
/// distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyModel {
    /// Spin iterations added per read access.
    pub read_spins: u32,
    /// Spin iterations added per write access.
    pub write_spins: u32,
    /// Extra spin iterations per 64 bytes accessed (bandwidth modelling).
    pub per_line_spins: u32,
    /// Wall-clock nanoseconds of overlappable device wait per drain: paid
    /// by a fence (`SFENCE`) whose thread has flushed since its previous
    /// fence — the dominant durability cost. Flushes themselves are posted.
    pub flush_wait_ns: u32,
}

impl LatencyModel {
    /// No latency injection (default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A rough Optane App-Direct profile: reads ~3× DRAM latency, writes
    /// buffered but bandwidth-limited. The absolute spin counts are
    /// calibration-free; only their ratios matter for overhead *shapes*.
    pub fn optane_like() -> Self {
        LatencyModel {
            read_spins: 60,
            write_spins: 20,
            per_line_spins: 30,
            ..Self::default()
        }
    }

    /// Overlappable device-wait profile for thread-scaling experiments:
    /// a fence that drains this thread's flushes pays `flush_ns` of
    /// wall-clock wait (yielding the core). Reads, writes and flushes are
    /// free — the cost of posted (buffered) writes lands on the fence that
    /// makes them durable, as on real PM.
    pub fn device_wait(flush_ns: u32) -> Self {
        LatencyModel {
            flush_wait_ns: flush_ns,
            ..Self::default()
        }
    }

    /// True if the model injects nothing (every hook is a no-op).
    pub fn is_none(&self) -> bool {
        *self == Self::default()
    }

    // The hooks stay out of line: a pool without a model skips them on one
    // flag, and keeps its access paths small enough to inline, while a
    // priced access pays a device wait that dwarfs the call.
    #[inline(never)]
    pub(crate) fn on_read(&self, len: usize) {
        if self.read_spins != 0 || self.per_line_spins != 0 {
            spin(self.read_spins + self.per_line_spins * (len as u32).div_ceil(64));
        }
    }

    #[inline(never)]
    pub(crate) fn on_write(&self, len: usize) {
        if self.write_spins != 0 || self.per_line_spins != 0 {
            spin(self.write_spins + self.per_line_spins * (len as u32).div_ceil(64));
        }
    }

    #[inline(never)]
    pub(crate) fn on_drain(&self) {
        if self.flush_wait_ns != 0 {
            wait(self.flush_wait_ns);
        }
    }
}

#[inline]
fn spin(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Stall for `ns` of wall-clock time while yielding the core.
///
/// Deliberately *not* `thread::sleep`: sleep's timer-slack floor is tens of
/// microseconds, far above PM latencies. A yield loop keeps wall-clock
/// fidelity at the ~1µs scale while handing the CPU to any other runnable
/// thread — which is the whole point of the overlappable model.
#[inline]
fn wait(ns: u32) {
    let deadline = Instant::now() + Duration::from_nanos(u64::from(ns));
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        let m = LatencyModel::none();
        assert_eq!(m.read_spins, 0);
        assert_eq!(m.write_spins, 0);
        assert!(m.is_none());
        // Must not hang or panic.
        m.on_read(4096);
        m.on_write(4096);
        m.on_drain();
    }

    #[test]
    fn optane_like_spins_complete() {
        let m = LatencyModel::optane_like();
        assert!(!m.is_none());
        m.on_read(64);
        m.on_write(256);
    }

    #[test]
    fn device_wait_stalls_wall_clock() {
        let m = LatencyModel::device_wait(200_000); // 200µs drain
        assert!(!m.is_none());
        let start = Instant::now();
        m.on_drain();
        assert!(start.elapsed() >= Duration::from_micros(200));
        // Reads and writes are free in this profile.
        let start = Instant::now();
        m.on_write(4096);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn device_waits_overlap_across_threads() {
        // Four threads waiting 20ms each would serialize to 80ms; because
        // waiters yield the core, they overlap even on one CPU and the
        // whole scope finishes far sooner. The margin is wide so parallel
        // test load cannot flake it.
        let m = LatencyModel::device_wait(20_000_000);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| m.on_drain());
            }
        });
        assert!(
            start.elapsed() < Duration::from_millis(60),
            "waits serialized: {:?}",
            start.elapsed()
        );
    }
}
