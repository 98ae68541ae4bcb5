//! The counts a transaction leaves do not depend on the pool's mode: the
//! same allocate, snapshot, write, commit and free sequence yields the same
//! `PmStats` and the same `pm.flush` / `pm.fence` contention events on a
//! `Mode::Fast` pool as on a `Mode::Tracked` one, and the tracked pool logs
//! every store, flush, fence and mark and taps every boundary once.
//!
//! One test in its own binary: the contention counters are process-wide, so
//! no other test may flush or fence while the deltas are read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spp_pm::contention;
use spp_pm::{Boundary, Mode, PmEvent, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};

/// Reads, bytes read, writes, bytes written, flushes, fences.
type Stats = [u64; 6];

fn stats(pm: &PmPool) -> Stats {
    let s = pm.stats();
    [
        s.reads(),
        s.bytes_read(),
        s.writes(),
        s.bytes_written(),
        s.flushes(),
        s.fences(),
    ]
}

/// `pm.flush` and `pm.fence` events so far.
fn boundary_events() -> [u64; 2] {
    ["pm.flush", "pm.fence"].map(|name| contention::counter(name).snapshot().events)
}

/// What the sequence did to one pool.
struct Run {
    stats: Stats,
    events: [u64; 2],
    pm: Arc<PmPool>,
}

/// Create a pool in `mode`, then allocate, snapshot and write inside a
/// committed transaction, and free what was allocated: the counts are the
/// deltas over that sequence alone.
fn run(mode: Mode, before_sequence: impl FnOnce(&PmPool)) -> Run {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(4 << 20).mode(mode).record_stats(true),
    ));
    let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::new().lanes(1)).unwrap();
    pm.reset_tracking();
    before_sequence(&pm);
    let (stats0, events0) = (stats(&pm), boundary_events());

    let root = pool.zalloc(128).unwrap();
    let obj = pool
        .tx(|tx| -> spp_pmdk::Result<_> {
            let obj = tx.alloc(100)?;
            tx.pool().pm().write(obj.off, &[0xA5; 100])?;
            tx.snapshot(root.off, 64)?;
            tx.pool().pm().write(root.off, &[0x5A; 64])?;
            Ok(obj)
        })
        .unwrap();
    pool.tx(|tx| tx.free(obj)).unwrap();
    pool.free(root).unwrap();

    let (stats1, events1) = (stats(&pm), boundary_events());
    Run {
        stats: std::array::from_fn(|i| stats1[i] - stats0[i]),
        events: [events1[0] - events0[0], events1[1] - events0[1]],
        pm,
    }
}

#[test]
fn counts_do_not_depend_on_the_pools_mode() {
    let fast = run(Mode::Fast, |_| {});
    let taps = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let tracked = run(Mode::Tracked, |pm| {
        let taps = Arc::clone(&taps);
        pm.set_boundary_tap(Box::new(move |_, b| {
            let i = match b {
                Boundary::Flush => 0,
                Boundary::Fence => 1,
            };
            taps[i].fetch_add(1, Ordering::Relaxed);
        }));
    });

    let [_, _, writes, _, flushes, fences] = fast.stats;
    assert!(writes > 0 && flushes > 0 && fences > 0, "{:?}", fast.stats);
    assert_eq!(fast.stats, tracked.stats, "PmStats differ by mode");
    assert_eq!(
        fast.events,
        [flushes, fences],
        "fast pool's boundary events"
    );
    assert_eq!(
        tracked.events, fast.events,
        "boundary events differ by mode"
    );

    // Every store, flush and fence in the log, and a tap per boundary.
    let log = tracked.pm.event_log().unwrap();
    let count = |f: fn(&PmEvent) -> bool| log.events().iter().filter(|e| f(e)).count() as u64;
    assert_eq!(count(|e| matches!(e, PmEvent::Store { .. })), writes);
    assert_eq!(count(|e| matches!(e, PmEvent::Flush { .. })), flushes);
    assert_eq!(count(|e| matches!(e, PmEvent::Fence { .. })), fences);
    let taps = [0, 1].map(|i| taps[i].load(Ordering::Relaxed));
    assert_eq!(taps, [flushes, fences], "one tap per flush and per fence");

    // And every transaction mark, in order.
    let marks: Vec<&str> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            PmEvent::Mark { label, .. } if label.starts_with("tx_") => {
                Some(label.split(':').next().unwrap())
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        marks,
        [
            "tx_begin",
            "tx_alloc",
            "tx_add",
            "tx_commit",
            "tx_end",
            "tx_begin",
            "tx_commit",
            "tx_end"
        ]
    );
}
