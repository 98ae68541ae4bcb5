//! Integration tests: software transactions and their crash behaviour.

use std::sync::Arc;

use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PmdkError, PoolOpts};

fn fresh_tracked(size: u64) -> ObjPool {
    let pm = Arc::new(PmPool::new(PoolConfig::new(size).mode(Mode::Tracked)));
    ObjPool::create(pm, PoolOpts::small()).unwrap()
}

fn crash_and_reopen(pool: &ObjPool, spec: CrashSpec) -> ObjPool {
    let img = pool.pm().crash_image(spec);
    let pm = Arc::new(PmPool::from_image(
        img,
        PoolConfig::new(0).mode(Mode::Tracked),
    ));
    ObjPool::open(pm).unwrap()
}

#[test]
fn committed_tx_is_durable() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.write(obj.off, b"committed-value!")?;
        Ok(())
    })
    .unwrap();
    let reopened = crash_and_reopen(&pool, CrashSpec::DropUnpersisted);
    let mut b = [0u8; 16];
    reopened.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"committed-value!");
}

#[test]
fn commit_merges_adjacent_flush_ranges() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(4096).unwrap();

    // Baseline: eight writes scattered one cache line apart — nothing to
    // merge beyond line adjacency.
    let before = pool.pm().stats().flushes();
    pool.tx(|tx| -> spp_pmdk::Result<()> {
        for i in 0..8 {
            tx.write(obj.off + 512 + i * 256, &[i as u8; 8])?;
        }
        Ok(())
    })
    .unwrap();
    let scattered = pool.pm().stats().flushes() - before;

    // Eight writes packed into two cache lines: commit must coalesce them
    // into ~one flush per line, not one per snapshot range. Undo-log
    // overhead is identical in both transactions, so the packed tx must
    // come in strictly cheaper.
    let before = pool.pm().stats().flushes();
    pool.tx(|tx| -> spp_pmdk::Result<()> {
        for i in 0..8 {
            tx.write(obj.off + i * 16, &[i as u8; 8])?;
        }
        Ok(())
    })
    .unwrap();
    let packed = pool.pm().stats().flushes() - before;
    assert!(
        packed + 5 <= scattered,
        "packed tx flushed {packed}, scattered {scattered}: ranges not merged"
    );
    // And the data is still durable across a crash.
    let reopened = crash_and_reopen(&pool, CrashSpec::DropUnpersisted);
    let mut b = [0u8; 8];
    for i in 0..8 {
        reopened.read(obj.off + i * 16, &mut b).unwrap();
        assert_eq!(b, [i as u8; 8]);
    }
}

#[test]
fn aborted_tx_rolls_back() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.write(obj.off, b"original").unwrap();
    pool.persist(obj.off, 8).unwrap();
    let err = pool
        .tx(|tx| -> spp_pmdk::Result<()> {
            tx.write(obj.off, b"scribble")?;
            Err(tx.abort("deliberate"))
        })
        .unwrap_err();
    assert!(matches!(err, PmdkError::TxAborted(_)));
    let mut b = [0u8; 8];
    pool.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original");
}

#[test]
fn crash_mid_tx_rolls_back_on_recovery() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.write(obj.off, b"original").unwrap();
    pool.persist(obj.off, 8).unwrap();
    // Run a transaction but crash before commit by panicking out of the
    // closure boundary: emulate by doing the writes manually inside tx and
    // taking the crash image *inside* the closure.
    let img_cell = std::cell::RefCell::new(None);
    let _ = pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.write(obj.off, b"halfdone")?;
        // Flush the in-tx write so it's durable -- rollback must still win.
        tx.pool().persist(obj.off, 8)?;
        *img_cell.borrow_mut() = Some(tx.pool().pm().crash_image(CrashSpec::KeepAll));
        Err(tx.abort("simulated crash point"))
    });
    let img = img_cell.into_inner().unwrap();
    let pm = Arc::new(PmPool::from_image(
        img,
        PoolConfig::new(0).mode(Mode::Tracked),
    ));
    let reopened = ObjPool::open(pm).unwrap();
    let mut b = [0u8; 8];
    reopened.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original", "active tx must be rolled back on recovery");
}

#[test]
fn tx_alloc_commit_keeps_object() {
    let pool = fresh_tracked(1 << 20);
    let root = pool.root(64).unwrap();
    let oid = pool
        .tx(|tx| -> spp_pmdk::Result<_> {
            let oid = tx.zalloc(128)?;
            // Publish it in the root under the same tx.
            tx.write_u64(root.off, oid.off)?;
            Ok(oid)
        })
        .unwrap();
    let reopened = crash_and_reopen(&pool, CrashSpec::DropUnpersisted);
    let off = reopened.read_u64(root.off).unwrap();
    assert_eq!(off, oid.off);
    assert!(reopened
        .usable_size(spp_pmdk::PmemOid::new(reopened.uuid(), off, 128))
        .is_ok());
}

#[test]
fn tx_alloc_abort_frees_object() {
    let pool = fresh_tracked(1 << 20);
    let live_before = pool.stats().live_objects;
    let _ = pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.zalloc(128)?;
        Err(tx.abort("nope"))
    });
    assert_eq!(pool.stats().live_objects, live_before);
}

#[test]
fn tx_free_applies_only_on_commit() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    // Abort: object survives.
    let _ = pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.free(obj)?;
        Err(tx.abort("changed my mind"))
    });
    assert!(pool.usable_size(obj).is_ok());
    // Commit: object freed — the generation-carrying oid is now stale.
    pool.tx(|tx| -> spp_pmdk::Result<()> { tx.free(obj) })
        .unwrap();
    assert!(matches!(
        pool.usable_size(obj),
        Err(PmdkError::StaleOid { .. })
    ));
}

/// `alloc(100); tx { free(a) × frees }`, committed or aborted. The durable
/// header says allocated until commit, so only the transaction's pending
/// list can reject a second free — with the atomic API's double-free error,
/// before anything reaches the undo log, leaving the transaction usable.
/// Returns the pool's stats after the transaction and the two blocks the
/// class hands out next.
fn free_in_tx(frees: usize, untracked: bool, commit: bool) -> (spp_pmdk::AllocStats, u64, u64) {
    let pool = fresh_tracked(1 << 20);
    let a = pool.alloc(100).unwrap();
    let a = if untracked { a.with_gen(0) } else { a };
    let mut h = pool.tx_begin().unwrap();
    h.tx().free(a).unwrap();
    for _ in 1..frees {
        let stores = pool.pm().stats().writes();
        let again = h.tx().free(a);
        assert_eq!(
            pool.pm().stats().writes(),
            stores,
            "rejected before logging"
        );
        if untracked {
            assert!(matches!(again, Err(PmdkError::InvalidOid { .. })));
        } else {
            let want_gen = a.gen + 1;
            assert!(matches!(
                again,
                Err(PmdkError::StaleOid { oid_gen, current_gen, .. })
                    if oid_gen == a.gen && current_gen == want_gen
            ));
        }
    }
    if commit {
        h.commit().unwrap();
    } else {
        h.rollback().unwrap();
    }
    let stats = pool.stats();
    let (x, y) = (pool.alloc(100).unwrap(), pool.alloc(100).unwrap());
    assert_eq!(x.off == a.off, commit, "the freed block is next in line");
    pool.walk_heap().unwrap();
    (stats, x.off, y.off)
}

#[test]
fn double_tx_free_retires_the_block_once() {
    for commit in [true, false] {
        for untracked in [false, true] {
            let (stats, x, y) = free_in_tx(2, untracked, commit);
            // Exactly what the single free leaves behind.
            assert_eq!((stats, x, y), free_in_tx(1, untracked, commit));
            assert_ne!(x, y, "one block handed out twice (commit={commit})");
        }
    }
}

#[test]
fn tx_crash_window_all_or_nothing() {
    // Explore every crash state around a two-field transactional update;
    // after recovery the two fields must be mutually consistent.
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.write_u64(obj.off, 1).unwrap();
    pool.write_u64(obj.off + 8, 1).unwrap();
    pool.persist(obj.off, 16).unwrap();
    let pool = crash_and_reopen(&pool, CrashSpec::KeepAll);
    pool.tx(|tx| -> spp_pmdk::Result<()> {
        tx.write_u64(obj.off, 2)?;
        tx.write_u64(obj.off + 8, 2)?;
        Ok(())
    })
    .unwrap();
    for img in spp_pm::CrashStateIter::new(pool.pm()) {
        let pm = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(0).mode(Mode::Tracked),
        ));
        let reopened = ObjPool::open(pm).unwrap();
        let a = reopened.read_u64(obj.off).unwrap();
        let b = reopened.read_u64(obj.off + 8).unwrap();
        assert!(
            (a, b) == (1, 1) || (a, b) == (2, 2),
            "torn transactional update after recovery: ({a}, {b})"
        );
    }
}

#[test]
fn undo_log_capacity_aborts_cleanly() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
    let pool = ObjPool::create(pm, PoolOpts::small().undo_capacity(1024)).unwrap();
    let obj = pool.zalloc(4096).unwrap();
    pool.write(obj.off, &[7u8; 4096]).unwrap();
    pool.persist(obj.off, 4096).unwrap();
    let err = pool
        .tx(|tx| -> spp_pmdk::Result<()> {
            tx.snapshot(obj.off, 4096)?; // exceeds 1 KiB undo capacity
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, PmdkError::UndoLogFull { .. }));
    // Data untouched.
    let mut b = [0u8; 16];
    pool.read(obj.off, &mut b).unwrap();
    assert_eq!(b, [7u8; 16]);
}

#[test]
fn snapshot_dedup_is_idempotent() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.tx(|tx| -> spp_pmdk::Result<()> {
        for _ in 0..100 {
            tx.snapshot(obj.off, 64)?; // would overflow the log if not deduped
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn sequential_transactions_reuse_lane() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(8).unwrap();
    for i in 0..50u64 {
        pool.tx(|tx| -> spp_pmdk::Result<()> { tx.write_u64(obj.off, i) })
            .unwrap();
    }
    assert_eq!(pool.read_u64(obj.off).unwrap(), 49);
}

#[test]
fn concurrent_transactions() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(8)).unwrap());
    let obj = pool.zalloc(8 * 8).unwrap();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            for i in 0..100 {
                pool.tx(|tx| -> spp_pmdk::Result<()> { tx.write_u64(obj.off + t * 8, i) })
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..8u64 {
        assert_eq!(pool.read_u64(obj.off + t * 8).unwrap(), 99);
    }
}

// ---- explicit TxHandle API ----

#[test]
fn tx_handle_explicit_commit_is_durable() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    let mut h = pool.tx_begin().unwrap();
    h.tx().write(obj.off, b"handle-committed").unwrap();
    h.commit().unwrap();
    let reopened = crash_and_reopen(&pool, CrashSpec::DropUnpersisted);
    let mut b = [0u8; 16];
    reopened.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"handle-committed");
}

#[test]
fn tx_handle_explicit_rollback_restores() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.write(obj.off, b"original").unwrap();
    pool.persist(obj.off, 8).unwrap();
    let mut h = pool.tx_begin().unwrap();
    h.tx().write(obj.off, b"scribble").unwrap();
    h.rollback().unwrap();
    let mut b = [0u8; 8];
    pool.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original");
}

#[test]
fn tx_handle_drop_rolls_back() {
    let pool = fresh_tracked(1 << 20);
    let obj = pool.zalloc(64).unwrap();
    pool.write(obj.off, b"original").unwrap();
    pool.persist(obj.off, 8).unwrap();
    {
        let mut h = pool.tx_begin().unwrap();
        h.tx().write(obj.off, b"scribble").unwrap();
        // Dropped unfinished: must roll back and release the lane.
    }
    let mut b = [0u8; 8];
    pool.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original");
    // The lane is free again: another transaction starts cleanly.
    pool.tx(|tx| -> spp_pmdk::Result<()> { tx.write(obj.off, b"afterward") })
        .unwrap();
}

#[test]
fn panic_inside_tx_closure_rolls_back_and_releases_lane() {
    let pool = Arc::new(fresh_tracked(1 << 20));
    let obj = pool.zalloc(64).unwrap();
    pool.write(obj.off, b"original").unwrap();
    pool.persist(obj.off, 8).unwrap();
    let p2 = Arc::clone(&pool);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        p2.tx(|tx| -> spp_pmdk::Result<()> {
            tx.write(obj.off, b"scribble").unwrap();
            panic!("die mid-transaction");
        })
    }));
    assert!(r.is_err());
    // The unwind rolled the transaction back in-process...
    let mut b = [0u8; 8];
    pool.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original");
    // ...left no Active undo log behind for recovery to trip on...
    let reopened = crash_and_reopen(&pool, CrashSpec::KeepAll);
    let mut b = [0u8; 8];
    reopened.read(obj.off, &mut b).unwrap();
    assert_eq!(&b, b"original");
    // ...and released the lane, so the pool keeps working (small() has
    // only 2 lanes — a leak would wedge this quickly).
    for _ in 0..4 {
        pool.tx(|tx| -> spp_pmdk::Result<()> { tx.write(obj.off, b"continues") })
            .unwrap();
    }
}
