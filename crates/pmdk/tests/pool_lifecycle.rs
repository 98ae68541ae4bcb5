//! Integration tests: pool lifecycle, atomic object management, recovery.

use std::sync::Arc;

use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
use spp_pmdk::{BlockState, ObjPool, OidDest, OidKind, PmdkError, PmemOid, PoolOpts};

fn fresh(size: u64) -> ObjPool {
    let pm = Arc::new(PmPool::new(PoolConfig::new(size)));
    ObjPool::create(pm, PoolOpts::small()).unwrap()
}

fn fresh_tracked(size: u64) -> ObjPool {
    let pm = Arc::new(PmPool::new(PoolConfig::new(size).mode(Mode::Tracked)));
    ObjPool::create(pm, PoolOpts::small()).unwrap()
}

/// Crash the pool (dropping unpersisted stores) and reopen it.
fn crash_and_reopen(pool: ObjPool) -> ObjPool {
    let img = pool.pm().crash_image(CrashSpec::DropUnpersisted);
    let pm = Arc::new(PmPool::from_image(
        img,
        PoolConfig::new(0).mode(Mode::Tracked),
    ));
    ObjPool::open(pm).unwrap()
}

#[test]
fn create_then_open() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
    let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap();
    let uuid = pool.uuid();
    drop(pool);
    let pool = ObjPool::open(pm).unwrap();
    assert_eq!(pool.uuid(), uuid);
}

#[test]
fn open_reads_each_block_header_once() {
    // One walk rebuilds free lists, live counters and the generation index,
    // at one device read per header — not a walk each at two reads apiece.
    let pool = fresh(1 << 20);
    let oids: Vec<PmemOid> = (0..2000).map(|_| pool.alloc(100).unwrap()).collect();
    let img = pool.pm().crash_image(CrashSpec::KeepAll);
    let pm = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
    let reopened = ObjPool::open(Arc::clone(&pm)).unwrap();
    let reads = pm.stats().reads();
    let blocks = reopened.walk_heap().unwrap().len() as u64;
    assert!(blocks >= 2000);
    assert!(
        reads < 3 * blocks,
        "open issued {reads} device reads for {blocks} blocks"
    );
    // ...and the one walk filled everything.
    assert_eq!(reopened.stats(), pool.stats());
    for oid in oids {
        assert_eq!(reopened.gen_at_bound(oid.off + oid.size), oid.gen);
    }
}

#[test]
fn open_after_the_period_breaks_rebuilds_exactly() {
    // Node/value pairs (80 B + 1,040 B blocks) make the walk hint headers
    // ahead instead of streaming pages; then the period breaks, and a last
    // run of one size ends at the pool's end, so the hints point past the
    // heap. None of it may change what the open rebuilds.
    let pool = fresh(1 << 20);
    let mut live = Vec::new();
    for _ in 0..300 {
        live.push(pool.alloc(64).unwrap());
        live.push(pool.alloc(1024).unwrap());
    }
    // The break: a block freed below, one of another class, a large one.
    let freed = pool.alloc(1024).unwrap();
    live.push(pool.alloc(200).unwrap());
    live.push(pool.alloc(20_000).unwrap());
    // A transaction holds this thread's lane, so the allocation inside it
    // refills the other arena with a chunk of its own: the first arena's
    // span stops at a chunk remainder, and later blocks start past it.
    let tx = pool.tx_begin().unwrap();
    live.push(pool.alloc(64).unwrap());
    tx.commit().unwrap();
    // The run: 528 B blocks until the span reaches the heap's end, then
    // as many as its tail holds. Allocating on until out of memory would
    // steal the remainder back from the other arena.
    while pool.stats().high_water < pool.stats().heap_size {
        live.push(pool.alloc(512).unwrap());
    }
    let tail = pool.walk_heap().unwrap().pop().unwrap();
    assert_eq!(tail.state, BlockState::Free);
    for _ in 0..tail.size / 528 {
        live.push(pool.alloc(512).unwrap());
    }
    pool.free(freed).unwrap();

    let blocks = pool.walk_heap().unwrap();
    let run_start = blocks.iter().position(|b| b.size == 528).unwrap();
    let free_sizes: Vec<u64> = blocks[..run_start]
        .iter()
        .filter(|b| b.state == BlockState::Free)
        .map(|b| b.size)
        .collect();
    assert!(free_sizes.len() >= 2, "no chunk remainder: {free_sizes:?}");
    let run = &blocks[run_start..blocks.len() - 1];
    assert!(run.iter().all(|b| b.size == 528), "the run is not one size");
    let end = blocks.last().map(|b| b.off + b.size).unwrap();
    assert_eq!(end, pool.pm().size(), "the chain stops short of the end");

    let img = pool.pm().crash_image(CrashSpec::KeepAll);
    let pm = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
    let reopened = ObjPool::open(pm).unwrap();
    assert_eq!(reopened.walk_heap().unwrap(), blocks);
    assert_eq!(reopened.stats(), pool.stats());
    for oid in &live {
        assert_eq!(reopened.gen_at_bound(oid.off + oid.size), oid.gen);
    }
    // The freed block is back on a free list: allocating its class reaches
    // it before the heap runs out.
    let reused = std::iter::from_fn(|| reopened.alloc(1024).ok()).any(|o| o.off == freed.off);
    assert!(reused, "the freed block was lost by the reopen");
}

#[test]
fn alloc_free_roundtrip() {
    let pool = fresh(1 << 20);
    let oid = pool.zalloc(100).unwrap();
    assert!(!oid.is_null());
    assert_eq!(oid.size, 100);
    assert!(pool.usable_size(oid).unwrap() >= 100);
    let mut buf = [0xFFu8; 100];
    pool.read(oid.off, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 100]); // zalloc zeroes
    pool.free(oid).unwrap();
    // The oid carries a generation key, so a double-free is the temporal
    // error (untracked gen-0 oids would get InvalidOid, as before).
    assert!(matches!(pool.free(oid), Err(PmdkError::StaleOid { .. })));
    assert!(matches!(
        pool.free(PmemOid::new(oid.pool_uuid, oid.off, oid.size)),
        Err(PmdkError::InvalidOid { .. })
    ));
}

#[test]
fn alloc_reuses_freed_block() {
    let pool = fresh(1 << 20);
    let a = pool.alloc(64).unwrap();
    pool.free(a).unwrap();
    let b = pool.alloc(64).unwrap();
    assert_eq!(a.off, b.off);
}

#[test]
fn zero_size_alloc_rejected() {
    let pool = fresh(1 << 20);
    assert!(matches!(pool.alloc(0), Err(PmdkError::BadAllocSize(0))));
}

#[test]
fn oom_reported() {
    let pool = fresh(1 << 16);
    let mut oids = Vec::new();
    loop {
        match pool.alloc(4096) {
            Ok(o) => oids.push(o),
            Err(PmdkError::OutOfMemory { .. }) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(!oids.is_empty());
    // Reopening the exhausted pool walks the header chain to its last byte,
    // prefetch window included, and rebuilds exactly what was live.
    let img = pool.pm().crash_image(CrashSpec::DropUnpersisted);
    let pm = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
    let reopened = ObjPool::open(pm).unwrap();
    assert_eq!(reopened.walk_heap().unwrap(), pool.walk_heap().unwrap());
    assert_eq!(reopened.stats(), pool.stats());
    // Freeing makes room again.
    pool.free(oids.pop().unwrap()).unwrap();
    pool.alloc(4096).unwrap();
}

#[test]
fn alloc_into_publishes_oid_spp_with_size() {
    let pool = fresh(1 << 20);
    // Use a first allocation as the home of the oid field.
    let home = pool.zalloc(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 42).unwrap();
    let stored = pool.oid_read(home.off, OidKind::Spp).unwrap();
    assert_eq!(stored.off, oid.off);
    assert_eq!(stored.pool_uuid, pool.uuid());
    assert_eq!(stored.size, 42);
    // Freeing through the destination nulls it.
    pool.free_from(dest, oid).unwrap();
    let stored = pool.oid_read(home.off, OidKind::Spp).unwrap();
    assert!(stored.is_null());
    assert_eq!(stored.size, 0);
}

#[test]
fn alloc_into_pmdk_16_bytes() {
    let pool = fresh(1 << 20);
    let home = pool.zalloc(64).unwrap();
    let dest = OidDest::pmdk(home.off);
    let oid = pool.zalloc_into(dest, 42).unwrap();
    let stored = pool.oid_read(home.off, OidKind::Pmdk).unwrap();
    assert_eq!(stored.off, oid.off);
    assert_eq!(stored.size, 0); // size not durable in stock encoding
                                // Bytes 16..24 of the home object are untouched by the 16-byte encoding.
    let mut b = [0u8; 8];
    pool.read(home.off + 16, &mut b).unwrap();
    assert_eq!(b, [0u8; 8]);
}

#[test]
fn realloc_grows_and_preserves_contents() {
    let pool = fresh(1 << 20);
    let home = pool.zalloc(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 32).unwrap();
    pool.write(oid.off, b"0123456789abcdef").unwrap();
    pool.persist(oid.off, 16).unwrap();
    let new_oid = pool.realloc_into(dest, oid, 5000).unwrap();
    assert_ne!(new_oid.off, oid.off);
    assert_eq!(new_oid.size, 5000);
    let mut buf = [0u8; 16];
    pool.read(new_oid.off, &mut buf).unwrap();
    assert_eq!(&buf, b"0123456789abcdef");
    // Destination updated.
    let stored = pool.oid_read(home.off, OidKind::Spp).unwrap();
    assert_eq!(stored.off, new_oid.off);
    assert_eq!(stored.size, 5000);
    // Old block is reusable.
    let again = pool.alloc(32).unwrap();
    assert_eq!(again.off, oid.off);
}

#[test]
fn realloc_in_place_when_class_fits() {
    let pool = fresh(1 << 20);
    let home = pool.zalloc(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 40).unwrap();
    // 40 and 44 share the 64-byte class -> in-place.
    let new_oid = pool.realloc_into(dest, oid, 44).unwrap();
    assert_eq!(new_oid.off, oid.off);
    assert_eq!(pool.oid_read(home.off, OidKind::Spp).unwrap().size, 44);
}

#[test]
fn realloc_failure_leaves_object_intact() {
    let pool = fresh(1 << 16);
    let home = pool.zalloc(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 64).unwrap();
    pool.write(oid.off, b"keepme!!").unwrap();
    let err = pool.realloc_into(dest, oid, 1 << 20).unwrap_err();
    assert!(matches!(err, PmdkError::OutOfMemory { .. }));
    // Original object untouched and still published.
    let stored = pool.oid_read(home.off, OidKind::Spp).unwrap();
    assert_eq!(stored.off, oid.off);
    assert_eq!(stored.size, 64);
    let mut b = [0u8; 8];
    pool.read(oid.off, &mut b).unwrap();
    assert_eq!(&b, b"keepme!!");
}

#[test]
fn root_object_is_stable() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
    let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap();
    let r1 = pool.root(256).unwrap();
    let r2 = pool.root(256).unwrap();
    assert_eq!(r1.off, r2.off);
    pool.write(r1.off, b"rootdata").unwrap();
    pool.persist(r1.off, 8).unwrap();
    drop(pool);
    let pool = ObjPool::open(pm).unwrap();
    let r3 = pool.root(256).unwrap();
    assert_eq!(r3.off, r1.off);
    assert_eq!(r3.size, 256);
    let mut b = [0u8; 8];
    pool.read(r3.off, &mut b).unwrap();
    assert_eq!(&b, b"rootdata");
}

#[test]
fn stats_track_live_objects() {
    let pool = fresh(1 << 20);
    let base = pool.stats();
    let a = pool.alloc(100).unwrap();
    let b = pool.alloc(200).unwrap();
    let s = pool.stats();
    assert_eq!(s.live_objects, base.live_objects + 2);
    assert!(s.live_bytes > base.live_bytes);
    pool.free(a).unwrap();
    pool.free(b).unwrap();
    let s = pool.stats();
    assert_eq!(s.live_objects, base.live_objects);
    assert_eq!(s.live_bytes, base.live_bytes);
    assert!(s.high_water > 0);
}

// ---- crash-recovery tests ----

#[test]
fn allocation_survives_crash_after_return() {
    let pool = fresh_tracked(1 << 20);
    let home = pool.root(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 48).unwrap();
    pool.write(oid.off, b"durable!").unwrap();
    pool.persist(oid.off, 8).unwrap();
    let pool = crash_and_reopen(pool);
    let stored = pool.oid_read(home.off, OidKind::Spp).unwrap();
    assert_eq!(stored.off, oid.off);
    assert_eq!(stored.size, 48);
    let mut b = [0u8; 8];
    pool.read(stored.off, &mut b).unwrap();
    assert_eq!(&b, b"durable!");
    // The block is accounted as live after rebuild.
    assert!(pool.stats().live_objects >= 2); // root + object
}

#[test]
fn oid_validity_implies_size_validity_at_every_crash_state() {
    // The paper's §IV-F invariant: if a crash leaves the oid's off field
    // set, the size field must also be set (size redo-ordered before off).
    let pool = fresh_tracked(1 << 20);
    let home = pool.root(64).unwrap();
    // Reopen boundary so only the alloc's events are in the log.
    let pool = crash_and_reopen(pool);
    let home2 = pool.root(64).unwrap();
    assert_eq!(home2.off, home.off);
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 4242).unwrap();
    assert_eq!(oid.size, 4242);
    for img in spp_pm::CrashStateIter::new(pool.pm()) {
        let pm = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(0).mode(Mode::Tracked),
        ));
        let reopened = ObjPool::open(pm).unwrap();
        let stored = reopened.oid_read(home.off, OidKind::Spp).unwrap();
        if !stored.is_null() {
            assert_eq!(stored.size, 4242, "valid oid with missing size after crash");
            assert_eq!(stored.off, oid.off);
            assert_eq!(stored.pool_uuid, pool.uuid());
        }
    }
}

#[test]
fn free_crash_states_never_leave_dangling_valid_oid() {
    let pool = fresh_tracked(1 << 20);
    let home = pool.root(64).unwrap();
    let dest = OidDest::spp(home.off);
    let oid = pool.zalloc_into(dest, 128).unwrap();
    // Start a clean tracking window.
    let pool = crash_and_reopen(pool);
    pool.free_from(dest, oid).unwrap();
    for img in spp_pm::CrashStateIter::new(pool.pm()) {
        let pm = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(0).mode(Mode::Tracked),
        ));
        let reopened = ObjPool::open(pm).unwrap();
        let stored = reopened.oid_read(home.off, OidKind::Spp).unwrap();
        if !stored.is_null() {
            // If the oid survived, the object must still be allocated
            // (the free did not happen): reading through it must work and
            // the block must be valid.
            assert!(reopened
                .usable_size(PmemOid::new(reopened.uuid(), stored.off, stored.size))
                .is_ok());
        }
    }
}

#[test]
fn completed_alloc_is_durable_even_without_destination() {
    // A returned oid is always backed by a durably allocated block (the redo
    // commit is synchronous). Like PMDK, an allocation published only to a
    // volatile oid *leaks* after a crash — which is exactly why production
    // code passes a PM destination; see
    // `oid_validity_implies_size_validity_at_every_crash_state` for that
    // path.
    let pool = fresh_tracked(1 << 20);
    let _ = pool.root(64).unwrap();
    let pool = crash_and_reopen(pool);
    let live_before = pool.stats().live_objects;
    let _oid = pool.zalloc(256).unwrap();
    let img = pool.pm().crash_image(CrashSpec::DropUnpersisted);
    let pm = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
    let reopened = ObjPool::open(pm).unwrap();
    assert_eq!(reopened.stats().live_objects, live_before + 1);
}

#[test]
fn concurrent_allocs_distinct_offsets() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(8)).unwrap());
    let mut handles = Vec::new();
    for _ in 0..8 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut offs = Vec::new();
            for _ in 0..200 {
                offs.push(pool.alloc(64).unwrap().off);
            }
            offs
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate allocation offsets");
}
