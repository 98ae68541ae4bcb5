//! The write path allocates nothing once warm: transactions keep their
//! bookkeeping in lane-owned scratch, redo commits stage there too, and
//! the profiling counters record into thread-owned cells. Counted with a
//! global allocator that tallies the calling thread's allocations, so the
//! tests of this binary, running on parallel threads, do not see each
//! other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use spp_core::{SppPolicy, TagConfig};
use spp_kvstore::{BatchOp, KvStore, KEY_SIZE};
use spp_pm::{PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PmdkError, PoolOpts};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the count is a
// const-initialised thread-local with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes per call of `op`, over `n` calls.
fn allocations_per_call(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let before = ALLOCATIONS.get();
    for i in 0..n {
        op(i);
    }
    (ALLOCATIONS.get() - before) as f64 / n as f64
}

fn key(i: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

/// An SPP store on a `Mode::Fast` pool holding `keys` resident keys, each
/// overwritten once more so every lane and free list has seen the traffic.
fn warm_store(keys: u64) -> KvStore<SppPolicy> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(16 << 20).record_stats(false)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(4)).unwrap());
    let policy = Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap());
    let kv = KvStore::create(policy, 256).unwrap();
    for round in 0..2 {
        for i in 0..keys {
            kv.put(&key(i), &[round as u8; 100]).unwrap();
        }
    }
    kv
}

#[test]
fn a_resident_put_allocates_nothing() {
    let kv = warm_store(64);
    let per_put = allocations_per_call(1000, |i| {
        kv.put(&key(i % 64), &[i as u8; 100]).unwrap();
    });
    assert_eq!(per_put, 0.0);
}

#[test]
fn an_atomic_alloc_and_free_allocate_nothing() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(4 << 20).record_stats(false)));
    let pool = ObjPool::create(pm, PoolOpts::new().lanes(2)).unwrap();
    let cycle = || {
        let oid = pool.alloc(100).unwrap();
        pool.free(oid).unwrap();
    };
    cycle();
    assert_eq!(allocations_per_call(1000, |_| cycle()), 0.0);
}

#[test]
fn an_aborted_transaction_allocates_nothing() {
    /// An application error that carries no heap data of its own.
    #[derive(Debug)]
    struct Abort;
    impl From<PmdkError> for Abort {
        fn from(e: PmdkError) -> Self {
            panic!("unexpected pool error {e}")
        }
    }
    let pm = Arc::new(PmPool::new(PoolConfig::new(4 << 20).record_stats(false)));
    let pool = ObjPool::create(pm, PoolOpts::new().lanes(2)).unwrap();
    let obj = pool.zalloc(64).unwrap();
    let victim = pool.zalloc(32).unwrap();
    let abort = |i: u64| {
        let r = pool.tx(|tx| -> Result<(), Abort> {
            tx.write_u64(obj.off, i)?;
            tx.write(obj.off + 16, &[i as u8; 24])?;
            tx.alloc(100)?;
            tx.free(victim)?;
            Err(Abort)
        });
        assert!(r.is_err());
    };
    abort(0);
    assert_eq!(allocations_per_call(100, abort), 0.0);
}

#[test]
fn a_batch_allocates_only_the_stores_own_vectors() {
    let kv = warm_store(64);
    let value = [9u8; 100];
    let keys: Vec<[u8; KEY_SIZE]> = (0..64).map(key).collect();
    let batches: Vec<Vec<BatchOp<'_>>> = keys
        .chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .map(|k| BatchOp::Put {
                    key: k,
                    value: &value,
                })
                .collect()
        })
        .collect();
    kv.apply_batch(&batches[0]).unwrap();
    let per_batch = allocations_per_call(800, |i| {
        kv.apply_batch(&batches[i as usize % batches.len()])
            .unwrap();
    });
    // `apply_batch`'s own: the sorted stripes, their guards and the
    // outcomes it returns. Nothing below the store.
    assert_eq!(per_batch, 3.0);
}
