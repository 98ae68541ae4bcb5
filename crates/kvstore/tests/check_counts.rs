//! Exact policy-call counts of the store's operations, pinned: one
//! `direct` + one `resolve` per node a walk visits and per value it reads
//! or writes, no GEP anywhere, and nothing per bucket-slot access (the
//! bucket array is checked once, at create/open). A change that goes back
//! to per-field checks fails here. An overwrite also takes exactly one
//! undo snapshot of store data: of the value bytes when the length stays
//! (written in place, no allocator call), of the node's value reference
//! when it changes (the value moves; the reference is one field).
//!
//! The counts come from a small counting decorator over each policy, which
//! forwards every method the policies implement themselves, so each check
//! still runs in the inner policy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spp_core::{MemoryPolicy, PmdkPolicy, Result, SppPolicy, TagConfig};
use spp_kvstore::{BatchOp, KvStore, KEY_SIZE};
use spp_pm::{Mode, PmEvent, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidDest, OidKind, PmemOid, PoolOpts, Tx};
use spp_safepm::{SafePmPolicy, Shadow};

/// Policy calls made so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Calls {
    directs: u64,
    geps: u64,
    resolves: u64,
    allocs: u64,
    frees: u64,
}

struct Counting<P> {
    inner: P,
    directs: AtomicU64,
    geps: AtomicU64,
    resolves: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl<P> Counting<P> {
    fn new(inner: P) -> Self {
        Counting {
            inner,
            directs: AtomicU64::new(0),
            geps: AtomicU64::new(0),
            resolves: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> Calls {
        Calls {
            directs: self.directs.load(Ordering::Relaxed),
            geps: self.geps.load(Ordering::Relaxed),
            resolves: self.resolves.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }
}

impl<P: MemoryPolicy> MemoryPolicy for Counting<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn oid_kind(&self) -> OidKind {
        self.inner.oid_kind()
    }

    fn pool(&self) -> &Arc<ObjPool> {
        self.inner.pool()
    }

    fn direct(&self, oid: PmemOid) -> u64 {
        bump(&self.directs);
        self.inner.direct(oid)
    }

    fn gep(&self, ptr: u64, delta: i64) -> u64 {
        bump(&self.geps);
        self.inner.gep(ptr, delta)
    }

    fn resolve(&self, ptr: u64, len: u64) -> Result<u64> {
        bump(&self.resolves);
        self.inner.resolve(ptr, len)
    }

    fn alloc_oid(&self, dest: Option<OidDest>, size: u64, zero: bool) -> Result<PmemOid> {
        bump(&self.allocs);
        self.inner.alloc_oid(dest, size, zero)
    }

    fn free_oid(&self, dest: Option<OidDest>, oid: PmemOid) -> Result<()> {
        bump(&self.frees);
        self.inner.free_oid(dest, oid)
    }

    fn realloc_oid(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> Result<PmemOid> {
        bump(&self.allocs);
        bump(&self.frees);
        self.inner.realloc_oid(dest, oid, new_size)
    }

    fn tx_alloc(&self, tx: &mut Tx<'_>, size: u64, zero: bool) -> Result<PmemOid> {
        bump(&self.allocs);
        self.inner.tx_alloc(tx, size, zero)
    }

    fn tx_free(&self, tx: &mut Tx<'_>, oid: PmemOid) -> Result<()> {
        bump(&self.frees);
        self.inner.tx_free(tx, oid)
    }
}

fn key(i: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

/// The calls `op` makes on `kv`.
fn calls_of<P: MemoryPolicy>(kv: &KvStore<Counting<P>>, op: impl FnOnce()) -> Calls {
    let before = kv.policy().calls();
    op();
    let after = kv.policy().calls();
    Calls {
        directs: after.directs - before.directs,
        geps: after.geps - before.geps,
        resolves: after.resolves - before.resolves,
        allocs: after.allocs - before.allocs,
        frees: after.frees - before.frees,
    }
}

/// The lengths of the undo snapshots `op` takes of store data: every
/// `tx_add` but those of SafePM's shadow, which its transactional
/// allocator snapshots too.
fn data_snapshots<P: MemoryPolicy>(kv: &KvStore<Counting<P>>, op: impl FnOnce()) -> Vec<u64> {
    let pool = kv.policy().pool();
    let pm = pool.pm();
    let shadow = match pool.user_slot().unwrap() {
        0 => 0..0,
        at => at..at + Shadow::required_size(pm.size()),
    };
    pm.reset_tracking();
    op();
    pm.event_log()
        .unwrap()
        .events()
        .iter()
        .filter_map(|e| match e {
            PmEvent::Mark { label, .. } => label.strip_prefix("tx_add:"),
            _ => None,
        })
        .map(|range| {
            let (off, len) = range.split_once(':').unwrap();
            (off.parse::<u64>().unwrap(), len.parse::<u64>().unwrap())
        })
        .filter(|(off, _)| !shadow.contains(off))
        .map(|(_, len)| len)
        .collect()
}

/// `checks` nodes and values checked, with `allocs` and `frees`.
fn expect(checks: u64, allocs: u64, frees: u64) -> Calls {
    Calls {
        directs: checks,
        geps: 0,
        resolves: checks,
        allocs,
        frees,
    }
}

/// One bucket, so the chain order is known: keys 0..N, inserted in order,
/// sit head to tail as N-1, …, 0, and key `i` is node `N - i` of the walk.
const N: u64 = 5;

fn check_policy<P: MemoryPolicy>(policy: P) {
    let kv = KvStore::create(Arc::new(Counting::new(policy)), 1).unwrap();
    for i in 0..N {
        // An insert walks the whole chain (a miss), then checks the new
        // value and the new node: allocs for both, nothing freed.
        let got = calls_of(&kv, || kv.put(&key(i), &[i as u8; 100]).unwrap());
        assert_eq!(got, expect(i + 2, 2, 0), "insert of key {i}");
    }
    let mut out = Vec::new();
    for i in 0..N {
        let visited = N - i;
        // A hit: one check per node visited, one for the value.
        out.clear();
        let got = calls_of(&kv, || assert!(kv.get(&key(i), &mut out).unwrap()));
        assert_eq!(got, expect(visited + 1, 0, 0), "get of key {i}");
        assert_eq!(out, [i as u8; 100]);
        // A same-length overwrite: the walk to the node, then the value
        // written where it lies under one snapshot of its bytes.
        let got = calls_of(&kv, || kv.put(&key(i), &[0xAB; 100]).unwrap());
        assert_eq!(got, expect(visited + 1, 0, 0), "overwrite of key {i}");
        let taken = data_snapshots(&kv, || kv.put(&key(i), &[0xCD; 100]).unwrap());
        assert_eq!(taken, [100], "undo snapshots of overwrite of key {i}");
        // A length change moves the value: the new value, the walk to the
        // node; the old value is freed, and the value reference is
        // snapshotted once.
        let got = calls_of(&kv, || kv.put(&key(i), &[0xEF; 60]).unwrap());
        assert_eq!(got, expect(visited + 1, 1, 1), "resize of key {i}");
        let taken = data_snapshots(&kv, || kv.put(&key(i), &[i as u8; 100]).unwrap());
        assert_eq!(taken, [24], "undo snapshots of resize of key {i}");
    }
    // A miss walks every node and reads no value.
    let got = calls_of(&kv, || assert!(!kv.get(&key(N), &mut out).unwrap()));
    assert_eq!(got, expect(N, 0, 0), "missed get");
    // A batch costs what its ops cost alone (`b"batched"` changes key 0's
    // length, so its value moves).
    let (k0, k9) = (key(0), key(9));
    let batch = [
        BatchOp::Put {
            key: &k0,
            value: b"batched",
        },
        BatchOp::Put {
            key: &k9,
            value: b"batched",
        },
    ];
    let got = calls_of(&kv, || {
        kv.apply_batch(&batch).unwrap();
    });
    assert_eq!(got, expect((N + 1) + (N + 2), 3, 1), "batch of two puts");
    // A remove walks to the node and frees it and its value.
    let got = calls_of(&kv, || assert!(kv.remove(&key(9)).unwrap()));
    assert_eq!(got, expect(1, 0, 2), "remove of the head");
    // Scans check each node, and `for_each` each value too.
    let got = calls_of(&kv, || assert_eq!(kv.count().unwrap(), N));
    assert_eq!(got, expect(N, 0, 0), "count");
    let got = calls_of(&kv, || assert_eq!(kv.stats().unwrap().keys, N));
    assert_eq!(got, expect(N, 0, 0), "stats");
    let got = calls_of(&kv, || assert_eq!(kv.for_each(|_, _| Ok(())).unwrap(), N));
    assert_eq!(got, expect(2 * N, 0, 0), "for_each");
}

/// A same-length overwrite snapshots the old bytes, so one whose snapshot
/// no longer fits the lane's undo log (256 KiB under the default
/// `PoolOpts`) moves its value as a length change does, instead of failing
/// with `UndoLogFull`.
fn check_undo_room_fallback<P: MemoryPolicy>(policy: P) {
    let kv = KvStore::create(Arc::new(Counting::new(policy)), 16).unwrap();
    let mut out = Vec::new();
    let big = 300 << 10;
    kv.put(&key(0), &vec![1; big]).unwrap();
    let got = calls_of(&kv, || kv.put(&key(0), &vec![2; big]).unwrap());
    assert_eq!((got.allocs, got.frees), (1, 1), "300 KiB overwrite");
    assert!(kv.get(&key(0), &mut out).unwrap());
    assert!(out == vec![2; big], "300 KiB overwrite reads back");
    // One transaction: the first two snapshots fit, the last two ops move.
    let keys = [1, 2, 3, 4].map(key);
    for k in &keys {
        kv.put(k, &vec![1; 100 << 10]).unwrap();
    }
    let value = vec![3; 100 << 10];
    let batch: Vec<BatchOp<'_>> = keys
        .iter()
        .map(|k| BatchOp::Put {
            key: k,
            value: &value,
        })
        .collect();
    let got = calls_of(&kv, || {
        kv.apply_batch(&batch).unwrap();
    });
    assert_eq!(
        (got.allocs, got.frees),
        (2, 2),
        "batch of four 100 KiB overwrites"
    );
    for k in &keys {
        out.clear();
        assert!(kv.get(k, &mut out).unwrap());
        assert!(out == value, "batched overwrite reads back");
    }
}

fn pool() -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(4 << 20).mode(Mode::Tracked)));
    Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(2)).unwrap())
}

#[test]
fn spp_checks_once_per_node_and_per_value() {
    check_policy(SppPolicy::new(pool(), TagConfig::default()).unwrap());
}

#[test]
fn pmdk_checks_once_per_node_and_per_value() {
    check_policy(PmdkPolicy::new(pool()));
}

#[test]
fn safepm_checks_once_per_node_and_per_value() {
    check_policy(SafePmPolicy::create(pool()).unwrap());
}

#[test]
fn an_overwrite_too_big_for_the_undo_log_moves_instead() {
    check_undo_room_fallback(SppPolicy::new(pool(), TagConfig::default()).unwrap());
    check_undo_room_fallback(PmdkPolicy::new(pool()));
    check_undo_room_fallback(SafePmPolicy::create(pool()).unwrap());
}
