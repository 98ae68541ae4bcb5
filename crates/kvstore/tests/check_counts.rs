//! Exact policy-call counts of the store's operations, pinned: one
//! `direct` + one `resolve` per node a walk visits and per value it reads
//! or writes, no GEP anywhere, and nothing per bucket-slot access (the
//! bucket array is checked once, at create/open). A change that goes back
//! to per-field checks fails here. An overwrite also takes exactly one
//! undo snapshot of store data: the node's value reference is one field.
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

/// The undo snapshots `op` takes of store data: every `tx_add` but those
/// of SafePM's shadow, which its transactional allocator snapshots too.
fn data_snapshots<P: MemoryPolicy>(kv: &KvStore<Counting<P>>, op: impl FnOnce()) -> usize {
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
        .filter(|range| {
            let off: u64 = range.split(':').next().unwrap().parse().unwrap();
            !shadow.contains(&off)
        })
        .count()
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
        // An overwrite: the new value, then the walk to the node; the old
        // value is freed, and the value reference is snapshotted once.
        let got = calls_of(&kv, || kv.put(&key(i), &[0xAB; 100]).unwrap());
        assert_eq!(got, expect(visited + 1, 1, 1), "overwrite of key {i}");
        let taken = data_snapshots(&kv, || kv.put(&key(i), &[0xCD; 100]).unwrap());
        assert_eq!(taken, 1, "undo snapshots of overwrite of key {i}");
    }
    // A miss walks every node and reads no value.
    let got = calls_of(&kv, || assert!(!kv.get(&key(N), &mut out).unwrap()));
    assert_eq!(got, expect(N, 0, 0), "missed get");
    // A batch costs what its ops cost alone.
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
