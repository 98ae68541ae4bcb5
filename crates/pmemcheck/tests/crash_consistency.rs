//! §VI-E: whole-workload crash-consistency verification.
//!
//! Index workloads run against a tracked pool under the pmreorder-style
//! explorer, and the resulting event log is fed to the pmemcheck rules
//! checker. Every reachable crash state must recover to a structurally
//! consistent index — with SPP's durable size field in play.

use std::sync::Arc;

use spp_core::{MemoryPolicy, SppPolicy, TagConfig};
use spp_indices::{CTree, HashMapTx, Index, RbTree};
use spp_pm::{CrashImage, Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PmemOid, PoolOpts};
use spp_pmemcheck::{explore, Checker, Plan};

const POOL: u64 = 1 << 20;

fn tracked_policy() -> Arc<SppPolicy> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(POOL).mode(Mode::Tracked)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
    Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap())
}

fn reopen(img: &CrashImage) -> Result<Arc<SppPolicy>, String> {
    let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
    let pool = ObjPool::open(pm).map_err(|e| format!("pool recovery failed: {e}"))?;
    SppPolicy::new(Arc::new(pool), TagConfig::default())
        .map(Arc::new)
        .map_err(|e| format!("policy rejected recovered pool: {e}"))
}

/// Structural validation shared by the index exploration tests: the pool
/// recovers, and every candidate key resolves without a safety violation to
/// either the inserted value or absence.
fn validate_index<I, F>(
    img: &CrashImage,
    meta: PmemOid,
    keys: &[(u64, u64)],
    open: F,
) -> Result<(), String>
where
    I: Index<SppPolicy>,
    F: Fn(Arc<SppPolicy>, PmemOid) -> spp_core::Result<I>,
{
    let policy = reopen(img)?;
    let idx = open(policy, meta).map_err(|e| format!("index failed to reopen: {e}"))?;
    for &(k, v) in keys {
        match idx.get(k) {
            Ok(None) => {}
            Ok(Some(got)) if got == v => {}
            Ok(Some(got)) => return Err(format!("key {k}: got {got}, expected {v} or absent")),
            Err(e) => return Err(format!("key {k}: safety violation on recovered tree: {e}")),
        }
    }
    idx.count().map_err(|e| format!("count unreadable: {e}"))?;
    Ok(())
}

#[test]
fn ctree_workload_is_crash_consistent() {
    let policy = tracked_policy();
    let tree = CTree::create(Arc::clone(&policy)).unwrap();
    let meta = tree.meta();
    policy.pool().pm().reset_tracking();
    let keys: Vec<(u64, u64)> = (0..6u64).map(|k| (k * 17 + 3, k + 100)).collect();
    let expected = keys.clone();
    let checked = explore(
        policy.pool().pm(),
        Plan::exhaustive(),
        || {
            for &(k, v) in &keys {
                tree.insert(k, v).unwrap();
            }
            tree.remove(keys[1].0).unwrap();
            tree.remove(keys[4].0).unwrap();
        },
        move |img| validate_index(img, meta, &expected, CTree::open),
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
    assert!(checked.states > 100, "exploration too shallow: {checked:?}");

    // Rule check: the workload flushed and fenced everything it wrote.
    let log = policy.pool().pm().event_log().unwrap();
    let report = Checker::new().analyze(&log);
    assert!(
        report.is_clean(),
        "pmemcheck errors: {:?}",
        &report.errors[..report.errors.len().min(3)]
    );
}

#[test]
fn hashmap_workload_is_crash_consistent() {
    let policy = tracked_policy();
    let map = HashMapTx::with_buckets(Arc::clone(&policy), 16).unwrap();
    let meta = map.meta();
    policy.pool().pm().reset_tracking();
    let keys: Vec<(u64, u64)> = (0..6u64).map(|k| (k, k * 2 + 1)).collect();
    let expected = keys.clone();
    let checked = explore(
        policy.pool().pm(),
        Plan::exhaustive(),
        || {
            for &(k, v) in &keys {
                map.insert(k, v).unwrap();
            }
            map.remove(2).unwrap();
        },
        move |img| validate_index(img, meta, &expected, HashMapTx::open),
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
    assert!(checked.states > 50);

    let log = policy.pool().pm().event_log().unwrap();
    assert!(Checker::new().analyze(&log).is_clean());
}

#[test]
fn rbtree_workload_preserves_invariants_across_crashes() {
    let policy = tracked_policy();
    let tree = RbTree::create(Arc::clone(&policy)).unwrap();
    let meta = tree.meta();
    policy.pool().pm().reset_tracking();
    explore(
        policy.pool().pm(),
        Plan::exhaustive(),
        || {
            for k in [5u64, 2, 8, 1, 9] {
                tree.insert(k, k * 10).unwrap();
            }
        },
        move |img| {
            let policy = reopen(img)?;
            let tree = RbTree::open(policy, meta).map_err(|e| format!("reopen: {e}"))?;
            // Full structural validation (colors, BST order, black height).
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tree.check_invariants()
                    .map_err(|e| format!("walk failed: {e}"))
            }))
            .map_err(|_| "red-black invariant violated after recovery".to_string())??;
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
}

#[test]
fn spp_size_field_is_consistent_in_every_crash_state() {
    // The §IV-F property end-to-end: explore a workload that stores oids in
    // PM and verify no crash state yields a valid oid whose size field
    // disagrees with the allocation.
    let policy = tracked_policy();
    let home = policy.zalloc(256).unwrap();
    policy.pool().pm().reset_tracking();
    let home_off = home.off;
    explore(
        policy.pool().pm(),
        Plan::exhaustive(),
        || {
            let hp = policy.direct(home);
            // A few alloc_into / free_from / realloc cycles on oid slots.
            let a = policy.zalloc_into_ptr(hp, 100).unwrap();
            let slot2 = policy.gep(hp, 24);
            let _b = policy.zalloc_into_ptr(slot2, 200).unwrap();
            let a2 = policy.realloc_from_ptr(hp, a, 3000).unwrap();
            assert_eq!(a2.size, 3000);
        },
        move |img| {
            let policy = reopen(img)?;
            for slot in [home_off, home_off + 24] {
                let ptr = policy.direct(PmemOid::new(policy.pool().uuid(), home_off, 256));
                let oid = policy
                    .load_oid(policy.gep(ptr, (slot - home_off) as i64))
                    .map_err(|e| format!("oid load: {e}"))?;
                if !oid.is_null() {
                    if oid.size == 0 {
                        return Err(format!("valid oid at {slot:#x} with zero size"));
                    }
                    // The tagged pointer derived from it must permit exactly
                    // `size` bytes.
                    let obj = policy.direct(oid);
                    policy
                        .load_u64(policy.gep(obj, oid.size as i64 - 8))
                        .map_err(|e| format!("last word unreadable: {e}"))?;
                    if policy.load_u64(policy.gep(obj, oid.size as i64)).is_ok() {
                        return Err("tag permits access past the object".into());
                    }
                }
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("size-field inconsistency: {e}"));
}
