//! Crash-consistency of the KV engine: every reachable crash state of a
//! put/remove workload recovers to a store whose entries are a consistent
//! subset, and the pmemcheck rules hold. The workload overwrites one key
//! with a value of another length (the value moves) and one with a value
//! of the same length (written in place under an undo snapshot).

use std::sync::Arc;

use spp_core::{SppPolicy, TagConfig};
use spp_kvstore::{KvStore, KEY_SIZE};
use spp_pm::{Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};
use spp_pmemcheck::{explore, Checker, Plan, TxChecker};

const POOL: u64 = 1 << 20;

fn key(i: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

#[test]
fn kv_workload_recovers_consistently_in_every_crash_state() {
    let pm = Arc::new(PmPool::new(PoolConfig::new(POOL).mode(Mode::Tracked)));
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
    let policy = Arc::new(SppPolicy::new(Arc::clone(&pool), TagConfig::default()).unwrap());
    let kv = KvStore::create(Arc::clone(&policy), 8).unwrap();
    let meta = kv.meta();
    let heap_off = pool.heap_off();
    pm.reset_tracking();

    // Crash exploration: in every state, the recovered pool opens and each
    // key maps to one of its legal values or is absent.
    let legal: Vec<(u64, Vec<Vec<u8>>)> = (0..5)
        .map(|i| {
            let mut vals = vec![format!("value-{i}").into_bytes()];
            match i {
                2 => vals.push(b"value-2-updated".to_vec()),
                4 => vals.push(b"VALUE-4".to_vec()),
                _ => {}
            }
            (i, vals)
        })
        .collect();
    let checked = explore(
        &pm,
        Plan::exhaustive(),
        || {
            for i in 0..5u64 {
                kv.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
            }
            // A length change moves the value; an equal length writes it
            // in place.
            kv.put(&key(2), b"value-2-updated").unwrap();
            kv.put(&key(4), b"VALUE-4").unwrap();
            kv.remove(&key(3)).unwrap();
        },
        move |img| {
            let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
            let pool = Arc::new(ObjPool::open(pm).map_err(|e| format!("recovery: {e}"))?);
            let policy =
                Arc::new(SppPolicy::new(pool, TagConfig::default()).map_err(|e| format!("{e}"))?);
            let kv = KvStore::open(policy, meta).map_err(|e| format!("re-attach: {e}"))?;
            let mut out = Vec::new();
            for (i, vals) in &legal {
                out.clear();
                match kv.get(&key(*i), &mut out) {
                    Ok(false) => {}
                    Ok(true) => {
                        if !vals.contains(&out) {
                            return Err(format!("key {i} has bogus value {out:?}"));
                        }
                    }
                    Err(e) => return Err(format!("key {i}: violation {e}")),
                }
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
    assert!(checked.states > 50);

    let log = pm.event_log().unwrap();
    // Rules: flush/fence discipline and tx discipline both hold.
    let report = Checker::new().analyze(&log);
    assert!(
        report.is_clean(),
        "{:?}",
        &report.errors[..report.errors.len().min(3)]
    );
    let txr = TxChecker::new(heap_off).analyze(&log);
    assert!(
        txr.is_clean(),
        "{:?}",
        &txr.unprotected[..txr.unprotected.len().min(3)]
    );
    assert!(txr.transactions >= 7);
}
