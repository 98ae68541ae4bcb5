//! Crash-state exploration for the pointer-heavy containers: the FIFO
//! list's link updates and the queue's ring indices must recover to a
//! consistent state at every reachable crash point.

use std::sync::Arc;

use spp_containers::{PList, PQueue};
use spp_core::{SppPolicy, TagConfig};
use spp_pm::{Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};
use spp_pmemcheck::{explore, Checker, Plan, TxChecker};

const POOL: u64 = 1 << 20;

fn setup() -> (Arc<PmPool>, Arc<ObjPool>, Arc<SppPolicy>) {
    let pm = Arc::new(PmPool::new(PoolConfig::new(POOL).mode(Mode::Tracked)));
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
    let policy = Arc::new(SppPolicy::new(Arc::clone(&pool), TagConfig::default()).unwrap());
    (pm, pool, policy)
}

#[test]
fn list_links_never_tear() {
    let (pm, pool, policy) = setup();
    let list = PList::create(Arc::clone(&policy)).unwrap();
    let meta = list.meta();
    pm.reset_tracking();

    let checked = explore(
        &pm,
        Plan::exhaustive(),
        || {
            for i in 10..15u64 {
                list.push_back(i).unwrap();
            }
            list.pop_front().unwrap();
        },
        move |img| {
            let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
            let pool = Arc::new(ObjPool::open(pm).map_err(|e| format!("recovery: {e}"))?);
            let policy =
                Arc::new(SppPolicy::new(pool, TagConfig::default()).map_err(|e| format!("{e}"))?);
            let list = PList::open(policy, meta).map_err(|e| format!("reopen: {e}"))?;
            let items = list.to_vec().map_err(|e| format!("walk violation: {e}"))?;
            // Legal states: any push-prefix, with or without the pop.
            let full: Vec<u64> = (10..15).collect();
            let ok =
                (0..=full.len()).any(|k| items == full[..k] || (k >= 1 && items == full[1..k]));
            if !ok {
                return Err(format!("inconsistent list contents: {items:?}"));
            }
            if list.len().map_err(|e| e.to_string())? != items.len() as u64 {
                return Err("count disagrees with the chain".into());
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
    assert!(checked.states > 40);

    let log = pm.event_log().unwrap();
    assert!(Checker::new().analyze(&log).is_clean());
    assert!(TxChecker::new(pool.heap_off()).analyze(&log).is_clean());
}

#[test]
fn queue_indices_never_tear() {
    let (pm, _pool, policy) = setup();
    let q = PQueue::create(Arc::clone(&policy), 4).unwrap();
    let meta = q.meta();
    pm.reset_tracking();

    explore(
        &pm,
        Plan::exhaustive(),
        || {
            q.enqueue(1).unwrap();
            q.enqueue(2).unwrap();
            q.dequeue().unwrap();
            q.enqueue(3).unwrap();
        },
        move |img| {
            let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
            let pool = Arc::new(ObjPool::open(pm).map_err(|e| format!("recovery: {e}"))?);
            let policy =
                Arc::new(SppPolicy::new(pool, TagConfig::default()).map_err(|e| format!("{e}"))?);
            let q = PQueue::open(policy, meta).map_err(|e| format!("reopen: {e}"))?;
            // Drain whatever survived; the sequence must be a contiguous
            // ascending run drawn from the workload's legal states.
            let mut drained = Vec::new();
            while let Some(v) = q.dequeue().map_err(|e| format!("dequeue violation: {e}"))? {
                drained.push(v);
            }
            let legal: [&[u64]; 6] = [&[], &[1], &[1, 2], &[2], &[2, 3], &[1, 2, 3]];
            if !legal.contains(&drained.as_slice()) {
                return Err(format!("illegal queue state {drained:?}"));
            }
            Ok(())
        },
    )
    .unwrap_or_else(|e| panic!("crash-state violation: {e}"));
}
