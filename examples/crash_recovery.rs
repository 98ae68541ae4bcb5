//! Crash-consistency tour: run a transactional index workload on a tracked
//! pool, exploring every reachable crash state pmreorder-style and
//! validating recovery in each, then verify the flush/fence discipline
//! with the pmemcheck-style checker. Exits nonzero if either finds a
//! violation.
//!
//! Run with: `cargo run --example crash_recovery`

use std::sync::Arc;

use spp::core::{SppPolicy, TagConfig};
use spp::indices::{CTree, Index};
use spp::pm::{Mode, PmPool, PoolConfig};
use spp::pmdk::{ObjPool, PoolOpts};
use spp::pmemcheck::{explore, Checker, Plan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const POOL: u64 = 1 << 20;
    let pm = Arc::new(PmPool::new(PoolConfig::new(POOL).mode(Mode::Tracked)));
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small())?);
    let policy = Arc::new(SppPolicy::new(pool, TagConfig::default())?);

    // Set up the index, then make the current state the durable baseline so
    // exploration covers application activity only.
    let tree = CTree::create(Arc::clone(&policy))?;
    let meta = tree.meta();
    pm.reset_tracking();

    // 1. pmreorder: run transactional inserts and a remove; at every flush
    //    and every fence, enumerate which pending stores a power failure
    //    could have left behind; recovery must yield a consistent tree in
    //    every single state.
    let keys: Vec<(u64, u64)> = (0..5u64).map(|k| (k * 31 + 1, k + 500)).collect();
    let expected = keys.clone();
    let checked = explore(
        &pm,
        Plan::exhaustive(),
        || {
            for &(k, v) in &keys {
                tree.insert(k, v).expect("insert");
            }
            tree.remove(keys[2].0).expect("remove");
        },
        move |img| {
            let pm = Arc::new(PmPool::from_image(img.clone(), PoolConfig::new(0)));
            let pool = ObjPool::open(pm).map_err(|e| format!("recovery: {e}"))?;
            let policy = Arc::new(
                SppPolicy::new(Arc::new(pool), TagConfig::default())
                    .map_err(|e| format!("policy: {e}"))?,
            );
            let tree = CTree::open(policy, meta).map_err(|e| format!("reopen: {e}"))?;
            for &(k, v) in &expected {
                match tree.get(k) {
                    Ok(None) => {}
                    Ok(Some(got)) if got == v => {}
                    Ok(Some(got)) => return Err(format!("key {k}: bogus value {got}")),
                    Err(e) => return Err(format!("key {k}: violation {e}")),
                }
            }
            Ok(())
        },
    )?;
    println!("workload done: {} live entries", tree.count()?);
    println!(
        "pmreorder: {} crash states explored at {} boundaries, all recover consistently ✓",
        checked.states, checked.boundaries
    );

    // 2. pmemcheck rules: every store flushed and fenced.
    let report = Checker::new().analyze(&pm.event_log()?);
    println!(
        "pmemcheck: {} stores, {} flushes, {} fences -> {} errors, {} warnings",
        report.stores,
        report.flushes,
        report.fences,
        report.errors.len(),
        report.warnings.len()
    );
    assert!(report.is_clean());
    Ok(())
}
