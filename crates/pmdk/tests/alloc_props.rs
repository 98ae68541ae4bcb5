//! Property-based testing of the persistent allocator against a volatile
//! reference model: arbitrary alloc/free/realloc sequences — through the
//! atomic and the transactional door alike — must preserve object contents,
//! never overlap live objects, and leave volatile state (live counters,
//! generation index) exactly what a rebuild from the media would produce.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidDest, OidKind, PmdkError, PmemOid, PoolOpts, BLOCK_HEADER_SIZE};

#[derive(Debug, Clone)]
enum Op {
    Alloc { size: u64, fill: u8 },
    Free { victim: usize },
    Realloc { victim: usize, new_size: u64 },
    TxAlloc { size: u64, fill: u8, commit: bool },
    TxFree { victim: usize, commit: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..2048, any::<u8>()).prop_map(|(size, fill)| Op::Alloc { size, fill }),
        (0usize..64).prop_map(|victim| Op::Free { victim }),
        (0usize..64, 1u64..2048).prop_map(|(victim, new_size)| Op::Realloc { victim, new_size }),
        (1u64..2048, any::<u8>(), any::<bool>()).prop_map(|(size, fill, commit)| Op::TxAlloc {
            size,
            fill,
            commit
        }),
        (0usize..64, any::<bool>()).prop_map(|(victim, commit)| Op::TxFree { victim, commit }),
    ]
}

/// A live object in the reference model.
#[derive(Debug, Clone)]
struct ModelObj {
    oid: PmemOid,
    fill: u8,
    size: u64,
}

fn check_no_overlap(live: &HashMap<usize, ModelObj>) {
    let mut spans: Vec<(u64, u64)> = live
        .values()
        .map(|o| (o.oid.off - BLOCK_HEADER_SIZE, o.oid.off + o.size))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "live objects overlap: {w:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let pm = Arc::new(PmPool::new(PoolConfig::new(4 << 20)));
        let pool = ObjPool::create(pm, PoolOpts::small()).unwrap();
        // One home slot for oid destinations.
        let home = pool.zalloc(64).unwrap();
        let dest = OidDest::spp(home.off);
        let mut live: HashMap<usize, ModelObj> = HashMap::new();
        let mut next_id = 0usize;
        // Bounds (payload end offsets) of every allocation the model saw die.
        let mut dead_bounds: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { size, fill } => {
                    match pool.zalloc(size) {
                        Ok(oid) => {
                            pool.write(oid.off, &vec![fill; size as usize]).unwrap();
                            pool.persist(oid.off, size as usize).unwrap();
                            live.insert(next_id, ModelObj { oid, fill, size });
                            next_id += 1;
                        }
                        Err(PmdkError::OutOfMemory { .. }) => {}
                        Err(e) => panic!("unexpected alloc error: {e}"),
                    }
                }
                Op::Free { victim } => {
                    let keys: Vec<usize> = live.keys().copied().collect();
                    if keys.is_empty() { continue; }
                    let k = keys[victim % keys.len()];
                    let obj = live.remove(&k).unwrap();
                    pool.free(obj.oid).unwrap();
                    dead_bounds.push(obj.oid.off + obj.size);
                }
                Op::Realloc { victim, new_size } => {
                    let keys: Vec<usize> = live.keys().copied().collect();
                    if keys.is_empty() { continue; }
                    let k = keys[victim % keys.len()];
                    let obj = live.get(&k).unwrap().clone();
                    match pool.realloc_into(dest, obj.oid, new_size) {
                        Ok(new_oid) => {
                            // The surviving prefix keeps its fill byte.
                            let survive = obj.size.min(new_size);
                            let mut buf = vec![0u8; survive as usize];
                            pool.read(new_oid.off, &mut buf).unwrap();
                            prop_assert!(buf.iter().all(|&b| b == obj.fill),
                                "realloc lost contents");
                            // Re-fill entirely so the model stays simple.
                            pool.write(new_oid.off, &vec![obj.fill; new_size as usize]).unwrap();
                            pool.persist(new_oid.off, new_size as usize).unwrap();
                            live.insert(k, ModelObj { oid: new_oid, fill: obj.fill, size: new_size });
                            dead_bounds.push(obj.oid.off + obj.size);
                        }
                        Err(PmdkError::OutOfMemory { .. }) => {}
                        Err(e) => panic!("unexpected realloc error: {e}"),
                    }
                }
                Op::TxAlloc { size, fill, commit } => {
                    let mut born = None;
                    let r = pool.tx(|tx| -> spp_pmdk::Result<()> {
                        let oid = tx.zalloc(size)?;
                        born = Some(oid);
                        tx.pool().write(oid.off, &vec![fill; size as usize])?;
                        tx.pool().persist(oid.off, size as usize)?;
                        if commit { Ok(()) } else { Err(tx.abort("model abort")) }
                    });
                    match (r, born) {
                        (Ok(()), Some(oid)) => {
                            live.insert(next_id, ModelObj { oid, fill, size });
                            next_id += 1;
                        }
                        (Err(PmdkError::TxAborted(_)), Some(oid)) => {
                            dead_bounds.push(oid.off + size);
                        }
                        (Err(PmdkError::OutOfMemory { .. }), None) => {}
                        (r, _) => panic!("unexpected tx_alloc outcome: {r:?}"),
                    }
                }
                Op::TxFree { victim, commit } => {
                    let keys: Vec<usize> = live.keys().copied().collect();
                    if keys.is_empty() { continue; }
                    let k = keys[victim % keys.len()];
                    let oid = live[&k].oid;
                    let r = pool.tx(|tx| -> spp_pmdk::Result<()> {
                        tx.free(oid)?;
                        if commit { Ok(()) } else { Err(tx.abort("model abort")) }
                    });
                    if commit {
                        r.unwrap();
                        let obj = live.remove(&k).unwrap();
                        dead_bounds.push(obj.oid.off + obj.size);
                    } else {
                        prop_assert!(matches!(r, Err(PmdkError::TxAborted(_))));
                    }
                }
            }
            check_no_overlap(&live);
        }
        // Every live object still holds its fill byte.
        for obj in live.values() {
            let mut buf = vec![0u8; obj.size as usize];
            pool.read(obj.oid.off, &mut buf).unwrap();
            prop_assert!(buf.iter().all(|&b| b == obj.fill), "contents corrupted");
        }
        // And the live accounting matches.
        prop_assert_eq!(pool.stats().live_objects as usize, live.len() + 1 /* home */);
        // Volatile = rebuilt: reopening the media as it stands reconstructs
        // the running pool's counters and generation index exactly.
        let img = pool.pm().crash_image(CrashSpec::KeepAll);
        let reopened = ObjPool::open(Arc::new(PmPool::from_image(img, PoolConfig::new(0)))).unwrap();
        prop_assert_eq!(reopened.stats().live_bytes, pool.stats().live_bytes);
        prop_assert_eq!(reopened.stats().live_objects, pool.stats().live_objects);
        // The index buckets bounds by 16 bytes: bucket -> live generation.
        let mut indexed: HashMap<u64, u8> = HashMap::new();
        for b in pool.walk_heap().unwrap() {
            if let Some(bound) = b.bound_off() {
                prop_assert_eq!(pool.gen_at_bound(bound), b.gen, "running index, block {:#x}", b.off);
                prop_assert_eq!(reopened.gen_at_bound(bound), b.gen, "rebuilt index, block {:#x}", b.off);
                indexed.insert(bound / 16, b.gen);
            }
        }
        // A dead allocation's bound reads 0 unless a live one now ends there.
        for bound in dead_bounds {
            let want = indexed.get(&(bound / 16)).copied().unwrap_or(0);
            prop_assert_eq!(pool.gen_at_bound(bound), want, "running index, dead bound {:#x}", bound);
            prop_assert_eq!(reopened.gen_at_bound(bound), want, "rebuilt index, dead bound {:#x}", bound);
        }
    }

    #[test]
    fn rebuild_after_crash_preserves_live_set(sizes in prop::collection::vec(1u64..512, 1..20)) {
        let pm = Arc::new(PmPool::new(PoolConfig::new(2 << 20).mode(Mode::Tracked)));
        let pool = ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap();
        let mut fills = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let oid = pool.zalloc(size).unwrap();
            let fill = (i % 251) as u8 + 1;
            pool.write(oid.off, &vec![fill; size as usize]).unwrap();
            pool.persist(oid.off, size as usize).unwrap();
            fills.push((oid, fill, size));
        }
        // Free every other object.
        for (oid, _, _) in fills.iter().skip(1).step_by(2) {
            pool.free(*oid).unwrap();
        }
        let survivors: Vec<_> = fills.iter().step_by(2).cloned().collect();
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
        let reopened = ObjPool::open(pm2).unwrap();
        prop_assert_eq!(reopened.stats().live_objects as usize, survivors.len());
        for (oid, fill, size) in survivors {
            let mut buf = vec![0u8; size as usize];
            reopened.read(oid.off, &mut buf).unwrap();
            prop_assert!(buf.iter().all(|&b| b == fill));
            // Freed-and-recovered pool can still allocate into the gaps.
        }
        reopened.zalloc(64).unwrap();
    }

    #[test]
    fn oid_encoding_roundtrips(
        uuid in any::<u64>(),
        off in any::<u64>(),
        // The allocator rejects sizes >= 2^40; the SPP size word's spare
        // high byte carries the SPP+T generation.
        size in 0u64..1 << 40,
        gen in 0u8..=127,
    ) {
        let oid = PmemOid::new(uuid, off, size).with_gen(gen);
        let spp = PmemOid::decode(&oid.encode(OidKind::Spp), OidKind::Spp);
        prop_assert_eq!(spp, oid);
        let pmdk = PmemOid::decode(&oid.encode(OidKind::Pmdk), OidKind::Pmdk);
        prop_assert_eq!(pmdk.pool_uuid, uuid);
        prop_assert_eq!(pmdk.off, off);
        prop_assert_eq!(pmdk.size, 0);
        prop_assert_eq!(pmdk.gen, 0);
    }
}
