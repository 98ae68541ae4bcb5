//! The torture workloads.
//!
//! Each workload drives a deterministic, seeded op sequence against a
//! tracked pool inside one [`spp_pmemcheck::explore`] call, which samples
//! crash states at every durability boundary. A shared *expected-state*
//! model is updated around every operation: before the op it records the
//! op as in-flight (both the pre- and post-states are then acceptable —
//! crash recovery must land on exactly one of them, never between); after
//! the op completes it commits the post-state. The oracle closures read
//! that model through an `Arc<Mutex<..>>`, so a crash image taken
//! mid-operation is checked against precisely the two legal outcomes.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use spp_containers::PList;
use spp_core::{SppPolicy, TagConfig};
use spp_kvstore::{KvStore, KEY_SIZE};
use spp_pm::{Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidDest, OidKind, PmdkError, PmemOid, PoolOpts};

use crate::oracle::{allocated_block_at, allocated_count, make_oracle, Recovered};
use crate::{explore_workload, TortureConfig, WorkloadResult};

/// Simulated device size for every workload pool — small, so the
/// per-crash-state image clone stays cheap.
const POOL_SIZE: u64 = 1 << 18;

/// One registered workload.
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Driver: sets up a pool, then runs the op sequence inside the
    /// crash-state driver and cross-checks the event log.
    pub run: fn(&TortureConfig) -> Result<WorkloadResult, String>,
}

/// All workloads, in default run order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "alloc",
            about: "raw alloc/free of pmdk-oid slots; leak + dangling-oid oracles",
            run: run_alloc,
        },
        Workload {
            name: "publish",
            about: "spp-oid alloc/realloc/free; size-field (§IV-F) oracle",
            run: run_publish,
        },
        Workload {
            name: "tx",
            about: "tx commit/abort/tx_alloc/tx_free; atomicity + no-poison oracles",
            run: run_tx,
        },
        Workload {
            name: "kvstore",
            about: "kvstore puts/removes under the SPP policy; lookup oracle",
            run: run_kvstore,
        },
        Workload {
            name: "list",
            about: "persistent list push/pop under the SPP policy; sequence oracle",
            run: run_list,
        },
        Workload {
            name: "generation",
            about: "SPP+T free/realloc churn, atomic and tx; gen-bump atomicity + no-resurrection oracles",
            run: run_generation,
        },
    ]
}

/// The workload names, for CLI help and validation.
pub fn workload_names() -> Vec<&'static str> {
    all_workloads().iter().map(|w| w.name).collect()
}

fn estr(e: PmdkError) -> String {
    format!("driver error: {e:?}")
}

fn tracked_pool() -> Arc<PmPool> {
    Arc::new(PmPool::new(PoolConfig::new(POOL_SIZE).mode(Mode::Tracked)))
}

/// Salt the master seed per workload so op sequences differ.
fn wseed(cfg: &TortureConfig, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    cfg.seed ^ h
}

// ---------------------------------------------------------------------------
// Workload 1: raw alloc/free into pmdk-oid slots.
// ---------------------------------------------------------------------------

const ALLOC_SLOTS: usize = 8;

/// Expected slot contents: committed payload sizes plus at most one
/// in-flight transition `(slot, post_size)`.
#[derive(Debug, Default)]
struct SlotExpected {
    committed: Vec<Option<u64>>,
    in_flight: Option<(usize, Option<u64>)>,
}

impl SlotExpected {
    fn new(slots: usize) -> Self {
        SlotExpected {
            committed: vec![None; slots],
            in_flight: None,
        }
    }

    /// The acceptable values for `slot` (pre- and, if in flight, post-).
    fn acceptable(&self, slot: usize) -> Vec<Option<u64>> {
        let mut ok = vec![self.committed[slot]];
        if let Some((s, post)) = self.in_flight {
            if s == slot && !ok.contains(&post) {
                ok.push(post);
            }
        }
        ok
    }
}

/// Where an oid-slot array lives and how strictly to check it.
/// `structural` is the number of allocated heap blocks that are *not*
/// slot payloads (the root block, container metadata, ...).
#[derive(Debug, Clone, Copy)]
struct SlotLayout {
    root_off: u64,
    slot_stride: u64,
    kind: OidKind,
    structural: u64,
    exact_size: bool,
}

/// Check one oid-slot array against the expected model.
fn check_slots(
    rp: &Recovered,
    blocks: &[spp_pmdk::BlockInfo],
    lay: SlotLayout,
    exp: &SlotExpected,
) -> Result<(), String> {
    let SlotLayout {
        root_off,
        slot_stride,
        kind,
        structural,
        exact_size,
    } = lay;
    let mut live = 0u64;
    let mut seen_offs = Vec::new();
    for (i, _) in exp.committed.iter().enumerate() {
        let off = root_off + i as u64 * slot_stride;
        let oid = rp
            .pool
            .oid_read(off, kind)
            .map_err(|e| format!("slot {i}: oid read failed: {e:?}"))?;
        let acceptable = exp.acceptable(i);
        if oid.is_null() {
            if !acceptable.contains(&None) {
                return Err(format!(
                    "slot {i}: lost allocation — oid is null but expected {acceptable:?}"
                ));
            }
            continue;
        }
        live += 1;
        if seen_offs.contains(&oid.off) {
            return Err(format!("slot {i}: duplicate oid offset {:#x}", oid.off));
        }
        seen_offs.push(oid.off);
        let block = allocated_block_at(blocks, oid.off)
            .ok_or_else(|| format!("slot {i}: dangling oid {:#x} (no allocated block)", oid.off))?;
        let sizes: Vec<u64> = acceptable.iter().filter_map(|a| *a).collect();
        if sizes.is_empty() {
            return Err(format!(
                "slot {i}: unexpected live oid {:#x}, expected null",
                oid.off
            ));
        }
        if exact_size {
            // SPP oids carry their size on media: it must match one of the
            // acceptable states exactly and fit the backing block.
            if !sizes.contains(&oid.size) {
                return Err(format!(
                    "slot {i}: oid size field {} disagrees with expected sizes {sizes:?}",
                    oid.size
                ));
            }
            if block.payload_size() < oid.size {
                return Err(format!(
                    "slot {i}: oid size {} exceeds backing block payload {}",
                    oid.size,
                    block.payload_size()
                ));
            }
        } else if !sizes.iter().any(|&sz| block.payload_size() >= sz) {
            return Err(format!(
                "slot {i}: block payload {} too small for any expected size {sizes:?}",
                block.payload_size()
            ));
        }
    }
    let total = allocated_count(blocks);
    if total != live + structural {
        return Err(format!(
            "heap leak or loss: {total} allocated blocks, expected {live} live slots + {structural} structural"
        ));
    }
    Ok(())
}

fn run_alloc(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    let root = pool.root(ALLOC_SLOTS as u64 * 16).map_err(estr)?;
    pm.reset_tracking();

    let expected = Arc::new(Mutex::new(SlotExpected::new(ALLOC_SLOTS)));
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let root_off = root.off;
        move |rp: &Recovered, blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            check_slots(
                rp,
                blocks,
                SlotLayout {
                    root_off,
                    slot_stride: 16,
                    kind: OidKind::Pmdk,
                    structural: 1,
                    exact_size: false,
                },
                &exp,
            )
        }
    });

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "alloc"));
    let mut oids: Vec<Option<PmemOid>> = vec![None; ALLOC_SLOTS];
    explore_workload(cfg, "alloc", &pm, oracle, || {
        for _ in 0..cfg.steps {
            let slot = rng.random_range(0..ALLOC_SLOTS as u64) as usize;
            let dest = OidDest::pmdk(root.off + slot as u64 * 16);
            match oids[slot] {
                Some(oid) => {
                    expected.lock().in_flight = Some((slot, None));
                    pool.free_from(dest, oid).map_err(estr)?;
                    let mut exp = expected.lock();
                    exp.committed[slot] = None;
                    exp.in_flight = None;
                    oids[slot] = None;
                }
                None => {
                    let size = 16 + rng.random_range(0..240);
                    expected.lock().in_flight = Some((slot, Some(size)));
                    let oid = pool.alloc_into(dest, size).map_err(estr)?;
                    let mut exp = expected.lock();
                    exp.committed[slot] = Some(size);
                    exp.in_flight = None;
                    oids[slot] = Some(oid);
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Workload 2: spp-oid publication with realloc — the §IV-F size oracle.
// ---------------------------------------------------------------------------

const PUBLISH_SLOTS: usize = 4;

fn run_publish(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    let root = pool.root(PUBLISH_SLOTS as u64 * 24).map_err(estr)?;
    pm.reset_tracking();

    let expected = Arc::new(Mutex::new(SlotExpected::new(PUBLISH_SLOTS)));
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let root_off = root.off;
        move |rp: &Recovered, blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            check_slots(
                rp,
                blocks,
                SlotLayout {
                    root_off,
                    slot_stride: 24,
                    kind: OidKind::Spp,
                    structural: 1,
                    exact_size: true,
                },
                &exp,
            )
        }
    });

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "publish"));
    let mut oids: Vec<Option<PmemOid>> = vec![None; PUBLISH_SLOTS];
    explore_workload(cfg, "publish", &pm, oracle, || {
        for _ in 0..cfg.steps {
            let slot = rng.random_range(0..PUBLISH_SLOTS as u64) as usize;
            let dest = OidDest::spp(root.off + slot as u64 * 24);
            match oids[slot] {
                Some(oid) if rng.random_range(0..2) == 0 => {
                    let size = 16 + rng.random_range(0..500);
                    expected.lock().in_flight = Some((slot, Some(size)));
                    let new = pool.realloc_into(dest, oid, size).map_err(estr)?;
                    let mut exp = expected.lock();
                    exp.committed[slot] = Some(size);
                    exp.in_flight = None;
                    oids[slot] = Some(new);
                }
                Some(oid) => {
                    expected.lock().in_flight = Some((slot, None));
                    pool.free_from(dest, oid).map_err(estr)?;
                    let mut exp = expected.lock();
                    exp.committed[slot] = None;
                    exp.in_flight = None;
                    oids[slot] = None;
                }
                None => {
                    let size = 16 + rng.random_range(0..500);
                    expected.lock().in_flight = Some((slot, Some(size)));
                    let oid = pool.zalloc_into(dest, size).map_err(estr)?;
                    let mut exp = expected.lock();
                    exp.committed[slot] = Some(size);
                    exp.in_flight = None;
                    oids[slot] = Some(oid);
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Workload 3: transactions — paired counters, aborts, tx_alloc/tx_free.
// ---------------------------------------------------------------------------

const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;
const TX_SLOTS: usize = 2;

#[derive(Debug, Default)]
struct TxExpected {
    /// Committed value of the paired counters.
    value: u64,
    /// In-flight counter target (commit path) — `None` when the step is an
    /// abort or a slot op (counter must then read exactly `value`).
    value_post: Option<u64>,
    slots: SlotExpected,
}

fn run_tx(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    // Layout: counters a/b at +0/+8, then two pmdk oid slots.
    let root = pool.root(16 + TX_SLOTS as u64 * 16).map_err(estr)?;
    pm.reset_tracking();

    let expected = Arc::new(Mutex::new(TxExpected {
        slots: SlotExpected::new(TX_SLOTS),
        ..TxExpected::default()
    }));
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let root_off = root.off;
        move |rp: &Recovered, blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            let a = rp
                .pool
                .read_u64(root_off)
                .map_err(|e| format!("counter read failed: {e:?}"))?;
            let b = rp
                .pool
                .read_u64(root_off + 8)
                .map_err(|e| format!("counter read failed: {e:?}"))?;
            if a == POISON || b == POISON {
                return Err("aborted transaction's poison value survived recovery".into());
            }
            if a != b {
                return Err(format!(
                    "torn transaction: paired counters diverge ({a} != {b})"
                ));
            }
            let ok = a == exp.value || exp.value_post == Some(a);
            if !ok {
                return Err(format!(
                    "counter {} is neither committed {} nor in-flight {:?}",
                    a, exp.value, exp.value_post
                ));
            }
            check_slots(
                rp,
                blocks,
                SlotLayout {
                    root_off: root_off + 16,
                    slot_stride: 16,
                    kind: OidKind::Pmdk,
                    structural: 1,
                    exact_size: false,
                },
                &exp.slots,
            )
        }
    });

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "tx"));
    let mut oids: Vec<Option<PmemOid>> = vec![None; TX_SLOTS];
    explore_workload(cfg, "tx", &pm, oracle, || {
        for _ in 0..cfg.steps {
            match rng.random_range(0..4) {
                0 | 1 => {
                    let commit = rng.random_range(0..3) < 2;
                    let v = expected.lock().value;
                    if commit {
                        expected.lock().value_post = Some(v + 1);
                        pool.tx(|tx| -> Result<(), PmdkError> {
                            tx.write_u64(root.off, v + 1)?;
                            tx.write_u64(root.off + 8, v + 1)?;
                            Ok(())
                        })
                        .map_err(estr)?;
                        let mut exp = expected.lock();
                        exp.value = v + 1;
                        exp.value_post = None;
                    } else {
                        // Abort: poison both counters inside the tx; the live
                        // rollback (or crash recovery) must erase the poison.
                        let r = pool.tx(|tx| -> Result<(), PmdkError> {
                            tx.write_u64(root.off, POISON)?;
                            tx.write_u64(root.off + 8, POISON)?;
                            Err(tx.abort("torture: deliberate abort"))
                        });
                        if !matches!(r, Err(PmdkError::TxAborted(_))) {
                            return Err(format!("abort step: unexpected result {r:?}"));
                        }
                    }
                }
                _ => {
                    let slot = rng.random_range(0..TX_SLOTS as u64) as usize;
                    let slot_off = root.off + 16 + slot as u64 * 16;
                    match oids[slot] {
                        Some(oid) => {
                            expected.lock().slots.in_flight = Some((slot, None));
                            pool.tx(|tx| -> Result<(), PmdkError> {
                                tx.free(oid)?;
                                tx.write(slot_off, &PmemOid::NULL.encode(OidKind::Pmdk))?;
                                Ok(())
                            })
                            .map_err(estr)?;
                            let mut exp = expected.lock();
                            exp.slots.committed[slot] = None;
                            exp.slots.in_flight = None;
                            oids[slot] = None;
                        }
                        None => {
                            let size = 16 + rng.random_range(0..100);
                            expected.lock().slots.in_flight = Some((slot, Some(size)));
                            let oid = pool
                                .tx(|tx| -> Result<PmemOid, PmdkError> {
                                    let oid = tx.zalloc(size)?;
                                    tx.write(slot_off, &oid.encode(OidKind::Pmdk))?;
                                    Ok(oid)
                                })
                                .map_err(estr)?;
                            let mut exp = expected.lock();
                            exp.slots.committed[slot] = Some(size);
                            exp.slots.in_flight = None;
                            oids[slot] = Some(oid);
                        }
                    }
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Workload 4: the kvstore under the SPP policy.
// ---------------------------------------------------------------------------

type KvFlight = Option<(Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>)>;

#[derive(Debug, Default)]
struct KvExpected {
    committed: BTreeMap<Vec<u8>, Vec<u8>>,
    /// `(key, pre, post)` of the in-flight put/remove.
    in_flight: KvFlight,
}

fn kv_key(i: u64) -> Vec<u8> {
    let mut k = format!("torture-key-{i:02}").into_bytes();
    k.resize(KEY_SIZE, b'.');
    k
}

/// Version `version` of a key's value. The length changes every second
/// version, so overwrites alternate between the path that writes the value
/// in place (same length) and the one that moves it.
fn kv_value(key_idx: u64, version: u64) -> Vec<u8> {
    let len = 24 + (version / 2 % 3) as usize * 8;
    (0..len)
        .map(|i| (key_idx as u8) ^ (version as u8).wrapping_add(i as u8))
        .collect()
}

fn run_kvstore(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    let root = pool.root(24).map_err(estr)?;
    let policy = Arc::new(
        SppPolicy::new(Arc::clone(&pool), TagConfig::default())
            .map_err(|e| format!("policy setup failed: {e:?}"))?,
    );
    let kv =
        KvStore::create(Arc::clone(&policy), 16).map_err(|e| format!("kv create failed: {e:?}"))?;
    pool.publish_oid(OidDest::spp(root.off), kv.meta())
        .map_err(estr)?;
    pm.reset_tracking();

    let expected: Arc<Mutex<KvExpected>> = Arc::default();
    let universe: Vec<Vec<u8>> = (0..8).map(kv_key).collect();
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let universe = universe.clone();
        let root_off = root.off;
        move |rp: &Recovered, _blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            let meta = rp
                .pool
                .oid_read(root_off, OidKind::Spp)
                .map_err(|e| format!("meta oid read failed: {e:?}"))?;
            if meta.is_null() {
                return Err("kv meta oid lost from the root".into());
            }
            let policy = Arc::new(
                SppPolicy::new(Arc::clone(&rp.pool), TagConfig::default())
                    .map_err(|e| format!("policy reopen failed: {e:?}"))?,
            );
            let kv = KvStore::open(policy, meta).map_err(|e| format!("kv open failed: {e:?}"))?;
            let mut out = Vec::new();
            for key in &universe {
                out.clear();
                let found = kv
                    .get(key, &mut out)
                    .map_err(|e| format!("kv get failed after recovery: {e:?}"))?;
                let got = found.then(|| out.clone());
                let mut acceptable = vec![exp.committed.get(key).cloned()];
                if let Some((k, pre, post)) = &exp.in_flight {
                    if k == key {
                        acceptable = vec![pre.clone(), post.clone()];
                    }
                }
                if !acceptable.contains(&got) {
                    return Err(format!(
                        "key {:?}: got {:?}, expected one of {} state(s)",
                        String::from_utf8_lossy(key),
                        got.map(|v| v.len()),
                        acceptable.len()
                    ));
                }
            }
            Ok(())
        }
    });

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "kvstore"));
    let mut versions = vec![0u64; universe.len()];
    explore_workload(cfg, "kvstore", &pm, oracle, || {
        for _ in 0..cfg.steps {
            let ki = rng.random_range(0..universe.len() as u64);
            let key = universe[ki as usize].clone();
            let pre = expected.lock().committed.get(&key).cloned();
            if pre.is_some() && rng.random_range(0..10) < 3 {
                expected.lock().in_flight = Some((key.clone(), pre, None));
                kv.remove(&key)
                    .map_err(|e| format!("kv remove failed: {e:?}"))?;
                let mut exp = expected.lock();
                exp.committed.remove(&key);
                exp.in_flight = None;
            } else {
                versions[ki as usize] += 1;
                let value = kv_value(ki, versions[ki as usize]);
                expected.lock().in_flight = Some((key.clone(), pre, Some(value.clone())));
                kv.put(&key, &value)
                    .map_err(|e| format!("kv put failed: {e:?}"))?;
                let mut exp = expected.lock();
                exp.committed.insert(key, value);
                exp.in_flight = None;
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Workload 6: SPP+T generation survival under crash-at-every-boundary.
//
// Free/realloc churn over a few same-class slots (so LIFO reuse keeps
// handing dead blocks to new lifetimes), through the atomic API and
// through transactions (tx-alloc + publish, tx-free + null, tx-alloc +
// abort) alike, with two temporal oracles on every sampled crash state:
//
// * **gen bump + republish atomicity** — a recovered slot is exactly the
//   pre- or post-state of the in-flight op: oid and durable block
//   generation flip together, never one without the other (a torn free
//   would leave a live oid aimed at a free block, or a bumped block
//   still published — both are resurrection vectors);
// * **no resurrection** — the durable generation of every block the
//   workload ever touched is monotone across crash recovery: a recovered
//   generation below the committed floor would let a stale pointer's key
//   match a reborn allocation.
// ---------------------------------------------------------------------------

const GEN_SLOTS: usize = 4;
/// Slot sizes all round to the 64-byte class, so reallocs stay in place
/// (generation bump only) and free→alloc pairs reuse the same block.
const GEN_SIZES: [u64; 3] = [33, 40, 48];

/// One committed slot, as the driver observed it durably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GenSlot {
    /// Payload offset of the slot's block.
    off: u64,
    /// Durable live generation.
    gen: u8,
    /// Requested payload size.
    size: u64,
}

/// One acceptable recovered state of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenState {
    /// Slot oid is null.
    Empty,
    /// Slot holds exactly this block/generation/size.
    Exact(GenSlot),
    /// A tracked allocation of this size whose block and generation the
    /// driver has not observed yet (an alloc — or a moving realloc at
    /// generation saturation — is in flight).
    Fresh(u64),
}

#[derive(Debug, Default)]
struct GenExpected {
    committed: Vec<Option<GenSlot>>,
    /// `(slot, pre, post)` of the op in flight: recovery must land on
    /// exactly one of the two, never between.
    in_flight: Option<(usize, GenState, GenState)>,
    /// Monotone floor of the durable generation per payload offset.
    floor: BTreeMap<u64, u8>,
}

impl GenExpected {
    fn acceptable(&self, slot: usize) -> Vec<GenState> {
        let committed = match self.committed[slot] {
            Some(s) => GenState::Exact(s),
            None => GenState::Empty,
        };
        match self.in_flight {
            Some((s, pre, post)) if s == slot => {
                let mut ok = vec![pre];
                if post != pre {
                    ok.push(post);
                }
                ok
            }
            _ => vec![committed],
        }
    }
}

/// Check one recovered crash state against the generation model.
fn check_generations(
    rp: &Recovered,
    blocks: &[spp_pmdk::BlockInfo],
    root_off: u64,
    exp: &GenExpected,
) -> Result<(), String> {
    use spp_pmdk::{BlockState, GEN_MAX};

    let mut live = 0u64;
    for i in 0..exp.committed.len() {
        let oid = rp
            .pool
            .oid_read(root_off + i as u64 * 24, OidKind::Spp)
            .map_err(|e| format!("slot {i}: oid read failed: {e:?}"))?;
        let acceptable = exp.acceptable(i);
        if oid.is_null() {
            if !acceptable.contains(&GenState::Empty) {
                return Err(format!("slot {i}: oid is null but expected {acceptable:?}"));
            }
            continue;
        }
        live += 1;
        let block = allocated_block_at(blocks, oid.off).ok_or_else(|| {
            format!(
                "slot {i}: torn free — published oid {:#x} aims at a non-allocated block",
                oid.off
            )
        })?;
        let matched = acceptable.iter().any(|st| match *st {
            GenState::Empty => false,
            GenState::Exact(s) => {
                oid.off == s.off && block.gen == s.gen && block.requested == s.size
            }
            GenState::Fresh(size) => block.requested == size && block.gen >= 1,
        });
        if !matched {
            return Err(format!(
                "slot {i}: recovered (off {:#x}, gen {}, req {}) matches none of {acceptable:?}",
                oid.off, block.gen, block.requested
            ));
        }
    }

    // Gen bump and oid republish travel in one redo record, so the
    // allocated-block count always equals the published slots plus the
    // root — a mismatch is a torn free/alloc (or a leak).
    let total = allocated_count(blocks);
    if total != live + 1 {
        return Err(format!(
            "torn op or leak: {total} allocated blocks, expected {live} live slots + 1 root"
        ));
    }

    // No resurrection: every block the workload ever drove must never
    // recover *below* its committed generation floor, and the saturated
    // sentinel must never back a live allocation.
    for b in blocks {
        if b.state == BlockState::Allocated && b.gen == GEN_MAX {
            return Err(format!(
                "block {:#x} allocated at the quarantine sentinel generation",
                b.off
            ));
        }
        if let Some(&f) = exp.floor.get(&b.payload_off()) {
            if b.gen != 0 && b.gen < f {
                return Err(format!(
                    "generation ran backwards at block {:#x}: recovered {} < committed floor {f}",
                    b.off, b.gen
                ));
            }
        }
    }
    Ok(())
}

fn run_generation(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    use spp_pmdk::GEN_MAX;

    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    let root = pool.root(GEN_SLOTS as u64 * 24).map_err(estr)?;
    pm.reset_tracking();

    let expected = Arc::new(Mutex::new(GenExpected {
        committed: vec![None; GEN_SLOTS],
        ..GenExpected::default()
    }));
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let root_off = root.off;
        move |rp: &Recovered, blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            check_generations(rp, blocks, root_off, &exp)
        }
    });

    let bump_floor = |exp: &mut GenExpected, off: u64, gen: u8| {
        let f = exp.floor.entry(off).or_insert(0);
        *f = (*f).max(gen);
    };

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "generation"));
    let mut oids: Vec<Option<PmemOid>> = vec![None; GEN_SLOTS];
    explore_workload(cfg, "generation", &pm, oracle, || {
        for _ in 0..cfg.steps {
            let slot = rng.random_range(0..GEN_SLOTS as u64) as usize;
            let dest = OidDest::spp(root.off + slot as u64 * 24);
            let committed = expected.lock().committed[slot];
            match (oids[slot], committed) {
                (Some(oid), Some(s)) if rng.random_range(0..2) == 0 => {
                    // Free: the durable bump to gen+1 and the oid null-out
                    // must land together — in one redo record, or on the two
                    // sides of one transaction's commit point.
                    expected.lock().in_flight = Some((slot, GenState::Exact(s), GenState::Empty));
                    if rng.random_range(0..2) == 0 {
                        pool.free_from(dest, oid).map_err(estr)?;
                    } else {
                        pool.tx(|tx| -> Result<(), PmdkError> {
                            tx.free(oid)?;
                            tx.write(dest.off, &PmemOid::NULL.encode(OidKind::Spp))
                        })
                        .map_err(estr)?;
                    }
                    let mut exp = expected.lock();
                    exp.committed[slot] = None;
                    exp.in_flight = None;
                    bump_floor(&mut exp, s.off, s.gen.saturating_add(1));
                    oids[slot] = None;
                }
                (Some(oid), Some(s)) => {
                    // Same-class realloc: in place with a generation bump —
                    // unless the bump would saturate, in which case the
                    // allocator quarantines the block and moves.
                    let new_size = GEN_SIZES[rng.random_range(0..GEN_SIZES.len() as u64) as usize];
                    let post = if s.gen + 1 < GEN_MAX {
                        GenState::Exact(GenSlot {
                            off: s.off,
                            gen: s.gen + 1,
                            size: new_size,
                        })
                    } else {
                        GenState::Fresh(new_size)
                    };
                    expected.lock().in_flight = Some((slot, GenState::Exact(s), post));
                    let new = pool.realloc_into(dest, oid, new_size).map_err(estr)?;
                    let gen = pool.gen_at_bound(new.off + new_size);
                    let mut exp = expected.lock();
                    exp.committed[slot] = Some(GenSlot {
                        off: new.off,
                        gen,
                        size: new_size,
                    });
                    exp.in_flight = None;
                    // The old key died either way (bumped in place or block
                    // quarantined/freed).
                    bump_floor(&mut exp, s.off, s.gen.saturating_add(1));
                    bump_floor(&mut exp, new.off, gen);
                    oids[slot] = Some(new);
                }
                _ => {
                    // Alloc: block and generation are unknown until the op
                    // returns (LIFO reuse vs fresh wilderness block).
                    let size = GEN_SIZES[rng.random_range(0..GEN_SIZES.len() as u64) as usize];
                    let arm = rng.random_range(0..3);
                    let post = if arm == 2 {
                        GenState::Empty // the transaction aborts
                    } else {
                        GenState::Fresh(size)
                    };
                    expected.lock().in_flight = Some((slot, GenState::Empty, post));
                    let mut born = None;
                    let done = if arm == 0 {
                        pool.zalloc_into(dest, size).map(|oid| born = Some(oid))
                    } else {
                        pool.tx(|tx| -> Result<(), PmdkError> {
                            let oid = tx.zalloc(size)?;
                            born = Some(oid);
                            tx.write(dest.off, &oid.encode(OidKind::Spp))?;
                            if arm == 2 {
                                return Err(tx.abort("torture: deliberate abort"));
                            }
                            Ok(())
                        })
                    };
                    let oid = born.ok_or_else(|| format!("alloc step failed: {done:?}"))?;
                    let mut exp = expected.lock();
                    exp.in_flight = None;
                    match done {
                        Ok(()) => {
                            exp.committed[slot] = Some(GenSlot {
                                off: oid.off,
                                gen: oid.gen,
                                size,
                            });
                            bump_floor(&mut exp, oid.off, oid.gen);
                            oids[slot] = Some(oid);
                        }
                        // The oid escaped into (rolled-back) PM: its key must
                        // die with the aborted allocation.
                        Err(PmdkError::TxAborted(_)) if arm == 2 => {
                            bump_floor(&mut exp, oid.off, oid.gen.saturating_add(1));
                        }
                        Err(e) => return Err(estr(e)),
                    }
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Workload 5: the persistent list under the SPP policy.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ListExpected {
    committed: Vec<u64>,
    /// In-flight alternative (the post-state of the running push/pop).
    post: Option<Vec<u64>>,
}

fn run_list(cfg: &TortureConfig) -> Result<WorkloadResult, String> {
    let pm = tracked_pool();
    let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).map_err(estr)?);
    let root = pool.root(24).map_err(estr)?;
    let policy = Arc::new(
        SppPolicy::new(Arc::clone(&pool), TagConfig::default())
            .map_err(|e| format!("policy setup failed: {e:?}"))?,
    );
    let list =
        PList::create(Arc::clone(&policy)).map_err(|e| format!("list create failed: {e:?}"))?;
    pool.publish_oid(OidDest::spp(root.off), list.meta())
        .map_err(estr)?;
    pm.reset_tracking();

    let expected: Arc<Mutex<ListExpected>> = Arc::default();
    let oracle = make_oracle(cfg.faults, cfg.idempotence_stride, {
        let expected = Arc::clone(&expected);
        let root_off = root.off;
        move |rp: &Recovered, blocks: &[spp_pmdk::BlockInfo]| {
            let exp = expected.lock();
            let meta = rp
                .pool
                .oid_read(root_off, OidKind::Spp)
                .map_err(|e| format!("meta oid read failed: {e:?}"))?;
            if meta.is_null() {
                return Err("list meta oid lost from the root".into());
            }
            let policy = Arc::new(
                SppPolicy::new(Arc::clone(&rp.pool), TagConfig::default())
                    .map_err(|e| format!("policy reopen failed: {e:?}"))?,
            );
            let list = PList::open(policy, meta).map_err(|e| format!("list open failed: {e:?}"))?;
            let got = list
                .to_vec()
                .map_err(|e| format!("list walk failed after recovery: {e:?}"))?;
            let len = list
                .len()
                .map_err(|e| format!("list len failed after recovery: {e:?}"))?;
            if len != got.len() as u64 {
                return Err(format!(
                    "list count field {len} disagrees with chain length {}",
                    got.len()
                ));
            }
            if got != exp.committed && Some(&got) != exp.post.as_ref() {
                return Err(format!(
                    "list is neither pre {:?} nor post {:?}: {got:?}",
                    exp.committed, exp.post
                ));
            }
            // Leak check: root + list meta + one node per element.
            let matched_len = got.len() as u64;
            let total = allocated_count(blocks);
            if total != matched_len + 2 {
                return Err(format!(
                    "heap leak or loss: {total} allocated blocks for {matched_len} list nodes + 2 structural"
                ));
            }
            Ok(())
        }
    });

    let mut rng = StdRng::seed_from_u64(wseed(cfg, "list"));
    let mut next = 1u64;
    explore_workload(cfg, "list", &pm, oracle, || {
        for _ in 0..cfg.steps {
            let len = expected.lock().committed.len();
            if len < 12 && (len == 0 || rng.random_range(0..3) < 2) {
                let v = next;
                next += 1;
                {
                    let mut exp = expected.lock();
                    let mut post = exp.committed.clone();
                    post.push(v);
                    exp.post = Some(post);
                }
                list.push_back(v)
                    .map_err(|e| format!("list push failed: {e:?}"))?;
                let mut exp = expected.lock();
                exp.committed.push(v);
                exp.post = None;
            } else {
                {
                    let mut exp = expected.lock();
                    let mut post = exp.committed.clone();
                    post.remove(0);
                    exp.post = Some(post);
                }
                let popped = list
                    .pop_front()
                    .map_err(|e| format!("list pop failed: {e:?}"))?;
                let mut exp = expected.lock();
                let want = exp.committed.remove(0);
                exp.post = None;
                if popped != Some(want) {
                    return Err(format!("list pop returned {popped:?}, expected {want}"));
                }
            }
        }
        Ok(())
    })
}
