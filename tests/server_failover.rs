//! Kill-the-primary failover rigs for the sharded, replicated server.
//!
//! The deployment under test is two sharded servers: a *primary* serving
//! client traffic and shipping every committed write batch to a *backup*
//! over `REPL_BATCH` frames, each applied behind the backup's own
//! durability boundary. The rigs prove the replication contract from the
//! only angle that matters — what a client was told:
//!
//! - **Primary killed, backup promoted** ([`run_failover`]): live PUT
//!   load runs against the primary while a durability-boundary tap on
//!   the primary's pools picks the kill moment mid-commit. The rig then
//!   severs the replication stream (the primary "dies"), promotes the
//!   backup with a `PROMOTE` frame, and replays the acked wire log
//!   through the oracle's reference model. In sync ack mode every
//!   acknowledged write must be served byte-exact by the promoted
//!   backup; in async mode the backup must hold a consistent subset
//!   (never a foreign key or a torn value).
//! - **Backup crashed at a boundary** ([`backup_crash_rig`]): same load,
//!   but the tap sits on the *backup's* pools and captures
//!   drop-unpersisted crash images of every backup shard. Each image is
//!   recovered through the full stack (pmdk reopen, lane-quiescence and
//!   heap-walk oracles, engine reopen rebuilding the generation index)
//!   and must still hold every write that was synchronously acked before
//!   the images were taken — routed to the right shard by an
//!   independently rebuilt consistent-hash ring.
//!
//! Recovery GETs double as a temporal-safety check: a rebuilt or
//! promoted shard whose generation index produced false positives would
//! turn them into `GET` errors, which every rig treats as failure.
//!
//! The sync rig returns `Result` rather than panicking so the suite can
//! also prove the rig's *power*: [`lost_replication_batch_is_caught`]
//! drops one shipped batch via the fault-injection hook and requires the
//! verification to fail. CI runs the same drop through the
//! `SPP_REPL_DROP_BATCH` environment hook as a must-stay-red step.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spp::pm::{CrashImage, CrashSpec, PmPool, PoolConfig};
use spp::pmdk::ObjPool;
use spp::server::{
    fresh_server_pool, Client, ClientError, KvEngine, PolicyKind, ReplAckMode, ReplConfig, Ring,
    Server, ServerConfig,
};

/// Shards per server. Two is the smallest count where routing, per-shard
/// replication streams, and per-shard crash images can all diverge.
const SHARDS: u32 = 2;
const CLIENTS: u32 = 2;
const OPS_PER_CLIENT: u64 = 200;
const VALUE_PAD: usize = 48;

fn key_of(conn: u32, seq: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..4].copy_from_slice(&conn.to_be_bytes());
    k[4..12].copy_from_slice(&seq.to_be_bytes());
    k
}

fn value_of(conn: u32, seq: u64) -> Vec<u8> {
    let mut v = format!("v-{conn}-{seq}-").into_bytes();
    v.resize(VALUE_PAD, b'.');
    v
}

/// A key outside every client's key space, written through the promoted
/// backup to prove it serves normal traffic after taking over.
fn probe_key() -> [u8; 16] {
    key_of(77, 77)
}

const PROBE_VALUE: &[u8] = b"post-promote-probe";

/// One pool + engine per shard, served behind a consistent-hash ring.
fn start_sharded(
    kind: PolicyKind,
    tracked: bool,
    repl: Option<ReplConfig>,
) -> (Vec<Arc<ObjPool>>, Server) {
    let mut pools = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..SHARDS {
        let pool = fresh_server_pool(24 << 20, 4, tracked).unwrap();
        engines.push(Arc::new(
            KvEngine::create(Arc::clone(&pool), kind, 512).unwrap(),
        ));
        pools.push(pool);
    }
    let server = Server::start_multi(
        engines,
        ("127.0.0.1", 0),
        ServerConfig {
            max_conns: 8,
            repl,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (pools, server)
}

/// Drive PUT load from [`CLIENTS`] connections against `addr`, logging
/// each ack as `(conn, seq)` in wire order. Threads wind down when
/// `stop` flips (the rig's kill moment) or the ops budget runs out.
fn drive_load(
    addr: std::net::SocketAddr,
    acked: &Arc<Mutex<Vec<(u32, u64)>>>,
    stop: &Arc<AtomicBool>,
) {
    let threads: Vec<_> = (0..CLIENTS)
        .map(|cid| {
            let acked = Arc::clone(acked);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                for seq in 0..OPS_PER_CLIENT {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match c.put(&key_of(cid, seq), &value_of(cid, seq)) {
                        Ok(()) => acked.lock().unwrap().push((cid, seq)),
                        Err(ClientError::Busy) => {
                            panic!("client {cid}: BUSY on an admitted connection")
                        }
                        // Acceptable only while the rig winds down.
                        Err(_) if stop.load(Ordering::SeqCst) => break,
                        Err(e) => panic!("client {cid}: PUT failed mid-load: {e}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

/// Replay an acked wire log into the oracle's reference model. PUT acks
/// arrive in per-connection order and every connection owns a disjoint
/// key range, so log order is a valid linearization per key.
fn model_of(acked: &[(u32, u64)]) -> spp::oracle::Model {
    let mut model = spp::oracle::Model::new();
    for &(cid, seq) in acked {
        model.kv_put(key_of(cid, seq), value_of(cid, seq));
    }
    model
}

/// The primary-kill rig. Returns `Err` when the promoted backup breaks
/// the replication contract — kept as a `Result` (not a panic) so the
/// dropped-batch test can assert the rig *catches* an injected hole.
///
/// `target` is the primary durability boundary (counted across shards)
/// at which the kill triggers; `u64::MAX` lets the workload complete so
/// every op is acked (the dropped-batch test wants maximal coverage).
fn run_failover(
    kind: PolicyKind,
    ack_mode: ReplAckMode,
    target: u64,
    drop_batch: Option<u64>,
) -> Result<(), String> {
    let (_backup_pools, backup) = start_sharded(kind, false, None);
    let (primary_pools, primary) = start_sharded(
        kind,
        true,
        Some(ReplConfig {
            backup: backup.local_addr(),
            ack_mode,
            drop_batch,
        }),
    );

    let acked: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    // The kill moment: one boundary counter shared by every primary
    // shard, so the trigger lands mid-commit on whichever shard crosses
    // the target — held until at least one PUT was acked on the wire.
    let boundaries = Arc::new(AtomicU64::new(0));
    for pool in &primary_pools {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        let boundaries = Arc::clone(&boundaries);
        pool.pm().set_boundary_tap(Box::new(move |_, _| {
            if boundaries.fetch_add(1, Ordering::Relaxed) + 1 < target
                || stop.load(Ordering::SeqCst)
                || acked.lock().unwrap().is_empty()
            {
                return;
            }
            stop.store(true, Ordering::SeqCst);
        }));
    }

    drive_load(primary.local_addr(), &acked, &stop);
    for pool in &primary_pools {
        pool.pm().clear_boundary_tap();
    }

    // Every entry was acked on the wire before the kill; in sync mode
    // each of them was REPL_ACKed (durable on the backup) strictly
    // before its client ack, so the full log is the proof obligation.
    let log = acked.lock().unwrap().clone();
    assert!(!log.is_empty(), "rig killed the primary before any ack");
    let stats = primary.repl_stats().expect("replication was configured");
    assert!(stats.shipped > 0, "no batch was ever replicated: {stats:?}");
    if drop_batch.is_some() {
        assert!(
            stats.dropped >= 1,
            "fault injection never fired: {stats:?} (log has {} acks)",
            log.len()
        );
    }

    // The primary dies: the replication stream is severed first so its
    // shutdown drain cannot ship anything more, exactly like a process
    // kill between a backup ack and the next batch.
    primary.debug_cut_replication();
    primary.shutdown();

    // Promote the backup over the wire and prove it serves new traffic.
    let mut c = Client::connect_retry(backup.local_addr(), Duration::from_secs(5)).unwrap();
    c.promote().expect("PROMOTE frame failed");
    assert!(backup.is_promoted(), "PROMOTE did not flip the server");
    c.put(&probe_key(), PROBE_VALUE)
        .expect("promoted backup refused a write");

    let verdict = verify_promoted(kind, ack_mode, &backup, &mut c, &log);
    if verdict.is_ok() {
        eprintln!(
            "failover {} {ack_mode}: {} acked writes verified on promoted backup \
             ({} batches shipped)",
            kind.label(),
            log.len(),
            stats.shipped
        );
    }
    drop(c);
    backup.shutdown();
    verdict
}

/// The post-promotion proof obligations, over real sockets plus an
/// engine-level sweep. Any GET error — including a temporal-safety
/// false positive from the backup's generation index — fails the rig.
fn verify_promoted(
    kind: PolicyKind,
    ack_mode: ReplAckMode,
    backup: &Server,
    c: &mut Client,
    log: &[(u32, u64)],
) -> Result<(), String> {
    let model = model_of(log);
    let mut out = Vec::new();

    if ack_mode == ReplAckMode::Sync {
        // Positive predictions: every synchronously-acked write must be
        // served byte-exact by the promoted backup.
        for (k, want) in &model.kv {
            out.clear();
            let hit = c
                .get(k, &mut out)
                .map_err(|e| format!("{}: GET on promoted backup errored: {e}", kind.label()))?;
            if !hit {
                return Err(format!(
                    "{}: synchronously-acked PUT {k:?} missing after failover",
                    kind.label()
                ));
            }
            if &out != want {
                return Err(format!(
                    "{}: promoted backup serves divergent bytes for {k:?}",
                    kind.label()
                ));
            }
        }
    }

    // Negative predictions: keys outside the trace's key space miss on
    // the promoted backup (and must not error).
    for miss in [key_of(CLIENTS + 7, 0), key_of(0, OPS_PER_CLIENT + 3)] {
        out.clear();
        let hit = c
            .get(&miss, &mut out)
            .map_err(|e| format!("{}: negative GET errored: {e}", kind.label()))?;
        if hit {
            return Err(format!(
                "{}: promoted backup hit a key the model never saw",
                kind.label()
            ));
        }
    }

    // Completeness sweep, shard by shard: everything the backup holds is
    // either the probe, a modelled write with its exact bytes, or an
    // in-flight write from the run that was replicated but whose client
    // ack the kill outran — never a foreign key, a torn value, or a key
    // parked on a shard the ring does not route it to.
    let ring = backup.ring();
    let mut problems: Vec<String> = Vec::new();
    for (shard, engine) in backup.engines().into_iter().enumerate() {
        engine
            .for_each(|k, v| {
                if *k == probe_key() {
                    if v != PROBE_VALUE {
                        problems.push("probe key holds divergent bytes".into());
                    }
                    return Ok(());
                }
                if ring.shard_of(k) != shard as u32 {
                    problems.push(format!(
                        "key {k:?} found on shard {shard}, ring routes it to {}",
                        ring.shard_of(k)
                    ));
                    return Ok(());
                }
                let cid = u32::from_be_bytes(k[..4].try_into().unwrap());
                let seq = u64::from_be_bytes(k[4..12].try_into().unwrap());
                if cid >= CLIENTS || seq >= OPS_PER_CLIENT {
                    problems.push(format!("foreign key ({cid},{seq}) on the backup"));
                } else if v != value_of(cid, seq) {
                    problems.push(format!("torn value for ({cid},{seq}) on the backup"));
                }
                Ok(())
            })
            .map_err(|e| format!("{}: backup shard {shard} sweep: {e}", kind.label()))?;
    }
    if let Some(p) = problems.into_iter().next() {
        return Err(format!("{}: {p}", kind.label()));
    }
    Ok(())
}

/// The backup-side crash rig: sync replication, durability-boundary tap
/// on the *backup's* pools; at the target boundary it snapshots the
/// acked log and captures a drop-unpersisted crash image of every
/// backup shard. Recovery of those images must serve every write from
/// the snapshot — each REPL_ACK (and hence each client ack) happened
/// only after the backup's own commit fence, so the snapshot is durable
/// in the images by construction.
fn backup_crash_rig(kind: PolicyKind, target: u64) {
    let (backup_pools, backup) = start_sharded(kind, true, None);
    let (_primary_pools, primary) = start_sharded(
        kind,
        false,
        Some(ReplConfig {
            backup: backup.local_addr(),
            ack_mode: ReplAckMode::Sync,
            drop_batch: None,
        }),
    );

    let acked: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    type Capture = (Vec<(u32, u64)>, Vec<CrashImage>);
    let captured: Arc<Mutex<Option<Capture>>> = Arc::new(Mutex::new(None));

    let boundaries = Arc::new(AtomicU64::new(0));
    // Exactly one tap performs the capture: the winner images every
    // backup shard, so a concurrent boundary on the other shard must not
    // start a second capture (or deadlock waiting on the first).
    let capturing = Arc::new(AtomicBool::new(false));
    for pool in &backup_pools {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        let boundaries = Arc::clone(&boundaries);
        let capturing = Arc::clone(&capturing);
        let captured = Arc::clone(&captured);
        let pools = backup_pools.clone();
        pool.pm().set_boundary_tap(Box::new(move |_, _| {
            if boundaries.fetch_add(1, Ordering::Relaxed) + 1 < target
                || stop.load(Ordering::SeqCst)
                || capturing.swap(true, Ordering::SeqCst)
            {
                return;
            }
            // Order matters: snapshot the acked log FIRST. Everything in
            // it was backup-fenced before its REPL_ACK, which preceded
            // its client ack, so it is durable in the images taken next.
            let snapshot = acked.lock().unwrap().clone();
            if snapshot.is_empty() {
                // Hold the crash until the contract is exercised.
                capturing.store(false, Ordering::SeqCst);
                return;
            }
            let images = pools
                .iter()
                .map(|p| p.pm().crash_image(CrashSpec::DropUnpersisted))
                .collect();
            *captured.lock().unwrap() = Some((snapshot, images));
            stop.store(true, Ordering::SeqCst);
        }));
    }

    drive_load(primary.local_addr(), &acked, &stop);
    for pool in &backup_pools {
        pool.pm().clear_boundary_tap();
    }
    primary.shutdown();
    backup.shutdown();

    let (snapshot, images) = captured.lock().unwrap().take().unwrap_or_else(|| {
        // The workload outran the target boundary; fall back to clean
        // post-shutdown images so the test still proves recovery.
        let snapshot = acked.lock().unwrap().clone();
        let images = backup_pools
            .iter()
            .map(|p| p.pm().crash_image(CrashSpec::KeepAll))
            .collect();
        (snapshot, images)
    });
    assert!(!snapshot.is_empty(), "rig crashed before any ack");

    // Recover every backup shard through the full stack.
    let mut engines = Vec::new();
    for (shard, image) in images.into_iter().enumerate() {
        let pm = Arc::new(PmPool::from_image(image, PoolConfig::new(0)));
        let pool = Arc::new(ObjPool::open(pm).expect("pmdk recovery failed on crash image"));
        for (i, s) in pool.lane_statuses().unwrap().into_iter().enumerate() {
            assert!(
                s.is_quiescent(),
                "shard {shard} lane {i} not quiescent after recovery: {s:?}"
            );
        }
        pool.walk_heap().expect("heap not walkable after recovery");
        engines.push(KvEngine::open(pool, kind).expect("engine reopen failed"));
    }

    // An independently rebuilt ring must route every modelled key to a
    // shard image that serves it byte-exact. Each GET also exercises the
    // freshly rebuilt generation index: a temporal-safety false positive
    // would surface as an error here.
    let model = model_of(&snapshot);
    let ring = Ring::new(SHARDS);
    let mut out = Vec::new();
    for (k, want) in &model.kv {
        out.clear();
        let hit = engines[ring.shard_of(k) as usize]
            .get(k, &mut out)
            .expect("GET after backup recovery errored (temporal false positive?)");
        assert!(
            hit,
            "{}: synchronously-acked PUT {k:?} missing from the recovered backup",
            kind.label()
        );
        assert_eq!(&out, want, "recovered backup diverges from the model");
    }

    // Misses stay misses on every recovered shard — the rebuilt index
    // must not invent hits or trip temporal violations on absent keys.
    for miss in [key_of(CLIENTS + 7, 0), key_of(0, OPS_PER_CLIENT + 3)] {
        for engine in &engines {
            out.clear();
            assert!(
                !engine.get(&miss, &mut out).expect("negative GET errored"),
                "recovered backup hit a key the model never saw"
            );
        }
    }

    // Whatever else the images hold is an in-flight replicated write
    // from the run on its ring-owned shard, with its exact bytes.
    for (shard, engine) in engines.iter().enumerate() {
        engine
            .for_each(|k, v| {
                assert_eq!(
                    ring.shard_of(k),
                    shard as u32,
                    "recovered key {k:?} sits on the wrong shard"
                );
                let cid = u32::from_be_bytes(k[..4].try_into().unwrap());
                let seq = u64::from_be_bytes(k[4..12].try_into().unwrap());
                assert!(
                    cid < CLIENTS && seq < OPS_PER_CLIENT,
                    "recovered foreign key ({cid},{seq})"
                );
                assert_eq!(v, value_of(cid, seq), "recovered torn value");
                Ok(())
            })
            .unwrap();
    }
    eprintln!(
        "backup-crash {}: {} acked writes verified across {} recovered shard images",
        kind.label(),
        snapshot.len(),
        engines.len()
    );
}

/// CI's must-stay-red hook: when `SPP_REPL_DROP_BATCH` is set, the sync
/// rigs run with that batch dropped and are *expected to fail*.
fn env_drop() -> Option<u64> {
    std::env::var("SPP_REPL_DROP_BATCH").ok()?.parse().ok()
}

/// Nightly's sweep hook: `SPP_FAILOVER_TARGET` moves the kill boundary
/// so repeated runs crash at different points of the commit stream.
fn kill_target(default: u64) -> u64 {
    std::env::var("SPP_FAILOVER_TARGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn sync_failover_preserves_acked_writes_pmdk() {
    run_failover(
        PolicyKind::Pmdk,
        ReplAckMode::Sync,
        kill_target(2501),
        env_drop(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn sync_failover_preserves_acked_writes_spp() {
    run_failover(
        PolicyKind::Spp,
        ReplAckMode::Sync,
        kill_target(2501),
        env_drop(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn sync_failover_preserves_acked_writes_safepm() {
    run_failover(
        PolicyKind::SafePm,
        ReplAckMode::Sync,
        kill_target(2501),
        env_drop(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// Async acks trade the inclusion guarantee for latency; what survives
/// promotion must still be *consistent* — a subset of the run's writes
/// with exact bytes, on ring-owned shards, never a foreign record.
#[test]
fn async_failover_promotes_a_consistent_prefix() {
    run_failover(PolicyKind::Spp, ReplAckMode::Async, kill_target(2501), None)
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn backup_crash_at_boundary_preserves_synced_acks_pmdk() {
    backup_crash_rig(PolicyKind::Pmdk, kill_target(2501));
}

#[test]
fn backup_crash_at_boundary_preserves_synced_acks_spp() {
    backup_crash_rig(PolicyKind::Spp, kill_target(2501));
}

#[test]
fn backup_crash_at_boundary_preserves_synced_acks_safepm() {
    backup_crash_rig(PolicyKind::SafePm, kill_target(2501));
}

/// The rig must have teeth: silently dropping one replicated batch (the
/// fault-injection hook pretends it was acked) has to make the sync
/// verification fail. `u64::MAX` keeps the primary alive to the end so
/// every op is acked and the hole cannot hide among un-acked writes.
#[test]
fn lost_replication_batch_is_caught() {
    let res = run_failover(PolicyKind::Spp, ReplAckMode::Sync, u64::MAX, Some(2));
    let err = res.expect_err("rig failed to catch a dropped replication batch");
    assert!(
        err.contains("missing after failover"),
        "unexpected rig verdict: {err}"
    );
}
