//! The acked-write durability contract, proven end-to-end: a TCP server
//! under live multi-connection load is "killed" by pm crash-injection at a
//! flush/fence boundary, the surviving device image is reopened through
//! full pmdk recovery, and **every PUT that was acked on the wire before
//! the crash must be readable with its exact value**.
//!
//! Soundness of the check: the acked-writes log is snapshotted *before*
//! the crash image is captured. A PUT is acked only after its transaction
//! commit flushed and fenced, and durability is monotonic, so every entry
//! in the snapshot was durable when the image was taken — the snapshot is
//! a conservative subset of what must survive. Un-acked writes may or may
//! not appear (a concurrent transaction may be mid-flight); recovery must
//! still leave the heap structurally sound either way, which the inline
//! lane-quiescence and heap-walk oracles enforce.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spp::pm::{CrashImage, CrashSpec, PmPool, PoolConfig};
use spp::pmdk::ObjPool;
use spp::pmemcheck::{explore, Plan};
use spp::server::{
    fresh_server_pool, Client, ClientError, KvEngine, PolicyKind, Reply, Request, Server,
    ServerConfig, WriteOp, WriteReply,
};

const CLIENTS: u32 = 2;
const OPS_PER_CLIENT: u64 = 250;
const VALUE_PAD: usize = 48;
/// Ops per `MULTI` batch in the group-commit rig.
const BATCH: u64 = 4;

fn key_of(conn: u32, seq: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..4].copy_from_slice(&conn.to_be_bytes());
    k[4..12].copy_from_slice(&seq.to_be_bytes());
    k
}

fn value_of(conn: u32, seq: u64) -> Vec<u8> {
    let mut v = format!("v-{conn}-{seq}-").into_bytes();
    v.resize(v.len() + VALUE_PAD, b'.');
    v
}

/// What the boundary tap captures at the injected crash: the acked log as
/// of *before* the image, then the durable image itself.
struct Captured {
    acked: Vec<(u32, u64)>,
    image: CrashImage,
}

/// Drive live load over TCP, capture a crash image at the `target`-th
/// durability boundary after load start, and return it with the
/// acked-before-capture log. Falls back to a quiescent `KeepAll` image if
/// the workload finishes before the boundary is reached.
fn crash_under_load(kind: PolicyKind, target: u64) -> Captured {
    let pool = fresh_server_pool(32 << 20, 8, true).unwrap();
    let engine = Arc::new(KvEngine::create(Arc::clone(&pool), kind, 512).unwrap());
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServerConfig {
            max_conns: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let acked: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let captured: Arc<Mutex<Option<Captured>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));

    // Install the tap only now, so boundary counts refer to client-driven
    // activity, not pool/engine setup.
    {
        let acked = Arc::clone(&acked);
        let captured = Arc::clone(&captured);
        let stop = Arc::clone(&stop);
        let boundaries = AtomicU64::new(0);
        pool.pm().set_boundary_tap(Box::new(move |pm, _| {
            if boundaries.fetch_add(1, Ordering::Relaxed) + 1 < target
                || stop.load(Ordering::SeqCst)
            {
                return;
            }
            // Order matters: snapshot the acked log FIRST. Everything in
            // the snapshot was flushed+fenced before its ack, so it is
            // durable in the image captured next.
            let snapshot = acked.lock().unwrap().clone();
            if snapshot.is_empty() {
                // A single transaction can span many boundaries; hold the
                // crash until at least one PUT has been acked on the wire
                // so the contract is actually exercised.
                return;
            }
            let image = pm.crash_image(CrashSpec::DropUnpersisted);
            *captured.lock().unwrap() = Some(Captured {
                acked: snapshot,
                image,
            });
            stop.store(true, Ordering::SeqCst);
        }));
    }

    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|cid| {
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
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
    for t in client_threads {
        t.join().unwrap();
    }
    pool.pm().clear_boundary_tap();
    server.shutdown();

    let taken = captured.lock().unwrap().take();
    match taken {
        Some(c) => c,
        None => {
            // The workload outran the target boundary; fall back to a
            // clean post-shutdown image so the test still proves the
            // recovery path.
            let snapshot = acked.lock().unwrap().clone();
            Captured {
                acked: snapshot,
                image: pool.pm().crash_image(CrashSpec::KeepAll),
            }
        }
    }
}

/// Group-commit variant of the rig: clients ship `MULTI` batches of
/// [`BATCH`] PUTs, which the server commits under one shared durability
/// boundary; a batch's members are logged as acked only when the whole
/// batch acked. The crash lands at a live boundary exactly as in
/// [`crash_under_load`].
fn crash_under_batched_load(kind: PolicyKind, target: u64) -> Captured {
    let pool = fresh_server_pool(32 << 20, 8, true).unwrap();
    let engine = Arc::new(KvEngine::create(Arc::clone(&pool), kind, 512).unwrap());
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServerConfig {
            max_conns: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let acked: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let captured: Arc<Mutex<Option<Captured>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));

    {
        let acked = Arc::clone(&acked);
        let captured = Arc::clone(&captured);
        let stop = Arc::clone(&stop);
        let boundaries = AtomicU64::new(0);
        pool.pm().set_boundary_tap(Box::new(move |pm, _| {
            if boundaries.fetch_add(1, Ordering::Relaxed) + 1 < target
                || stop.load(Ordering::SeqCst)
            {
                return;
            }
            let snapshot = acked.lock().unwrap().clone();
            if snapshot.is_empty() {
                return;
            }
            let image = pm.crash_image(CrashSpec::DropUnpersisted);
            *captured.lock().unwrap() = Some(Captured {
                acked: snapshot,
                image,
            });
            stop.store(true, Ordering::SeqCst);
        }));
    }

    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|cid| {
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                for b in 0..OPS_PER_CLIENT / BATCH {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let keys: Vec<[u8; 16]> =
                        (0..BATCH).map(|i| key_of(cid, b * BATCH + i)).collect();
                    let values: Vec<Vec<u8>> =
                        (0..BATCH).map(|i| value_of(cid, b * BATCH + i)).collect();
                    let reqs: Vec<Request<'_>> = keys
                        .iter()
                        .zip(&values)
                        .map(|(key, value)| Request::Put { key, value })
                        .collect();
                    match c.multi(&reqs) {
                        Ok(replies) => {
                            assert!(
                                replies.iter().all(|r| *r == Reply::Ok),
                                "client {cid}: unexpected MULTI replies {replies:?}"
                            );
                            let mut g = acked.lock().unwrap();
                            for i in 0..BATCH {
                                g.push((cid, b * BATCH + i));
                            }
                        }
                        Err(ClientError::Busy) => {
                            panic!("client {cid}: BUSY on an admitted connection")
                        }
                        Err(_) if stop.load(Ordering::SeqCst) => break,
                        Err(e) => panic!("client {cid}: MULTI failed mid-load: {e}"),
                    }
                }
            })
        })
        .collect();
    for t in client_threads {
        t.join().unwrap();
    }
    pool.pm().clear_boundary_tap();
    server.shutdown();

    let taken = captured.lock().unwrap().take();
    match taken {
        Some(c) => c,
        None => {
            let snapshot = acked.lock().unwrap().clone();
            Captured {
                acked: snapshot,
                image: pool.pm().crash_image(CrashSpec::KeepAll),
            }
        }
    }
}

/// The group-commit atomicity half of the contract: every batch in the
/// recovered store is whole. A batch commits as one transaction under one
/// shared boundary, so a crash must never split it — members recovered per
/// batch is exactly 0 (batch absent) or [`BATCH`].
fn verify_batch_atomicity(kind: PolicyKind, cap: &Captured) {
    let pm = Arc::new(PmPool::from_image(cap.image.clone(), PoolConfig::new(0)));
    let pool = Arc::new(ObjPool::open(pm).expect("pmdk recovery failed on crash image"));
    let engine = KvEngine::open(pool, kind).expect("engine reopen failed");
    let mut per_batch: std::collections::HashMap<(u32, u64), u64> =
        std::collections::HashMap::new();
    engine
        .for_each(|k, _| {
            let cid = u32::from_be_bytes(k[..4].try_into().unwrap());
            let seq = u64::from_be_bytes(k[4..12].try_into().unwrap());
            *per_batch.entry((cid, seq / BATCH)).or_insert(0) += 1;
            Ok(())
        })
        .unwrap();
    for ((cid, b), n) in per_batch {
        assert_eq!(
            n,
            BATCH,
            "{}: batch ({cid},{b}) recovered {n}/{BATCH} members — a crash split a group-committed batch",
            kind.label()
        );
    }
}

/// Reopen the image through full recovery and run the oracle stack: lane
/// quiescence, heap walk, then exact readback of every acked write.
fn recover_and_verify(kind: PolicyKind, cap: &Captured) {
    let pm = Arc::new(PmPool::from_image(cap.image.clone(), PoolConfig::new(0)));
    let pool = Arc::new(ObjPool::open(pm).expect("pmdk recovery failed on crash image"));

    // Structural oracles (the torture rig's invariants, inline): recovery
    // must leave every lane quiescent and the heap cleanly walkable.
    for (i, s) in pool.lane_statuses().unwrap().into_iter().enumerate() {
        assert!(
            s.is_quiescent(),
            "lane {i} not quiescent after recovery: {s:?}"
        );
    }
    pool.walk_heap().expect("heap not walkable after recovery");

    let engine = KvEngine::open(Arc::clone(&pool), kind).expect("engine reopen failed");

    // The contract: every acked PUT is present with its exact value.
    let mut out = Vec::new();
    for &(cid, seq) in &cap.acked {
        out.clear();
        let hit = engine
            .get(&key_of(cid, seq), &mut out)
            .expect("GET after recovery errored");
        assert!(
            hit,
            "{}: acked PUT ({cid},{seq}) missing after crash-restart",
            kind.label()
        );
        assert_eq!(
            out,
            value_of(cid, seq),
            "{}: acked PUT ({cid},{seq}) has wrong value after crash-restart",
            kind.label()
        );
    }

    // Completeness: whatever else survived must be a prefix write from the
    // run (an un-acked in-flight PUT), never a foreign or torn record.
    let acked_count = cap.acked.len() as u64;
    let mut seen = 0u64;
    engine
        .for_each(|k, v| {
            let cid = u32::from_be_bytes(k[..4].try_into().unwrap());
            let seq = u64::from_be_bytes(k[4..12].try_into().unwrap());
            assert!(
                cid < CLIENTS && seq < OPS_PER_CLIENT,
                "recovered foreign key ({cid},{seq})"
            );
            assert_eq!(
                v,
                value_of(cid, seq).as_slice(),
                "recovered torn value for ({cid},{seq})"
            );
            seen += 1;
            Ok(())
        })
        .unwrap();
    assert!(
        seen >= acked_count,
        "store holds {seen} entries but {acked_count} were acked"
    );
}

#[test]
fn acked_writes_survive_crash_restart_pmdk() {
    let cap = crash_under_load(PolicyKind::Pmdk, 60);
    assert!(!cap.acked.is_empty(), "rig crashed before any ack");
    recover_and_verify(PolicyKind::Pmdk, &cap);
}

#[test]
fn acked_writes_survive_crash_restart_spp() {
    let cap = crash_under_load(PolicyKind::Spp, 137);
    assert!(!cap.acked.is_empty(), "rig crashed before any ack");
    recover_and_verify(PolicyKind::Spp, &cap);
}

#[test]
fn acked_writes_survive_crash_restart_safepm() {
    let cap = crash_under_load(PolicyKind::SafePm, 401);
    assert!(!cap.acked.is_empty(), "rig crashed before any ack");
    recover_and_verify(PolicyKind::SafePm, &cap);
}

/// Differential variant of the contract: the acked wire log is replayed
/// into the oracle harness's volatile reference model ([`spp::oracle`]),
/// and every post-recovery GET must match the model's prediction — both
/// positive (each modelled key hits with its exact bytes) and negative
/// (keys the model never saw must miss). Whatever else survived must be
/// an in-flight un-acked write from the run, never a foreign record.
#[test]
fn recovered_gets_match_reference_model_after_midload_crash() {
    let cap = crash_under_load(PolicyKind::Spp, 90);
    assert!(!cap.acked.is_empty(), "rig crashed before any ack");

    // Each ack is a committed KV put; acks are applied in wire order so
    // the model's last-write-wins semantics match the engine's.
    let mut model = spp::oracle::Model::new();
    for &(cid, seq) in &cap.acked {
        model.kv.insert(key_of(cid, seq), value_of(cid, seq));
    }

    let pm = Arc::new(PmPool::from_image(cap.image.clone(), PoolConfig::new(0)));
    let pool = Arc::new(ObjPool::open(pm).expect("pmdk recovery failed on crash image"));
    let engine = KvEngine::open(Arc::clone(&pool), PolicyKind::Spp).expect("engine reopen failed");

    // Positive predictions: every modelled entry hits, byte-exact.
    let mut out = Vec::new();
    for (k, want) in &model.kv {
        out.clear();
        let hit = engine.get(k, &mut out).expect("GET after recovery errored");
        assert!(hit, "model predicts a hit for key {k:?}, engine missed");
        assert_eq!(&out, want, "GET diverges from the reference model");
    }

    // Negative predictions: keys outside the trace's key space miss.
    for miss in [key_of(CLIENTS + 7, 0), key_of(0, OPS_PER_CLIENT + 3)] {
        out.clear();
        assert!(
            !engine.get(&miss, &mut out).expect("GET errored"),
            "engine hit a key the model never saw"
        );
    }

    // Everything else the engine holds must be an in-flight un-acked put
    // from the run, carrying its exact would-be value.
    engine
        .for_each(|k, v| {
            if let Some(want) = model.kv.get(k) {
                assert_eq!(v, want.as_slice(), "recovered value diverges from model");
            } else {
                let cid = u32::from_be_bytes(k[..4].try_into().unwrap());
                let seq = u64::from_be_bytes(k[4..12].try_into().unwrap());
                assert!(
                    cid < CLIENTS && seq < OPS_PER_CLIENT,
                    "recovered foreign key ({cid},{seq})"
                );
                assert_eq!(
                    v,
                    value_of(cid, seq).as_slice(),
                    "un-acked in-flight put recovered torn"
                );
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn group_commit_batches_survive_crash_whole_pmdk() {
    let cap = crash_under_batched_load(PolicyKind::Pmdk, 40);
    assert!(!cap.acked.is_empty(), "rig crashed before any batch ack");
    recover_and_verify(PolicyKind::Pmdk, &cap);
    verify_batch_atomicity(PolicyKind::Pmdk, &cap);
}

#[test]
fn group_commit_batches_survive_crash_whole_spp() {
    let cap = crash_under_batched_load(PolicyKind::Spp, 95);
    assert!(!cap.acked.is_empty(), "rig crashed before any batch ack");
    recover_and_verify(PolicyKind::Spp, &cap);
    verify_batch_atomicity(PolicyKind::Spp, &cap);
}

#[test]
fn group_commit_batches_survive_crash_whole_safepm() {
    let cap = crash_under_batched_load(PolicyKind::SafePm, 260);
    assert!(!cap.acked.is_empty(), "rig crashed before any batch ack");
    recover_and_verify(PolicyKind::SafePm, &cap);
    verify_batch_atomicity(PolicyKind::SafePm, &cap);
}

/// Deterministic all-or-nothing: while one engine write batch commits,
/// reopen the drop-all crash image at every durability boundary. At every
/// point the batch's fresh keys are all present or all absent, the
/// overwritten key holds exactly its old or new value (never torn), and
/// the overwrite flips together with the batch.
#[test]
fn batched_commit_all_or_nothing_at_every_boundary() {
    for kind in [PolicyKind::Pmdk, PolicyKind::Spp, PolicyKind::SafePm] {
        let pool = fresh_server_pool(8 << 20, 2, true).unwrap();
        let engine = Arc::new(KvEngine::create(Arc::clone(&pool), kind, 64).unwrap());
        // Pre-state the batch will overwrite, committed before exploration
        // so it must survive every image.
        let old = value_of(9, 0);
        let new = b"overwritten-by-batch".to_vec();
        engine.put(&key_of(9, 0), &old).unwrap();

        let ops: Vec<WriteOp> = (0..BATCH)
            .map(|i| WriteOp::Put {
                key: key_of(8, i).to_vec(),
                value: value_of(8, i),
            })
            .chain([WriteOp::Put {
                key: key_of(9, 0).to_vec(),
                value: new.clone(),
            }])
            .collect();
        let mut replies = Vec::new();
        let explored = explore(
            pool.pm(),
            Plan::drop_all(),
            || replies = engine.apply_write_batch(&ops),
            move |image| batch_is_whole(image, kind, &old, &new),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        assert!(
            replies.iter().all(|r| *r == WriteReply::Ok),
            "{}: batch failed: {replies:?}",
            kind.label()
        );
        assert!(
            explored.boundaries > 1,
            "no boundary crossed during the batch"
        );
    }
}

/// Reopen `image` and check the batch of
/// [`batched_commit_all_or_nothing_at_every_boundary`] is all or nothing.
fn batch_is_whole(
    image: &CrashImage,
    kind: PolicyKind,
    old: &[u8],
    new: &[u8],
) -> Result<(), String> {
    let pm = Arc::new(PmPool::from_image(image.clone(), PoolConfig::new(0)));
    let p2 = Arc::new(ObjPool::open(pm).map_err(|e| format!("pmdk recovery failed: {e}"))?);
    let e2 = KvEngine::open(p2, kind).map_err(|e| format!("engine reopen failed: {e}"))?;
    let get = |key: &[u8], out: &mut Vec<u8>| {
        out.clear();
        e2.get(key, out).map_err(|e| format!("get failed: {e}"))
    };
    let mut out = Vec::new();
    let mut present = 0u64;
    for s in 0..BATCH {
        if get(&key_of(8, s), &mut out)? {
            present += 1;
            if out != value_of(8, s) {
                return Err("torn batch value".into());
            }
        }
    }
    if !get(&key_of(9, 0), &mut out)? {
        return Err("pre-existing key lost".into());
    }
    match present {
        0 if out != old => Err("overwrite applied without its batch".into()),
        0 => Ok(()),
        BATCH if out != new => Err("batch applied without its overwrite".into()),
        BATCH => Ok(()),
        _ => Err(format!("batch split {present}/{BATCH}")),
    }
}

#[test]
fn late_crash_still_recovers_every_ack() {
    // A crash deep into the run: most writes acked, several transactions
    // already retired lanes many times over.
    let cap = crash_under_load(PolicyKind::Spp, 2_500);
    assert!(cap.acked.len() > 10, "expected a deep run before the crash");
    recover_and_verify(PolicyKind::Spp, &cap);
}
