//! End-to-end service tests over real sockets: every policy, malformed
//! frames, connection-limit backpressure, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_server::{
    fresh_server_pool, fresh_server_pool_wait, Client, ClientError, GroupConfig, KvEngine,
    PolicyKind, ReplAckMode, ReplConfig, ReplOp, Reply, Request, Response, Server, ServerConfig,
};

fn key(i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

fn start(kind: PolicyKind, cfg: ServerConfig) -> Server {
    let pool = fresh_server_pool(16 << 20, 4, false).unwrap();
    let engine = Arc::new(KvEngine::create(pool, kind, 256).unwrap());
    Server::start(engine, ("127.0.0.1", 0), cfg).unwrap()
}

/// A server whose fences each wait `flush_wait_ns` of wall clock for the
/// device, yielding the core: commits slow enough for writes from other
/// reactors to queue behind the one in flight.
fn start_slow(flush_wait_ns: u32, cfg: ServerConfig) -> Server {
    let pool = fresh_server_pool_wait(16 << 20, 4, flush_wait_ns).unwrap();
    let engine = Arc::new(KvEngine::create(Arc::clone(&pool), PolicyKind::Spp, 256).unwrap());
    pool.pm().set_latency_enabled(true);
    Server::start(engine, ("127.0.0.1", 0), cfg).unwrap()
}

/// A one-shard replication backup that answers the `REPL_HELLO` handshake
/// and then holds every `REPL_BATCH`: it reports each batch's
/// `(shard, seq)` on the returned receiver and acks it only when the test
/// sends on the returned sender. Dropping that sender hangs up on the
/// primary instead. Until then the primary's leader blocks in its ship —
/// the slowest commit production has.
fn stalling_backup() -> (SocketAddr, Receiver<(u32, u64)>, Sender<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let (batch_tx, batches) = channel();
    let (acks, ack_rx) = channel::<()>();
    std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let (reply, consumed) = match spp_server::wire::decode_request(&buf).unwrap() {
                Some((Request::ReplHello { .. }, n)) => (Response::Ok, n),
                Some((Request::ReplBatch(rb), n)) => {
                    let _ = batch_tx.send((rb.shard, rb.seq));
                    if ack_rx.recv().is_err() {
                        return; // hang up without acking
                    }
                    (
                        Response::ReplAck {
                            shard: rb.shard,
                            seq: rb.seq,
                        },
                        n,
                    )
                }
                Some((other, _)) => panic!("a backup only speaks replication: {other:?}"),
                None => match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        continue;
                    }
                },
            };
            let mut out = Vec::new();
            spp_server::wire::encode_response(&mut out, &reply);
            buf.drain(..consumed);
            sock.write_all(&out).unwrap();
        }
    });
    (addr, batches, acks)
}

/// Sync replication to `backup`, with everything else from `cfg`.
fn replicating_to(backup: SocketAddr, cfg: ServerConfig) -> ServerConfig {
    ServerConfig {
        repl: Some(ReplConfig {
            backup,
            ack_mode: ReplAckMode::Sync,
            drop_batch: None,
        }),
        ..cfg
    }
}

/// Run `f` on its own thread and wait up to 10 s for its result: a call
/// that is stalled fails the test instead of hanging it.
fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("stalled behind another reactor's commit")
}

fn connect(server: &Server) -> Client {
    Client::connect_retry(server.local_addr(), Duration::from_secs(5)).unwrap()
}

/// `N` connections, each answered once: reactor 0 has accepted and dealt
/// every one of them (round-robin, in order) before the test stalls it.
fn connect_dealt<const N: usize>(server: &Server) -> [Client; N] {
    let conns = std::array::from_fn(|_| connect(server));
    conns.map(|mut c| {
        c.ping().unwrap();
        c
    })
}

/// The wire bytes of `reqs`, back to back, for `Client::send_raw`.
fn frames(reqs: &[Request<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    for req in reqs {
        spp_server::wire::encode_request(&mut out, req);
    }
    out
}

#[test]
fn full_roundtrip_under_every_policy() {
    for kind in PolicyKind::ALL {
        let server = start(kind, ServerConfig::default());
        let mut c = connect(&server);
        c.ping().unwrap();
        for i in 0..50u64 {
            c.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        let mut out = Vec::new();
        assert!(c.get(&key(17), &mut out).unwrap());
        assert_eq!(out, b"value-17");
        out.clear();
        assert!(!c.get(&key(999), &mut out).unwrap());
        assert!(c.del(&key(17)).unwrap());
        assert!(!c.del(&key(17)).unwrap());
        out.clear();
        assert!(!c.get(&key(17), &mut out).unwrap());
        c.flush().unwrap();
        let stats = c.stats().unwrap();
        assert!(
            stats.contains(&format!("policy={}", kind.label())),
            "{stats}"
        );
        assert!(stats.contains("keys=49"), "{stats}");
        c.shutdown().unwrap();
        server.shutdown();
    }
}

#[test]
fn values_cross_policy_engines_identically() {
    // The same byte-for-byte workload must be observable under all three
    // policies — the service layer adds no policy-dependent behaviour.
    let mut images: Vec<String> = Vec::new();
    for kind in PolicyKind::ALL {
        let server = start(kind, ServerConfig::default());
        let mut c = connect(&server);
        for i in 0..20u64 {
            c.put(&key(i), &i.to_le_bytes()).unwrap();
        }
        let mut dump: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        server
            .engine()
            .for_each(|k, v| {
                dump.push((k.to_vec(), v.to_vec()));
                Ok(())
            })
            .unwrap();
        dump.sort();
        images.push(format!("{dump:?}"));
        server.shutdown();
    }
    assert_eq!(images[0], images[1]);
    assert_eq!(images[1], images[2]);
}

#[test]
fn malformed_body_gets_err_and_stream_resyncs() {
    let server = start(PolicyKind::Spp, ServerConfig::default());
    let mut c = connect(&server);

    // Unknown opcode: ERR, connection stays usable.
    c.send_raw(&{
        let mut b = 3u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0x7F, 1, 2]);
        b
    })
    .unwrap();
    assert!(matches!(c.read_reply().unwrap(), Reply::Err(_)));
    c.ping().unwrap();

    // PUT whose declared key length overruns the payload: ERR, resync.
    c.send_raw(&{
        let mut b = 4u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0x01]);
        b.extend_from_slice(&500u16.to_le_bytes());
        b.push(b'k');
        b
    })
    .unwrap();
    assert!(matches!(c.read_reply().unwrap(), Reply::Err(_)));
    c.ping().unwrap();

    // Wrong key size is an engine error, not a panic; still usable after.
    match c.put(b"short", b"v") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("16 bytes"), "{msg}"),
        other => panic!("expected Remote error, got {other:?}"),
    }
    c.ping().unwrap();
    server.shutdown();
}

#[test]
fn envelope_garbage_closes_connection_with_err() {
    let server = start(PolicyKind::Pmdk, ServerConfig::default());
    let mut c = connect(&server);
    // Length prefix far beyond MAX_FRAME: ERR, then the server hangs up.
    c.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    match c.read_reply().unwrap() {
        Reply::Err(msg) => assert!(msg.contains("exceeds maximum"), "{msg}"),
        other => panic!("expected Err, got {other:?}"),
    }
    match c.read_reply() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    // A fresh connection is unaffected.
    let mut c2 = connect(&server);
    c2.ping().unwrap();
    server.shutdown();
}

#[test]
fn connection_limit_answers_busy() {
    let server = start(
        PolicyKind::Spp,
        ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        },
    );
    let mut first = connect(&server);
    first.ping().unwrap();
    // The slot is taken: the next connection is told BUSY and hung up on.
    let mut second = connect(&server);
    match second.read_reply().unwrap() {
        Reply::Busy => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // The admitted connection keeps full service.
    first.put(&key(1), b"v").unwrap();
    drop(second);
    server.shutdown();
}

#[test]
fn wire_shutdown_quiesces_and_refuses_new_work() {
    let server = start(PolicyKind::SafePm, ServerConfig::default());
    let addr = server.local_addr();
    let mut c = connect(&server);
    c.put(&key(7), b"survives").unwrap();
    c.shutdown().unwrap();
    server.shutdown();
    // The listener is gone: connecting now fails (or is immediately reset).
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c2) => c2.ping().is_err(),
    };
    assert!(refused, "server accepted work after graceful shutdown");
}

#[test]
fn multi_roundtrip_under_every_policy() {
    for kind in PolicyKind::ALL {
        let server = start(kind, ServerConfig::default());
        let mut c = connect(&server);
        // One atomic batch mixing writes and reads of its own writes.
        let (k1, k2, k3) = (key(1), key(2), key(3));
        let replies = c
            .multi(&[
                Request::Put {
                    key: &k1,
                    value: b"alpha",
                },
                Request::Put {
                    key: &k2,
                    value: b"beta",
                },
                Request::Get { key: &k1 },
                Request::Del { key: &k3 },
                Request::Ping,
            ])
            .unwrap();
        assert_eq!(
            replies,
            vec![
                Reply::Ok,
                Reply::Ok,
                Reply::Value(b"alpha".to_vec()),
                Reply::NotFound,
                Reply::Pong,
            ],
            "{}",
            kind.label()
        );
        // The batch's writes are visible to plain requests afterwards.
        let mut out = Vec::new();
        assert!(c.get(&k2, &mut out).unwrap());
        assert_eq!(out, b"beta");
        // An invalid key inside a batch errors that slot only.
        let replies = c
            .multi(&[
                Request::Put {
                    key: b"short",
                    value: b"x",
                },
                Request::Put {
                    key: &k3,
                    value: b"gamma",
                },
            ])
            .unwrap();
        assert!(matches!(replies[0], Reply::Err(_)), "{replies:?}");
        assert_eq!(replies[1], Reply::Ok);
        out.clear();
        assert!(c.get(&k3, &mut out).unwrap());
        assert_eq!(out, b"gamma");
        server.shutdown();
    }
}

#[test]
fn pipelined_frames_are_answered_in_order() {
    let server = start(PolicyKind::Spp, ServerConfig::default());
    let mut c = connect(&server);
    // 40 back-to-back frames without waiting: interleaved PUTs, GETs of
    // keys written earlier in the same pipeline, and pings.
    let keys: Vec<[u8; 16]> = (0..16).map(key).collect();
    let values: Vec<Vec<u8>> = (0..16u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let mut reqs: Vec<Request<'_>> = Vec::new();
    for i in 0..16 {
        reqs.push(Request::Put {
            key: &keys[i],
            value: &values[i],
        });
        if i % 4 == 3 {
            // Reads a key PUT earlier in this same pipelined burst.
            reqs.push(Request::Get { key: &keys[i - 2] });
        }
        if i % 8 == 7 {
            reqs.push(Request::Ping);
        }
    }
    let replies = c.pipeline(&reqs).unwrap();
    assert_eq!(replies.len(), reqs.len());
    for (req, reply) in reqs.iter().zip(&replies) {
        match (req, reply) {
            (Request::Put { .. }, Reply::Ok) | (Request::Ping, Reply::Pong) => {}
            (Request::Get { key }, Reply::Value(v)) => {
                let i = u64::from_be_bytes(key[..8].try_into().unwrap());
                assert_eq!(v, &i.to_le_bytes(), "GET {i} out of order");
            }
            other => panic!("mismatched pipelined reply: {other:?}"),
        }
    }
    server.shutdown();
}

/// `len` bytes that differ with `seed` and along the value, so a chunk
/// lost, repeated or reordered at any read boundary shows as a mismatch.
fn patterned(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(31) ^ seed.wrapping_mul(0x9E37_79B9)) as u8)
        .collect()
}

#[test]
fn values_and_pipelines_spanning_many_reads_arrive_intact() {
    let server = start(PolicyKind::Spp, ServerConfig::default());
    let mut c = connect(&server);

    // One value sixteen times the size of a socket read, both ways.
    let big = patterned(7, 256 << 10);
    c.put(&key(1), &big).unwrap();
    let mut out = Vec::new();
    assert!(c.get(&key(1), &mut out).unwrap());
    assert!(out == big, "256 KiB value came back altered");

    // One pipelined run of 160 KiB, more than a reactor reads from one
    // connection per round, whose GET replies are as long again.
    let keys: Vec<[u8; 16]> = (100..140).map(key).collect();
    let values: Vec<Vec<u8>> = (0..40).map(|i| patterned(i, 4096)).collect();
    let mut reqs: Vec<Request<'_>> = Vec::new();
    for (k, v) in keys.iter().zip(&values) {
        reqs.push(Request::Put { key: k, value: v });
    }
    for k in &keys {
        reqs.push(Request::Get { key: k });
    }
    let replies = c.pipeline(&reqs).unwrap();
    assert_eq!(replies.len(), reqs.len());
    let (puts, gets) = replies.split_at(keys.len());
    assert!(puts.iter().all(|r| matches!(r, Reply::Ok)), "{puts:?}");
    for (i, (reply, want)) in gets.iter().zip(&values).enumerate() {
        match reply {
            Reply::Value(v) => assert!(v == want, "GET {i} out of order or altered"),
            other => panic!("GET {i}: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn fragmented_byte_at_a_time_frames_are_served() {
    // Reactor-style ingestion must reassemble frames split at arbitrary
    // byte boundaries — including mid-length-prefix — without desync. The
    // client dribbles a 3-frame pipeline one byte per write.
    let server = start(PolicyKind::Spp, ServerConfig::default());
    let mut c = connect(&server);
    let k = key(42);
    let bytes = frames(&[
        Request::Put {
            key: &k,
            value: b"dribbled",
        },
        Request::Ping,
        Request::Get { key: &k },
    ]);
    for b in &bytes {
        c.send_raw(std::slice::from_ref(b)).unwrap();
    }
    assert_eq!(c.read_reply().unwrap(), Reply::Ok);
    assert_eq!(c.read_reply().unwrap(), Reply::Pong);
    assert!(matches!(c.read_reply().unwrap(), Reply::Value(_)));
    server.shutdown();
}

#[test]
fn pending_commit_never_stalls_its_reactor() {
    // Connections are dealt to the two reactors round-robin: `lead` and
    // `spare` land on reactor 0, `a` and `b` on reactor 1. `lead`'s PUT
    // makes reactor 0 the shard's leader, held in its ship by a backup
    // that has not acked yet. `a`'s PUT then only queues behind it — and
    // while it is pending, reactor 1 must keep serving `b`.
    let (backup, batches, acks) = stalling_backup();
    let server = start(
        PolicyKind::Spp,
        replicating_to(
            backup,
            ServerConfig {
                reactors: 2,
                ..ServerConfig::default()
            },
        ),
    );
    let [mut lead, mut a, _spare, mut b] = connect_dealt(&server);
    let (k0, ka, kb) = (key(0), key(1), key(2));
    lead.send_raw(&frames(&[Request::Put {
        key: &k0,
        value: b"first",
    }]))
    .unwrap();
    assert_eq!(batches.recv().unwrap(), (0, 1), "reactor 0 is shipping");
    a.send_raw(&frames(&[Request::Put {
        key: &ka,
        value: b"pending",
    }]))
    .unwrap();
    // `b`'s round trips queue behind `a`'s frame on reactor 1, so by the
    // time they are answered `a`'s PUT has been queued.
    let mut b = within_10s(move || {
        b.ping().unwrap();
        let mut out = Vec::new();
        assert!(!b.get(&kb, &mut out).unwrap());
        b
    });
    // Release the leader: it commits and ships the PUT that queued behind
    // it before it steps down and returns to its own connections.
    acks.send(()).unwrap();
    assert_eq!(
        batches.recv().unwrap(),
        (0, 2),
        "a's PUT rides the next batch"
    );
    acks.send(()).unwrap();
    assert_eq!(lead.read_reply().unwrap(), Reply::Ok);
    assert_eq!(a.read_reply().unwrap(), Reply::Ok);
    let mut out = Vec::new();
    assert!(b.get(&ka, &mut out).unwrap());
    assert_eq!(out, b"pending");
    server.shutdown();
}

#[test]
fn a_backup_that_never_acks_stalls_only_the_leading_reactor() {
    // The residual of committing on the reactor: a sync backup that never
    // acks stalls the shard's writes and also the leading reactor's other
    // connections, because the leader blocks in its ship. Reads on the
    // other reactor are still answered.
    // Round-robin dealing: `lead` and `neighbour` on reactor 0, `reader`
    // and `writer` on reactor 1.
    let (backup, batches, acks) = stalling_backup();
    let server = start(
        PolicyKind::Spp,
        replicating_to(
            backup,
            ServerConfig {
                reactors: 2,
                ..ServerConfig::default()
            },
        ),
    );
    let [mut lead, mut reader, mut neighbour, mut writer] = connect_dealt(&server);
    let (k0, k1) = (key(0), key(1));
    lead.send_raw(&frames(&[Request::Put {
        key: &k0,
        value: b"unacked",
    }]))
    .unwrap();
    assert_eq!(batches.recv().unwrap(), (0, 1));
    neighbour.send_raw(&frames(&[Request::Ping])).unwrap();
    writer
        .send_raw(&frames(&[Request::Put {
            key: &k1,
            value: b"queued",
        }]))
        .unwrap();
    let (answered, answers) = channel();
    for (name, mut c) in [("neighbour", neighbour), ("writer", writer)] {
        let answered = answered.clone();
        std::thread::spawn(move || {
            let _ = answered.send((name, c.read_reply()));
        });
    }
    // The other reactor still serves reads.
    within_10s(move || {
        reader.ping().unwrap();
        let mut out = Vec::new();
        assert!(!reader.get(&key(2), &mut out).unwrap());
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        answers.try_recv().is_err(),
        "nothing behind the stalled leader may be answered yet"
    );
    // The backup hangs up: the stalled batch and the one queued behind it
    // fail as not replicated, and the leading reactor's neighbour is served.
    drop(acks);
    match lead.read_reply().unwrap() {
        Reply::Err(m) => assert!(m.contains("not replicated"), "{m}"),
        other => panic!("an unreplicated PUT was acked: {other:?}"),
    }
    let mut got: Vec<_> = (0..2)
        .map(|_| answers.recv_timeout(Duration::from_secs(10)).unwrap())
        .collect();
    got.sort_by_key(|(name, _)| *name);
    assert_eq!(got[0].0, "neighbour");
    assert_eq!(got[0].1.as_ref().unwrap(), &Reply::Pong);
    assert!(
        matches!(got[1].1.as_ref().unwrap(), Reply::Err(m) if m.contains("not replicated")),
        "{:?}",
        got[1]
    );
    server.shutdown();
}

#[test]
fn idle_timeout_closes_quiet_connections_but_not_active_ones() {
    let server = start(
        PolicyKind::Spp,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    );
    let mut quiet = connect(&server);
    quiet.ping().unwrap();
    let mut active = connect(&server);
    active.ping().unwrap();

    // Keep one connection chatty across several timeout windows.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(80));
        active.ping().unwrap();
    }
    // The quiet one must be gone by now.
    match quiet.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("idle connection survived the timeout: {other:?}"),
    }
    // The active one is still fully served.
    active.put(&key(9), b"alive").unwrap();
    server.shutdown();
}

#[test]
fn concurrent_multi_writers_share_commit_boundaries() {
    // Slow fences keep each commit in flight long enough for more MULTIs
    // to arrive behind it: many single-connection batches must land in
    // fewer boundaries than submissions. With one reactor this also proves
    // that the stretches several connections of the same reactor read in
    // one turn share the boundary it leads at the end of the turn — they
    // are not committed one connection at a time.
    for reactors in [1, 2] {
        let server = start_slow(
            50_000,
            ServerConfig {
                reactors,
                group: GroupConfig { max_batch: 256 },
                ..ServerConfig::default()
            },
        );
        let addr = server.local_addr();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                    for b in 0..10u64 {
                        let keys: Vec<[u8; 16]> =
                            (0..4).map(|i| key(t * 1_000 + b * 4 + i)).collect();
                        let reqs: Vec<Request<'_>> = keys
                            .iter()
                            .map(|k| Request::Put {
                                key: k,
                                value: b"grouped",
                            })
                            .collect();
                        match c.multi(&reqs) {
                            Ok(replies) => assert!(replies.iter().all(|r| *r == Reply::Ok)),
                            Err(ClientError::Busy) => panic!("BUSY on an admitted connection"),
                            Err(e) => panic!("multi: {e}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (batches, ops) = server.group_stats();
        assert_eq!(ops, 160, "every batched PUT must go through the committer");
        assert!(
            batches < 40,
            "reactors={reactors}: 40 MULTI submissions never shared a boundary ({batches} batches)"
        );
        assert_eq!(server.engine().count().unwrap(), 160);
        server.shutdown();
    }
}

#[test]
fn concurrent_clients_see_consistent_store() {
    let server = start(PolicyKind::Spp, ServerConfig::default());
    let addr = server.local_addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                for i in 0..100u64 {
                    let k = key(t * 1_000 + i);
                    match c.put(&k, &i.to_le_bytes()) {
                        Ok(()) => {}
                        Err(ClientError::Busy) => panic!("BUSY on an admitted connection"),
                        Err(e) => panic!("put: {e}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = connect(&server);
    assert_eq!(server.engine().count().unwrap(), 400);
    let mut out = Vec::new();
    assert!(c.get(&key(2_042), &mut out).unwrap());
    assert_eq!(out, 42u64.to_le_bytes());
    server.shutdown();
}

#[test]
fn epoll_serves_many_idle_connections_without_per_conn_threads() {
    // Small in-test version of the loadgen idle sweep: 60 open-but-idle
    // connections on a 2-reactor server must all stay serviceable, and
    // none of them may cost a thread (coarse check via /proc).
    let server = start(
        PolicyKind::Spp,
        ServerConfig {
            max_conns: 128,
            reactors: 2,
            ..ServerConfig::default()
        },
    );
    let mut conns: Vec<Client> = (0..60).map(|_| connect(&server)).collect();
    for c in conns.iter_mut() {
        c.ping().unwrap();
    }
    if let Some(threads) = proc_threads() {
        // Process-wide: every concurrently running test's harness thread
        // and servers (this one: 2 reactors and nothing else). 60 idle conns
        // must NOT have added 60 threads.
        assert!(
            threads < 30,
            "thread count {threads} scales with idle connections"
        );
    }
    // Every idle connection still answers.
    for c in conns.iter_mut() {
        c.ping().unwrap();
    }
    server.shutdown();
}

/// The value of `name=` in a `STATS` body.
fn stat(stats: &str, name: &str) -> u64 {
    let line = stats
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix('='));
    line.unwrap_or_else(|| panic!("no `{name}=` in {stats}"))
        .parse()
        .unwrap()
}

fn start_sharded(kind: PolicyKind, nshards: usize, cfg: ServerConfig) -> Server {
    let engines = (0..nshards)
        .map(|_| {
            let pool = fresh_server_pool(16 << 20, 4, false).unwrap();
            Arc::new(KvEngine::create(pool, kind, 256).unwrap())
        })
        .collect();
    Server::start_multi(engines, ("127.0.0.1", 0), cfg).unwrap()
}

#[test]
fn sharded_server_routes_by_ring_and_serves_all_keys() {
    let server = start_sharded(PolicyKind::Spp, 3, ServerConfig::default());
    let mut c = connect(&server);
    for i in 0..90u64 {
        c.put(&key(i), &i.to_le_bytes()).unwrap();
    }
    // Every key reads back through the front door, whichever shard
    // owns it.
    let mut out = Vec::new();
    for i in 0..90u64 {
        out.clear();
        assert!(c.get(&key(i), &mut out).unwrap(), "key {i} lost");
        assert_eq!(out, i.to_le_bytes());
    }
    // Per-shard placement matches the public ring exactly.
    let ring = server.ring();
    let engines = server.engines();
    let mut expected = vec![0u64; engines.len()];
    for i in 0..90u64 {
        expected[ring.shard_of(&key(i)) as usize] += 1;
    }
    for (s, engine) in engines.iter().enumerate() {
        assert_eq!(
            engine.count().unwrap(),
            expected[s],
            "shard {s} holds keys the ring does not assign it"
        );
    }
    assert!(
        expected.iter().all(|&n| n > 0),
        "degenerate ring: {expected:?}"
    );
    // STATS reports the shard layout, and its headline count is the whole
    // store's, not shard 0's.
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "shards"), 3, "{stats}");
    let per_shard: u64 = (0..3)
        .map(|i| stat(&stats, &format!("shard{i}_keys")))
        .sum();
    assert_eq!(stat(&stats, "keys"), per_shard, "{stats}");
    assert_eq!(per_shard, 90, "{stats}");
    // A MULTI spanning shards still answers every slot in order.
    let (k1, k2, k3) = (key(200), key(201), key(202));
    let replies = c
        .multi(&[
            Request::Put {
                key: &k1,
                value: b"a",
            },
            Request::Put {
                key: &k2,
                value: b"b",
            },
            Request::Get { key: &k1 },
            Request::Del { key: &k3 },
        ])
        .unwrap();
    assert_eq!(
        replies,
        vec![
            Reply::Ok,
            Reply::Ok,
            Reply::Value(b"a".to_vec()),
            Reply::NotFound
        ]
    );
    server.shutdown();
}

#[test]
fn stats_under_write_churn_never_errors() {
    // Regression: STATS used to count each shard's keys with no stripe
    // lock, so a walk racing a DEL could dereference a just-freed node —
    // a spurious temporal violation, answered as ERR. Every chain walk now
    // holds its stripe read lock.
    let server = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let addr = server.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let k = key(t * 1_000 + i % 32);
                    c.put(&k, b"churn").unwrap();
                    c.del(&k).unwrap();
                    i += 1;
                }
            })
        })
        .collect();
    let mut c = connect(&server);
    for i in 0..200 {
        if let Err(e) = c.stats() {
            panic!("STATS {i} under churn: {e}");
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn repl_batch_applies_on_backup_and_promote_fences_it() {
    // Drive the backup role directly over the wire: REPL_BATCH frames
    // apply through the shard committer, PROMOTE stops further ones.
    let server = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let mut c = connect(&server);
    let (k1, k2) = (key(1), key(2));
    // A real primary ships each batch to the shard the ring owns the
    // keys to; front-door GETs route the same way, so the readback only
    // works if the batch landed on the ring-owned shard.
    let (s1, s2) = (server.ring().shard_of(&k1), server.ring().shard_of(&k2));
    let ops = [
        ReplOp::Put {
            key: &k1,
            value: b"replicated",
        },
        ReplOp::Put {
            key: &k2,
            value: b"doomed",
        },
        ReplOp::Del { key: &k2 },
    ];
    // Sequences are dense *per shard*, starting at 1: the second batch is
    // seq 2 only when it lands on the same shard as the first.
    let seq2 = if s2 == s1 { 2 } else { 1 };
    assert_eq!(
        c.repl_batch(
            s1,
            1,
            &[ReplOp::Put {
                key: &k1,
                value: b"replicated"
            }]
        )
        .unwrap(),
        (s1, 1)
    );
    assert_eq!(
        c.repl_batch(
            s2,
            seq2,
            &[
                ReplOp::Put {
                    key: &k2,
                    value: b"doomed"
                },
                ReplOp::Del { key: &k2 }
            ]
        )
        .unwrap(),
        (s2, seq2)
    );
    let mut out = Vec::new();
    assert!(c.get(&k1, &mut out).unwrap());
    assert_eq!(out, b"replicated");
    assert!(!c.get(&k2, &mut out).unwrap());
    // Out-of-range shard is refused without desyncing the stream.
    match c.repl_batch(7, 2, &ops) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("shard"), "{msg}"),
        other => panic!("expected Remote error, got {other:?}"),
    }
    c.ping().unwrap();
    // PROMOTE: acked, and replication input is refused from then on.
    c.promote().unwrap();
    assert!(server.is_promoted());
    match c.repl_batch(0, 2, &ops) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("promoted"), "{msg}"),
        other => panic!("expected Remote error after PROMOTE, got {other:?}"),
    }
    // Normal service continues on the promoted server.
    assert!(c.get(&k1, &mut out).unwrap());
    c.put(&key(3), b"post-promotion").unwrap();
    server.shutdown();
}

#[test]
fn repl_sequence_gaps_poison_the_shard_stream() {
    // The backup validates dense per-shard sequences: a gap is rejected
    // and poisons that shard's stream — even the "missing" seq is refused
    // afterwards — while other shards and the front door stay live.
    let server = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let mut c = connect(&server);
    let k = key(1);
    let put = [ReplOp::Put {
        key: &k,
        value: b"v",
    }];
    assert_eq!(c.repl_batch(0, 1, &put).unwrap(), (0, 1));
    // Seq 3 after seq 1: a lost batch the protocol must not paper over.
    match c.repl_batch(0, 3, &put) {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("sequence"), "{msg}");
            assert!(msg.contains("expected 2"), "{msg}");
        }
        other => panic!("expected sequence error, got {other:?}"),
    }
    // Even the correct next seq is refused now: the stream is poisoned,
    // because a batch between them was lost for good.
    match c.repl_batch(0, 2, &put) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("expected poisoned-stream error, got {other:?}"),
    }
    // A duplicate on a *fresh* shard stream is caught too (seq must be 1).
    match c.repl_batch(1, 2, &put) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("expected 1"), "{msg}"),
        other => panic!("expected sequence error, got {other:?}"),
    }
    // The front door still serves ordinary traffic.
    c.put(&key(9), b"front-door").unwrap();
    let mut out = Vec::new();
    assert!(c.get(&key(9), &mut out).unwrap());
    server.shutdown();
}

#[test]
fn repl_hello_verifies_shard_count() {
    let server = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let mut c = connect(&server);
    c.repl_hello(2).unwrap();
    match c.repl_hello(3) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("mismatch"), "{msg}"),
        other => panic!("expected mismatch error, got {other:?}"),
    }
    // A promoted server refuses the handshake outright — it is a primary.
    c.promote().unwrap();
    match c.repl_hello(2) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("promoted"), "{msg}"),
        other => panic!("expected promoted error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn mismatched_shard_layouts_refuse_to_replicate() {
    // A 1-shard primary pointed at a 2-shard backup must fail at startup
    // (the REPL_HELLO handshake), not misplace batches silently.
    let backup = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let pool = fresh_server_pool(16 << 20, 4, false).unwrap();
    let engine = Arc::new(KvEngine::create(pool, PolicyKind::Spp, 256).unwrap());
    let err = match Server::start_multi(
        vec![engine],
        ("127.0.0.1", 0),
        ServerConfig {
            repl: Some(ReplConfig {
                backup: backup.local_addr(),
                ack_mode: ReplAckMode::Sync,
                drop_batch: None,
            }),
            ..ServerConfig::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("mismatched layouts must not start"),
    };
    assert!(err.to_string().contains("mismatch"), "{err}");
    backup.shutdown();
}

#[test]
fn sync_replication_mirrors_every_acked_write_onto_backup() {
    let backup = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let primary = start_sharded(
        PolicyKind::Spp,
        2,
        ServerConfig {
            repl: Some(ReplConfig {
                backup: backup.local_addr(),
                ack_mode: ReplAckMode::Sync,
                drop_batch: None,
            }),
            ..ServerConfig::default()
        },
    );
    let mut c = connect(&primary);
    for i in 0..60u64 {
        c.put(&key(i), &i.to_le_bytes()).unwrap();
    }
    assert!(c.del(&key(0)).unwrap());
    // Sync mode: each ack above already waited for the backup's
    // REPL_ACK, so the backup must hold everything right now.
    let mut b = connect(&backup);
    let mut out = Vec::new();
    for i in 1..60u64 {
        out.clear();
        assert!(b.get(&key(i), &mut out).unwrap(), "backup lost key {i}");
        assert_eq!(out, i.to_le_bytes());
    }
    assert!(
        !b.get(&key(0), &mut out).unwrap(),
        "deleted key resurrected"
    );
    let rs = primary.repl_stats().expect("primary has repl sinks");
    assert!(rs.shipped > 0, "{rs:?}");
    assert_eq!(rs.dropped, 0);
    assert_eq!(rs.failed, 0);
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn async_replication_catches_up_and_cut_stream_fails_sync_acks() {
    // Async mode: acks don't wait, but the backup converges.
    let backup = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let primary = start_sharded(
        PolicyKind::Spp,
        2,
        ServerConfig {
            repl: Some(ReplConfig {
                backup: backup.local_addr(),
                ack_mode: ReplAckMode::Async,
                drop_batch: None,
            }),
            ..ServerConfig::default()
        },
    );
    let mut c = connect(&primary);
    for i in 0..40u64 {
        c.put(&key(i), b"async").unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let total: u64 = backup.engines().iter().map(|e| e.count().unwrap()).sum();
        if total == 40 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backup never converged ({total}/40)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    primary.shutdown();
    backup.shutdown();

    // Sync mode with the stream cut: the client must NOT get OK for a
    // write the backup never saw.
    let backup = start_sharded(PolicyKind::Spp, 1, ServerConfig::default());
    let primary = start_sharded(
        PolicyKind::Spp,
        1,
        ServerConfig {
            repl: Some(ReplConfig {
                backup: backup.local_addr(),
                ack_mode: ReplAckMode::Sync,
                drop_batch: None,
            }),
            ..ServerConfig::default()
        },
    );
    let mut c = connect(&primary);
    c.put(&key(1), b"before-cut").unwrap();
    primary.debug_cut_replication();
    match c.put(&key(2), b"after-cut") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("not replicated"), "{msg}"),
        other => panic!("acked a write the backup cannot hold: {other:?}"),
    }
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn committer_closing_under_an_in_flight_run_fails_the_rest_cleanly() {
    // A committer that shuts down while a connection has a run in flight
    // must leave that connection with explicit answers and a clean close —
    // never a hang, and never an ack for a write that is not durable.
    let (backup, batches, acks) = stalling_backup();
    let server = start(
        PolicyKind::Spp,
        replicating_to(
            backup,
            ServerConfig {
                reactors: 1,
                ..ServerConfig::default()
            },
        ),
    );
    let mut c = connect(&server);
    let (k1, k2) = (key(1), key(2));
    // Run 1: one PUT, whose leader is held in its ship by the backup.
    c.send_raw(&frames(&[Request::Put {
        key: &k1,
        value: b"accepted",
    }]))
    .unwrap();
    assert_eq!(batches.recv().unwrap(), (0, 1));
    // Run 2 waits in the socket: the one reactor is busy leading run 1.
    c.send_raw(&frames(&[
        Request::Put {
            key: &k2,
            value: b"too-late",
        },
        Request::Ping,
    ]))
    .unwrap();
    let (tx, rx) = channel();
    let reader = std::thread::spawn(move || {
        let kinds: Vec<_> = (0..4).map(|_| c.read_reply()).collect();
        let _ = tx.send(kinds);
    });
    std::thread::scope(|s| {
        let closing = s.spawn(|| server.debug_close_committers());
        // Give `close` time to refuse new submissions before the leader
        // is released; it then waits for the leader to drain.
        std::thread::sleep(Duration::from_millis(200));
        assert!(!closing.is_finished(), "close returned under a live leader");
        acks.send(()).unwrap();
    });
    let kinds = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("in-flight run hung after committer shutdown");
    reader.join().unwrap();
    // Closing drains what the committer had accepted: run 1's PUT is
    // acked, and it really is durable.
    assert_eq!(kinds[0].as_ref().unwrap(), &Reply::Ok);
    let mut out = Vec::new();
    assert!(server.engine().get(&k1, &mut out).unwrap());
    // Run 2 reaches a closed committer: its PUT fails explicitly and was
    // not applied, its PING is answered in order, then the server hangs up.
    assert!(
        matches!(kinds[1].as_ref().unwrap(), Reply::Err(m) if m.contains("closed")),
        "PUT after close must fail explicitly, got {:?}",
        kinds[1]
    );
    assert!(!server.engine().get(&k2, &mut out).unwrap());
    assert_eq!(kinds[2].as_ref().unwrap(), &Reply::Pong);
    assert!(
        matches!(kinds[3], Err(ClientError::Io(_))),
        "connection must close after the failed run, got {:?}",
        kinds[3]
    );
    server.shutdown();
}

#[test]
fn a_panicking_leader_leaves_its_reactor_serving() {
    // Reactor 0 — the one that owns the listener — leads the shard, held
    // in its ship, while a submission whose completion panics queues
    // behind it. Once released it unwinds out of that completion: the
    // committer closes, but the reactor thread survives, so reads are
    // still answered on both reactors and new connections are accepted.
    let (backup, batches, acks) = stalling_backup();
    let server = start(
        PolicyKind::Spp,
        replicating_to(
            backup,
            ServerConfig {
                reactors: 2,
                ..ServerConfig::default()
            },
        ),
    );
    let [mut lead, _other] = connect_dealt(&server);
    let k0 = key(0);
    lead.send_raw(&frames(&[Request::Put {
        key: &k0,
        value: b"before",
    }]))
    .unwrap();
    assert_eq!(batches.recv().unwrap(), (0, 1), "reactor 0 is shipping");
    server.debug_queue_leader_panic();
    acks.send(()).unwrap();
    assert_eq!(lead.read_reply().unwrap(), Reply::Ok);
    let addr = server.local_addr();
    within_10s(move || {
        // Two new connections, dealt one to each reactor.
        for _ in 0..2 {
            let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
            c.ping().unwrap();
            let mut out = Vec::new();
            assert!(c.get(&key(0), &mut out).unwrap());
            assert_eq!(out, b"before");
        }
        // Writes are refused explicitly, never left hanging.
        let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        match c.put(&key(1), b"after") {
            Err(ClientError::Remote(m)) => assert!(m.contains("closed"), "{m}"),
            other => panic!("a write to a closed committer: {other:?}"),
        }
    });
    assert_eq!(server.engine().count().unwrap(), 1);
    server.shutdown();
}

#[test]
fn multi_reads_see_their_own_writes_across_shards() {
    // A MULTI body is flattened into the run between two barriers, and a
    // GET inside it is a barrier of its own: each GET must observe the PUT
    // just before it whichever shard owns the key, and the four replies
    // come back in order as one MULTI_BODY.
    let server = start_sharded(PolicyKind::Spp, 2, ServerConfig::default());
    let ring = server.ring();
    let a = key(1);
    let b = (2..)
        .map(key)
        .find(|k| ring.shard_of(k) != ring.shard_of(&a))
        .unwrap();
    let mut c = connect(&server);
    let replies = c
        .multi(&[
            Request::Put {
                key: &a,
                value: b"va",
            },
            Request::Get { key: &a },
            Request::Put {
                key: &b,
                value: b"vb",
            },
            Request::Get { key: &b },
        ])
        .unwrap();
    assert_eq!(
        replies,
        vec![
            Reply::Ok,
            Reply::Value(b"va".to_vec()),
            Reply::Ok,
            Reply::Value(b"vb".to_vec()),
        ]
    );
    server.shutdown();
}

fn proc_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}
