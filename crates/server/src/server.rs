//! The TCP server: epoll reactors that read, execute and commit.
//!
//! Threading model — `cfg.reactors` threads, whatever the connection or
//! shard count, and no service threads besides:
//!
//! * the **reactor** threads (`reactor.rs`) own the sockets *and* execute
//!   the requests, writes included. Reactor 0 also owns the listener;
//!   over-limit connections are answered with a `BUSY` frame and closed
//!   immediately. Connections are **pipelined**: every complete frame
//!   already buffered is decoded into one ordered *run*
//!   (`conn::decode_run`) which the owning reactor interprets
//!   (`advance`): reads, `STATS`, `FLUSH` and the replication handshake
//!   run inline; writes are submitted to their shard's group committer and
//!   the run waits for the commit's completion. The responses are written
//!   back in request order — ordering stays structural (one run in flight
//!   per connection, reads disarmed meanwhile);
//! * one **group committer** per shard ([`crate::group::GroupCommitter`]),
//!   a queue, not a thread: consecutive `PUT`/`DEL`s in a run (and whole
//!   `MULTI` bodies) are submitted as write batches that share one
//!   flush+fence boundary. A reactor queues the writes it reads in one
//!   turn of its loop and, at the end of the turn, leads every shard no
//!   other reactor leads: its connections' stretches share one boundary,
//!   and writes other reactors queue meanwhile ride the next.
//!
//! Backpressure is what already bounds the system: one run in flight per
//! connection × `max_conns`, TCP flow control on a connection that is not
//! being read, and the send-buffer high-water mark. `BUSY` is answered only
//! at the connection limit, never to an admitted connection.
//!
//! Durability contract: `PUT`/`DEL` acks are written only after the batch
//! containing them has flushed and fenced — **every acked write survives a
//! crash**, and a batch is atomic across a crash (the root crash-restart
//! tests drive both over real sockets). Within a run, a read is never
//! reordered before an earlier write: the pending write batch is committed
//! before any `GET`/`STATS`/`FLUSH` executes.
//!
//! Sharding ([`Server::start_multi`]): the execution core is a `ShardSet`
//! — N engines over N independent pools, one group committer per
//! shard, routed by a consistent-hash [`Ring`] over raw key bytes; a
//! single-engine server is the N = 1 case of the same code. Replication
//! ([`ReplConfig`]): each shard's leader ships its committed batches to
//! a backup server as `REPL_BATCH` frames; [`ReplAckMode::Sync`] makes the
//! client ack wait for the backup's `REPL_ACK`, so an acked write is
//! durable on both sides. A `PROMOTE` frame flips a backup into a primary.
//!
//! Graceful shutdown (a `SHUTDOWN` frame or [`Server::shutdown`]) stops
//! accepting, quiesces the reactors (in-flight runs finish and flush their
//! acks), then closes the group committers, and leaves the pools quiescent
//! for a clean reopen.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::conn::{OwnedRequest, OwnedResponse, Run, Step};
use crate::engine::{KvEngine, WriteOp, WriteReply};
use crate::group::{GroupCommitter, GroupConfig, Outcome, SubmitError};
use crate::poll::Epoll;
use crate::reactor::{reactor_main, ReactorShared};
use crate::repl::ReplSink;
use crate::ring::Ring;

/// The I/O front end. There is one: sharded epoll reactors, where a
/// connection costs a slab entry, not a thread (`reactor.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// The reactor front end.
    #[default]
    Epoll,
}

/// When a primary with a configured backup acks a client write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplAckMode {
    /// The client ack waits for the backup's `REPL_ACK`: an acked write is
    /// durable on *both* sides, and survives losing either one.
    Sync,
    /// The client ack follows the local durability boundary; the batch is
    /// shipped afterwards. Cheaper, but writes acked after the last shipped
    /// batch are lost if the primary dies.
    Async,
}

impl FromStr for ReplAckMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReplAckMode, String> {
        match s {
            "sync" => Ok(ReplAckMode::Sync),
            "async" => Ok(ReplAckMode::Async),
            other => Err(format!("unknown repl ack mode `{other}` (sync|async)")),
        }
    }
}

impl std::fmt::Display for ReplAckMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplAckMode::Sync => "sync",
            ReplAckMode::Async => "async",
        })
    }
}

/// Primary-side replication configuration: where to ship acked write
/// batches, and whether client acks wait for the backup.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// The backup server's address. It must be listening before the
    /// primary starts (each shard opens one replication connection up
    /// front).
    pub backup: SocketAddr,
    /// Whether client acks wait for backup durability.
    pub ack_mode: ReplAckMode,
    /// Fault-injection hook: silently drop the Nth shipped batch
    /// (1-based, counted across all shards) while pretending it was
    /// acked. Exists so the failover rig can prove it catches a lost
    /// batch; never set in production.
    pub drop_batch: Option<u64>,
}

/// Aggregate replication counters across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// Batches shipped and acknowledged by the backup.
    pub shipped: u64,
    /// Batches deliberately dropped by the fault-injection hook.
    pub dropped: u64,
    /// Batches that failed to ship (connection cut or backup error).
    pub failed: u64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; excess connections get
    /// `BUSY` and are closed.
    pub max_conns: usize,
    /// Group-commit tuning for batched `PUT`/`DEL` durability boundaries.
    pub group: GroupConfig,
    /// The front end reading the sockets (one value).
    pub io: IoMode,
    /// Reactor threads: they read the sockets and execute the requests.
    pub reactors: usize,
    /// Close connections idle longer than this (`None` disables the
    /// timeout).
    pub idle_timeout: Option<Duration>,
    /// Ship acked write batches to a backup server (`None` disables
    /// replication).
    pub repl: Option<ReplConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 64,
            group: GroupConfig::default(),
            io: IoMode::Epoll,
            reactors: 2,
            idle_timeout: None,
            repl: None,
        }
    }
}

/// One shard: an engine over its own pool plus the group committer that
/// owns its durability boundaries.
pub(crate) struct Shard {
    pub(crate) engine: Arc<KvEngine>,
    pub(crate) committer: Arc<GroupCommitter>,
}

/// The sharded execution core the reactors route into: per-shard engine +
/// committer behind a consistent-hash [`Ring`], plus the promotion flag
/// that flips a backup into a primary.
pub(crate) struct ShardSet {
    pub(crate) shards: Vec<Shard>,
    pub(crate) ring: Ring,
    /// Set by a `PROMOTE` frame: this server now refuses `REPL_BATCH`.
    pub(crate) promoted: AtomicBool,
    /// Backup-side replication cursor per shard: the next `REPL_BATCH`
    /// sequence number this server will accept. Sequences are dense and
    /// start at 1; `u64::MAX` marks a poisoned stream (a gap, duplicate,
    /// or reorder was detected and everything after it is refused).
    repl_expect: Vec<AtomicU64>,
}

impl ShardSet {
    /// Lead every shard whose queue has no leader
    /// ([`GroupCommitter::lead_queued`]). Returns whether any leader stepped
    /// down with work left, which the caller owes another call soon.
    pub(crate) fn lead_queued(&self) -> bool {
        self.shards
            .iter()
            .fold(false, |left, s| s.committer.lead_queued() | left)
    }

    /// Flush + fence every shard's pool.
    fn fence_all(&self) {
        for s in &self.shards {
            s.engine.fence();
        }
    }

    /// Layout handshake on a replication connection: refuse a primary whose
    /// shard numbering would not map onto ours.
    fn repl_hello(&self, n: u32) -> OwnedResponse {
        if self.promoted.load(Ordering::SeqCst) {
            OwnedResponse::Err("promoted: no longer accepting replication".to_string())
        } else if n as usize == self.shards.len() {
            OwnedResponse::Ok
        } else {
            OwnedResponse::Err(format!(
                "replication shard count mismatch: primary ships {n} shards, this backup serves {}",
                self.shards.len()
            ))
        }
    }

    /// Promote this server: seal replication on every committer (checked
    /// under the committer's own lock, so there is no check-then-enqueue
    /// window), drain anything replicated that beat the seal, then fence
    /// every shard and refuse further `REPL_BATCH` frames. Ordering
    /// matters: nothing replicated can commit after the fence.
    fn promote(&self) {
        for s in &self.shards {
            s.committer.seal_repl();
        }
        for s in &self.shards {
            s.committer.barrier();
        }
        self.fence_all();
        self.promoted.store(true, Ordering::SeqCst);
    }

    /// Admit one replicated batch on the backup side: a promoted server
    /// refuses (it is a primary now), and the per-shard sequence cursor must
    /// match. On success the caller queues the redo ops on the returned
    /// committer — so the batch commits behind the backup's *own*
    /// durability boundary — and [`settle_repl`](Self::settle_repl) answers.
    ///
    /// Sequences are dense per shard, so any gap, duplicate, or reorder is
    /// a protocol-visible fault: the batch is rejected and the shard's
    /// stream is poisoned (every later batch on it errors too), rather than
    /// silently applied with the primary and backup diverging. Batches
    /// arrive on a single ordered connection per shard, and that connection
    /// decodes nothing while its run is in flight, so exactly one
    /// `REPL_BATCH` per (shard, seq) can be between admit and settle — the
    /// load-validate-store never races with itself.
    fn admit_repl(&self, shard: u32, seq: u64) -> Result<&GroupCommitter, OwnedResponse> {
        if self.promoted.load(Ordering::SeqCst) {
            return Err(OwnedResponse::Err(
                "promoted: no longer accepting replication".to_string(),
            ));
        }
        let Some(s) = self.shards.get(shard as usize) else {
            return Err(OwnedResponse::Err(format!(
                "no such shard {shard} (this server has {})",
                self.shards.len()
            )));
        };
        let cursor = &self.repl_expect[shard as usize];
        let expect = cursor.load(Ordering::SeqCst);
        if expect == u64::MAX {
            return Err(OwnedResponse::Err(format!(
                "replication stream for shard {shard} is poisoned by an earlier sequence error"
            )));
        }
        if seq != expect {
            cursor.store(u64::MAX, Ordering::SeqCst);
            return Err(OwnedResponse::Err(format!(
                "replication sequence broken on shard {shard}: expected {expect}, got {seq}"
            )));
        }
        Ok(&s.committer)
    }

    /// The committer's verdict on an admitted batch: advance the shard's
    /// cursor and ack with the batch's `(shard, seq)`, or poison the stream.
    /// Runs in the submission's completion, so the cursor has moved before
    /// the reply is posted — and therefore before the replication
    /// connection's next run is decoded — even if that connection died
    /// meanwhile.
    fn settle_repl(&self, shard: u32, seq: u64, outcome: Outcome) -> OwnedResponse {
        let cursor = &self.repl_expect[shard as usize];
        // A per-op failure means the backup does NOT hold the batch
        // verbatim; never ack it as replicated — and the stream has
        // diverged, so poison it. (A delete's NotFound is fine — the
        // tombstone state matches the primary either way.)
        let failure = match outcome {
            Ok(replies) => replies.into_iter().find_map(|r| match r {
                WriteReply::Err(m) => Some(format!("replicated op failed: {m}")),
                _ => None,
            }),
            Err(e) => Some(e.to_string()),
        };
        match failure {
            None => {
                cursor.store(seq + 1, Ordering::SeqCst);
                OwnedResponse::ReplAck { shard, seq }
            }
            Some(m) => {
                cursor.store(u64::MAX, Ordering::SeqCst);
                OwnedResponse::Err(m)
            }
        }
    }

    /// The `STATS` body, UTF-8 `key=value` lines: totals over every shard
    /// (sums, and maxima for the `max_*` fields), then the shard count and
    /// each shard's key count — the same lines for any shard count.
    fn render_stats(&self) -> Result<String, String> {
        let (mut keys, mut resident_bytes, mut nbuckets, mut nonempty_buckets) = (0, 0, 0, 0);
        let (mut max_chain, mut occupied_stripes, mut max_stripe, mut pool_bytes) = (0, 0, 0, 0);
        let mut shard_lines = String::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let s = shard.engine.stats().map_err(|e| e.to_string())?;
            keys += s.keys;
            resident_bytes += s.resident_bytes;
            nbuckets += s.nbuckets;
            nonempty_buckets += s.nonempty_buckets;
            max_chain = max_chain.max(s.max_chain);
            occupied_stripes += s.stripe_occupancy.iter().filter(|&&n| n > 0).count();
            max_stripe = max_stripe.max(s.stripe_occupancy.iter().copied().max().unwrap_or(0));
            pool_bytes += shard.engine.pool().pm().size();
            shard_lines.push_str(&format!("shard{i}_keys={}\n", s.keys));
        }
        Ok(format!(
            "policy={}\nkeys={keys}\nresident_bytes={resident_bytes}\nnbuckets={nbuckets}\n\
             nonempty_buckets={nonempty_buckets}\nmax_chain={max_chain}\n\
             occupied_stripes={occupied_stripes}\nmax_stripe_occupancy={max_stripe}\n\
             pool_bytes={pool_bytes}\nshards={}\n{shard_lines}",
            self.shards[0].engine.kind().label(),
            self.shards.len(),
        ))
    }
}

pub(crate) struct Shared {
    pub(crate) shards: Arc<ShardSet>,
    pub(crate) cfg: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    pub(crate) conns: AtomicUsize,
    pub(crate) reactors: Vec<Arc<ReactorShared>>,
    pub(crate) done: Mutex<bool>,
    pub(crate) done_cv: Condvar,
}

impl Shared {
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.done.lock().expect("done lock") = true;
        self.done_cv.notify_all();
        // Ring every reactor's doorbell; they observe the flag and start
        // draining.
        for r in &self.reactors {
            r.wake.signal();
        }
    }
}

/// A running KV service. Dropping without [`Server::shutdown`] aborts
/// non-gracefully (threads are detached); call `shutdown` for the clean
/// quiesce.
pub struct Server {
    shared: Arc<Shared>,
    reactor_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks an ephemeral port) and start serving
    /// `engine`: [`Server::start_multi`] with one shard.
    ///
    /// # Errors
    ///
    /// As [`Server::start_multi`].
    pub fn start(
        engine: Arc<KvEngine>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_multi(vec![engine], addr, cfg)
    }

    /// Bind `addr` and serve `engines` as shards behind a consistent-hash
    /// ring: each engine keeps its own pool, recovery path, and generation
    /// index, and gets its own group committer, so shards never share a
    /// durability boundary. Every key is routed to its owning shard via
    /// [`Ring::shard_of`] over the raw key bytes — the same ring a client
    /// can mirror from nothing but the shard count.
    ///
    /// With `cfg.repl` set, every shard opens a replication connection to
    /// the backup before serving starts and ships each committed batch as
    /// a `REPL_BATCH` frame (see [`ReplAckMode`] for what client acks then
    /// mean).
    ///
    /// # Errors
    ///
    /// Socket errors, epoll/eventfd creation errors, and
    /// replication-connection errors when `cfg.repl` is set.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn start_multi(
        engines: Vec<Arc<KvEngine>>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(!engines.is_empty(), "server needs at least one shard");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let sinks = match &cfg.repl {
            Some(rc) => ReplSink::connect_all(rc, engines.len())
                .map_err(|e| std::io::Error::other(e.to_string()))?,
            None => Vec::new(),
        };
        let ring = Ring::new(engines.len() as u32);
        let shards: Vec<Shard> = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let sink = sinks.get(i).cloned();
                let committer =
                    GroupCommitter::start_with_repl(Arc::clone(&engine), cfg.group, sink);
                Shard { engine, committer }
            })
            .collect();
        let nshards = shards.len();
        let shard_set = Arc::new(ShardSet {
            shards,
            ring,
            promoted: AtomicBool::new(false),
            repl_expect: (0..nshards).map(|_| AtomicU64::new(1)).collect(),
        });
        // Kernel objects are created up front so setup errors surface
        // here as io::Error instead of panicking a thread.
        let n_reactors = cfg.reactors.max(1);
        let mut reactor_shareds = Vec::with_capacity(n_reactors);
        let mut epolls = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            reactor_shareds.push(Arc::new(ReactorShared::new()?));
            epolls.push(Epoll::new()?);
        }

        let shared = Arc::new(Shared {
            shards: shard_set,
            cfg,
            addr: local,
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            reactors: reactor_shareds,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        let mut reactor_handles = Vec::with_capacity(n_reactors);
        let mut listener = Some(listener);
        for (i, epoll) in epolls.into_iter().enumerate() {
            let shared2 = Arc::clone(&shared);
            let me = Arc::clone(&shared.reactors[i]);
            let peers = shared.reactors.clone();
            // Reactor 0 owns the listener and deals accepted sockets
            // round-robin to its peers.
            let l = if i == 0 { listener.take() } else { None };
            reactor_handles.push(
                std::thread::Builder::new()
                    .name(format!("spp-server-reactor-{i}"))
                    .spawn(move || reactor_main(i, epoll, l, shared2, me, peers))?,
            );
        }
        Ok(Server {
            shared,
            reactor_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The engine being served — shard 0's engine (the only one on a
    /// single-shard server). See [`Server::engines`] for all shards.
    pub fn engine(&self) -> &Arc<KvEngine> {
        &self.shared.shards.shards[0].engine
    }

    /// Every shard's engine, in shard order.
    pub fn engines(&self) -> Vec<Arc<KvEngine>> {
        self.shared
            .shards
            .shards
            .iter()
            .map(|s| Arc::clone(&s.engine))
            .collect()
    }

    /// The consistent-hash ring this server routes with. A client can
    /// rebuild the identical ring from the shard count alone.
    pub fn ring(&self) -> &Ring {
        &self.shared.shards.ring
    }

    /// Whether a `PROMOTE` frame has flipped this server to primary.
    pub fn is_promoted(&self) -> bool {
        self.shared.shards.promoted.load(Ordering::SeqCst)
    }

    /// Group-commit counters so far, summed across shards: `(batches
    /// committed, write ops committed through those batches)`. `ops >
    /// batches` proves writes shared durability boundaries.
    pub fn group_stats(&self) -> (u64, u64) {
        let mut batches = 0;
        let mut ops = 0;
        for s in &self.shared.shards.shards {
            let (b, o) = s.committer.stats();
            batches += b;
            ops += o;
        }
        (batches, ops)
    }

    /// Replication counters summed across shards, or `None` when no
    /// backup is configured.
    pub fn repl_stats(&self) -> Option<ReplStats> {
        let mut out = ReplStats::default();
        let mut any = false;
        for s in &self.shared.shards.shards {
            if let Some(stats) = s.committer.repl_stats() {
                any = true;
                out.shipped += stats.shipped;
                out.dropped += stats.dropped;
                out.failed += stats.failed;
            }
        }
        any.then_some(out)
    }

    /// Sever the replication stream as if the primary process died
    /// mid-flight: every subsequent ship fails (which in sync ack mode
    /// turns the affected client acks into errors). Test-only hook for
    /// the failover rigs; real traffic never calls this.
    #[doc(hidden)]
    pub fn debug_cut_replication(&self) {
        for s in &self.shared.shards.shards {
            s.committer.cut_replication();
        }
    }

    /// Queue, on every shard, a submission whose completion panics, so the
    /// leader that serves it unwinds. Test-only hook for the
    /// leader-panic-leaves-the-reactors-serving regression test.
    #[doc(hidden)]
    pub fn debug_queue_leader_panic(&self) {
        for s in &self.shared.shards.shards {
            let done = |_| panic!("injected leader panic");
            s.committer.enqueue(Vec::new(), false, Box::new(done));
        }
    }

    /// Close every shard's group committer without shutting the server
    /// down, leaving the reactors running. Test-only hook for the
    /// committer-closes-under-a-run regression test.
    #[doc(hidden)]
    pub fn debug_close_committers(&self) {
        for s in &self.shared.shards.shards {
            s.committer.close();
        }
    }

    /// Block until a shutdown is triggered (a `SHUTDOWN` frame or
    /// [`Server::shutdown`] from another thread via a prior clone of the
    /// trigger — the daemon's main loop).
    pub fn wait_shutdown(&self) {
        let mut done = self.shared.done.lock().expect("done lock");
        while !*done {
            done = self.shared.done_cv.wait(done).expect("done lock");
        }
    }

    /// Trigger + complete a graceful shutdown: stop accepting, drain the
    /// reactors (in-flight runs finish), close the committers, and join
    /// everything. Idempotent with a wire-initiated `SHUTDOWN`.
    pub fn shutdown(self) {
        self.shared.trigger_shutdown();
        // Reactors quiesce BEFORE the committers close: they finish
        // in-flight runs (which still need commits) and flush the acks.
        for h in self.reactor_handles {
            let _ = h.join();
        }
        // No reactor is left to submit or lead: the committers close.
        for s in &self.shared.shards.shards {
            s.committer.close();
        }
        // Leave every device quiescent: a final fence so any straggling
        // flushed-but-unfenced stores are promoted before the pools are
        // dropped or their images saved.
        self.shared.shards.fence_all();
    }
}

/// A committer's answer to one of a run's submissions, as its leader posts
/// it to the owning reactor: the reply slots it fills.
pub(crate) struct Answer {
    /// `(reply slot, reply)` pairs.
    pub(crate) replies: Vec<(usize, OwnedResponse)>,
    /// The committer is closed (or its leader unwound) — this server can
    /// write no more, so the connection closes once the run is written back.
    pub(crate) committer_closed: bool,
}

impl Answer {
    fn of_writes(slots: Vec<usize>, outcome: Outcome) -> Answer {
        let committer_closed = outcome == Err(SubmitError::Closed);
        let replies = match outcome {
            Ok(replies) => {
                debug_assert_eq!(replies.len(), slots.len());
                let reply = |r| match r {
                    WriteReply::Ok => OwnedResponse::Ok,
                    WriteReply::NotFound => OwnedResponse::NotFound,
                    WriteReply::Err(m) => OwnedResponse::Err(m),
                };
                slots
                    .into_iter()
                    .zip(replies.into_iter().map(reply))
                    .collect()
            }
            // Nothing applied, nothing acked as durable.
            Err(e) => slots
                .into_iter()
                .map(|slot| (slot, OwnedResponse::Err(e.to_string())))
                .collect(),
        };
        Answer {
            replies,
            committer_closed,
        }
    }
}

/// Interpret `run` from where it stopped, on the reactor that owns its
/// connection, until it is finished (`true`: every reply slot is answered)
/// or has submitted writes (`false`: `run.outstanding`
/// [`Answer`]s will be posted to `me` under `token`; call again once they
/// have all been applied). This is the only way a run reaches the engines,
/// and where the ordering rules live:
///
/// * consecutive `PUT`/`DEL`s are staged per owning shard and submitted to
///   each shard's group committer as one durability boundary per shard;
///   two writes to the same key always share a shard, so per-key order is
///   preserved even though shards commit independently;
/// * everything else is a barrier — the stages are submitted and answered
///   before it executes. A read, `STATS` or `FLUSH` must observe every
///   earlier write in the run; a `MULTI` body sits between two barriers, so
///   it is its own atomic batch (per shard, not across shards) and batch
///   boundaries align with the frame boundary on both sides of a
///   replication pair; a `REPL_BATCH` applies whole, in shipping order,
///   never interleaved with this run's staged writes;
/// * an ack is written only after the boundary: a slot is answered by the
///   committer's completion, and the run is written back when all are.
///
/// Responses are exactly what sequential execution would produce. Writes
/// only queue here; the reactor leads them at the end of its turn
/// ([`ShardSet::lead_queued`]) and the answers arrive through `me`'s
/// completion queue. `PROMOTE` waits for the committers to drain, leading
/// what nobody leads (a leader never waits on a reactor, so it cannot
/// deadlock).
pub(crate) fn advance(
    shards: &Arc<ShardSet>,
    run: &mut Run,
    me: &Arc<ReactorShared>,
    token: u64,
) -> bool {
    debug_assert_eq!(run.outstanding, 0);
    let mut staged: Vec<Vec<(usize, WriteOp)>> = vec![Vec::new(); shards.shards.len()];
    while let Some(step) = run.steps.pop_front() {
        match step {
            Step::Write { slot, op } => {
                staged[shards.ring.shard_of(op.key()) as usize].push((slot, op));
            }
            barrier => {
                submit_staged(shards, run, &mut staged, me, token);
                if run.outstanding > 0 {
                    run.steps.push_front(barrier);
                    return false;
                }
                if let Step::Exec { slot, req } = barrier {
                    match execute(shards, slot, req, me, token) {
                        Some(reply) => run.replies[slot] = Some(reply),
                        None => {
                            run.outstanding = 1;
                            return false;
                        }
                    }
                }
            }
        }
    }
    submit_staged(shards, run, &mut staged, me, token);
    run.outstanding == 0
}

/// Execute one non-write request with nothing staged or outstanding before
/// it. `None` means it went to a committer (a `REPL_BATCH`), whose
/// completion will post the reply for `slot`.
fn execute(
    shards: &Arc<ShardSet>,
    slot: usize,
    req: OwnedRequest,
    me: &Arc<ReactorShared>,
    token: u64,
) -> Option<OwnedResponse> {
    Some(match req {
        OwnedRequest::ReplBatch { shard, seq, ops } => match shards.admit_repl(shard, seq) {
            Err(refusal) => refusal,
            Ok(committer) => {
                let (shards, me) = (Arc::clone(shards), Arc::clone(me));
                committer.queue(
                    ops,
                    true,
                    Box::new(move |outcome| {
                        let committer_closed = outcome == Err(SubmitError::Closed);
                        let reply = shards.settle_repl(shard, seq, outcome);
                        me.post(
                            token,
                            Answer {
                                replies: vec![(slot, reply)],
                                committer_closed,
                            },
                        );
                    }),
                );
                return None;
            }
        },
        OwnedRequest::Promote => {
            shards.promote();
            OwnedResponse::Ok
        }
        OwnedRequest::Get { key } => {
            let engine = &shards.shards[shards.ring.shard_of(&key) as usize].engine;
            let mut value = Vec::new();
            match engine.get(&key, &mut value) {
                Ok(true) => OwnedResponse::Value(value),
                Ok(false) => OwnedResponse::NotFound,
                Err(e) => OwnedResponse::Err(e.to_string()),
            }
        }
        OwnedRequest::Stats => match shards.render_stats() {
            Ok(body) => OwnedResponse::Stats(body),
            Err(m) => OwnedResponse::Err(m),
        },
        OwnedRequest::Flush => {
            shards.fence_all();
            OwnedResponse::Ok
        }
        OwnedRequest::ReplHello { shards: n } => shards.repl_hello(n),
    })
}

/// Queue each shard's staged writes on its committer as one submission,
/// counted in `run.outstanding`; its completion posts the stage's replies
/// back to the reactor.
fn submit_staged(
    shards: &ShardSet,
    run: &mut Run,
    staged: &mut [Vec<(usize, WriteOp)>],
    me: &Arc<ReactorShared>,
    token: u64,
) {
    for (shard, stage) in shards.shards.iter().zip(staged) {
        if stage.is_empty() {
            continue;
        }
        let (slots, ops): (Vec<usize>, Vec<WriteOp>) = std::mem::take(stage).into_iter().unzip();
        let me = Arc::clone(me);
        run.outstanding += 1;
        shard.committer.queue(
            ops,
            false,
            Box::new(move |outcome| me.post(token, Answer::of_writes(slots, outcome))),
        );
    }
}
