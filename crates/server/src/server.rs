//! The TCP server: epoll reactors in front of one shared execution core.
//!
//! Threading model — `reactors + workers + committers` threads, whatever
//! the connection count:
//!
//! * `cfg.reactors` **reactor** threads (`reactor.rs`) own the sockets.
//!   Reactor 0 also owns the listener; over-limit connections are answered
//!   with a `BUSY` frame and closed immediately. Connections are
//!   **pipelined**: every complete frame already buffered is decoded into
//!   one ordered *run* (`conn::decode_run`), the run executes as a single
//!   worker job, and the responses are written back in request order —
//!   ordering stays structural (one job in flight per connection);
//! * a fixed **worker pool** (the only threads touching the engine) drains
//!   the bounded request queue. When the queue is full the reactor *parks*
//!   the run and stops reading that socket — saturation degrades into TCP
//!   flow control, never unbounded buffering and never a `BUSY`-failed run;
//! * one **group-commit thread** per shard
//!   ([`crate::group::GroupCommitter`]): consecutive `PUT`/`DEL`s in a run
//!   (and whole `MULTI` bodies) are submitted as write batches that share
//!   a single flush+fence boundary, coalescing across connections under
//!   load.
//!
//! Durability contract: `PUT`/`DEL` acks are written only after the batch
//! containing them has flushed and fenced — **every acked write survives a
//! crash**, and a batch is atomic across a crash (the root crash-restart
//! tests drive both over real sockets). Within a run, a read is never
//! reordered before an earlier write: the pending write batch is committed
//! before any `GET`/`STATS`/`FLUSH` executes.
//!
//! Sharding ([`Server::start_multi`]): the execution core is a `ShardSet`
//! — N engines over N independent pools, one group-commit thread per
//! shard, routed by a consistent-hash [`Ring`] over raw key bytes; a
//! single-engine server is the N = 1 case of the same code. Replication
//! ([`ReplConfig`]): each shard's committer ships its committed batches to
//! a backup server as `REPL_BATCH` frames; [`ReplAckMode::Sync`] makes the
//! client ack wait for the backup's `REPL_ACK`, so an acked write is
//! durable on both sides. A `PROMOTE` frame flips a backup into a primary.
//!
//! Graceful shutdown (a `SHUTDOWN` frame or [`Server::shutdown`]) stops
//! accepting, quiesces the reactors (in-flight runs finish and flush their
//! acks), then the worker pool (queued jobs all run), then the group
//! committers, and leaves the pools quiescent for a clean reopen.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::conn::{OwnedRequest, OwnedResponse};
use crate::engine::{KvEngine, WriteOp, WriteReply};
use crate::group::{GroupCommitter, GroupConfig};
use crate::poll::Epoll;
use crate::queue::{BoundedQueue, Job, WorkerPool};
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
    /// Worker threads executing engine requests.
    pub workers: usize,
    /// Maximum simultaneously served connections; excess connections get
    /// `BUSY` and are closed.
    pub max_conns: usize,
    /// Bounded request-queue depth; a full queue parks the run and pauses
    /// reads on its connection.
    pub queue_depth: usize,
    /// Group-commit tuning for batched `PUT`/`DEL` durability boundaries.
    pub group: GroupConfig,
    /// The front end reading the sockets (one value).
    pub io: IoMode,
    /// Reactor threads.
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
            workers: 4,
            max_conns: 64,
            queue_depth: 128,
            group: GroupConfig::default(),
            io: IoMode::Epoll,
            reactors: 2,
            idle_timeout: None,
            repl: None,
        }
    }
}

/// One shard: an engine over its own pool plus the group-commit thread
/// that owns its durability boundaries.
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
    /// Whether any shard's committer has been closed — once one has, a
    /// parked run can never be served and must fail cleanly.
    pub(crate) fn any_committer_closed(&self) -> bool {
        self.shards.iter().any(|s| s.committer.is_closed())
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
    pub(crate) queue: Arc<BoundedQueue<Job>>,
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
    workers: Option<WorkerPool>,
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
    /// index, and gets its own group-commit thread, so shards never share
    /// a durability boundary. Every key is routed to its owning shard via
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
        let queue = Arc::new(BoundedQueue::new(cfg.queue_depth));
        let workers = WorkerPool::start(Arc::clone(&queue), cfg.workers);
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
            queue,
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
            workers: Some(workers),
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

    /// Close every shard's group committer without shutting the server
    /// down, leaving reactors and workers running. Test-only hook for
    /// the parked-run regression tests.
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

    /// Occupy worker-pool capacity with `jobs` sleeper jobs holding for
    /// `hold` each; returns how many were accepted. Test-only hook for
    /// saturating the queue deterministically (the stalled-pool
    /// backpressure regression tests); real traffic never calls this.
    #[doc(hidden)]
    pub fn debug_stall_workers(&self, jobs: usize, hold: Duration) -> usize {
        let mut accepted = 0;
        for _ in 0..jobs {
            let job: Job = Box::new(move || std::thread::sleep(hold));
            if self.shared.queue.try_push(job).is_ok() {
                accepted += 1;
            }
        }
        accepted
    }

    /// Trigger + complete a graceful shutdown: stop accepting, drain the
    /// reactors (in-flight runs finish), quiesce the worker pool (all
    /// queued jobs run), and join everything. Idempotent with a
    /// wire-initiated `SHUTDOWN`.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        // Reactors quiesce BEFORE the workers: they stop feeding the
        // queue, finish parked/in-flight runs, and flush acks; only then
        // is the pool drained and closed.
        for h in std::mem::take(&mut self.reactor_handles) {
            let _ = h.join();
        }
        if let Some(w) = self.workers.take() {
            w.shutdown();
        }
        // Workers are quiesced, so no job can submit any more: the
        // committers drain and stop cleanly.
        for s in &self.shared.shards.shards {
            s.committer.close();
        }
        // Leave every device quiescent: a final fence so any straggling
        // flushed-but-unfenced stores are promoted before the pools are
        // dropped or their images saved.
        self.shared.shards.fence_all();
    }
}

/// Apply one replicated batch on the backup side: validate the per-shard
/// sequence cursor, submit the redo ops to the owning shard's committer
/// (so the batch commits behind the backup's *own* durability boundary),
/// and ack with the batch's `(shard, seq)` only after that boundary. A
/// promoted server refuses — it is a primary now.
///
/// Sequences are dense per shard, so any gap, duplicate, or reorder is a
/// protocol-visible fault: the batch is rejected and the shard's stream is
/// poisoned (every later batch on it errors too), rather than silently
/// applied with the primary and backup diverging. Batches arrive on a
/// single ordered connection per shard, so exactly one `REPL_BATCH` per
/// (shard, seq) can be in flight here — the load-validate-store below
/// never races with itself.
fn apply_repl_batch(shards: &ShardSet, shard: u32, seq: u64, ops: Vec<WriteOp>) -> OwnedResponse {
    if shards.promoted.load(Ordering::SeqCst) {
        return OwnedResponse::Err("promoted: no longer accepting replication".to_string());
    }
    let Some(s) = shards.shards.get(shard as usize) else {
        return OwnedResponse::Err(format!(
            "no such shard {shard} (this server has {})",
            shards.shards.len()
        ));
    };
    let cursor = &shards.repl_expect[shard as usize];
    let expect = cursor.load(Ordering::SeqCst);
    if expect == u64::MAX {
        return OwnedResponse::Err(format!(
            "replication stream for shard {shard} is poisoned by an earlier sequence error"
        ));
    }
    if seq != expect {
        cursor.store(u64::MAX, Ordering::SeqCst);
        return OwnedResponse::Err(format!(
            "replication sequence broken on shard {shard}: expected {expect}, got {seq}"
        ));
    }
    match s.committer.submit_repl(ops) {
        Ok(replies) => {
            // A per-op failure means the backup does NOT hold the batch
            // verbatim; never ack it as replicated — and the stream has
            // diverged, so poison it. (A delete's NotFound is fine — the
            // tombstone state matches the primary either way.)
            for r in &replies {
                if let WriteReply::Err(m) = r {
                    cursor.store(u64::MAX, Ordering::SeqCst);
                    return OwnedResponse::Err(format!("replicated op failed: {m}"));
                }
            }
            cursor.store(expect + 1, Ordering::SeqCst);
            OwnedResponse::ReplAck { shard, seq }
        }
        Err(e) => {
            cursor.store(u64::MAX, Ordering::SeqCst);
            OwnedResponse::Err(e.to_string())
        }
    }
}

/// Execute an ordered run of requests with sharded write batching:
/// consecutive `PUT`/`DEL`s are staged per owning shard and committed
/// through each shard's group committer as one shared durability boundary
/// per shard; the stages are flushed before anything that must observe
/// those writes (a read, `STATS`, `FLUSH`) and at `MULTI` boundaries, so
/// responses are exactly what sequential execution would produce. (On a
/// multi-shard server a `MULTI` is atomic *per shard* — each shard's slice
/// of the batch shares one boundary — not across shards.) This is the only
/// way a run reaches the engines.
pub(crate) fn execute_ops(shards: &ShardSet, reqs: Vec<OwnedRequest>) -> Vec<OwnedResponse> {
    let nshards = shards.shards.len();
    let mut out: Vec<Option<OwnedResponse>> = Vec::with_capacity(reqs.len());
    let mut staged: Vec<Vec<(usize, WriteOp)>> = vec![Vec::new(); nshards];
    for req in reqs {
        // Writes are staged and a PING touches nothing; everything else is
        // a barrier. A read, `STATS` or `FLUSH` must observe every earlier
        // write in the run; a `MULTI` body is its own (per-shard) atomic
        // batch, so batch boundaries align with the frame boundary on both
        // sides; replication applies whole batches in shipping order, never
        // interleaved with this run's staged writes.
        if !matches!(
            req,
            OwnedRequest::Put { .. } | OwnedRequest::Del { .. } | OwnedRequest::Ping
        ) {
            flush_staged(shards, &mut out, &mut staged);
        }
        let reply = match req {
            OwnedRequest::Put { key, value } => {
                let s = shards.ring.shard_of(&key) as usize;
                staged[s].push((out.len(), WriteOp::Put { key, value }));
                None
            }
            OwnedRequest::Del { key } => {
                let s = shards.ring.shard_of(&key) as usize;
                staged[s].push((out.len(), WriteOp::Del { key }));
                None
            }
            OwnedRequest::Ping => Some(OwnedResponse::Pong),
            OwnedRequest::Multi(nested) => Some(OwnedResponse::Multi(execute_ops(shards, nested))),
            OwnedRequest::ReplBatch { shard, seq, ops } => {
                Some(apply_repl_batch(shards, shard, seq, ops))
            }
            OwnedRequest::Promote => {
                shards.promote();
                Some(OwnedResponse::Ok)
            }
            OwnedRequest::Get { key } => {
                let engine = &shards.shards[shards.ring.shard_of(&key) as usize].engine;
                let mut value = Vec::new();
                Some(match engine.get(&key, &mut value) {
                    Ok(true) => OwnedResponse::Value(value),
                    Ok(false) => OwnedResponse::NotFound,
                    Err(e) => OwnedResponse::Err(e.to_string()),
                })
            }
            OwnedRequest::Stats => Some(match shards.render_stats() {
                Ok(body) => OwnedResponse::Stats(body),
                Err(m) => OwnedResponse::Err(m),
            }),
            OwnedRequest::Flush => {
                shards.fence_all();
                Some(OwnedResponse::Ok)
            }
            OwnedRequest::ReplHello { shards: n } => Some(shards.repl_hello(n)),
        };
        out.push(reply);
    }
    flush_staged(shards, &mut out, &mut staged);
    out.into_iter()
        .map(|r| r.expect("every slot answered"))
        .collect()
}

/// Commit each shard's staged writes as one group-commit submission to
/// that shard's committer and patch the replies into their slots. Two
/// writes to the same key always share a shard, so per-key ordering is
/// preserved even though shards flush independently. No-op when nothing
/// is staged.
fn flush_staged(
    shards: &ShardSet,
    out: &mut [Option<OwnedResponse>],
    staged: &mut [Vec<(usize, WriteOp)>],
) {
    for (shard, stage) in shards.shards.iter().zip(staged.iter_mut()) {
        if stage.is_empty() {
            continue;
        }
        let (slots, ops): (Vec<usize>, Vec<WriteOp>) = std::mem::take(stage).into_iter().unzip();
        match shard.committer.submit(ops) {
            Ok(replies) => {
                debug_assert_eq!(replies.len(), slots.len());
                for (slot, reply) in slots.into_iter().zip(replies) {
                    out[slot] = Some(match reply {
                        WriteReply::Ok => OwnedResponse::Ok,
                        WriteReply::NotFound => OwnedResponse::NotFound,
                        WriteReply::Err(m) => OwnedResponse::Err(m),
                    });
                }
            }
            Err(e) => {
                // Committer closed mid-run (shutdown race): nothing
                // applied, nothing acked as durable.
                for slot in slots {
                    out[slot] = Some(OwnedResponse::Err(e.to_string()));
                }
            }
        }
    }
}
