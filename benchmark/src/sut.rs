//! The system under test, as the benchmark sees it. Every call into the
//! repo's crates is in this file, so a change to their API pairs with a
//! change here and nowhere else in `benchmark/`. (README lists the entry
//! points.)
//!
//! It also fixes the conditions every workload shares: pool size, lane
//! count, bucket count, flush policy, front end and replication mode are
//! constants here, not knobs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spp_core::{MemoryPolicy, PmdkPolicy, SppPolicy, TagConfig};
use spp_kvstore::{BatchOp, KvStore};
use spp_pm::{contention, CrashSpec, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, OidDest, OidKind, PmemOid, PoolOpts, Tx};
use spp_server::wire;
use spp_server::{
    fresh_server_pool, Client, ClientError, GroupCommitter, GroupConfig, IoMode, KvEngine,
    PolicyKind, ReplAckMode, ReplConfig, Reply, Request, Response, Ring, Server, ServerConfig,
    WriteOp, WriteReply,
};

/// 256 MiB: the largest power of two SPP's default `TagConfig` accepts at
/// the default mapping base.
pub const POOL_BYTES: u64 = 256 << 20;
/// What `spp-server` defaults to.
const LANES: usize = 16;

/// Twice the key count, rounded up to a power of two.
pub fn nbuckets(keys: u32) -> u64 {
    (2 * u64::from(keys)).next_power_of_two()
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Pmdk,
    Spp,
}

impl Policy {
    fn kind(self) -> PolicyKind {
        match self {
            Policy::Pmdk => PolicyKind::Pmdk,
            Policy::Spp => PolicyKind::Spp,
        }
    }
}

// ---------------------------------------------------------------------
// engine: KvEngine over a fresh pool
// ---------------------------------------------------------------------

/// A `KvEngine` over its own pool.
pub struct Engine(Arc<KvEngine>);

/// The simulated device an engine lived on, kept for reopening.
pub struct Device(Arc<PmPool>);

/// An owned batch of PUTs in the shape the write path takes them.
pub struct WriteBatch(Vec<WriteOp>);

impl WriteBatch {
    pub fn puts<'a>(items: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> WriteBatch {
        WriteBatch(
            items
                .map(|(key, value)| WriteOp::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                })
                .collect(),
        )
    }
}

fn all_ok(replies: &[WriteReply]) -> Res<()> {
    match replies.iter().find(|r| **r != WriteReply::Ok) {
        None => Ok(()),
        Some(bad) => Err(format!("write batch reply {bad:?}")),
    }
}

impl Engine {
    /// A fresh engine for `keys` keys on `Mode::Fast` media with no
    /// injected latency, as the server binary builds it.
    pub fn create(policy: Policy, keys: u32) -> Res<Engine> {
        Engine::create_on(policy, keys, POOL_BYTES, false)
    }

    /// As [`Engine::create`] on a store-tracking pool of `pool_bytes`, so
    /// that a crash can be injected ([`Engine::crash_and_recover`]).
    pub fn create_tracked(policy: Policy, keys: u32, pool_bytes: u64) -> Res<Engine> {
        Engine::create_on(policy, keys, pool_bytes, true)
    }

    fn create_on(policy: Policy, keys: u32, pool_bytes: u64, tracked: bool) -> Res<Engine> {
        let pool = fresh_server_pool(pool_bytes, LANES, tracked).map_err(err)?;
        let engine = KvEngine::create(pool, policy.kind(), nbuckets(keys)).map_err(err)?;
        Ok(Engine(Arc::new(engine)))
    }

    pub fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Res<bool> {
        self.0.get(key, out).map_err(err)
    }

    pub fn put(&self, key: &[u8], value: &[u8]) -> Res<()> {
        self.0.put(key, value).map_err(err)
    }

    /// One transaction, one durability boundary for the whole batch.
    pub fn apply(&self, batch: &WriteBatch) -> Res<()> {
        all_ok(&self.0.apply_write_batch(&batch.0))
    }

    pub fn count(&self) -> Res<u64> {
        self.0.count().map_err(err)
    }

    /// Heap bytes the allocator has ever handed out (chunk-granular).
    pub fn high_water(&self) -> u64 {
        self.0.pool().stats().high_water
    }

    /// Forget the store-tracking log so far: what is in the pool now is the
    /// durable baseline. (Tracked pools only; a no-op otherwise.)
    pub fn reset_tracking(&self) {
        self.0.pool().pm().reset_tracking();
    }

    /// Give up the engine and keep the device. Fails if anything else (a
    /// server that was not shut down) still holds the engine.
    pub fn into_device(self) -> Res<Device> {
        let engine = Arc::try_unwrap(self.0).map_err(|_| "engine is still shared".to_string())?;
        let pm = Arc::clone(engine.pool().pm());
        drop(engine);
        Ok(Device(pm))
    }

    /// Power-fail the device — every store not yet flushed and fenced is
    /// lost — and run full recovery on what survives.
    pub fn crash_and_recover(self, policy: Policy) -> Res<Engine> {
        let image = self.0.pool().pm().crash_image(CrashSpec::DropUnpersisted);
        drop(self);
        let pm = Arc::new(PmPool::from_image(image, PoolConfig::new(0)));
        Device(pm).reopen(policy).map(|(engine, _)| engine)
    }
}

impl Device {
    /// The device's durable bytes in memory of their own, as a reboot maps
    /// them: same contents, other pages.
    pub fn restart(&self) -> Device {
        let image = self.0.crash_image(CrashSpec::DropUnpersisted);
        let cfg = PoolConfig::new(0).record_stats(false);
        Device(Arc::new(PmPool::from_image(image, cfg)))
    }

    /// `ObjPool::open` (log recovery, heap and generation-index rebuild)
    /// then `KvEngine::open`. Returns the engine and the seconds the pool
    /// open alone took.
    pub fn reopen(&self, policy: Policy) -> Res<(Engine, f64)> {
        let t = Instant::now();
        let pool = Arc::new(ObjPool::open(Arc::clone(&self.0)).map_err(err)?);
        let pool_s = t.elapsed().as_secs_f64();
        let engine = KvEngine::open(pool, policy.kind()).map_err(err)?;
        Ok((Engine(Arc::new(engine)), pool_s))
    }
}

// ---------------------------------------------------------------------
// group: GroupCommitter
// ---------------------------------------------------------------------

pub struct Committer(Arc<GroupCommitter>);

impl Committer {
    pub fn start(engine: &Engine) -> Committer {
        Committer(GroupCommitter::start(
            Arc::clone(&engine.0),
            GroupConfig::default(),
        ))
    }

    /// Blocks until the batch is durable.
    pub fn submit(&self, batch: WriteBatch) -> Res<()> {
        all_ok(&self.0.submit(batch.0).map_err(err)?)
    }

    pub fn close(self) {
        self.0.close();
    }
}

// ---------------------------------------------------------------------
// server + client
// ---------------------------------------------------------------------

/// An in-process `Server` on a loopback port with the epoll front end and
/// every other setting at its default.
pub struct Service(Server);

impl Service {
    /// With `backup`, every committed batch is shipped there and client
    /// acks wait for the backup's (`ReplAckMode::Sync`).
    pub fn start(engine: &Engine, backup: Option<SocketAddr>) -> Res<Service> {
        let cfg = ServerConfig {
            io: IoMode::Epoll,
            repl: backup.map(|backup| ReplConfig {
                backup,
                ack_mode: ReplAckMode::Sync,
                drop_batch: None,
            }),
            ..Default::default()
        };
        Server::start(Arc::clone(&engine.0), "127.0.0.1:0", cfg)
            .map(Service)
            .map_err(err)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// `(durability boundaries, writes committed through them)`.
    pub fn group_stats(&self) -> (u64, u64) {
        self.0.group_stats()
    }

    /// `(batches the backup acked, batches that failed to ship)`; zeros
    /// without a backup.
    pub fn repl_stats(&self) -> (u64, u64) {
        self.0
            .repl_stats()
            .map_or((0, 0), |s| (s.shipped, s.failed))
    }

    /// Graceful: drains the front end, the workers and the committer.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// One operation as a client frames it.
#[derive(Debug, Clone, Copy)]
pub enum WireOp<'a> {
    Get { key: &'a [u8] },
    Put { key: &'a [u8], value: &'a [u8] },
}

impl<'a> WireOp<'a> {
    fn request(self) -> Request<'a> {
        match self {
            WireOp::Get { key } => Request::Get { key },
            WireOp::Put { key, value } => Request::Put { key, value },
        }
    }
}

/// What came back for one operation of a batch.
#[derive(Debug, PartialEq, Eq)]
pub enum WireReply {
    /// `OK` to a PUT.
    Done,
    Value(Vec<u8>),
    Missing,
    /// Backpressure: the request was not executed.
    Busy,
    /// `ERR`, or a reply that fits no GET or PUT.
    Refused(String),
}

/// Whether a round trip's error is the server's `BUSY`.
pub fn is_busy(error: &str) -> bool {
    error == ClientError::Busy.to_string()
}

fn wire_reply(r: Reply) -> WireReply {
    match r {
        Reply::Ok => WireReply::Done,
        Reply::Value(v) => WireReply::Value(v),
        Reply::NotFound => WireReply::Missing,
        Reply::Busy => WireReply::Busy,
        other => WireReply::Refused(format!("{other:?}")),
    }
}

/// A blocking client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        Client::connect(addr).map(Conn).map_err(err)
    }

    pub fn ping(&mut self) -> Res<()> {
        self.0.ping().map_err(err)
    }

    pub fn get(&mut self, key: &[u8], out: &mut Vec<u8>) -> Res<bool> {
        self.0.get(key, out).map_err(err)
    }

    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Res<()> {
        self.0.put(key, value).map_err(err)
    }

    /// One `MULTI` frame: the batch's writes share a durability boundary.
    pub fn multi(&mut self, ops: &[WireOp<'_>]) -> Res<Vec<WireReply>> {
        let reqs: Vec<Request<'_>> = ops.iter().map(|op| op.request()).collect();
        let replies = self.0.multi(&reqs).map_err(err)?;
        Ok(replies.into_iter().map(wire_reply).collect())
    }

    /// The frames back to back, then one reply each.
    pub fn pipeline(&mut self, ops: &[WireOp<'_>]) -> Res<Vec<WireReply>> {
        let reqs: Vec<Request<'_>> = ops.iter().map(|op| op.request()).collect();
        let replies = self.0.pipeline(&reqs).map_err(err)?;
        Ok(replies.into_iter().map(wire_reply).collect())
    }
}

// ---------------------------------------------------------------------
// wire + ring: codec and placement, no sockets
// ---------------------------------------------------------------------

/// The reply the server would frame for an op.
#[derive(Debug, Clone, Copy)]
pub enum WireResp<'a> {
    Done,
    Value(&'a [u8]),
}

impl<'a> WireResp<'a> {
    fn response(self) -> Response<'a> {
        match self {
            WireResp::Done => Response::Ok,
            WireResp::Value(v) => Response::Value(v),
        }
    }
}

pub fn encode_request(out: &mut Vec<u8>, op: WireOp<'_>) {
    wire::encode_request(out, &op.request());
}

/// Decode one request frame; returns the bytes it took.
pub fn decode_request(buf: &[u8]) -> Res<usize> {
    match wire::decode_request(buf).map_err(err)? {
        Some((req, used)) => {
            std::hint::black_box(req);
            Ok(used)
        }
        None => Err("incomplete request frame".to_string()),
    }
}

pub fn encode_response(out: &mut Vec<u8>, resp: WireResp<'_>) {
    wire::encode_response(out, &resp.response());
}

/// Decode one response frame; returns the bytes it took.
pub fn decode_response(buf: &[u8]) -> Res<usize> {
    match wire::decode_response(buf).map_err(err)? {
        Some((resp, used)) => {
            std::hint::black_box(resp);
            Ok(used)
        }
        None => Err("incomplete response frame".to_string()),
    }
}

/// A whole `MULTI` exchange through the codec: frame the batch, parse it
/// and walk the nested requests; frame the replies, parse them and walk the
/// nested responses. Returns the bytes framed in both directions.
pub fn multi_codec(
    ops: &[WireOp<'_>],
    resps: &[WireResp<'_>],
    scratch: &mut Vec<u8>,
) -> Res<usize> {
    let reqs: Vec<Request<'_>> = ops.iter().map(|op| op.request()).collect();
    scratch.clear();
    wire::encode_multi_request(scratch, &reqs);
    let mut bytes = scratch.len();
    match wire::decode_request(scratch).map_err(err)? {
        Some((Request::Multi(body), _)) => body.requests().for_each(|r| {
            std::hint::black_box(r);
        }),
        other => return Err(format!("MULTI request decoded as {other:?}")),
    }
    let resps: Vec<Response<'_>> = resps.iter().map(|r| r.response()).collect();
    scratch.clear();
    wire::encode_multi_response(scratch, &resps);
    bytes += scratch.len();
    match wire::decode_response(scratch).map_err(err)? {
        Some((Response::Multi(body), _)) => body.responses().for_each(|r| {
            std::hint::black_box(r);
        }),
        other => return Err(format!("MULTI response decoded as {other:?}")),
    }
    Ok(bytes)
}

/// The ring a single-pool server routes with.
pub struct Placement(Ring);

impl Placement {
    pub fn single_shard() -> Placement {
        Placement(Ring::new(1))
    }

    pub fn shard_of(&self, key: &[u8]) -> u32 {
        self.0.shard_of(key)
    }
}

// ---------------------------------------------------------------------
// kvstore + core: KvStore<P> under a chosen policy
// ---------------------------------------------------------------------

/// Calls a policy received, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    pub directs: u64,
    pub geps: u64,
    pub resolves: u64,
    pub allocs: u64,
    pub frees: u64,
}

/// A counting decorator over a policy. It forwards every method `SppPolicy`
/// and `PmdkPolicy` implement themselves — the nine required ones plus
/// `tx_alloc`/`tx_free` — so each bound and generation check still runs in
/// the inner policy; the trait's provided methods (loads, stores, the tx
/// writes) are built on those and so are counted too.
pub struct Traced<P> {
    inner: P,
    directs: AtomicU64,
    geps: AtomicU64,
    resolves: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl<P> Traced<P> {
    pub fn new(inner: P) -> Traced<P> {
        Traced {
            inner,
            directs: AtomicU64::new(0),
            geps: AtomicU64::new(0),
            resolves: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> PolicyCounts {
        PolicyCounts {
            directs: self.directs.load(Ordering::Relaxed),
            geps: self.geps.load(Ordering::Relaxed),
            resolves: self.resolves.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl<P: MemoryPolicy> MemoryPolicy for Traced<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn oid_kind(&self) -> OidKind {
        self.inner.oid_kind()
    }

    fn pool(&self) -> &Arc<ObjPool> {
        self.inner.pool()
    }

    fn direct(&self, oid: PmemOid) -> u64 {
        bump(&self.directs);
        self.inner.direct(oid)
    }

    fn gep(&self, ptr: u64, delta: i64) -> u64 {
        bump(&self.geps);
        self.inner.gep(ptr, delta)
    }

    fn resolve(&self, ptr: u64, len: u64) -> spp_core::Result<u64> {
        bump(&self.resolves);
        self.inner.resolve(ptr, len)
    }

    fn alloc_oid(&self, dest: Option<OidDest>, size: u64, zero: bool) -> spp_core::Result<PmemOid> {
        bump(&self.allocs);
        self.inner.alloc_oid(dest, size, zero)
    }

    fn free_oid(&self, dest: Option<OidDest>, oid: PmemOid) -> spp_core::Result<()> {
        bump(&self.frees);
        self.inner.free_oid(dest, oid)
    }

    fn realloc_oid(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> spp_core::Result<PmemOid> {
        bump(&self.allocs);
        bump(&self.frees);
        self.inner.realloc_oid(dest, oid, new_size)
    }

    fn tx_alloc(&self, tx: &mut Tx<'_>, size: u64, zero: bool) -> spp_core::Result<PmemOid> {
        bump(&self.allocs);
        self.inner.tx_alloc(tx, size, zero)
    }

    fn tx_free(&self, tx: &mut Tx<'_>, oid: PmemOid) -> spp_core::Result<()> {
        bump(&self.frees);
        self.inner.tx_free(tx, oid)
    }
}

/// How the benchmark builds each policy it runs a bare `KvStore` under.
pub trait BuildPolicy: MemoryPolicy + Sized {
    fn build(pool: Arc<ObjPool>) -> Res<Self>;
}

impl BuildPolicy for SppPolicy {
    fn build(pool: Arc<ObjPool>) -> Res<Self> {
        SppPolicy::new(pool, TagConfig::default()).map_err(err)
    }
}

impl BuildPolicy for PmdkPolicy {
    fn build(pool: Arc<ObjPool>) -> Res<Self> {
        Ok(PmdkPolicy::new(pool))
    }
}

impl<P: BuildPolicy> BuildPolicy for Traced<P> {
    fn build(pool: Arc<ObjPool>) -> Res<Self> {
        P::build(pool).map(Traced::new)
    }
}

pub type SppStore = Store<SppPolicy>;
pub type PmdkStore = Store<PmdkPolicy>;
pub type TracedSppStore = Store<Traced<SppPolicy>>;

/// Device traffic so far, from a pool that records it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmCounts {
    pub reads: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub flushes: u64,
    pub fences: u64,
}

/// Anything a GET or a PUT can be called on directly, so the same loop
/// times a bare store and an engine.
pub trait KvTarget {
    fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Res<bool>;
    fn put(&self, key: &[u8], value: &[u8]) -> Res<()>;
}

impl KvTarget for Engine {
    fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Res<bool> {
        Engine::get(self, key, out)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Res<()> {
        Engine::put(self, key, value)
    }
}

impl<P: MemoryPolicy> KvTarget for Store<P> {
    fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Res<bool> {
        self.0.get(key, out).map_err(err)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Res<()> {
        self.0.put(key, value).map_err(err)
    }
}

/// A bare `KvStore` — no engine, no server — under policy `P`.
pub struct Store<P: MemoryPolicy>(KvStore<P>);

impl<P: BuildPolicy> Store<P> {
    /// A fresh store for `keys` keys over a pool of `pool_bytes`.
    /// `record_stats` turns the device's traffic counters on, which costs
    /// time on every access: count with it, never time with it.
    pub fn create(keys: u32, pool_bytes: u64, record_stats: bool) -> Res<Store<P>> {
        let pm = Arc::new(PmPool::new(
            PoolConfig::new(pool_bytes).record_stats(record_stats),
        ));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(LANES)).map_err(err)?);
        let policy = Arc::new(P::build(pool)?);
        KvStore::create(policy, nbuckets(keys))
            .map(Store)
            .map_err(err)
    }
}

impl<P: MemoryPolicy> Store<P> {
    /// `KvStore::apply_batch`: one transaction for all the PUTs.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Res<()> {
        let ops: Vec<BatchOp<'_>> = items
            .iter()
            .map(|&(key, value)| BatchOp::Put { key, value })
            .collect();
        self.0.apply_batch(&ops).map(drop).map_err(err)
    }

    pub fn policy(&self) -> &P {
        self.0.policy()
    }

    pub fn max_chain(&self) -> Res<u64> {
        Ok(self.0.stats().map_err(err)?.max_chain)
    }

    pub fn pm_counts(&self) -> PmCounts {
        let s = self.0.policy().pool().pm().stats();
        PmCounts {
            reads: s.reads(),
            bytes_read: s.bytes_read(),
            writes: s.writes(),
            bytes_written: s.bytes_written(),
            flushes: s.flushes(),
            fences: s.fences(),
        }
    }

    /// Every durable heap block as a recovery scan classifies it.
    #[cfg(test)]
    fn walk_heap(&self) -> Res<Vec<spp_pmdk::BlockInfo>> {
        self.0.policy().pool().walk_heap().map_err(err)
    }
}

// ---------------------------------------------------------------------
// pm + pmdk + core primitives
// ---------------------------------------------------------------------

/// One small pool on which the primitives beneath the store are timed in
/// isolation: device persist, allocator, redo-logged transactions, and the
/// pointer operations of both policies.
pub struct Primitives {
    pool: Arc<ObjPool>,
    spp: SppPolicy,
    pmdk: PmdkPolicy,
    /// A live 1 KiB object: persist target and pointer-op subject.
    obj: PmemOid,
    /// Objects allocated by the previous [`Primitives::tx_commit`], freed
    /// by the next.
    tx_prev: Vec<PmemOid>,
}

impl Primitives {
    pub fn new() -> Res<Primitives> {
        let pool = fresh_server_pool(64 << 20, LANES, false).map_err(err)?;
        let spp = SppPolicy::build(Arc::clone(&pool))?;
        let pmdk = PmdkPolicy::new(Arc::clone(&pool));
        let obj = spp.zalloc(1024).map_err(err)?;
        Ok(Primitives {
            pool,
            spp,
            pmdk,
            obj,
            tx_prev: Vec::new(),
        })
    }

    /// Store `data` (≤ 1 KiB) on the device, flush it, fence.
    pub fn persist(&self, data: &[u8]) -> Res<()> {
        let pm = self.pool.pm();
        pm.write(self.obj.off, data).map_err(err)?;
        pm.persist(self.obj.off, data.len()).map_err(err)
    }

    /// One atomic allocation and its free.
    pub fn alloc_free(&self, size: u64) -> Res<()> {
        let oid = self.pool.alloc(size).map_err(err)?;
        self.pool.free(oid).map_err(err)
    }

    /// One transaction shaped like a batch of `n` overwriting PUTs: `n`
    /// allocations of `size`, `n` frees of the previous call's objects,
    /// `n` snapshotted 8-byte writes, one commit.
    pub fn tx_commit(&mut self, n: usize, size: u64) -> Res<()> {
        let mut h = self.pool.tx_begin().map_err(err)?;
        let mut fresh = Vec::with_capacity(n);
        for i in 0..n {
            let tx = h.tx();
            fresh.push(tx.alloc(size).map_err(err)?);
            if let Some(old) = self.tx_prev.pop() {
                tx.free(old).map_err(err)?;
            }
            tx.write_u64(self.obj.off + 8 * (i as u64 % 128), i as u64)
                .map_err(err)?;
        }
        h.commit().map_err(err)?;
        self.tx_prev.extend(fresh);
        Ok(())
    }

    /// `pmemobj_direct` under SPP: oid → tagged pointer.
    pub fn spp_direct(&self) -> u64 {
        self.spp.direct(std::hint::black_box(self.obj))
    }

    /// Pointer arithmetic with its tag update.
    pub fn spp_gep(&self, ptr: u64) -> u64 {
        self.spp.gep(std::hint::black_box(ptr), 8)
    }

    /// Bound check + generation check + address translation.
    pub fn spp_resolve(&self, ptr: u64) -> Res<u64> {
        self.spp.resolve(std::hint::black_box(ptr), 8).map_err(err)
    }

    /// The same access under native PMDK: address translation only.
    pub fn pmdk_resolve(&self) -> Res<u64> {
        let ptr = self.pmdk.direct(std::hint::black_box(self.obj));
        self.pmdk.resolve(ptr, 8).map_err(err)
    }
}

/// Nanoseconds threads have spent waiting for the named lock family
/// (`pmdk.lane`, `kvstore.stripe`) since the process started.
pub fn lock_wait_ns(name: &str) -> u64 {
    contention::snapshot()
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.wait_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{key_bytes, Dist, KeyPicker, Kind, Model};
    use spp_core::SppError;

    /// The same seeded ops on a decorated and a bare store must be
    /// indistinguishable from outside: same replies, same heap.
    #[test]
    fn traced_store_is_equivalent_to_the_bare_one() {
        let keys = 500;
        let bare = SppStore::create(keys, 16 << 20, false).unwrap();
        let traced = TracedSppStore::create(keys, 16 << 20, false).unwrap();
        let picker = KeyPicker::new(keys, 0, 1, Dist::Zipf(0.99));
        let mut model = Model::preloaded(keys, 100, 4);
        let mut value = Vec::new();
        for k in 0..keys {
            model.current_value(k, &mut value);
            bare.put(&key_bytes(k), &value).unwrap();
            traced.put(&key_bytes(k), &value).unwrap();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for op in crate::gen::stream(&picker, 50, 5_000, 4, 0, 0) {
            let key = key_bytes(op.key);
            match op.kind {
                Kind::Get => {
                    a.clear();
                    b.clear();
                    assert_eq!(
                        bare.get(&key, &mut a).unwrap(),
                        traced.get(&key, &mut b).unwrap()
                    );
                    assert_eq!(a, b);
                    assert!(model.holds(op.key, &a));
                }
                Kind::Put => {
                    model.next_value(op.key, &mut value);
                    bare.put(&key, &value).unwrap();
                    traced.put(&key, &value).unwrap();
                }
            }
        }
        assert_eq!(bare.walk_heap().unwrap(), traced.walk_heap().unwrap());
        let c = traced.policy().counts();
        assert!(c.resolves > 0 && c.directs > 0 && c.geps > 0);
        assert!(c.allocs > 0 && c.frees > 0);
    }

    /// The decorator must not swallow a check: the spatial and the temporal
    /// probe fail under it exactly as they do under the bare policy.
    #[test]
    fn traced_policy_reports_the_same_violations() {
        fn probe<P: MemoryPolicy>(p: &P) -> (SppError, SppError) {
            let oid = p.zalloc(64).unwrap();
            let ptr = p.direct(oid);
            p.store_u64(p.gep(ptr, 56), 1).unwrap();
            let oob = p.store_u64(p.gep(ptr, 64), 1).unwrap_err();
            p.free(oid).unwrap();
            let stale = p.load_u64(ptr).unwrap_err();
            (oob, stale)
        }
        let bare = SppStore::create(16, 16 << 20, false).unwrap();
        let traced = TracedSppStore::create(16, 16 << 20, false).unwrap();
        let (oob_a, stale_a) = probe(bare.policy());
        let (oob_b, stale_b) = probe(traced.policy());
        assert!(
            matches!(oob_a, SppError::OverflowDetected { .. }),
            "{oob_a}"
        );
        assert!(
            matches!(stale_a, SppError::TemporalViolation { .. }),
            "{stale_a}"
        );
        assert_eq!(oob_a.to_string(), oob_b.to_string());
        assert_eq!(stale_a.to_string(), stale_b.to_string());
        assert!(matches!(oob_b, SppError::OverflowDetected { .. }));
        assert!(matches!(stale_b, SppError::TemporalViolation { .. }));
    }

    #[test]
    fn a_crash_keeps_every_write_the_engine_acked() {
        let keys = 64;
        let engine = Engine::create_tracked(Policy::Spp, keys, 8 << 20).unwrap();
        let mut model = Model::preloaded(keys, 100, 1);
        let mut value = Vec::new();
        for k in 0..keys {
            model.current_value(k, &mut value);
            engine.put(&key_bytes(k), &value).unwrap();
        }
        engine.reset_tracking();
        for k in (0..keys).step_by(3) {
            model.next_value(k, &mut value);
            engine.put(&key_bytes(k), &value).unwrap();
        }
        let engine = engine.crash_and_recover(Policy::Spp).unwrap();
        assert_eq!(engine.count().unwrap(), u64::from(keys));
        for k in 0..keys {
            value.clear();
            assert!(engine.get(&key_bytes(k), &mut value).unwrap());
            assert!(model.holds(k, &value), "key {k}");
        }
    }

    #[test]
    fn reopen_needs_exclusive_ownership() {
        let engine = Engine::create(Policy::Pmdk, 16).unwrap();
        engine.put(&key_bytes(1), b"v").unwrap();
        let service = Service::start(&engine, None).unwrap();
        let also_held = Engine(Arc::clone(&engine.0));
        assert!(also_held.into_device().is_err());
        service.shutdown();
        let device = engine.into_device().unwrap();
        let (reopened, pool_s) = device.reopen(Policy::Pmdk).unwrap();
        assert!(pool_s > 0.0);
        assert_eq!(reopened.count().unwrap(), 1);
    }

    #[test]
    fn a_restarted_device_holds_the_same_bytes_apart_from_the_first() {
        let engine = Engine::create(Policy::Spp, 16).unwrap();
        engine.put(&key_bytes(1), b"before").unwrap();
        let device = engine.into_device().unwrap();
        let copy = device.restart();
        // A write to the original after the copy was taken stays there.
        let (original, _) = device.reopen(Policy::Spp).unwrap();
        original.put(&key_bytes(1), b"after").unwrap();
        let (restarted, _) = copy.reopen(Policy::Spp).unwrap();
        let mut value = Vec::new();
        assert!(restarted.get(&key_bytes(1), &mut value).unwrap());
        assert_eq!(value, b"before");
        assert_eq!(restarted.count().unwrap(), 1);
    }
}
