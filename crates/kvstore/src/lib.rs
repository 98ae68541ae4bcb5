//! # spp-kvstore — a pmemkv-style persistent KV engine
//!
//! The paper's §VI-B KV-store experiment (Fig. 5) runs `pmemkv` with its
//! concurrent persistent `cmap` engine under `pmemkv-bench` (db_bench)
//! workloads. This crate rebuilds that stack:
//!
//! * [`KvStore`] — a concurrent chained hash map over PM: a bucket-array
//!   object, per-stripe reader-writer locks (volatile, like cmap's), nodes
//!   with embedded fixed-size keys and separately-allocated value objects;
//! * [`workload`] — the four db_bench mixes of Fig. 5 (50/50 update-heavy,
//!   95/5 read-heavy, random reads, sequential reads) with the paper's
//!   parameters (16-byte keys, 1024-byte values).
//!
//! Generic over [`spp_core::MemoryPolicy`], so the same engine runs under
//! `PMDK`, `SPP` and `SafePM`. Every PM access goes through a
//! [`spp_core::ObjRef`]: one bound + generation check per node and per
//! value, and one per open for the bucket array.

pub mod workload;

use std::sync::Arc;

use spp_core::{Extent, MemoryPolicy, ObjRef, Result, SppError};
use spp_pm::contention::{self, ProfiledRwLock};
use spp_pmdk::{OidKind, PmdkError, PmemOid, TxHandle, OID_SIZE_PMDK, OID_SIZE_SPP};

/// Fixed key size (db_bench default used in the paper).
pub const KEY_SIZE: usize = 16;

/// Number of lock stripes guarding the bucket array.
pub const LOCK_STRIPES: usize = 1024;

/// The value reference's size: the value's length and location, one
/// field under every oid encoding (an SPP oid; or `vlen` and a stock oid).
const VALUE_REF: u64 = OID_SIZE_SPP;
const _: () = assert!(VALUE_REF == OID_SIZE_PMDK + 8);

/// The largest node under any oid encoding: key, next oid, value reference.
const NODE_MAX: usize = KEY_SIZE + (OID_SIZE_SPP + VALUE_REF) as usize;

/// The meta block's fields: the layout word, the bucket array's oid, then
/// the bucket count (at [`NodeLayout::meta_nbuckets`]).
const META_LAYOUT: u64 = 0;
const META_BUCKETS: u64 = 8;

/// The node layout's version in the layout word. Version 1, the node with
/// `vlen` beside an SPP value oid, wrote no layout word.
const LAYOUT_VERSION: u8 = 2;

/// Where a node's fields sit inside its handle's extent. The durable
/// layout: key bytes, next oid, value reference. The value reference is
/// the value's length and location in one field, so an overwrite rewrites
/// it under one undo snapshot:
///
/// * under SPP it is the value oid alone — its size word *is* the value
///   length — and a node is 64 bytes;
/// * under the stock 16-byte oid it is `vlen` then the oid, and a node is
///   56 bytes.
///
/// Nothing else knows where the length lives.
#[derive(Debug, Clone, Copy)]
struct NodeLayout {
    kind: OidKind,
    key: u64,   // [KEY_SIZE] bytes
    next: u64,  // oid
    value: u64, // value reference
    size: u64,
    os: u64,
}

impl NodeLayout {
    fn new(kind: OidKind) -> Self {
        let os = kind.on_media_size();
        let key = 0u64;
        let next = KEY_SIZE as u64;
        let value = next + os;
        let size = value + VALUE_REF;
        NodeLayout {
            kind,
            key,
            next,
            value,
            size,
            os,
        }
    }

    /// Read the node behind `obj` whole, in one access.
    #[inline]
    fn read<'g, P: MemoryPolicy>(
        &self,
        obj: ObjRef<'g, P>,
        oid: PmemOid,
        link: (ObjRef<'g, P>, u64),
    ) -> Result<Node<'g, P>> {
        let mut buf = [0u8; NODE_MAX];
        let bytes = &mut buf[..self.size as usize];
        obj.read(0, bytes)?;
        let field = |at: u64| &bytes[at as usize..];
        let (vlen, value) = self.decode_value(field(self.value));
        Ok(Node {
            obj,
            oid,
            link,
            key: field(self.key)[..KEY_SIZE].try_into().expect("key bytes"),
            next: PmemOid::decode(field(self.next), self.kind),
            vlen,
            value,
        })
    }

    /// A value reference's `(vlen, value oid)`.
    #[inline]
    fn decode_value(&self, bytes: &[u8]) -> (u64, PmemOid) {
        match self.kind {
            OidKind::Spp => {
                let value = PmemOid::decode(bytes, OidKind::Spp);
                (value.size, value)
            }
            OidKind::Pmdk => (
                u64::from_le_bytes(bytes[..8].try_into().expect("vlen bytes")),
                PmemOid::decode(&bytes[8..], OidKind::Pmdk),
            ),
        }
    }

    /// The value reference to `val`, a value of `vlen` bytes.
    #[inline]
    fn encode_value(&self, vlen: u64, val: PmemOid) -> [u8; VALUE_REF as usize] {
        let mut buf = [0; VALUE_REF as usize];
        match self.kind {
            OidKind::Spp => {
                debug_assert_eq!(val.size, vlen, "an SPP value oid carries its length");
                val.encode_into(&mut buf, OidKind::Spp);
            }
            OidKind::Pmdk => {
                let mut oid = [0; OID_SIZE_SPP as usize];
                buf[..8].copy_from_slice(&vlen.to_le_bytes());
                buf[8..].copy_from_slice(val.encode_into(&mut oid, OidKind::Pmdk));
            }
        }
        buf
    }

    /// The meta block's layout word for this layout, the analogue of the
    /// layout string `pmemobj_open` checks: a tag, [`LAYOUT_VERSION`] and
    /// the oid size the nodes are built for.
    fn word(&self) -> u64 {
        let mut w = *b"kvnode\0\0";
        w[6] = LAYOUT_VERSION;
        w[7] = self.os as u8;
        u64::from_le_bytes(w)
    }

    /// Where the meta block holds the bucket count.
    fn meta_nbuckets(&self) -> u64 {
        META_BUCKETS + self.os
    }

    /// The meta block's size.
    fn meta_size(&self) -> u64 {
        self.meta_nbuckets() + 8
    }

    /// The bucket array's size in bytes, refusing a bucket count no store
    /// can serve.
    fn bucket_bytes(&self, nbuckets: u64) -> Result<u64> {
        match nbuckets.checked_mul(self.os) {
            Some(bytes) if nbuckets > 0 => Ok(bytes),
            _ => Err(unservable(format!(
                "{nbuckets} buckets of {} bytes",
                self.os
            ))),
        }
    }
}

#[cfg(test)]
impl NodeLayout {
    /// Where the value reference keeps `vlen` (stock oids only) and the
    /// value oid: the offsets the corruption probes write.
    fn value_fields(&self) -> (Option<u64>, u64) {
        match self.kind {
            OidKind::Spp => (None, self.value),
            OidKind::Pmdk => (Some(self.value), self.value + 8),
        }
    }
}

/// A layout word, for an error message.
fn layout_name(word: u64) -> String {
    match word.to_le_bytes() {
        [b'k', b'v', b'n', b'o', b'd', b'e', v, os] => format!("kvnode v{v} ({os}-byte oids)"),
        _ => format!("none (word {word:#x})"),
    }
}

/// The error for a meta block this store cannot serve — most often one
/// written under another policy's oid encoding.
fn unservable(why: String) -> SppError {
    SppError::Pmdk(PmdkError::BadPool(format!(
        "kv meta block cannot be served: {why}"
    )))
}

/// One chain node as a walk visits it: its handle, its oid, the oid field
/// that links to it (the bucket slot or the predecessor's `next`, as
/// object and offset), and its fields.
struct Node<'g, P: MemoryPolicy> {
    obj: ObjRef<'g, P>,
    oid: PmemOid,
    link: (ObjRef<'g, P>, u64),
    key: [u8; KEY_SIZE],
    next: PmemOid,
    vlen: u64,
    value: PmemOid,
}

/// Read-only introspection snapshot of a [`KvStore`] (the server's STATS
/// command). Produced by a full bucket walk under the stripe read locks, so
/// concurrent writers are excluded per-stripe but the snapshot as a whole is
/// only approximately consistent — fine for monitoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvStats {
    /// Live entries.
    pub keys: u64,
    /// Approximate resident payload bytes: node objects (key + header) plus
    /// value objects, excluding allocator block headers.
    pub resident_bytes: u64,
    /// Bucket-array length.
    pub nbuckets: u64,
    /// Buckets with at least one entry.
    pub nonempty_buckets: u64,
    /// Longest bucket chain.
    pub max_chain: u64,
    /// Entries guarded by each lock stripe (length [`LOCK_STRIPES`]).
    pub stripe_occupancy: Vec<u64>,
}

/// One mutation in a group-committed batch (see [`KvStore::apply_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert or update `key` with `value`.
    Put {
        /// The key (exactly [`KEY_SIZE`] bytes).
        key: &'a [u8],
        /// The value.
        value: &'a [u8],
    },
    /// Remove `key`.
    Del {
        /// The key (exactly [`KEY_SIZE`] bytes).
        key: &'a [u8],
    },
}

impl BatchOp<'_> {
    /// The key this op touches.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Del { key } => key,
        }
    }
}

/// Per-op result of [`KvStore::apply_batch`], index-aligned with the ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The put was applied.
    Put,
    /// The delete removed an existing key.
    Removed,
    /// The delete found nothing (still part of the committed batch).
    Missed,
}

/// A concurrent persistent hash map (the `cmap` engine analogue).
///
/// Locking discipline for write operations: the transaction lane is
/// acquired *before* the stripe lock (uniformly, for `put` and `remove`),
/// and the stripe lock is held until the transaction commit completes.
/// Lane-then-stripe ordering cannot deadlock — a stripe holder always
/// already owns a lane and lane acquisition rotates, so some lane holder
/// always makes progress — and committing under the stripe lock is what
/// keeps crash recovery sound: no other writer can durably build chain
/// state on top of a still-abortable chain edit.
///
/// Every node handle is built under the guard of its bucket's stripe and
/// borrows it, so no handle outlives the lock that keeps its node from
/// being freed; a value handle borrows its node's handle in turn.
pub struct KvStore<P: MemoryPolicy> {
    policy: Arc<P>,
    meta: PmemOid,
    /// The bucket array's extent, checked once at create/open: the store
    /// never frees or resizes the array while it lives.
    buckets: Extent,
    nbuckets: u64,
    layout: NodeLayout,
    locks: Vec<ProfiledRwLock<()>>,
}

/// The stripe-lock set, reporting to the `kvstore.stripe` contention
/// counter.
fn stripe_locks() -> Vec<ProfiledRwLock<()>> {
    let c = contention::counter("kvstore.stripe");
    (0..LOCK_STRIPES)
        .map(|_| ProfiledRwLock::new(c, ()))
        .collect()
}

impl<P: MemoryPolicy> KvStore<P> {
    /// Create an engine with `nbuckets` hash buckets. The durable metadata
    /// object (`{layout word, buckets oid, nbuckets}`) is returned by
    /// [`KvStore::meta`] for reopening after a restart.
    ///
    /// # Errors
    ///
    /// Allocation errors (the bucket array is `nbuckets * oid_size` bytes);
    /// a bad-pool error for zero buckets or an array size that overflows.
    pub fn create(policy: Arc<P>, nbuckets: u64) -> Result<Self> {
        let layout = NodeLayout::new(policy.oid_kind());
        let bytes = layout.bucket_bytes(nbuckets)?;
        let p = &*policy;
        let size = layout.meta_size();
        let meta = p.zalloc(size)?;
        let m = ObjRef::new(p, meta, size, &meta)?;
        let buckets = p.alloc_oid(Some(m.dest(META_BUCKETS)?), bytes, true)?;
        m.write_u64(META_LAYOUT, layout.word())?;
        m.write_u64(layout.meta_nbuckets(), nbuckets)?;
        m.persist(0, size)?;
        let buckets = ObjRef::new(p, buckets, bytes, &buckets)?.detach();
        Ok(KvStore {
            policy,
            meta,
            buckets,
            nbuckets,
            layout,
            locks: stripe_locks(),
        })
    }

    /// Re-attach to an engine created earlier in this pool (the restart /
    /// post-crash path). The meta block is validated before the store
    /// serves anything: its layout word first, through a handle over that
    /// word alone, because a store of another layout may keep a smaller
    /// meta block; then the bucket array's handle is built here, over
    /// `nbuckets * oid_size` bytes, and is the only check its slots get.
    ///
    /// # Errors
    ///
    /// Device errors; the policy's verdict on the meta block or the bucket
    /// array; a bad-pool error when the layout word is missing or names
    /// another layout (an older store, or one written under the other oid
    /// encoding), or when the meta block names zero buckets, a size that
    /// overflows, or more buckets than its array holds.
    pub fn open(policy: Arc<P>, meta: PmemOid) -> Result<Self> {
        let layout = NodeLayout::new(policy.oid_kind());
        let p = &*policy;
        let found = ObjRef::new(p, meta, 8, &meta)?.read_u64(META_LAYOUT)?;
        if found != layout.word() {
            return Err(unservable(format!(
                "node layout {} found, {} expected",
                layout_name(found),
                layout_name(layout.word())
            )));
        }
        let m = ObjRef::new(p, meta, layout.meta_size(), &meta)?;
        let buckets = m.read_oid(META_BUCKETS)?;
        let nbuckets = m.read_u64(layout.meta_nbuckets())?;
        let bytes = layout.bucket_bytes(nbuckets)?;
        // The allocator's extent, not only the policy's: under PMDK
        // `resolve` knows nothing but the mapping.
        let usable = p.pool().usable_size(buckets)?;
        if usable < bytes {
            return Err(unservable(format!(
                "{nbuckets} buckets need {bytes} bytes, the array holds {usable}"
            )));
        }
        let buckets = ObjRef::new(p, buckets, bytes, &buckets)?.detach();
        Ok(KvStore {
            policy,
            meta,
            buckets,
            nbuckets,
            layout,
            locks: stripe_locks(),
        })
    }

    /// The durable metadata oid (store it in the pool root).
    pub fn meta(&self) -> PmemOid {
        self.meta
    }

    /// The policy this store runs under.
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    #[inline]
    fn hash(key: &[u8]) -> u64 {
        // FNV-1a.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// The lock stripe guarding bucket `b`.
    ///
    /// The stripe must be a pure function of the bucket index: the stripe
    /// lock is the only synchronization for a bucket chain, so two keys
    /// that collide into one bucket must take the same lock. Mix b with a
    /// Fibonacci constant and keep the upper bits so neighbouring buckets
    /// still spread across stripes when LOCK_STRIPES shares factors with
    /// nbuckets.
    #[inline]
    fn stripe_of_bucket(b: u64) -> usize {
        (b.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54) as usize % LOCK_STRIPES
    }

    #[inline]
    fn bucket_of(&self, key: &[u8]) -> (u64, usize) {
        let h = Self::hash(key);
        let b = h % self.nbuckets;
        (b, Self::stripe_of_bucket(b))
    }

    /// The bucket array, lent from the extent checked at create/open.
    #[inline]
    fn bucket_array(&self) -> ObjRef<'_, P> {
        ObjRef::attach(&*self.policy, &self.buckets)
    }

    /// Append `node`'s value to `out`. The length comes from PM, so the
    /// value's handle — one check over all `vlen` bytes — is built *before*
    /// the buffer is sized by it: a stray store over `vlen` surfaces as the
    /// policy's error with `out` untouched, never as an allocation of that
    /// size.
    #[inline]
    fn value_into(&self, node: &Node<'_, P>, out: &mut Vec<u8>) -> Result<()> {
        let val = ObjRef::new(&*self.policy, node.value, node.vlen, &node.obj)?;
        let start = out.len();
        out.resize(start + node.vlen as usize, 0);
        val.read(0, &mut out[start..])
    }

    /// The chain cursor — the only loop that follows `next` links. Visits
    /// bucket `b`'s nodes head to tail, one handle per node (one `direct`,
    /// one `resolve` over the whole node) borrowing `held`, the caller's
    /// guard on `b`'s stripe; hands each [`Node`] to `f` and stops at the
    /// first `Some`.
    #[inline]
    fn walk_chain<'g, G: ?Sized, T>(
        &'g self,
        b: u64,
        held: &'g G,
        mut f: impl FnMut(Node<'g, P>) -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let l = &self.layout;
        let mut link = (self.bucket_array(), b * l.os);
        let mut cur = link.0.read_oid(link.1)?;
        while !cur.is_null() {
            let obj = ObjRef::new(&*self.policy, cur, l.size, held)?;
            let node = l.read(obj, cur, link)?;
            let next = node.next;
            if let Some(hit) = f(node)? {
                return Ok(Some(hit));
            }
            (link, cur) = ((obj, l.next), next);
        }
        Ok(None)
    }

    /// Find `key`'s node in bucket `b`, whose stripe `held` guards.
    #[inline]
    fn find<'g, G: ?Sized>(
        &'g self,
        b: u64,
        key: &[u8],
        held: &'g G,
    ) -> Result<Option<Node<'g, P>>> {
        self.walk_chain(b, held, |node| Ok((node.key[..] == *key).then_some(node)))
    }

    /// Walk bucket `b`'s whole chain under its stripe read lock, so no
    /// writer can free a node out from under the walk.
    fn walk_locked(&self, b: u64, mut f: impl FnMut(&Node<'_, P>) -> Result<()>) -> Result<()> {
        let held = self.locks[Self::stripe_of_bucket(b)].read();
        self.walk_chain(b, &held, |node| f(&node).map(|()| None::<()>))?;
        Ok(())
    }

    /// Insert or update. One transaction, one durability boundary: a new
    /// value and node are flushed, an overwritten value is snapshotted, and
    /// the commit's fence makes them durable before the commit record — the
    /// same flush/fence sequence as [`apply_batch`](Self::apply_batch) of
    /// one put.
    ///
    /// # Errors
    ///
    /// Allocation/transaction errors or detected safety violations.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly [`KEY_SIZE`] bytes.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        assert_eq!(key.len(), KEY_SIZE, "cmap engine uses fixed-size keys");
        // Lane before stripe, uniformly. The stripe lock must cover the
        // commit — released earlier, a second writer could durably commit
        // chain state built on this still-abortable edit, which recovery
        // would then tear off.
        let mut h = self.policy.pool().tx_begin()?;
        let (b, stripe) = self.bucket_of(key);
        let guard = self.locks[stripe].write();
        let staged = self.stage_put(&mut h, b, key, value, &guard);
        Self::finish(h, staged)
    }

    /// Look up `key`, appending the value to `out`. Returns whether found.
    ///
    /// # Errors
    ///
    /// Detected safety violations.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly [`KEY_SIZE`] bytes.
    pub fn get(&self, key: &[u8], out: &mut Vec<u8>) -> Result<bool> {
        assert_eq!(key.len(), KEY_SIZE);
        let (b, stripe) = self.bucket_of(key);
        let held = self.locks[stripe].read();
        let Some(node) = self.find(b, key, &held)? else {
            return Ok(false);
        };
        self.value_into(&node, out)?;
        Ok(true)
    }

    /// Remove `key`. Returns whether it existed. One transaction, the same
    /// sequence as [`apply_batch`](Self::apply_batch) of one delete.
    ///
    /// # Errors
    ///
    /// Transaction errors or detected safety violations.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly [`KEY_SIZE`] bytes.
    pub fn remove(&self, key: &[u8]) -> Result<bool> {
        assert_eq!(key.len(), KEY_SIZE);
        // Lane before stripe, the same order as `put` — mixing orders
        // could deadlock once threads outnumber lanes.
        let mut h = self.policy.pool().tx_begin()?;
        let (b, stripe) = self.bucket_of(key);
        let guard = self.locks[stripe].write();
        let staged = self.stage_remove(&mut h, b, key, &guard);
        Self::finish(h, staged)
    }

    /// Apply a batch of mutations in **one transaction with one durability
    /// boundary** (the group-commit path). Every touched stripe is
    /// write-locked in sorted index order, then each op is staged exactly
    /// as its single-op writer stages it and the batch commits while all
    /// of them are held: one undo log, one flush+fence sweep, one commit
    /// record. Crash semantics are all-or-nothing — recovery either rolls
    /// the whole batch back (crash before the commit record is durable) or
    /// keeps every member.
    ///
    /// Lock ordering matches the single-op writers (lane before stripes)
    /// and the stripes themselves are acquired in ascending index order,
    /// so concurrent batches cannot deadlock each other. Ops apply in
    /// order, so a batch may legally contain multiple ops on one key.
    ///
    /// The shared undo log bounds batch size: an overwrite that no longer
    /// fits it moves its value instead, and a batch that still overflows
    /// fails with `UndoLogFull` and is rolled back (callers fall back to
    /// per-op transactions). On any error nothing is applied.
    ///
    /// # Errors
    ///
    /// Allocation/transaction errors or detected safety violations; the
    /// batch is rolled back in full.
    ///
    /// # Panics
    ///
    /// Panics if any key is not exactly [`KEY_SIZE`] bytes.
    pub fn apply_batch(&self, ops: &[BatchOp<'_>]) -> Result<Vec<BatchOutcome>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        for op in ops {
            assert_eq!(op.key().len(), KEY_SIZE, "cmap engine uses fixed-size keys");
        }
        // Lane before stripes, as everywhere; then every touched stripe,
        // ascending, held until the commit.
        let mut h = self.policy.pool().tx_begin()?;
        let mut stripes: Vec<usize> = ops.iter().map(|op| self.bucket_of(op.key()).1).collect();
        stripes.sort_unstable();
        stripes.dedup();
        let guards: Vec<_> = stripes.iter().map(|&s| self.locks[s].write()).collect();
        let staged = ops
            .iter()
            .map(|op| match op {
                BatchOp::Put { key, value } => {
                    let b = self.bucket_of(key).0;
                    self.stage_put(&mut h, b, key, value, &guards)?;
                    Ok(BatchOutcome::Put)
                }
                BatchOp::Del { key } => {
                    let b = self.bucket_of(key).0;
                    Ok(if self.stage_remove(&mut h, b, key, &guards)? {
                        BatchOutcome::Removed
                    } else {
                        BatchOutcome::Missed
                    })
                }
            })
            .collect();
        Self::finish(h, staged)
    }

    /// Commit `h` if everything staged into it succeeded, roll it back
    /// otherwise. The caller still holds the stripe locks: they must cover
    /// the commit.
    fn finish<T>(h: TxHandle<'_>, staged: Result<T>) -> Result<T> {
        match staged {
            Ok(out) => {
                h.commit()?;
                Ok(out)
            }
            Err(e) => {
                h.rollback()?;
                Err(e)
            }
        }
    }

    /// Allocate and fill one put's value object inside `h`'s transaction.
    /// The object is private until linked, and the transaction — which
    /// frees it on abort — is what its handle borrows.
    fn prep_value(&self, h: &mut TxHandle<'_>, value: &[u8]) -> Result<PmemOid> {
        let p = &*self.policy;
        let len = value.len() as u64;
        let val = p.tx_alloc(h.tx(), len, false)?;
        let obj = ObjRef::new(p, val, len, &*h)?;
        obj.write(0, value)?;
        // Flush only — the commit's single fence (issued before the commit
        // record) makes every staged value durable.
        obj.flush(0, len)?;
        Ok(val)
    }

    /// Stage one put into `h`'s transaction. `held` is the caller's write
    /// guard on bucket `b`'s stripe. One walk finds `key`'s node. A value
    /// of the node's length whose snapshot fits the undo log is written
    /// over the old bytes where they lie: one snapshot, no allocator call.
    /// Any other value moves: a new value object, then either a new node
    /// at the bucket head or the old value freed and the node's value
    /// reference rewritten.
    fn stage_put<G: ?Sized>(
        &self,
        h: &mut TxHandle<'_>,
        b: u64,
        key: &[u8],
        value: &[u8],
        held: &G,
    ) -> Result<()> {
        let p = &*self.policy;
        let l = &self.layout;
        let vlen = value.len() as u64;
        let found = self.find(b, key, held)?;
        if let Some(node) = &found {
            if node.vlen == vlen && h.tx().snapshot_fits(vlen) {
                let val = ObjRef::new(p, node.value, vlen, &node.obj)?;
                return val.tx_write(h.tx(), 0, value);
            }
        }
        let val = self.prep_value(h, value)?;
        let value = l.encode_value(vlen, val);
        if let Some(node) = found {
            // One snapshot: the value reference is one field.
            p.tx_free(h.tx(), node.value)?;
            return node.obj.tx_write(h.tx(), l.value, &value);
        }
        let (buckets, slot) = (self.bucket_array(), b * l.os);
        let head = buckets.read_oid(slot)?;
        let oid = p.tx_alloc(h.tx(), l.size, false)?;
        let node = ObjRef::new(p, oid, l.size, held)?;
        node.write(l.key, key)?;
        node.write_oid(l.next, head)?;
        node.write(l.value, &value)?;
        // Flush only: the node must be durable before the commit record,
        // and the commit's fence orders exactly that.
        node.flush(0, l.size)?;
        buckets.tx_write_oid(h.tx(), slot, oid)
    }

    /// Stage one delete's chain unlink in bucket `b` into `h`'s
    /// transaction. `held` is the caller's write guard on `b`'s stripe.
    /// Returns whether the key existed.
    fn stage_remove<G: ?Sized>(
        &self,
        h: &mut TxHandle<'_>,
        b: u64,
        key: &[u8],
        held: &G,
    ) -> Result<bool> {
        let p = &*self.policy;
        let Some(node) = self.find(b, key, held)? else {
            return Ok(false);
        };
        p.tx_free(h.tx(), node.value)?;
        p.tx_free(h.tx(), node.oid)?;
        let (link, at) = node.link;
        link.tx_write_oid(h.tx(), at, node.next)?;
        Ok(true)
    }

    /// Visit every entry, passing each key and value to `f`. Buckets are
    /// walked in index order; each chain is snapshotted (keys and values
    /// copied out) under its stripe read lock and the lock is *released
    /// before* `f` runs — so each chain is seen atomically w.r.t. writers,
    /// the scan as a whole is not a point-in-time snapshot, and the
    /// callback may freely call back into the store (e.g. `put`/`remove`)
    /// without deadlocking on a stripe it is being called under. Returns
    /// the number of entries visited.
    ///
    /// # Errors
    ///
    /// Device errors, or the first error returned by `f` (which stops the
    /// scan).
    pub fn for_each(&self, mut f: impl FnMut(&[u8; KEY_SIZE], &[u8]) -> Result<()>) -> Result<u64> {
        let mut n = 0;
        let mut entries: Vec<([u8; KEY_SIZE], Vec<u8>)> = Vec::new();
        for b in 0..self.nbuckets {
            entries.clear();
            // Snapshot the chain under the lock...
            self.walk_locked(b, |node| {
                let mut vbuf = Vec::new();
                self.value_into(node, &mut vbuf)?;
                entries.push((node.key, vbuf));
                Ok(())
            })?;
            // ...then yield to the callback with no lock held.
            for (kbuf, vbuf) in &entries {
                f(kbuf, vbuf)?;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Take a [`KvStats`] snapshot (key count, approximate resident bytes,
    /// chain shape, per-stripe occupancy). Same locking discipline as
    /// [`KvStore::for_each`]; values are not read, only their lengths.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn stats(&self) -> Result<KvStats> {
        let size = self.layout.size;
        let mut stats = KvStats {
            keys: 0,
            resident_bytes: 0,
            nbuckets: self.nbuckets,
            nonempty_buckets: 0,
            max_chain: 0,
            stripe_occupancy: vec![0; LOCK_STRIPES],
        };
        for b in 0..self.nbuckets {
            let mut chain = 0u64;
            self.walk_locked(b, |node| {
                stats.resident_bytes += size + node.vlen;
                chain += 1;
                Ok(())
            })?;
            if chain > 0 {
                stats.keys += chain;
                stats.nonempty_buckets += 1;
                stats.stripe_occupancy[Self::stripe_of_bucket(b)] += chain;
                stats.max_chain = stats.max_chain.max(chain);
            }
        }
        Ok(stats)
    }

    /// Count all entries (full scan, each chain under its stripe read lock
    /// like [`KvStore::stats`]).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn count(&self) -> Result<u64> {
        let mut n = 0;
        for b in 0..self.nbuckets {
            self.walk_locked(b, |_| {
                n += 1;
                Ok(())
            })?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::{PmdkPolicy, SppError, SppPolicy, TagConfig};
    use spp_pm::{Mode, PmEvent, PmPool, PoolConfig};
    use spp_pmdk::{ObjPool, PoolOpts};
    use spp_safepm::SafePmPolicy;

    fn spp_store(pool_size: u64, buckets: u64) -> KvStore<SppPolicy> {
        spp_store_with(TagConfig::default(), pool_size, buckets)
    }

    fn spp_store_with(cfg: TagConfig, pool_size: u64, buckets: u64) -> KvStore<SppPolicy> {
        let pm = Arc::new(PmPool::new(PoolConfig::new(pool_size)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(4)).unwrap());
        let policy = Arc::new(SppPolicy::new(pool, cfg).unwrap());
        KvStore::create(policy, buckets).unwrap()
    }

    fn small_pool() -> Arc<ObjPool> {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
        Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap())
    }

    fn key(i: u64) -> [u8; KEY_SIZE] {
        let mut k = [0u8; KEY_SIZE];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let kv = spp_store(1 << 22, 256);
        let mut out = Vec::new();
        assert!(!kv.get(&key(1), &mut out).unwrap());
        kv.put(&key(1), b"hello world").unwrap();
        assert!(kv.get(&key(1), &mut out).unwrap());
        assert_eq!(&out, b"hello world");
        out.clear();
        kv.put(&key(1), b"updated").unwrap();
        assert!(kv.get(&key(1), &mut out).unwrap());
        assert_eq!(&out, b"updated");
        assert_eq!(kv.count().unwrap(), 1);
        assert!(kv.remove(&key(1)).unwrap());
        assert!(!kv.remove(&key(1)).unwrap());
        assert_eq!(kv.count().unwrap(), 0);
    }

    #[test]
    fn chains_with_many_collisions() {
        let kv = spp_store(1 << 23, 2); // force long chains
        for i in 0..200u64 {
            kv.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        assert_eq!(kv.count().unwrap(), 200);
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.clear();
            assert!(kv.get(&key(i), &mut out).unwrap(), "missing key {i}");
            assert_eq!(out, format!("value-{i}").into_bytes());
        }
        for i in (0..200u64).step_by(2) {
            assert!(kv.remove(&key(i)).unwrap());
        }
        assert_eq!(kv.count().unwrap(), 100);
        for i in (1..200u64).step_by(2) {
            out.clear();
            assert!(kv.get(&key(i), &mut out).unwrap());
        }
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let kv = Arc::new(spp_store(1 << 24, 1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = key(t * 1000 + i);
                        kv.put(&k, &[t as u8; 64]).unwrap();
                    }
                });
            }
        });
        assert_eq!(kv.count().unwrap(), 400);
        let mut out = Vec::new();
        for t in 0..4u64 {
            out.clear();
            assert!(kv.get(&key(t * 1000), &mut out).unwrap());
            assert_eq!(out, vec![t as u8; 64]);
        }
    }

    #[test]
    fn same_bucket_keys_share_a_stripe() {
        // The stripe lock is the only synchronization for a bucket chain, so
        // stripe must be a pure function of the bucket index.
        let kv = spp_store(1 << 22, 7); // odd nbuckets: many distinct hashes per bucket
        let mut stripe_for_bucket = std::collections::HashMap::new();
        for i in 0..10_000u64 {
            let (b, s) = kv.bucket_of(&key(i));
            let prev = *stripe_for_bucket.entry(b).or_insert(s);
            assert_eq!(prev, s, "bucket {b} mapped to stripes {prev} and {s}");
        }
    }

    #[test]
    fn concurrent_same_bucket_writers_lose_no_inserts() {
        // With only 2 buckets every thread collides; under broken striping
        // concurrent chain-head prepends race and drop inserts.
        let kv = Arc::new(spp_store(1 << 24, 2));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    for i in 0..100u64 {
                        kv.put(&key(t * 1000 + i), &[t as u8; 32]).unwrap();
                    }
                });
            }
        });
        assert_eq!(kv.count().unwrap(), 400);
        let mut out = Vec::new();
        for t in 0..4u64 {
            for i in 0..100u64 {
                out.clear();
                assert!(
                    kv.get(&key(t * 1000 + i), &mut out).unwrap(),
                    "lost key {t}/{i}"
                );
                assert_eq!(out, vec![t as u8; 32]);
            }
        }
    }

    #[test]
    fn large_values_roundtrip() {
        let kv = spp_store(1 << 24, 64);
        let v = vec![0xABu8; 1024];
        for i in 0..50u64 {
            kv.put(&key(i), &v).unwrap();
        }
        let mut out = Vec::new();
        assert!(kv.get(&key(25), &mut out).unwrap());
        assert_eq!(out.len(), 1024);
        assert!(out.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn for_each_visits_every_entry_once() {
        let kv = spp_store(1 << 23, 8); // few buckets: multi-entry chains
        let mut want = std::collections::BTreeMap::new();
        for i in 0..64u64 {
            let v = format!("scan-value-{i}").into_bytes();
            kv.put(&key(i), &v).unwrap();
            want.insert(key(i).to_vec(), v);
        }
        let mut got = std::collections::BTreeMap::new();
        let visited = kv
            .for_each(|k, v| {
                assert!(
                    got.insert(k.to_vec(), v.to_vec()).is_none(),
                    "key visited twice"
                );
                Ok(())
            })
            .unwrap();
        assert_eq!(visited, 64);
        assert_eq!(got, want);
    }

    #[test]
    fn for_each_stops_on_callback_error() {
        let kv = spp_store(1 << 22, 4);
        for i in 0..10u64 {
            kv.put(&key(i), b"x").unwrap();
        }
        let mut seen = 0;
        let r = kv.for_each(|_, _| {
            seen += 1;
            if seen == 3 {
                Err(spp_core::SppError::Fault { va: 0 })
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
        assert_eq!(seen, 3);
    }

    #[test]
    fn put_inside_for_each_callback_does_not_deadlock() {
        // Regression: for_each used to hold the stripe read lock across the
        // callback, so a put() to the same stripe from inside the callback
        // self-deadlocked (std RwLock is not reentrant). The snapshot-then-
        // yield scan must allow it.
        let kv = spp_store(1 << 23, 4);
        for i in 0..16u64 {
            kv.put(&key(i), b"seed").unwrap();
        }
        let mut inserted = 0u64;
        let visited = kv
            .for_each(|k, v| {
                // Update the very key being visited: same bucket, same
                // stripe as the chain just snapshotted. (Keys inserted
                // below may themselves get visited; leave those alone so
                // their value stays checkable.)
                if v == b"seed" {
                    kv.put(k, b"updated-from-callback").unwrap();
                }
                // And insert a bounded number of fresh keys while scanning.
                if inserted < 8 {
                    kv.put(&key(1000 + inserted), b"new-from-callback").unwrap();
                    inserted += 1;
                }
                Ok(())
            })
            .unwrap();
        assert!(visited >= 16, "must at least visit the seeds: {visited}");
        assert_eq!(inserted, 8);
        assert_eq!(kv.count().unwrap(), 16 + 8);
        let mut out = Vec::new();
        assert!(kv.get(&key(0), &mut out).unwrap());
        assert_eq!(&out, b"updated-from-callback");
        out.clear();
        assert!(kv.get(&key(1000), &mut out).unwrap());
        assert_eq!(&out, b"new-from-callback");
    }

    #[test]
    fn mixed_put_remove_storm_with_more_threads_than_lanes() {
        // Lane-before-stripe ordering must hold for every write op: with 4
        // lanes and 8 writer threads hammering 2 buckets, an ordering
        // inversion between put and remove would deadlock here.
        let kv = Arc::new(spp_store(1 << 24, 2));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    for i in 0..60u64 {
                        let k = key(t * 1000 + (i % 20));
                        if i % 3 == 2 {
                            kv.remove(&k).unwrap();
                        } else {
                            kv.put(&k, &[t as u8; 48]).unwrap();
                        }
                    }
                });
            }
        });
        // Every surviving key must read back intact.
        let mut out = Vec::new();
        let n = kv
            .for_each(|_, v| {
                assert_eq!(v.len(), 48);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, kv.count().unwrap());
        for t in 0..8u64 {
            out.clear();
            // i = 0 (mod 20) was last written by i=40 (put), never removed
            // after: the final op on that key in program order is a put...
            // unless a remove at i∈{2,..} hit it. Just assert lookups don't
            // error and values, when present, are the right shape.
            if kv.get(&key(t * 1000), &mut out).unwrap() {
                assert_eq!(out, vec![t as u8; 48]);
            }
        }
    }

    /// Preload 16 keys of 100 B on a 1 MiB pool, overwrite each with the
    /// same length 3 × 127 times — past the 126 lives a block gets — and
    /// check nothing aged: no block parked at `GEN_MAX`, and live bytes and
    /// the heap's high-water mark are what the preload left.
    fn check_overwrites_do_not_age<P: MemoryPolicy>(policy: P) {
        let kv = KvStore::create(Arc::new(policy), 16).unwrap();
        let pool = Arc::clone(kv.policy().pool());
        for i in 0..16 {
            kv.put(&key(i), &[0; 100]).unwrap();
        }
        let preload = pool.stats();
        for round in 1..=3 * 127u64 {
            for i in 0..16 {
                kv.put(&key(i), &[round as u8; 100]).unwrap();
            }
        }
        let parked = pool
            .walk_heap()
            .unwrap()
            .iter()
            .filter(|b| b.gen == spp_pmdk::GEN_MAX)
            .count();
        let name = kv.policy().name();
        assert_eq!(parked, 0, "{name}: blocks parked at GEN_MAX");
        let after = pool.stats();
        assert_eq!(after.live_bytes, preload.live_bytes, "{name}: live bytes");
        assert_eq!(after.high_water, preload.high_water, "{name}: high water");
        let mut out = Vec::new();
        assert!(kv.get(&key(15), &mut out).unwrap());
        assert_eq!(out, [(3 * 127) as u8; 100]);
    }

    #[test]
    fn same_length_overwrites_do_not_age_the_store() {
        let pool = || {
            let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
            Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap())
        };
        check_overwrites_do_not_age(SppPolicy::new(pool(), TagConfig::default()).unwrap());
        check_overwrites_do_not_age(PmdkPolicy::new(pool()));
        check_overwrites_do_not_age(SafePmPolicy::create(pool()).unwrap());
    }

    #[test]
    fn apply_batch_roundtrip_and_outcomes() {
        let kv = spp_store(1 << 23, 16);
        kv.put(&key(100), b"preexisting").unwrap();
        let k0 = key(0);
        let k1 = key(1);
        let k100 = key(100);
        let k999 = key(999);
        let out = kv
            .apply_batch(&[
                BatchOp::Put {
                    key: &k0,
                    value: b"batch-v0",
                },
                BatchOp::Put {
                    key: &k1,
                    value: b"batch-v1",
                },
                BatchOp::Del { key: &k100 },
                BatchOp::Del { key: &k999 },
            ])
            .unwrap();
        assert_eq!(
            out,
            vec![
                BatchOutcome::Put,
                BatchOutcome::Put,
                BatchOutcome::Removed,
                BatchOutcome::Missed,
            ]
        );
        let mut v = Vec::new();
        assert!(kv.get(&k0, &mut v).unwrap());
        assert_eq!(&v, b"batch-v0");
        v.clear();
        assert!(kv.get(&k1, &mut v).unwrap());
        assert_eq!(&v, b"batch-v1");
        assert!(!kv.get(&k100, &mut v).unwrap());
        assert_eq!(kv.count().unwrap(), 2);
    }

    #[test]
    fn apply_batch_ops_apply_in_order_on_one_key() {
        let kv = spp_store(1 << 23, 4);
        let k = key(7);
        let out = kv
            .apply_batch(&[
                BatchOp::Put {
                    key: &k,
                    value: b"first",
                },
                BatchOp::Put {
                    key: &k,
                    value: b"second",
                },
                BatchOp::Del { key: &k },
                BatchOp::Put {
                    key: &k,
                    value: b"final",
                },
            ])
            .unwrap();
        assert_eq!(
            out,
            vec![
                BatchOutcome::Put,
                BatchOutcome::Put,
                BatchOutcome::Removed,
                BatchOutcome::Put,
            ]
        );
        let mut v = Vec::new();
        assert!(kv.get(&k, &mut v).unwrap());
        assert_eq!(&v, b"final");
        assert_eq!(kv.count().unwrap(), 1);
    }

    #[test]
    fn apply_batch_uses_one_durability_boundary() {
        // The whole point of group commit: N puts batched must spend far
        // fewer fences than N puts committed individually. Run under the
        // native policy — SPP's per-alloc tag publication adds its own
        // fences that would mask the commit-boundary arithmetic.
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 24)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(4)).unwrap());
        let kv = KvStore::create(Arc::new(PmdkPolicy::new(pool)), 64).unwrap();
        let keys: Vec<[u8; KEY_SIZE]> = (0..16).map(key).collect();

        let pm = kv.policy().pool().pm();
        let fences_before = pm.stats().fences();
        for k in &keys[..8] {
            kv.put(k, &[1u8; 64]).unwrap();
        }
        let single = pm.stats().fences() - fences_before;

        let ops: Vec<BatchOp<'_>> = keys[8..]
            .iter()
            .map(|k| BatchOp::Put {
                key: k,
                value: &[2u8; 64],
            })
            .collect();
        let fences_before = pm.stats().fences();
        kv.apply_batch(&ops).unwrap();
        let batched = pm.stats().fences() - fences_before;
        // Eight per-op transactions pay eight commit fences; the batch
        // pays ONE. Allocator-metadata publication (which has its own
        // atomic-durability discipline) still fences per alloc in both
        // columns, so the batch saves the seven extra commit fences rather
        // than collapsing to literally 1.
        assert!(
            batched + 7 <= single,
            "batched commit spent {batched} fences vs {single} for per-op"
        );
    }

    /// The flush ranges (in order) and the fence count `op` costs on a
    /// fresh tracked store that already holds `key(1)`. One lane, so two
    /// calls see identical pools and lane choice.
    fn device_trace(op: impl FnOnce(&KvStore<SppPolicy>)) -> (Vec<(u64, u64)>, usize) {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22).mode(Mode::Tracked)));
        let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::new().lanes(1)).unwrap());
        let policy = Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap());
        let kv = KvStore::create(policy, 16).unwrap();
        kv.put(&key(1), b"resident").unwrap();
        pm.reset_tracking();
        op(&kv);
        let log = pm.event_log().unwrap();
        let flushes = log
            .events()
            .iter()
            .filter_map(|e| match e {
                PmEvent::Flush { off, len, .. } => Some((*off, *len)),
                _ => None,
            })
            .collect();
        let fences = log
            .events()
            .iter()
            .filter(|e| matches!(e, PmEvent::Fence { .. }))
            .count();
        (flushes, fences)
    }

    #[test]
    fn a_put_is_a_batch_of_one() {
        // The single-op writers and the batch path are one staging path:
        // the device sees the same flushes and the same number of fences
        // whether an op arrives alone or as a batch of one.
        let (fresh, resident) = (key(2), key(1));
        for k in [&fresh, &resident] {
            let single = device_trace(|kv| kv.put(k, b"value").unwrap());
            let batched = device_trace(|kv| {
                let op = BatchOp::Put {
                    key: k,
                    value: b"value",
                };
                kv.apply_batch(&[op]).unwrap();
            });
            assert!(!single.0.is_empty() && single.1 > 0);
            assert_eq!(single, batched, "put vs [Put] on {k:?}");
        }
        for k in [&fresh, &resident] {
            let single = device_trace(|kv| {
                kv.remove(k).unwrap();
            });
            let batched = device_trace(|kv| {
                kv.apply_batch(&[BatchOp::Del { key: k }]).unwrap();
            });
            assert_eq!(single, batched, "remove vs [Del] on {k:?}");
        }
    }

    /// Wall-clock time `op` takes on a fresh device-wait store that already
    /// holds `key(1)`; setup runs with the device wait switched off.
    fn device_time(op: impl FnOnce(&KvStore<SppPolicy>)) -> std::time::Duration {
        let wait = spp_pm::LatencyModel::device_wait(1_000_000);
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22).latency(wait)));
        pm.set_latency_enabled(false);
        let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::new().lanes(1)).unwrap());
        let policy = Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap());
        let kv = KvStore::create(policy, 16).unwrap();
        kv.put(&key(1), b"resident").unwrap();
        pm.set_latency_enabled(true);
        let t0 = std::time::Instant::now();
        op(&kv);
        t0.elapsed()
    }

    #[test]
    fn a_put_and_a_batch_of_one_cost_the_same() {
        // Same flushes and fences (above), so the same device price: the
        // model charges the traffic, not the entry point.
        let k = key(2);
        let single = device_time(|kv| kv.put(&k, b"value").unwrap());
        let batched = device_time(|kv| {
            kv.apply_batch(&[BatchOp::Put {
                key: &k,
                value: b"value",
            }])
            .unwrap();
        });
        assert!(
            single < 2 * batched && batched < 2 * single,
            "put {single:?} vs [Put] {batched:?}"
        );
    }

    #[test]
    fn apply_batch_concurrent_with_single_op_writers() {
        // Batches (sorted multi-stripe write locks) interleaved with plain
        // puts/removes must neither deadlock nor lose writes.
        let kv = Arc::new(spp_store(1 << 24, 4)); // few buckets: stripe overlap guaranteed
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    let value = [t as u8; 32];
                    for i in 0..30u64 {
                        let keys: Vec<[u8; KEY_SIZE]> =
                            (0..8).map(|j| key(t * 10_000 + i * 8 + j)).collect();
                        let ops: Vec<BatchOp<'_>> = keys
                            .iter()
                            .map(|k| BatchOp::Put {
                                key: k,
                                value: &value,
                            })
                            .collect();
                        kv.apply_batch(&ops).unwrap();
                    }
                });
            }
            for t in 2..4u64 {
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    for i in 0..120u64 {
                        kv.put(&key(t * 10_000 + i), &[t as u8; 32]).unwrap();
                    }
                });
            }
        });
        assert_eq!(kv.count().unwrap(), 2 * 30 * 8 + 2 * 120);
        let mut v = Vec::new();
        for t in 0..2u64 {
            v.clear();
            assert!(kv.get(&key(t * 10_000), &mut v).unwrap());
            assert_eq!(v, vec![t as u8; 32]);
        }
    }

    #[test]
    fn oversized_batch_fails_atomically() {
        // Staged chain edits overflow the (deliberately small) per-lane
        // undo log: the batch must fail cleanly, leaving the store
        // untouched.
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 24)));
        let pool =
            Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(4).undo_capacity(2048)).unwrap());
        let policy = Arc::new(SppPolicy::new(pool, TagConfig::default()).unwrap());
        let kv = KvStore::create(policy, 64).unwrap();
        kv.put(&key(5), b"survivor").unwrap();
        let keys: Vec<[u8; KEY_SIZE]> = (1000..1400).map(key).collect();
        let ops: Vec<BatchOp<'_>> = keys
            .iter()
            .map(|k| BatchOp::Put {
                key: k,
                value: b"doomed",
            })
            .collect();
        let err = kv.apply_batch(&ops).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.to_lowercase().contains("undo") || msg.to_lowercase().contains("log"),
            "unexpected error: {msg}"
        );
        // Nothing from the failed batch is visible, the old key survives.
        assert_eq!(kv.count().unwrap(), 1);
        let mut v = Vec::new();
        assert!(kv.get(&key(5), &mut v).unwrap());
        assert_eq!(&v, b"survivor");
    }

    #[test]
    fn stats_track_keys_bytes_and_stripes() {
        let kv = spp_store(1 << 23, 16);
        let empty = kv.stats().unwrap();
        assert_eq!(empty.keys, 0);
        assert_eq!(empty.resident_bytes, 0);
        assert_eq!(empty.nonempty_buckets, 0);
        assert_eq!(empty.max_chain, 0);
        assert_eq!(empty.stripe_occupancy.len(), LOCK_STRIPES);

        for i in 0..40u64 {
            kv.put(&key(i), &[7u8; 100]).unwrap();
        }
        let s = kv.stats().unwrap();
        assert_eq!(s.keys, 40);
        assert_eq!(s.nbuckets, 16);
        // Each entry costs its node layout plus the 100-byte value.
        assert_eq!(s.resident_bytes, 40 * (kv.layout.size + 100));
        assert!(s.nonempty_buckets > 0 && s.nonempty_buckets <= 16);
        assert!(s.max_chain >= 40 / 16);
        assert_eq!(s.stripe_occupancy.iter().sum::<u64>(), 40);

        // Updating in place must not change the key count, and deletion
        // must drain everything.
        kv.put(&key(0), &[9u8; 200]).unwrap();
        assert_eq!(kv.stats().unwrap().keys, 40);
        for i in 0..40u64 {
            assert!(kv.remove(&key(i)).unwrap());
        }
        let drained = kv.stats().unwrap();
        assert_eq!(drained.keys, 0);
        assert_eq!(drained.resident_bytes, 0);
    }

    #[test]
    fn count_waits_for_a_stripe_writer() {
        // Regression: `count` used to walk chains with no stripe lock, so
        // it could follow a node a concurrent remove had just freed. Hold
        // one stripe as a writer would: the scan must block on it.
        let kv = Arc::new(spp_store(1 << 22, 4));
        kv.put(&key(1), b"v").unwrap();
        let writer = kv.locks[KvStore::<SppPolicy>::stripe_of_bucket(0)].write();
        let (tx, rx) = std::sync::mpsc::channel();
        let scan = std::thread::spawn({
            let kv = Arc::clone(&kv);
            move || {
                let n = kv.count().unwrap();
                tx.send(()).unwrap();
                n
            }
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(100))
                .is_err(),
            "count walked a chain whose stripe a writer holds"
        );
        drop(writer);
        assert_eq!(scan.join().unwrap(), 1);
    }

    #[test]
    fn works_under_native_policy_too() {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        let kv = KvStore::create(Arc::new(PmdkPolicy::new(pool)), 64).unwrap();
        kv.put(&key(9), b"native").unwrap();
        let mut out = Vec::new();
        assert!(kv.get(&key(9), &mut out).unwrap());
        assert_eq!(&out, b"native");
    }

    /// Store `word` over the 8 bytes at `at` in `key(1)`'s node, then read
    /// the value back through `get` and `for_each`. A failed `get` must
    /// leave `out` alone.
    fn read_with_word<P: MemoryPolicy>(
        kv: &KvStore<P>,
        at: u64,
        word: u64,
    ) -> (Result<Vec<u8>>, Result<u64>) {
        let (b, stripe) = kv.bucket_of(&key(1));
        {
            let held = kv.locks[stripe].write();
            let node = kv.find(b, &key(1), &held).unwrap().unwrap();
            node.obj.write_u64(at, word).unwrap();
        }
        let mut out = b"kept".to_vec();
        let get = match kv.get(&key(1), &mut out) {
            Ok(found) => {
                assert!(found);
                Ok(out.split_off(4))
            }
            Err(e) => {
                assert_eq!(out, b"kept", "a failed get must leave `out` alone");
                Err(e)
            }
        };
        (get, kv.for_each(|_, _| Ok(())))
    }

    #[test]
    fn corrupt_value_length_is_an_error_not_an_allocation() {
        // A stray 8-byte store over the word that holds a node's value
        // length — the bug class the paper is about — then every reader
        // of that value. Under the stock oid that word is `vlen`.
        let value = [7u8; 100];
        let vlen_at = NodeLayout::new(OidKind::Pmdk)
            .value_fields()
            .0
            .expect("a vlen field");
        // The native baseline only notices the mapping's edge — but it is
        // an error there too, not an abort in the allocator.
        let kv = KvStore::create(Arc::new(PmdkPolicy::new(small_pool())), 64).unwrap();
        kv.put(&key(1), &value).unwrap();
        let (get, scan) = read_with_word(&kv, vlen_at, u64::MAX);
        for e in [get.unwrap_err(), scan.unwrap_err()] {
            assert!(matches!(e, SppError::Fault { .. }), "{e:?}");
        }
        // SafePM's shadow catches the first byte past the value; a length
        // past the mapping is a fault, as under the native baseline.
        let kv =
            KvStore::create(Arc::new(SafePmPolicy::create(small_pool()).unwrap()), 64).unwrap();
        kv.put(&key(1), &value).unwrap();
        let (get, scan) = read_with_word(&kv, vlen_at, value.len() as u64 + 1);
        for e in [get.unwrap_err(), scan.unwrap_err()] {
            assert!(
                matches!(
                    e,
                    SppError::OverflowDetected {
                        mechanism: "shadow",
                        ..
                    }
                ),
                "{e:?}"
            );
        }
        let (get, scan) = read_with_word(&kv, vlen_at, u64::MAX);
        for e in [get.unwrap_err(), scan.unwrap_err()] {
            assert!(matches!(e, SppError::Fault { .. }), "{e:?}");
        }

        // Under SPP the length is recorded once, in the value oid's size
        // word, which is also the bound of every pointer into the value.
        // (A size past the 64 MiB cap faults: see
        // `corrupt_value_oid_is_an_error_not_a_pointer`.)
        let size_word = |kv: &KvStore<SppPolicy>, size: u64, gen: u8| {
            let size_at = kv.layout.value_fields().1 + 16;
            let word = PmemOid::NULL.with_gen(gen);
            read_with_word(kv, size_at, PmemOid { size, ..word }.size_word())
        };
        let kv = spp_store(1 << 22, 256);
        kv.put(&key(1), &value).unwrap();
        let gen = {
            let (b, stripe) = kv.bucket_of(&key(1));
            let held = kv.locks[stripe].read();
            kv.find(b, &key(1), &held).unwrap().unwrap().value.gen
        };
        assert_ne!(gen, 0, "SPP+T tracks the value");
        // Generation kept, the bound moved out of its 16-byte generation
        // slot: no live generation sits at the new bound.
        for size in [112, 4000] {
            let (get, scan) = size_word(&kv, size, gen);
            for e in [get.unwrap_err(), scan.unwrap_err()] {
                assert!(
                    matches!(
                        e,
                        SppError::TemporalViolation {
                            mechanism: "generation-tag",
                            ..
                        }
                    ),
                    "size {size}: {e:?}"
                );
            }
        }
        // Generation kept, the bound grown inside its slot: at most 15
        // bytes of the block's own slack are read.
        let (get, scan) = size_word(&kv, 101, gen);
        let got = get.unwrap();
        assert_eq!((got.len(), &got[..100]), (101, &value[..]));
        assert_eq!(scan.unwrap(), 1);
        // The residual (ROADMAP item 8): a bare store that also clears the
        // generation byte makes the oid untracked, and its size word is
        // believed — 4000 bytes, across neighbouring blocks, under SPP+T
        // as under spatial-only SPP. Only an authenticated oid (item 8's
        // MAC) closes this.
        let spatial = spp_store_with(TagConfig::phoenix(), 1 << 22, 256);
        spatial.put(&key(1), &value).unwrap();
        for kv in [&kv, &spatial] {
            let (get, scan) = size_word(kv, 4000, 0);
            assert_eq!(get.unwrap().len(), 4000);
            assert_eq!(scan.unwrap(), 1);
        }
    }

    #[test]
    fn corrupt_value_oid_is_an_error_not_a_pointer() {
        // A stray store over one word of a node's value oid — `off` at +8,
        // SPP's size word at +16 — then every reader of that value.
        fn read_with_oid_word<P: MemoryPolicy>(
            kv: &KvStore<P>,
            at: u64,
            word: u64,
        ) -> [SppError; 2] {
            let (get, scan) = read_with_word(kv, kv.layout.value_fields().1 + at, word);
            [get.unwrap_err(), scan.unwrap_err()]
        }
        let value = [7u8; 100];
        // A size past the 64 MiB cap that would wrap the tag to 100 bytes,
        // sizes no allocation has, offsets outside the mapping.
        let spp_cases = [
            (16, (1 << 26) + 100),
            (16, 1 << 40),
            (16, u64::MAX),
            (8, 1 << 40),
            (8, u64::MAX),
        ];
        for (at, word) in spp_cases {
            let kv = spp_store(1 << 22, 256);
            kv.put(&key(1), &value).unwrap();
            for e in read_with_oid_word(&kv, at, word) {
                assert!(
                    matches!(e, SppError::OverflowDetected { .. }),
                    "word +{at} = {word:#x}: {e:?}"
                );
            }
        }
        // The stock 16-byte oid has no size word; an offset outside the
        // mapping is the native baseline's fault.
        for word in [1 << 40, u64::MAX] {
            let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 22)));
            let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
            let kv = KvStore::create(Arc::new(PmdkPolicy::new(pool)), 64).unwrap();
            kv.put(&key(1), &value).unwrap();
            for e in read_with_oid_word(&kv, 8, word) {
                assert!(matches!(e, SppError::Fault { .. }), "{word:#x}: {e:?}");
            }
        }
    }

    #[test]
    fn a_next_oid_shrunk_below_a_node_fails_the_next_hop() {
        // A stray store over the size word of a `next` oid, leaving room
        // for the key and `next` but not the whole node. Each hop checks
        // the node's full extent, so even a walk that reads only `next`
        // (`count`) stops there instead of following a truncated node.
        let kv = spp_store(1 << 22, 1); // one bucket: key(2) -> key(1)
        kv.put(&key(1), b"tail").unwrap();
        kv.put(&key(2), b"head").unwrap();
        let (b, stripe) = kv.bucket_of(&key(2));
        {
            let held = kv.locks[stripe].write();
            let head = kv.find(b, &key(2), &held).unwrap().unwrap();
            let shrunk = PmemOid {
                size: kv.layout.value,
                ..head.next
            };
            head.obj.write_oid(kv.layout.next, shrunk).unwrap();
        }
        let mut out = Vec::new();
        assert!(kv.get(&key(2), &mut out).unwrap(), "the head still serves");
        for e in [
            kv.get(&key(1), &mut out).unwrap_err(),
            kv.count().unwrap_err(),
        ] {
            assert!(
                matches!(
                    e,
                    SppError::OverflowDetected {
                        mechanism: "overflow-bit",
                        ..
                    }
                ),
                "{e:?}"
            );
        }
    }

    #[test]
    fn a_freed_and_reused_node_fails_a_stale_hop_under_spp_t() {
        // Hold a node's oid, free the node, let the next insert reuse its
        // block, then follow the stale oid: the node handle's one check
        // carries SPP+T's generation compare, so the hop fails.
        let kv = spp_store(1 << 22, 1);
        kv.put(&key(1), b"first").unwrap();
        let (b, stripe) = kv.bucket_of(&key(1));
        let stale = {
            let held = kv.locks[stripe].read();
            kv.find(b, &key(1), &held).unwrap().unwrap().oid
        };
        assert!(kv.remove(&key(1)).unwrap());
        kv.put(&key(2), b"second").unwrap();
        let reused = {
            let held = kv.locks[stripe].read();
            kv.find(b, &key(2), &held).unwrap().unwrap().oid
        };
        assert_eq!(reused.off, stale.off, "the freed node's block is reused");
        assert_ne!(reused.gen, stale.gen);
        // The bucket slot relinked to the stale oid (a torn or replayed
        // link): every reader's first hop is the stale one.
        kv.bucket_array()
            .write_oid(b * kv.layout.os, stale)
            .unwrap();
        let mut out = Vec::new();
        for e in [
            kv.get(&key(2), &mut out).unwrap_err(),
            kv.count().unwrap_err(),
        ] {
            assert!(
                matches!(
                    e,
                    SppError::TemporalViolation {
                        mechanism: "generation-tag",
                        ..
                    }
                ),
                "{e:?}"
            );
        }
    }

    #[test]
    fn open_refuses_a_meta_block_it_cannot_serve() {
        // `nbuckets` read from PM divides every hash and sizes the bucket
        // array's handle, so `open` validates it first.
        let kv = spp_store(1 << 22, 16);
        kv.put(&key(1), b"v").unwrap();
        let (policy, meta, l) = (Arc::clone(kv.policy()), kv.meta(), kv.layout);
        let nbuckets_field = |n: u64| {
            ObjRef::new(&*policy, meta, l.meta_size(), &meta)
                .unwrap()
                .write_u64(l.meta_nbuckets(), n)
                .unwrap()
        };
        for n in [0, u64::MAX, 1 << 20] {
            nbuckets_field(n);
            let err = KvStore::open(Arc::clone(&policy), meta).err();
            assert!(
                matches!(err, Some(SppError::Pmdk(PmdkError::BadPool(_)))),
                "nbuckets {n}: {err:?}"
            );
        }
        // One bucket too many still fits the allocator's rounded block;
        // SPP's bound on the array's handle is exact.
        nbuckets_field(17);
        let err = KvStore::open(Arc::clone(&policy), meta).err();
        assert!(
            matches!(err, Some(SppError::OverflowDetected { .. })),
            "{err:?}"
        );
        nbuckets_field(16);
        let kv = KvStore::open(policy, meta).unwrap();
        assert_eq!(kv.count().unwrap(), 1);
        assert!(KvStore::create(Arc::clone(kv.policy()), 0).is_err());
    }

    /// Rewrite the layout word of `kv`'s meta block through the pool, then
    /// reopen: every word but the store's own is refused, naming the
    /// layout found and the layout expected, and the refusal changes
    /// nothing.
    fn refuses_another_layout<P: MemoryPolicy>(kv: KvStore<P>) {
        kv.put(&key(1), b"v").unwrap();
        let (policy, meta, l) = (Arc::clone(kv.policy()), kv.meta(), kv.layout);
        drop(kv);
        let pool = Arc::clone(policy.pool());
        let other = NodeLayout::new(match l.kind {
            OidKind::Spp => OidKind::Pmdk,
            OidKind::Pmdk => OidKind::Spp,
        });
        let older = l.word() & !(0xff << 48) | (1 << 48);
        for word in [0, other.word(), older, u64::MAX] {
            pool.write_u64(meta.off + META_LAYOUT, word).unwrap();
            let err = KvStore::open(Arc::clone(&policy), meta).err();
            let Some(SppError::Pmdk(PmdkError::BadPool(msg))) = err else {
                panic!("layout word {word:#x}: {err:?}");
            };
            let (found, expected) = (layout_name(word), layout_name(l.word()));
            assert!(
                msg.contains(&format!("{found} found, {expected} expected")),
                "{msg}"
            );
        }
        pool.write_u64(meta.off + META_LAYOUT, l.word()).unwrap();
        let kv = KvStore::open(policy, meta).unwrap();
        let mut out = Vec::new();
        assert!(kv.get(&key(1), &mut out).unwrap());
        assert_eq!((out.as_slice(), kv.count().unwrap()), (&b"v"[..], 1));
    }

    #[test]
    fn open_refuses_a_store_of_another_layout() {
        refuses_another_layout(spp_store(1 << 22, 16));
        refuses_another_layout(
            KvStore::create(Arc::new(PmdkPolicy::new(small_pool())), 16).unwrap(),
        );
        let safepm = SafePmPolicy::create(small_pool()).unwrap();
        refuses_another_layout(KvStore::create(Arc::new(safepm), 16).unwrap());
    }

    #[test]
    fn layout_words_name_themselves() {
        let (spp, pmdk) = (
            NodeLayout::new(OidKind::Spp),
            NodeLayout::new(OidKind::Pmdk),
        );
        assert_eq!((spp.size, pmdk.size), (64, 56));
        assert_eq!(layout_name(spp.word()), "kvnode v2 (24-byte oids)");
        assert_eq!(layout_name(pmdk.word()), "kvnode v2 (16-byte oids)");
        assert_eq!(layout_name(0), "none (word 0x0)");
    }
}
