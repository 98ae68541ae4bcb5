//! The persistent object pool: creation, open/recovery, atomic object
//! management, transactions, and the root object.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::RngExt;

use spp_pm::PmPool;

use crate::alloc::{self, AllocStats, Arenas, BlockInfo};
use crate::lane::Lanes;
use crate::layout::{self, Header};
use crate::oid::{OidDest, OidKind, PmemOid, OID_SIZE_SPP};
use crate::redo::RedoLog;
use crate::tx::{LaneScratch, Tx};
use crate::ulog::{TxState, UndoEntry, UndoLog};
use crate::{PmdkError, Result};

/// Geometry options for [`ObjPool::create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOpts {
    lane_count: usize,
    redo_slots: u64,
    undo_capacity: u64,
}

impl Default for PoolOpts {
    fn default() -> Self {
        PoolOpts {
            lane_count: 16,
            redo_slots: 64,
            undo_capacity: 256 * 1024,
        }
    }
}

impl PoolOpts {
    /// The default geometry: 16 lanes, 64 redo slots, 256 KiB undo capacity
    /// per lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tiny geometry for small pools (examples, unit tests): 2 lanes with
    /// 8 KiB undo logs.
    pub fn small() -> Self {
        PoolOpts {
            lane_count: 2,
            redo_slots: 16,
            undo_capacity: 8 * 1024,
        }
    }

    /// Set the number of lanes (bounds intra-pool concurrency).
    pub fn lanes(mut self, n: usize) -> Self {
        self.lane_count = n.max(1);
        self
    }

    /// Set redo slots per lane.
    pub fn redo_slots(mut self, n: u64) -> Self {
        self.redo_slots = n.max(8);
        self
    }

    /// Set undo-log capacity per lane in bytes (bounds the data volume one
    /// transaction may snapshot).
    pub fn undo_capacity(mut self, bytes: u64) -> Self {
        self.undo_capacity = bytes.next_multiple_of(8).max(1024);
        self
    }
}

/// Recovery steps to deliberately skip in
/// [`ObjPool::open_with_faults`] — the torture rig's fault injection.
/// Everything `false` (the default) is correct recovery.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryFaults {
    /// Discard valid redo logs instead of re-applying them. Breaks the
    /// all-or-nothing guarantee of atomic allocation/free/publication.
    pub skip_redo_apply: bool,
    /// Leave active transactions un-rolled-back (the undo log is cleared
    /// without restoring snapshots or freeing AllocOnAbort blocks).
    pub skip_tx_rollback: bool,
}

impl RecoveryFaults {
    /// Whether any recovery step is being skipped.
    pub fn any(&self) -> bool {
        self.skip_redo_apply || self.skip_tx_rollback
    }
}

/// Durable transaction status of one lane, as recovery classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// No transaction was in flight.
    None,
    /// A transaction had begun but not committed (recovery rolls it back).
    Active,
    /// A transaction had committed but not finished cleanup (recovery
    /// completes its deferred frees).
    Committed,
}

/// Durable per-lane recovery state: what [`ObjPool::lane_status`] reports.
/// After a successful recovery every lane must be quiescent (no valid redo
/// log, [`TxStatus::None`]) — the torture rig's oracles assert exactly
/// that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// Whether the lane's redo log valid flag is set.
    pub redo_valid: bool,
    /// The lane's undo-log transaction status.
    pub tx: TxStatus,
}

impl LaneStatus {
    /// Whether the lane has no recovery work pending.
    pub fn is_quiescent(&self) -> bool {
        !self.redo_valid && self.tx == TxStatus::None
    }
}

/// A persistent object pool over a [`PmPool`] device — the `PMEMobjpool`
/// analogue.
///
/// See the [crate documentation](crate) for the full model and an example.
#[derive(Debug)]
pub struct ObjPool {
    pm: Arc<PmPool>,
    hdr: Header,
    alloc: Arenas,
    lanes: Lanes<LaneScratch>,
    root_lock: Mutex<()>,
}

impl ObjPool {
    /// Format `pm` as a fresh pool.
    ///
    /// The device must be zero-initialised (a fresh [`PmPool`] is).
    ///
    /// # Errors
    ///
    /// [`PmdkError::BadPool`] if the device is too small for the geometry.
    pub fn create(pm: Arc<PmPool>, opts: PoolOpts) -> Result<ObjPool> {
        let mut hdr = Header {
            pool_uuid: rand::rng().random::<u64>() | 1, // never 0
            pool_size: pm.size(),
            lane_count: opts.lane_count as u64,
            redo_slots: opts.redo_slots,
            undo_capacity: opts.undo_capacity,
            heap_off: 0,
            root_off: 0,
            root_size: 0,
        };
        hdr.heap_off = hdr.expected_heap_off();
        if hdr.heap_off + 4096 > pm.size() {
            return Err(PmdkError::BadPool(format!(
                "device of {} bytes too small for geometry needing {} bytes of metadata",
                pm.size(),
                hdr.heap_off
            )));
        }
        hdr.write_to(&pm)?;
        let alloc = Arenas::new(hdr.heap_off, hdr.pool_size, opts.lane_count);
        Ok(ObjPool {
            pm,
            hdr,
            alloc,
            lanes: Lanes::new(opts.lane_count, || LaneScratch::new(opts.redo_slots)),
            root_lock: Mutex::new(()),
        })
    }

    /// Open an existing pool, running recovery:
    ///
    /// 1. every valid redo log is re-applied (completing atomic operations);
    /// 2. active transactions are rolled back; committed ones are completed;
    /// 3. the volatile allocator state (free lists, live counters, the
    ///    SPP+T generation index) is rebuilt in one walk over the block
    ///    headers.
    ///
    /// # Errors
    ///
    /// [`PmdkError::BadPool`] if validation of the header, logs, or heap
    /// fails.
    pub fn open(pm: Arc<PmPool>) -> Result<ObjPool> {
        Self::open_with_faults(pm, RecoveryFaults::default())
    }

    /// [`Self::open`] with deliberately broken recovery steps — the torture
    /// rig's fault-injection hook. With `RecoveryFaults::default()` this is
    /// exactly `open`. Not for production use: a skipped step silently
    /// corrupts the pool.
    #[doc(hidden)]
    pub fn open_with_faults(pm: Arc<PmPool>, faults: RecoveryFaults) -> Result<ObjPool> {
        let hdr = Header::read_from(&pm)?;
        // Phase 1: redo logs (atomic op completion).
        for lane in 0..hdr.lane_count as usize {
            let redo = RedoLog::new(hdr.redo_off(lane), hdr.redo_slots);
            if faults.skip_redo_apply {
                redo.discard(&pm)?;
            } else {
                redo.recover(&pm)?;
            }
        }
        // Phase 2: transaction undo logs.
        for lane in 0..hdr.lane_count as usize {
            let mut ulog = UndoLog::new(hdr.undo_off(lane), hdr.undo_capacity);
            match ulog.state(&pm)? {
                TxState::None => {}
                TxState::Active => {
                    if !faults.skip_tx_rollback {
                        ulog.rollback_snapshots(&pm, &mut Vec::new(), &mut Vec::new())?;
                        for e in ulog.entries(&pm)? {
                            if let UndoEntry::AllocOnAbort { block_hdr } = e {
                                alloc::recover_retire(&pm, block_hdr)?;
                            }
                        }
                    }
                    ulog.clear(&pm)?;
                }
                TxState::Committed => {
                    for e in ulog.entries(&pm)? {
                        if let UndoEntry::FreeOnCommit { block_hdr } = e {
                            alloc::recover_retire(&pm, block_hdr)?;
                        }
                    }
                    ulog.clear(&pm)?;
                }
            }
        }
        // Phase 3: rebuild the heap's volatile state from the durable block
        // headers.
        let alloc = Arenas::rebuild(&pm, hdr.heap_off, hdr.pool_size, hdr.lane_count as usize)?;
        Ok(ObjPool {
            pm,
            hdr,
            alloc,
            lanes: Lanes::new(hdr.lane_count as usize, || LaneScratch::new(hdr.redo_slots)),
            root_lock: Mutex::new(()),
        })
    }

    /// The underlying PM device.
    pub fn pm(&self) -> &Arc<PmPool> {
        &self.pm
    }

    /// This pool's UUID.
    pub fn uuid(&self) -> u64 {
        self.hdr.pool_uuid
    }

    /// Offset where the heap begins.
    pub fn heap_off(&self) -> u64 {
        self.hdr.heap_off
    }

    /// `pmemobj_direct`: the simulated virtual address of an oid's payload.
    ///
    /// Stock PMDK semantics — no tag, and plain address arithmetic: an
    /// offset read from corrupted PM wraps like the C addition it models,
    /// and the access faults. The SPP-adapted version lives in `spp-core`.
    pub fn direct(&self, oid: PmemOid) -> u64 {
        self.pm.base().wrapping_add(oid.off)
    }

    /// Current allocator statistics (space accounting for Table III).
    pub fn stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    // ---- recovery introspection (oracle surface) ----

    /// Walk the durable heap header chain, returning every block exactly as
    /// a recovery scan would classify it.
    ///
    /// # Errors
    ///
    /// [`PmdkError::BadPool`] on a corrupt header chain — for a recovered
    /// pool this is itself an invariant violation.
    pub fn walk_heap(&self) -> Result<Vec<BlockInfo>> {
        alloc::scan_heap(&self.pm, self.hdr.heap_off, self.hdr.pool_size)
    }

    /// Number of lanes in this pool's geometry.
    pub fn lane_count(&self) -> usize {
        self.hdr.lane_count as usize
    }

    /// Durable recovery state of one lane (redo valid flag + tx status).
    ///
    /// # Errors
    ///
    /// Device errors, or [`PmdkError::BadPool`] for a lane out of range or
    /// a corrupt tx state word.
    pub fn lane_status(&self, lane: usize) -> Result<LaneStatus> {
        if lane >= self.hdr.lane_count as usize {
            return Err(PmdkError::BadPool(format!(
                "lane {lane} out of range (pool has {})",
                self.hdr.lane_count
            )));
        }
        let redo_valid = self.redo(lane).is_valid(&self.pm)?;
        let tx =
            match UndoLog::new(self.hdr.undo_off(lane), self.hdr.undo_capacity).state(&self.pm)? {
                TxState::None => TxStatus::None,
                TxState::Active => TxStatus::Active,
                TxState::Committed => TxStatus::Committed,
            };
        Ok(LaneStatus { redo_valid, tx })
    }

    /// [`Self::lane_status`] for every lane.
    ///
    /// # Errors
    ///
    /// As [`Self::lane_status`].
    pub fn lane_statuses(&self) -> Result<Vec<LaneStatus>> {
        (0..self.lane_count())
            .map(|l| self.lane_status(l))
            .collect()
    }

    /// The durable root oid, or `None` if no root has been allocated.
    /// Read-only: unlike [`Self::root`], never allocates.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn root_oid(&self) -> Result<Option<PmemOid>> {
        let off = layout::read_u64(&self.pm, layout::hdr::ROOT_OFF)?;
        if off == 0 {
            return Ok(None);
        }
        let size = layout::read_u64(&self.pm, layout::hdr::ROOT_SIZE)?;
        Ok(Some(PmemOid::new(self.hdr.pool_uuid, off, size)))
    }

    // ---- raw data access (pool-relative) ----

    /// Load bytes at a pool offset.
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn read(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        self.pm.read(off, buf)?;
        Ok(())
    }

    /// Store bytes at a pool offset (no flush).
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn write(&self, off: u64, data: &[u8]) -> Result<()> {
        self.pm.write(off, data)?;
        Ok(())
    }

    /// Flush + fence a range (`pmem_persist`).
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn persist(&self, off: u64, len: usize) -> Result<()> {
        self.pm.persist(off, len)?;
        Ok(())
    }

    /// Flush a range without fencing (`pmem_flush`). The stores become
    /// durable at the next fence — e.g. the one a transaction commit
    /// issues before its commit record. Group commit uses this to publish
    /// value objects with one shared fence per batch.
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn flush(&self, off: u64, len: usize) -> Result<()> {
        self.pm.flush(off, len)?;
        Ok(())
    }

    /// Load a little-endian `u64` at a pool offset.
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn read_u64(&self, off: u64) -> Result<u64> {
        layout::read_u64(&self.pm, off)
    }

    /// Store a little-endian `u64` at a pool offset (no flush).
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn write_u64(&self, off: u64, v: u64) -> Result<()> {
        layout::write_u64(&self.pm, off, v)
    }

    /// Load a serialized oid stored at a pool offset.
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn oid_read(&self, off: u64, kind: OidKind) -> Result<PmemOid> {
        let mut buf = [0u8; 24];
        let n = kind.on_media_size() as usize;
        self.pm.read(off, &mut buf[..n])?;
        Ok(PmemOid::decode(&buf[..n], kind))
    }

    /// Store a serialized oid at a pool offset (no flush; not atomic — use
    /// [`Self::alloc_into`]/[`Self::free_from`] or a transaction for
    /// crash-consistent oid publication).
    ///
    /// # Errors
    ///
    /// Propagates device range errors.
    pub fn oid_write(&self, off: u64, oid: PmemOid, kind: OidKind) -> Result<()> {
        let mut buf = [0; OID_SIZE_SPP as usize];
        self.pm.write(off, oid.encode_into(&mut buf, kind))?;
        Ok(())
    }

    // ---- atomic object management ----

    /// Allocate `size` bytes without initialisation; the oid is returned
    /// only (no PM destination).
    ///
    /// # Errors
    ///
    /// [`PmdkError::OutOfMemory`] / [`PmdkError::BadAllocSize`].
    pub fn alloc(&self, size: u64) -> Result<PmemOid> {
        self.alloc_impl(None, size, false)
    }

    /// Allocate `size` zeroed bytes (no PM destination).
    ///
    /// # Errors
    ///
    /// [`PmdkError::OutOfMemory`] / [`PmdkError::BadAllocSize`].
    pub fn zalloc(&self, size: u64) -> Result<PmemOid> {
        self.alloc_impl(None, size, true)
    }

    /// `pmemobj_alloc`: allocate and atomically publish the oid into a PM
    /// destination. Under [`OidKind::Spp`] the destination's `size` field is
    /// redo-ordered **before** the validating `off` field (paper §IV-F).
    ///
    /// # Errors
    ///
    /// [`PmdkError::OutOfMemory`] / [`PmdkError::BadAllocSize`].
    pub fn alloc_into(&self, dest: OidDest, size: u64) -> Result<PmemOid> {
        self.alloc_impl(Some(dest), size, false)
    }

    /// [`Self::alloc_into`] with zero-initialisation.
    ///
    /// # Errors
    ///
    /// [`PmdkError::OutOfMemory`] / [`PmdkError::BadAllocSize`].
    pub fn zalloc_into(&self, dest: OidDest, size: u64) -> Result<PmemOid> {
        self.alloc_impl(Some(dest), size, true)
    }

    fn alloc_impl(&self, dest: Option<OidDest>, size: u64, zero: bool) -> Result<PmemOid> {
        let (lane, mut scratch) = self.lanes.acquire();
        let born = self.alloc.reserve(&self.pm, lane, size)?;
        if zero {
            self.pm.fill(born.payload_off(), 0, size as usize)?;
            self.pm.persist(born.payload_off(), size as usize)?;
        }
        let oid = born.oid(self.hdr.pool_uuid);
        let entries = dest.into_iter().flat_map(|d| oid.publish_words(d));
        let entries = std::iter::once(born.state_entry()).chain(entries);
        if let Err(e) = self.redo(lane).commit(&self.pm, &mut scratch.redo, entries) {
            self.alloc.release(lane, born.off, born.size);
            return Err(e);
        }
        self.alloc.adopted(&born);
        Ok(oid)
    }

    /// The allocation generation currently live at a bound offset — SPP+T's
    /// one-load volatile deref index. Returns 0 when no tracked allocation
    /// ends at `bound_off` (freed, moved, or never tracked).
    #[inline]
    pub fn gen_at_bound(&self, bound_off: u64) -> u8 {
        self.alloc.gen_at_bound(bound_off)
    }

    /// Atomically free an object (no PM destination to null).
    ///
    /// # Errors
    ///
    /// [`PmdkError::InvalidOid`] for null/foreign/corrupt oids.
    pub fn free(&self, oid: PmemOid) -> Result<()> {
        self.free_impl(None, oid)
    }

    /// `pmemobj_free`: atomically free an object and null the oid stored at
    /// `dest` (the offset field is invalidated first).
    ///
    /// # Errors
    ///
    /// [`PmdkError::InvalidOid`] for null/foreign/corrupt oids.
    pub fn free_from(&self, dest: OidDest, oid: PmemOid) -> Result<()> {
        self.free_impl(Some(dest), oid)
    }

    fn free_impl(&self, dest: Option<OidDest>, oid: PmemOid) -> Result<()> {
        let live = self.alloc.block_meta(&self.pm, oid)?;
        let (lane, mut scratch) = self.lanes.acquire();
        // Invalidate the oid first, then the block.
        let entries = dest.into_iter().flat_map(OidDest::null_words);
        let entries = entries.chain([live.retired().state_entry()]);
        self.redo(lane)
            .commit(&self.pm, &mut scratch.redo, entries)?;
        self.alloc.retired(lane, &live);
        Ok(())
    }

    /// `pmemobj_realloc`: atomically reallocate `oid` to `new_size`,
    /// publishing the new oid into `dest`. The whole oid (including SPP's
    /// size field) flips in one redo commit — "the entire PMEMoid structure
    /// is captured in a log" (paper §IV-F).
    ///
    /// Returns the new oid. If the block class is unchanged the object is
    /// resized in place.
    ///
    /// # Errors
    ///
    /// [`PmdkError::OutOfMemory`] if a larger block cannot be found — in
    /// that case the original object is untouched (the PMDK array example's
    /// unchecked-return bug reproduced in `spp-ripe` depends on this).
    pub fn realloc_into(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> Result<PmemOid> {
        if new_size == 0 || new_size >= 1 << 40 {
            return Err(PmdkError::BadAllocSize(new_size));
        }
        let old = self.alloc.block_meta(&self.pm, oid)?;
        let (lane, mut scratch) = self.lanes.acquire();
        let redo = self.redo(lane);
        if let Some(now) = old.resized(new_size) {
            let new_oid = now.oid(oid.pool_uuid);
            let entries = std::iter::once(now.state_entry()).chain(new_oid.size_entry(dest));
            redo.commit(&self.pm, &mut scratch.redo, entries)?;
            self.alloc.resized(&old, &now);
            return Ok(new_oid);
        }
        let born = self.alloc.reserve(&self.pm, lane, new_size)?;
        // Copy the surviving prefix before validation.
        let copy_len = old.payload_size().min(new_size);
        self.copy_within(oid.off, born.payload_off(), copy_len)?;
        self.pm.persist(born.payload_off(), copy_len as usize)?;
        let new_oid = born.oid(self.hdr.pool_uuid);
        let entries = std::iter::once(born.state_entry())
            .chain(new_oid.publish_words(dest))
            .chain([old.retired().state_entry()]);
        if let Err(e) = redo.commit(&self.pm, &mut scratch.redo, entries) {
            self.alloc.release(lane, born.off, born.size);
            return Err(e);
        }
        self.alloc.adopted(&born);
        self.alloc.retired(lane, &old);
        Ok(new_oid)
    }

    pub(crate) fn copy_within(&self, src: u64, dst: u64, len: u64) -> Result<()> {
        let mut buf = [0u8; 4096];
        let mut done = 0u64;
        while done < len {
            let chunk = (len - done).min(4096) as usize;
            self.pm.read(src + done, &mut buf[..chunk])?;
            self.pm.write(dst + done, &buf[..chunk])?;
            done += chunk as u64;
        }
        Ok(())
    }

    /// Usable payload capacity of the block backing `oid` (may exceed the
    /// requested size because of size-class rounding).
    ///
    /// # Errors
    ///
    /// [`PmdkError::InvalidOid`] for null/foreign/corrupt oids.
    pub fn usable_size(&self, oid: PmemOid) -> Result<u64> {
        Ok(self.alloc.block_meta(&self.pm, oid)?.payload_size())
    }

    // ---- root object ----

    /// `pmemobj_root`: return the root object, allocating it (zeroed) on
    /// first use. The root oid is stored durably in the pool header.
    ///
    /// # Errors
    ///
    /// Allocation errors on first use.
    pub fn root(&self, size: u64) -> Result<PmemOid> {
        let _g = self.root_lock.lock();
        if self.hdr.root_off != 0 {
            return Ok(PmemOid::new(
                self.hdr.pool_uuid,
                self.hdr.root_off,
                self.hdr.root_size,
            ));
        }
        let root_off_durable = layout::read_u64(&self.pm, layout::hdr::ROOT_OFF)?;
        if root_off_durable != 0 {
            let root_size = layout::read_u64(&self.pm, layout::hdr::ROOT_SIZE)?;
            return Ok(PmemOid::new(
                self.hdr.pool_uuid,
                root_off_durable,
                root_size,
            ));
        }
        // The root is a never-freed singleton; only `{off, size}` is durable
        // in the header, so it stays untracked (gen 0) — matching what
        // `root_oid` reconstructs after reopen.
        let oid = self.zalloc(size)?.with_gen(0);
        // Publish the root pointer atomically (size before off, as always).
        let (lane, mut scratch) = self.lanes.acquire();
        self.redo(lane).commit(
            &self.pm,
            &mut scratch.redo,
            [
                (layout::hdr::ROOT_SIZE, size),
                (layout::hdr::ROOT_OFF, oid.off),
            ],
        )?;
        // The volatile header copy is updated via interior state on reopen;
        // within this process we cannot mutate `self.hdr` (shared refs), so
        // re-reads go through the durable header (above).
        Ok(oid)
    }

    /// Read the pool's durable user slot (one u64 of application metadata
    /// in the header; the SafePM baseline stores its shadow locator here).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn user_slot(&self) -> Result<u64> {
        layout::read_u64(&self.pm, layout::hdr::USER_SLOT)
    }

    /// Atomically set the durable user slot.
    ///
    /// # Errors
    ///
    /// Device or redo-log errors.
    pub fn set_user_slot(&self, v: u64) -> Result<()> {
        let (lane, mut scratch) = self.lanes.acquire();
        self.redo(lane)
            .commit(&self.pm, &mut scratch.redo, [(layout::hdr::USER_SLOT, v)])
    }

    /// Atomically publish `oid` into a PM destination (without allocating).
    /// Under [`OidKind::Spp`] the size field is ordered before the offset.
    ///
    /// # Errors
    ///
    /// Device or redo-log errors.
    pub fn publish_oid(&self, dest: OidDest, oid: PmemOid) -> Result<()> {
        let (lane, mut scratch) = self.lanes.acquire();
        self.redo(lane)
            .commit(&self.pm, &mut scratch.redo, oid.publish_words(dest))
    }

    /// Atomically null the oid stored at `dest` (offset first).
    ///
    /// # Errors
    ///
    /// Device or redo-log errors.
    pub fn unpublish_oid(&self, dest: OidDest) -> Result<()> {
        let (lane, mut scratch) = self.lanes.acquire();
        self.redo(lane)
            .commit(&self.pm, &mut scratch.redo, dest.null_words())
    }

    // ---- transactions ----

    /// Begin a software transaction explicitly, returning a [`TxHandle`]
    /// that must be [`commit`](TxHandle::commit)ed or
    /// [`rollback`](TxHandle::rollback)ed.
    ///
    /// This is the building block under [`ObjPool::tx`]; use it directly
    /// when transaction scope and lock scope must interleave — e.g. the KV
    /// store takes its lane first, *then* its stripe lock, stages the
    /// write, and commits while still holding the stripe lock (so no other
    /// writer can build chain state on top of uncommitted writes).
    ///
    /// Dropping the handle without finishing it rolls the transaction back
    /// (and releases the lane), so an unwinding panic cannot leak an
    /// `Active` undo log into the next transaction on the lane.
    ///
    /// # Errors
    ///
    /// Device or undo-log errors while arming the lane's log.
    pub fn tx_begin(&self) -> Result<TxHandle<'_>> {
        let (lane, scratch) = self.lanes.acquire();
        let mut ulog = UndoLog::new(self.hdr.undo_off(lane), self.hdr.undo_capacity);
        ulog.begin(&self.pm)?;
        self.pm.mark("tx_begin");
        Ok(TxHandle {
            tx: Some(Tx::new(self, lane, ulog, scratch)),
        })
    }

    /// Run `f` inside a software transaction.
    ///
    /// If `f` returns `Ok`, the transaction commits: snapshotted ranges are
    /// flushed, deferred frees performed, and the undo log discarded. If `f`
    /// returns `Err`, every snapshotted range is rolled back to its
    /// pre-transaction contents and transactional allocations are freed.
    /// If `f` panics, the unwind rolls the transaction back the same way
    /// (via [`TxHandle`]'s drop guard) before the panic propagates.
    ///
    /// # Errors
    ///
    /// The application's error (after rollback), or log/device errors.
    /// The error type only needs `From<PmdkError>` so application-level
    /// error enums (e.g. `spp_core::SppError`) flow through transactions.
    pub fn tx<R, E: From<PmdkError>>(
        &self,
        f: impl FnOnce(&mut Tx<'_>) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        let mut h = self.tx_begin().map_err(E::from)?;
        match f(h.tx()) {
            Ok(r) => {
                h.commit().map_err(E::from)?;
                Ok(r)
            }
            Err(e) => {
                h.rollback().map_err(E::from)?;
                Err(e)
            }
        }
    }

    /// `lane`'s redo log.
    pub(crate) fn redo(&self, lane: usize) -> RedoLog {
        RedoLog::new(self.hdr.redo_off(lane), self.hdr.redo_slots)
    }

    pub(crate) fn arenas(&self) -> &Arenas {
        &self.alloc
    }
}

/// An explicitly-managed software transaction: a held lane plus an armed
/// undo log. Created by [`ObjPool::tx_begin`].
///
/// Exactly one of [`commit`](TxHandle::commit) / [`rollback`](TxHandle::rollback)
/// consumes the handle; dropping it unfinished (including during panic
/// unwinding) rolls back. The lane (which the [`Tx`] holds) is released
/// when the handle goes away, whichever path it takes.
pub struct TxHandle<'p> {
    tx: Option<Tx<'p>>,
}

impl std::fmt::Debug for TxHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxHandle")
            .field("finished", &self.tx.is_none())
            .finish_non_exhaustive()
    }
}

impl<'p> TxHandle<'p> {
    /// The in-flight transaction, for `Tx`-consuming operations
    /// (`snapshot`/`write`/`alloc`/`free` and the policy `tx_*` entry
    /// points).
    pub fn tx(&mut self) -> &mut Tx<'p> {
        self.tx.as_mut().expect("transaction already finished")
    }

    /// Commit: flush snapshotted ranges, pass the durable commit point,
    /// perform deferred frees, discard the undo log.
    ///
    /// # Errors
    ///
    /// Device or log errors. The commit point may or may not have been
    /// passed when an error surfaces; recovery on reopen resolves it.
    pub fn commit(mut self) -> Result<()> {
        let mut tx = self.tx.take().expect("transaction already finished");
        tx.commit()?;
        tx.pool().pm().mark("tx_end");
        Ok(())
    }

    /// Roll back: restore every snapshotted range, free transactional
    /// allocations, discard the undo log.
    ///
    /// # Errors
    ///
    /// Device or log errors.
    pub fn rollback(mut self) -> Result<()> {
        let mut tx = self.tx.take().expect("transaction already finished");
        tx.rollback()?;
        tx.pool().pm().mark("tx_abort");
        Ok(())
    }
}

impl Drop for TxHandle<'_> {
    fn drop(&mut self) {
        if let Some(mut tx) = self.tx.take() {
            // Unwinding (or a dropped handle): abort. Errors cannot
            // propagate from drop; recovery on reopen re-runs the rollback
            // from the durable undo log if this one did not finish.
            let _ = tx.rollback();
            tx.pool().pm().mark("tx_abort");
        }
    }
}
