//! Software transactions (the `pmemobj_tx_*` analogue).
//!
//! A transaction never touches a block's state word: it holds the
//! [`BlockInfo`]s it allocated and will free and drives them through
//! `alloc.rs`'s lifecycle — the atomic API's reserve / durable flip /
//! `adopted`-or-`retired` bracket, the undo log covering the flip.
//!
//! Its volatile bookkeeping — the snapshotted ranges and their dedup index,
//! the blocks it allocated and will free, the rollback walk, the redo
//! staging of its commit-time frees — is [`LaneScratch`], owned by the lane
//! the transaction holds. The lane lock makes it exclusive, `begin` clears
//! it, nothing frees it: once a lane has seen its largest transaction, a
//! transaction allocates nothing. Snapshot dedup is exact-match and O(1)
//! for group commits of any size ([`SnapshotSet`]).

use crate::alloc::{dead_oid, BlockInfo};
use crate::lane::LaneGuard;
use crate::oid::PmemOid;
use crate::pool::ObjPool;
use crate::redo::ENTRY_SIZE;
use crate::ulog::UndoLog;
use crate::{PmdkError, Result};

/// The ranges a transaction has snapshotted, in snapshot order, with an
/// exact-match membership test: an open-addressed table of indices into
/// `ranges` under one fixed multiplicative hash, at most half full. Each
/// slot is stamped with the epoch it was filled in and `clear` starts a new
/// epoch, so emptying the set costs nothing however large a group commit
/// grew the table.
#[derive(Debug)]
struct SnapshotSet {
    /// `(off, len)` of every snapshot, in order.
    ranges: Vec<(u64, u64)>,
    /// `(epoch, index into ranges)`; a slot is empty unless its epoch is
    /// the current one. Power-of-two length.
    slots: Vec<(u32, u32)>,
    /// Never 0, the stamp of a freshly grown table.
    epoch: u32,
}

impl Default for SnapshotSet {
    fn default() -> Self {
        SnapshotSet {
            ranges: Vec::new(),
            slots: Vec::new(),
            epoch: 1,
        }
    }
}

impl SnapshotSet {
    fn clear(&mut self) {
        self.ranges.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp from 2^32 transactions ago would look live.
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// The slot holding `range`, or the empty slot its probe ends at, and
    /// which of the two it is. The table must be non-empty.
    fn probe(&self, range: (u64, u64)) -> (usize, bool) {
        let hash = (range.0 ^ range.1.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let (epoch, index) = self.slots[i];
            if epoch != self.epoch {
                return (i, false);
            }
            if self.ranges[index as usize] == range {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn contains(&self, range: (u64, u64)) -> bool {
        !self.slots.is_empty() && self.probe(range).1
    }

    /// Append `range`, which must not be present yet.
    fn insert(&mut self, range: (u64, u64)) {
        if 2 * (self.ranges.len() + 1) > self.slots.len() {
            // Past this lane's largest transaction so far: grow and
            // re-index. The only allocation, and only during warm-up.
            self.slots = vec![(0, 0); (2 * self.slots.len()).max(16)];
            for index in 0..self.ranges.len() {
                let (i, _) = self.probe(self.ranges[index]);
                self.slots[i] = (self.epoch, index as u32);
            }
        }
        let (i, _) = self.probe(range);
        self.slots[i] = (self.epoch, self.ranges.len() as u32);
        self.ranges.push(range);
    }
}

/// Volatile bookkeeping owned by one lane and reused by every operation
/// that holds it: a transaction's state, and the redo staging that any
/// redo commit on the lane (the atomic API's included) writes through.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// Ranges to flush at commit.
    snapshotted: SnapshotSet,
    /// Live blocks allocated inside the transaction (retired on abort).
    allocs: Vec<BlockInfo>,
    /// Live blocks to retire at commit.
    frees: Vec<BlockInfo>,
    /// The snapshot entries a rollback restores, walked back to front.
    undo: Vec<[u64; 3]>,
    /// The old bytes of the snapshot being logged or restored.
    old: Vec<u8>,
    /// Redo entries being committed, as written to the log.
    pub(crate) redo: Vec<u8>,
}

impl LaneScratch {
    /// A lane's scratch, with redo staging for all of its `redo_slots`.
    pub(crate) fn new(redo_slots: u64) -> Self {
        LaneScratch {
            redo: Vec::with_capacity((redo_slots * ENTRY_SIZE) as usize),
            ..LaneScratch::default()
        }
    }

    fn begin_tx(&mut self) {
        self.snapshotted.clear();
        self.allocs.clear();
        self.frees.clear();
    }
}

/// An in-flight transaction. Created by [`ObjPool::tx`].
///
/// All mutations of existing PM data inside the transaction must be covered
/// by a prior [`Tx::snapshot`] (PMDK's `pmemobj_tx_add_range`); the
/// snapshotted old bytes go to the persistent undo log and are restored on
/// abort or on recovery from a crash mid-transaction.
#[derive(Debug)]
pub struct Tx<'p> {
    pool: &'p ObjPool,
    lane: usize,
    ulog: UndoLog,
    /// The held lane; released when the transaction is dropped.
    scratch: LaneGuard<'p, LaneScratch>,
}

impl<'p> Tx<'p> {
    pub(crate) fn new(
        pool: &'p ObjPool,
        lane: usize,
        ulog: UndoLog,
        mut scratch: LaneGuard<'p, LaneScratch>,
    ) -> Self {
        scratch.begin_tx();
        Tx {
            pool,
            lane,
            ulog,
            scratch,
        }
    }

    /// The pool this transaction runs against.
    pub fn pool(&self) -> &'p ObjPool {
        self.pool
    }

    /// `pmemobj_tx_add_range`: snapshot `[off, off+len)` into the undo log
    /// so it can be restored on abort. Idempotent for identical ranges.
    ///
    /// # Errors
    ///
    /// [`PmdkError::UndoLogFull`] if the lane's undo capacity is exhausted
    /// (the transaction should then be aborted by returning the error).
    pub fn snapshot(&mut self, off: u64, len: u64) -> Result<()> {
        let pm = self.pool.pm();
        let s = &mut *self.scratch;
        if len == 0 || s.snapshotted.contains((off, len)) {
            return Ok(());
        }
        self.ulog.append_snapshot(pm, off, len, &mut s.old)?;
        if pm.mode() == spp_pm::Mode::Tracked {
            pm.mark(format!("tx_add:{off}:{len}"));
        }
        s.snapshotted.insert((off, len));
        Ok(())
    }

    /// Whether a snapshot of `len` bytes fits the lane's remaining undo
    /// room, so a caller can take a path that snapshots less instead of
    /// failing with [`PmdkError::UndoLogFull`].
    pub fn snapshot_fits(&self, len: u64) -> bool {
        self.ulog.room(len).is_ok()
    }

    /// Snapshot a range and then overwrite it with `data` (convenience for
    /// the common snapshot-then-write pattern).
    ///
    /// # Errors
    ///
    /// As [`Tx::snapshot`] plus device range errors.
    pub fn write(&mut self, off: u64, data: &[u8]) -> Result<()> {
        self.snapshot(off, data.len() as u64)?;
        self.pool.pm().write(off, data)?;
        Ok(())
    }

    /// Snapshot + write a `u64`.
    ///
    /// # Errors
    ///
    /// As [`Tx::write`].
    pub fn write_u64(&mut self, off: u64, v: u64) -> Result<()> {
        self.write(off, &v.to_le_bytes())
    }

    /// `pmemobj_tx_alloc`: allocate inside the transaction. The object
    /// becomes permanent only if the transaction commits.
    ///
    /// # Errors
    ///
    /// Allocation or undo-log errors.
    pub fn alloc(&mut self, size: u64) -> Result<PmemOid> {
        self.alloc_impl(size, false)
    }

    /// `pmemobj_tx_zalloc`: zero-initialised transactional allocation.
    ///
    /// # Errors
    ///
    /// Allocation or undo-log errors.
    pub fn zalloc(&mut self, size: u64) -> Result<PmemOid> {
        self.alloc_impl(size, true)
    }

    fn alloc_impl(&mut self, size: u64, zero: bool) -> Result<PmemOid> {
        let pm = self.pool.pm();
        let arenas = self.pool.arenas();
        let born = arenas.reserve(pm, self.lane, size)?;
        // Log first: a crash from here on rolls the allocation back.
        if let Err(e) = self.ulog.append_alloc(pm, born.off) {
            arenas.release(self.lane, born.off, born.size);
            return Err(e);
        }
        if zero {
            pm.fill(born.payload_off(), 0, size as usize)?;
            pm.persist(born.payload_off(), size as usize)?;
        }
        born.persist_state(pm)?;
        if pm.mode() == spp_pm::Mode::Tracked {
            pm.mark(format!("tx_alloc:{}:{}", born.off, born.size));
        }
        arenas.adopted(&born);
        self.scratch.allocs.push(born);
        Ok(born.oid(self.pool.uuid()))
    }

    /// `pmemobj_tx_free`: free an object when (and only when) the
    /// transaction commits. Nulling oid fields that referenced it is the
    /// application's job, via [`Tx::snapshot`]-covered writes.
    ///
    /// The header says allocated until commit, so a second free of one
    /// object in this transaction is caught against the pending list, with
    /// the atomic API's double-free error; the transaction stays usable.
    ///
    /// # Errors
    ///
    /// [`PmdkError::InvalidOid`] / [`PmdkError::StaleOid`] or undo-log
    /// errors.
    pub fn free(&mut self, oid: PmemOid) -> Result<()> {
        let live = self.pool.arenas().block_meta(self.pool.pm(), oid)?;
        if self.scratch.frees.iter().any(|b| b.off == live.off) {
            return Err(dead_oid(oid, live.retired().gen));
        }
        self.ulog.append_free(self.pool.pm(), live.off)?;
        self.scratch.frees.push(live);
        Ok(())
    }

    /// Abort explicitly with a message (sugar for returning
    /// [`PmdkError::TxAborted`] from the closure).
    pub fn abort(&self, reason: impl Into<String>) -> PmdkError {
        PmdkError::TxAborted(reason.into())
    }

    pub(crate) fn commit(&mut self) -> Result<()> {
        let pm = self.pool.pm();
        let s = &mut *self.scratch;
        // 1. Make all writes to snapshotted ranges durable. Ranges are
        // sorted and merged cache-line-wise first, in place: a batched
        // (group-commit) transaction snapshots many small chain-edit
        // ranges, and adjacent or same-line ranges collapse into one CLWB
        // sweep instead of one flush call each. Over-flushing the sub-line
        // gaps is safe — a flush only makes stores durable earlier, never
        // later.
        let spans = &mut s.snapshotted.ranges;
        for r in spans.iter_mut() {
            *r = (r.0, r.0 + r.1);
        }
        spans.sort_unstable();
        spans.dedup_by(|next, span| {
            let joins = next.0 <= span.1.div_ceil(spp_pm::CACHE_LINE) * spp_pm::CACHE_LINE;
            if joins {
                span.1 = span.1.max(next.1);
            }
            joins
        });
        for &(start, end) in spans.iter() {
            pm.flush(start, (end - start) as usize)?;
        }
        pm.fence();
        // 2. Commit point.
        self.ulog.set_committed(pm)?;
        pm.mark("tx_commit");
        // 3. Deferred frees, each atomic via the lane redo.
        let redo = self.pool.redo(self.lane);
        for live in &s.frees {
            redo.commit(pm, &mut s.redo, [live.retired().state_entry()])?;
            self.pool.arenas().retired(self.lane, live);
        }
        // 4. Done.
        self.ulog.clear(pm)
    }

    pub(crate) fn rollback(&mut self) -> Result<()> {
        let pm = self.pool.pm();
        let s = &mut *self.scratch;
        self.ulog.rollback_snapshots(pm, &mut s.undo, &mut s.old)?;
        for born in &s.allocs {
            // The oid may have escaped into (rolled-back) PM or volatile
            // state, so the block is retired exactly as a real free would —
            // matching what crash recovery does for AllocOnAbort.
            born.retired().persist_state(pm)?;
            self.pool.arenas().retired(self.lane, born);
        }
        self.ulog.clear(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_set_is_exact_and_survives_growth_and_epochs() {
        // An epoch wrap wipes stale stamps instead of trusting them: this
        // range was stamped with epoch 1, the epoch the wrap restarts at.
        let mut set = SnapshotSet::default();
        set.insert((64, 8));
        set.epoch = u32::MAX;
        set.clear();
        assert_eq!(set.epoch, 1);
        assert!(!set.contains((64, 8)));
        for tx in 0..3u64 {
            set.clear();
            for i in 0..100u64 {
                let r = (4096 + 8 * i, 8 + tx);
                assert!(!set.contains(r));
                set.insert(r);
                assert!(set.contains(r));
                // Same offset, other length: a different range.
                assert!(!set.contains((r.0, r.1 + 1)));
            }
            assert_eq!(set.ranges.len(), 100);
            assert!(set.slots.len() >= 200);
        }
        // The last transaction's ranges are gone after a clear.
        set.clear();
        assert!(!set.contains((4096, 10)));
    }
}
