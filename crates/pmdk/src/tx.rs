//! Software transactions (the `pmemobj_tx_*` analogue).
//!
//! A transaction never touches a block's state word: it holds the
//! [`BlockInfo`]s it allocated and will free and drives them through
//! `alloc.rs`'s lifecycle — the atomic API's reserve / durable flip /
//! `adopted`-or-`retired` bracket, the undo log covering the flip.

use std::collections::HashSet;

use crate::alloc::{dead_oid, BlockInfo};
use crate::oid::PmemOid;
use crate::pool::ObjPool;
use crate::ulog::UndoLog;
use crate::{PmdkError, Result};

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
    /// Deduplication of snapshot ranges (exact-match, like PMDK's range tree
    /// in spirit).
    snapshotted: HashSet<(u64, u64)>,
    /// Ranges to flush at commit.
    ranges: Vec<(u64, u64)>,
    /// Live blocks allocated inside this tx (retired on abort).
    allocs: Vec<BlockInfo>,
    /// Live blocks to retire at commit.
    frees: Vec<BlockInfo>,
}

impl<'p> Tx<'p> {
    pub(crate) fn new(pool: &'p ObjPool, lane: usize, ulog: UndoLog) -> Self {
        Tx {
            pool,
            lane,
            ulog,
            snapshotted: HashSet::new(),
            ranges: Vec::new(),
            allocs: Vec::new(),
            frees: Vec::new(),
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
        if len == 0 || !self.snapshotted.insert((off, len)) {
            return Ok(());
        }
        let mut old = vec![0u8; len as usize];
        self.pool.pm().read(off, &mut old)?;
        self.ulog.append_snapshot(self.pool.pm(), off, &old)?;
        if self.pool.pm().mode() == spp_pm::Mode::Tracked {
            self.pool.pm().mark(format!("tx_add:{off}:{len}"));
        }
        self.ranges.push((off, len));
        Ok(())
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
        self.allocs.push(born);
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
        if self.frees.iter().any(|b| b.off == live.off) {
            return Err(dead_oid(oid, live.retired().gen));
        }
        self.ulog.append_free(self.pool.pm(), live.off)?;
        self.frees.push(live);
        Ok(())
    }

    /// Abort explicitly with a message (sugar for returning
    /// [`PmdkError::TxAborted`] from the closure).
    pub fn abort(&self, reason: impl Into<String>) -> PmdkError {
        PmdkError::TxAborted(reason.into())
    }

    pub(crate) fn commit(self) -> Result<()> {
        let pm = self.pool.pm();
        // 1. Make all writes to snapshotted ranges durable. Ranges are
        // sorted and merged cache-line-wise first: a batched (group-commit)
        // transaction snapshots many small chain-edit ranges, and adjacent
        // or same-line ranges collapse into one CLWB sweep instead of one
        // flush call each. Over-flushing the sub-line gaps is safe — a
        // flush only makes stores durable earlier, never later.
        let mut spans: Vec<(u64, u64)> = self
            .ranges
            .iter()
            .map(|&(off, len)| (off, off + len))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some((_, pe)) if s <= pe.div_ceil(spp_pm::CACHE_LINE) * spp_pm::CACHE_LINE => {
                    *pe = (*pe).max(e);
                }
                _ => merged.push((s, e)),
            }
        }
        for &(s, e) in &merged {
            pm.flush(s, (e - s) as usize)?;
        }
        pm.fence();
        // 2. Commit point.
        self.ulog.set_committed(pm)?;
        pm.mark("tx_commit");
        // 3. Deferred frees, each atomic via the lane redo.
        let redo = self.pool.redo(self.lane);
        for live in &self.frees {
            redo.commit(pm, &[live.retired().state_entry()])?;
            self.pool.arenas().retired(self.lane, live);
        }
        // 4. Done.
        self.ulog.clear(pm)
    }

    pub(crate) fn rollback(self) -> Result<()> {
        let pm = self.pool.pm();
        self.ulog.rollback_snapshots(pm)?;
        for born in &self.allocs {
            // The oid may have escaped into (rolled-back) PM or volatile
            // state, so the block is retired exactly as a real free would —
            // matching what crash recovery does for AllocOnAbort.
            born.retired().persist_state(pm)?;
            self.pool.arenas().retired(self.lane, born);
        }
        self.ulog.clear(pm)
    }
}
