//! Per-lane persistent undo log backing software transactions.
//!
//! Region layout: `state(8) tail(8) entries...`. Each entry is
//! `kind(8) target(8) len(8) data[len padded to 8]`. The tail is advanced
//! *after* the entry bytes are durable, so a torn entry is never observed by
//! recovery. A live log keeps the tail it last published in volatile
//! memory and appends there; only recovery and rollback read `TAIL` back.
//!
//! Entry kinds:
//! * **snapshot** — `data` holds the pre-transaction bytes of
//!   `[target, target+len)`; rollback restores them in reverse order. The
//!   bytes travel PM → log (and back, on rollback) through a buffer the
//!   caller owns — a live transaction passes its lane's — in one store.
//! * **alloc-on-abort** — `target` is the block-header offset of an object
//!   allocated inside the transaction; rollback returns it to the free state.
//! * **free-on-commit** — `target` is the block-header offset of an object
//!   freed inside the transaction; commit processing performs the free.

use spp_pm::PmPool;

use crate::layout::{read_u64, write_u64};
use crate::{PmdkError, Result};

const STATE: u64 = 0;
const TAIL: u64 = 8;
const ENTRIES: u64 = 16;
const ENTRY_HDR: u64 = 24;

/// Durable transaction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxState {
    /// No transaction in flight.
    None,
    /// Transaction running: a crash rolls it back.
    Active,
    /// Commit point passed: a crash completes deferred work.
    Committed,
}

impl TxState {
    fn from_u64(v: u64) -> Result<TxState> {
        match v {
            0 => Ok(TxState::None),
            1 => Ok(TxState::Active),
            2 => Ok(TxState::Committed),
            other => Err(PmdkError::BadPool(format!("corrupt tx state {other}"))),
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            TxState::None => 0,
            TxState::Active => 1,
            TxState::Committed => 2,
        }
    }
}

/// A parsed undo-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UndoEntry {
    Snapshot { target: u64, old: Vec<u8> },
    AllocOnAbort { block_hdr: u64 },
    FreeOnCommit { block_hdr: u64 },
}

const KIND_SNAPSHOT: u64 = 1;
const KIND_ALLOC_ON_ABORT: u64 = 2;
const KIND_FREE_ON_COMMIT: u64 = 3;

/// A view over one lane's undo region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UndoLog {
    region_off: u64,
    capacity: u64,
    /// The `TAIL` this log last published (0 after `begin`/`clear`).
    tail: u64,
}

impl UndoLog {
    pub(crate) fn new(region_off: u64, capacity: u64) -> Self {
        UndoLog {
            region_off,
            capacity,
            tail: 0,
        }
    }

    pub(crate) fn state(&self, pm: &PmPool) -> Result<TxState> {
        TxState::from_u64(read_u64(pm, self.region_off + STATE)?)
    }

    fn set_state(&self, pm: &PmPool, s: TxState) -> Result<()> {
        write_u64(pm, self.region_off + STATE, s.as_u64())?;
        pm.persist(self.region_off + STATE, 8)?;
        Ok(())
    }

    /// Publish `tail` as the log's end.
    fn set_tail(&mut self, pm: &PmPool, tail: u64) -> Result<()> {
        write_u64(pm, self.region_off + TAIL, tail)?;
        pm.persist(self.region_off + TAIL, 8)?;
        self.tail = tail;
        Ok(())
    }

    /// Begin a transaction: reset the tail, then mark active.
    pub(crate) fn begin(&mut self, pm: &PmPool) -> Result<()> {
        self.set_tail(pm, 0)?;
        self.set_state(pm, TxState::Active)
    }

    /// Mark the commit point: deferred work is now guaranteed to happen.
    pub(crate) fn set_committed(&self, pm: &PmPool) -> Result<()> {
        self.set_state(pm, TxState::Committed)
    }

    /// Clear the log after commit/abort processing completes.
    pub(crate) fn clear(&mut self, pm: &PmPool) -> Result<()> {
        self.set_tail(pm, 0)?;
        self.set_state(pm, TxState::None)
    }

    /// The size of an entry with `len` data bytes, if it fits.
    pub(crate) fn room(&self, len: u64) -> Result<u64> {
        let needed = len.saturating_add(ENTRY_HDR + 7) & !7;
        if needed > self.capacity - self.tail {
            return Err(PmdkError::UndoLogFull {
                needed,
                capacity: self.capacity,
            });
        }
        Ok(needed)
    }

    /// Write the header of an entry at the tail; returns where its data
    /// goes.
    fn write_header(&self, pm: &PmPool, kind: u64, target: u64, len: u64) -> Result<u64> {
        let base = self.region_off + ENTRIES + self.tail;
        write_u64(pm, base, kind)?;
        write_u64(pm, base + 8, target)?;
        write_u64(pm, base + 16, len)?;
        Ok(base + ENTRY_HDR)
    }

    /// Make the `size`-byte entry at the tail durable, then bump the tail
    /// past it — the bump is what publishes it.
    fn publish(&mut self, pm: &PmPool, size: u64) -> Result<()> {
        pm.persist(self.region_off + ENTRIES + self.tail, size as usize)?;
        self.set_tail(pm, self.tail + size)
    }

    /// Record a snapshot of `[target, target+len)`: its current bytes are
    /// read into `old` and logged. `len` must be non-zero.
    pub(crate) fn append_snapshot(
        &mut self,
        pm: &PmPool,
        target: u64,
        len: u64,
        old: &mut Vec<u8>,
    ) -> Result<()> {
        let size = self.room(len)?;
        old.clear();
        old.resize(len as usize, 0);
        pm.read(target, old)?;
        let data = self.write_header(pm, KIND_SNAPSHOT, target, len)?;
        pm.write(data, old)?;
        self.publish(pm, size)
    }

    /// Record a block-header entry (no data).
    fn append_block(&mut self, pm: &PmPool, kind: u64, block_hdr: u64) -> Result<()> {
        let size = self.room(0)?;
        self.write_header(pm, kind, block_hdr, 0)?;
        self.publish(pm, size)
    }

    /// Record a transactional allocation (freed on abort).
    pub(crate) fn append_alloc(&mut self, pm: &PmPool, block_hdr: u64) -> Result<()> {
        self.append_block(pm, KIND_ALLOC_ON_ABORT, block_hdr)
    }

    /// Record a transactional free (performed at commit).
    pub(crate) fn append_free(&mut self, pm: &PmPool, block_hdr: u64) -> Result<()> {
        self.append_block(pm, KIND_FREE_ON_COMMIT, block_hdr)
    }

    /// Visit the published entries' headers in append order:
    /// `(data offset, kind, target, len)`. The headers come from PM, so a
    /// kind or a length no append could have written is corruption.
    fn walk(
        &self,
        pm: &PmPool,
        mut visit: impl FnMut(u64, u64, u64, u64) -> Result<()>,
    ) -> Result<()> {
        let tail = read_u64(pm, self.region_off + TAIL)?;
        let mut pos = 0u64;
        while pos < tail {
            let base = self.region_off + ENTRIES + pos;
            let kind = read_u64(pm, base)?;
            let target = read_u64(pm, base + 8)?;
            let len = read_u64(pm, base + 16)?;
            if !(KIND_SNAPSHOT..=KIND_FREE_ON_COMMIT).contains(&kind) || len > self.capacity {
                return Err(PmdkError::BadPool(format!(
                    "corrupt undo entry at {pos}: kind {kind}, len {len}"
                )));
            }
            visit(base + ENTRY_HDR, kind, target, len)?;
            pos += ENTRY_HDR + len.next_multiple_of(8);
        }
        Ok(())
    }

    /// Parse all published entries in append order.
    pub(crate) fn entries(&self, pm: &PmPool) -> Result<Vec<UndoEntry>> {
        let mut out = Vec::new();
        self.walk(pm, |data, kind, target, len| {
            out.push(match kind {
                KIND_SNAPSHOT => {
                    let mut old = vec![0u8; len as usize];
                    pm.read(data, &mut old)?;
                    UndoEntry::Snapshot { target, old }
                }
                KIND_ALLOC_ON_ABORT => UndoEntry::AllocOnAbort { block_hdr: target },
                _ => UndoEntry::FreeOnCommit { block_hdr: target },
            });
            Ok(())
        })?;
        Ok(out)
    }

    /// Restore all snapshots in reverse order (rollback of data writes).
    /// `snapshots` and `old` are buffers for the snapshot entries' headers
    /// and bytes.
    pub(crate) fn rollback_snapshots(
        &self,
        pm: &PmPool,
        snapshots: &mut Vec<[u64; 3]>,
        old: &mut Vec<u8>,
    ) -> Result<()> {
        snapshots.clear();
        self.walk(pm, |data, kind, target, len| {
            if kind == KIND_SNAPSHOT {
                snapshots.push([data, target, len]);
            }
            Ok(())
        })?;
        for &[data, target, len] in snapshots.iter().rev() {
            old.clear();
            old.resize(len as usize, 0);
            pm.read(data, old)?;
            pm.write(target, old)?;
            pm.persist(target, old.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
    use std::sync::Arc;

    fn pm() -> Arc<PmPool> {
        Arc::new(PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked)))
    }

    #[test]
    fn append_and_parse_roundtrip() {
        let pm = pm();
        let mut log = UndoLog::new(0, 4096);
        pm.write(0x1000, &[1, 2, 3, 4, 5]).unwrap();
        log.begin(&pm).unwrap();
        log.append_snapshot(&pm, 0x1000, 5, &mut Vec::new())
            .unwrap();
        log.append_alloc(&pm, 0x2000).unwrap();
        log.append_free(&pm, 0x3000).unwrap();
        let es = log.entries(&pm).unwrap();
        assert_eq!(es.len(), 3);
        assert_eq!(
            es[0],
            UndoEntry::Snapshot {
                target: 0x1000,
                old: vec![1, 2, 3, 4, 5]
            }
        );
        assert_eq!(es[1], UndoEntry::AllocOnAbort { block_hdr: 0x2000 });
        assert_eq!(es[2], UndoEntry::FreeOnCommit { block_hdr: 0x3000 });
        // The cached tail is the durable one.
        assert_eq!(read_u64(&pm, TAIL).unwrap(), log.tail);
    }

    #[test]
    fn capacity_enforced() {
        let pm = pm();
        let mut log = UndoLog::new(0, 64);
        log.begin(&pm).unwrap();
        log.append_snapshot(&pm, 0x1000, 16, &mut Vec::new())
            .unwrap(); // 24 + 16 = 40
        let err = log
            .append_snapshot(&pm, 0x1000, 16, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, PmdkError::UndoLogFull { .. }));
    }

    #[test]
    fn rollback_restores_in_reverse() {
        let pm = pm();
        let mut log = UndoLog::new(0, 4096);
        pm.write(0x1000, &[10u8; 8]).unwrap();
        log.begin(&pm).unwrap();
        log.append_snapshot(&pm, 0x1000, 8, &mut Vec::new())
            .unwrap();
        pm.write(0x1000, &[20u8; 8]).unwrap();
        // Second snapshot of the same range after modification.
        log.append_snapshot(&pm, 0x1000, 8, &mut Vec::new())
            .unwrap();
        pm.write(0x1000, &[30u8; 8]).unwrap();
        log.rollback_snapshots(&pm, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        let mut b = [0u8; 8];
        pm.read(0x1000, &mut b).unwrap();
        // Reverse order means the oldest snapshot wins.
        assert_eq!(b, [10u8; 8]);
    }

    #[test]
    fn a_snapshot_is_one_store_each_way_through_a_reused_buffer() {
        let pm = pm();
        let mut log = UndoLog::new(0, 8192);
        let mut buf = Vec::new();
        let len = 1500;
        let old: Vec<u8> = (0..len).map(|i| i as u8).collect();
        pm.write(0x4000, &old).unwrap();
        log.begin(&pm).unwrap();
        pm.reset_tracking();
        log.append_snapshot(&pm, 0x4000, len as u64, &mut buf)
            .unwrap();
        let stores = |pm: &PmPool| {
            let log = pm.event_log().unwrap();
            let n = log.events().iter();
            n.filter(|e| matches!(e, spp_pm::PmEvent::Store { .. }))
                .count()
        };
        // Three header words, the bytes, the tail.
        assert_eq!(stores(&pm), 5);
        pm.write(0x4000, &vec![0xEE; len]).unwrap();
        let es = log.entries(&pm).unwrap();
        assert_eq!(
            es,
            [UndoEntry::Snapshot {
                target: 0x4000,
                old: old.clone()
            }]
        );
        pm.reset_tracking();
        log.rollback_snapshots(&pm, &mut Vec::new(), &mut buf)
            .unwrap();
        assert_eq!(stores(&pm), 1);
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(&img.bytes()[0x4000..0x4000 + len], &old[..]);
    }

    #[test]
    fn torn_entry_not_published() {
        let pm = pm();
        let mut log = UndoLog::new(0, 4096);
        log.begin(&pm).unwrap();
        log.append_snapshot(&pm, 0x1000, 8, &mut Vec::new())
            .unwrap();
        // Manually write a second entry's header but crash before the tail
        // bump becomes durable: write entry bytes unpersisted.
        let tail = read_u64(&pm, TAIL).unwrap();
        let base = ENTRIES + tail;
        write_u64(&pm, base, KIND_SNAPSHOT).unwrap();
        // (no persist, no tail bump)
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(1 << 16)));
        let log2 = UndoLog::new(0, 4096);
        assert_eq!(log2.entries(&pm2).unwrap().len(), 1);
    }

    #[test]
    fn state_transitions() {
        let pm = pm();
        let mut log = UndoLog::new(0, 4096);
        assert_eq!(log.state(&pm).unwrap(), TxState::None);
        log.begin(&pm).unwrap();
        assert_eq!(log.state(&pm).unwrap(), TxState::Active);
        log.set_committed(&pm).unwrap();
        assert_eq!(log.state(&pm).unwrap(), TxState::Committed);
        log.clear(&pm).unwrap();
        assert_eq!(log.state(&pm).unwrap(), TxState::None);
        assert!(log.entries(&pm).unwrap().is_empty());
    }
}
