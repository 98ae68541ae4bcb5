//! Per-lane redo log: makes multi-word metadata updates atomic.
//!
//! An operation (allocation, free, reallocation, root creation) gathers a
//! list of `(target_offset, u64_value)` writes, persists them into the
//! lane's redo region, sets the *valid* flag, applies them, and clears the
//! flag. Recovery re-applies any log whose flag is set; application is
//! idempotent, so crashing at any point yields either none or all of the
//! writes — the PMDK allocator's atomicity mechanism.
//!
//! One [`RedoLog::apply`] performs the writes: [`RedoLog::commit`] feeds it
//! the entries it has just staged (it never reads its own log back), and
//! [`RedoLog::recover`] feeds it the log it reads back from PM. Staging
//! goes through a buffer the holding lane owns, sized by its slot count, so
//! a commit allocates nothing.
//!
//! Entry *order matters*: entries are applied first-to-last, which is how
//! SPP guarantees the oid `size` field is set before the validating `off`
//! field (paper §IV-F).
//!
//! Region layout: `valid(8) count(8) [target(8) value(8)]*slots`.

use spp_pm::PmPool;

use crate::layout::{read_u64, write_u64};
use crate::{PmdkError, Result};

/// A view over one lane's redo region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RedoLog {
    region_off: u64,
    slots: u64,
}

const VALID: u64 = 0;
const COUNT: u64 = 8;
const ENTRIES: u64 = 16;
/// Bytes of one `(target, value)` entry.
pub(crate) const ENTRY_SIZE: u64 = 16;

/// The `(target, value)` pairs of a staged or read-back log.
fn entries(log: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    log.chunks_exact(ENTRY_SIZE as usize)
        .map(move |e| (word(&e[..8]), word(&e[8..])))
}

impl RedoLog {
    pub(crate) fn new(region_off: u64, slots: u64) -> Self {
        RedoLog { region_off, slots }
    }

    /// Atomically perform `ops` (in order) via the redo protocol, staging
    /// them in `stage` — the holding lane's buffer.
    ///
    /// # Errors
    ///
    /// [`PmdkError::RedoLogFull`] if more entries than configured slots.
    pub(crate) fn commit(
        &self,
        pm: &PmPool,
        stage: &mut Vec<u8>,
        ops: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<()> {
        stage.clear();
        for (target, value) in ops {
            stage.extend_from_slice(&target.to_le_bytes());
            stage.extend_from_slice(&value.to_le_bytes());
        }
        let count = stage.len() as u64 / ENTRY_SIZE;
        if count > self.slots {
            return Err(PmdkError::RedoLogFull);
        }
        // 1. Stage entries and count.
        pm.write(self.region_off + ENTRIES, stage)?;
        write_u64(pm, self.region_off + COUNT, count)?;
        pm.persist(self.region_off + COUNT, 8 + stage.len())?;
        // 2. Validate the log. From here on, the operation is guaranteed to
        //    complete (possibly via recovery).
        write_u64(pm, self.region_off + VALID, 1)?;
        pm.persist(self.region_off + VALID, 8)?;
        // 3. Apply what was just staged.
        Self::apply(pm, entries(stage))?;
        // 4. Invalidate.
        self.invalidate(pm)
    }

    /// Perform a validated log's writes, first to last, then fence.
    fn apply(pm: &PmPool, log: impl Iterator<Item = (u64, u64)>) -> Result<()> {
        for (target, value) in log {
            write_u64(pm, target, value)?;
            pm.flush(target, 8)?;
        }
        pm.fence();
        Ok(())
    }

    fn invalidate(&self, pm: &PmPool) -> Result<()> {
        write_u64(pm, self.region_off + VALID, 0)?;
        pm.persist(self.region_off + VALID, 8)?;
        Ok(())
    }

    /// Whether the log's valid flag is set (an atomic operation was in
    /// flight when the pool last went down, or recovery was skipped).
    pub(crate) fn is_valid(&self, pm: &PmPool) -> Result<bool> {
        Ok(read_u64(pm, self.region_off + VALID)? == 1)
    }

    /// Clear a valid log *without* applying it — deliberately broken
    /// recovery, used by the torture rig's fault injection to prove the
    /// oracles catch a missing redo apply.
    pub(crate) fn discard(&self, pm: &PmPool) -> Result<bool> {
        if !self.is_valid(pm)? {
            return Ok(false);
        }
        self.invalidate(pm)?;
        Ok(true)
    }

    /// Recover this lane's redo log: if valid, re-apply and clear.
    ///
    /// Returns whether a log was applied.
    ///
    /// # Errors
    ///
    /// Device errors, or [`PmdkError::BadPool`] for a count beyond the
    /// lane's slots.
    pub(crate) fn recover(&self, pm: &PmPool) -> Result<bool> {
        if !self.is_valid(pm)? {
            return Ok(false);
        }
        let count = read_u64(pm, self.region_off + COUNT)?;
        if count > self.slots {
            return Err(PmdkError::BadPool(format!("corrupt redo count {count}")));
        }
        let mut log = vec![0u8; (count * ENTRY_SIZE) as usize];
        pm.read(self.region_off + ENTRIES, &mut log)?;
        Self::apply(pm, entries(&log))?;
        self.invalidate(pm)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{CrashSpec, Mode, PmPool, PoolConfig};
    use std::sync::Arc;

    fn pool() -> Arc<PmPool> {
        Arc::new(PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked)))
    }

    #[test]
    fn commit_applies_in_order() {
        let pm = pool();
        let log = RedoLog::new(0, 8);
        log.commit(&pm, &mut Vec::new(), [(0x1000, 7), (0x1008, 9)])
            .unwrap();
        assert_eq!(read_u64(&pm, 0x1000).unwrap(), 7);
        assert_eq!(read_u64(&pm, 0x1008).unwrap(), 9);
        // And the effects are durable.
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        assert_eq!(
            u64::from_le_bytes(img.bytes()[0x1000..0x1008].try_into().unwrap()),
            7
        );
    }

    #[test]
    fn overflow_rejected() {
        let pm = pool();
        let log = RedoLog::new(0, 1);
        let entries = vec![(0x1000u64, 1u64), (0x1008, 2)];
        assert!(matches!(
            log.commit(&pm, &mut Vec::new(), entries),
            Err(PmdkError::RedoLogFull)
        ));
    }

    #[test]
    fn recovery_completes_valid_log() {
        let pm = pool();
        let log = RedoLog::new(0, 8);
        // Simulate a crash right after validation: stage + validate by hand.
        pm.write(ENTRIES, &0x2000u64.to_le_bytes()).unwrap();
        pm.write(ENTRIES + 8, &42u64.to_le_bytes()).unwrap();
        write_u64(&pm, COUNT, 1).unwrap();
        pm.persist(COUNT, 24).unwrap();
        write_u64(&pm, VALID, 1).unwrap();
        pm.persist(VALID, 8).unwrap();
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(1 << 16).mode(Mode::Tracked),
        ));
        assert!(log.recover(&pm2).unwrap());
        assert_eq!(read_u64(&pm2, 0x2000).unwrap(), 42);
        // Second recovery is a no-op.
        assert!(!log.recover(&pm2).unwrap());
    }

    #[test]
    fn crash_before_validation_applies_nothing() {
        let pm = pool();
        // Stage without validating.
        pm.write(ENTRIES, &0x2000u64.to_le_bytes()).unwrap();
        pm.write(ENTRIES + 8, &42u64.to_le_bytes()).unwrap();
        write_u64(&pm, COUNT, 1).unwrap();
        pm.persist(COUNT, 24).unwrap();
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(1 << 16)));
        let log = RedoLog::new(0, 8);
        assert!(!log.recover(&pm2).unwrap());
        assert_eq!(read_u64(&pm2, 0x2000).unwrap(), 0);
    }

    #[test]
    fn recovery_refuses_a_count_beyond_the_slots() {
        // A valid flag over a count no commit could have written: refused
        // before anything is read or applied on its say-so.
        let pm = pool();
        write_u64(&pm, COUNT, 9).unwrap();
        write_u64(&pm, VALID, 1).unwrap();
        let log = RedoLog::new(0, 8);
        assert!(matches!(log.recover(&pm), Err(PmdkError::BadPool(_))));
        assert!(log.is_valid(&pm).unwrap());
    }

    #[test]
    fn crash_mid_apply_recovers_to_all_writes() {
        // Stage + validate a 3-entry log, apply only the first entry, crash.
        // Recovery must complete the remaining writes (all-or-nothing).
        let pm = pool();
        let entries: [(u64, u64); 3] = [(0x3000, 1), (0x3008, 2), (0x3010, 3)];
        let mut staged = Vec::new();
        for (t, v) in entries {
            staged.extend_from_slice(&t.to_le_bytes());
            staged.extend_from_slice(&v.to_le_bytes());
        }
        pm.write(ENTRIES, &staged).unwrap();
        write_u64(&pm, COUNT, 3).unwrap();
        pm.persist(COUNT, 8 + 48).unwrap();
        write_u64(&pm, VALID, 1).unwrap();
        pm.persist(VALID, 8).unwrap();
        // Partial application.
        write_u64(&pm, 0x3000, 1).unwrap();
        pm.persist(0x3000, 8).unwrap();
        let img = pm.crash_image(CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(
            img,
            PoolConfig::new(1 << 16).mode(Mode::Tracked),
        ));
        let log = RedoLog::new(0, 8);
        assert!(log.recover(&pm2).unwrap());
        assert_eq!(read_u64(&pm2, 0x3000).unwrap(), 1);
        assert_eq!(read_u64(&pm2, 0x3008).unwrap(), 2);
        assert_eq!(read_u64(&pm2, 0x3010).unwrap(), 3);
    }
}
