//! The SafePM [`MemoryPolicy`] implementation.

use std::sync::Arc;

use spp_core::{MemoryPolicy, Result, SppError};
use spp_pmdk::{ObjPool, OidDest, OidKind, PmemOid};

use crate::shadow::{Shadow, REDZONE_BYTES};

/// The `SafePM` variant of Table I: per-access persistent shadow checks.
#[derive(Debug, Clone)]
pub struct SafePmPolicy {
    pool: Arc<ObjPool>,
    shadow: Shadow,
}

impl SafePmPolicy {
    /// Instrument a *fresh* pool: allocates the shadow object (1/8 of the
    /// pool) and records it in the pool's durable user slot.
    ///
    /// # Errors
    ///
    /// Allocation errors (the pool must have room for the shadow).
    pub fn create(pool: Arc<ObjPool>) -> Result<Self> {
        let size = Shadow::required_size(pool.pm().size());
        let obj = pool.zalloc(size)?;
        pool.set_user_slot(obj.off)?;
        let shadow = Shadow::new(obj.off, pool.pm().size());
        Ok(SafePmPolicy { pool, shadow })
    }

    /// Re-attach to a pool previously instrumented with
    /// [`SafePmPolicy::create`] — the shadow (and therefore all safety
    /// metadata) survived the restart inside the pool.
    ///
    /// # Errors
    ///
    /// [`SppError::Pmdk`] if the pool has no shadow recorded.
    pub fn open(pool: Arc<ObjPool>) -> Result<Self> {
        let off = pool.user_slot()?;
        if off == 0 {
            return Err(SppError::Pmdk(spp_pmdk::PmdkError::BadPool(
                "pool was not instrumented with SafePM (no shadow recorded)".into(),
            )));
        }
        let shadow = Shadow::new(off, pool.pm().size());
        Ok(SafePmPolicy { pool, shadow })
    }

    /// The shadow view (exposed for tests and diagnostics).
    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// Padded allocation size: payload + right redzone.
    fn padded(size: u64) -> u64 {
        size + REDZONE_BYTES
    }
}

impl MemoryPolicy for SafePmPolicy {
    fn name(&self) -> &'static str {
        "SafePM"
    }

    fn oid_kind(&self) -> OidKind {
        OidKind::Pmdk
    }

    fn pool(&self) -> &Arc<ObjPool> {
        &self.pool
    }

    #[inline]
    fn direct(&self, oid: PmemOid) -> u64 {
        if oid.is_null() {
            return 0;
        }
        self.pool.direct(oid)
    }

    #[inline]
    fn gep(&self, ptr: u64, delta: i64) -> u64 {
        ptr.wrapping_add(delta as u64)
    }

    #[inline]
    fn resolve(&self, ptr: u64, len: u64) -> Result<u64> {
        let off = self.pool.pm().resolve(ptr, len as usize)?;
        self.shadow.check(&self.pool, off, len.max(1))?;
        Ok(off)
    }

    fn alloc_oid(&self, dest: Option<OidDest>, size: u64, zero: bool) -> Result<PmemOid> {
        // Allocate payload + redzone, unpoison the payload, then publish —
        // so a crash never leaves a reachable-but-poisoned object. Each
        // step is durable on its own (the allocation and the publish are
        // redo-logged, the shadow update is persisted), so a crash falls
        // between two of them. After the allocation the block is poisoned
        // and unreferenced; after the unpoison it is allocated, addressable
        // and unreferenced. Either is a leak, the one stock PMDK's atomic
        // API has when its caller crashes before publishing, and neither
        // makes a poisoned object reachable or a free block addressable.
        let padded = Self::padded(size);
        let oid = if zero {
            self.pool.zalloc(padded)?
        } else {
            self.pool.alloc(padded)?
        };
        self.shadow.unpoison(&self.pool, oid.off, size)?;
        if let Some(d) = dest {
            self.pool
                .publish_oid(d, PmemOid::new(oid.pool_uuid, oid.off, size))?;
        }
        Ok(PmemOid::new(oid.pool_uuid, oid.off, size))
    }

    fn free_oid(&self, dest: Option<OidDest>, oid: PmemOid) -> Result<()> {
        // Unpublish first (no dangling valid oid), then poison, then free:
        // `alloc_oid`'s order reversed. A crash after the unpublish leaves
        // an allocated, unreferenced block (a leak); after the poison, the
        // same block poisoned. The block is poisoned while it is still
        // allocated, so no crash state holds a free block whose shadow says
        // addressable. Freeing first would: a durable stale oid into it
        // would then pass the check, and so would an overflow into the
        // redzone of a smaller object allocated there later.
        if let Some(d) = dest {
            self.pool.unpublish_oid(d)?;
        }
        let usable = self.pool.usable_size(oid)?;
        self.shadow.poison(&self.pool, oid.off, usable)?;
        self.pool
            .free(PmemOid::new(oid.pool_uuid, oid.off, usable))?;
        Ok(())
    }

    fn tx_alloc(&self, tx: &mut spp_pmdk::Tx<'_>, size: u64, zero: bool) -> Result<PmemOid> {
        let padded = Self::padded(size);
        let oid = if zero {
            tx.zalloc(padded)?
        } else {
            tx.alloc(padded)?
        };
        // The shadow follows the transaction: snapshotted before it
        // changes, so an abort or a crash before commit re-poisons the
        // block along with freeing it.
        self.shadow.snapshot(tx, oid.off, size)?;
        self.shadow.unpoison(&self.pool, oid.off, size)?;
        Ok(PmemOid::new(oid.pool_uuid, oid.off, size))
    }

    fn tx_free(&self, tx: &mut spp_pmdk::Tx<'_>, oid: PmemOid) -> Result<()> {
        // Poison eagerly, after snapshotting the shadow in the same
        // transaction: an abort or a crash before commit restores the
        // surviving object's shadow with its data. Deferring the poison to
        // after commit instead would leave a window where a crash keeps the
        // freed block unpoisoned.
        let usable = self.pool.usable_size(oid)?;
        self.shadow.snapshot(tx, oid.off, usable)?;
        self.shadow.poison(&self.pool, oid.off, usable)?;
        tx.free(PmemOid::new(oid.pool_uuid, oid.off, usable))?;
        Ok(())
    }

    fn realloc_oid(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> Result<PmemOid> {
        // Crash-safe in this order: the new object is allocated, unpoisoned
        // and filled (a leak until published), then one redo-logged publish
        // switches `dest` from the old object to the complete new one, and
        // only then is the old one retired, poisoned before it is freed as
        // in `free_oid`. So at every crash point `dest` names exactly one
        // whole, unpoisoned object (the old one before the publish, the new
        // one after), no free block is addressable, and at most one block
        // leaks.
        let new = self.alloc_oid(None, new_size, false)?;
        let old_usable = self.pool.usable_size(oid)?;
        let copy = (old_usable - REDZONE_BYTES.min(old_usable)).min(new_size);
        if copy > 0 {
            // Raw copy: both regions are live and in bounds by construction.
            let mut buf = vec![0u8; copy as usize];
            self.pool.read(oid.off, &mut buf)?;
            self.pool.write(new.off, &buf)?;
            self.pool.persist(new.off, copy as usize)?;
        }
        self.pool.publish_oid(dest, new)?;
        self.shadow.poison(&self.pool, oid.off, old_usable)?;
        self.pool
            .free(PmemOid::new(oid.pool_uuid, oid.off, old_usable))?;
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{PmPool, PoolConfig};
    use spp_pmdk::PoolOpts;

    fn policy() -> SafePmPolicy {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        SafePmPolicy::create(pool).unwrap()
    }

    #[test]
    fn in_bounds_ok() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        p.store_u64(ptr, 1).unwrap();
        p.store_u64(p.gep(ptr, 56), 2).unwrap();
        assert_eq!(p.load_u64(ptr).unwrap(), 1);
    }

    #[test]
    fn overflow_detected_at_granule_precision() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        // 64 is granule-aligned: first byte past the end is caught.
        let err = p.store(p.gep(ptr, 64), &[1]).unwrap_err();
        assert!(matches!(
            err,
            SppError::OverflowDetected {
                mechanism: "shadow",
                ..
            }
        ));
    }

    #[test]
    fn last_granule_prefix_is_byte_precise() {
        // The shadow byte encodes the addressable prefix, so contiguous
        // overflows are caught byte-precisely even mid-granule (42 % 8 = 2).
        let p = policy();
        let oid = p.zalloc(42).unwrap();
        let ptr = p.direct(oid);
        p.store(p.gep(ptr, 41), &[1]).unwrap(); // last valid byte
        assert!(p.store(p.gep(ptr, 42), &[1]).is_err());
    }

    #[test]
    fn redzone_jump_is_the_known_miss() {
        // The gap SPP closes: a *non-contiguous* overflow that leaps past
        // the redzone into another live allocation looks like a perfectly
        // valid access to the shadow — redzone-based tools cannot attribute
        // the target to the wrong object. SPP's distance tag catches this
        // (see `spp_core::spp_policy` tests); SafePM does not, which is why
        // it misses more RIPE attacks than SPP (Table IV).
        let p = policy();
        let a = p.zalloc(32).unwrap();
        let b = p.zalloc(32).unwrap();
        let pa = p.direct(a);
        let jump = (b.off - a.off) as i64; // well past a's redzone
        p.store_u64(p.gep(pa, jump), 0x41).unwrap(); // silent corruption of b
        assert_eq!(p.load_u64(p.direct(b)).unwrap(), 0x41);
    }

    #[test]
    fn free_poisons_whole_block() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        p.store_u64(ptr, 1).unwrap();
        p.free(oid).unwrap();
        let err = p.load_u64(ptr).unwrap_err();
        assert!(matches!(
            err,
            SppError::OverflowDetected {
                mechanism: "shadow",
                ..
            }
        ));
    }

    #[test]
    fn shadow_survives_reopen() {
        let pm = Arc::new(PmPool::new(
            PoolConfig::new(1 << 20).mode(spp_pm::Mode::Tracked),
        ));
        let pool = Arc::new(ObjPool::create(Arc::clone(&pm), PoolOpts::small()).unwrap());
        let p = SafePmPolicy::create(Arc::clone(&pool)).unwrap();
        let oid = p.zalloc(32).unwrap();
        let freed = p.zalloc(32).unwrap();
        p.free(freed).unwrap();
        // Crash and reopen: metadata must still protect.
        let img = pm.crash_image(spp_pm::CrashSpec::DropUnpersisted);
        let pm2 = Arc::new(PmPool::from_image(img, PoolConfig::new(0)));
        let pool2 = Arc::new(ObjPool::open(pm2).unwrap());
        let p2 = SafePmPolicy::open(pool2).unwrap();
        let ptr = p2.direct(oid);
        p2.load_u64(ptr).unwrap(); // live object still addressable
        let err = p2.load_u64(p2.gep(ptr, 32)).unwrap_err(); // overflow caught
        assert!(err.is_violation());
        let err = p2.load_u64(p2.direct(freed)).unwrap_err(); // freed caught
        assert!(err.is_violation());
    }

    #[test]
    fn alloc_into_publishes_after_unpoison() {
        let p = policy();
        let home = p.zalloc(64).unwrap();
        let hp = p.direct(home);
        let obj = p.zalloc_into_ptr(hp, 32).unwrap();
        let loaded = p.load_oid(hp).unwrap();
        assert_eq!(loaded.off, obj.off);
        p.store_u64(p.direct(loaded), 5).unwrap();
        p.free_from_ptr(hp, loaded).unwrap();
        assert!(p.load_oid(hp).unwrap().is_null());
    }

    #[test]
    fn realloc_moves_and_protects() {
        let p = policy();
        let home = p.zalloc(64).unwrap();
        let hp = p.direct(home);
        let obj = p.zalloc_into_ptr(hp, 32).unwrap();
        p.store(p.direct(obj), b"abcdefgh").unwrap();
        let new = p.realloc_from_ptr(hp, obj, 128).unwrap();
        let mut b = [0u8; 8];
        p.load(p.direct(new), &mut b).unwrap();
        assert_eq!(&b, b"abcdefgh");
        // Old location is poisoned now.
        assert!(p.load_u64(p.direct(obj)).unwrap_err().is_violation());
        // New bounds enforced at byte... granule precision.
        assert!(p.store(p.gep(p.direct(new), 128), &[1]).is_err());
    }

    #[test]
    fn an_aborted_tx_free_leaves_the_object_readable() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        p.store_u64(ptr, 7).unwrap();
        let mut h = p.pool().tx_begin().unwrap();
        p.tx_free(h.tx(), oid).unwrap();
        h.rollback().unwrap();
        assert_eq!(p.load_u64(ptr).unwrap(), 7);
        assert_eq!(p.load_u64(p.gep(ptr, 56)).unwrap(), 0);
    }

    #[test]
    fn an_aborted_tx_alloc_leaves_the_block_poisoned() {
        let p = policy();
        let mut h = p.pool().tx_begin().unwrap();
        let oid = p.tx_alloc(h.tx(), 64, false).unwrap();
        let ptr = p.direct(oid);
        p.store_u64(ptr, 1).unwrap();
        h.rollback().unwrap();
        let err = p.load_u64(ptr).unwrap_err();
        assert!(
            matches!(
                err,
                SppError::OverflowDetected {
                    mechanism: "shadow",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn open_requires_instrumented_pool() {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        assert!(SafePmPolicy::open(pool).is_err());
    }
}
