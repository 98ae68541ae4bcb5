//! The SPP policy: tagged pointers over the adapted PMDK.
//!
//! This type performs, in plain Rust, exactly the operation sequence the
//! paper's LLVM pass injects into an instrumented application: tag creation
//! in `pmemobj_direct`, tag updates on pointer arithmetic, and the implicit
//! bound check (tag update + masking) before every dereference.

use std::sync::Arc;

use spp_pmdk::{ObjPool, OidDest, OidKind, PmemOid};

use crate::config::TagConfig;
use crate::error::SppError;
use crate::policy::MemoryPolicy;
use crate::{is_pm_ptr, Result, OVERFLOW_BIT, PM_BIT};

/// The `SPP` variant of Table I.
#[derive(Debug, Clone)]
pub struct SppPolicy {
    pool: Arc<ObjPool>,
    cfg: TagConfig,
}

impl SppPolicy {
    /// Wrap a pool with SPP tagged-pointer semantics under `cfg`.
    ///
    /// # Errors
    ///
    /// [`SppError::PoolTooLarge`] if the pool mapping extends past the
    /// encoding's addressable range (`2^(62 - tag_bits)`); remap the pool at
    /// a lower base or reduce the tag width (§IV-F "address space layout").
    pub fn new(pool: Arc<ObjPool>, cfg: TagConfig) -> Result<Self> {
        let end_va = pool.pm().base() + pool.pm().size();
        if end_va > cfg.max_va() {
            return Err(SppError::PoolTooLarge {
                end_va,
                max_va: cfg.max_va(),
            });
        }
        Ok(SppPolicy { pool, cfg })
    }

    /// The active tag encoding.
    pub fn config(&self) -> TagConfig {
        self.cfg
    }

    fn classify_fault(&self, masked: u64, len: u64) -> SppError {
        if masked & OVERFLOW_BIT != 0 {
            SppError::OverflowDetected {
                va: masked,
                len,
                mechanism: "overflow-bit",
            }
        } else {
            SppError::Fault { va: masked }
        }
    }
}

impl MemoryPolicy for SppPolicy {
    fn name(&self) -> &'static str {
        "SPP"
    }

    fn oid_kind(&self) -> OidKind {
        OidKind::Spp
    }

    fn pool(&self) -> &Arc<ObjPool> {
        &self.pool
    }

    /// The adapted `pmemobj_direct` (§IV-B): derive a tagged pointer from
    /// the enhanced oid's durable size field, carrying the oid's
    /// allocation-generation key (SPP+T) below the tag.
    ///
    /// The oid comes from PM, so a stray store may have made it one the
    /// pool could never issue — a size above [`TagConfig::max_object_size`]
    /// or an offset outside the mapping. Such an oid yields a pointer with
    /// the overflow bit set: its dereference fails, it never resolves
    /// inside the mapping, and no field spills into the tag.
    #[inline]
    fn direct(&self, oid: PmemOid) -> u64 {
        if oid.is_null() {
            return 0;
        }
        let pm = self.pool.pm();
        let va = pm.base().wrapping_add(oid.off);
        if oid.off >= pm.size() || oid.size > self.cfg.max_object_size() {
            return PM_BIT | OVERFLOW_BIT | (va & self.cfg.va_mask());
        }
        // An oid decoded from a stock 16-byte field has size 0; treat it as
        // untracked (full-range tag) rather than a zero-byte object.
        let size = if oid.size == 0 {
            self.cfg.max_object_size()
        } else {
            oid.size
        };
        self.cfg.make_tagged_gen(va, size, oid.gen)
    }

    /// A GEP plus its injected `__spp_updatetag` (Fig. 3): address and tag
    /// move together; volatile pointers (no PM bit) take plain arithmetic.
    #[inline]
    fn gep(&self, ptr: u64, delta: i64) -> u64 {
        if !is_pm_ptr(ptr) {
            return ptr.wrapping_add(delta as u64);
        }
        self.cfg.offset(ptr, delta)
    }

    /// The injected `__spp_checkbound` + dereference: mask the tag keeping
    /// the overflow bit, then (SPP+T) validate the pointer's generation key
    /// against the allocator's live-generation index, then let the
    /// (simulated) MMU do the rest.
    #[inline]
    fn resolve(&self, ptr: u64, len: u64) -> Result<u64> {
        if !is_pm_ptr(ptr) {
            return self
                .pool
                .pm()
                .resolve(ptr, len as usize)
                .map_err(|_| self.classify_fault(ptr, len));
        }
        let masked = self.cfg.check_bound(ptr, len.max(1));
        if masked & OVERFLOW_BIT != 0 {
            return Err(self.classify_fault(masked, len));
        }
        // SPP+T temporal check — one relaxed byte load. The pointer's bound
        // (`va + distance_to_bound`) is invariant under pointer arithmetic,
        // so it uniquely keys the originating allocation; a freed, moved or
        // in-place-realloc'd allocation no longer has this generation live
        // at that bound and the stale pointer faults deterministically.
        // Key 0 means untracked (stock oids, spatial-only configs).
        let gen = self.cfg.gen_of(ptr);
        if gen != 0 {
            let bound_va = self.cfg.va_of(ptr) + self.cfg.distance_to_bound(ptr).unwrap_or(0);
            let live = bound_va
                .checked_sub(self.pool.pm().base())
                .map_or(0, |bound_off| self.pool.gen_at_bound(bound_off));
            if live != gen {
                return Err(SppError::TemporalViolation {
                    va: self.cfg.va_of(ptr),
                    mechanism: "generation-tag",
                });
            }
        }
        self.pool
            .pm()
            .resolve(masked, len as usize)
            .map_err(|_| self.classify_fault(masked, len))
    }

    fn alloc_oid(&self, dest: Option<OidDest>, size: u64, zero: bool) -> Result<PmemOid> {
        // The adapted PMDK caps object sizes at 2^tag_bits (§IV-G).
        if size > self.cfg.max_object_size() {
            return Err(SppError::ObjectTooLarge {
                size,
                max: self.cfg.max_object_size(),
            });
        }
        let oid = match (dest, zero) {
            (Some(d), true) => self.pool.zalloc_into(d, size)?,
            (Some(d), false) => self.pool.alloc_into(d, size)?,
            (None, true) => self.pool.zalloc(size)?,
            (None, false) => self.pool.alloc(size)?,
        };
        Ok(oid)
    }

    fn free_oid(&self, dest: Option<OidDest>, oid: PmemOid) -> Result<()> {
        match dest {
            Some(d) => self.pool.free_from(d, oid)?,
            None => self.pool.free(oid)?,
        }
        Ok(())
    }

    fn realloc_oid(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> Result<PmemOid> {
        if new_size > self.cfg.max_object_size() {
            return Err(SppError::ObjectTooLarge {
                size: new_size,
                max: self.cfg.max_object_size(),
            });
        }
        Ok(self.pool.realloc_into(dest, oid, new_size)?)
    }

    fn tx_alloc(&self, tx: &mut spp_pmdk::Tx<'_>, size: u64, zero: bool) -> Result<PmemOid> {
        if size > self.cfg.max_object_size() {
            return Err(SppError::ObjectTooLarge {
                size,
                max: self.cfg.max_object_size(),
            });
        }
        Ok(if zero {
            tx.zalloc(size)?
        } else {
            tx.alloc(size)?
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{PmPool, PoolConfig};
    use spp_pmdk::PoolOpts;

    fn policy() -> SppPolicy {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        SppPolicy::new(pool, TagConfig::default()).unwrap()
    }

    #[test]
    fn in_bounds_roundtrip() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        assert!(is_pm_ptr(ptr));
        p.store_u64(ptr, 7).unwrap();
        p.store_u64(p.gep(ptr, 56), 8).unwrap();
        assert_eq!(p.load_u64(ptr).unwrap(), 7);
        assert_eq!(p.load_u64(p.gep(ptr, 56)).unwrap(), 8);
    }

    #[test]
    fn overflow_detected_at_exact_boundary() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        // Last valid byte.
        p.store(p.gep(ptr, 63), &[1]).unwrap();
        // One past the end — detected even though the pool has room.
        let err = p.store(p.gep(ptr, 64), &[1]).unwrap_err();
        assert!(matches!(
            err,
            SppError::OverflowDetected {
                mechanism: "overflow-bit",
                ..
            }
        ));
        // Multi-byte access whose tail crosses.
        let err = p.store_u64(p.gep(ptr, 57), 0).unwrap_err();
        assert!(matches!(err, SppError::OverflowDetected { .. }));
    }

    #[test]
    fn overflow_into_adjacent_object_detected() {
        // The case the native baseline misses.
        let p = policy();
        let a = p.zalloc(16).unwrap();
        let b = p.zalloc(16).unwrap();
        let pa = p.direct(a);
        let delta = (b.off - a.off) as i64;
        let err = p.store_u64(p.gep(pa, delta), 0x41).unwrap_err();
        assert!(matches!(err, SppError::OverflowDetected { .. }));
    }

    #[test]
    fn pointer_recovers_when_back_in_bounds() {
        let p = policy();
        let oid = p.zalloc(32).unwrap();
        let mut ptr = p.direct(oid);
        ptr = p.gep(ptr, 40); // out
        assert!(p.load_u64(ptr).is_err());
        ptr = p.gep(ptr, -40); // back
        p.load_u64(ptr).unwrap();
    }

    #[test]
    fn object_size_cap_enforced() {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        let p = SppPolicy::new(pool, TagConfig::new(10).unwrap()).unwrap(); // 1 KiB max
        assert!(p.zalloc(1024).is_ok());
        assert!(matches!(
            p.zalloc(1025),
            Err(SppError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn pool_mapping_must_fit_address_bits() {
        // A pool mapped at 4 GiB overshoots phoenix's 31 address bits
        // (2 GiB) — and the default encoding's 29 (512 MiB).
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20).base(1 << 32)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        assert!(matches!(
            SppPolicy::new(Arc::clone(&pool), TagConfig::phoenix()),
            Err(SppError::PoolTooLarge { .. })
        ));
        assert!(matches!(
            SppPolicy::new(pool, TagConfig::default()),
            Err(SppError::PoolTooLarge { .. })
        ));
        // At the default base (128 MiB) both encodings fit.
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
        assert!(SppPolicy::new(Arc::clone(&pool), TagConfig::phoenix()).is_ok());
        assert!(SppPolicy::new(pool, TagConfig::default()).is_ok());
    }

    #[test]
    fn use_after_free_faults_on_deref() {
        let p = policy();
        let oid = p.zalloc(64).unwrap();
        let ptr = p.direct(oid);
        p.store_u64(ptr, 7).unwrap();
        p.free_oid(None, oid).unwrap();
        let err = p.load_u64(ptr).unwrap_err();
        assert!(matches!(
            err,
            SppError::TemporalViolation {
                mechanism: "generation-tag",
                ..
            }
        ));
        // Interior pointers derived before the free are just as dead.
        assert!(matches!(
            p.load_u64(p.gep(ptr, 8)),
            Err(SppError::TemporalViolation { .. })
        ));
    }

    #[test]
    fn stale_pointer_after_slot_reuse_faults() {
        let p = policy();
        let a = p.zalloc(64).unwrap();
        let pa = p.direct(a);
        p.free_oid(None, a).unwrap();
        // Same block, same size class: LIFO reuse gives the same slot back.
        let b = p.zalloc(64).unwrap();
        assert_eq!(a.off, b.off);
        let pb = p.direct(b);
        p.store_u64(pb, 42).unwrap();
        // The new pointer works; the pre-free pointer still faults (ABA).
        assert_eq!(p.load_u64(pb).unwrap(), 42);
        assert!(matches!(
            p.load_u64(pa),
            Err(SppError::TemporalViolation { .. })
        ));
    }

    #[test]
    fn realloc_kills_the_old_generation() {
        let p = policy();
        let home = p.zalloc(64).unwrap();
        let hp = p.direct(home);
        let obj = p.zalloc_into_ptr(hp, 33).unwrap();
        let stale = p.direct(obj);
        p.store_u64(stale, 9).unwrap();
        // Grow within the same size class (33 and 48 both round to 64):
        // in-place, yet the generation bumps and the old pointer dies.
        let grown = p.realloc_from_ptr(hp, obj, 48).unwrap();
        assert_eq!(grown.off, obj.off);
        assert!(matches!(
            p.load_u64(stale),
            Err(SppError::TemporalViolation { .. })
        ));
        assert_eq!(p.load_u64(p.direct(grown)).unwrap(), 9);
        // And oid-level ops with the stale oid are rejected temporally too.
        assert!(matches!(
            p.free_oid(None, obj),
            Err(SppError::TemporalViolation { .. })
        ));
    }

    #[test]
    fn oid_roundtrip_preserves_tag_reconstruction() {
        // Store an oid in PM, load it back, and verify the reconstructed
        // tagged pointer enforces the same bounds.
        let p = policy();
        let home = p.zalloc(64).unwrap();
        let home_ptr = p.direct(home);
        let obj = p.alloc_into_ptr(home_ptr, 48).unwrap();
        let loaded = p.load_oid(home_ptr).unwrap();
        assert_eq!(loaded.off, obj.off);
        assert_eq!(loaded.size, 48);
        let ptr = p.direct(loaded);
        p.store(p.gep(ptr, 47), &[1]).unwrap();
        assert!(p.store(p.gep(ptr, 48), &[1]).is_err());
    }

    #[test]
    fn an_oid_the_pool_could_not_issue_yields_a_pointer_that_faults() {
        // A stray store over a published oid's size word (+16) or off word
        // (+8): a size past the 64 MiB cap, one that would wrap the tag to
        // a small object, an offset far outside the mapping.
        let max = TagConfig::default().max_object_size();
        for (word, value) in [(16, max + 100), (16, 1 << 40), (8, 1 << 40)] {
            let p = policy();
            let home = p.zalloc(64).unwrap();
            let hp = p.direct(home);
            p.alloc_into_ptr(hp, 48).unwrap();
            p.store_u64(p.gep(hp, word), value).unwrap();
            let ptr = p.direct(p.load_oid(hp).unwrap());
            assert!(is_pm_ptr(ptr));
            for (at, len) in [(0, 1), (0, 48), (40, 8)] {
                let err = p.load(p.gep(ptr, at), &mut vec![0; len]).unwrap_err();
                assert!(
                    matches!(err, SppError::OverflowDetected { .. }),
                    "word +{word} = {value:#x}, {len} bytes at +{at}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn wrapped_memcpy_detects_overflowing_ranges() {
        let p = policy();
        let a = p.zalloc(32).unwrap();
        let b = p.zalloc(32).unwrap();
        let pa = p.direct(a);
        let pb = p.direct(b);
        p.memcpy(pb, pa, 32).unwrap();
        let err = p.memcpy(pb, pa, 33).unwrap_err();
        assert!(matches!(err, SppError::OverflowDetected { .. }));
    }

    #[test]
    fn wrapped_strcpy_detects_unterminated_source() {
        let p = policy();
        let src = p.zalloc(8).unwrap();
        let dst = p.zalloc(64).unwrap();
        let ps = p.direct(src);
        let pd = p.direct(dst);
        // Fill src completely with non-NUL bytes: strlen runs past the
        // object; the wrapper's range check then flags the source.
        p.store(ps, b"AAAAAAAA").unwrap();
        let err = p.strcpy(pd, ps).unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn wrapped_strcpy_detects_small_destination() {
        let p = policy();
        let src = p.zalloc(16).unwrap();
        let dst = p.zalloc(8).unwrap();
        let ps = p.direct(src);
        let pd = p.direct(dst);
        p.store(ps, b"0123456789\0").unwrap();
        let err = p.strcpy(pd, ps).unwrap_err();
        assert!(matches!(err, SppError::OverflowDetected { .. }));
    }

    #[test]
    fn volatile_pointers_unaffected() {
        let p = policy();
        let vol = 0x5555u64;
        assert_eq!(p.gep(vol, 16), 0x5565);
        // resolve of a volatile pointer inside the pool range: it has no PM
        // bit, so SPP doesn't touch it; the pool happens to contain the VA.
        let base = p.pool().pm().base();
        assert!(p.resolve(base + 64, 8).is_ok());
    }

    #[test]
    fn realloc_updates_durable_size() {
        let p = policy();
        let home = p.zalloc(64).unwrap();
        let hp = p.direct(home);
        let obj = p.zalloc_into_ptr(hp, 32).unwrap();
        let new_obj = p.realloc_from_ptr(hp, obj, 300).unwrap();
        assert_eq!(new_obj.size, 300);
        let loaded = p.load_oid(hp).unwrap();
        assert_eq!(loaded.size, 300);
        let ptr = p.direct(loaded);
        p.store(p.gep(ptr, 299), &[1]).unwrap();
        assert!(p.store(p.gep(ptr, 300), &[1]).is_err());
    }
}
