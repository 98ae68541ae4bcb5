//! The persistent shadow region and its poisoning operations.

use spp_core::{Result, SppError};
use spp_pmdk::{ObjPool, Tx};

/// Bytes of application memory covered by one shadow byte.
pub const SHADOW_GRANULE: u64 = 8;

/// Right-redzone padding appended to every allocation.
pub const REDZONE_BYTES: u64 = 16;

/// Fully addressable granule.
const ADDRESSABLE: u8 = 8;

/// A view over the shadow object inside the pool.
///
/// The shadow covers the whole pool at 1/8 scale:
/// `shadow_byte(off) = shadow_base + off / 8`. The shadow object itself is
/// an ordinary pool allocation whose offset is stored in the pool's durable
/// user slot, so it is found again on reopen.
#[derive(Debug, Clone, Copy)]
pub struct Shadow {
    base: u64,
    covered: u64,
}

impl Shadow {
    /// Size of the shadow object needed to cover `pool_size` bytes.
    pub fn required_size(pool_size: u64) -> u64 {
        pool_size.div_ceil(SHADOW_GRANULE)
    }

    /// Create a view given the shadow object's pool offset.
    pub fn new(base: u64, pool_size: u64) -> Self {
        Shadow {
            base,
            covered: pool_size,
        }
    }

    /// Pool offset of the shadow byte covering application offset `off`.
    #[inline]
    fn byte_of(&self, off: u64) -> u64 {
        self.base + off / SHADOW_GRANULE
    }

    /// Check that `[off, off + len)` is fully addressable.
    ///
    /// # Errors
    ///
    /// [`SppError::OverflowDetected`] (mechanism `"shadow"`) on the first
    /// poisoned byte.
    pub fn check(&self, pool: &ObjPool, off: u64, len: u64) -> Result<()> {
        debug_assert!(len > 0);
        let first_g = off / SHADOW_GRANULE;
        let last_g = (off + len - 1) / SHADOW_GRANULE;
        let n_g = (last_g - first_g + 1) as usize;
        let mut shadow = [0u8; 64];
        let mut checked = 0usize;
        while checked < n_g {
            let chunk = (n_g - checked).min(64);
            pool.read(self.base + first_g + checked as u64, &mut shadow[..chunk])?;
            for (i, &s) in shadow[..chunk].iter().enumerate() {
                let g = first_g + (checked + i) as u64;
                // First byte within this granule that the access touches.
                let lo = off.max(g * SHADOW_GRANULE);
                // Last byte within this granule that the access touches.
                let hi = (off + len - 1).min(g * SHADOW_GRANULE + SHADOW_GRANULE - 1);
                let need = (hi - g * SHADOW_GRANULE) + 1; // prefix length needed
                if (s as u64) < need {
                    return Err(SppError::OverflowDetected {
                        va: lo,
                        len,
                        mechanism: "shadow",
                    });
                }
            }
            checked += chunk;
        }
        Ok(())
    }

    /// Mark `[off, off + size)` addressable and persist the shadow update.
    ///
    /// `off` must be granule-aligned (pool payloads are 16-aligned).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn unpoison(&self, pool: &ObjPool, off: u64, size: u64) -> Result<()> {
        debug_assert_eq!(off % SHADOW_GRANULE, 0);
        let full = size / SHADOW_GRANULE;
        let partial = size % SHADOW_GRANULE;
        let start = self.byte_of(off);
        if full > 0 {
            pool.pm().fill(start, ADDRESSABLE, full as usize)?;
        }
        if partial > 0 {
            pool.write(start + full, &[partial as u8])?;
        }
        let total = full + u64::from(partial > 0);
        pool.persist(start, total.max(1) as usize)?;
        Ok(())
    }

    /// Poison `[off, off + size)` and persist the shadow update.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn poison(&self, pool: &ObjPool, off: u64, size: u64) -> Result<()> {
        debug_assert_eq!(off % SHADOW_GRANULE, 0);
        let granules = size.div_ceil(SHADOW_GRANULE);
        let start = self.byte_of(off);
        pool.pm().fill(start, 0, granules as usize)?;
        pool.persist(start, granules.max(1) as usize)?;
        Ok(())
    }

    /// Snapshot into `tx`'s undo log the shadow bytes that
    /// [`Self::unpoison`] or [`Self::poison`] of `[off, off + size)`
    /// change, so an abort or recovery restores them with the data.
    ///
    /// # Errors
    ///
    /// Undo-log errors.
    pub fn snapshot(&self, tx: &mut Tx<'_>, off: u64, size: u64) -> Result<()> {
        let granules = size.div_ceil(SHADOW_GRANULE).max(1);
        Ok(tx.snapshot(self.byte_of(off), granules)?)
    }

    /// Total application bytes covered.
    pub fn covered(&self) -> u64 {
        self.covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{PmPool, PoolConfig};
    use spp_pmdk::PoolOpts;
    use std::sync::Arc;

    fn setup() -> (ObjPool, Shadow) {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        let pool = ObjPool::create(pm, PoolOpts::small()).unwrap();
        let size = Shadow::required_size(pool.pm().size());
        let obj = pool.zalloc(size).unwrap();
        let shadow = Shadow::new(obj.off, pool.pm().size());
        (pool, shadow)
    }

    #[test]
    fn default_is_poisoned() {
        let (pool, shadow) = setup();
        let err = shadow.check(&pool, 0x8000, 8).unwrap_err();
        assert!(matches!(
            err,
            SppError::OverflowDetected {
                mechanism: "shadow",
                ..
            }
        ));
    }

    #[test]
    fn unpoison_exact_range() {
        let (pool, shadow) = setup();
        shadow.unpoison(&pool, 0x8000, 20).unwrap();
        shadow.check(&pool, 0x8000, 20).unwrap();
        shadow.check(&pool, 0x8000 + 16, 4).unwrap();
        // Byte 20 is within the last granule's slack (20 % 8 = 4): bytes
        // 20..24 are *not* addressable.
        assert!(shadow.check(&pool, 0x8000 + 20, 1).is_err());
        // Past the last granule: poisoned.
        assert!(shadow.check(&pool, 0x8000 + 24, 1).is_err());
        // An access spanning the boundary is caught.
        assert!(shadow.check(&pool, 0x8000 + 16, 8).is_err());
    }

    #[test]
    fn poison_after_free() {
        let (pool, shadow) = setup();
        shadow.unpoison(&pool, 0x8000, 64).unwrap();
        shadow.check(&pool, 0x8000, 64).unwrap();
        shadow.poison(&pool, 0x8000, 64).unwrap();
        assert!(shadow.check(&pool, 0x8000, 1).is_err());
    }

    #[test]
    fn granule_math_spans_chunks() {
        let (pool, shadow) = setup();
        // > 64 granules to exercise the chunked loop.
        shadow.unpoison(&pool, 0x10000, 1024).unwrap();
        shadow.check(&pool, 0x10000, 1024).unwrap();
        assert!(shadow.check(&pool, 0x10000, 1025).is_err());
        assert!(shadow.check(&pool, 0x10000 + 512, 513).is_err());
    }

    #[test]
    fn required_size_covers_pool() {
        assert_eq!(Shadow::required_size(1 << 20), 1 << 17);
        assert_eq!(Shadow::required_size(100), 13);
    }
}
