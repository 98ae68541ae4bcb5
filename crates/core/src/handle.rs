//! Checked object handles: one bound + generation check per object, not
//! per field.
//!
//! The paper's compiler pass keeps SPP's per-dereference tax low by
//! hoisting and preempting bound checks, so one check covers an object
//! rather than each of its fields. [`ObjRef`] is that hoisting done by
//! hand over any [`MemoryPolicy`]: building one does exactly one
//! [`MemoryPolicy::direct`] and one [`MemoryPolicy::resolve`] over the
//! whole extent the caller is about to touch, so the policy's bound check
//! (SPP's tag, SafePM's shadow over the full range, PMDK's mapping edge)
//! and SPP+T's generation check run once. Every access after that is an
//! offset into the resolved extent, checked by a plain range compare —
//! no policy call, no GEP, no re-resolve.
//!
//! The handle is a permission, and its lifetime says how long it holds:
//! [`ObjRef::new`] takes a borrow of whatever keeps the object alive — a
//! lock guard excluding the writers that could free it, or its owner —
//! and the handle cannot outlive that borrow. A handle built under a
//! stripe guard is unusable once the guard drops:
//!
//! ```compile_fail,E0597
//! # use std::sync::{Arc, RwLock};
//! # use spp_pm::{PmPool, PoolConfig};
//! # use spp_pmdk::{ObjPool, PoolOpts};
//! # use spp_core::{MemoryPolicy, ObjRef, PmdkPolicy};
//! # let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
//! # let policy = PmdkPolicy::new(Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap()));
//! # let node = policy.zalloc(64).unwrap();
//! let stripe = RwLock::new(());
//! let handle = {
//!     let guard = stripe.read().unwrap();
//!     ObjRef::new(&policy, node, 64, &guard).unwrap()
//! }; // the guard drops here: a writer may now free the node
//! handle.read_u64(0).unwrap(); // error[E0597]: `guard` does not live long enough
//! ```
//!
//! while the same accesses inside the guard's scope compile and run:
//!
//! ```
//! # use std::sync::{Arc, RwLock};
//! # use spp_pm::{PmPool, PoolConfig};
//! # use spp_pmdk::{ObjPool, PoolOpts};
//! # use spp_core::{MemoryPolicy, ObjRef, PmdkPolicy};
//! # let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
//! # let policy = PmdkPolicy::new(Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap()));
//! # let node = policy.zalloc(64).unwrap();
//! let stripe = RwLock::new(());
//! let guard = stripe.read().unwrap();
//! let handle = ObjRef::new(&policy, node, 64, &guard).unwrap();
//! handle.write_u64(56, 7).unwrap();
//! assert_eq!(handle.read_u64(56).unwrap(), 7);
//! assert!(handle.read_u64(57).is_err()); // past the resolved extent
//! ```
//!
//! An object its holder never frees or resizes while it lives — a hash
//! table's bucket array — can keep its check for good: [`ObjRef::detach`]
//! turns a handle into an [`Extent`], and [`ObjRef::attach`] lends it out
//! again for as long as the `Extent` is borrowed, with no new check. That
//! is a residual by design: the object's bound and generation are then
//! checked once per open, not once per access.

use spp_pmdk::{OidDest, PmemOid, Tx, OID_SIZE_SPP};

use crate::error::SppError;
use crate::policy::MemoryPolicy;
use crate::Result;

/// A checked view of `len` bytes of one PM object under policy `P`, valid
/// for `'a` (see the [module docs](self)).
pub struct ObjRef<'a, P: ?Sized> {
    policy: &'a P,
    /// Pool offset of the extent's first byte.
    off: u64,
    /// Bytes the one `resolve` validated.
    len: u64,
}

impl<P: ?Sized> Clone for ObjRef<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: ?Sized> Copy for ObjRef<'_, P> {}

impl<P: ?Sized> std::fmt::Debug for ObjRef<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjRef")
            .field("off", &format_args!("{:#x}", self.off))
            .field("len", &self.len)
            .finish()
    }
}

/// A resolved extent detached from its handle: the check an [`ObjRef`]
/// paid, kept by the owner of an object that outlives it. Only
/// [`ObjRef::detach`] makes one, and it is neither `Clone` nor `Copy`, so
/// whoever holds it decides who borrows it.
#[derive(Debug)]
pub struct Extent {
    off: u64,
    len: u64,
}

impl<'a, P: MemoryPolicy + ?Sized> ObjRef<'a, P> {
    /// Check `len` bytes of `oid`'s object: one `direct`, one
    /// `resolve(ptr, len)`. `_held` is a borrow of what keeps the object
    /// alive (a lock guard, the object's owner); the handle lives no
    /// longer than it.
    ///
    /// # Errors
    ///
    /// The policy's verdict on the whole extent: [`SppError::OverflowDetected`]
    /// when it does not fit the object, [`SppError::TemporalViolation`]
    /// when the oid is stale (SPP+T), [`SppError::Fault`] off the mapping.
    #[inline]
    pub fn new<G: ?Sized>(policy: &'a P, oid: PmemOid, len: u64, _held: &'a G) -> Result<Self> {
        let off = policy.resolve(policy.direct(oid), len)?;
        Ok(ObjRef { policy, off, len })
    }

    /// Re-lend a detached extent for as long as it is borrowed, with no
    /// new check.
    #[inline]
    pub fn attach(policy: &'a P, extent: &'a Extent) -> Self {
        ObjRef {
            policy,
            off: extent.off,
            len: extent.len,
        }
    }

    /// Keep this handle's check beyond its borrow. Only for an object the
    /// caller never frees or resizes while the [`Extent`] lives.
    pub fn detach(self) -> Extent {
        Extent {
            off: self.off,
            len: self.len,
        }
    }

    /// The pool offset of `n` bytes at `at`, if they lie in the extent.
    #[inline]
    fn at(&self, at: u64, n: u64) -> Result<u64> {
        match at.checked_add(n) {
            Some(end) if end <= self.len => Ok(self.off + at),
            _ => Err(SppError::OverflowDetected {
                va: self
                    .policy
                    .pool()
                    .pm()
                    .base()
                    .wrapping_add(self.off)
                    .wrapping_add(at),
                len: n,
                mechanism: "extent",
            }),
        }
    }

    /// Read `buf.len()` bytes at `at`.
    ///
    /// # Errors
    ///
    /// [`SppError::OverflowDetected`] (`"extent"`) outside the extent.
    #[inline]
    pub fn read(&self, at: u64, buf: &mut [u8]) -> Result<()> {
        let off = self.at(at, buf.len() as u64)?;
        Ok(self.policy.pool().read(off, buf)?)
    }

    /// Read a little-endian `u64` at `at`.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn read_u64(&self, at: u64) -> Result<u64> {
        let off = self.at(at, 8)?;
        Ok(self.policy.pool().read_u64(off)?)
    }

    /// Read an oid at `at` under the policy's encoding.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn read_oid(&self, at: u64) -> Result<PmemOid> {
        let kind = self.policy.oid_kind();
        let off = self.at(at, kind.on_media_size())?;
        Ok(self.policy.pool().oid_read(off, kind)?)
    }

    /// Store `data` at `at` (no flush).
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn write(&self, at: u64, data: &[u8]) -> Result<()> {
        let off = self.at(at, data.len() as u64)?;
        Ok(self.policy.pool().write(off, data)?)
    }

    /// Store a little-endian `u64` at `at` (no flush).
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn write_u64(&self, at: u64, v: u64) -> Result<()> {
        let off = self.at(at, 8)?;
        Ok(self.policy.pool().write_u64(off, v)?)
    }

    /// Store an oid at `at` (non-atomic, like [`MemoryPolicy::store_oid`]).
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn write_oid(&self, at: u64, oid: PmemOid) -> Result<()> {
        let kind = self.policy.oid_kind();
        let off = self.at(at, kind.on_media_size())?;
        Ok(self.policy.pool().oid_write(off, oid, kind)?)
    }

    /// Flush `n` bytes at `at` without fencing.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn flush(&self, at: u64, n: u64) -> Result<()> {
        let off = self.at(at, n)?;
        Ok(self.policy.pool().flush(off, n as usize)?)
    }

    /// Flush + fence `n` bytes at `at`.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn persist(&self, at: u64, n: u64) -> Result<()> {
        let off = self.at(at, n)?;
        Ok(self.policy.pool().persist(off, n as usize)?)
    }

    /// Snapshot + write `data` at `at` through a transaction.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`], or undo-log capacity errors.
    #[inline]
    pub fn tx_write(&self, tx: &mut Tx<'_>, at: u64, data: &[u8]) -> Result<()> {
        let off = self.at(at, data.len() as u64)?;
        tx.snapshot(off, data.len() as u64)?;
        Ok(self.policy.pool().write(off, data)?)
    }

    /// Snapshot + write a `u64` at `at` through a transaction.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::tx_write`].
    #[inline]
    pub fn tx_write_u64(&self, tx: &mut Tx<'_>, at: u64, v: u64) -> Result<()> {
        self.tx_write(tx, at, &v.to_le_bytes())
    }

    /// Snapshot + write an oid at `at` through a transaction; the snapshot
    /// covers the whole on-media oid, SPP's size word included.
    ///
    /// # Errors
    ///
    /// As [`ObjRef::tx_write`].
    #[inline]
    pub fn tx_write_oid(&self, tx: &mut Tx<'_>, at: u64, oid: PmemOid) -> Result<()> {
        let mut buf = [0; OID_SIZE_SPP as usize];
        self.tx_write(tx, at, oid.encode_into(&mut buf, self.policy.oid_kind()))
    }

    /// The oid field at `at` as a destination an allocation publishes into
    /// ([`MemoryPolicy::alloc_oid`]).
    ///
    /// # Errors
    ///
    /// As [`ObjRef::read`].
    #[inline]
    pub fn dest(&self, at: u64) -> Result<OidDest> {
        let kind = self.policy.oid_kind();
        Ok(OidDest {
            off: self.at(at, kind.on_media_size())?,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmdkPolicy, SppPolicy, TagConfig};
    use spp_pm::{PmPool, PoolConfig};
    use spp_pmdk::{ObjPool, PoolOpts};
    use std::sync::Arc;

    fn pool() -> Arc<ObjPool> {
        let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
        Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap())
    }

    #[test]
    fn the_extent_is_checked_once_and_bounds_every_access() {
        let p = SppPolicy::new(pool(), TagConfig::default()).unwrap();
        let oid = p.zalloc(64).unwrap();
        let obj = ObjRef::new(&p, oid, 64, &oid).unwrap();
        obj.write_u64(56, 9).unwrap();
        assert_eq!(obj.read_u64(56).unwrap(), 9);
        for (at, n) in [(57, 8), (64, 1), (u64::MAX, 2)] {
            let mut buf = vec![0; n];
            let err = obj.read(at, &mut buf).unwrap_err();
            assert!(
                matches!(
                    err,
                    SppError::OverflowDetected {
                        mechanism: "extent",
                        ..
                    }
                ),
                "+{at}/{n}: {err:?}"
            );
        }
        // A longer extent than the object is the policy's catch, at build.
        let err = ObjRef::new(&p, oid, 65, &oid).unwrap_err();
        assert!(matches!(
            err,
            SppError::OverflowDetected {
                mechanism: "overflow-bit",
                ..
            }
        ));
    }

    #[test]
    fn a_stale_oid_fails_at_build_under_spp_t() {
        let p = SppPolicy::new(pool(), TagConfig::default()).unwrap();
        let oid = p.zalloc(64).unwrap();
        p.free(oid).unwrap();
        let err = ObjRef::new(&p, oid, 64, &oid).unwrap_err();
        assert!(matches!(err, SppError::TemporalViolation { .. }), "{err:?}");
    }

    #[test]
    fn a_detached_extent_reattaches_without_a_check() {
        let p = PmdkPolicy::new(pool());
        let oid = p.zalloc(48).unwrap();
        let ext = ObjRef::new(&p, oid, 48, &oid).unwrap().detach();
        let obj = ObjRef::attach(&p, &ext);
        obj.write_oid(16, oid).unwrap();
        assert_eq!(obj.read_oid(16).unwrap().off, oid.off);
        assert_eq!(obj.dest(32).unwrap().off, oid.off + 32);
        assert!(obj.dest(33).is_err());
    }
}
