//! The memory-safety policy abstraction.
//!
//! Every workload in this workspace (persistent indices, the KV store, the
//! Phoenix kernels, the RIPE attack matrix) is generic over
//! [`MemoryPolicy`]. The three implementations correspond to the paper's
//! benchmarking variants (Table I):
//!
//! | Variant  | Type                         | Mechanism                      |
//! |----------|------------------------------|--------------------------------|
//! | `PMDK`   | [`crate::PmdkPolicy`]        | none (native pointers)         |
//! | `SPP`    | [`crate::SppPolicy`]         | tagged pointers, overflow bit  |
//! | `SafePM` | `spp_safepm::SafePmPolicy`   | persistent shadow memory       |
//!
//! The trait's *required* surface is the set of operations the paper's
//! compiler pass instruments: pointer creation ([`MemoryPolicy::direct`]),
//! pointer arithmetic ([`MemoryPolicy::gep`]), access validation
//! ([`MemoryPolicy::resolve`]) and PM heap management. Loads, stores,
//! memory intrinsics and string functions are provided as default methods
//! on top, so the cost profile of each variant comes solely from its
//! mechanism.

use std::sync::Arc;

use spp_pmdk::{ObjPool, OidDest, OidKind, PmemOid, Tx, OID_SIZE_SPP};

use crate::error::SppError;
use crate::Result;

/// A pointer-level memory-safety policy over a persistent object pool.
///
/// `ptr` values flowing through this trait are *simulated native pointers*
/// (u64 virtual addresses), tagged or not depending on the policy.
pub trait MemoryPolicy: Send + Sync {
    /// Variant name as it appears in the paper's figures (`PMDK`, `SPP`,
    /// `SafePM`).
    fn name(&self) -> &'static str;

    /// On-media oid encoding used by persistent structures under this
    /// policy.
    fn oid_kind(&self) -> OidKind;

    /// The underlying object pool.
    fn pool(&self) -> &Arc<ObjPool>;

    /// `pmemobj_direct`: oid → native pointer (tagged under SPP).
    fn direct(&self, oid: PmemOid) -> u64;

    /// Pointer arithmetic (a GEP): advance `ptr` by `delta` bytes, carrying
    /// whatever metadata the policy maintains.
    fn gep(&self, ptr: u64, delta: i64) -> u64;

    /// Validate an access of `len` bytes through `ptr` and return the pool
    /// offset to access.
    ///
    /// # Errors
    ///
    /// [`SppError::OverflowDetected`] when the policy's mechanism catches an
    /// out-of-bounds access; [`SppError::Fault`] when the access is a wild
    /// crash.
    fn resolve(&self, ptr: u64, len: u64) -> Result<u64>;

    /// Allocate `size` bytes, optionally zeroed, optionally publishing the
    /// oid at a resolved PM destination.
    ///
    /// # Errors
    ///
    /// Pool allocation errors; [`SppError::ObjectTooLarge`] under encodings
    /// with a size cap.
    fn alloc_oid(&self, dest: Option<OidDest>, size: u64, zero: bool) -> Result<PmemOid>;

    /// Free an object, optionally nulling the oid at a resolved PM
    /// destination.
    ///
    /// # Errors
    ///
    /// Pool errors for invalid oids.
    fn free_oid(&self, dest: Option<OidDest>, oid: PmemOid) -> Result<()>;

    /// Reallocate an object, republishing the oid at a resolved PM
    /// destination.
    ///
    /// # Errors
    ///
    /// Pool errors; on failure the original object is untouched.
    fn realloc_oid(&self, dest: OidDest, oid: PmemOid, new_size: u64) -> Result<PmemOid>;

    // ---------- defaults: allocation sugar ----------

    /// Allocate without initialisation (volatile-held oid).
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::alloc_oid`].
    fn alloc(&self, size: u64) -> Result<PmemOid> {
        self.alloc_oid(None, size, false)
    }

    /// Allocate zeroed (volatile-held oid).
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::alloc_oid`].
    fn zalloc(&self, size: u64) -> Result<PmemOid> {
        self.alloc_oid(None, size, true)
    }

    /// Resolve `dest_ptr` as an oid field and allocate into it atomically.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::alloc_oid`] plus resolution errors on `dest_ptr`.
    fn alloc_into_ptr(&self, dest_ptr: u64, size: u64) -> Result<PmemOid> {
        let off = self.resolve(dest_ptr, self.oid_kind().on_media_size())?;
        self.alloc_oid(
            Some(OidDest {
                off,
                kind: self.oid_kind(),
            }),
            size,
            false,
        )
    }

    /// Zeroed [`MemoryPolicy::alloc_into_ptr`].
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::alloc_into_ptr`].
    fn zalloc_into_ptr(&self, dest_ptr: u64, size: u64) -> Result<PmemOid> {
        let off = self.resolve(dest_ptr, self.oid_kind().on_media_size())?;
        self.alloc_oid(
            Some(OidDest {
                off,
                kind: self.oid_kind(),
            }),
            size,
            true,
        )
    }

    /// Free an object held by a volatile oid.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::free_oid`].
    fn free(&self, oid: PmemOid) -> Result<()> {
        self.free_oid(None, oid)
    }

    /// Free the object whose oid is stored at `dest_ptr`, nulling the field.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::free_oid`] plus resolution errors.
    fn free_from_ptr(&self, dest_ptr: u64, oid: PmemOid) -> Result<()> {
        let off = self.resolve(dest_ptr, self.oid_kind().on_media_size())?;
        self.free_oid(
            Some(OidDest {
                off,
                kind: self.oid_kind(),
            }),
            oid,
        )
    }

    /// Reallocate the object whose oid is stored at `dest_ptr`.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::realloc_oid`] plus resolution errors.
    fn realloc_from_ptr(&self, dest_ptr: u64, oid: PmemOid, new_size: u64) -> Result<PmemOid> {
        let off = self.resolve(dest_ptr, self.oid_kind().on_media_size())?;
        self.realloc_oid(
            OidDest {
                off,
                kind: self.oid_kind(),
            },
            oid,
            new_size,
        )
    }

    // ---------- defaults: loads & stores ----------

    /// Load `buf.len()` bytes through `ptr`.
    ///
    /// # Errors
    ///
    /// Resolution errors (overflow detection / fault).
    fn load(&self, ptr: u64, buf: &mut [u8]) -> Result<()> {
        let off = self.resolve(ptr, buf.len() as u64)?;
        self.pool().read(off, buf)?;
        Ok(())
    }

    /// Store `data` through `ptr` (no flush).
    ///
    /// # Errors
    ///
    /// Resolution errors (overflow detection / fault).
    fn store(&self, ptr: u64, data: &[u8]) -> Result<()> {
        let off = self.resolve(ptr, data.len() as u64)?;
        self.pool().write(off, data)?;
        Ok(())
    }

    /// Load a little-endian `u64` through `ptr`.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn load_u64(&self, ptr: u64) -> Result<u64> {
        let off = self.resolve(ptr, 8)?;
        Ok(self.pool().read_u64(off)?)
    }

    /// Store a little-endian `u64` through `ptr` (no flush).
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn store_u64(&self, ptr: u64, v: u64) -> Result<()> {
        let off = self.resolve(ptr, 8)?;
        self.pool().write_u64(off, v)?;
        Ok(())
    }

    /// Flush + fence the `len` bytes at `ptr`.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn persist(&self, ptr: u64, len: u64) -> Result<()> {
        let off = self.resolve(ptr, len)?;
        self.pool().persist(off, len as usize)?;
        Ok(())
    }

    /// Flush the `len` bytes at `ptr` **without fencing**: the stores
    /// become durable at the next fence on the pool. Batched writers use
    /// this so one commit-time fence covers every staged object.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn flush(&self, ptr: u64, len: u64) -> Result<()> {
        let off = self.resolve(ptr, len)?;
        self.pool().flush(off, len as usize)?;
        Ok(())
    }

    /// Load an oid stored at `ptr` under this policy's encoding.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn load_oid(&self, ptr: u64) -> Result<PmemOid> {
        let kind = self.oid_kind();
        let off = self.resolve(ptr, kind.on_media_size())?;
        Ok(self.pool().oid_read(off, kind)?)
    }

    /// Store an oid at `ptr` (non-atomic: transactional or atomic-API
    /// publication is required for crash consistency).
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn store_oid(&self, ptr: u64, oid: PmemOid) -> Result<()> {
        let kind = self.oid_kind();
        let off = self.resolve(ptr, kind.on_media_size())?;
        self.pool().oid_write(off, oid, kind)?;
        Ok(())
    }

    // ---------- defaults: transactions ----------

    /// Snapshot `len` bytes at `ptr` into the transaction's undo log, with
    /// this policy's bounds validation (SPP §V-B performs a bounds check on
    /// snapshotted ranges to prevent log-mediated leaks).
    ///
    /// # Errors
    ///
    /// Resolution errors or undo-log capacity errors.
    fn tx_snapshot(&self, tx: &mut Tx<'_>, ptr: u64, len: u64) -> Result<()> {
        let off = self.resolve(ptr, len)?;
        tx.snapshot(off, len)?;
        Ok(())
    }

    /// Snapshot + write through a transaction.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::tx_snapshot`].
    fn tx_write(&self, tx: &mut Tx<'_>, ptr: u64, data: &[u8]) -> Result<()> {
        let off = self.resolve(ptr, data.len() as u64)?;
        tx.snapshot(off, data.len() as u64)?;
        self.pool().write(off, data)?;
        Ok(())
    }

    /// Snapshot + write a `u64` through a transaction.
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::tx_snapshot`].
    fn tx_write_u64(&self, tx: &mut Tx<'_>, ptr: u64, v: u64) -> Result<()> {
        self.tx_write(tx, ptr, &v.to_le_bytes())
    }

    /// Snapshot + write an oid through a transaction. Under SPP the
    /// snapshot automatically covers the extra 8-byte size field because the
    /// encoding size comes from [`MemoryPolicy::oid_kind`] — the paper's
    /// "implicitly added in the transactional undo log" behaviour (§IV-F).
    ///
    /// # Errors
    ///
    /// As [`MemoryPolicy::tx_snapshot`].
    fn tx_write_oid(&self, tx: &mut Tx<'_>, ptr: u64, oid: PmemOid) -> Result<()> {
        let mut buf = [0; OID_SIZE_SPP as usize];
        self.tx_write(tx, ptr, oid.encode_into(&mut buf, self.oid_kind()))
    }

    /// Transactional allocation (freed if the transaction aborts), with the
    /// policy's size accounting (SPP's object-size cap, SafePM's redzones).
    ///
    /// # Errors
    ///
    /// Allocation/undo-log errors.
    fn tx_alloc(&self, tx: &mut Tx<'_>, size: u64, zero: bool) -> Result<PmemOid> {
        Ok(if zero {
            tx.zalloc(size)?
        } else {
            tx.alloc(size)?
        })
    }

    /// Transactional free (performed at commit).
    ///
    /// # Errors
    ///
    /// Invalid-oid or undo-log errors.
    fn tx_free(&self, tx: &mut Tx<'_>, oid: PmemOid) -> Result<()> {
        tx.free(oid)?;
        Ok(())
    }

    // ---------- defaults: wrapped memory intrinsics (§IV-D) ----------

    /// Wrapped `memcpy`: validates the full `[src, src+n)` and
    /// `[dst, dst+n)` ranges, then copies.
    ///
    /// # Errors
    ///
    /// Resolution errors on either range.
    fn memcpy(&self, dst: u64, src: u64, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let s = self.resolve(src, n)?;
        let d = self.resolve(dst, n)?;
        copy_pool_bytes(self.pool(), s, d, n)
    }

    /// Wrapped `memmove`: overlap-safe chunked copy. Copies forward when
    /// the destination starts below the source (or the ranges are
    /// disjoint) and backward otherwise, so each chunk is read before any
    /// write can clobber it — no full-range staging buffer.
    ///
    /// # Errors
    ///
    /// Resolution errors on either range.
    fn memmove(&self, dst: u64, src: u64, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let s = self.resolve(src, n)?;
        let d = self.resolve(dst, n)?;
        move_pool_bytes(self.pool(), s, d, n)
    }

    /// Wrapped `memset`.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn memset(&self, ptr: u64, byte: u8, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let off = self.resolve(ptr, n)?;
        self.pool().pm().fill(off, byte, n as usize)?;
        Ok(())
    }

    // ---------- defaults: wrapped string functions (§IV-D) ----------

    /// Wrapped `strlen`: scans the *masked* pointer for a NUL, bounded by
    /// the pool mapping. Like the real wrapper, the scan itself is not
    /// bounds-checked per byte — the byte count it returns is what the
    /// calling wrapper validates against the object bounds.
    ///
    /// # Errors
    ///
    /// Resolution errors for the first byte; [`SppError::Fault`] if no NUL
    /// exists before the end of the mapping.
    fn strlen(&self, ptr: u64) -> Result<u64> {
        let start = self.resolve(ptr, 1)?;
        let pool_size = self.pool().pm().size();
        let mut off = start;
        let mut buf = [0u8; 256];
        while off < pool_size {
            let chunk = (pool_size - off).min(256) as usize;
            self.pool().read(off, &mut buf[..chunk])?;
            if let Some(i) = buf[..chunk].iter().position(|&b| b == 0) {
                return Ok(off - start + i as u64);
            }
            off += chunk as u64;
        }
        Err(SppError::Fault {
            va: self.pool().pm().base() + pool_size,
        })
    }

    /// Wrapped `strcpy`: computes `n = strlen(src) + 1` and validates both
    /// argument ranges for `n` bytes before copying — so an overflowing
    /// destination *or* an unterminated source object is caught by policies
    /// with per-object bounds.
    ///
    /// # Errors
    ///
    /// Resolution errors on either range.
    fn strcpy(&self, dst: u64, src: u64) -> Result<()> {
        let n = self.strlen(src)? + 1;
        self.memcpy(dst, src, n)
    }

    /// Wrapped `strcat`.
    ///
    /// # Errors
    ///
    /// Resolution errors.
    fn strcat(&self, dst: u64, src: u64) -> Result<()> {
        let dlen = self.strlen(dst)?;
        let n = self.strlen(src)? + 1;
        self.memcpy(self.gep(dst, dlen as i64), src, n)
    }

    /// Wrapped `strcmp` on masked pointers.
    ///
    /// # Errors
    ///
    /// Resolution errors for the initial bytes.
    fn strcmp(&self, a: u64, b: u64) -> Result<std::cmp::Ordering> {
        let la = self.strlen(a)?;
        let lb = self.strlen(b)?;
        let oa = self.resolve(a, la + 1)?;
        let ob = self.resolve(b, lb + 1)?;
        let mut va = vec![0u8; la as usize];
        let mut vb = vec![0u8; lb as usize];
        self.pool().read(oa, &mut va)?;
        self.pool().read(ob, &mut vb)?;
        Ok(va.cmp(&vb))
    }
}

/// Chunked pool-to-pool copy (avoids a full-size volatile buffer).
fn copy_pool_bytes(pool: &ObjPool, src: u64, dst: u64, n: u64) -> Result<()> {
    let mut buf = [0u8; 4096];
    let mut done = 0u64;
    while done < n {
        let chunk = (n - done).min(4096) as usize;
        pool.read(src + done, &mut buf[..chunk])?;
        pool.write(dst + done, &buf[..chunk])?;
        done += chunk as u64;
    }
    Ok(())
}

/// Chunked overlap-safe pool-to-pool copy (`memmove` semantics).
///
/// Direction rule: a forward copy reads each source chunk before the copy
/// front reaches it, which is only safe when the destination starts below
/// the source or the ranges are disjoint; when the destination starts
/// inside the source range, the copy runs backward from the tail instead.
fn move_pool_bytes(pool: &ObjPool, src: u64, dst: u64, n: u64) -> Result<()> {
    if src == dst {
        return Ok(());
    }
    let mut buf = [0u8; 4096];
    if dst < src || dst >= src + n {
        let mut done = 0u64;
        while done < n {
            let chunk = (n - done).min(4096) as usize;
            pool.read(src + done, &mut buf[..chunk])?;
            pool.write(dst + done, &buf[..chunk])?;
            done += chunk as u64;
        }
    } else {
        let mut left = n;
        while left > 0 {
            let chunk = left.min(4096) as usize;
            left -= chunk as u64;
            pool.read(src + left, &mut buf[..chunk])?;
            pool.write(dst + left, &buf[..chunk])?;
        }
    }
    Ok(())
}
