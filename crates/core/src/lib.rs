//! # spp-core — Safe Persistent Pointers
//!
//! The paper's primary contribution: a tagged-pointer spatial memory-safety
//! scheme for persistent memory, layered over the adapted PMDK substrate
//! ([`spp_pmdk`]) and the simulated PM device ([`spp_pm`]).
//!
//! ## The pointer representation (§IV-A)
//!
//! A 64-bit SPP pointer is split into four fields:
//!
//! ```text
//!  63    62        [62-tag_bits .. 62)   [0 .. address_bits)
//! +-----+---------+---------------------+--------------------+
//! | PM  | overflow|        tag          |  virtual address   |
//! +-----+---------+---------------------+--------------------+
//! ```
//!
//! * the **PM bit** distinguishes instrumented PM pointers from untouched
//!   volatile pointers (design goal #3);
//! * the **tag** is initialised to `2^tag_bits - size` — the two's
//!   complement of the object size — and is incremented alongside every
//!   pointer-arithmetic operation;
//! * the **overflow bit** receives the carry when the tag crosses
//!   `2^tag_bits`, i.e. the moment the pointer passes the object's upper
//!   bound, and is *kept* by [`TagConfig::clean_tag`], so a dereference of an
//!   out-of-bounds pointer resolves to an unmapped address and faults — a
//!   bounds check with no branch (§IV-A);
//! * walking back in bounds borrows the carry back and the pointer becomes
//!   valid again.
//!
//! ## Components
//!
//! * [`TagConfig`] — the configurable encoding (tag width is a parameter,
//!   26 bits in the paper's main evaluation, 31 for Phoenix);
//! * [`SppRuntime`] — the runtime hook library (`__spp_updatetag`,
//!   `__spp_cleantag`, `__spp_checkbound`, `__spp_memintr_check` and their
//!   `_direct` variants), with invocation counters used by the ablation
//!   studies;
//! * [`MemoryPolicy`] — the access-policy abstraction every workload in this
//!   workspace is generic over; [`PmdkPolicy`] is the uninstrumented
//!   baseline, [`SppPolicy`] performs exactly the hook sequence the LLVM
//!   pass would inject (the SafePM baseline implements the same trait in
//!   `spp-safepm`);
//! * wrapped memory intrinsics and string functions
//!   ([`MemoryPolicy::memcpy`], [`MemoryPolicy::strcpy`], …) with the
//!   wrapper-level max-address checks of §IV-D;
//! * [`SppPtr`] — an ergonomic tagged-pointer handle used by the examples;
//! * [`handle`] — [`ObjRef`], a checked object handle: one bound +
//!   generation check per object, then range-compared field accesses;
//! * [`typed`] — typed persistent pointers (`persistent_ptr<T>` / the
//!   type-safety macros of §IV-B), riding transparently on the adapted
//!   `pmemobj_direct` through one [`ObjRef`] per access.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use std::sync::Arc;
//! use spp_pm::{PmPool, PoolConfig};
//! use spp_pmdk::{ObjPool, PoolOpts};
//! use spp_core::{MemoryPolicy, SppError, SppPolicy, TagConfig};
//!
//! let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
//! let pool = Arc::new(ObjPool::create(pm, PoolOpts::small())?);
//! let spp = SppPolicy::new(pool, TagConfig::default())?;
//!
//! let oid = spp.zalloc(42)?;          // a 42-byte PM object
//! let mut p = spp.direct(oid);        // tagged pointer
//! spp.store_u64(p, 7)?;               // in bounds: fine
//! p = spp.gep(p, 42);                 // one past the end
//! let err = spp.store_u64(p, 7).unwrap_err();
//! assert!(matches!(err, SppError::OverflowDetected { .. }));
//! p = spp.gep(p, -42);                // back in bounds
//! assert_eq!(spp.load_u64(p)?, 7);    // valid again
//! # Ok(())
//! # }
//! ```

mod config;
mod error;
pub mod handle;
mod pmdk_policy;
mod policy;
mod runtime;
mod spp_policy;
mod sppptr;
pub mod typed;

pub use config::TagConfig;
pub use error::SppError;
pub use handle::{Extent, ObjRef};
pub use pmdk_policy::PmdkPolicy;
pub use policy::MemoryPolicy;
pub use runtime::{HookStats, SppRuntime};
pub use spp_policy::SppPolicy;
pub use sppptr::SppPtr;
pub use typed::{PmType, TypedOid};

/// Result alias for SPP operations.
pub type Result<T> = std::result::Result<T, SppError>;

/// The PM bit: set on every pointer SPP has tagged (design goal #3 —
/// heterogeneous memory systems).
pub const PM_BIT: u64 = 1 << 63;

/// Position of the overflow bit.
pub const OVERFLOW_BIT: u64 = 1 << 62;

/// Whether a pointer carries the PM bit (i.e. was produced by the adapted
/// `pmemobj_direct` and is subject to SPP instrumentation).
#[inline]
pub fn is_pm_ptr(ptr: u64) -> bool {
    ptr & PM_BIT != 0
}
