//! # spp-pmdk — a miniature `libpmemobj`
//!
//! This crate reimplements, in Rust and against the [`spp_pm`] simulated PM
//! device, the subset of Intel's PMDK `libpmemobj` that the SPP paper
//! modifies and measures:
//!
//! * **object pools** with a durable header and UUID ([`ObjPool`]);
//! * a **crash-consistent heap allocator**: block headers live in PM, free
//!   lists are rebuilt on open, and every allocation/free/reallocation is
//!   made valid atomically through a per-lane **redo log**
//!   ([`ObjPool::alloc_into`], [`ObjPool::free_from`],
//!   [`ObjPool::realloc_into`]). One module, `alloc.rs`, owns the block
//!   lifecycle: only it touches a block's durable state word (allocated bit,
//!   SPP+T generation, requested size) and the volatile state rebuilt from
//!   it; the atomic API, transactions and recovery all go through it;
//! * **software transactions** with a persistent **undo log**:
//!   [`ObjPool::tx`] with [`Tx::snapshot`] (the `pmemobj_tx_add_range`
//!   analogue), transactional allocation and deferred frees;
//! * **persistent object identifiers** ([`PmemOid`]): `{pool_uuid, offset}`
//!   in stock PMDK, `{pool_uuid, offset, size}` in SPP's enhanced layout
//!   ([`OidKind`] selects the on-media encoding — this is the paper's §IV-B
//!   `PMEMoid` extension);
//! * **recovery**: [`ObjPool::open`] replays valid redo logs, rolls back
//!   active transactions, completes committed ones, and rebuilds the
//!   volatile allocator state in one walk over the block headers.
//!
//! The crucial property reproduced from the paper: when an allocation writes
//! an oid destination in PM, the redo log orders the **size field before the
//! offset field**, so that an oid observed as valid (nonzero offset) after
//! any crash always carries a correct size — the invariant SPP's tag
//! reconstruction depends on (§IV-F).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), spp_pmdk::PmdkError> {
//! use std::sync::Arc;
//! use spp_pm::{PmPool, PoolConfig};
//! use spp_pmdk::{ObjPool, PoolOpts};
//!
//! let pm = Arc::new(PmPool::new(PoolConfig::new(1 << 20)));
//! let pool = ObjPool::create(pm, PoolOpts::small())?;
//! let oid = pool.zalloc(64)?;
//! pool.write(oid.off, b"hello pm")?;
//! pool.persist(oid.off, 8)?;
//! pool.tx(|tx| -> spp_pmdk::Result<()> {
//!     tx.snapshot(oid.off, 8)?; // undo-logged
//!     tx.pool().write(oid.off, b"goodbye!")?;
//!     Ok(())
//! })?;
//! # Ok(())
//! # }
//! ```

mod alloc;
mod error;
mod lane;
mod layout;
mod oid;
mod pool;
mod redo;
mod tx;
mod ulog;

pub use alloc::{AllocStats, BlockInfo, BlockState, BLOCK_HEADER_SIZE, GEN_MAX};
pub use error::PmdkError;
pub use oid::{OidDest, OidKind, PmemOid, OID_SIZE_PMDK, OID_SIZE_SPP};
pub use pool::{LaneStatus, ObjPool, PoolOpts, RecoveryFaults, TxHandle, TxStatus};
pub use tx::Tx;

/// Result alias for pool operations.
pub type Result<T> = std::result::Result<T, PmdkError>;
