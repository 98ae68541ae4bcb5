//! # spp-pm — simulated byte-addressable persistent memory
//!
//! This crate is the hardware substrate for the SPP reproduction. It models a
//! byte-addressable persistent-memory (PM) device the way PM programming
//! toolchains see one:
//!
//! * a **pool** of persistent bytes mapped at a *simulated virtual address*
//!   (`base`), accessed with load/store operations at byte granularity
//!   ([`PmPool::read`], [`PmPool::write`]);
//! * a volatile **CPU-cache model**: in [`Mode::Tracked`], stores are *not*
//!   durable until they are covered by a [`PmPool::flush`] and a subsequent
//!   [`PmPool::fence`] (`CLWB` + `SFENCE` semantics);
//! * **crash injection**: [`PmPool::crash_image`] materialises the bytes that
//!   would survive a power failure, optionally dropping any subset of the
//!   not-yet-persisted stores ([`CrashSpec`]), which is the state space
//!   `pmreorder` explores;
//! * an **event log** ([`PmEvent`]) consumed by the `spp-pmemcheck` crate to
//!   validate flush/fence ordering rules;
//! * optional **latency modelling** ([`LatencyModel`]) to emulate PM media
//!   that is slower than DRAM — including wall-clock *overlappable* device
//!   waits for thread-scaling experiments;
//! * an always-on **contention profile** ([`contention`]): named lock/event
//!   counters, recorded into cells each thread owns, that the whole stack
//!   (stripe locks, tx lanes, the tracked-mode event log) reports into,
//!   snapshot-able by benches and the load generator to locate hot-path
//!   serialization.
//!
//! Accesses outside the pool mapping return [`PmError::Fault`] — the
//! simulator's analogue of a SIGSEGV/SIGBUS. This is the primitive SPP's
//! overflow bit relies on: a tagged pointer whose overflow bit survives
//! masking resolves to a virtual address far outside any mapping.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), spp_pm::PmError> {
//! use spp_pm::{PmPool, PoolConfig, Mode};
//!
//! let pool = PmPool::new(PoolConfig::new(1 << 20).mode(Mode::Tracked));
//! pool.write(64, b"hello")?;
//! pool.persist(64, 5)?; // flush + fence
//! let img = pool.crash_image(spp_pm::CrashSpec::DropUnpersisted);
//! assert_eq!(&img.bytes()[64..69], b"hello");
//! # Ok(())
//! # }
//! ```

pub mod contention;
mod error;
mod events;
mod image;
mod latency;
mod media;
mod pool;
mod stats;

pub use contention::{LockCounter, LockSnapshot, ProfiledMutex, ProfiledRwLock};
pub use error::PmError;
pub use events::{EventLog, PmEvent, StoreState};
pub use image::{CrashImage, CrashStateIter};
pub use latency::LatencyModel;
pub use pool::{Boundary, BoundaryTap, CrashSpec, Mode, PmPool, PoolConfig, CACHE_LINE};
pub use stats::PmStats;

/// A simulated virtual address within the 64-bit simulated address space.
pub type VirtAddr = u64;

/// An offset relative to the beginning of a pool.
pub type PoolOffset = u64;

/// Result alias for PM operations.
pub type Result<T> = std::result::Result<T, PmError>;

/// Default simulated base virtual address for pool mappings.
///
/// SPP configures PMDK (via `PMEM_MMAP_HINT=0`) to map pools in the *lower*
/// part of the address space so that the encoding's address bits suffice to
/// address the whole mapping (§IV-F / §V-B of the paper). SPP+T spends 7 of
/// those bits on the allocation-generation field, leaving 29 address bits
/// (512 MiB) under the default 26-bit tag — so we default to 128 MiB,
/// comfortably inside that range for every evaluated configuration.
pub const DEFAULT_POOL_BASE: VirtAddr = 0x0800_0000;
