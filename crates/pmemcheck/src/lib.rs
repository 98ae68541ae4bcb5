//! # spp-pmemcheck — crash-consistency verification
//!
//! The §VI-E toolchain of the paper, rebuilt over [`spp_pm`]'s event log:
//!
//! * [`Checker`] — `pmemcheck` rules: every store must be covered by a
//!   flush and a fence before the program (or the region of interest) ends;
//!   redundant flushes are reported as performance warnings;
//! * [`TxChecker`] — the TX-discipline rule: stores inside a transaction
//!   must be undo-logged (snapshotted) or target objects allocated within
//!   the same transaction;
//! * [`explore`] — `pmreorder`, and the workspace's one crash-exploration
//!   driver: runs a workload on a tracked pool and, at every flush, every
//!   fence and the end, takes the memory images a power failure could
//!   leave behind from the pool itself ([`spp_pm::CrashStateIter`]:
//!   persisted stores always present, pending stores in any subset) and
//!   runs a caller-supplied consistency validator on each. A [`Plan`]
//!   picks the states: every one ([`Plan::exhaustive`], the §VI-E suites),
//!   a seeded sample with a per-boundary cap and a total budget
//!   ([`Plan::sampled`], the torture rig), the drop-all image alone
//!   ([`Plan::drop_all`]), optionally at one boundary only ([`Plan::at`],
//!   the oracle's crash puts). Distinct states are validated once; the
//!   first failing one is shrunk to a 1-minimal drop-set and handed back
//!   as an [`ExploreError`] for the caller to report or dump. The pool's
//!   tracked mode is the one model of what survives a crash; this crate
//!   only chooses where to look.
//!
//! Tests that only need to pick a *moment* — kill a server mid-load, or
//! capture one image across threads or several pools — install a
//! [`spp_pm::PmPool::set_boundary_tap`] of their own; anything that
//! turns boundaries into validated crash states goes through [`explore`].
//!
//! The workspace's crash-consistency suites drive whole index workloads in
//! tracked mode and validate that `ObjPool::open` recovery plus the index
//! invariants hold in **every** reachable crash state — with the SPP size
//! field in play, which is exactly the property §VI-E establishes.

mod checker;
mod explore;
mod txcheck;

pub use checker::{Checker, Report, Violation, Warning};
pub use explore::{explore, ExploreError, Explored, Plan};
pub use txcheck::{TxChecker, TxReport, UnprotectedStore};
