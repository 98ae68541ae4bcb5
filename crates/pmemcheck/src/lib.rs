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
//! * [`explore`] — `pmreorder`: runs a workload on a tracked pool and, at
//!   every flush, every fence and the end, takes the memory images a power
//!   failure could leave behind from the pool itself
//!   ([`spp_pm::CrashStateIter`]: persisted stores always present, pending
//!   stores in any subset) and runs a user-supplied consistency validator
//!   on each. The pool's tracked mode is the one model of what survives a
//!   crash; this crate only chooses where to look.
//!
//! The workspace's crash-consistency suites drive whole index workloads in
//! tracked mode and validate that `ObjPool::open` recovery plus the index
//! invariants hold in **every** reachable crash state — with the SPP size
//! field in play, which is exactly the property §VI-E establishes.

mod checker;
mod explore;
mod txcheck;

pub use checker::{Checker, Report, Violation, Warning};
pub use explore::{explore, ExploreError};
pub use txcheck::{TxChecker, TxReport, UnprotectedStore};
