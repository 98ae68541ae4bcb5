//! # spp-torture — deterministic crash-consistency exploration
//!
//! The rig drives small deterministic workloads (raw allocation,
//! redo-validated oid publication, transactions, the kvstore, persistent
//! containers) against a [`spp_pm::PmPool`] in tracked mode. Each workload
//! runs inside one [`spp_pmemcheck::explore`] call with a sampled
//! [`spp_pmemcheck::Plan`]: at **every durability boundary** — each flush
//! and each fence — the driver takes up to `per_boundary` seeded,
//! reproducible crash states (every persisted store survives, every
//! unpersisted store independently may or may not), until `max_states`
//! distinct states have been validated.
//!
//! Each crash image is reopened through full `spp-pmdk` recovery
//! ([`spp_pmdk::ObjPool::open`]) and checked against a stack of oracles:
//!
//! * recovery itself must succeed and leave every lane quiescent
//!   (no valid redo log, no live transaction);
//! * the durable heap must scan cleanly and carry no leaked or
//!   doubly-referenced blocks;
//! * recovery must be **idempotent** — recovering the recovered image again
//!   changes nothing;
//! * workload-specific invariants hold: committed effects are present,
//!   aborted/in-flight effects are absent or complete (never partial), and
//!   every oid's durable `size` field agrees with the allocator's view of
//!   its block (the paper's §IV-F invariant).
//!
//! On top of the per-state oracles, each workload's full event log is
//! replayed through `spp-pmemcheck` as a cross-check.
//!
//! The driver stops at the first failing state and **shrinks** it to a
//! minimal set of dropped stores; the rig dumps it (crash image + event
//! log + report) under `results/torture/` for offline debugging. The
//! report carries the seed and boundary needed to reproduce it exactly.

mod oracle;
mod report;
mod workloads;

pub use oracle::{make_oracle, recover, Oracle, Recovered};
pub use workloads::{all_workloads, workload_names, Workload};

use std::path::PathBuf;

use spp_pm::{CrashImage, PmPool};
use spp_pmdk::RecoveryFaults;
use spp_pmemcheck::{explore, Plan};

use oracle::check_event_log;

/// Tuning knobs for one torture run. Everything that influences the
/// explored state space is here, so `(config, workload)` fully determines
/// the run — the reproducibility contract.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Master seed; per-boundary sampling seeds derive from it.
    pub seed: u64,
    /// Workload steps (operations) to drive.
    pub steps: u64,
    /// Maximum crash states sampled at a single boundary.
    pub per_boundary: u64,
    /// Total budget of distinct crash states per workload.
    pub max_states: u64,
    /// Check recovery idempotence on every N-th state (0 disables).
    pub idempotence_stride: u64,
    /// Where failing states are dumped.
    pub out_dir: PathBuf,
    /// Deliberate recovery breakage (fault injection) — the rig must
    /// *catch* these, which is how the oracles themselves are validated.
    pub faults: RecoveryFaults,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 0x00C0_FFEE,
            steps: 28,
            per_boundary: 6,
            max_states: 3000,
            idempotence_stride: 8,
            out_dir: PathBuf::from("results/torture"),
            faults: RecoveryFaults::default(),
        }
    }
}

impl TortureConfig {
    /// A configuration sized for CI: same coverage shape, smaller budget.
    pub fn smoke() -> Self {
        TortureConfig {
            steps: 14,
            max_states: 600,
            ..TortureConfig::default()
        }
    }
}

/// Outcome of torturing one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Durability boundaries explored.
    pub boundaries: u64,
    /// Distinct crash states validated.
    pub states: u64,
    /// Oracle violations, shrunk and dumped.
    pub failures: Vec<Failure>,
}

/// One oracle violation, shrunk to a minimal store-drop set.
#[derive(Debug, Clone, Default)]
pub struct Failure {
    /// Workload that produced it.
    pub workload: String,
    /// The durability boundary where it was found, numbered as in
    /// [`spp_pmemcheck::Plan`]; 0 for a whole-run (event-log) failure.
    pub boundary: u64,
    /// Index of the crash state within that boundary's sample.
    pub state: u64,
    /// The boundary's sampling seed (derived from the master seed).
    pub seed: u64,
    /// What the oracle reported for the minimal state.
    pub message: String,
    /// All unpersisted store sequence numbers at the boundary.
    pub unpersisted: Vec<u64>,
    /// Minimal keep-set that still fails.
    pub kept: Vec<u64>,
    /// Minimal drop-set: `unpersisted \ kept`. These lost stores *cause*
    /// the violation.
    pub dropped: Vec<u64>,
    /// Where the crash image + event log were dumped (empty for
    /// event-log-level failures with no single crash state).
    pub dump_dir: String,
}

/// Run one workload's op sequence `drive` on the tracked pool `pm` inside
/// the crash-state driver, validating sampled states with `oracle`; dump
/// the failing state if there is one, then cross-check the event log.
///
/// # Errors
///
/// Whatever `drive` returns: the live workload itself failing.
pub(crate) fn explore_workload(
    cfg: &TortureConfig,
    name: &str,
    pm: &PmPool,
    oracle: Oracle,
    drive: impl FnOnce() -> Result<(), String>,
) -> Result<WorkloadResult, String> {
    let plan = Plan::sampled(cfg.per_boundary, cfg.max_states, cfg.seed);
    let mut driven = Ok(());
    let outcome = explore(
        pm,
        plan,
        || driven = drive(),
        move |img: &CrashImage| oracle(img),
    );
    driven?;
    let mut failures = Vec::new();
    let explored = match outcome {
        Ok(explored) => explored,
        Err(e) => {
            let mut failure = Failure {
                workload: name.to_string(),
                boundary: e.boundary,
                state: e.state,
                seed: e.seed,
                message: e.message,
                unpersisted: e.unpersisted,
                kept: e.kept,
                dropped: e.dropped,
                dump_dir: String::new(),
            };
            failure.dump_dir = report::dump_failure(&cfg.out_dir, &failure, &e.image, pm);
            failures.push(failure);
            e.explored
        }
    };
    if let Err(message) = check_event_log(pm) {
        failures.push(Failure {
            workload: name.to_string(),
            seed: cfg.seed,
            message,
            ..Failure::default()
        });
    }
    Ok(WorkloadResult {
        name: name.to_string(),
        boundaries: explored.boundaries,
        states: explored.states,
        failures,
    })
}

/// Outcome of a whole run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per-workload results, in run order.
    pub results: Vec<WorkloadResult>,
}

impl Summary {
    /// Total crash states explored.
    pub fn total_states(&self) -> u64 {
        self.results.iter().map(|r| r.states).sum()
    }

    /// Total oracle violations.
    pub fn total_failures(&self) -> usize {
        self.results.iter().map(|r| r.failures.len()).sum()
    }

    /// Whether every explored state passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.total_failures() == 0
    }
}

/// Run the named workloads under `cfg`.
///
/// # Errors
///
/// An unknown workload name, or a *driver* error (the live workload itself
/// failing, as opposed to an oracle violation — those are reported in the
/// summary, not as `Err`).
pub fn run(cfg: &TortureConfig, names: &[String]) -> Result<Summary, String> {
    let catalog = all_workloads();
    let mut summary = Summary::default();
    for name in names {
        let w = catalog
            .iter()
            .find(|w| w.name == name.as_str())
            .ok_or_else(|| {
                format!(
                    "unknown workload `{name}` (have: {})",
                    workload_names().join(", ")
                )
            })?;
        summary.results.push((w.run)(cfg)?);
    }
    Ok(summary)
}
