//! `spp-oracle` — the differential oracle harness.
//!
//! A seeded generator emits randomized traces of allocator, pointer,
//! transaction, typed-object, KV and crash-at-boundary ops
//! ([`trace`]); a volatile in-RAM reference model predicts the
//! legal-trace outcome of every op ([`model`]); each trace is replayed
//! under all four policies — pmdk, spp, safepm, memcheck
//! ([`mod@replay`]).
//!
//! The checks, per op:
//!
//! * **legal ops** must match the model byte-exact under every policy
//!   (cross-policy equivalence through the model hub);
//! * **deliberately-illegal probes** must land in the policy's expected
//!   cell of the guarantee matrix — `hit` / `caught` / `fault` /
//!   `rejected`, keyed by [`spp_ripe::Family`] and validated via
//!   [`spp_ripe::expected_cell`]; this includes the *temporal* probes
//!   (use-after-free, double free, ABA slot reuse, in-place
//!   realloc-stale) that grade the SPP+T generation tag;
//! * **crash puts** run the put inside [`spp_pmemcheck::explore`] with a
//!   plan naming one boundary — the drop-all image at the trace's chosen
//!   flush or fence — and check recovery atomicity with the torture rig's
//!   oracle. A put that crosses fewer boundaries is not checked.
//!
//! Failures shrink greedily to a 1-minimal op sequence ([`mod@shrink`]) and
//! are dumped (trace + pool image) under the run's output directory.

pub mod model;
pub mod replay;
pub mod shrink;
pub mod trace;

pub use model::{key_bytes, pattern_bytes, CrashExpect, Model, Predicted};
pub use replay::{replay, BreakSpec, Divergence, ReplayOutcome, POOL_BYTES};
pub use shrink::shrink;
pub use trace::{generate, Op};

use std::io::Write as _;
use std::path::{Path, PathBuf};

use spp_ripe::Protection;

/// Configuration of one oracle run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; per-trace seeds are derived from it.
    pub seed: u64,
    /// Number of traces to generate and replay.
    pub traces: u64,
    /// Ops per trace.
    pub ops_per_trace: usize,
    /// Failure dump directory.
    pub out_dir: PathBuf,
    /// Deliberately corrupt one *spatial* guarantee-matrix expectation
    /// (CI fault-injection; a healthy oracle must go red).
    pub break_matrix: bool,
    /// Deliberately corrupt the (ABA-reuse, SPP) *temporal* expectation —
    /// the cell only the SPP+T generation tag separates. A healthy
    /// oracle must go red on the SPP replay.
    pub break_temporal: bool,
    /// Stop after this many failures.
    pub max_failures: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0x0D1F_F0DD,
            traces: 2000,
            ops_per_trace: 80,
            out_dir: PathBuf::from("results/oracle"),
            break_matrix: false,
            break_temporal: false,
            max_failures: 5,
        }
    }
}

/// Per-policy totals across a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyTotals {
    /// Ops executed (preconditions met).
    pub ops: u64,
    /// Probes classified against the guarantee matrix.
    pub probes: u64,
    /// Crash images recovered and verified.
    pub crash_checks: u64,
}

/// One shrunk, dumped failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the failing trace.
    pub trace_index: u64,
    /// The trace's derived seed.
    pub seed: u64,
    /// Label of the diverging policy.
    pub policy: &'static str,
    /// The (post-shrink) divergence description.
    pub detail: String,
    /// Length of the shrunk trace.
    pub shrunk_len: usize,
    /// Where trace + image were dumped.
    pub dump_dir: String,
}

/// Result of a full oracle run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Traces actually replayed (may stop early at the failure cap).
    pub traces: u64,
    /// `(label, totals)` for each policy, in [`Protection::ALL`] order.
    pub per_policy: Vec<(&'static str, PolicyTotals)>,
    /// Shrunk failures.
    pub failures: Vec<Failure>,
}

/// The per-trace seed: decorrelate trace indices with a splitmix-style
/// multiply, like the torture rig's per-boundary seeds.
pub fn trace_seed(master: u64, index: u64) -> u64 {
    master.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generate and replay `cfg.traces` traces under all four policies,
/// shrinking and dumping every divergence.
pub fn run(cfg: &RunConfig) -> RunSummary {
    let mut per_policy: Vec<(&'static str, PolicyTotals)> = Protection::ALL
        .iter()
        .map(|p| (p.label(), PolicyTotals::default()))
        .collect();
    let mut failures: Vec<Failure> = Vec::new();
    let mut traces = 0u64;
    let breaks = BreakSpec {
        matrix: cfg.break_matrix,
        temporal: cfg.break_temporal,
    };
    'traces: for t in 0..cfg.traces {
        traces += 1;
        let seed = trace_seed(cfg.seed, t);
        let ops = trace::generate(seed, cfg.ops_per_trace);
        for (i, &p) in Protection::ALL.iter().enumerate() {
            match replay::replay(&ops, p, breaks) {
                Ok(o) => {
                    per_policy[i].1.ops += o.ops;
                    per_policy[i].1.probes += o.probes;
                    per_policy[i].1.crash_checks += o.crash_checks;
                }
                Err(d) => {
                    let (kept, min) = shrink::shrink(&ops, p, breaks, d);
                    let dump_dir = dump_failure(&cfg.out_dir, failures.len(), t, seed, &kept, &min);
                    failures.push(Failure {
                        trace_index: t,
                        seed,
                        policy: min.policy,
                        detail: min.detail,
                        shrunk_len: kept.len(),
                        dump_dir,
                    });
                    if failures.len() as u64 >= cfg.max_failures {
                        break 'traces;
                    }
                }
            }
        }
    }
    RunSummary {
        traces,
        per_policy,
        failures,
    }
}

/// Dump a shrunk failing trace (one `Debug` line per op, after a header)
/// and the pool image at the divergence under `out_dir/fail-N/`.
fn dump_failure(
    out_dir: &Path,
    n: usize,
    trace_index: u64,
    seed: u64,
    kept: &[Op],
    min: &Divergence,
) -> String {
    let dir = out_dir.join(format!("fail-{n}"));
    if std::fs::create_dir_all(&dir).is_err() {
        return String::new();
    }
    let mut txt = String::new();
    txt.push_str("# spp-oracle shrunk failure\n");
    txt.push_str(&format!(
        "# trace {trace_index} seed {seed:#x} policy {}\n",
        min.policy
    ));
    txt.push_str(&format!(
        "# diverged at shrunk-op {}: {}\n",
        min.op_index, min.detail
    ));
    for op in kept {
        txt.push_str(&format!("{op:?}\n"));
    }
    let _ = std::fs::write(dir.join("trace.txt"), txt);
    if let Ok(mut f) = std::fs::File::create(dir.join("image.bin")) {
        let _ = f.write_all(&min.image);
    }
    dir.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_out(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spp-oracle-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn small_seeded_run_is_clean_across_policies() {
        let cfg = RunConfig {
            seed: 1,
            traces: 4,
            ops_per_trace: 50,
            out_dir: tmp_out("clean"),
            ..RunConfig::default()
        };
        let s = run(&cfg);
        assert!(
            s.failures.is_empty(),
            "unexpected divergences: {:?}",
            s.failures
        );
        assert_eq!(s.traces, 4);
        for (label, t) in &s.per_policy {
            assert!(t.ops > 0, "{label}: no ops executed");
        }
    }

    #[test]
    fn broken_matrix_entry_is_caught_and_shrinks_small() {
        let out = tmp_out("broken");
        let cfg = RunConfig {
            seed: 1,
            traces: 20,
            ops_per_trace: 50,
            out_dir: out.clone(),
            break_matrix: true,
            break_temporal: false,
            max_failures: 1,
        };
        let s = run(&cfg);
        assert!(
            !s.failures.is_empty(),
            "deliberately broken matrix entry went undetected"
        );
        let f = &s.failures[0];
        assert_eq!(f.policy, "SafePM", "wrong policy flagged: {f:?}");
        assert!(
            f.shrunk_len <= 12,
            "shrunk trace too large: {} ops",
            f.shrunk_len
        );
        assert!(
            std::path::Path::new(&f.dump_dir)
                .join("trace.txt")
                .is_file(),
            "missing trace dump"
        );
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn broken_temporal_entry_is_caught_on_the_spp_replay() {
        // The temporal must-stay-red: flipping (ABA-reuse, SPP) — the
        // cell only the generation tag separates — must surface as a
        // divergence on the SPP replay, and only there.
        let out = tmp_out("broken-temporal");
        let cfg = RunConfig {
            seed: 1,
            traces: 40,
            ops_per_trace: 50,
            out_dir: out.clone(),
            break_matrix: false,
            break_temporal: true,
            max_failures: 1,
        };
        let s = run(&cfg);
        assert!(
            !s.failures.is_empty(),
            "deliberately broken temporal entry went undetected"
        );
        let f = &s.failures[0];
        assert_eq!(f.policy, "SPP", "wrong policy flagged: {f:?}");
        assert!(
            f.detail.contains("generation-tag") || f.detail.contains("Caught"),
            "divergence does not implicate the generation tag: {f:?}"
        );
        assert!(
            f.shrunk_len <= 12,
            "shrunk trace too large: {} ops",
            f.shrunk_len
        );
        let _ = std::fs::remove_dir_all(out);
    }
}
