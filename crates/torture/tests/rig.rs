//! End-to-end tests of the torture rig itself: a clean run finds nothing,
//! deliberately broken recovery is caught and shrunk, and exploration is
//! reproducible.

use spp_pmdk::RecoveryFaults;
use spp_torture::{run, workload_names, TortureConfig};

fn test_cfg(tag: &str) -> TortureConfig {
    TortureConfig {
        steps: 6,
        max_states: 150,
        per_boundary: 3,
        idempotence_stride: 16,
        out_dir: std::env::temp_dir().join(format!("spp-torture-test-{tag}")),
        ..TortureConfig::default()
    }
}

#[test]
fn clean_run_finds_no_violations() {
    let cfg = test_cfg("clean");
    let names: Vec<String> = workload_names().iter().map(|s| s.to_string()).collect();
    let summary = run(&cfg, &names).expect("driver must not error");
    for r in &summary.results {
        assert!(
            r.failures.is_empty(),
            "workload {} reported: {:?}",
            r.name,
            r.failures[0].message
        );
        assert!(r.states > 0, "workload {} explored nothing", r.name);
    }
    assert!(summary.total_states() >= 100, "too few states explored");
}

#[test]
fn broken_recovery_is_caught_and_shrunk() {
    let mut cfg = test_cfg("fault");
    cfg.faults = RecoveryFaults {
        skip_redo_apply: true,
        ..RecoveryFaults::default()
    };
    cfg.steps = 10;
    cfg.max_states = 400;
    let summary = run(&cfg, &["alloc".to_string()]).expect("driver must not error");
    let failures = &summary.results[0].failures;
    assert!(
        !failures.is_empty(),
        "skip-redo-apply fault was not detected"
    );
    let f = &failures[0];
    // The shrunk drop-set must be a subset of the unpersisted stores, and
    // the failure must be pinned on specific lost stores (or on a state
    // where even the fully-durable prefix is broken — kept may then be
    // everything that was unpersisted).
    assert!(f.dropped.iter().all(|s| f.unpersisted.contains(s)));
    assert!(f.kept.iter().all(|s| f.unpersisted.contains(s)));
    assert_eq!(
        f.kept.len() + f.dropped.len(),
        f.unpersisted.len(),
        "kept/dropped must partition the unpersisted set"
    );
    // The dump must exist and carry the reproduction data.
    assert!(!f.dump_dir.is_empty(), "failure was not dumped");
    let dir = std::path::Path::new(&f.dump_dir);
    assert!(dir.join("image.bin").exists());
    assert!(dir.join("report.txt").exists());
    assert!(dir.join("events.txt").exists());
}

#[test]
fn skipped_tx_rollback_is_caught_by_the_generation_workload() {
    // The transactional arms (tx-alloc + publish, tx-free + null, tx-alloc
    // + abort) must make the generation oracles see a lost rollback.
    let cfg = TortureConfig {
        faults: RecoveryFaults {
            skip_tx_rollback: true,
            ..RecoveryFaults::default()
        },
        out_dir: test_cfg("fault-tx").out_dir,
        ..TortureConfig::smoke()
    };
    let summary = run(&cfg, &["generation".to_string()]).expect("driver must not error");
    assert!(
        !summary.results[0].failures.is_empty(),
        "skip-tx-rollback fault was not detected"
    );
}

#[test]
fn exploration_is_reproducible() {
    let cfg = test_cfg("repro");
    let names = vec!["publish".to_string()];
    let a = run(&cfg, &names).expect("driver must not error");
    let b = run(&cfg, &names).expect("driver must not error");
    assert_eq!(a.results[0].boundaries, b.results[0].boundaries);
    assert_eq!(a.results[0].states, b.results[0].states);
    assert_eq!(a.results[0].failures.len(), b.results[0].failures.len());
}

#[test]
fn unknown_workload_is_rejected() {
    let cfg = test_cfg("unknown");
    let err = run(&cfg, &["nonesuch".to_string()]).unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");
}
