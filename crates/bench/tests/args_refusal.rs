//! A harness binary refuses a mistyped command line before it runs or
//! writes anything, and answers `--help`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty working directory of its own, so a file written by mistake
/// shows up and cannot clobber the committed `results/`.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_bench_args_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fig7(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig7_pm_ops"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn bad_arguments_exit_2_and_help_exits_0_without_writing() {
    let dir = empty_dir("fig7");
    for bad in [
        &["--no-such-flag"][..],
        &["--ops", "abc"],
        &["--smoke", "--ops"],
    ] {
        let out = fig7(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: fig7_pm_ops"), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?} did work");
    }
    let out = fig7(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[--smoke]"));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused run wrote a file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_option_passed_twice_exits_2_without_writing() {
    let dir = empty_dir("fig7_twice");
    for twice in [&["--ops", "5", "--ops", "7"][..], &["--smoke", "--smoke"]] {
        let out = fig7(&dir, twice);
        assert_eq!(out.status.code(), Some(2), "{twice:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("given twice"), "{twice:?}: {err}");
        assert!(err.contains("usage: fig7_pm_ops"), "{twice:?}: {err}");
        assert!(out.stdout.is_empty(), "{twice:?} did work");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused run wrote a file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
