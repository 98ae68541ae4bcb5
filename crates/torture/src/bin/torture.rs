//! `torture` — crash-consistency exploration CLI.
//!
//! ```text
//! torture [--seed N] [--steps N] [--per-boundary N] [--budget N]
//!         [--stride N] [--workloads a,b,c] [--out DIR] [--smoke]
//!         [--fault skip-redo-apply,skip-tx-rollback] [--list]
//! ```
//!
//! Drives the workloads in `spp-torture` with a fixed seed (`--seed`,
//! default 12648430) for `--steps` operations (28; smoke 14), sampling at
//! most `--per-boundary` crash states per durability boundary (6) and
//! `--budget` states per workload (3000; smoke 600), and re-checking
//! recovery idempotence on every `--stride`-th state (8; 0 = off).
//! `--workloads` picks a subset (default all; `--list` names them), and
//! `--fault` injects each recovery fault of its comma list, after which the
//! run is *expected* to fail — that validates the oracles.
//!
//! Prints a per-workload summary, writes `summary.json` under `--out`
//! (default `results/torture`), and exits 1 if any crash state violated an
//! oracle (failing states are shrunk and dumped under the same directory).
//! `--help` exits 0; an unknown flag, a flag given twice, a bad value, an
//! unknown workload or fault name, or a zero `--per-boundary`/`--budget`
//! exits 2 before any file write.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use spp_bench::{Args, Json, List, Opt};
use spp_pmdk::RecoveryFaults;
use spp_torture::{all_workloads, run, workload_names, Summary, TortureConfig};

/// One entry of `--fault A,B`: a recovery breakage the run must catch.
enum Fault {
    SkipRedoApply,
    SkipTxRollback,
}

impl FromStr for Fault {
    type Err = ();

    fn from_str(name: &str) -> Result<Fault, ()> {
        match name {
            "skip-redo-apply" => Ok(Fault::SkipRedoApply),
            "skip-tx-rollback" => Ok(Fault::SkipTxRollback),
            _ => Err(()),
        }
    }
}

/// `base` with every listed fault injected.
fn inject(base: RecoveryFaults, faults: &[Fault]) -> RecoveryFaults {
    faults.iter().fold(base, |mut f, fault| {
        match fault {
            Fault::SkipRedoApply => f.skip_redo_apply = true,
            Fault::SkipTxRollback => f.skip_tx_rollback = true,
        }
        f
    })
}

/// Print why the command line is refused; exit 2.
fn refuse(why: &str) -> ExitCode {
    eprintln!("torture: {why}");
    ExitCode::from(2)
}

/// The run as `results/torture/summary.json` records it.
fn summary_json(cfg: &TortureConfig, summary: &Summary) -> Json {
    let failure = |f: &spp_torture::Failure| {
        Json::Obj(vec![
            ("boundary", Json::Int(f.boundary)),
            ("state", Json::Int(f.state)),
            ("seed", Json::Int(f.seed)),
            ("message", Json::Str(f.message.clone())),
            (
                "dropped",
                Json::Arr(f.dropped.iter().map(|&d| Json::Int(d)).collect()),
            ),
            ("dump_dir", Json::Str(f.dump_dir.clone())),
        ])
    };
    let workloads = summary.results.iter().map(|r| {
        Json::Obj(vec![
            ("name", Json::Str(r.name.clone())),
            ("boundaries", Json::Int(r.boundaries)),
            ("states", Json::Int(r.states)),
            (
                "failures",
                Json::Arr(r.failures.iter().map(failure).collect()),
            ),
        ])
    });
    Json::Obj(vec![
        ("seed", Json::Int(cfg.seed)),
        ("steps", Json::Int(cfg.steps)),
        ("per_boundary", Json::Int(cfg.per_boundary)),
        ("max_states", Json::Int(cfg.max_states)),
        ("total_states", Json::Int(summary.total_states())),
        ("total_failures", Json::Int(summary.total_failures() as u64)),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

fn main() -> ExitCode {
    let args = Args::parse(&[
        Opt::value::<u64>("seed"),
        Opt::value::<u64>("steps"),
        Opt::value::<u64>("per-boundary"),
        Opt::value::<u64>("budget"),
        Opt::value::<u64>("stride"),
        Opt::value::<List<String>>("workloads"),
        Opt::value::<PathBuf>("out"),
        Opt::flag("smoke"),
        Opt::value::<List<Fault>>("fault"),
        Opt::flag("list"),
    ]);
    if args.flag("list") {
        for w in all_workloads() {
            println!("{:<10} {}", w.name, w.about);
        }
        return ExitCode::SUCCESS;
    }
    let base = if args.flag("smoke") {
        TortureConfig::smoke()
    } else {
        TortureConfig::default()
    };
    let cfg = TortureConfig {
        seed: args.get("seed", base.seed),
        steps: args.get("steps", base.steps),
        per_boundary: args.get("per-boundary", base.per_boundary),
        max_states: args.get("budget", base.max_states),
        idempotence_stride: args.get("stride", base.idempotence_stride),
        out_dir: args.get("out", base.out_dir),
        faults: inject(base.faults, &args.get("fault", List(vec![])).0),
    };
    if cfg.per_boundary == 0 || cfg.max_states == 0 {
        return refuse("--per-boundary and --budget must be at least 1");
    }
    let known = workload_names();
    let all = List(known.iter().map(|s| s.to_string()).collect());
    let names = args.get("workloads", all).0;
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        let have = known.join(", ");
        return refuse(&format!("unknown workload `{bad}` (have: {have})"));
    }

    println!(
        "torture: seed {}, steps {}, per-boundary {}, budget {}/workload{}",
        cfg.seed,
        cfg.steps,
        cfg.per_boundary,
        cfg.max_states,
        if cfg.faults.any() {
            " [RECOVERY FAULTS INJECTED]"
        } else {
            ""
        }
    );
    let summary = match run(&cfg, &names) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("torture: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for r in &summary.results {
        println!(
            "  {:<10} boundaries {:>5}  states {:>6}  failures {}",
            r.name,
            r.boundaries,
            r.states,
            r.failures.len()
        );
        for f in &r.failures {
            println!(
                "    FAIL at boundary {} state {} (seed {})",
                f.boundary, f.state, f.seed
            );
            println!("      {}", f.message);
            println!("      minimal dropped stores: {:?}", f.dropped);
            if !f.dump_dir.is_empty() {
                println!("      dumped to {}", f.dump_dir);
            }
        }
    }
    let doc = summary_json(&cfg, &summary).render() + "\n";
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(cfg.out_dir.join("summary.json"), doc));
    if let Err(e) = written {
        eprintln!("torture: failed to write summary.json: {e}");
    }
    println!(
        "torture: explored {} crash states across {} workloads, {} violation(s)",
        summary.total_states(),
        summary.results.len(),
        summary.total_failures()
    );
    if summary.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fault_list_injects_every_entry() {
        let List(both) = "skip-redo-apply,skip-tx-rollback".parse().unwrap();
        let f = inject(RecoveryFaults::default(), &both);
        assert!(f.skip_redo_apply && f.skip_tx_rollback);
        let List(one) = "skip-tx-rollback".parse().unwrap();
        let f = inject(RecoveryFaults::default(), &one);
        assert!(!f.skip_redo_apply && f.skip_tx_rollback);
        assert_eq!(
            inject(RecoveryFaults::default(), &[]),
            RecoveryFaults::default()
        );
        assert!("skip-redo-apply,nope".parse::<List<Fault>>().is_err());
    }
}
