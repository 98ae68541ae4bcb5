//! `oracle` — run the differential oracle from the command line.
//!
//! ```text
//! oracle [--traces N] [--ops N] [--seed S] [--out DIR] [--max-failures N]
//!        [--smoke] [--break-matrix] [--break-temporal]
//! ```
//!
//! `--smoke` runs a small self-validating sweep; `--break-matrix`
//! deliberately corrupts one spatial guarantee-matrix expectation and
//! `--break-temporal` the (ABA-reuse, SPP) temporal one, so CI can
//! check the oracle goes red on each axis. Writes `results/oracle.json`
//! (validated through `spp_bench::validate_rows`) on conforming runs.

use std::path::PathBuf;
use std::process::ExitCode;

use spp_bench::{validate_rows, Args, Json, Opt};
use spp_oracle::{run, RunConfig};

fn main() -> ExitCode {
    let a = Args::parse(&[
        Opt::value::<u64>("traces"),
        Opt::value::<usize>("ops"),
        Opt::value::<u64>("seed"),
        Opt::value::<PathBuf>("out"),
        Opt::value::<u64>("max-failures"),
        Opt::flag("smoke"),
        Opt::flag("break-matrix"),
        Opt::flag("break-temporal"),
    ]);
    let smoke = a.flag("smoke");
    let cfg = RunConfig {
        seed: a.get("seed", 0x0D1F_F0DD),
        traces: a.get("traces", if smoke { 250 } else { 2000 }),
        ops_per_trace: a.get("ops", 80),
        out_dir: a.get("out", PathBuf::from("results/oracle")),
        break_matrix: a.flag("break-matrix"),
        break_temporal: a.flag("break-temporal"),
        max_failures: a.get("max-failures", 5),
    };
    eprintln!(
        "oracle: {} traces x {} ops, seed {:#x}{}{}{}",
        cfg.traces,
        cfg.ops_per_trace,
        cfg.seed,
        if smoke { " [smoke]" } else { "" },
        if cfg.break_matrix {
            " [break-matrix]"
        } else {
            ""
        },
        if cfg.break_temporal {
            " [break-temporal]"
        } else {
            ""
        },
    );
    let start = std::time::Instant::now();
    let summary = run(&cfg);
    let secs = start.elapsed().as_secs_f64();

    let total_ops: u64 = summary.per_policy.iter().map(|(_, t)| t.ops).sum();
    for (label, t) in &summary.per_policy {
        eprintln!(
            "  {label:>8}: {} ops, {} probes, {} crash checks",
            t.ops, t.probes, t.crash_checks
        );
    }
    eprintln!(
        "oracle: {} traces, {total_ops} ops total in {secs:.2}s ({:.0} ops/s)",
        summary.traces,
        total_ops as f64 / secs.max(1e-9),
    );

    if !summary.failures.is_empty() {
        for f in &summary.failures {
            eprintln!(
                "FAIL trace {} (seed {:#x}) policy {}: {} [shrunk to {} ops, dumped to {}]",
                f.trace_index, f.seed, f.policy, f.detail, f.shrunk_len, f.dump_dir
            );
        }
        eprintln!("oracle: {} divergence(s)", summary.failures.len());
        return ExitCode::FAILURE;
    }

    // Self-validation + JSON report, on conforming runs only (a failed
    // run must not overwrite the last good report).
    let rows: Vec<Json> = summary
        .per_policy
        .iter()
        .map(|(label, t)| {
            Json::Obj(vec![
                ("variant", Json::Str((*label).to_string())),
                ("traces", Json::Int(summary.traces)),
                ("ops", Json::Int(t.ops)),
                ("probes", Json::Int(t.probes)),
                ("crash_checks", Json::Int(t.crash_checks)),
            ])
        })
        .collect();
    if let Err(e) = validate_rows(&rows, &["traces", "ops", "probes"]) {
        eprintln!("oracle: self-validation failed: {e}");
        return ExitCode::FAILURE;
    }
    let doc = Json::Obj(vec![
        ("bench", Json::Str("oracle".to_string())),
        ("seed", Json::Int(cfg.seed)),
        ("ops_per_trace", Json::Int(cfg.ops_per_trace as u64)),
        ("elapsed_secs", Json::Num(secs)),
        ("conforming", Json::Bool(true)),
        ("rows", Json::Arr(rows)),
    ]);
    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/oracle.json";
        match std::fs::write(path, doc.render() + "\n") {
            Ok(()) => eprintln!("oracle: wrote {path}"),
            Err(e) => eprintln!("oracle: could not write {path}: {e}"),
        }
    }
    ExitCode::SUCCESS
}
