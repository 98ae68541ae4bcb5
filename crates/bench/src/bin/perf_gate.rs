//! `perf_gate`: the CI performance gate over committed result artifacts.
//!
//! ```text
//! perf_gate [--results DIR=results] [--baselines DIR=ci/baselines]
//!           [--tolerance 0.5] [--pipeline-floor 1.5] [--idle-floor 2000]
//!           [--only fig5|fig7|loadgen|idle]
//! ```
//!
//! Reads the four smoke-run artifacts — `BENCH_fig5_pmemkv.json`,
//! `BENCH_fig7_pm_ops.json`, `server_loadgen.json`, and
//! `server_loadgen_idle.json` — and fails the build if performance
//! regressed. Two kinds of check, in order of trust:
//!
//! 1. **Ratio invariants** (machine-independent, always enforced): the
//!    thread-scaling series must stay monotone with `speedup_8_over_1 >=
//!    2.0`, the pipelined server must beat its own round-trip baseline
//!    by `--pipeline-floor`, and the idle-scaling run must have held
//!    `--idle-floor` epoll connections while keeping total OS threads
//!    within `reactors + hot + 8` — threads O(staff), never
//!    O(connections). These compare a run against *itself*, so a
//!    slow CI runner cannot fake a pass or a fail.
//! 2. **Tolerance bands vs committed baselines**: absolute throughputs may
//!    drop at most `--tolerance` (fraction) below the committed smoke
//!    baseline, and slowdown factors may grow at most that much above it.
//!    These catch gradual rot the ratios cannot see, at the cost of runner
//!    noise — hence the wide default band.
//!
//! The CI job proves the gate is not blind by re-running the loadgen with
//! `--throttle-us` (which slows only the pipelined phase) and requiring
//! this binary to exit nonzero on the degraded artifact.

use std::process::ExitCode;

use spp_bench::{Args, JsonValue, Opt};

/// Accumulates PASS/FAIL lines; any FAIL turns the exit code red.
struct Gate {
    failures: usize,
    checks: usize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            failures: 0,
            checks: 0,
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks += 1;
        if ok {
            println!("PASS {name}: {detail}");
        } else {
            self.failures += 1;
            println!("FAIL {name}: {detail}");
        }
    }

    /// A floor check: `got >= floor`.
    fn at_least(&mut self, name: &str, got: f64, floor: f64) {
        self.check(
            name,
            got.is_finite() && got >= floor,
            format!("{got:.3} (need >= {floor:.3})"),
        );
    }

    /// A ceiling check: `got <= cap`.
    fn at_most(&mut self, name: &str, got: f64, cap: f64) {
        self.check(
            name,
            got.is_finite() && got <= cap,
            format!("{got:.3} (need <= {cap:.3})"),
        );
    }
}

/// Load and parse one artifact; a missing or unparseable file is itself a
/// gate failure (a gate that shrugs at absent inputs is blind).
fn load(gate: &mut Gate, dir: &str, name: &str) -> Option<JsonValue> {
    let path = format!("{dir}/{name}");
    match std::fs::read_to_string(&path) {
        Ok(text) => match JsonValue::parse(&text) {
            Ok(v) => Some(v),
            Err(e) => {
                gate.check(&format!("parse {path}"), false, e);
                None
            }
        },
        Err(e) => {
            gate.check(&format!("read {path}"), false, e.to_string());
            None
        }
    }
}

/// Geometric mean of `field` across an array of row objects. `NaN` when
/// the field is absent everywhere — every caller feeds that into a
/// floor/ceiling check, which treats non-finite as FAIL.
fn geomean_field(rows: &[JsonValue], field: &str) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.get(field).and_then(JsonValue::as_f64))
        .filter(|v| *v > 0.0)
        .collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

fn num_at(doc: &JsonValue, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(inner) => v = inner,
            None => return f64::NAN,
        }
    }
    v.as_f64().unwrap_or(f64::NAN)
}

/// Shared scaling-series invariants (both figure benches publish the same
/// `scaling` object).
fn gate_scaling(gate: &mut Gate, label: &str, doc: &JsonValue) {
    let monotone = num_at(doc, &["scaling", "speedup_8_over_1"]);
    gate.at_least(&format!("{label} scaling.speedup_8_over_1"), monotone, 2.0);
    gate.check(
        &format!("{label} scaling.monotone_ok"),
        doc.get("scaling")
            .and_then(|s| s.get("monotone_ok"))
            .and_then(JsonValue::as_bool)
            == Some(true),
        "thread sweep monotone within tolerance".into(),
    );
}

fn gate_fig5(gate: &mut Gate, doc: &JsonValue, base: &JsonValue, tol: f64) {
    gate_scaling(gate, "fig5", doc);
    let rows = doc
        .get("results")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    let brows = base
        .get("results")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    gate.at_least(
        "fig5 pmdk_ops_per_s (geomean vs baseline)",
        geomean_field(rows, "pmdk_ops_per_s"),
        geomean_field(brows, "pmdk_ops_per_s") * (1.0 - tol),
    );
    for field in ["spp_slowdown", "safepm_slowdown"] {
        gate.at_most(
            &format!("fig5 {field} (geomean vs baseline)"),
            geomean_field(rows, field),
            geomean_field(brows, field) * (1.0 + tol),
        );
    }
}

/// The six per-row slowdown columns of fig7.
const FIG7_FIELDS: [&str; 6] = [
    "atomic_alloc_slowdown",
    "atomic_free_slowdown",
    "atomic_realloc_slowdown",
    "tx_alloc_slowdown",
    "tx_free_slowdown",
    "tx_realloc_slowdown",
];

fn gate_fig7(gate: &mut Gate, doc: &JsonValue, base: &JsonValue, tol: f64) {
    gate_scaling(gate, "fig7", doc);
    let rows = doc
        .get("results")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    let brows = base
        .get("results")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[]);
    for field in FIG7_FIELDS {
        gate.at_most(
            &format!("fig7 {field} (geomean vs baseline)"),
            geomean_field(rows, field),
            geomean_field(brows, field) * (1.0 + tol),
        );
    }
}

fn gate_loadgen(gate: &mut Gate, doc: &JsonValue, base: &JsonValue, tol: f64, floor: f64) {
    gate.check(
        "loadgen mode",
        doc.get("mode").and_then(JsonValue::as_str) == Some("pipeline"),
        "artifact is a pipeline-comparison run".into(),
    );
    // The load-bearing ratio: pipelining must actually pay. The loadgen
    // skips its own floor under --throttle-us; the gate never does —
    // that asymmetry is exactly what the injected-regression self-test
    // exercises.
    gate.at_least(
        "loadgen pipeline_speedup",
        num_at(doc, &["pipeline_speedup"]),
        floor,
    );
    for field in ["roundtrip_ops_s", "pipelined_ops_s"] {
        gate.at_least(
            &format!("loadgen {field} (vs baseline)"),
            num_at(doc, &[field]),
            num_at(base, &[field]) * (1.0 - tol),
        );
    }
}

/// The idle-scaling artifact's invariants are entirely self-relative —
/// no baseline. The thread budget is recomputed here from the artifact's
/// own config fields rather than trusting the loadgen's verdict: a
/// loadgen that stopped checking would still fail the gate.
fn gate_idle(gate: &mut Gate, doc: &JsonValue, idle_floor: f64) {
    gate.check(
        "idle mode",
        doc.get("mode").and_then(JsonValue::as_str) == Some("idle_scaling"),
        "artifact is an idle-scaling run".into(),
    );
    gate.check(
        "idle io_mode",
        doc.get("io_mode").and_then(JsonValue::as_str) == Some("epoll"),
        "idle fleet was held by the epoll front end".into(),
    );
    gate.at_least("idle idle_conns", num_at(doc, &["idle_conns"]), idle_floor);
    // Commits run on the reactors: no thread per shard.
    let budget = num_at(doc, &["reactors"]) + num_at(doc, &["hot_conns"]) + 8.0;
    gate.at_most(
        "idle os_threads_load (vs reactors+hot+8)",
        num_at(doc, &["os_threads_load"]),
        budget,
    );
    // Liveness: the hot core really measured traffic through the parked
    // fleet (a zero-op run would make the thread sample meaningless).
    gate.at_least("idle hot_ops_s", num_at(doc, &["hot_ops_s"]), 1.0);
}

fn run() -> ExitCode {
    let args = Args::parse(&[
        Opt::value::<String>("results"),
        Opt::value::<String>("baselines"),
        Opt::value::<f64>("tolerance"),
        Opt::value::<f64>("pipeline-floor"),
        Opt::value::<f64>("idle-floor"),
        Opt::value::<String>("only"),
    ]);
    let results: String = args.get("results", "results".to_string());
    let baselines: String = args.get("baselines", "ci/baselines".to_string());
    let tol: f64 = args.get("tolerance", 0.5);
    let floor: f64 = args.get("pipeline-floor", 1.5);
    let idle_floor: f64 = args.get("idle-floor", 2000.0);
    let only: String = args.get("only", "all".to_string());
    let want = |name: &str| only == "all" || only == name;

    let mut gate = Gate::new();
    if want("fig5") {
        if let (Some(doc), Some(base)) = (
            load(&mut gate, &results, "BENCH_fig5_pmemkv.json"),
            load(&mut gate, &baselines, "fig5_pmemkv.json"),
        ) {
            gate_fig5(&mut gate, &doc, &base, tol);
        }
    }
    if want("fig7") {
        if let (Some(doc), Some(base)) = (
            load(&mut gate, &results, "BENCH_fig7_pm_ops.json"),
            load(&mut gate, &baselines, "fig7_pm_ops.json"),
        ) {
            gate_fig7(&mut gate, &doc, &base, tol);
        }
    }
    if want("loadgen") {
        if let (Some(doc), Some(base)) = (
            load(&mut gate, &results, "server_loadgen.json"),
            load(&mut gate, &baselines, "server_loadgen.json"),
        ) {
            gate_loadgen(&mut gate, &doc, &base, tol, floor);
        }
    }
    if want("idle") {
        if let Some(doc) = load(&mut gate, &results, "server_loadgen_idle.json") {
            gate_idle(&mut gate, &doc, idle_floor);
        }
    }
    if only != "all" && gate.checks == 0 {
        gate.check(
            "arguments",
            false,
            format!("unknown --only target `{only}`"),
        );
    }

    println!(
        "perf_gate: {} checks, {} failed (tolerance {:.0}%, pipeline floor {floor:.2}x)",
        gate.checks,
        gate.failures,
        tol * 100.0
    );
    if gate.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig_doc(speedup: f64, monotone: bool, ops: f64, slow: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"results":[
                 {{"pmdk_ops_per_s":{ops},"spp_slowdown":{slow},"safepm_slowdown":{slow},
                   "atomic_alloc_slowdown":{slow},"atomic_free_slowdown":{slow},
                   "atomic_realloc_slowdown":{slow},"tx_alloc_slowdown":{slow},
                   "tx_free_slowdown":{slow},"tx_realloc_slowdown":{slow}}}],
               "scaling":{{"speedup_8_over_1":{speedup},"monotone_ok":{monotone}}}}}"#
        ))
        .unwrap()
    }

    fn loadgen_doc(mode: &str, speedup: f64, rt: f64, pl: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"mode":"{mode}","pipeline_speedup":{speedup},
               "roundtrip_ops_s":{rt},"pipelined_ops_s":{pl}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn healthy_run_passes_every_check() {
        let mut g = Gate::new();
        let base = fig_doc(6.0, true, 100_000.0, 1.3);
        gate_fig5(&mut g, &fig_doc(5.0, true, 90_000.0, 1.4), &base, 0.5);
        gate_fig7(&mut g, &fig_doc(5.0, true, 90_000.0, 1.4), &base, 0.5);
        gate_loadgen(
            &mut g,
            &loadgen_doc("pipeline", 2.5, 55_000.0, 140_000.0),
            &loadgen_doc("pipeline", 2.4, 60_000.0, 150_000.0),
            0.5,
            1.5,
        );
        assert_eq!(g.failures, 0, "{} checks", g.checks);
    }

    #[test]
    fn collapsed_pipeline_speedup_fails() {
        let mut g = Gate::new();
        let base = loadgen_doc("pipeline", 2.4, 60_000.0, 150_000.0);
        // The throttled self-test shape: pipelined phase crawls, ratio < 1.
        gate_loadgen(
            &mut g,
            &loadgen_doc("pipeline", 0.3, 60_000.0, 18_000.0),
            &base,
            0.5,
            1.5,
        );
        assert!(g.failures >= 2); // speedup floor + pipelined_ops_s band
    }

    #[test]
    fn scaling_regressions_fail() {
        let mut g = Gate::new();
        let base = fig_doc(6.0, true, 100_000.0, 1.3);
        gate_fig5(&mut g, &fig_doc(1.4, true, 90_000.0, 1.4), &base, 0.5);
        assert_eq!(g.failures, 1);
        let mut g = Gate::new();
        gate_fig5(&mut g, &fig_doc(5.0, false, 90_000.0, 1.4), &base, 0.5);
        assert_eq!(g.failures, 1);
    }

    #[test]
    fn tolerance_band_catches_absolute_rot() {
        let mut g = Gate::new();
        let base = fig_doc(6.0, true, 100_000.0, 1.3);
        // Throughput down 60% against a 50% band; slowdowns doubled.
        gate_fig5(&mut g, &fig_doc(5.0, true, 40_000.0, 2.8), &base, 0.5);
        assert_eq!(g.failures, 3);
    }

    fn idle_doc(io: &str, idle: u64, threads: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"mode":"idle_scaling","io_mode":"{io}","idle_conns":{idle},
               "hot_conns":2,"reactors":2,
               "os_threads_load":{threads},"hot_ops_s":15000.0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn healthy_idle_run_passes() {
        let mut g = Gate::new();
        // 2000 idle conns held by 6 threads: well under 2+2+8.
        gate_idle(&mut g, &idle_doc("epoll", 2000, 6), 2000.0);
        assert_eq!(g.failures, 0, "{} checks", g.checks);
    }

    #[test]
    fn idle_thread_scaling_regression_fails() {
        // Threads grew with connections (the bug the reactor exists to
        // prevent): budget is 2+2+8 = 12, artifact reports 1013.
        let mut g = Gate::new();
        gate_idle(&mut g, &idle_doc("epoll", 2000, 1013), 2000.0);
        assert_eq!(g.failures, 1);
        // A fleet smaller than the floor also fails.
        let mut g = Gate::new();
        gate_idle(&mut g, &idle_doc("epoll", 500, 6), 2000.0);
        assert_eq!(g.failures, 1);
        // And a run that quietly fell back to the blocking front end.
        let mut g = Gate::new();
        gate_idle(&mut g, &idle_doc("threads", 2000, 6), 2000.0);
        assert_eq!(g.failures, 1);
    }

    #[test]
    fn idle_gate_fails_closed_on_empty_doc() {
        let mut g = Gate::new();
        gate_idle(&mut g, &JsonValue::parse("{}").unwrap(), 2000.0);
        assert_eq!(g.failures, g.checks);
    }

    #[test]
    fn missing_fields_and_wrong_mode_fail_closed() {
        let mut g = Gate::new();
        let empty = JsonValue::parse("{}").unwrap();
        gate_fig5(&mut g, &empty, &empty, 0.5);
        gate_fig7(&mut g, &empty, &empty, 0.5);
        gate_loadgen(&mut g, &empty, &empty, 0.5, 1.5);
        assert_eq!(g.failures, g.checks, "every check must fail closed");

        let mut g = Gate::new();
        gate_loadgen(
            &mut g,
            &loadgen_doc("fixed", 2.5, 55_000.0, 140_000.0),
            &loadgen_doc("pipeline", 2.4, 60_000.0, 150_000.0),
            0.5,
            1.5,
        );
        assert_eq!(g.failures, 1); // wrong mode
    }
}
