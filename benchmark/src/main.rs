//! `sppbench` — end-to-end and per-layer benchmark of the SPP KV service.
//!
//! ```text
//! sppbench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE]
//! sppbench --print-benchmark-json
//! ```
//!
//! With `--workload`, runs that workload in this process: pinned to one
//! CPU, seeded, every reply verified. `--trace 0` is the measured run (the
//! end-to-end metrics), `--trace 1` the traced run (the per-layer metrics
//! and `benchmark/out/trace_<workload>.json`); without `--trace` both run.
//! The last line of standard output is the result as one JSON object.
//! Without `--workload`, runs every workload, each in a process of its own.
//! Exits nonzero on any wrong value, and before measuring anything if it
//! cannot pin itself. See `benchmark/README.md`.

mod gen;
mod hist;
mod ladder;
mod metrics;
mod os;
mod sut;
mod workloads;

use std::process::{Command, ExitCode};

use metrics::{Audit, Outcome, Value, END_TO_END, LAYERS, MAX_UNATTRIBUTED, RUN_SECONDS};
use workloads::{Spec, SPECS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Measured,
    Traced,
}

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    passes: &'static [Pass],
    out: Option<String>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        passes: &[Pass::Measured, Pass::Traced],
        out: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(workloads::spec(&name).ok_or_else(|| {
                    let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload `{name}` (one of {})", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                // Bare `--trace` means `--trace 1`.
                let on = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
                args.passes = if on {
                    &[Pass::Traced]
                } else {
                    &[Pass::Measured]
                };
            }
            "--out" => args.out = Some(value("a file path")?),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// 0 when every checked value was right and the trace accounts for a PUT;
/// 1 otherwise.
pub fn exit_code(audit: &Audit, unattributed: Option<f64>) -> u8 {
    u8::from(audit.failed > 0 || unattributed.is_some_and(unmeasured_layer))
}

/// Too much of a PUT is unaccounted for (or the share is not a number).
fn unmeasured_layer(unattributed: f64) -> bool {
    unattributed.is_nan() || unattributed > MAX_UNATTRIBUTED
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `--out` document: the result with its provenance, for `repeat.sh`
/// and the committed baselines.
fn out_document(
    spec: &Spec,
    args: &Args,
    prov: &os::Provenance,
    values: &[Value],
    audit: &Audit,
    rounds: u64,
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            let samples = v
                .samples
                .map_or(String::new(), |n| format!(", \"samples\": {n}"));
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}{samples}{}}}",
                json_string(v.name),
                if v.value.is_finite() {
                    v.value.to_string()
                } else {
                    "null".to_string()
                },
                json_string(metrics::unit_of(v.name)),
                metrics::judgement_of(v.name),
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"rounds\": {rounds},\n  \
         \"nproc\": {},\n  \"pinned_cpu\": {},\n  \"kernel\": {},\n  \"rustc\": {},\n  \"git_sha\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_string(spec.name),
        args.seed,
        args.seconds,
        prov.nproc,
        prov.cpu,
        json_string(&prov.kernel),
        json_string(&prov.rustc),
        json_string(&prov.git_sha),
        audit.attempted,
        audit.failed,
        metrics.join(",\n"),
    )
}

fn run_one(spec: &'static Spec, args: &Args) -> Result<u8, String> {
    // Before anything can spawn a thread: they all inherit the mask.
    let (cpu, nproc) = os::pin_highest().map_err(|e| {
        format!("cannot pin to one CPU ({e}); unpinned numbers are bimodal on this kind of host and are not published")
    })?;
    let prov = os::Provenance::collect(cpu, nproc);
    println!(
        "sppbench workload={} seed={} seconds={} nproc={} pinned_cpu={} kernel={} rustc=\"{}\" git={}",
        spec.name, args.seed, args.seconds, prov.nproc, prov.cpu, prov.kernel, prov.rustc, prov.git_sha
    );

    let mut values: Vec<Value> = Vec::new();
    let mut audit = Audit::default();
    let mut rounds = 0;
    let mut notes = Vec::new();
    let mut wanted: Vec<&'static str> = Vec::new();
    for pass in args.passes {
        let outcome: Outcome = match pass {
            Pass::Measured => {
                wanted.extend(
                    END_TO_END
                        .iter()
                        .filter(|m| m.in_contract())
                        .map(|m| m.name),
                );
                workloads::measure(spec, args.seed, args.seconds)?
            }
            Pass::Traced => {
                wanted.extend(LAYERS.iter().map(|m| m.name));
                ladder::trace(spec, args.seed)?
            }
        };
        rounds = rounds.max(outcome.rounds);
        values.extend(outcome.values);
        notes.extend(outcome.notes);
        audit.absorb(outcome.audit);
    }

    println!(
        "rounds={rounds} attempted={} failed={}",
        audit.attempted, audit.failed
    );
    for v in &values {
        let n = v.samples.map_or(String::new(), |n| format!("  n={n}"));
        println!(
            "metric {:<32} {:>16.4} {}{n}",
            v.name,
            v.value,
            metrics::unit_of(v.name)
        );
    }
    for note in &notes {
        println!("per-round {note}");
    }
    for e in &audit.examples {
        eprintln!("FAILED: {e}");
    }
    let unattributed = values
        .iter()
        .find(|v| v.name == "trace.put_unattributed_frac")
        .map(|v| v.value);
    if let Some(u) = unattributed.filter(|u| unmeasured_layer(*u)) {
        eprintln!(
            "FAILED: {u:.3} of a PUT round trip is unattributed (limit {MAX_UNATTRIBUTED}): a layer is unmeasured"
        );
    }
    if let Some(path) = &args.out {
        let doc = out_document(spec, args, &prov, &values, &audit, rounds);
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", metrics::result_line(&values, &wanted, &audit)?);
    Ok(exit_code(&audit, unattributed))
}

/// Every workload in a process of its own, so none inherits another's
/// heap or peak RSS. With `--out FILE`, the children's documents are
/// gathered into `FILE` as `{"runs": [...]}`.
fn run_all(args: &Args, argv: &[String]) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut worst = 0;
    let mut docs = Vec::new();
    for spec in &SPECS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name]);
        // Everything asked of the parent, except where to write.
        let mut rest = argv.iter();
        while let Some(a) = rest.next() {
            if a == "--out" {
                rest.next();
            } else {
                cmd.arg(a);
            }
        }
        let part = args.out.as_ref().map(|out| format!("{out}.{}", spec.name));
        if let Some(part) = &part {
            cmd.args(["--out", part]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", spec.name))?;
        worst = worst.max(status.code().map_or(1, |c| c.clamp(0, 255) as u8));
        if let Some(part) = &part {
            // A child that refused to run wrote nothing.
            if let Ok(doc) = std::fs::read_to_string(part) {
                docs.push(doc.trim_end().to_string());
                std::fs::remove_file(part).map_err(|e| format!("{part}: {e}"))?;
            }
        }
        println!();
    }
    if let Some(out) = &args.out {
        let all = format!("{{\"runs\": [\n{}\n]}}\n", docs.join(",\n"));
        std::fs::write(out, all).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(worst)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<u8, String> {
        let args = parse_args(&argv)?;
        if args.print_benchmark_json {
            print!("{}", metrics::benchmark_json());
            return Ok(0);
        }
        match args.workload {
            Some(spec) => run_one(spec, &args),
            None => run_all(&args, &argv),
        }
    };
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("sppbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload rt_mixed --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.unwrap().name, "rt_mixed");
        assert_eq!((a.seed, a.seconds), (7, 10));
        assert_eq!(a.passes, [Pass::Measured]);
        let a = parse("--workload rt_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.passes, [Pass::Traced]);
    }

    #[test]
    fn bare_trace_means_traced_and_no_trace_means_both() {
        assert_eq!(parse("--trace").unwrap().passes, [Pass::Traced]);
        assert_eq!(parse("--trace --seed 3").unwrap().passes, [Pass::Traced]);
        assert_eq!(
            parse("--seed 3").unwrap().passes,
            [Pass::Measured, Pass::Traced]
        );
        assert_eq!(parse("").unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn an_unaccounted_put_fails_the_run() {
        let clean = Audit::default();
        assert_eq!(exit_code(&clean, Some(0.1)), 0);
        assert_eq!(exit_code(&clean, Some(0.3)), 1);
        assert_eq!(exit_code(&clean, Some(f64::NAN)), 1);
    }
}
