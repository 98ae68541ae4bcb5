//! The names the benchmark reports under, with their units, directions and
//! regression bounds, and the result record every run prints.
//!
//! These tables are the single source of the metric names: `BENCHMARK.json`
//! at the repo root is [`benchmark_json`]'s output (a test holds them
//! together), and README's glossary follows the same order.

use std::fmt::Write as _;

use crate::workloads::SPECS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which workloads an end-to-end metric is defined on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    Only(&'static [&'static str]),
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    pub on: On,
}

impl EndToEnd {
    #[cfg(test)]
    pub fn defined_on(&self, workload: &str) -> bool {
        match self.on {
            On::All => true,
            On::Only(names) => names.contains(&workload),
        }
    }

    /// `BENCHMARK.json` can only carry metrics that every workload reports
    /// and that are never zero. The others are still measured, printed and
    /// checked by `repeat.sh`; `failed_frac` reaches the driver as the
    /// result line's `failed`/`attempted`.
    pub fn in_contract(&self) -> bool {
        self.on == On::All && self.name != "failed_frac"
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25, On::All),
    e2e("spp_over_pmdk", "ratio", Lower, 0.10, On::All),
    e2e("get_p50_us", "us", Lower, 0.25, On::All),
    e2e("put_p50_us", "us", Lower, 0.25, On::All),
    e2e(
        "batch_p50_us",
        "us",
        Lower,
        0.25,
        On::Only(&["pipe_write_heavy"]),
    ),
    e2e("failed_frac", "ratio", Lower, 0.0, On::All),
    e2e("space_amp", "ratio", Lower, 0.02, On::All),
    e2e("rss_peak_mb", "MB", Lower, 0.10, On::All),
    e2e("setup_s", "s", Lower, 0.25, On::All),
    e2e("reopen_ms", "ms", Lower, 0.25, On::All),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: On,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics; the prefix is the module the number belongs to.
pub const LAYERS: &[Layer] = &[
    layer("pm.persist64_ns", "ns", Lower),
    layer("pm.persist1k_ns", "ns", Lower),
    layer("pm.flushes_per_put", "count", Lower),
    layer("pm.fences_per_put", "count", Lower),
    layer("pm.bytes_written_per_put", "B", Lower),
    layer("pm.write_amp", "ratio", Lower),
    layer("pm.reads_per_get", "count", Lower),
    layer("pm.bytes_read_per_get", "B", Lower),
    layer("pmdk.alloc_free_ns", "ns", Lower),
    layer("pmdk.tx_commit1_us", "us", Lower),
    layer("pmdk.tx_commit8_us", "us", Lower),
    layer("pmdk.tx_commit64_us", "us", Lower),
    layer("pmdk.allocs_per_put", "count", Lower),
    layer("pmdk.frees_per_put", "count", Lower),
    layer("pmdk.lane_wait_us_per_op", "us", Lower),
    layer("pmdk.open_ms", "ms", Lower),
    layer("core.resolve_ns", "ns", Lower),
    layer("core.resolve_pmdk_ns", "ns", Lower),
    layer("core.direct_ns", "ns", Lower),
    layer("core.gep_ns", "ns", Lower),
    layer("core.resolves_per_get", "count", Lower),
    layer("core.resolves_per_put", "count", Lower),
    layer("core.geps_per_get", "count", Lower),
    layer("core.directs_per_get", "count", Lower),
    layer("core.spp_tax_get_ns", "ns", Lower),
    layer("core.spp_tax_put_ns", "ns", Lower),
    layer("kvstore.get_ns", "ns", Lower),
    layer("kvstore.put_ns", "ns", Lower),
    layer("kvstore.batch8_put_ns", "ns", Lower),
    layer("kvstore.max_chain", "count", Lower),
    layer("kvstore.stripe_wait_us_per_op", "us", Lower),
    layer("engine.get_ns", "ns", Lower),
    layer("engine.put_ns", "ns", Lower),
    layer("engine.batch8_put_ns", "ns", Lower),
    layer("engine.get_self_ns", "ns", Lower),
    layer("engine.open_ms", "ms", Lower),
    layer("group.submit1_us", "us", Lower),
    layer("group.submit8_us", "us", Lower),
    layer("group.submit_self_us", "us", Lower),
    layer("group.ops_per_boundary", "count", Higher),
    layer("wire.encode_req_ns", "ns", Lower),
    layer("wire.decode_req_ns", "ns", Lower),
    layer("wire.encode_resp_ns", "ns", Lower),
    layer("wire.decode_resp_ns", "ns", Lower),
    layer("wire.multi8_codec_ns", "ns", Lower),
    layer("wire.bytes_per_op", "B", Lower),
    layer("ring.shard_of_ns", "ns", Lower),
    layer("server.ping_rtt_us", "us", Lower),
    layer("server.get_rtt_us", "us", Lower),
    layer("server.put_rtt_us", "us", Lower),
    layer("server.multi8_rtt_us", "us", Lower),
    layer("server.pipe8_rtt_us", "us", Lower),
    layer("server.dispatch_us", "us", Lower),
    layer("server.ctx_switches_per_op", "count", Lower),
    layer("server.cpu_user_us_per_op", "us", Lower),
    layer("server.cpu_sys_us_per_op", "us", Lower),
    layer("server.busy_per_op", "count", Lower),
    layer("repl.put_extra_us", "us", Lower),
    layer("repl.batches_per_put", "count", Lower),
    layer("repl.failed_batches", "count", Lower),
    layer("repl.backup_missing_keys", "count", Lower),
    layer("client.get_p99_us", "us", Lower),
    layer("client.get_p999_us", "us", Lower),
    layer("client.put_p99_us", "us", Lower),
    layer("client.batch_p99_us", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.put_unattributed_frac", "ratio", Lower),
    layer("trace.spans", "count", Higher),
];

/// Metrics that are counts of what the program did, not timings: the same
/// seed must reproduce them to the last digit.
pub const EXACT: &[&str] = &[
    "pm.flushes_per_put",
    "pm.fences_per_put",
    "pm.bytes_written_per_put",
    "pm.write_amp",
    "pm.reads_per_get",
    "pm.bytes_read_per_get",
    "pmdk.allocs_per_put",
    "pmdk.frees_per_put",
    "core.resolves_per_get",
    "core.resolves_per_put",
    "core.geps_per_get",
    "core.directs_per_get",
    "kvstore.max_chain",
    "wire.bytes_per_op",
    "repl.failed_batches",
    "repl.backup_missing_keys",
    "server.busy_per_op",
];

/// The run fails when more than this share of a PUT's round trip is not
/// accounted for by the rungs beneath it: a layer is unmeasured.
pub const MAX_UNATTRIBUTED: f64 = 0.25;

/// Seconds the driver asks each run to measure for: one ≈ 1 s round each.
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, spec) in SPECS.iter().enumerate() {
        let comma = if i + 1 < SPECS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            spec.name, spec.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let contract: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.in_contract()).collect();
    for (i, m) in contract.iter().enumerate() {
        let comma = if i + 1 < contract.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in LAYERS.iter().enumerate() {
        let comma = if i + 1 < LAYERS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// How many samples stand behind it, where that means something.
    pub samples: Option<u64>,
}

/// Correctness tally of one run: every checked reply, readback and audit
/// entry is one attempt.
#[derive(Debug, Default)]
pub struct Audit {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Audit {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(what);
        }
    }

    pub fn absorb(&mut self, other: Audit) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one pass (measured or traced) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Vec<Value>,
    pub audit: Audit,
    pub rounds: u64,
    /// Per-round figures behind the medians, one printable line each.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.push(Value {
            name,
            value,
            samples: None,
        });
    }

    pub fn push_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.push(Value {
            name,
            value,
            samples: Some(samples),
        });
    }

    /// Report `name` as the median of `per_round` over `samples` samples,
    /// and keep the per-round figures for the printout.
    pub fn push_median(
        &mut self,
        name: &'static str,
        per_round: &[f64],
        samples: u64,
    ) -> Result<(), String> {
        let m =
            crate::hist::median(per_round).ok_or_else(|| format!("{name}: no finite samples"))?;
        self.push_n(name, m, samples);
        let figures: Vec<String> = per_round.iter().map(|v| format!("{v:.4}")).collect();
        self.notes.push(format!("{name}: {}", figures.join(" ")));
        Ok(())
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// JSON members describing how `name` is judged: direction and bound for
/// an end-to-end metric, `"exact": true` for a count that must repeat.
pub fn judgement_of(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        format!(
            ", \"better\": \"{}\", \"bound\": {}",
            m.better.as_str(),
            m.bound
        )
    } else if EXACT.contains(&name) {
        ", \"exact\": true".to_string()
    } else {
        String::new()
    }
}

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is in neither table"))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly `names`.
pub fn result_line(
    values: &[Value],
    names: &[&'static str],
    audit: &Audit,
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        audit.failed == 0,
        audit.attempted,
        audit.failed
    );
    for (i, name) in names.iter().enumerate() {
        let v = values
            .iter()
            .find(|v| v.name == *name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.value.is_finite() {
            return Err(format!("metric `{name}` is {}", v.value));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            v.value,
            unit_of(name)
        );
    }
    s.push_str("}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `sppbench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|m| m.name));
        names.extend(SPECS.iter().map(|s| s.name));
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok_char), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        let unit_char = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && unit.chars().all(unit_char), "{unit}");
        }
        for m in END_TO_END.iter().filter(|m| m.in_contract()) {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.in_contract() && setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&SPECS.len()));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('"')));
        assert!(LAYERS.len() <= 128);
        for name in EXACT {
            assert!(LAYERS.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn a_wrong_value_fails_the_run() {
        use crate::gen::Model;
        let model = Model::preloaded(4, 100, 1);
        let mut right = Vec::new();
        model.current_value(2, &mut right);
        let mut audit = Audit::default();
        audit.check(model.holds(2, &right), || unreachable!());
        assert_eq!((audit.attempted, audit.failed), (1, 0));
        assert_eq!(crate::exit_code(&audit, None), 0);

        let mut wrong = right.clone();
        wrong[40] ^= 0x80;
        audit.check(model.holds(2, &wrong), || {
            "GET key 2: wrong bytes".to_string()
        });
        assert_eq!((audit.attempted, audit.failed), (2, 1));
        assert!(audit.failed_frac() > 0.0);
        assert_ne!(crate::exit_code(&audit, None), 0);
        let line = result_line(&[], &[], &audit).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn result_line_carries_exactly_the_asked_metrics() {
        let values = vec![
            Value {
                name: "ops_per_s",
                value: 1234.5,
                samples: None,
            },
            Value {
                name: "setup_s",
                value: 0.25,
                samples: Some(3),
            },
            Value {
                name: "batch_p50_us",
                value: 9.0,
                samples: None,
            },
        ];
        let audit = Audit {
            attempted: 7,
            ..Audit::default()
        };
        assert_eq!(
            result_line(&values, &["ops_per_s", "setup_s"], &audit).unwrap(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&values, &["reopen_ms"], &audit).is_err());
        let nan = vec![Value {
            name: "ops_per_s",
            value: f64::NAN,
            samples: None,
        }];
        assert!(result_line(&nan, &["ops_per_s"], &audit).is_err());
    }
}
